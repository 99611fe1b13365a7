//! A test oracle shared by the integration suites.

use runtime_dynamic_optimization::prelude::*;

/// Evaluates a bound query by nested loops over the base relations: every
/// dataset of `spec` in FROM order, seen under its alias and filtered by its
/// local predicates, each combination kept when every equi-join whose two
/// sides are bound holds (NULL never joins), projected onto the SELECT list
/// (every column when it is empty). `tables` maps the catalog's table names to
/// the relations ingested under them. Returns the result rows sorted, so two
/// results compare as multisets.
pub fn nested_loop(spec: &QuerySpec, tables: &[(&str, &Relation)]) -> Vec<Vec<Value>> {
    let mut columns: Vec<FieldRef> = Vec::new();
    let mut rows: Vec<Vec<Value>> = vec![Vec::new()];
    for dataset in &spec.datasets {
        let (_, relation) = tables
            .iter()
            .find(|(name, _)| *name == dataset.table)
            .unwrap_or_else(|| panic!("no relation for table {}", dataset.table));
        let seen: Vec<FieldRef> = relation
            .schema()
            .fields()
            .iter()
            .map(|f| FieldRef::new(dataset.alias.clone(), f.name.field.clone()))
            .collect();
        let schema = Schema::new(
            seen.iter()
                .zip(relation.schema().fields())
                .map(|(name, f)| Field::new(name.clone(), f.data_type))
                .collect(),
        );
        let predicates = spec.predicates_for(&dataset.alias);
        let qualified: Vec<&Tuple> = relation
            .rows()
            .iter()
            .filter(|row| predicates.iter().all(|p| p.evaluate(&schema, row).unwrap()))
            .collect();
        columns.extend(seen);
        let position = |f: &FieldRef| columns.iter().position(|c| c == f);
        let bound: Vec<(usize, usize)> = spec
            .joins
            .iter()
            .filter_map(|j| Some((position(&j.left)?, position(&j.right)?)))
            .collect();
        rows = rows
            .iter()
            .flat_map(|prefix| {
                qualified.iter().map(move |row| {
                    let mut combined = prefix.clone();
                    combined.extend(row.values().iter().cloned());
                    combined
                })
            })
            .filter(|row| {
                bound
                    .iter()
                    .all(|&(l, r)| !row[l].is_null() && row[l] == row[r])
            })
            .collect();
    }
    if !spec.projection.is_empty() {
        let picks: Vec<usize> = spec
            .projection
            .iter()
            .map(|f| {
                columns
                    .iter()
                    .position(|c| c == f)
                    .expect("projected column")
            })
            .collect();
        rows = rows
            .into_iter()
            .map(|row| picks.iter().map(|&i| row[i].clone()).collect())
            .collect();
    }
    rows.sort();
    rows
}
