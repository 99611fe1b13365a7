//! Query Reconstruction (Section 5.4 of the paper).
//!
//! After a re-optimization point executes part of the query, the remaining query
//! has to be rewritten:
//!
//! * after the **predicate push-down** stage a filtered dataset `A` is replaced
//!   by its materialized post-predicate version `A'` and its local predicates are
//!   dropped from the WHERE clause;
//! * after a **join job** the two joined datasets are removed from the FROM
//!   clause and replaced by the intermediate result `I_AB`, which holds their
//!   columns; the executed join condition disappears. The remaining clauses
//!   are left as they are: their columns keep the identity the binder gave
//!   them (`B.c`), `I_AB` stores them under it, and
//!   [`QuerySpec::home_of`] finds `I_AB` as the dataset holding them.
//!   Reconstruction re-points datasets, never columns.

use crate::query::{DatasetRef, QuerySpec};

/// Rewrites the query after the local predicates of `alias` have been pushed
/// down, executed and materialized as table `filtered_table`: the alias now
/// resolves to the filtered table and its predicates are removed.
pub fn reconstruct_after_pushdown(
    spec: &QuerySpec,
    alias: &str,
    filtered_table: &str,
) -> QuerySpec {
    let mut out = spec.clone();
    for dataset in &mut out.datasets {
        if dataset.alias == alias {
            dataset.table = filtered_table.to_string();
        }
    }
    out.predicates.retain(|p| p.dataset() != alias);
    out
}

/// Rewrites the query after the join between `left_alias` and `right_alias` has
/// been executed and materialized as `intermediate`.
pub fn reconstruct_after_join(
    spec: &QuerySpec,
    left_alias: &str,
    right_alias: &str,
    intermediate: &str,
) -> QuerySpec {
    let consumed = [left_alias, right_alias];

    // The intermediate takes the position of the first consumed dataset in
    // the FROM clause and holds the columns of both.
    let mut datasets: Vec<DatasetRef> = Vec::with_capacity(spec.datasets.len());
    let mut position = None;
    let mut holds = Vec::new();
    for dataset in &spec.datasets {
        if consumed.contains(&dataset.alias.as_str()) {
            position.get_or_insert(datasets.len());
            holds.extend(dataset.holds.iter().cloned());
        } else {
            datasets.push(dataset.clone());
        }
    }
    let position = position.unwrap_or(datasets.len());
    datasets.insert(position, DatasetRef::intermediate(intermediate, holds));

    // Local predicates of the consumed datasets were evaluated inside the job
    // (they were pushed into its scans), so they are dropped here.
    let predicates = spec
        .predicates
        .iter()
        .filter(|p| !consumed.contains(&p.dataset()))
        .cloned()
        .collect();

    // The executed join condition(s) disappear; the others stay as written.
    let joins = spec
        .joins
        .iter()
        .filter(|j| {
            let (l, r) = spec.join_homes(j);
            !(consumed.contains(&l) && consumed.contains(&r))
        })
        .cloned()
        .collect();

    QuerySpec {
        datasets,
        predicates,
        joins,
        projection: spec.projection.clone(),
        name: spec.name.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::FieldRef;
    use rdo_exec::{CmpOp, Predicate};

    /// The paper's running example: `SELECT A.a FROM A, B, C, D WHERE udf(A)
    /// AND A.b = B.b AND udf(C) AND B.c = C.c AND B.d = D.d`.
    fn q1() -> QuerySpec {
        QuerySpec::new("Q1")
            .with_dataset(DatasetRef::named("A"))
            .with_dataset(DatasetRef::named("B"))
            .with_dataset(DatasetRef::named("C"))
            .with_dataset(DatasetRef::named("D"))
            .with_predicate(Predicate::udf("udf", FieldRef::new("A", "a"), |_| true))
            .with_predicate(Predicate::udf("udf", FieldRef::new("C", "c"), |_| true))
            .with_join(FieldRef::new("A", "b"), FieldRef::new("B", "b"))
            .with_join(FieldRef::new("B", "c"), FieldRef::new("C", "c"))
            .with_join(FieldRef::new("B", "d"), FieldRef::new("D", "d"))
            .with_projection(vec![FieldRef::new("A", "a")])
    }

    #[test]
    fn pushdown_replaces_table_and_drops_predicates() {
        let q = q1();
        let rewritten = reconstruct_after_pushdown(&q, "A", "A_prime");
        assert_eq!(rewritten.table_of("A").unwrap(), "A_prime");
        assert!(rewritten.predicates_for("A").is_empty());
        // C's UDF is untouched; join conditions are untouched.
        assert_eq!(rewritten.predicates_for("C").len(), 1);
        assert_eq!(rewritten.join_count(), 3);
        assert_eq!(rewritten.datasets.len(), 4);
    }

    #[test]
    fn join_reconstruction_matches_paper_example() {
        // Execute A' ⋈ B first (the paper's 𝐽_{A'B}), materialized as I_AB.
        let q = reconstruct_after_pushdown(&q1(), "A", "A_prime");
        let q = reconstruct_after_pushdown(&q, "C", "C_prime");
        let rewritten = reconstruct_after_join(&q, "A", "B", "I_AB");

        // FROM clause: I_AB, C, D (the paper's Q4).
        assert_eq!(
            rewritten.aliases(),
            vec!["I_AB", "C", "D"],
            "consumed datasets replaced by the intermediate"
        );
        // The executed join A.b = B.b is gone; two joins remain, written as
        // before, and I_AB now holds their B side.
        assert_eq!(rewritten.join_count(), 2);
        let described: Vec<String> = rewritten.joins.iter().map(|j| j.describe()).collect();
        assert_eq!(described, vec!["B.c = C.c", "B.d = D.d"]);
        assert_eq!(rewritten.join_homes(&rewritten.joins[0]), ("I_AB", "C"));
        assert_eq!(rewritten.join_homes(&rewritten.joins[1]), ("I_AB", "D"));
        // The projection keeps its column, which I_AB holds.
        assert_eq!(rewritten.projection, vec![FieldRef::new("A", "a")]);
        assert_eq!(rewritten.home_of(&rewritten.projection[0]), "I_AB");
        // The query still validates (connected join graph, known aliases).
        assert!(rewritten.validate().is_ok());
    }

    #[test]
    fn predicates_of_consumed_datasets_are_dropped() {
        let q = q1();
        // Join A and B without pushing down A's UDF first: the UDF is evaluated
        // inside the join job, so reconstruction must drop it.
        let rewritten = reconstruct_after_join(&q, "A", "B", "I_1");
        assert!(rewritten.predicates_for("A").is_empty());
        assert!(rewritten.predicates.iter().all(|p| p.dataset() != "A"));
        assert_eq!(rewritten.predicates.len(), 1, "C's predicate survives");
    }

    #[test]
    fn reconstruction_is_iterative() {
        let q = q1();
        let step1 = reconstruct_after_join(&q, "A", "B", "I_1");
        let step2 = reconstruct_after_join(&step1, "I_1", "C", "I_2");
        assert_eq!(step2.aliases(), vec!["I_2", "D"]);
        assert_eq!(step2.join_count(), 1);
        assert_eq!(step2.joins[0].describe(), "B.d = D.d");
        assert_eq!(step2.join_homes(&step2.joins[0]), ("I_2", "D"));
        assert_eq!(step2.projection, vec![FieldRef::new("A", "a")]);
        assert_eq!(step2.home_of(&step2.projection[0]), "I_2");
        assert_eq!(step2.datasets[0].holds, vec!["A", "B", "C"]);
    }

    #[test]
    fn composite_edges_fully_removed() {
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("ss"))
            .with_dataset(DatasetRef::named("sr"))
            .with_dataset(DatasetRef::named("s"))
            .with_join(FieldRef::new("ss", "item"), FieldRef::new("sr", "item"))
            .with_join(FieldRef::new("ss", "ticket"), FieldRef::new("sr", "ticket"))
            .with_join(FieldRef::new("ss", "store"), FieldRef::new("s", "store"));
        let rewritten = reconstruct_after_join(&q, "ss", "sr", "I_1");
        assert_eq!(rewritten.join_count(), 1);
        assert_eq!(rewritten.joins[0].describe(), "ss.store = s.store");
        assert_eq!(rewritten.join_homes(&rewritten.joins[0]), ("I_1", "s"));
        assert_eq!(rewritten.aliases(), vec!["I_1", "s"]);
    }

    #[test]
    fn predicate_on_surviving_dataset_kept_with_field_untouched() {
        let q = q1().with_predicate(Predicate::compare(FieldRef::new("D", "x"), CmpOp::Gt, 5i64));
        let rewritten = reconstruct_after_join(&q, "A", "B", "I_1");
        assert_eq!(rewritten.predicates_for("D").len(), 1);
    }
}
