//! Dataset-level statistics and the statistics catalog.
//!
//! The paper collects sketches "for every field of a dataset that may
//! participate in any query" at ingestion time and, for intermediate results,
//! "only on attributes that participate on subsequent join stages". The
//! [`DatasetStatsBuilder`] supports both modes by taking an explicit list of
//! tracked columns.

use crate::column::{ColumnStats, ColumnStatsBuilder};
use rdo_common::{Batch, FieldRef, RdoError, Relation, Result, Schema, Tuple};
use std::collections::HashMap;

/// Statistics for one dataset (base or intermediate).
#[derive(Debug, Clone, Default)]
pub struct DatasetStats {
    /// Number of rows in the dataset.
    pub row_count: u64,
    /// Per-column statistics keyed by the column's identity as the dataset
    /// stores it: `lineitem.l_partkey` for a base table, the bound `a.id` and
    /// `b.id` for an intermediate holding both.
    pub columns: HashMap<FieldRef, ColumnStats>,
}

impl DatasetStats {
    /// Returns the statistics for a column if tracked.
    pub fn column(&self, column: &FieldRef) -> Option<&ColumnStats> {
        self.columns.get(column)
    }

    /// Estimated number of distinct values of a column; falls back to the row
    /// count (every row distinct) when the column is untracked, which is the
    /// conservative assumption for key columns.
    pub fn distinct_or_rowcount(&self, column: &FieldRef) -> f64 {
        self.columns
            .get(column)
            .map(|c| c.distinct_nonzero())
            .unwrap_or_else(|| self.row_count.max(1) as f64)
    }
}

/// Streaming builder for [`DatasetStats`].
#[derive(Debug, Clone)]
pub struct DatasetStatsBuilder {
    row_count: u64,
    tracked: Vec<(FieldRef, usize)>,
    builders: Vec<ColumnStatsBuilder>,
}

impl DatasetStatsBuilder {
    /// Creates a builder tracking the given columns of `schema`, each found by
    /// its exact identity; columns the schema does not hold are ignored (they
    /// may belong to other datasets of the same query).
    pub fn new(schema: &Schema, tracked_columns: &[FieldRef]) -> Self {
        let mut tracked: Vec<(FieldRef, usize)> = Vec::new();
        for column in tracked_columns {
            if let Ok(idx) = schema.index_of(column) {
                if !tracked.iter().any(|(c, _)| c == column) {
                    tracked.push((column.clone(), idx));
                }
            }
        }
        let builders = tracked.iter().map(|_| ColumnStatsBuilder::new()).collect();
        Self {
            row_count: 0,
            tracked,
            builders,
        }
    }

    /// Creates a builder tracking *all* columns of the schema (ingestion mode).
    pub fn all_columns(schema: &Schema) -> Self {
        let columns: Vec<FieldRef> = schema.fields().iter().map(|f| f.name.clone()).collect();
        Self::new(schema, &columns)
    }

    /// Observes one tuple.
    pub fn observe(&mut self, tuple: &Tuple) {
        self.row_count += 1;
        for ((_, idx), builder) in self.tracked.iter().zip(self.builders.iter_mut()) {
            builder.observe(tuple.value(*idx));
        }
    }

    /// Observes every row of a batch, one tracked column at a time. Each
    /// column's sketch sees its values in row order, so the state is the one
    /// [`DatasetStatsBuilder::observe`] leaves after the same rows.
    pub fn observe_batch(&mut self, batch: &Batch) {
        self.row_count += batch.num_rows() as u64;
        for ((_, idx), builder) in self.tracked.iter().zip(self.builders.iter_mut()) {
            builder.observe_column(batch.column(*idx));
        }
    }

    /// Observes every row of a relation.
    pub fn observe_relation(&mut self, relation: &Relation) {
        for row in relation.rows() {
            self.observe(row);
        }
    }

    /// Number of rows observed.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Merges another builder collected over a disjoint set of rows of the same
    /// dataset — another cluster partition, or another LSM component of the
    /// ingestion pipeline. Columns are matched by identity; columns tracked only by
    /// one side keep that side's state.
    pub fn merge(&mut self, other: &DatasetStatsBuilder) {
        self.row_count += other.row_count;
        for ((name, _), builder) in self.tracked.iter().zip(self.builders.iter_mut()) {
            if let Some(pos) = other.tracked.iter().position(|(n, _)| n == name) {
                builder.merge(&other.builders[pos]);
            }
        }
    }

    /// Flushes every column's quantile buffer into its summary. A partial
    /// does this on the worker that built it, so that merging it elsewhere
    /// only reads it.
    pub fn seal(&mut self) {
        self.builders.iter_mut().for_each(ColumnStatsBuilder::seal);
    }

    /// The statistics of tracked column `index` over `partials` — builders
    /// over disjoint row sets, all tracking the same columns — merged in
    /// slice order: what [`DatasetStatsBuilder::merge`]-ing them into a fresh
    /// builder and building it gives for that column. Columns do not depend
    /// on each other, so a caller may compute them concurrently.
    pub fn merged_column(partials: &[DatasetStatsBuilder], index: usize) -> ColumnStats {
        let mut merged = ColumnStatsBuilder::new();
        for partial in partials {
            debug_assert_eq!(partial.tracked[index].0, partials[0].tracked[index].0);
            merged.merge(&partial.builders[index]);
        }
        merged.build()
    }

    /// The columns being tracked.
    pub fn tracked_columns(&self) -> Vec<FieldRef> {
        self.tracked.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Finalizes the statistics.
    pub fn build(self) -> DatasetStats {
        let columns = self
            .tracked
            .into_iter()
            .zip(self.builders)
            .map(|((name, _), builder)| (name, builder.build()))
            .collect();
        DatasetStats {
            row_count: self.row_count,
            columns,
        }
    }
}

/// The statistics catalog: dataset name → statistics. This is the `Statistics`
/// object threaded through Algorithm 1 of the paper; it is updated after the
/// predicate push-down stage and after every materialized join.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    datasets: HashMap<String, DatasetStats>,
}

impl StatsCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the statistics of a dataset.
    pub fn register(&mut self, dataset: impl Into<String>, stats: DatasetStats) {
        self.datasets.insert(dataset.into(), stats);
    }

    /// Removes a dataset's statistics (used when the dataset is consumed by a
    /// materialized join and replaced by the intermediate result).
    pub fn remove(&mut self, dataset: &str) -> Option<DatasetStats> {
        self.datasets.remove(dataset)
    }

    /// Returns the statistics for a dataset.
    pub fn get(&self, dataset: &str) -> Option<&DatasetStats> {
        self.datasets.get(dataset)
    }

    /// Returns the statistics for a dataset or an error.
    pub fn require(&self, dataset: &str) -> Result<&DatasetStats> {
        self.get(dataset)
            .ok_or_else(|| RdoError::MissingStatistics(dataset.to_string()))
    }

    /// Row count of a dataset, if known.
    pub fn row_count(&self, dataset: &str) -> Option<u64> {
        self.get(dataset).map(|s| s.row_count)
    }

    /// Names of all datasets with statistics.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.datasets.keys().cloned().collect();
        names.sort();
        names
    }

    /// True if the catalog has statistics for the dataset.
    pub fn contains(&self, dataset: &str) -> bool {
        self.datasets.contains_key(dataset)
    }

    /// Number of datasets tracked.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// True if no dataset is tracked.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Value};

    fn schema() -> Schema {
        Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
                ("o_status", DataType::Utf8),
            ],
        )
    }

    fn relation(n: i64) -> Relation {
        let rows = (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Int64(i % 100),
                    Value::from(if i % 2 == 0 { "F" } else { "O" }),
                ])
            })
            .collect();
        Relation::new(schema(), rows).unwrap()
    }

    fn orders(field: &str) -> FieldRef {
        FieldRef::new("orders", field)
    }

    #[test]
    fn tracks_requested_columns_only() {
        let b = DatasetStatsBuilder::new(&schema(), &[orders("o_custkey"), orders("unknown")]);
        assert_eq!(b.tracked_columns(), vec![orders("o_custkey")]);
    }

    #[test]
    fn columns_are_found_by_identity_not_by_name() {
        let b = DatasetStatsBuilder::new(&schema(), &[FieldRef::new("o2", "o_orderkey")]);
        assert!(b.tracked_columns().is_empty());
    }

    #[test]
    fn duplicate_tracked_columns_deduplicated() {
        let b = DatasetStatsBuilder::new(&schema(), &[orders("o_orderkey"), orders("o_orderkey")]);
        assert_eq!(b.tracked_columns().len(), 1);
    }

    /// An intermediate holding `a.id` and `b.id` tracks both, each with the
    /// sketch of its own values.
    #[test]
    fn same_named_columns_of_two_datasets_get_their_own_sketches() {
        let a = Schema::for_dataset("a", &[("id", DataType::Int64)]);
        let joined = a.join(&Schema::for_dataset("b", &[("id", DataType::Int64)]));
        let (a_id, b_id) = (FieldRef::new("a", "id"), FieldRef::new("b", "id"));
        let mut builder = DatasetStatsBuilder::new(&joined, &[a_id.clone(), b_id.clone()]);
        for i in 0..1_000i64 {
            builder.observe(&Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10)]));
        }
        let stats = builder.build();
        assert_eq!(stats.columns.len(), 2);
        assert!((stats.column(&a_id).unwrap().distinct as i64 - 1_000).abs() <= 50);
        assert_eq!(stats.column(&b_id).unwrap().distinct, 10);
    }

    #[test]
    fn builds_dataset_stats() {
        let mut b = DatasetStatsBuilder::all_columns(&schema());
        b.observe_relation(&relation(1000));
        let stats = b.build();
        assert_eq!(stats.row_count, 1000);
        let custkey = stats.column(&orders("o_custkey")).unwrap();
        assert!((custkey.distinct as i64 - 100).abs() <= 5);
        let status = stats.column(&orders("o_status")).unwrap();
        assert!(status.distinct <= 3);
        assert_eq!(stats.distinct_or_rowcount(&orders("o_missing")), 1000.0);
    }

    #[test]
    fn merge_combines_disjoint_row_sets() {
        let mut a = DatasetStatsBuilder::all_columns(&schema());
        let mut b = DatasetStatsBuilder::all_columns(&schema());
        let full = relation(2_000);
        for (i, row) in full.rows().iter().enumerate() {
            if i < 1_000 {
                a.observe(row);
            } else {
                b.observe(row);
            }
        }
        a.merge(&b);
        let merged = a.build();

        let mut direct = DatasetStatsBuilder::all_columns(&schema());
        direct.observe_relation(&full);
        let reference = direct.build();

        assert_eq!(merged.row_count, reference.row_count);
        let merged_distinct = merged.column(&orders("o_orderkey")).unwrap().distinct as f64;
        let reference_distinct = reference.column(&orders("o_orderkey")).unwrap().distinct as f64;
        let relative = (merged_distinct - reference_distinct).abs() / reference_distinct;
        assert!(relative < 0.05, "merged distinct deviates by {relative}");
    }

    #[test]
    fn merge_ignores_columns_missing_from_other() {
        let mut a =
            DatasetStatsBuilder::new(&schema(), &[orders("o_orderkey"), orders("o_custkey")]);
        let mut b = DatasetStatsBuilder::new(&schema(), &[orders("o_orderkey")]);
        a.observe_relation(&relation(10));
        b.observe_relation(&relation(10));
        a.merge(&b);
        let stats = a.build();
        assert_eq!(stats.row_count, 20);
        assert_eq!(stats.column(&orders("o_orderkey")).unwrap().count, 20);
        assert_eq!(stats.column(&orders("o_custkey")).unwrap().count, 10);
    }

    #[test]
    fn merged_column_equals_merging_sealed_or_unsealed_builders() {
        let full = relation(3_000);
        let mut partials: Vec<DatasetStatsBuilder> = (0..4)
            .map(|_| DatasetStatsBuilder::all_columns(&schema()))
            .collect();
        for (i, row) in full.rows().iter().enumerate() {
            partials[i % 4].observe(row);
        }
        let mut whole = DatasetStatsBuilder::all_columns(&schema());
        partials.iter().for_each(|p| whole.merge(p));
        let expected = whole.build();

        partials.iter_mut().for_each(DatasetStatsBuilder::seal);
        for (index, name) in partials[0].tracked_columns().iter().enumerate() {
            assert_eq!(
                format!("{:?}", DatasetStatsBuilder::merged_column(&partials, index)),
                format!("{:?}", expected.column(name).unwrap()),
                "{name}"
            );
        }
    }

    /// Column-slot observation leaves the very sketch state row-by-row
    /// observation does: same GK tuples, same HLL registers, same counters,
    /// for every column representation and wherever the chunks are cut.
    #[test]
    fn batch_observation_matches_row_observation() {
        let schema = Schema::for_dataset(
            "t",
            &[
                ("i", DataType::Int64),
                ("f", DataType::Float64),
                ("s", DataType::Utf8),
                ("b", DataType::Bool),
                ("d", DataType::Date),
                ("m", DataType::Int64),
            ],
        );
        let rows: Vec<Tuple> = (0..500i64)
            .map(|i| {
                Tuple::new(vec![
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i % 37)
                    },
                    match i % 7 {
                        0 => Value::Float64(f64::NAN),
                        1 => Value::Float64(-0.0),
                        2 => Value::Null,
                        _ => Value::Float64(i as f64 / 3.0),
                    },
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Utf8(format!("name-é{}", i % 23))
                    },
                    Value::Bool(i % 3 == 0),
                    Value::Date(i % 90),
                    // Heterogeneous: lands in a Mixed column.
                    if i % 2 == 0 {
                        Value::Int64(i)
                    } else {
                        Value::Utf8(format!("m{i}"))
                    },
                ])
            })
            .collect();
        let mut by_rows = DatasetStatsBuilder::all_columns(&schema);
        for row in &rows {
            by_rows.observe(row);
        }
        for chunk_size in [1usize, 3, 64, 1024] {
            let mut by_batches = DatasetStatsBuilder::all_columns(&schema);
            for chunk in rows.chunks(chunk_size) {
                by_batches.observe_batch(&Batch::from_rows(6, chunk));
            }
            assert_eq!(
                format!("{by_batches:?}"),
                format!("{by_rows:?}"),
                "chunk size {chunk_size}"
            );
        }
    }

    #[test]
    fn catalog_roundtrip() {
        let mut catalog = StatsCatalog::new();
        assert!(catalog.is_empty());
        let mut b = DatasetStatsBuilder::all_columns(&schema());
        b.observe_relation(&relation(50));
        catalog.register("orders", b.build());
        assert!(catalog.contains("orders"));
        assert_eq!(catalog.row_count("orders"), Some(50));
        assert_eq!(catalog.len(), 1);
        assert!(catalog.require("orders").is_ok());
        assert!(catalog.require("lineitem").is_err());
        let stats = catalog.get("orders").unwrap();
        assert!(stats.distinct_or_rowcount(&orders("o_custkey")) >= 40.0);
        catalog.remove("orders");
        assert!(catalog.is_empty());
    }

    #[test]
    fn dataset_names_sorted() {
        let mut catalog = StatsCatalog::new();
        catalog.register("b", DatasetStats::default());
        catalog.register("a", DatasetStats::default());
        assert_eq!(
            catalog.dataset_names(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn register_replaces_earlier_statistics() {
        let mut catalog = StatsCatalog::new();
        for n in [10, 30] {
            let mut b = DatasetStatsBuilder::all_columns(&schema());
            b.observe_relation(&relation(n));
            catalog.register("orders", b.build());
        }
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.row_count("orders"), Some(30));
    }

    #[test]
    fn removed_statistics_are_returned_and_forgotten() {
        let mut catalog = StatsCatalog::new();
        let mut b = DatasetStatsBuilder::all_columns(&schema());
        b.observe_relation(&relation(5));
        catalog.register("orders", b.build());
        let removed = catalog.remove("orders").expect("registered");
        assert_eq!(removed.row_count, 5);
        assert!(catalog.remove("orders").is_none());
        assert_eq!(catalog.row_count("orders"), None);
        assert!(matches!(
            catalog.require("orders"),
            Err(RdoError::MissingStatistics(name)) if name == "orders"
        ));
    }
}
