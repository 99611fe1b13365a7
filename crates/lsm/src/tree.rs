//! The LSM dataset: memtable + immutable components + merge policy.
//!
//! This is the stand-in for AsterixDB's per-dataset LSM storage used during
//! data loading. Its role in the reproduction is twofold:
//!
//! 1. it provides the ingestion path through which base data arrives (insert →
//!    flush → merge), with write-amplification accounting;
//! 2. it demonstrates the paper's claim that the *initial* statistics come "for
//!    free" from the ingestion pipeline: every component carries its own
//!    sketches, and [`LsmDataset::merged_stats`] combines them without
//!    rescanning the data. [`LsmDataset::load_into_catalog`] registers the
//!    gathered table *and* those statistics with the cluster catalog.

use crate::component::{Component, ComponentId};
use crate::memtable::MemTable;
use crate::policy::{MergeDecision, MergePolicy, PrefixMergePolicy};
use rdo_common::{RdoError, Relation, Result, Schema, Tuple, Value};
use rdo_sketch::{DatasetStats, DatasetStatsBuilder};
use rdo_storage::{Catalog, IngestOptions};
use std::collections::BTreeMap;

/// Configuration of an LSM dataset.
#[derive(Debug, Clone, Copy)]
pub struct LsmOptions {
    /// Rows buffered in the memtable before a flush.
    pub memtable_capacity: usize,
}

impl Default for LsmOptions {
    fn default() -> Self {
        Self {
            memtable_capacity: 4_096,
        }
    }
}

/// Counters describing what the ingestion pipeline did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestionMetrics {
    /// Rows handed to [`LsmDataset::insert`].
    pub rows_ingested: u64,
    /// Flushes of the memtable into a new component.
    pub flushes: u64,
    /// Merges executed by the policy.
    pub merges: u64,
    /// Rows written to components (flush + merge rewrites) — the numerator of
    /// write amplification.
    pub rows_written: u64,
    /// Components created over the dataset's lifetime.
    pub components_created: u64,
}

impl IngestionMetrics {
    /// Write amplification: component rows written per ingested row.
    pub fn write_amplification(&self) -> f64 {
        if self.rows_ingested == 0 {
            0.0
        } else {
            self.rows_written as f64 / self.rows_ingested as f64
        }
    }
}

/// An LSM-managed dataset.
#[derive(Debug)]
pub struct LsmDataset {
    name: String,
    schema: Schema,
    key_column: String,
    key_index: usize,
    memtable: MemTable,
    components: Vec<Component>,
    policy: Box<dyn MergePolicy>,
    options: LsmOptions,
    metrics: IngestionMetrics,
    next_component: u64,
}

impl LsmDataset {
    /// Creates an empty dataset keyed on `key_column` with the default prefix
    /// merge policy.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        key_column: &str,
        options: LsmOptions,
    ) -> Result<Self> {
        Self::with_policy(
            name,
            schema,
            key_column,
            options,
            Box::new(PrefixMergePolicy::default()),
        )
    }

    /// Creates an empty dataset with an explicit merge policy.
    pub fn with_policy(
        name: impl Into<String>,
        schema: Schema,
        key_column: &str,
        options: LsmOptions,
        policy: Box<dyn MergePolicy>,
    ) -> Result<Self> {
        let memtable = MemTable::new(schema.clone(), key_column, options.memtable_capacity)?;
        let key_index = memtable.key_index();
        Ok(Self {
            name: name.into(),
            schema,
            key_column: key_column.to_string(),
            key_index,
            memtable,
            components: Vec::new(),
            policy,
            options,
            metrics: IngestionMetrics::default(),
            next_component: 0,
        })
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Primary-key column.
    pub fn key_column(&self) -> &str {
        &self.key_column
    }

    /// The merge policy in use.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The ingestion configuration.
    pub fn options(&self) -> LsmOptions {
        self.options
    }

    /// Ingestion counters.
    pub fn metrics(&self) -> IngestionMetrics {
        self.metrics
    }

    /// The immutable components, oldest → newest.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Inserts one row, flushing and merging as needed.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        self.memtable.insert(tuple)?;
        self.metrics.rows_ingested += 1;
        if self.memtable.is_full() {
            self.flush()?;
        }
        Ok(())
    }

    /// Inserts every row of a relation (schemas must match by arity).
    pub fn insert_relation(&mut self, relation: &Relation) -> Result<()> {
        for row in relation.rows() {
            self.insert(row.clone())?;
        }
        Ok(())
    }

    /// Flushes the memtable into a new component (no-op when empty), then lets
    /// the merge policy react.
    pub fn flush(&mut self) -> Result<Option<ComponentId>> {
        if self.memtable.is_empty() {
            return Ok(None);
        }
        let rows = self.memtable.drain_sorted();
        let id = ComponentId(self.next_component);
        self.next_component += 1;
        let component = Component::from_sorted_rows(id, 0, &self.schema, self.key_index, rows)?;
        self.metrics.flushes += 1;
        self.metrics.components_created += 1;
        self.metrics.rows_written += component.len() as u64;
        self.components.push(component);
        self.maybe_merge()?;
        Ok(Some(id))
    }

    fn maybe_merge(&mut self) -> Result<()> {
        loop {
            let refs: Vec<&Component> = self.components.iter().collect();
            let decision = self.policy.decide(&refs);
            match decision {
                MergeDecision::None => return Ok(()),
                MergeDecision::Merge(ids) => {
                    if ids.len() < 2 {
                        return Ok(());
                    }
                    let inputs: Vec<&Component> = self
                        .components
                        .iter()
                        .filter(|c| ids.contains(&c.id()))
                        .collect();
                    if inputs.len() != ids.len() {
                        return Err(RdoError::Execution(format!(
                            "merge policy `{}` selected unknown components",
                            self.policy.name()
                        )));
                    }
                    let id = ComponentId(self.next_component);
                    self.next_component += 1;
                    let merged = Component::merge_of(id, &self.schema, self.key_index, &inputs)?;
                    self.metrics.merges += 1;
                    self.metrics.components_created += 1;
                    self.metrics.rows_written += merged.len() as u64;
                    // Replace the inputs with the merged component, keeping the
                    // position of the oldest input so ordering stays oldest → newest.
                    let first_pos = self
                        .components
                        .iter()
                        .position(|c| ids.contains(&c.id()))
                        .expect("inputs exist");
                    self.components.retain(|c| !ids.contains(&c.id()));
                    self.components
                        .insert(first_pos.min(self.components.len()), merged);
                }
            }
        }
    }

    /// Point lookup: memtable first, then components newest → oldest.
    pub fn get(&self, key: &Value) -> Option<Tuple> {
        if let Some(row) = self.memtable.get(key) {
            return Some(row.clone());
        }
        for component in self.components.iter().rev() {
            if let Some(row) = component.get(key) {
                return Some(row.clone());
            }
        }
        None
    }

    /// Number of live (distinct-key) rows.
    pub fn row_count(&self) -> usize {
        self.merged_view().len()
    }

    /// A merged, newest-version-wins view of the dataset, sorted by key.
    pub fn scan(&self) -> Relation {
        let rows: Vec<Tuple> = self.merged_view().into_values().collect();
        Relation::new(self.schema.clone(), rows).expect("schema matches stored rows")
    }

    fn merged_view(&self) -> BTreeMap<Value, Tuple> {
        // Newest first: memtable, then components newest → oldest; the first
        // version seen for a key wins.
        let mut view: BTreeMap<Value, Tuple> = BTreeMap::new();
        let consider = |row: &Tuple, view: &mut BTreeMap<Value, Tuple>| {
            let key = row.value(self.key_index).clone();
            view.entry(key).or_insert_with(|| row.clone());
        };
        for row in self.memtable.iter() {
            consider(row, &mut view);
        }
        for component in self.components.iter().rev() {
            for row in component.rows() {
                consider(row, &mut view);
            }
        }
        view
    }

    /// Dataset-level statistics derived purely by merging the per-component
    /// sketches (no rescan). Rows that were overwritten by a later upsert and
    /// not yet compacted away are counted once per stored version — the same
    /// slight overcount a real LSM ingestion pipeline exhibits.
    ///
    /// Unflushed memtable rows are not covered; call [`Self::flush`] first (or
    /// use [`Self::load_into_catalog`], which does).
    pub fn merged_stats(&self) -> DatasetStats {
        let mut combined: Option<DatasetStatsBuilder> = None;
        for component in &self.components {
            match combined.as_mut() {
                None => combined = Some(component.stats_builder().clone()),
                Some(builder) => builder.merge(component.stats_builder()),
            }
        }
        combined
            .map(|b| b.build())
            .unwrap_or_else(|| DatasetStatsBuilder::all_columns(&self.schema).build())
    }

    /// Flushes any remaining rows, registers the merged view as a table in the
    /// cluster catalog, and registers the *component-derived* statistics with
    /// the statistics catalog — the paper's "statistics collected during LSM
    /// ingestion" short-cut.
    pub fn load_into_catalog(&mut self, catalog: &mut Catalog) -> Result<()> {
        self.flush()?;
        let relation = self.scan();
        let options = IngestOptions::partitioned_on(self.key_column.clone()).without_stats();
        catalog.ingest(self.name.clone(), relation, options)?;
        catalog
            .stats_mut()
            .register(self.name.clone(), self.merged_stats());
        Ok(())
    }

    /// Convenience: build an LSM dataset from a relation and the memtable
    /// capacity, returning the dataset (used by benches and the equivalence
    /// tests).
    pub fn from_relation(
        name: impl Into<String>,
        relation: &Relation,
        key_column: &str,
        options: LsmOptions,
    ) -> Result<Self> {
        let mut dataset = Self::new(name, relation.schema().clone(), key_column, options)?;
        dataset.insert_relation(relation)?;
        Ok(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoMergePolicy, TieredMergePolicy};
    use rdo_common::{DataType, FieldRef};

    fn schema() -> Schema {
        Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
            ],
        )
    }

    fn row(key: i64) -> Tuple {
        Tuple::new(vec![Value::Int64(key), Value::Int64(key % 50)])
    }

    fn dataset(capacity: usize, policy: Box<dyn MergePolicy>) -> LsmDataset {
        LsmDataset::with_policy(
            "orders",
            schema(),
            "o_orderkey",
            LsmOptions {
                memtable_capacity: capacity,
            },
            policy,
        )
        .unwrap()
    }

    #[test]
    fn inserts_flush_when_memtable_fills() {
        let mut ds = dataset(100, Box::new(NoMergePolicy));
        for key in 0..1_000 {
            ds.insert(row(key)).unwrap();
        }
        assert_eq!(ds.metrics().flushes, 10);
        assert_eq!(ds.components().len(), 10);
        assert_eq!(ds.row_count(), 1_000);
        assert_eq!(ds.metrics().rows_ingested, 1_000);
        assert!((ds.metrics().write_amplification() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tiered_merges_reduce_component_count_and_raise_write_amplification() {
        let mut ds = dataset(100, Box::new(TieredMergePolicy { max_components: 4 }));
        for key in 0..2_000 {
            ds.insert(row(key)).unwrap();
        }
        ds.flush().unwrap();
        assert!(
            ds.components().len() < 20,
            "merges keep the component count low"
        );
        assert!(ds.metrics().merges > 0);
        assert!(ds.metrics().write_amplification() > 1.0);
        assert_eq!(ds.row_count(), 2_000);
    }

    #[test]
    fn upserts_are_shadowed_by_newest_version() {
        let mut ds = dataset(10, Box::new(NoMergePolicy));
        for key in 0..50 {
            ds.insert(row(key)).unwrap();
        }
        // Overwrite key 7 with a different payload after it has been flushed.
        ds.insert(Tuple::new(vec![Value::Int64(7), Value::Int64(999)]))
            .unwrap();
        assert_eq!(
            ds.get(&Value::Int64(7)).unwrap().value(1),
            &Value::Int64(999)
        );
        assert_eq!(ds.row_count(), 50);
        let scanned = ds.scan();
        assert_eq!(scanned.len(), 50);
        let seven = scanned
            .rows()
            .iter()
            .find(|r| r.value(0) == &Value::Int64(7))
            .unwrap();
        assert_eq!(seven.value(1), &Value::Int64(999));
    }

    #[test]
    fn point_lookup_checks_memtable_then_components() {
        let mut ds = dataset(10, Box::new(NoMergePolicy));
        for key in 0..25 {
            ds.insert(row(key)).unwrap();
        }
        // 20..25 are still in the memtable.
        assert!(ds.get(&Value::Int64(22)).is_some());
        assert!(ds.get(&Value::Int64(3)).is_some());
        assert!(ds.get(&Value::Int64(1_000)).is_none());
    }

    #[test]
    fn merged_stats_match_a_direct_scan_within_sketch_error() {
        let mut ds = dataset(128, Box::new(TieredMergePolicy { max_components: 3 }));
        for key in 0..5_000 {
            ds.insert(row(key)).unwrap();
        }
        ds.flush().unwrap();
        let lsm_stats = ds.merged_stats();

        let mut direct = DatasetStatsBuilder::all_columns(&schema());
        direct.observe_relation(&ds.scan());
        let reference = direct.build();

        assert_eq!(lsm_stats.row_count, reference.row_count);
        for column in ["o_orderkey", "o_custkey"] {
            let column = &FieldRef::new("orders", column);
            let lsm_distinct = lsm_stats.column(column).unwrap().distinct as f64;
            let reference_distinct = reference.column(column).unwrap().distinct as f64;
            let relative = (lsm_distinct - reference_distinct).abs() / reference_distinct.max(1.0);
            assert!(
                relative < 0.1,
                "{column}: component-merged distinct {lsm_distinct} vs direct {reference_distinct}"
            );
        }
    }

    #[test]
    fn empty_dataset_behaviour() {
        let mut ds = dataset(10, Box::new(NoMergePolicy));
        assert_eq!(ds.flush().unwrap(), None);
        assert_eq!(ds.row_count(), 0);
        assert_eq!(ds.merged_stats().row_count, 0);
        assert_eq!(ds.scan().len(), 0);
        assert_eq!(ds.metrics().write_amplification(), 0.0);
    }

    #[test]
    fn load_into_catalog_registers_table_and_component_stats() {
        let mut ds = dataset(64, Box::new(TieredMergePolicy { max_components: 3 }));
        for key in 0..1_000 {
            ds.insert(row(key)).unwrap();
        }
        let mut catalog = Catalog::new(4);
        ds.load_into_catalog(&mut catalog).unwrap();
        assert!(catalog.has_table("orders"));
        assert_eq!(catalog.table("orders").unwrap().row_count(), 1_000);
        let stats = catalog.stats().get("orders").expect("stats registered");
        assert_eq!(stats.row_count, 1_000);
        assert!(stats
            .column(&FieldRef::new("orders", "o_custkey"))
            .is_some());
        assert_eq!(
            catalog.table("orders").unwrap().partition_key(),
            Some(0),
            "on o_orderkey"
        );
    }

    #[test]
    fn from_relation_round_trips() {
        let rows: Vec<Tuple> = (0..200).map(row).collect();
        let relation = Relation::new(schema(), rows).unwrap();
        let ds = LsmDataset::from_relation(
            "orders",
            &relation,
            "o_orderkey",
            LsmOptions {
                memtable_capacity: 50,
            },
        )
        .unwrap();
        assert_eq!(ds.row_count(), 200);
        assert_eq!(ds.policy_name(), "prefix");
        assert_eq!(ds.options().memtable_capacity, 50);
        assert_eq!(ds.name(), "orders");
        assert_eq!(ds.key_column(), "o_orderkey");
        assert_eq!(ds.schema().len(), 2);
    }

    #[test]
    fn bad_key_column_is_rejected() {
        assert!(LsmDataset::new("t", schema(), "missing", LsmOptions::default()).is_err());
    }
}
