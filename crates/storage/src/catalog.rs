//! The cluster catalog: tables, secondary indexes and ingestion-time statistics.

use crate::index::SecondaryIndex;
use crate::table::{resolve_key, Table};
use rdo_common::{Batch, FieldRef, RdoError, Relation, Result, Schema};
use rdo_sketch::{DatasetStats, DatasetStatsBuilder, StatsCatalog};
use rdo_spill::{SpillConfig, SpillManager};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Options controlling dataset ingestion.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Column on which the dataset is hash-partitioned (usually the primary
    /// key). `None` distributes rows round-robin.
    pub partition_key: Option<String>,
    /// Whether to collect ingestion-time statistics (GK + HLL sketches on every
    /// column). The paper collects these during AsterixDB's LSM load; its cost
    /// was shown to be negligible relative to load time.
    pub collect_stats: bool,
    /// Columns for which to build secondary indexes (enables Indexed
    /// Nested-Loop joins, Figure 8 of the paper).
    pub secondary_indexes: Vec<String>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            partition_key: None,
            collect_stats: true,
            secondary_indexes: Vec::new(),
        }
    }
}

impl IngestOptions {
    /// Options for a dataset partitioned on its primary key.
    pub fn partitioned_on(key: impl Into<String>) -> Self {
        Self {
            partition_key: Some(key.into()),
            ..Default::default()
        }
    }

    /// Adds a secondary index.
    pub fn with_index(mut self, column: impl Into<String>) -> Self {
        self.secondary_indexes.push(column.into());
        self
    }

    /// Disables ingestion-time statistics collection.
    pub fn without_stats(mut self) -> Self {
        self.collect_stats = false;
        self
    }
}

/// What registering an intermediate result did: where it landed and the
/// logical page-write volume if it was spilled. The Sink copies these into
/// `ExecutionMetrics` so spilled bytes become measured cost-model inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoredIntermediate {
    /// True if the table went to the paged disk store.
    pub spilled: bool,
    /// Pages written to the spill store (zero when resident).
    pub pages_written: u64,
    /// Stored bytes written to the spill store (zero when resident).
    pub bytes_written: u64,
    /// Uncompressed serialized bytes behind `bytes_written`.
    pub logical_bytes_written: u64,
}

/// The catalog of the simulated cluster: every node sees the same metadata, the
/// data itself lives in the per-table partitions.
///
/// Tables are held behind [`Arc`] so the partition-parallel executor can hand
/// cheap read-only handles to its workers; a shared `&Catalog` is `Send + Sync`
/// (asserted at compile time below).
///
/// When a spill budget is configured ([`Catalog::configure_spill`]), newly
/// registered intermediate results that would push the resident working set
/// past the budget are written to the paged disk store instead of staying in
/// memory; base datasets always stay resident. Catalog clones share the same
/// [`SpillManager`] (and its buffer pool and temp directory).
#[derive(Debug, Clone)]
pub struct Catalog {
    num_partitions: usize,
    tables: HashMap<String, Arc<Table>>,
    indexes: HashMap<(String, String), SecondaryIndex>,
    stats: StatsCatalog,
    spill: Option<Arc<SpillManager>>,
}

/// Compile-time guarantee that catalog reads can be shared across the worker
/// pool's scoped threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Catalog>();
    assert_send_sync::<Table>();
    assert_send_sync::<SecondaryIndex>();
};

impl Catalog {
    /// Creates a catalog for a cluster with `num_partitions` partitions (the
    /// paper uses a 10-node cluster with 4 cores each; partitions model the
    /// per-core data partitions of Hyracks).
    ///
    /// A cluster cannot have zero partitions: `num_partitions == 0` is
    /// **clamped to 1** (a single-partition, effectively serial cluster)
    /// rather than rejected, so sweeps like `for p in 0..k` keep working.
    /// After construction `num_partitions() >= 1` always holds, and every
    /// ingested table has exactly `num_partitions()` partitions.
    pub fn new(num_partitions: usize) -> Self {
        let catalog = Self {
            num_partitions: num_partitions.max(1),
            tables: HashMap::new(),
            indexes: HashMap::new(),
            stats: StatsCatalog::new(),
            spill: None,
        };
        debug_assert!(catalog.num_partitions >= 1, "partition count clamp failed");
        catalog
    }

    /// Number of partitions in the cluster.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Applies a spill configuration. A disabled config (no budget) detaches
    /// the manager — already-spilled tables keep working, their files and the
    /// spill directory live until the last table drops. An enabled config
    /// keeps the current manager when its knobs are identical (so repeated
    /// driver executions reuse one directory and buffer pool) and otherwise
    /// creates a fresh manager.
    pub fn configure_spill(&mut self, config: SpillConfig) -> Result<()> {
        if !config.enabled() {
            self.spill = None;
            return Ok(());
        }
        if self.spill.as_ref().map(|m| m.config()) != Some(config) {
            let manager = SpillManager::create(config)?;
            // Seed the budget with intermediates that are already resident
            // (e.g. checkpoints surviving a failed run, registered under a
            // previous manager or none), so the new manager's accounting
            // matches the releases `drop_table` will issue later and the
            // budget sees the true working set.
            for table in self.tables.values() {
                if table.is_temporary() && !table.is_spilled() {
                    manager.retain(table.approx_bytes() as u64);
                }
            }
            self.spill = Some(manager);
        }
        Ok(())
    }

    /// The active spill manager, if a budget is configured.
    pub fn spill_manager(&self) -> Option<&Arc<SpillManager>> {
        self.spill.as_ref()
    }

    /// The directory spilled intermediates are written to, if spilling is on.
    pub fn spill_dir(&self) -> Option<PathBuf> {
        self.spill.as_ref().map(|m| m.dir().to_path_buf())
    }

    /// Ingests a base dataset: collects statistics, partitions it into
    /// columnar chunks (the only time its rows are converted) and builds the
    /// requested secondary indexes. The catalog changes only when every step
    /// succeeds: a failed ingest leaves no statistics or index behind.
    pub fn ingest(
        &mut self,
        name: impl Into<String>,
        relation: Relation,
        options: IngestOptions,
    ) -> Result<()> {
        let name = name.into();
        let stats = options.collect_stats.then(|| {
            let mut builder = DatasetStatsBuilder::all_columns(relation.schema());
            builder.observe_relation(&relation);
            builder.build()
        });
        let table = Table::from_relation(
            name.clone(),
            relation,
            self.num_partitions,
            options.partition_key.as_deref(),
        )?;
        debug_assert_eq!(
            table.num_partitions(),
            self.num_partitions,
            "ingested table must match the cluster partition count"
        );
        let indexes = options
            .secondary_indexes
            .iter()
            .map(|column| SecondaryIndex::build(&table, column))
            .collect::<Result<Vec<_>>>()?;
        for index in indexes {
            self.indexes
                .insert((name.clone(), index.column().to_string()), index);
        }
        if let Some(stats) = stats {
            self.stats.register(name.clone(), stats);
        }
        self.tables.insert(name, Arc::new(table));
        Ok(())
    }

    /// Registers a relation of tuples as a temporary table partitioned on
    /// `partition_key`, collecting statistics only on `tracked_columns` (the
    /// attributes that participate in later join stages, per Section 5.3
    /// "Online Statistics"). This is a row edge: the key and the tracked
    /// columns are names a caller types, `dataset.field` or a bare column
    /// name that one column of the relation has (unknown names are skipped).
    /// Even without sketches the row count is registered — once the table is
    /// stored, so a failed registration leaves no statistics behind.
    pub fn register_intermediate(
        &mut self,
        name: impl Into<String>,
        relation: Relation,
        partition_key: Option<&str>,
        tracked_columns: &[String],
        collect_stats: bool,
    ) -> Result<StoredIntermediate> {
        let name = name.into();
        let schema = relation.schema();
        let tracked: Vec<FieldRef> = match collect_stats {
            true => tracked_columns
                .iter()
                .filter_map(|c| resolve_key(schema, c).ok())
                .map(|i| schema.field(i).name.clone())
                .collect(),
            false => Vec::new(),
        };
        let mut builder = DatasetStatsBuilder::new(schema, &tracked);
        builder.observe_relation(&relation);
        let table =
            Table::from_relation(name.clone(), relation, self.num_partitions, partition_key)?
                .into_temporary();
        self.store_intermediate(name, table, builder.build())
    }

    /// Registers an intermediate from the batches the operators produced,
    /// *already* hash-partitioned on `partition_key` with the cluster's
    /// partition count, with statistics built elsewhere (the Sink builds one
    /// [`DatasetStatsBuilder`] per partition and merges the partials at the
    /// re-optimization barrier). The layout is taken verbatim and the batches
    /// are shared, not copied. `stats` is registered once the table is
    /// stored, so a failed registration leaves no statistics behind.
    pub fn register_intermediate_partitioned(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        partitions: Vec<Vec<Batch>>,
        partition_key: Option<usize>,
        stats: DatasetStats,
    ) -> Result<StoredIntermediate> {
        let name = name.into();
        if partitions.len() != self.num_partitions {
            return Err(RdoError::Execution(format!(
                "partitioned intermediate `{name}` has {} partitions, cluster has {}",
                partitions.len(),
                self.num_partitions
            )));
        }
        let table = Table::from_partitions(name.clone(), schema, partitions, partition_key)?
            .into_temporary();
        self.store_intermediate(name, table, stats)
    }

    /// Applies the spill policy, stores a freshly built temporary table and
    /// then registers its statistics — the last step, so a spill failure
    /// leaves neither a table nor statistics behind.
    fn store_intermediate(
        &mut self,
        name: String,
        table: Table,
        stats: DatasetStats,
    ) -> Result<StoredIntermediate> {
        debug_assert!(table.is_temporary(), "only intermediates go through here");
        let (table, outcome) = match &self.spill {
            Some(manager) if manager.wants_spill(table.approx_bytes() as u64) => {
                let (spilled, tally) = table.into_spilled(manager)?;
                let outcome = StoredIntermediate {
                    spilled: true,
                    pages_written: tally.pages,
                    bytes_written: tally.bytes,
                    logical_bytes_written: tally.logical_bytes,
                };
                (spilled, outcome)
            }
            manager => {
                if let Some(manager) = manager {
                    manager.retain(table.approx_bytes() as u64);
                }
                (table, StoredIntermediate::default())
            }
        };
        self.stats.register(name.clone(), stats);
        self.tables.insert(name, Arc::new(table));
        Ok(outcome)
    }

    /// Drops a temporary table (after the final result has been delivered).
    pub fn drop_table(&mut self, name: &str) {
        if let Some(table) = self.tables.remove(name) {
            if table.is_temporary() && !table.is_spilled() {
                if let Some(manager) = &self.spill {
                    manager.release(table.approx_bytes() as u64);
                }
            }
        }
        self.stats.remove(name);
        self.indexes.retain(|(t, _), _| t != name);
    }

    /// Returns a table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(|t| t.as_ref())
            .ok_or_else(|| RdoError::UnknownDataset(name.to_string()))
    }

    /// Returns a shared handle to a table, for handing to worker threads
    /// without borrowing the catalog.
    pub fn table_handle(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| RdoError::UnknownDataset(name.to_string()))
    }

    /// True if the catalog has a table of that name.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Returns a secondary index on column `column` of `table` if one exists.
    pub fn secondary_index(&self, table: &str, column: &str) -> Option<&SecondaryIndex> {
        self.indexes.get(&(table.to_string(), column.to_string()))
    }

    /// True if `table.column` has a secondary index.
    pub fn has_secondary_index(&self, table: &str, column: &str) -> bool {
        self.secondary_index(table, column).is_some()
    }

    /// The statistics catalog.
    pub fn stats(&self) -> &StatsCatalog {
        &self.stats
    }

    /// Mutable access to the statistics catalog (the dynamic driver updates it
    /// after predicate push-down and each materialized join).
    pub fn stats_mut(&mut self) -> &mut StatsCatalog {
        &mut self.stats
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Schema, Tuple, Value};

    fn batches_of(table: &Table) -> Vec<Vec<Batch>> {
        (0..table.num_partitions())
            .map(|p| table.batches(p).to_vec())
            .collect()
    }

    fn relation(n: i64) -> Relation {
        let schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
            ],
        );
        let rows = (0..n)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10)]))
            .collect();
        Relation::new(schema, rows).unwrap()
    }

    #[test]
    fn ingest_registers_table_and_stats() {
        let mut cat = Catalog::new(4);
        cat.ingest(
            "orders",
            relation(100),
            IngestOptions::partitioned_on("o_orderkey"),
        )
        .unwrap();
        assert!(cat.has_table("orders"));
        assert_eq!(cat.table("orders").unwrap().row_count(), 100);
        assert_eq!(cat.stats().row_count("orders"), Some(100));
        assert_eq!(cat.table_names(), vec!["orders".to_string()]);
    }

    #[test]
    fn ingest_without_stats() {
        let mut cat = Catalog::new(2);
        cat.ingest(
            "orders",
            relation(10),
            IngestOptions::partitioned_on("o_orderkey").without_stats(),
        )
        .unwrap();
        assert!(cat.stats().get("orders").is_none());
    }

    #[test]
    fn secondary_index_lookup() {
        let mut cat = Catalog::new(2);
        cat.ingest(
            "orders",
            relation(100),
            IngestOptions::partitioned_on("o_orderkey").with_index("o_custkey"),
        )
        .unwrap();
        assert!(cat.has_secondary_index("orders", "o_custkey"));
        assert!(!cat.has_secondary_index("orders", "o_orderkey"));
        let idx = cat.secondary_index("orders", "o_custkey").unwrap();
        assert_eq!(idx.total_entries(), 100);
    }

    #[test]
    fn intermediate_registration_tracks_requested_columns() {
        let mut cat = Catalog::new(2);
        cat.register_intermediate(
            "I_1",
            relation(50),
            Some("o_custkey"),
            &["o_custkey".into()],
            true,
        )
        .unwrap();
        let table = cat.table("I_1").unwrap();
        assert!(table.is_temporary());
        assert_eq!(table.partition_key(), Some(1), "on o_custkey");
        let stats = cat.stats().get("I_1").unwrap();
        assert_eq!(stats.row_count, 50);
        assert!(stats
            .column(&FieldRef::new("orders", "o_custkey"))
            .is_some());
        assert!(stats
            .column(&FieldRef::new("orders", "o_orderkey"))
            .is_none());
    }

    #[test]
    fn intermediate_without_online_stats_still_has_rowcount() {
        let mut cat = Catalog::new(2);
        cat.register_intermediate("I_1", relation(25), None, &[], false)
            .unwrap();
        assert_eq!(cat.stats().row_count("I_1"), Some(25));
        assert!(cat.stats().get("I_1").unwrap().columns.is_empty());
    }

    #[test]
    fn drop_table_removes_everything() {
        let mut cat = Catalog::new(2);
        cat.ingest(
            "orders",
            relation(10),
            IngestOptions::partitioned_on("o_orderkey").with_index("o_custkey"),
        )
        .unwrap();
        cat.drop_table("orders");
        assert!(!cat.has_table("orders"));
        assert!(cat.stats().get("orders").is_none());
        assert!(!cat.has_secondary_index("orders", "o_custkey"));
    }

    #[test]
    fn unknown_table_errors() {
        let cat = Catalog::new(2);
        assert!(matches!(
            cat.table("missing"),
            Err(RdoError::UnknownDataset(_))
        ));
    }

    #[test]
    fn zero_partitions_clamps_to_one() {
        let mut cat = Catalog::new(0);
        assert_eq!(cat.num_partitions(), 1, "zero partitions clamps to 1");
        cat.ingest(
            "orders",
            relation(10),
            IngestOptions::partitioned_on("o_orderkey"),
        )
        .unwrap();
        assert_eq!(cat.table("orders").unwrap().num_partitions(), 1);
    }

    #[test]
    fn every_ingested_table_matches_cluster_partition_count() {
        for partitions in [1usize, 2, 7] {
            let mut cat = Catalog::new(partitions);
            cat.ingest("orders", relation(30), IngestOptions::default())
                .unwrap();
            cat.register_intermediate("I_1", relation(5), None, &[], false)
                .unwrap();
            for name in cat.table_names() {
                assert_eq!(cat.table(&name).unwrap().num_partitions(), partitions);
            }
        }
    }

    #[test]
    fn table_handles_are_shared_not_copied() {
        let mut cat = Catalog::new(2);
        cat.ingest("orders", relation(10), IngestOptions::default())
            .unwrap();
        let a = cat.table_handle("orders").unwrap();
        let b = cat.table_handle("orders").unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert!(cat.table_handle("missing").is_err());
    }

    #[test]
    fn spill_policy_spills_over_budget_intermediates_and_cleans_up() {
        let mut cat = Catalog::new(2);
        cat.configure_spill(SpillConfig::default().with_budget(1).with_page_size(512))
            .unwrap();
        let dir = cat.spill_dir().expect("spill enabled");
        cat.ingest(
            "orders",
            relation(100),
            IngestOptions::partitioned_on("o_orderkey"),
        )
        .unwrap();
        assert!(
            !cat.table("orders").unwrap().is_spilled(),
            "base datasets never spill"
        );

        let stored = cat
            .register_intermediate("I_1", relation(200), Some("o_custkey"), &[], false)
            .unwrap();
        assert!(stored.spilled, "1-byte budget spills everything");
        assert!(stored.pages_written > 0 && stored.bytes_written > 0);
        let table = cat.table("I_1").unwrap();
        assert!(table.is_spilled() && table.is_temporary());
        assert_eq!(table.row_count(), 200);
        assert_eq!(table.gather().sorted(), relation(200).sorted());
        assert_eq!(cat.stats().row_count("I_1"), Some(200));
        assert!(
            std::fs::read_dir(&dir).unwrap().count() > 0,
            "spill file exists while the table is registered"
        );

        cat.drop_table("I_1");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "spill file removed with the table"
        );
        drop(cat);
        assert!(!dir.exists(), "spill dir removed with the manager");
    }

    #[test]
    fn resident_intermediates_count_against_the_budget() {
        let mut cat = Catalog::new(2);
        let small = relation(10).approx_bytes() as u64;
        cat.configure_spill(SpillConfig::default().with_budget(3 * small))
            .unwrap();
        for i in 0..3 {
            let stored = cat
                .register_intermediate(format!("I_{i}"), relation(10), None, &[], false)
                .unwrap();
            assert!(!stored.spilled, "I_{i} fits in the budget");
        }
        let stored = cat
            .register_intermediate("I_over", relation(10), None, &[], false)
            .unwrap();
        assert!(stored.spilled, "fourth intermediate exceeds the budget");
        // Dropping a resident intermediate frees budget for the next one.
        cat.drop_table("I_0");
        let stored = cat
            .register_intermediate("I_again", relation(10), None, &[], false)
            .unwrap();
        assert!(!stored.spilled, "released budget is reusable");
    }

    #[test]
    fn partitioned_registration_matches_rehash_path() {
        let mut cat = Catalog::new(4);
        let rel = relation(120);
        let mut builder = DatasetStatsBuilder::new(rel.schema(), &[]);
        builder.observe_relation(&rel);
        cat.register_intermediate("via_rehash", rel.clone(), Some("o_custkey"), &[], false)
            .unwrap();
        let rehash = cat.table("via_rehash").unwrap();
        let expected: Vec<Vec<Tuple>> = (0..rehash.num_partitions())
            .map(|p| rehash.partition_to_vec(p).unwrap())
            .collect();
        let batches = batches_of(rehash);

        let stored = cat
            .register_intermediate_partitioned(
                "via_parts",
                rel.schema().clone(),
                batches,
                Some(1),
                builder.build(),
            )
            .unwrap();
        assert!(!stored.spilled);
        let direct = cat.table("via_parts").unwrap();
        for (p, part) in expected.iter().enumerate() {
            assert_eq!(&direct.partition_to_vec(p).unwrap(), part);
        }
        assert!(direct.is_temporary() && direct.partition_key() == Some(1));
        assert_eq!(cat.stats().row_count("via_parts"), Some(120));

        // Wrong partition count is rejected.
        let mut builder = DatasetStatsBuilder::new(rel.schema(), &[]);
        builder.observe_relation(&rel);
        assert!(cat
            .register_intermediate_partitioned(
                "bad",
                rel.schema().clone(),
                vec![Vec::new(); 3],
                None,
                builder.build(),
            )
            .is_err());
    }

    #[test]
    fn base_tables_and_intermediates_rest_columnar() {
        let mut cat = Catalog::new(4);
        cat.ingest(
            "orders",
            relation(100),
            IngestOptions::partitioned_on("o_orderkey").with_index("o_custkey"),
        )
        .unwrap();
        let orders = cat.table("orders").unwrap();
        assert!(!orders.is_spilled() && !orders.is_temporary());
        assert_eq!(orders.gather().sorted(), relation(100).sorted());
        // The index addresses rows through the stored chunks.
        let index = cat.secondary_index("orders", "o_custkey").unwrap();
        for p in 0..4 {
            for &(chunk, slot) in index.probe(p, &Value::Int64(3)) {
                let batch = &orders.batches(p)[chunk as usize];
                assert_eq!(batch.value(slot as usize, 1), Value::Int64(3));
            }
        }

        // A resident intermediate rests the same way.
        cat.register_intermediate("I", relation(60), Some("o_custkey"), &[], false)
            .unwrap();
        let table = cat.table("I").unwrap();
        assert!(table.is_temporary() && !table.is_spilled());
        assert!(!table.batches(0).is_empty() || table.partition_len(0) == 0);
        assert_eq!(table.gather().sorted(), relation(60).sorted());
    }

    #[test]
    fn configure_spill_is_idempotent_and_detachable() {
        let mut cat = Catalog::new(2);
        let config = SpillConfig::default().with_budget(1_000);
        cat.configure_spill(config).unwrap();
        let dir = cat.spill_dir().unwrap();
        cat.configure_spill(config).unwrap();
        assert_eq!(cat.spill_dir().unwrap(), dir, "same config keeps manager");
        cat.configure_spill(SpillConfig::default().with_budget(2_000))
            .unwrap();
        assert_ne!(cat.spill_dir().unwrap(), dir, "new config, new manager");
        cat.configure_spill(SpillConfig::disabled()).unwrap();
        assert!(cat.spill_dir().is_none());
        assert!(cat.spill_manager().is_none());
    }

    /// An ingest that fails leaves the catalog as it was: no statistics, no
    /// index built before the failing step, no table.
    #[test]
    fn failed_ingest_leaves_nothing_behind() {
        let mut cat = Catalog::new(2);
        let bad_key = IngestOptions::partitioned_on("no_such_column");
        assert!(cat.ingest("orders", relation(10), bad_key).is_err());
        let bad_index = IngestOptions::partitioned_on("o_orderkey")
            .with_index("o_custkey")
            .with_index("no_such_column");
        assert!(cat.ingest("orders", relation(10), bad_index).is_err());
        assert!(cat.stats().get("orders").is_none());
        assert!(!cat.has_secondary_index("orders", "o_custkey"));
        assert!(!cat.has_table("orders"));
    }

    /// A row intermediate that fails to register — an unknown partition key,
    /// or spill I/O that fails mid-write — leaves no statistics behind.
    #[test]
    fn failed_intermediate_registration_leaves_no_statistics() {
        let mut cat = Catalog::new(2);
        let unknown_key = cat.register_intermediate("I_1", relation(7), Some("nope"), &[], false);
        assert!(unknown_key.is_err());
        assert_eq!(cat.stats().row_count("I_1"), None);

        cat.configure_spill(SpillConfig::default().with_budget(1))
            .unwrap();
        let dir = cat.spill_dir().expect("spill enabled");
        std::fs::remove_dir_all(&dir).unwrap();
        let spill_fails = cat.register_intermediate("I_2", relation(7), None, &[], false);
        assert!(spill_fails.is_err(), "the spill file cannot be created");
        assert_eq!(cat.stats().row_count("I_2"), None);
        assert!(!cat.has_table("I_2"));
    }

    /// A partitioned intermediate with an out-of-range key column is refused
    /// without registering its prebuilt statistics.
    #[test]
    fn failed_partitioned_registration_leaves_no_statistics() {
        let mut cat = Catalog::new(2);
        let rel = relation(7);
        let table = Table::from_relation("scratch", rel.clone(), 2, None).unwrap();
        let mut builder = rdo_sketch::DatasetStatsBuilder::new(rel.schema(), &[]);
        builder.observe_relation(&rel);
        let out_of_range = cat.register_intermediate_partitioned(
            "t",
            rel.schema().clone(),
            batches_of(&table),
            Some(99),
            builder.build(),
        );
        assert!(out_of_range.is_err());
        assert_eq!(cat.stats().row_count("t"), None);
        assert!(!cat.has_table("t"));
    }

    #[test]
    fn prebuilt_stats_registration() {
        use rdo_sketch::DatasetStatsBuilder;
        let mut cat = Catalog::new(2);
        let rel = relation(40);
        let custkey = FieldRef::new("orders", "o_custkey");
        let mut builder = DatasetStatsBuilder::new(rel.schema(), std::slice::from_ref(&custkey));
        builder.observe_relation(&rel);
        let table = Table::from_relation("scratch", rel.clone(), 2, Some("o_custkey")).unwrap();
        cat.register_intermediate_partitioned(
            "I_1",
            rel.schema().clone(),
            batches_of(&table),
            Some(1),
            builder.build(),
        )
        .unwrap();
        assert!(cat.table("I_1").unwrap().is_temporary());
        assert_eq!(cat.stats().row_count("I_1"), Some(40));
        assert!(cat.stats().get("I_1").unwrap().column(&custkey).is_some());
    }

    #[test]
    fn table_names_are_sorted_and_unknown_names_error() {
        let mut cat = Catalog::new(2);
        for name in ["zeta", "alpha", "mid"] {
            cat.ingest(name, relation(5), IngestOptions::default())
                .unwrap();
        }
        assert_eq!(
            cat.table_names(),
            ["alpha", "mid", "zeta"].map(String::from)
        );
        assert!(matches!(
            cat.table_handle("nope"),
            Err(RdoError::UnknownDataset(name)) if name == "nope"
        ));
        assert!(!cat.has_table("nope"));
    }

    #[test]
    fn dropping_an_unknown_table_changes_nothing() {
        let mut cat = Catalog::new(2);
        cat.ingest(
            "orders",
            relation(20),
            IngestOptions::partitioned_on("o_orderkey").with_index("o_custkey"),
        )
        .unwrap();
        cat.drop_table("lineitem");
        assert_eq!(cat.table("orders").unwrap().row_count(), 20);
        assert_eq!(cat.stats().row_count("orders"), Some(20));
        assert!(cat.has_secondary_index("orders", "o_custkey"));
    }
}
