//! Hash-partitioned tables: resident as columnar batch runs, or spilled to
//! the paged disk store of `rdo-spill`.
//!
//! A resident partition is a run of [`Batch`] chunks of at most
//! [`batch_size()`] rows. Base datasets are chunked once, when they are
//! loaded ([`Table::from_relation`]); intermediates arrive from the Sink as
//! the batches the operators produced ([`Table::from_partitions`]). Either
//! way [`Table::scan_batches`] borrows the stored chunks — a scan never
//! converts anything — and the secondary indexes and the indexed nested-loop
//! join address rows as `(chunk, slot)` through [`Table::batches`]. Rows
//! appear only at the edges: [`Table::partition_to_vec`],
//! [`Table::scan_pages`] and [`Table::gather`] materialize them on request.

use rdo_common::{
    batch_size, Batch, Field, FieldRef, RdoError, Relation, Result, Schema, Tuple, Value,
};
use rdo_sketch::hll::hash_value;
use rdo_spill::{
    SpillManager, SpillPartitionWriter, SpillReadTally, SpillWriteTally, SpilledPartitions,
};
use std::sync::{Arc, OnceLock};

/// Where a table's partitions live: resident as runs of [`Batch`] chunks, or
/// in the paged disk store when the catalog's spill policy decides an
/// intermediate does not fit the memory budget. Base datasets never spill
/// (the paper keeps them in the LSM storage of the cluster nodes).
#[derive(Debug, Clone)]
enum Backing {
    Columnar(Vec<Vec<Batch>>),
    Spilled(Arc<SpilledPartitions>),
}

/// A dataset hash-partitioned across the simulated cluster nodes.
///
/// Partitioning follows AsterixDB: base datasets are hash-partitioned on their
/// primary key; intermediate results are partitioned on the join key that
/// produced them, which lets a later join on the same key skip the re-partition
/// exchange (and its network cost).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    backing: Backing,
    num_partitions: usize,
    /// Tuple-model bytes of a resident table, summed on first use (only the
    /// spill policy asks).
    approx_bytes: OnceLock<usize>,
    /// Index (in `schema`) of the column on which the table is
    /// hash-partitioned, if any.
    partition_key: Option<usize>,
    /// True for materialized intermediate results (the paper's temporary files).
    temporary: bool,
}

impl Table {
    /// Builds a table by hash-partitioning `relation` on `partition_key` into
    /// `num_partitions` partitions and chunking each partition into batches
    /// of [`batch_size()`] rows — the one row-to-column conversion a base
    /// dataset ever sees. With no partition key rows are distributed
    /// round-robin (AsterixDB's behaviour for external data without a key).
    pub fn from_relation(
        name: impl Into<String>,
        relation: Relation,
        num_partitions: usize,
        partition_key: Option<&str>,
    ) -> Result<Self> {
        let num_partitions = num_partitions.max(1);
        let schema = relation.schema().clone();
        let key_index = match partition_key {
            Some(key) => Some(resolve_key(&schema, key)?),
            None => None,
        };
        let mut partitions = vec![Vec::new(); num_partitions];
        for (i, row) in relation.into_rows().into_iter().enumerate() {
            let p = match key_index {
                Some(idx) => partition_of(row.value(idx), num_partitions),
                None => i % num_partitions,
            };
            partitions[p].push(row);
        }
        let width = schema.len();
        let chunk = batch_size();
        let partitions = partitions
            .into_iter()
            .map(|rows: Vec<Tuple>| {
                rows.chunks(chunk)
                    .map(|c| Batch::from_rows(width, c))
                    .collect()
            })
            .collect();
        Self::from_partitions(name, schema, partitions, key_index)
    }

    /// Builds a table directly from already-partitioned batches. The caller
    /// guarantees the rows are hash-partitioned on column `partition_key` of
    /// `schema` (the Sink hands over the batches its operators produced).
    pub fn from_partitions(
        name: impl Into<String>,
        schema: Schema,
        partitions: Vec<Vec<Batch>>,
        partition_key: Option<usize>,
    ) -> Result<Self> {
        if partitions.is_empty() {
            return Err(RdoError::Execution(
                "a table needs at least one partition".to_string(),
            ));
        }
        if let Some(key) = partition_key.filter(|&key| key >= schema.len()) {
            return Err(RdoError::Execution(format!(
                "partition key column {key} is outside a {}-column schema",
                schema.len()
            )));
        }
        Ok(Self {
            name: name.into(),
            schema,
            num_partitions: partitions.len(),
            backing: Backing::Columnar(partitions),
            approx_bytes: OnceLock::new(),
            partition_key,
            temporary: false,
        })
    }

    /// Marks the table as a temporary (intermediate) result.
    pub fn into_temporary(mut self) -> Self {
        self.temporary = true;
        self
    }

    /// Moves a resident table into the paged disk store of `manager`,
    /// returning the spilled table and the logical page-write volume. A table
    /// that is already spilled is returned unchanged with a zero tally.
    pub fn into_spilled(self, manager: &Arc<SpillManager>) -> Result<(Self, SpillWriteTally)> {
        let Backing::Columnar(partitions) = &self.backing else {
            return Ok((self, SpillWriteTally::default()));
        };
        let mut writer = SpillPartitionWriter::new(Arc::clone(manager), partitions.len())?;
        for (p, batches) in partitions.iter().enumerate() {
            for batch in batches {
                writer.append_batch(p, batch)?;
            }
        }
        let (store, tally) = writer.finish()?;
        Ok((
            Self {
                backing: Backing::Spilled(Arc::new(store)),
                ..self
            },
            tally,
        ))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The dataset a query under the FROM alias `alias` sees the stored
    /// column `stored` in; this is the one place that rule lives. A base
    /// table is seen under its alias (`date_dim d1` reads `d1.d_date_sk`).
    /// An intermediate is seen as stored: its columns keep the identities
    /// they were bound with (`a.id` and `b.id`), whatever name the
    /// intermediate was registered under.
    fn seen_dataset<'a>(&'a self, alias: &'a str, stored: &'a FieldRef) -> &'a str {
        if self.temporary {
            &stored.dataset
        } else {
            alias
        }
    }

    /// The table's schema as a query sees it under the FROM alias `alias`.
    pub fn schema_as(&self, alias: &str) -> Schema {
        let seen = |f: &Field| FieldRef::new(self.seen_dataset(alias, &f.name), &f.name.field);
        Schema::new(
            self.schema
                .fields()
                .iter()
                .map(|f| Field::new(seen(f), f.data_type))
                .collect(),
        )
    }

    /// The stored identity of `column`, a column of the table as seen under
    /// `alias` ([`Table::schema_as`]): what the table's statistics key it by.
    pub fn stored_column(&self, alias: &str, column: &FieldRef) -> Result<&FieldRef> {
        self.schema
            .fields()
            .iter()
            .map(|f| &f.name)
            .find(|f| f.field == column.field && self.seen_dataset(alias, f) == column.dataset)
            .ok_or_else(|| RdoError::UnknownField(column.qualified()))
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// True if the partitions live in the paged disk store.
    pub fn is_spilled(&self) -> bool {
        matches!(self.backing, Backing::Spilled(_))
    }

    /// The stored chunks of one partition of a **resident** table. Row
    /// addresses `(chunk, slot)` — what the secondary indexes hold — index
    /// into this slice.
    ///
    /// # Panics
    /// Panics for spilled tables, whose pages have no borrowable form —
    /// stream them with [`Table::scan_batches`]. Only base datasets are
    /// guaranteed resident.
    pub fn batches(&self, index: usize) -> &[Batch] {
        match &self.backing {
            Backing::Columnar(partitions) => &partitions[index],
            Backing::Spilled(_) => {
                panic!(
                    "table `{}` is spilled; stream it with scan_batches",
                    self.name
                )
            }
        }
    }

    /// Streams partition `index` through `f` in storage order, one page of
    /// rows at a time — the row-edge twin of [`Table::scan_batches`].
    /// Resident tables materialize each stored chunk's rows and report a
    /// zero read tally; spilled tables fetch pages through the buffer pool
    /// and report the logical pages/bytes fetched. `f` returns whether to
    /// keep going (early stop charges only what was read).
    pub fn scan_pages<F>(&self, index: usize, mut f: F) -> Result<SpillReadTally>
    where
        F: FnMut(&[Tuple]) -> Result<bool>,
    {
        match &self.backing {
            Backing::Columnar(partitions) => {
                for batch in &partitions[index] {
                    if !f(&batch.to_rows())? {
                        break;
                    }
                }
                Ok(SpillReadTally::default())
            }
            Backing::Spilled(store) => store.scan_pages(index, f),
        }
    }

    /// Streams partition `index` through `f` as [`Batch`]es in storage
    /// order. Resident partitions lend their stored chunks — no conversion,
    /// and cloning a lent batch shares its columns; spilled partitions
    /// decode each page (columnar pages straight into their column
    /// representation). `f` returns whether to keep going; the tally counts
    /// the spill pages actually fetched.
    pub fn scan_batches<F>(&self, index: usize, mut f: F) -> Result<SpillReadTally>
    where
        F: FnMut(&Batch) -> Result<bool>,
    {
        match &self.backing {
            Backing::Columnar(partitions) => {
                for batch in &partitions[index] {
                    if !f(batch)? {
                        break;
                    }
                }
                Ok(SpillReadTally::default())
            }
            Backing::Spilled(store) => store.scan_batches(index, f),
        }
    }

    /// Materializes one partition into an owned vector of rows (works for
    /// both backings; prefer [`Table::scan_batches`] on hot paths).
    pub fn partition_to_vec(&self, index: usize) -> Result<Vec<Tuple>> {
        match &self.backing {
            Backing::Columnar(partitions) => {
                let mut out = Vec::with_capacity(self.partition_len(index));
                for batch in &partitions[index] {
                    batch.extend_rows_into(&mut out);
                }
                Ok(out)
            }
            Backing::Spilled(store) => store.read_partition(index),
        }
    }

    /// Number of rows in one partition.
    pub fn partition_len(&self, index: usize) -> usize {
        match &self.backing {
            Backing::Columnar(partitions) => partitions[index].iter().map(Batch::num_rows).sum(),
            Backing::Spilled(store) => store.partition_rows(index),
        }
    }

    /// Index of the column on which the table is hash-partitioned, if any.
    pub fn partition_key(&self) -> Option<usize> {
        self.partition_key
    }

    /// True if this is a materialized intermediate result.
    pub fn is_temporary(&self) -> bool {
        self.temporary
    }

    /// Total number of rows across partitions.
    pub fn row_count(&self) -> usize {
        match &self.backing {
            Backing::Columnar(partitions) => partitions.iter().flatten().map(Batch::num_rows).sum(),
            Backing::Spilled(store) => store.row_count(),
        }
    }

    /// Approximate total size in bytes (tuple-model accounting, identical for
    /// both backings so cost inputs never depend on where the table lives).
    pub fn approx_bytes(&self) -> usize {
        match &self.backing {
            // `Batch::approx_bytes` matches the tuple-model accounting slot
            // for slot, so the figure is the one the rows would give.
            Backing::Columnar(partitions) => *self
                .approx_bytes
                .get_or_init(|| partitions.iter().flatten().map(Batch::approx_bytes).sum()),
            Backing::Spilled(store) => store.approx_bytes(),
        }
    }

    /// Exact serialized bytes on disk (zero for resident tables).
    pub fn spilled_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Columnar(_) => 0,
            Backing::Spilled(store) => store.serialized_bytes(),
        }
    }

    /// Materializes all partitions back into a single relation, surfacing
    /// spill-read errors (a spilled table's pages live on disk and the read
    /// can fail). Resident tables are infallible.
    pub fn try_gather(&self) -> Result<Relation> {
        let mut rows = Vec::with_capacity(self.row_count());
        for p in 0..self.num_partitions {
            self.scan_batches(p, |batch| {
                batch.extend_rows_into(&mut rows);
                Ok(true)
            })?;
        }
        Relation::new(self.schema.clone(), rows)
    }

    /// Materializes all partitions back into a single relation (coordinator-side
    /// gather; used by result delivery and tests).
    ///
    /// # Panics
    /// Panics if a spilled table's pages cannot be read back; spill-capable
    /// call sites should prefer [`Table::try_gather`].
    pub fn gather(&self) -> Relation {
        self.try_gather()
            .expect("gather of a spilled table failed; use try_gather to handle the error")
    }
}

/// Maps a value to a partition id.
pub fn partition_of(value: &Value, num_partitions: usize) -> usize {
    (hash_value(value) % num_partitions as u64) as usize
}

/// Resolves a column name a user typed (a partition key, a secondary index or
/// a tracked column given at ingestion) to its index: `dataset.field` exactly,
/// or a bare column name that only one column of the schema has.
pub(crate) fn resolve_key(schema: &Schema, key: &str) -> Result<usize> {
    FieldRef::parse(key)
        .and_then(|field| schema.index_of(&field))
        .or_else(|_| schema.index_of_unqualified(key))
        .map_err(|_| RdoError::UnknownField(key.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::DataType;
    use rdo_spill::SpillConfig;

    fn relation(n: i64) -> Relation {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("v", DataType::Utf8)]);
        let rows = (0..n)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Utf8(format!("row{i}"))]))
            .collect();
        Relation::new(schema, rows).unwrap()
    }

    /// The rows `Table::from_relation` assigns to each partition, computed
    /// independently of the table.
    fn expected_partitions(rel: &Relation, n: usize, keyed: bool) -> Vec<Vec<Tuple>> {
        let mut parts = vec![Vec::new(); n];
        for (i, row) in rel.rows().iter().enumerate() {
            let p = if keyed {
                partition_of(row.value(0), n)
            } else {
                i % n
            };
            parts[p].push(row.clone());
        }
        parts
    }

    fn sizes(t: &Table) -> Vec<usize> {
        (0..t.num_partitions())
            .map(|p| t.partition_len(p))
            .collect()
    }

    #[test]
    fn partitioning_preserves_all_rows() {
        let t = Table::from_relation("t", relation(1000), 8, Some("k")).unwrap();
        assert_eq!(t.num_partitions(), 8);
        assert_eq!(t.row_count(), 1000);
        assert_eq!(t.gather().len(), 1000);
    }

    #[test]
    fn same_key_lands_in_same_partition() {
        let t = Table::from_relation("t", relation(500), 4, Some("k")).unwrap();
        // Re-derive each row's partition and check it matches its location.
        for p in 0..4 {
            for row in t.partition_to_vec(p).unwrap() {
                assert_eq!(partition_of(row.value(0), 4), p);
            }
        }
    }

    #[test]
    fn round_robin_without_key() {
        let t = Table::from_relation("t", relation(100), 4, None).unwrap();
        assert!(t.partition_key().is_none());
        assert_eq!(sizes(&t), vec![25, 25, 25, 25]);
    }

    #[test]
    fn partition_balance_is_reasonable() {
        let t = Table::from_relation("t", relation(10_000), 10, Some("k")).unwrap();
        let sizes = sizes(&t);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(min > 700 && max < 1300, "unbalanced partitions: {sizes:?}");
    }

    #[test]
    fn qualified_partition_key_accepted() {
        let t = Table::from_relation("t", relation(10), 2, Some("t.k")).unwrap();
        assert_eq!(t.partition_key(), Some(0));
    }

    #[test]
    fn partition_key_is_the_resolved_column_not_its_name() {
        // A joined intermediate carries `a.id` and `b.id`; a table placed by
        // `b.id` is not partitioned on `a.id`, and the bare name is ambiguous.
        let schema = Schema::for_dataset("a", &[("id", DataType::Int64)])
            .join(&Schema::for_dataset("b", &[("id", DataType::Int64)]));
        let rows = (0..8)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 3)]))
            .collect();
        let t = Table::from_relation("ab", Relation::new(schema, rows).unwrap(), 2, Some("b.id"))
            .unwrap();
        assert_eq!(t.partition_key(), Some(1));
        assert_ne!(t.partition_key(), resolve_key(t.schema(), "a.id").ok());
        assert!(
            resolve_key(t.schema(), "id").is_err(),
            "the bare name is ambiguous"
        );
    }

    #[test]
    fn unknown_partition_key_errors() {
        assert!(Table::from_relation("t", relation(10), 2, Some("missing")).is_err());
    }

    #[test]
    fn single_partition_cluster() {
        let t = Table::from_relation("t", relation(10), 0, Some("k")).unwrap();
        assert_eq!(t.num_partitions(), 1);
        assert_eq!(t.partition_len(0), 10);
    }

    #[test]
    fn temporary_flag() {
        let t = Table::from_relation("t", relation(1), 1, None).unwrap();
        assert!(!t.is_temporary());
        assert!(t.into_temporary().is_temporary());
    }

    #[test]
    fn base_tables_are_seen_under_the_alias_and_intermediates_as_stored() {
        let base = Table::from_relation("t", relation(1), 1, None).unwrap();
        let seen = base.schema_as("t2");
        assert_eq!(seen.index_of(&FieldRef::new("t2", "v")).unwrap(), 1);
        let stored = base.stored_column("t2", &FieldRef::new("t2", "v")).unwrap();
        assert_eq!(stored, &FieldRef::new("t", "v"));
        let intermediate = Table::from_relation("I_1", relation(1), 1, None)
            .unwrap()
            .into_temporary();
        assert_eq!(intermediate.schema_as("I_1"), *intermediate.schema());
        assert!(intermediate
            .stored_column("I_1", &FieldRef::new("I_1", "v"))
            .is_err());
    }

    #[test]
    fn approx_bytes_positive() {
        let rel = relation(10);
        let expected = rel.approx_bytes();
        let t = Table::from_relation("t", rel, 2, Some("k")).unwrap();
        assert_eq!(t.approx_bytes(), expected, "tuple-model accounting");
    }

    #[test]
    fn from_partitions_reuses_layout_verbatim() {
        let source = Table::from_relation("t", relation(200), 4, Some("k")).unwrap();
        let cloned: Vec<Vec<Batch>> = (0..4).map(|p| source.batches(p).to_vec()).collect();
        let direct =
            Table::from_partitions("t2", source.schema().clone(), cloned, Some(0)).unwrap();
        assert_eq!(direct.num_partitions(), 4);
        for p in 0..4 {
            assert_eq!(direct.batches(p), source.batches(p));
            // Shared, not copied.
            assert!(std::ptr::eq(
                direct.batches(p)[0].column(0),
                source.batches(p)[0].column(0)
            ));
        }
        assert_eq!(direct.approx_bytes(), source.approx_bytes());
        assert_eq!(direct.partition_key(), Some(0));
        assert!(
            Table::from_partitions("bad", source.schema().clone(), vec![Vec::new()], Some(2))
                .is_err()
        );
        assert!(
            Table::from_partitions("empty", source.schema().clone(), Vec::new(), None).is_err()
        );
    }

    #[test]
    fn spilled_table_is_equivalent_to_memory_table() {
        let manager =
            SpillManager::create(SpillConfig::default().with_budget(1).with_page_size(512))
                .unwrap();
        let rel = relation(777);
        let expected_parts = expected_partitions(&rel, 4, true);
        let memory = Table::from_relation("t", rel, 4, Some("k"))
            .unwrap()
            .into_temporary();
        let expected_gather = memory.gather();
        let approx = memory.approx_bytes();

        let (spilled, tally) = memory.into_spilled(&manager).unwrap();
        assert!(spilled.is_spilled());
        assert!(tally.pages > 0 && tally.bytes > 0);
        assert_eq!(spilled.spilled_bytes(), tally.bytes);
        assert_eq!(spilled.row_count(), 777);
        assert_eq!(spilled.approx_bytes(), approx);
        assert!(spilled.is_temporary() && spilled.partition_key() == Some(0));
        assert_eq!(spilled.gather(), expected_gather);
        for (p, expected) in expected_parts.iter().enumerate() {
            assert_eq!(&spilled.partition_to_vec(p).unwrap(), expected);
            assert_eq!(spilled.partition_len(p), expected.len());
            let mut streamed = Vec::new();
            let read = spilled
                .scan_pages(p, |rows| {
                    streamed.extend_from_slice(rows);
                    Ok(true)
                })
                .unwrap();
            assert_eq!(&streamed, expected);
            assert!(read.pages > 0 || expected.is_empty());
        }
        // Spilling an already-spilled table is a no-op.
        let (again, zero) = spilled.into_spilled(&manager).unwrap();
        assert!(again.is_spilled());
        assert_eq!(zero, SpillWriteTally::default());
    }

    #[test]
    fn columnar_table_is_equivalent_to_memory_table() {
        let rel = relation(777);
        let expected_parts = expected_partitions(&rel, 4, true);
        let approx = rel.approx_bytes();
        let columnar = Table::from_relation("t", rel.clone(), 4, Some("k"))
            .unwrap()
            .into_temporary();
        assert!(!columnar.is_spilled());
        assert_eq!(columnar.row_count(), 777);
        assert_eq!(
            columnar.approx_bytes(),
            approx,
            "accounting is the tuple model's"
        );
        assert_eq!(columnar.spilled_bytes(), 0);
        assert!(columnar.is_temporary() && columnar.partition_key() == Some(0));
        assert_eq!(columnar.gather().sorted(), rel.sorted());
        for (p, expected) in expected_parts.iter().enumerate() {
            assert_eq!(&columnar.partition_to_vec(p).unwrap(), expected);
            assert_eq!(columnar.partition_len(p), expected.len());
            let mut streamed = Vec::new();
            let pages = columnar
                .scan_pages(p, |rows| {
                    streamed.extend_from_slice(rows);
                    Ok(true)
                })
                .unwrap();
            assert_eq!(&streamed, expected);
            assert_eq!(pages, SpillReadTally::default(), "no spill traffic");
            let mut batched = Vec::new();
            columnar
                .scan_batches(p, |batch| {
                    assert!(batch.num_rows() <= rdo_common::batch_size());
                    batched.extend(batch.to_rows());
                    Ok(true)
                })
                .unwrap();
            assert_eq!(&batched, expected);
        }
        // Columnar → spilled streams row by row, roundtrips.
        let expected_gather = columnar.gather();
        let manager =
            SpillManager::create(SpillConfig::default().with_budget(1).with_page_size(512))
                .unwrap();
        let (spilled, tally) = columnar.into_spilled(&manager).unwrap();
        assert!(spilled.is_spilled() && tally.pages > 0);
        assert_eq!(spilled.gather(), expected_gather);
    }

    /// Spilling a columnar table streams each batch into the page writer;
    /// the pages are the ones writing the same rows would cut.
    #[test]
    fn spilling_batches_writes_the_pages_the_rows_would() {
        let config = SpillConfig::default().with_budget(1).with_page_size(512);
        let rel = relation(600);
        let parts = expected_partitions(&rel, 3, true);
        let by_rows = {
            let manager = SpillManager::create(config).unwrap();
            let (store, tally) = SpilledPartitions::write(manager, &parts).unwrap();
            (tally, store.approx_bytes())
        };
        let manager = SpillManager::create(config).unwrap();
        let (spilled, tally) = Table::from_relation("t", rel, 3, Some("k"))
            .unwrap()
            .into_spilled(&manager)
            .unwrap();
        assert_eq!((tally, spilled.approx_bytes()), by_rows);
        for (p, expected) in parts.iter().enumerate() {
            assert_eq!(&spilled.partition_to_vec(p).unwrap(), expected);
        }
    }

    #[test]
    fn memory_scan_batches_chunks_at_batch_size() {
        let t = Table::from_relation("t", relation(100), 1, None).unwrap();
        let mut rows_seen = 0usize;
        let mut lent = Vec::new();
        t.scan_batches(0, |batch| {
            assert!(batch.num_rows() <= rdo_common::batch_size());
            assert_eq!(batch.num_columns(), 2);
            rows_seen += batch.num_rows();
            lent.push(batch as *const Batch);
            Ok(true)
        })
        .unwrap();
        assert_eq!(rows_seen, 100);
        // A resident scan lends the stored chunks themselves.
        let stored: Vec<*const Batch> = t.batches(0).iter().map(|b| b as *const Batch).collect();
        assert_eq!(lent, stored);
    }

    #[test]
    #[should_panic(expected = "spilled")]
    fn borrowing_partitions_of_a_spilled_table_panics() {
        let manager = SpillManager::create(SpillConfig::default().with_budget(1)).unwrap();
        let (spilled, _) = Table::from_relation("t", relation(10), 2, Some("k"))
            .unwrap()
            .into_spilled(&manager)
            .unwrap();
        let _ = spilled.batches(0);
    }

    #[test]
    fn memory_scan_pages_reports_zero_tally() {
        let t = Table::from_relation("t", relation(30), 2, Some("k")).unwrap();
        let mut seen = 0usize;
        let tally = t
            .scan_pages(0, |rows| {
                seen += rows.len();
                Ok(true)
            })
            .unwrap();
        assert_eq!(seen, t.partition_len(0));
        assert_eq!(tally, SpillReadTally::default());
        assert_eq!(t.spilled_bytes(), 0);
    }
}
