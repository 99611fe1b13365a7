//! The Sink: the barrier at each re-optimization point.
//!
//! In the paper's Figure 4, every phase of the decomposed query ends in a
//! `Sink` operator that writes the intermediate data to a temporary file while
//! gathering statistical sketches; later phases read it back through a
//! `Reader` operator. Here the temporary file is a temporary
//! [`rdo_storage::Table`] and the Reader is an ordinary scan of it (which the
//! executor charges at intermediate-read rates).
//!
//! Algorithm 1 materializes the chosen join's result before re-planning; that
//! materialization is a natural barrier for the worker pool, and
//! [`materialize`] is the engine's one Sink — every driver, at every worker
//! count, goes through it. It has three steps, each a child span of
//! `sink.materialize`:
//!
//! * `sink.sketch`, once per partition, on the pool: a worker builds a
//!   [`DatasetStatsBuilder`] (GK + HLL sketches) over its partition's batches
//!   and seals it, so everything quadratic-looking about a GK sketch (sorting
//!   and absorbing its last buffer) happens where the partition was read;
//! * `sink.merge`: the partials are merged **per tracked column on the
//!   pool** — columns do not depend on each other — each column taking the
//!   partials **in partition order**, mirroring the paper's per-partition
//!   Sink operators whose local statistics are combined when the job
//!   finishes. The fixed merge order makes the registered statistics
//!   identical for every worker count;
//! * `sink.store`: the batches move into the catalog — as they are when the
//!   data is already laid out the way the table will be, re-bucketed batch
//!   to batch when it is not. No step touches a row.
//!
//! HyperLogLog merging is exact; a GK sketch merged from per-partition
//! partials is a different (equally valid, error-bounded) summary than one
//! built over the gathered data would be. The registered one is always the
//! merged one, so planning decisions never depend on the worker count.

use crate::cost::ExecutionMetrics;
use crate::data::PartitionedData;
use crate::partition::{repartition_batches, scatter_batches};
use crate::pool::WorkerPool;
use rdo_common::{Batch, FieldRef, Result};
use rdo_sketch::{DatasetStats, DatasetStatsBuilder};
use rdo_storage::Catalog;

/// What a materialization produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializeOutcome {
    /// Name of the temporary table created.
    pub table: String,
    /// Number of rows materialized.
    pub rows: u64,
    /// Approximate bytes written.
    pub bytes: u64,
    /// Number of individual values observed by online statistics collection
    /// (zero when statistics collection was disabled for this sink).
    pub stats_values: u64,
    /// True if the catalog's spill policy sent the table to the paged disk
    /// store instead of keeping it memory-resident.
    pub spilled: bool,
}

/// Materializes `data` into the catalog as temporary table `name`,
/// hash-partitioned on column `partition_key`, collecting online statistics
/// on `tracked_columns` from per-partition partials merged at the barrier.
/// Both are column identities, found in `data`'s schema exactly: the table
/// keeps the identities it was built with, so `a.id` and `b.id` stay two
/// columns with a sketch each.
///
/// The paper disables online statistics for the final iteration ("the online
/// statistics framework is enabled in all the iterations except for the last
/// one"), which callers express through `collect_stats`; the row count is
/// registered either way. Sketch building and merging run on the caller's
/// persistent `pool` (one pool per driver execution, shared by every stage)
/// and read the batches column slot by column slot.
///
/// The batches then move into the catalog: as they are when `data` is
/// already hash-partitioned on `partition_key` with the cluster's partition
/// count, re-bucketed batch to batch otherwise. The catalog's spill policy
/// decides whether the table stays resident or goes to the paged disk store;
/// logical page writes land in the `spill_*` metrics.
#[allow(clippy::too_many_arguments)]
pub fn materialize(
    pool: &WorkerPool,
    catalog: &mut Catalog,
    name: &str,
    data: &PartitionedData,
    partition_key: Option<&FieldRef>,
    tracked_columns: &[FieldRef],
    collect_stats: bool,
    metrics: &mut ExecutionMetrics,
) -> Result<MaterializeOutcome> {
    let rows = data.row_count() as u64;
    let bytes = data.approx_bytes() as u64;
    let mut span = rdo_trace::span("sink.materialize");
    span.attr_str("table", name);
    let key_index = partition_key
        .map(|key| data.schema().index_of(key))
        .transpose()?;

    // Statistics cost accounting: one observation per tracked column the
    // schema holds, per row.
    let tracked: &[FieldRef] = if collect_stats { tracked_columns } else { &[] };
    let columns = DatasetStatsBuilder::new(data.schema(), tracked).tracked_columns();
    let stats_values = columns.len() as u64 * rows;

    let partials = pool.map_indexed(data.num_partitions(), |p| {
        let mut span = rdo_trace::span("sink.sketch");
        span.attr_u64("partition", p as u64);
        let mut builder = DatasetStatsBuilder::new(data.schema(), &columns);
        for batch in &data.partitions()[p] {
            builder.observe_batch(batch);
        }
        builder.seal();
        builder
    });
    let stats = {
        let _span = rdo_trace::span("sink.merge");
        let merged = pool.map_indexed(columns.len(), |column| {
            DatasetStatsBuilder::merged_column(&partials, column)
        });
        DatasetStats {
            row_count: rows,
            columns: columns.into_iter().zip(merged).collect(),
        }
    };

    let stored = {
        let _span = rdo_trace::span("sink.store");
        catalog.register_intermediate_partitioned(
            name,
            data.schema().clone(),
            stored_layout(data, key_index, catalog.num_partitions()),
            key_index,
            stats,
        )?
    };
    metrics.rows_materialized += rows;
    metrics.bytes_materialized += bytes;
    metrics.stats_values_observed += stats_values;
    metrics.spill_pages_written += stored.pages_written;
    metrics.spill_bytes_written += stored.bytes_written;
    metrics.spill_logical_bytes_written += stored.logical_bytes_written;
    span.attr_u64("rows", rows);
    span.attr_u64("bytes", bytes);
    Ok(MaterializeOutcome {
        table: name.to_string(),
        rows,
        bytes,
        stats_values,
        spilled: stored.spilled,
    })
}

/// The batches of `data` laid out as a table of `num_partitions` partitions
/// hash-partitioned on column `key_index` stores them: exactly the assignment
/// and row order that gathering the data and re-hashing it row by row gives
/// (round-robin over the gathered order when there is no key). Data already
/// partitioned on that column is returned as it is, batches shared.
fn stored_layout(
    data: &PartitionedData,
    key_index: Option<usize>,
    num_partitions: usize,
) -> Vec<Vec<Batch>> {
    let Some(key_index) = key_index else {
        let mut gathered = 0usize;
        return scatter_batches(&data.all_batches(), num_partitions, |chunk, slots| {
            for s in 0..chunk.num_rows() {
                slots[(gathered + s) % num_partitions].push(s as u32);
            }
            gathered += chunk.num_rows();
        });
    };
    if data.is_partitioned_on(key_index) && data.num_partitions() == num_partitions {
        return data.partitions().to_vec();
    }
    let bucketed = data
        .partitions()
        .iter()
        .enumerate()
        .map(|(from, chunks)| repartition_batches(chunks, key_index, from, num_partitions));
    let (laid_out, _, _) =
        PartitionedData::from_buckets(data.schema().clone(), bucketed, num_partitions, key_index);
    laid_out.into_partitions()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelConfig;
    use crate::executor::ParallelExecutor;
    use crate::plan::PhysicalPlan;
    use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    use rdo_storage::IngestOptions;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
            ],
        );
        let rows = (0..100)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10)]))
            .collect();
        cat.ingest(
            "orders",
            Relation::new(schema, rows).unwrap(),
            IngestOptions::partitioned_on("o_orderkey"),
        )
        .unwrap();
        cat
    }

    fn orders(field: &str) -> FieldRef {
        FieldRef::new("orders", field)
    }

    fn scan(cat: &Catalog, workers: usize) -> (PartitionedData, ExecutionMetrics) {
        let mut metrics = ExecutionMetrics::new();
        let exec = ParallelExecutor::new(cat, ParallelConfig::serial().with_workers(workers));
        let data = exec
            .execute(&PhysicalPlan::scan("orders"), &mut metrics)
            .unwrap();
        (data, metrics)
    }

    #[test]
    fn materialize_registers_table_and_merged_stats() {
        let mut cat = catalog();
        let (data, mut metrics) = scan(&cat, 4);
        let outcome = materialize(
            &WorkerPool::new(4),
            &mut cat,
            "I_1",
            &data,
            Some(&orders("o_custkey")),
            &[orders("o_custkey")],
            true,
            &mut metrics,
        )
        .unwrap();
        assert_eq!(outcome.rows, 100);
        assert_eq!(outcome.stats_values, 100);
        assert!(outcome.bytes > 0);
        assert_eq!(metrics.rows_materialized, 100);
        assert_eq!(metrics.stats_values_observed, 100);
        // Online statistics exist for the tracked column, and only for it.
        let stats = cat.stats().get("I_1").unwrap();
        assert_eq!(stats.row_count, 100);
        let column = stats.column(&orders("o_custkey")).unwrap();
        assert!((column.distinct_nonzero() - 10.0).abs() < 2.0);
        assert!(stats.column(&orders("o_orderkey")).is_none());
        assert_eq!(
            cat.table("I_1").unwrap().partition_key(),
            Some(1),
            "on o_custkey"
        );

        // Reading the intermediate back charges intermediate-read metrics, not
        // base-scan metrics.
        let mut read = ExecutionMetrics::new();
        let relation = ParallelExecutor::new(&cat, ParallelConfig::serial())
            .execute_to_relation(&PhysicalPlan::scan("I_1"), &mut read)
            .unwrap();
        assert_eq!(relation.len(), 100);
        assert_eq!(read.rows_intermediate_read, 100);
        assert_eq!(read.rows_scanned, 0);
    }

    #[test]
    fn tracked_columns_missing_from_schema_are_ignored() {
        let mut cat = catalog();
        let (data, mut metrics) = scan(&cat, 1);
        let outcome = materialize(
            &WorkerPool::new(1),
            &mut cat,
            "I_2",
            &data,
            None,
            &[orders("not_a_column"), orders("o_custkey")],
            true,
            &mut metrics,
        )
        .unwrap();
        assert_eq!(
            outcome.stats_values, 100,
            "only the real column is observed"
        );
        let stats = cat.stats().get("I_2").unwrap();
        assert_eq!(stats.columns.len(), 1);
    }

    #[test]
    fn partitioned_fast_path_matches_the_gather_rehash_path() {
        // `I_key` goes through the fast path (data partitioned on o_orderkey,
        // the base table's partition key); `I_rehash` is forced through the
        // gather-and-rehash path by asking for a different partition key. A
        // third registration re-hashes the fast path's gathered rows on the
        // same key, proving the layouts are bit-identical.
        let mut cat = catalog();
        let (data, _) = scan(&cat, 2);
        assert!(data.is_partitioned_on(0), "on o_orderkey");
        let pool = WorkerPool::new(2);
        let mut m = ExecutionMetrics::new();
        materialize(
            &pool,
            &mut cat,
            "I_key",
            &data,
            Some(&orders("o_orderkey")),
            &[],
            false,
            &mut m,
        )
        .unwrap();
        let fast = cat.table("I_key").unwrap();
        let rehashed = rdo_storage::Table::from_relation(
            "check",
            fast.gather(),
            cat.num_partitions(),
            Some("o_orderkey"),
        )
        .unwrap();
        for p in 0..cat.num_partitions() {
            assert_eq!(
                fast.partition_to_vec(p).unwrap(),
                rehashed.partition_to_vec(p).unwrap(),
                "partition {p} layouts identical"
            );
        }
        assert!(fast.is_temporary() && fast.partition_key() == Some(0));
        assert_eq!(cat.stats().row_count("I_key"), Some(100));
    }

    /// A join output carries `a.id` and `b.id`. Data placed by `a.id` and
    /// materialized on `b.id` must be re-bucketed on `b.id`: the bare name
    /// `id` matching is no evidence of placement.
    #[test]
    fn same_named_key_of_another_dataset_is_rebucketed() {
        use crate::exchange::HashRepartition;
        let schema = Schema::for_dataset("a", &[("id", DataType::Int64)])
            .join(&Schema::for_dataset("b", &[("id", DataType::Int64)]));
        let rows: Vec<Tuple> = (0..200)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64((i * 7) % 13)]))
            .collect();
        let input = PartitionedData::from_rows(schema, vec![rows, vec![], vec![], vec![]], None);
        let pool = WorkerPool::new(2);
        let mut cat = Catalog::new(4);
        let (by_a, _, _) = HashRepartition::new(0).apply(&input, &pool);
        assert!(by_a.is_partitioned_on(0));
        let mut m = ExecutionMetrics::new();
        materialize(
            &pool,
            &mut cat,
            "I_ab",
            &by_a,
            Some(&FieldRef::new("b", "id")),
            &[],
            false,
            &mut m,
        )
        .unwrap();
        let stored = cat.table("I_ab").unwrap();
        assert_eq!(stored.partition_key(), Some(1), "keyed on b.id");
        let expected =
            rdo_storage::Table::from_relation("check", by_a.gather(), 4, Some("b.id")).unwrap();
        for p in 0..4 {
            assert_eq!(
                stored.partition_to_vec(p).unwrap(),
                expected.partition_to_vec(p).unwrap(),
                "partition {p} holds the rows b.id places there"
            );
        }
    }

    #[test]
    fn materialize_spills_when_the_budget_is_exceeded() {
        use rdo_storage::SpillConfig;
        let mut cat = catalog();
        cat.configure_spill(SpillConfig::default().with_budget(1).with_page_size(512))
            .unwrap();
        let (data, _) = scan(&cat, 2);
        let pool = WorkerPool::new(2);
        let mut m = ExecutionMetrics::new();
        let outcome = materialize(
            &pool,
            &mut cat,
            "I_spill",
            &data,
            Some(&orders("o_orderkey")),
            &[orders("o_custkey")],
            true,
            &mut m,
        )
        .unwrap();
        assert!(outcome.spilled);
        assert!(m.spill_pages_written > 0 && m.spill_bytes_written > 0);
        let table = cat.table("I_spill").unwrap();
        assert!(table.is_spilled());
        assert_eq!(table.row_count(), 100);
        // Statistics were merged from per-partition partials before spilling,
        // exactly as in memory.
        assert_eq!(m.stats_values_observed, 100);
        let stats = cat.stats().get("I_spill").unwrap();
        assert_eq!(stats.row_count, 100);
        assert!(stats.column(&orders("o_custkey")).is_some());

        // Reading the spilled intermediate charges the same logical
        // intermediate-read metrics as the memory path, plus page reads.
        let mut read = ExecutionMetrics::new();
        let relation = ParallelExecutor::new(&cat, ParallelConfig::serial())
            .execute_to_relation(&PhysicalPlan::scan("I_spill"), &mut read)
            .unwrap();
        assert_eq!(relation.len(), 100);
        assert_eq!(read.rows_intermediate_read, 100);
        assert_eq!(read.spill_pages_read, m.spill_pages_written);
        assert_eq!(read.spill_bytes_read, m.spill_bytes_written);
    }

    #[test]
    fn stats_are_identical_for_every_worker_count() {
        let reference = {
            let mut cat = catalog();
            let (data, mut m) = scan(&cat, 1);
            materialize(
                &WorkerPool::new(1),
                &mut cat,
                "I_1",
                &data,
                None,
                &[orders("o_custkey")],
                true,
                &mut m,
            )
            .unwrap();
            cat.stats().get("I_1").unwrap().clone()
        };
        for workers in [2, 4, 8] {
            let mut cat = catalog();
            let (data, mut m) = scan(&cat, workers);
            materialize(
                &WorkerPool::new(workers),
                &mut cat,
                "I_1",
                &data,
                None,
                &[orders("o_custkey")],
                true,
                &mut m,
            )
            .unwrap();
            let stats = cat.stats().get("I_1").unwrap();
            assert_eq!(stats.row_count, reference.row_count);
            let (a, b) = (
                stats.column(&orders("o_custkey")).unwrap(),
                reference.column(&orders("o_custkey")).unwrap(),
            );
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "workers={workers}");
        }
    }

    #[test]
    fn materialize_without_stats_counts_no_observations() {
        let mut cat = catalog();
        let (data, mut metrics) = scan(&cat, 2);
        let outcome = materialize(
            &WorkerPool::new(2),
            &mut cat,
            "I_last",
            &data,
            None,
            &[orders("o_custkey")],
            false,
            &mut metrics,
        )
        .unwrap();
        assert_eq!(outcome.stats_values, 0);
        assert_eq!(cat.stats().row_count("I_last"), Some(100));
        assert!(cat.stats().get("I_last").unwrap().columns.is_empty());
    }
}
