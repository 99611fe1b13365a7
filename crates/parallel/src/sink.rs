//! The Sink: the barrier at each re-optimization point.
//!
//! Algorithm 1 materializes the chosen join's result before re-planning; that
//! materialization is a natural barrier for the worker pool, and this is the
//! engine's one Sink — every driver, at every worker count, goes through it.
//! It has three steps, each a child span of `sink.materialize`:
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
//! * `sink.store`: the batches move into the catalog ([`rdo_exec::sink::store`]).
//!
//! HyperLogLog merging is exact; a GK sketch merged from per-partition
//! partials is a different (equally valid, error-bounded) summary than one
//! built over the gathered data would be. The registered one is always the
//! merged one, so planning decisions never depend on the worker count.

use crate::pool::WorkerPool;
use rdo_common::Result;
use rdo_exec::{ExecutionMetrics, MaterializeOutcome, PartitionedData};
use rdo_sketch::{DatasetStats, DatasetStatsBuilder};
use rdo_storage::Catalog;

/// Materializes `data` into the catalog as temporary table `name`,
/// hash-partitioned on `partition_key`, collecting online statistics on
/// `tracked_columns` from per-partition partials merged at the barrier.
///
/// The paper disables online statistics for the final iteration ("the online
/// statistics framework is enabled in all the iterations except for the last
/// one"), which callers express through `collect_stats`; the row count is
/// registered either way. Sketch building and merging run on the caller's
/// persistent `pool` (one pool per driver execution, shared by every stage)
/// and read the batches column slot by column slot.
///
/// The batches then move into the catalog ([`rdo_exec::sink::store`]): as
/// they are when `data` is already hash-partitioned on `partition_key` with
/// the cluster's partition count, re-bucketed batch to batch otherwise. The
/// catalog's spill policy decides whether the table stays resident or goes
/// to the paged disk store; logical page writes land in the `spill_*`
/// metrics.
#[allow(clippy::too_many_arguments)]
pub fn materialize(
    pool: &WorkerPool,
    catalog: &mut Catalog,
    name: &str,
    data: &PartitionedData,
    partition_key: Option<&str>,
    tracked_columns: &[String],
    collect_stats: bool,
    metrics: &mut ExecutionMetrics,
) -> Result<MaterializeOutcome> {
    let rows = data.row_count() as u64;
    let mut span = rdo_trace::span("sink.materialize");
    span.attr_str("table", name);

    // Statistics cost accounting: one observation per tracked column
    // actually present in the schema, per row.
    let tracked: &[String] = if collect_stats { tracked_columns } else { &[] };
    let stats_values = rdo_exec::sink::tracked_columns_present(data.schema(), tracked) * rows;

    let partials = pool.map_indexed(data.num_partitions(), |p| {
        let mut span = rdo_trace::span("sink.sketch");
        span.attr_u64("partition", p as u64);
        let mut builder = DatasetStatsBuilder::new(data.schema(), tracked);
        for batch in &data.partitions()[p] {
            builder.observe_batch(batch);
        }
        builder.seal();
        builder
    });
    let stats = {
        let _span = rdo_trace::span("sink.merge");
        let names = DatasetStatsBuilder::new(data.schema(), tracked).tracked_columns();
        let columns = pool.map_indexed(names.len(), |column| {
            DatasetStatsBuilder::merged_column(&partials, column)
        });
        DatasetStats {
            row_count: rows,
            columns: names.into_iter().zip(columns).collect(),
        }
    };

    let outcome = {
        let _span = rdo_trace::span("sink.store");
        rdo_exec::sink::store(
            catalog,
            name,
            data,
            partition_key,
            stats,
            stats_values,
            metrics,
        )?
    };
    span.attr_u64("rows", outcome.rows);
    span.attr_u64("bytes", outcome.bytes);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelConfig;
    use crate::executor::ParallelExecutor;
    use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    use rdo_exec::PhysicalPlan;
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
            Some("o_custkey"),
            &["o_custkey".to_string()],
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
        let column = stats.column("o_custkey").unwrap();
        assert!((column.distinct_nonzero() - 10.0).abs() < 2.0);
        assert!(stats.column("o_orderkey").is_none());
        assert!(cat.table("I_1").unwrap().is_partitioned_on("o_custkey"));

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
            &["not_a_column".to_string(), "o_custkey".to_string()],
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
        assert!(data.is_partitioned_on("o_orderkey"));
        let pool = WorkerPool::new(2);
        let mut m = ExecutionMetrics::new();
        materialize(
            &pool,
            &mut cat,
            "I_key",
            &data,
            Some("o_orderkey"),
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
        assert!(fast.is_temporary() && fast.is_partitioned_on("o_orderkey"));
        assert_eq!(cat.stats().row_count("I_key"), Some(100));
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
            Some("o_orderkey"),
            &["o_custkey".to_string()],
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
        assert!(stats.column("o_custkey").is_some());

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
                &["o_custkey".to_string()],
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
                &["o_custkey".to_string()],
                true,
                &mut m,
            )
            .unwrap();
            let stats = cat.stats().get("I_1").unwrap();
            assert_eq!(stats.row_count, reference.row_count);
            let (a, b) = (
                stats.column("o_custkey").unwrap(),
                reference.column("o_custkey").unwrap(),
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
            &["o_custkey".to_string()],
            false,
            &mut metrics,
        )
        .unwrap();
        assert_eq!(outcome.stats_values, 0);
        assert_eq!(cat.stats().row_count("I_last"), Some(100));
        assert!(cat.stats().get("I_last").unwrap().columns.is_empty());
    }
}
