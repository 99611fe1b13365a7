//! The parallel Sink: the barrier at each re-optimization point.
//!
//! Algorithm 1 materializes the chosen join's result before re-planning; that
//! materialization is a natural barrier for the worker pool. Each worker
//! builds a [`DatasetStatsBuilder`] (GK + HLL sketches) over its partitions,
//! and the coordinator merges the per-partition partials **in partition
//! order** before registering the intermediate table — mirroring the paper's
//! per-partition Sink operators whose local statistics are combined when the
//! job finishes. The fixed merge order makes the registered statistics
//! identical for every worker count.
//!
//! Note the statistics semantics differ slightly from the serial
//! [`rdo_exec::materialize`], which feeds one sketch per column with the data
//! in gathered order on the coordinator: HyperLogLog merging is exact, but a GK sketch
//! merged from per-partition partials is a different (equally valid,
//! error-bounded) summary than one built sequentially. Both satisfy the same
//! accuracy guarantees; the dynamic driver uses this parallel Sink in all
//! configurations so its planning decisions never depend on the worker count.

use crate::pool::WorkerPool;
use rdo_common::Result;
use rdo_exec::{ExecutionMetrics, MaterializeOutcome, PartitionedData};
use rdo_sketch::DatasetStatsBuilder;
use rdo_storage::Catalog;

/// Materializes `data` into the catalog as temporary table `name`,
/// hash-partitioned on `partition_key`, collecting online statistics on
/// `tracked_columns` (when `collect_stats` is true) from per-partition
/// partials merged at the barrier. Sketch building runs on the caller's
/// persistent `pool` (one pool per driver execution, shared by every stage)
/// and reads the batches column slot by column slot.
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

    // Statistics cost accounting, shared with the serial Sink: one
    // observation per tracked column actually present in the schema, per row.
    let tracked: &[String] = if collect_stats { tracked_columns } else { &[] };
    let stats_values = rdo_exec::sink::tracked_columns_present(data.schema(), tracked) * rows;

    // Per-partition sketch building on the pool, merged in partition order.
    let partials = pool.map_indexed(data.num_partitions(), |p| {
        let mut builder = DatasetStatsBuilder::new(data.schema(), tracked);
        for batch in &data.partitions()[p] {
            builder.observe_batch(batch);
        }
        builder
    });
    let mut merged = DatasetStatsBuilder::new(data.schema(), tracked);
    for partial in &partials {
        merged.merge(partial);
    }

    let outcome = rdo_exec::sink::store(
        catalog,
        name,
        data,
        partition_key,
        merged.build(),
        stats_values,
        metrics,
    )?;
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
        assert_eq!(metrics.rows_materialized, 100);
        assert_eq!(metrics.stats_values_observed, 100);
        let stats = cat.stats().get("I_1").unwrap();
        assert_eq!(stats.row_count, 100);
        let column = stats.column("o_custkey").unwrap();
        assert!((column.distinct_nonzero() - 10.0).abs() < 2.0);
        assert!(cat.table("I_1").unwrap().is_partitioned_on("o_custkey"));
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
        // Statistics were merged from per-partition partials before spilling.
        assert_eq!(m.stats_values_observed, 100);
        assert!(cat
            .stats()
            .get("I_spill")
            .unwrap()
            .column("o_custkey")
            .is_some());
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
            assert_eq!(
                a.distinct_nonzero(),
                b.distinct_nonzero(),
                "workers={workers}"
            );
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
