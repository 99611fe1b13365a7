//! The Sink operator: materializes intermediate results at re-optimization
//! points and collects online statistics on them.
//!
//! In the paper's Figure 4, every phase of the decomposed query ends in a `Sink`
//! operator that writes the intermediate data to a temporary file while
//! gathering statistical sketches; later phases read it back through a `Reader`
//! operator. Here the temporary file is a temporary [`rdo_storage::Table`] and
//! the Reader is an ordinary scan of it (which the executor charges at
//! intermediate-read rates).
//!
//! The Sink never touches a row: the sketches observe the batches column slot
//! by column slot ([`DatasetStatsBuilder::observe_batch`]), and the batches
//! themselves move into the catalog ([`store`]) — as they are when the data
//! is already laid out the way the table will be, re-bucketed batch to batch
//! ([`stored_layout`]) when it is not.

use crate::cost::ExecutionMetrics;
use crate::data::PartitionedData;
use crate::partition::{repartition_batches, scatter_batches};
use rdo_common::{Batch, Result};
use rdo_sketch::{DatasetStats, DatasetStatsBuilder};
use rdo_storage::table::resolve_key;
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

/// Counts how many of `tracked_columns` actually exist in `schema` (matched
/// unqualified or fully qualified) — the per-row statistics work the Sink
/// charges to the cost model. Shared by the serial and parallel Sinks so their
/// `stats_values_observed` accounting can never diverge.
pub fn tracked_columns_present(schema: &rdo_common::Schema, tracked_columns: &[String]) -> u64 {
    tracked_columns
        .iter()
        .filter(|c| {
            let unqualified = rdo_common::unqualified(c);
            schema
                .fields()
                .iter()
                .any(|f| f.name.field == unqualified || f.name.qualified() == **c)
        })
        .count() as u64
}

/// The batches of `data` laid out as a table of `num_partitions` partitions
/// hash-partitioned on `partition_key` stores them: exactly the assignment
/// and row order that gathering the data and re-hashing it row by row gives
/// (round-robin over the gathered order when there is no key). Data already
/// partitioned that way is returned as it is, batches shared.
pub fn stored_layout(
    data: &PartitionedData,
    partition_key: Option<&str>,
    num_partitions: usize,
) -> Result<Vec<Vec<Batch>>> {
    let Some(key) = partition_key else {
        let mut gathered = 0usize;
        return Ok(scatter_batches(
            &data.all_batches(),
            num_partitions,
            |chunk, slots| {
                for s in 0..chunk.num_rows() {
                    slots[(gathered + s) % num_partitions].push(s as u32);
                }
                gathered += chunk.num_rows();
            },
        ));
    };
    if data.is_partitioned_on(key) && data.num_partitions() == num_partitions {
        return Ok(data.partitions().to_vec());
    }
    let key_index = resolve_key(data.schema(), key)?;
    let bucketed = data
        .partitions()
        .iter()
        .enumerate()
        .map(|(from, chunks)| repartition_batches(chunks, key_index, from, num_partitions));
    let (laid_out, _, _) =
        PartitionedData::from_buckets(data.schema().clone(), bucketed, num_partitions, key);
    Ok(laid_out.into_partitions())
}

/// Moves `data` into the catalog as temporary table `name` with statistics
/// built by the caller, and records the materialization in `metrics` — the
/// half of the Sink the serial and the parallel one share. `stats_values` is
/// the number of values the caller's sketches observed.
pub fn store(
    catalog: &mut Catalog,
    name: &str,
    data: &PartitionedData,
    partition_key: Option<&str>,
    stats: DatasetStats,
    stats_values: u64,
    metrics: &mut ExecutionMetrics,
) -> Result<MaterializeOutcome> {
    let rows = data.row_count() as u64;
    let bytes = data.approx_bytes() as u64;
    let stored = catalog.register_intermediate_partitioned(
        name,
        data.schema().clone(),
        stored_layout(data, partition_key, catalog.num_partitions())?,
        partition_key,
        stats,
    )?;

    metrics.rows_materialized += rows;
    metrics.bytes_materialized += bytes;
    metrics.stats_values_observed += stats_values;
    metrics.spill_pages_written += stored.pages_written;
    metrics.spill_bytes_written += stored.bytes_written;
    metrics.spill_logical_bytes_written += stored.logical_bytes_written;

    Ok(MaterializeOutcome {
        table: name.to_string(),
        rows,
        bytes,
        stats_values,
        spilled: stored.spilled,
    })
}

/// Materializes `data` into the catalog as temporary table `name`, hash-
/// partitioned on `partition_key`, collecting online statistics on
/// `tracked_columns` when `collect_stats` is true.
///
/// The paper disables online statistics for the final iteration ("the online
/// statistics framework is enabled in all the iterations except for the last
/// one"), which callers express through `collect_stats`.
///
/// This serial Sink feeds one sketch per tracked column with the data in
/// gathered order (partition by partition) on the coordinator. The dynamic
/// driver does **not** call it — every driver path goes through
/// `rdo_parallel::sink::materialize`, which builds one sketch per partition
/// and merges the partials (slightly different, equally valid GK summaries).
/// Prefer the parallel Sink in new code so registered statistics stay
/// identical across all execution paths; this one remains the
/// single-threaded reference implementation.
pub fn materialize(
    catalog: &mut Catalog,
    name: &str,
    data: &PartitionedData,
    partition_key: Option<&str>,
    tracked_columns: &[String],
    collect_stats: bool,
    metrics: &mut ExecutionMetrics,
) -> Result<MaterializeOutcome> {
    // Even without sketches the row count is known after materialization.
    let tracked: &[String] = if collect_stats { tracked_columns } else { &[] };
    let stats_values = tracked_columns_present(data.schema(), tracked) * data.row_count() as u64;
    let mut builder = DatasetStatsBuilder::new(data.schema(), tracked);
    for batch in data.partitions().iter().flatten() {
        builder.observe_batch(batch);
    }
    store(
        catalog,
        name,
        data,
        partition_key,
        builder.build(),
        stats_values,
        metrics,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
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

    #[test]
    fn materialize_and_read_back() {
        let mut cat = catalog();
        let mut m = ExecutionMetrics::new();
        let data = {
            let exec = Executor::new(&cat);
            exec.execute(&PhysicalPlan::scan("orders"), &mut m).unwrap()
        };
        let outcome = materialize(
            &mut cat,
            "I_1",
            &data,
            Some("o_custkey"),
            &["o_custkey".to_string()],
            true,
            &mut m,
        )
        .unwrap();
        assert_eq!(outcome.rows, 100);
        assert_eq!(outcome.stats_values, 100);
        assert!(outcome.bytes > 0);
        assert_eq!(m.rows_materialized, 100);
        assert_eq!(m.stats_values_observed, 100);

        // Reading the intermediate back charges intermediate-read metrics, not
        // base-scan metrics.
        let mut m2 = ExecutionMetrics::new();
        let exec = Executor::new(&cat);
        let rel = exec
            .execute_to_relation(&PhysicalPlan::scan("I_1"), &mut m2)
            .unwrap();
        assert_eq!(rel.len(), 100);
        assert_eq!(m2.rows_intermediate_read, 100);
        assert_eq!(m2.rows_scanned, 0);

        // Online statistics for the tracked column are available.
        let stats = cat.stats().get("I_1").unwrap();
        assert_eq!(stats.row_count, 100);
        assert!(stats.column("o_custkey").is_some());
        assert!(stats.column("o_orderkey").is_none());
    }

    #[test]
    fn materialize_without_stats_counts_no_observations() {
        let mut cat = catalog();
        let mut m = ExecutionMetrics::new();
        let data = {
            let exec = Executor::new(&cat);
            exec.execute(&PhysicalPlan::scan("orders"), &mut m).unwrap()
        };
        let outcome = materialize(
            &mut cat,
            "I_last",
            &data,
            None,
            &["o_custkey".to_string()],
            false,
            &mut m,
        )
        .unwrap();
        assert_eq!(outcome.stats_values, 0);
        assert_eq!(cat.stats().row_count("I_last"), Some(100));
        assert!(cat.stats().get("I_last").unwrap().columns.is_empty());
    }

    #[test]
    fn materialize_spills_under_budget_and_scans_charge_spill_reads() {
        use rdo_storage::SpillConfig;
        let mut cat = catalog();
        cat.configure_spill(SpillConfig::default().with_budget(1).with_page_size(512))
            .unwrap();
        let mut m = ExecutionMetrics::new();
        let data = {
            let exec = Executor::new(&cat);
            exec.execute(&PhysicalPlan::scan("orders"), &mut m).unwrap()
        };
        let outcome = materialize(
            &mut cat,
            "I_spill",
            &data,
            Some("o_custkey"),
            &["o_custkey".to_string()],
            true,
            &mut m,
        )
        .unwrap();
        assert!(outcome.spilled, "1-byte budget forces the disk store");
        assert!(m.spill_pages_written > 0 && m.spill_bytes_written > 0);
        assert!(cat.table("I_spill").unwrap().is_spilled());

        // Reading the spilled intermediate charges the same logical
        // intermediate-read metrics as the memory path, plus page reads.
        let mut m2 = ExecutionMetrics::new();
        let exec = Executor::new(&cat);
        let rel = exec
            .execute_to_relation(&PhysicalPlan::scan("I_spill"), &mut m2)
            .unwrap();
        assert_eq!(rel.len(), 100);
        assert_eq!(m2.rows_intermediate_read, 100);
        assert_eq!(m2.spill_pages_read, m.spill_pages_written);
        assert_eq!(m2.spill_bytes_read, m.spill_bytes_written);

        // Statistics were collected before spilling, exactly as in memory.
        let stats = cat.stats().get("I_spill").unwrap();
        assert_eq!(stats.row_count, 100);
        assert!(stats.column("o_custkey").is_some());
    }

    #[test]
    fn tracked_columns_missing_from_schema_are_ignored() {
        let mut cat = catalog();
        let mut m = ExecutionMetrics::new();
        let data = {
            let exec = Executor::new(&cat);
            exec.execute(&PhysicalPlan::scan("orders"), &mut m).unwrap()
        };
        let outcome = materialize(
            &mut cat,
            "I_2",
            &data,
            None,
            &["not_a_column".to_string(), "o_custkey".to_string()],
            true,
            &mut m,
        )
        .unwrap();
        assert_eq!(
            outcome.stats_values, 100,
            "only the real column is observed"
        );
    }
}
