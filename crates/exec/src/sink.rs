//! The storing half of the Sink operator, which materializes intermediate
//! results at re-optimization points and collects online statistics on them.
//!
//! In the paper's Figure 4, every phase of the decomposed query ends in a `Sink`
//! operator that writes the intermediate data to a temporary file while
//! gathering statistical sketches; later phases read it back through a `Reader`
//! operator. Here the temporary file is a temporary [`rdo_storage::Table`] and
//! the Reader is an ordinary scan of it (which the executor charges at
//! intermediate-read rates).
//!
//! The Sink itself is `rdo_parallel::sink::materialize` — the only one, at
//! every worker count: it builds the sketches per partition on the worker
//! pool, merges them, and hands the statistics to [`store`] here. It never
//! touches a row: the sketches observe the batches column slot by column slot
//! ([`rdo_sketch::DatasetStatsBuilder::observe_batch`]), and the batches
//! themselves move into the catalog — as they are when the data is already
//! laid out the way the table will be, re-bucketed batch to batch
//! ([`stored_layout`]) when it is not.

use crate::cost::ExecutionMetrics;
use crate::data::PartitionedData;
use crate::partition::{repartition_batches, scatter_batches};
use rdo_common::{Batch, Result};
use rdo_sketch::DatasetStats;
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
/// charges to the cost model.
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
/// built by the caller, and records the materialization in `metrics`.
/// `stats_values` is the number of values the caller's sketches observed.
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
