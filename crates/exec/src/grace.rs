//! The memory-budgeted grace/hybrid hash join kernel.
//!
//! The in-memory join ([`crate::partition::JoinBuildTable`]) indexes the whole
//! build side of one partition; with a join budget configured
//! (`RDO_JOIN_BUDGET` / [`rdo_storage::SpillConfig::join_budget_bytes`]) this
//! module takes over whenever that build side would exceed the budget. The
//! decision is taken on the batches ([`PreparedBuild::prepare`]); only a
//! partition that actually goes out of core is converted to rows, because
//! the spill pages it streams through are sized and written tuple by tuple:
//!
//! 1. Both sides of the partition are hashed into `fanout` grace buckets
//!    (a *different* hash than the partition-level exchange, so co-partitioned
//!    inputs still split). The fanout is adaptive by default — 4/8/16-way,
//!    the smallest that covers the build-side byte estimate within the
//!    remaining recursion depth.
//! 2. As many build buckets as fit in the budget stay resident (the *hybrid*
//!    part); their probe rows join immediately.
//! 3. The remaining buckets **stream** to spill files page by page: a first
//!    pass sizes the buckets, a second routes each row either into a resident
//!    bucket or through one page-sized write buffer per spilled bucket
//!    ([`rdo_storage::SpillPartitionWriter`]), so the partitioner's transient
//!    footprint is O(fanout × page size) — it never materializes full
//!    buckets. Spilled pairs are read back and joined one at a time —
//!    recursively re-bucketed with a depth-salted hash when a bucket still
//!    exceeds the budget, up to a bounded recursion depth.
//! 4. Past the depth bound (pathological skew: one key carrying more rows than
//!    the budget can hold) the bucket falls back to a block nested-loop join,
//!    which needs no hash table.
//!
//! The kernel is an *optimization, never a semantic change*: every probe row
//! is tagged with its original position and the per-row outputs are merged
//! back in probe order, so results, join tallies and plan-visible metrics are
//! bit-identical to the in-memory join at every worker count and budget. Only
//! the dedicated grace counters (pages/bytes written and read, partitions
//! spilled, recursions, fallbacks) reveal that the join went out-of-core;
//! they are logical tallies — pure functions of the joined rows — and
//! therefore deterministic too.

use crate::cost::ExecutionMetrics;
use crate::partition::{
    chunk_rows, composite_key, hash_join_partition, rows_of, JoinBuildTable, JoinTally,
};
use rdo_common::{batch_size, Batch, Result, Tuple, Value};
use rdo_sketch::hll::hash_value;
use rdo_storage::{Catalog, SpillManager, SpillPartitionWriter, SpilledPartitions};
use std::collections::HashMap;
use std::sync::Arc;

/// The fanout tiers the adaptive partitioner picks from, smallest first.
pub const FANOUT_TIERS: [usize; 3] = [4, 8, 16];

/// The middle tier of the adaptive grace fanout (and the fixed fanout of
/// earlier revisions). Eight buckets cut a build side to ~1/8 per level, so
/// three levels cover a build side 512× the budget before the nested-loop
/// fallback kicks in.
pub const DEFAULT_FANOUT: usize = FANOUT_TIERS[1];

/// Maximum recursive re-partitioning depth before the nested-loop fallback.
pub const DEFAULT_MAX_DEPTH: usize = 3;

/// Everything a join kernel needs to go out-of-core: the spill manager that
/// owns the directory and buffer pool, and the budget/shape knobs. Cloned
/// freely into per-partition tasks (the manager is behind an `Arc`).
#[derive(Debug, Clone)]
pub struct GraceContext {
    manager: Arc<SpillManager>,
    /// Build-side budget in bytes for one partition's hash table.
    pub budget_bytes: u64,
    /// Grace buckets per recursion level. `0` (the default) picks the fanout
    /// adaptively per level — the smallest of [`FANOUT_TIERS`] whose
    /// `fanout ^ remaining_depth` covers the build-side byte estimate — so
    /// small overflows pay 4 write buffers, not 16.
    pub fanout: usize,
    /// Maximum recursion depth before the nested-loop fallback.
    pub max_depth: usize,
}

impl GraceContext {
    /// The grace context of a catalog, if its spill configuration carries a
    /// join budget. The executor calls this once per join and threads the
    /// context into every partition's kernel.
    pub fn from_catalog(catalog: &Catalog) -> Option<Self> {
        let manager = catalog.spill_manager()?;
        let budget_bytes = manager.config().join_budget_bytes?;
        Some(Self {
            manager: Arc::clone(manager),
            budget_bytes,
            fanout: 0,
            max_depth: DEFAULT_MAX_DEPTH,
        })
    }

    /// A context over an explicit manager (tests and tools).
    pub fn new(manager: Arc<SpillManager>, budget_bytes: u64) -> Self {
        Self {
            manager,
            budget_bytes,
            fanout: 0,
            max_depth: DEFAULT_MAX_DEPTH,
        }
    }

    /// Builder-style fixed-fanout override (clamped to `[2, 1024]`),
    /// disabling the adaptive choice.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout.clamp(2, 1024);
        self
    }

    /// Builder-style recursion-depth override.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// The fanout one recursion level uses: the fixed override when set,
    /// otherwise the adaptive tier for this build size and remaining depth.
    /// Re-clamped here because the `fanout` field is public — a value past
    /// 1024 would overflow the partitioner's u16 bucket cache.
    fn level_fanout(&self, build_bytes: u64, depth: usize) -> usize {
        if self.fanout > 0 {
            return self.fanout.clamp(2, 1024);
        }
        adaptive_fanout(
            build_bytes,
            self.budget_bytes,
            self.max_depth.saturating_sub(depth),
        )
    }
}

/// Picks the grace fanout from the build-side byte estimate: the smallest
/// tier whose `fanout ^ levels_remaining` covers `build_bytes / budget` —
/// i.e. the smallest fanout that can still split the build side down to the
/// budget within the remaining recursion depth (assuming even splits). A
/// build side too big even for the largest tier gets the largest tier and
/// relies on the nested-loop fallback past the depth bound. Deterministic,
/// so grace counters stay worker-count invariant.
pub fn adaptive_fanout(build_bytes: u64, budget_bytes: u64, levels_remaining: usize) -> usize {
    let ratio = build_bytes.div_ceil(budget_bytes.max(1)).max(1);
    let levels = levels_remaining.max(1) as u32;
    for fanout in FANOUT_TIERS {
        if (fanout as u64).saturating_pow(levels) >= ratio {
            return fanout;
        }
    }
    FANOUT_TIERS[FANOUT_TIERS.len() - 1]
}

/// Counters produced by one partition of a (possibly spilling) join. The
/// `join` part is bit-identical to the in-memory kernel's tally; the grace
/// counters are zero unless the partition actually went out-of-core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraceTally {
    /// The in-memory-equivalent build/probe/output tally.
    pub join: JoinTally,
    /// Build buckets written to spill files.
    pub partitions_spilled: u64,
    /// Pages written to grace spill files (both sides).
    pub pages_written: u64,
    /// Stored bytes written to grace spill files (compressed when page
    /// compression is on).
    pub bytes_written: u64,
    /// Pages read back from grace spill files.
    pub pages_read: u64,
    /// Stored bytes read back.
    pub bytes_read: u64,
    /// Uncompressed serialized bytes behind `bytes_written`.
    pub logical_bytes_written: u64,
    /// Uncompressed serialized bytes behind `bytes_read`.
    pub logical_bytes_read: u64,
    /// Recursive re-partitioning rounds (bucket still over budget).
    pub recursions: u64,
    /// Nested-loop fallback leaves (skew past the recursion bound).
    pub fallbacks: u64,
    /// High-water mark of the streaming partitioner's write buffers — the
    /// transient footprint of routing this partition, bounded by fanout ×
    /// page size plus at most one oversized row per bucket. Max-merged.
    pub peak_transient_bytes: u64,
}

impl GraceTally {
    /// Adds another tally into this one (partition-order fold). Every counter
    /// is a plain sum except `peak_transient_bytes`, a max-merged high-water
    /// mark.
    pub fn add(&mut self, other: &GraceTally) {
        self.join.add(&other.join);
        self.partitions_spilled += other.partitions_spilled;
        self.pages_written += other.pages_written;
        self.bytes_written += other.bytes_written;
        self.pages_read += other.pages_read;
        self.bytes_read += other.bytes_read;
        self.logical_bytes_written += other.logical_bytes_written;
        self.logical_bytes_read += other.logical_bytes_read;
        self.recursions += other.recursions;
        self.fallbacks += other.fallbacks;
        self.peak_transient_bytes = self.peak_transient_bytes.max(other.peak_transient_bytes);
    }

    /// Folds this partition tally into the stage metrics.
    pub fn record(&self, metrics: &mut ExecutionMetrics) {
        metrics.build_rows += self.join.build_rows;
        metrics.probe_rows += self.join.probe_rows;
        metrics.output_rows += self.join.output_rows;
        metrics.grace_partitions_spilled += self.partitions_spilled;
        metrics.grace_pages_written += self.pages_written;
        metrics.grace_bytes_written += self.bytes_written;
        metrics.grace_pages_read += self.pages_read;
        metrics.grace_bytes_read += self.bytes_read;
        metrics.grace_logical_bytes_written += self.logical_bytes_written;
        metrics.grace_logical_bytes_read += self.logical_bytes_read;
        metrics.grace_recursions += self.recursions;
        metrics.grace_fallbacks += self.fallbacks;
        metrics.grace_peak_transient_bytes = metrics
            .grace_peak_transient_bytes
            .max(self.peak_transient_bytes);
    }
}

/// The build side of a join, prepared once for any number of probe
/// partitions: the hash join prepares one per partition, the broadcast join
/// one for all of them.
pub enum PreparedBuild {
    /// The build side fits the join budget (or there is none): the
    /// in-memory index, shared by every probe.
    InMemory(JoinBuildTable),
    /// The build side exceeds the budget: its rows, for the grace path.
    OverBudget {
        /// The build rows, converted once.
        rows: Vec<Tuple>,
        /// The budget and spill manager of the grace join.
        ctx: GraceContext,
    },
}

impl PreparedBuild {
    /// Sizes the build side against the join budget of `grace` (if any) and
    /// prepares the matching representation.
    pub fn prepare(
        build: &[Batch],
        build_key_indexes: &[usize],
        grace: Option<&GraceContext>,
    ) -> Self {
        match grace {
            Some(ctx)
                if build.iter().map(|b| b.approx_bytes() as u64).sum::<u64>()
                    > ctx.budget_bytes =>
            {
                PreparedBuild::OverBudget {
                    rows: rows_of(build),
                    ctx: ctx.clone(),
                }
            }
            _ => PreparedBuild::InMemory(JoinBuildTable::build(build, build_key_indexes)),
        }
    }

    /// Joins one probe partition against the prepared build side. The
    /// `join` part of the tally charges the build rows once per call, as a
    /// partition building its own table would.
    pub fn join_partition(
        &self,
        probe: &[Batch],
        probe_key_indexes: &[usize],
        build_key_indexes: &[usize],
    ) -> Result<(Vec<Batch>, GraceTally)> {
        match self {
            PreparedBuild::InMemory(table) => {
                let (out, join) = table.probe_partition(probe, probe_key_indexes);
                Ok((
                    out,
                    GraceTally {
                        join,
                        ..GraceTally::default()
                    },
                ))
            }
            PreparedBuild::OverBudget { rows, ctx } => {
                let (out, tally) = grace_join_partition(
                    &rows_of(probe),
                    rows,
                    probe_key_indexes,
                    build_key_indexes,
                    ctx,
                )?;
                Ok((chunk_rows(&out, batch_size()), tally))
            }
        }
    }
}

/// Joins one partition, going through the grace path when a context is given
/// and the build side is over its budget: the hash join's single dispatch
/// point.
pub fn joined_partition(
    probe: &[Batch],
    build: &[Batch],
    probe_key_indexes: &[usize],
    build_key_indexes: &[usize],
    grace: Option<&GraceContext>,
) -> Result<(Vec<Batch>, GraceTally)> {
    PreparedBuild::prepare(build, build_key_indexes, grace).join_partition(
        probe,
        probe_key_indexes,
        build_key_indexes,
    )
}

/// The memory-budgeted join of one partition's rows. Below the budget this
/// *is* the in-memory join; above it, both sides go through grace
/// partitioning.
pub fn grace_join_partition(
    probe_rows: &[Tuple],
    build_rows: &[Tuple],
    probe_key_indexes: &[usize],
    build_key_indexes: &[usize],
    ctx: &GraceContext,
) -> Result<(Vec<Tuple>, GraceTally)> {
    let mut tally = GraceTally::default();
    let build_bytes: u64 = build_rows.iter().map(|t| t.approx_bytes() as u64).sum();
    if build_bytes <= ctx.budget_bytes {
        let (out, join) =
            hash_join_partition(probe_rows, build_rows, probe_key_indexes, build_key_indexes);
        tally.join = join;
        return Ok((out, tally));
    }
    // An empty probe side joins to nothing; charge the build rows the
    // in-memory kernel would have counted and skip the partitioning I/O.
    if probe_rows.is_empty() {
        tally.join.build_rows = build_rows.len() as u64;
        return Ok((Vec::new(), tally));
    }

    let indexes: Vec<u64> = (0..probe_rows.len() as u64).collect();
    let mut emitted: Vec<(u64, Vec<Tuple>)> = Vec::new();
    recurse(
        probe_rows,
        &indexes,
        build_rows,
        0,
        probe_key_indexes,
        build_key_indexes,
        ctx,
        &mut emitted,
        &mut tally,
    )?;
    // Each probe row lives in exactly one bucket chain, so merging the
    // per-row outputs by original position reproduces the in-memory order.
    emitted.sort_unstable_by_key(|(i, _)| *i);
    let mut out = Vec::with_capacity(tally.join.output_rows as usize);
    for (_, rows) in emitted {
        out.extend(rows);
    }
    Ok((out, tally))
}

/// Grace bucket of a composite key at one recursion depth. Depth salts the
/// hash so a bucket that fails to split at one level splits at the next, and
/// the mixing makes it independent of the exchange-level `partition_for`
/// (co-partitioned inputs, whose first key is constant modulo the partition
/// count, still spread over all buckets).
fn grace_bucket(key: &[Value], depth: usize, fanout: usize) -> usize {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(depth as u64 + 1);
    for v in key {
        h ^= hash_value(v);
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    (h % fanout.max(1) as u64) as usize
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    probe: &[Tuple],
    idx: &[u64],
    build: &[Tuple],
    depth: usize,
    probe_keys: &[usize],
    build_keys: &[usize],
    ctx: &GraceContext,
    emitted: &mut Vec<(u64, Vec<Tuple>)>,
    tally: &mut GraceTally,
) -> Result<()> {
    let build_bytes: u64 = build.iter().map(|t| t.approx_bytes() as u64).sum();
    if build_bytes <= ctx.budget_bytes {
        leaf_hash_join(probe, idx, build, probe_keys, build_keys, emitted, tally);
        return Ok(());
    }
    if depth >= ctx.max_depth {
        // Pathological skew: the bucket no longer splits (or we stopped
        // trying). A block nested-loop join needs no build hash table.
        tally.fallbacks += 1;
        leaf_nested_loop(probe, idx, build, probe_keys, build_keys, emitted, tally);
        return Ok(());
    }
    tally.recursions += 1;
    let fanout = ctx.level_fanout(build_bytes, depth);
    let mut span = rdo_trace::span("exec.grace");
    span.attr_u64("level", depth as u64);
    span.attr_u64("fanout", fanout as u64);
    span.attr_u64("bucket_bytes", build_bytes);

    // ---- Pass 1: size the buckets without materializing them — O(fanout)
    // state plus one cached bucket id per row, so pass 2 never re-hashes.
    // NULL-keyed rows never match; they are marked here and counted in
    // pass 2. ----
    const NULL_BUCKET: u16 = u16::MAX; // fanout is clamped to <= 1024
    let mut bucket_bytes = vec![0u64; fanout];
    let mut bucket_rows = vec![0u64; fanout];
    let mut row_buckets: Vec<u16> = Vec::with_capacity(build.len());
    for row in build {
        match composite_key(row, build_keys) {
            None => row_buckets.push(NULL_BUCKET),
            Some(key) => {
                let b = grace_bucket(&key, depth, fanout);
                bucket_bytes[b] += row.approx_bytes() as u64;
                bucket_rows[b] += 1;
                row_buckets.push(b as u16);
            }
        }
    }

    // ---- Hybrid: keep a prefix of buckets resident while they fit. Since the
    // total exceeds the budget, at least one non-empty bucket spills. ----
    let mut resident = vec![false; fanout];
    let mut resident_bytes = 0u64;
    for b in 0..fanout {
        if bucket_rows[b] > 0 && resident_bytes + bucket_bytes[b] <= ctx.budget_bytes {
            resident[b] = true;
            resident_bytes += bucket_bytes[b];
        }
    }
    let spilled_nonempty: Vec<bool> = (0..fanout)
        .map(|b| !resident[b] && bucket_rows[b] > 0)
        .collect();
    tally.partitions_spilled += spilled_nonempty.iter().filter(|s| **s).count() as u64;

    // ---- Pass 2: route the build side. Resident buckets materialize (they
    // fit the budget by construction); spilled buckets stream page by page
    // through one write buffer each, so the transient footprint of the
    // overflow is fanout × page size — not the overflow's own size. NULL-
    // keyed rows are counted the way the in-memory kernel counts its insert
    // attempts and dropped. ----
    let mut build_buckets: Vec<Vec<Tuple>> = vec![Vec::new(); fanout];
    let mut build_writer = SpillPartitionWriter::new(Arc::clone(&ctx.manager), fanout)?;
    for (row, &bucket) in build.iter().zip(&row_buckets) {
        if bucket == NULL_BUCKET {
            tally.join.build_rows += 1;
            continue;
        }
        let b = bucket as usize;
        if resident[b] {
            build_buckets[b].push(row.clone());
        } else {
            build_writer.append(b, row)?;
        }
    }
    drop(row_buckets);
    tally.peak_transient_bytes = tally
        .peak_transient_bytes
        .max(build_writer.peak_buffered_bytes());
    let (build_store, build_written) = build_writer.finish()?;
    tally.pages_written += build_written.pages;
    tally.bytes_written += build_written.bytes;
    tally.logical_bytes_written += build_written.logical_bytes;

    // ---- One hash table over all resident buckets: a key's matches live in a
    // single bucket and keep their build-order positions, so combining the
    // resident buckets changes nothing about match order. ----
    let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
    for (b, bucket) in build_buckets.iter().enumerate() {
        if resident[b] {
            for row in bucket {
                tally.join.build_rows += 1;
                let key = composite_key(row, build_keys).expect("bucketed rows carry keys");
                table.entry(key).or_default().push(row);
            }
        }
    }

    // ---- Stream the probe side: resident buckets join now, buckets with a
    // spilled build partner stream to disk through per-bucket page buffers
    // (original positions stay in memory), and buckets whose build side is
    // empty can't match anything. ----
    let mut probe_spill_idx: Vec<Vec<u64>> = vec![Vec::new(); fanout];
    let mut probe_writer = SpillPartitionWriter::new(Arc::clone(&ctx.manager), fanout)?;
    for (row, &i) in probe.iter().zip(idx) {
        let Some(key) = composite_key(row, probe_keys) else {
            tally.join.probe_rows += 1;
            continue;
        };
        let b = grace_bucket(&key, depth, fanout);
        if resident[b] {
            tally.join.probe_rows += 1;
            if let Some(matches) = table.get(&key) {
                let rows: Vec<Tuple> = matches.iter().map(|m| row.concat(m)).collect();
                tally.join.output_rows += rows.len() as u64;
                emitted.push((i, rows));
            }
        } else if spilled_nonempty[b] {
            probe_writer.append(b, row)?;
            probe_spill_idx[b].push(i);
        } else {
            tally.join.probe_rows += 1;
        }
    }
    drop(table);
    drop(build_buckets);
    tally.peak_transient_bytes = tally
        .peak_transient_bytes
        .max(probe_writer.peak_buffered_bytes());
    let (probe_store, probe_written) = probe_writer.finish()?;
    tally.pages_written += probe_written.pages;
    tally.bytes_written += probe_written.bytes;
    tally.logical_bytes_written += probe_written.logical_bytes;

    // ---- Read back and join each spilled pair, one at a time. ----
    for b in 0..fanout {
        if !spilled_nonempty[b] {
            continue;
        }
        let bucket_build = read_partition(&build_store, b, tally)?;
        let bucket_probe = read_partition(&probe_store, b, tally)?;
        recurse(
            &bucket_probe,
            &probe_spill_idx[b],
            &bucket_build,
            depth + 1,
            probe_keys,
            build_keys,
            ctx,
            emitted,
            tally,
        )?;
    }
    // The stores drop here, deleting their spill files.
    Ok(())
}

/// Materializes one spilled bucket, charging the pages actually read.
fn read_partition(
    store: &SpilledPartitions,
    bucket: usize,
    tally: &mut GraceTally,
) -> Result<Vec<Tuple>> {
    let (rows, read) = store.read_partition_tallied(bucket)?;
    tally.pages_read += read.pages;
    tally.bytes_read += read.bytes;
    tally.logical_bytes_read += read.logical_bytes;
    Ok(rows)
}

/// In-budget leaf: the same build-and-probe as the in-memory kernel, emitting
/// per-probe-row outputs tagged with their original positions.
fn leaf_hash_join(
    probe: &[Tuple],
    idx: &[u64],
    build: &[Tuple],
    probe_keys: &[usize],
    build_keys: &[usize],
    emitted: &mut Vec<(u64, Vec<Tuple>)>,
    tally: &mut GraceTally,
) {
    let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::with_capacity(build.len());
    for row in build {
        tally.join.build_rows += 1;
        if let Some(key) = composite_key(row, build_keys) {
            table.entry(key).or_default().push(row);
        }
    }
    for (row, &i) in probe.iter().zip(idx) {
        tally.join.probe_rows += 1;
        let Some(key) = composite_key(row, probe_keys) else {
            continue;
        };
        if let Some(matches) = table.get(&key) {
            let rows: Vec<Tuple> = matches.iter().map(|m| row.concat(m)).collect();
            tally.join.output_rows += rows.len() as u64;
            emitted.push((i, rows));
        }
    }
}

/// Fallback leaf for skewed buckets: block nested loop, no hash table. Scans
/// the build side per probe row in build order, which is exactly the match
/// order the hash table's insertion-ordered entries would produce.
fn leaf_nested_loop(
    probe: &[Tuple],
    idx: &[u64],
    build: &[Tuple],
    probe_keys: &[usize],
    build_keys: &[usize],
    emitted: &mut Vec<(u64, Vec<Tuple>)>,
    tally: &mut GraceTally,
) {
    tally.join.build_rows += build.len() as u64;
    let build_keyed: Vec<Option<Vec<Value>>> = build
        .iter()
        .map(|row| composite_key(row, build_keys))
        .collect();
    for (row, &i) in probe.iter().zip(idx) {
        tally.join.probe_rows += 1;
        let Some(key) = composite_key(row, probe_keys) else {
            continue;
        };
        let mut rows = Vec::new();
        for (b_row, b_key) in build.iter().zip(&build_keyed) {
            if b_key.as_deref() == Some(key.as_slice()) {
                rows.push(row.concat(b_row));
            }
        }
        if !rows.is_empty() {
            tally.join.output_rows += rows.len() as u64;
            emitted.push((i, rows));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_storage::SpillConfig;

    fn manager() -> Arc<SpillManager> {
        SpillManager::create(SpillConfig::default().with_page_size(512)).unwrap()
    }

    fn rows(n: i64, keys: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i % keys),
                    Value::Utf8(format!("row-{i}")),
                ])
            })
            .collect()
    }

    /// The kernel's contract: identical rows and join tally to the in-memory
    /// kernel for a sweep of budgets, fanouts and depths — including budgets
    /// so small that every level recurses into the nested-loop fallback.
    #[test]
    fn matches_in_memory_kernel_for_all_budgets() {
        let probe = rows(200, 37);
        let build = rows(60, 37);
        let (expected, expected_tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        for budget in [1u64, 64, 512, 4096, u64::MAX] {
            for fanout in [2, 8] {
                for max_depth in [0, 1, 3] {
                    let ctx = GraceContext::new(manager(), budget)
                        .with_fanout(fanout)
                        .with_max_depth(max_depth);
                    let (out, tally) =
                        grace_join_partition(&probe, &build, &[0], &[0], &ctx).unwrap();
                    assert_eq!(
                        out, expected,
                        "budget={budget} fanout={fanout} depth={max_depth}"
                    );
                    assert_eq!(tally.join, expected_tally);
                }
            }
        }
    }

    #[test]
    fn over_budget_build_side_goes_out_of_core() {
        let probe = rows(500, 101);
        let build = rows(300, 101);
        let ctx = GraceContext::new(manager(), 256);
        let (_, tally) = grace_join_partition(&probe, &build, &[0], &[0], &ctx).unwrap();
        assert!(tally.partitions_spilled > 0, "{tally:?}");
        assert!(tally.pages_written > 0 && tally.bytes_written > 0);
        assert!(tally.pages_read > 0 && tally.bytes_read > 0);
        assert!(tally.recursions > 0);
    }

    #[test]
    fn under_budget_build_side_stays_in_memory() {
        let probe = rows(50, 7);
        let build = rows(10, 7);
        let ctx = GraceContext::new(manager(), u64::MAX);
        let (_, tally) = grace_join_partition(&probe, &build, &[0], &[0], &ctx).unwrap();
        assert_eq!(tally.pages_written, 0);
        assert_eq!(tally.partitions_spilled, 0);
        assert_eq!(tally.recursions, 0);
    }

    /// One key owning the whole build side can never be split by re-hashing;
    /// the recursion bound turns it into a nested-loop leaf instead of
    /// looping forever.
    #[test]
    fn single_hot_key_falls_back_to_nested_loop() {
        let probe: Vec<Tuple> = (0..40)
            .map(|i| Tuple::new(vec![Value::Int64(7), Value::Int64(i)]))
            .collect();
        let build: Vec<Tuple> = (0..30)
            .map(|i| Tuple::new(vec![Value::Int64(7), Value::Int64(100 + i)]))
            .collect();
        let (expected, _) = hash_join_partition(&probe, &build, &[0], &[0]);
        let ctx = GraceContext::new(manager(), 8).with_max_depth(2);
        let (out, tally) = grace_join_partition(&probe, &build, &[0], &[0], &ctx).unwrap();
        assert_eq!(out, expected, "40 × 30 cross product on the hot key");
        assert!(tally.fallbacks > 0, "{tally:?}");
        assert_eq!(tally.join.output_rows, 40 * 30);
    }

    #[test]
    fn null_keys_never_match_but_are_counted() {
        let mut probe = rows(100, 11);
        probe.push(Tuple::new(vec![Value::Null, Value::Int64(0)]));
        let mut build = rows(80, 11);
        build.push(Tuple::new(vec![Value::Null, Value::Int64(0)]));
        let (expected, expected_tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        let ctx = GraceContext::new(manager(), 1);
        let (out, tally) = grace_join_partition(&probe, &build, &[0], &[0], &ctx).unwrap();
        assert_eq!(out, expected);
        assert_eq!(tally.join, expected_tally);
        assert_eq!(tally.join.build_rows, 81);
        assert_eq!(tally.join.probe_rows, 101);
    }

    #[test]
    fn empty_probe_skips_partitioning_but_counts_build_rows() {
        let build = rows(200, 13);
        let ctx = GraceContext::new(manager(), 1);
        let (out, tally) = grace_join_partition(&[], &build, &[0], &[0], &ctx).unwrap();
        assert!(out.is_empty());
        assert_eq!(tally.join.build_rows, 200);
        assert_eq!(tally.pages_written, 0, "nothing to join, nothing spilled");
    }

    #[test]
    fn spill_files_are_gone_after_the_join() {
        let mgr = manager();
        let probe = rows(400, 53);
        let build = rows(400, 53);
        let ctx = GraceContext::new(Arc::clone(&mgr), 128);
        let (_, tally) = grace_join_partition(&probe, &build, &[0], &[0], &ctx).unwrap();
        assert!(tally.bytes_written > 0);
        assert_eq!(
            std::fs::read_dir(mgr.dir()).unwrap().count(),
            0,
            "grace stores delete their files on drop"
        );
    }

    #[test]
    fn tallies_fold_associatively_and_record_into_metrics() {
        let a = GraceTally {
            join: JoinTally {
                build_rows: 1,
                probe_rows: 2,
                output_rows: 3,
            },
            partitions_spilled: 4,
            pages_written: 5,
            bytes_written: 6,
            pages_read: 7,
            bytes_read: 8,
            logical_bytes_written: 11,
            logical_bytes_read: 12,
            recursions: 9,
            fallbacks: 10,
            peak_transient_bytes: 40,
        };
        let b = GraceTally {
            join: JoinTally {
                build_rows: 10,
                probe_rows: 20,
                output_rows: 30,
            },
            peak_transient_bytes: 25,
            ..a
        };
        let mut left = a;
        left.add(&b);
        let mut right = b;
        right.add(&a);
        assert_eq!(left, right);

        let mut metrics = ExecutionMetrics::new();
        left.record(&mut metrics);
        assert_eq!(metrics.build_rows, 11);
        assert_eq!(metrics.probe_rows, 22);
        assert_eq!(metrics.output_rows, 33);
        assert_eq!(metrics.grace_partitions_spilled, 8);
        assert_eq!(metrics.grace_pages_written, 10);
        assert_eq!(metrics.grace_bytes_written, 12);
        assert_eq!(metrics.grace_pages_read, 14);
        assert_eq!(metrics.grace_bytes_read, 16);
        assert_eq!(metrics.grace_logical_bytes_written, 22);
        assert_eq!(metrics.grace_logical_bytes_read, 24);
        assert_eq!(metrics.grace_recursions, 18);
        assert_eq!(metrics.grace_fallbacks, 20);
        assert_eq!(
            metrics.grace_peak_transient_bytes, 40,
            "peaks max-merge: the larger partial wins"
        );
    }

    /// The adaptive fanout picks the smallest tier that can still split the
    /// build side down to the budget within the remaining depth.
    #[test]
    fn adaptive_fanout_scales_with_the_build_estimate() {
        // One level remaining: the ratio alone decides the tier.
        assert_eq!(adaptive_fanout(100, 100, 1), 4, "at budget: smallest tier");
        assert_eq!(adaptive_fanout(400, 100, 1), 4, "4× fits 4-way");
        assert_eq!(adaptive_fanout(401, 100, 1), 8);
        assert_eq!(adaptive_fanout(800, 100, 1), 8);
        assert_eq!(adaptive_fanout(1_600, 100, 1), 16);
        assert_eq!(adaptive_fanout(1_000_000, 100, 1), 16, "capped at 16");
        // More remaining levels tolerate bigger ratios at small fanouts:
        // 4^3 = 64 covers a 64× build side.
        assert_eq!(adaptive_fanout(6_400, 100, 3), 4);
        assert_eq!(adaptive_fanout(6_500, 100, 3), 8);
        // Degenerate budgets don't panic.
        assert_eq!(adaptive_fanout(u64::MAX, 0, 3), 16);
        assert_eq!(adaptive_fanout(0, 0, 0), 4);
    }

    /// The streaming partitioner's transient footprint stays O(fanout × page)
    /// even when the spilled build side is orders of magnitude larger, and
    /// the kernel still matches the in-memory join bit for bit.
    #[test]
    fn streaming_partitioner_bounds_transient_footprint() {
        let probe = rows(4_000, 997);
        let build = rows(4_000, 997);
        let (expected, expected_tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        let ctx = GraceContext::new(manager(), 2_048); // 512-byte pages
        let (out, tally) = grace_join_partition(&probe, &build, &[0], &[0], &ctx).unwrap();
        assert_eq!(out, expected);
        assert_eq!(tally.join, expected_tally);
        assert!(tally.peak_transient_bytes > 0);
        // Largest tier × (page + one row of overshoot) bounds the buffers;
        // the spilled volume is far larger than what was ever buffered.
        let bound = 16 * (512 + 64);
        assert!(
            tally.peak_transient_bytes <= bound,
            "peak {} exceeds fanout × page bound {bound}",
            tally.peak_transient_bytes
        );
        assert!(
            tally.logical_bytes_written > 4 * tally.peak_transient_bytes,
            "spilled volume dwarfs the transient footprint: {tally:?}"
        );
        assert!(
            tally.bytes_written < tally.logical_bytes_written,
            "grace pages compress: {tally:?}"
        );
    }

    #[test]
    fn dispatch_without_context_is_the_plain_kernel() {
        let probe = rows(30, 5);
        let build = rows(10, 5);
        let (expected, expected_tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        let (out, tally) = joined_partition(
            &chunk_rows(&probe, 7),
            &chunk_rows(&build, 4),
            &[0],
            &[0],
            None,
        )
        .unwrap();
        assert_eq!(rows_of(&out), expected);
        assert_eq!(tally.join, expected_tally);
        assert_eq!(
            tally,
            GraceTally {
                join: expected_tally,
                ..GraceTally::default()
            }
        );
    }

    /// A prepared build side — in memory or over budget — gives every probe
    /// partition the rows and the tally a private build would, and only the
    /// over-budget one spills.
    #[test]
    fn prepared_build_is_shared_across_probe_partitions() {
        let build = rows(60, 13);
        let probes = [rows(90, 13), rows(7, 13), Vec::new()];
        for budget in [1u64, u64::MAX] {
            let ctx = GraceContext::new(manager(), budget);
            let prepared = PreparedBuild::prepare(&chunk_rows(&build, 16), &[0], Some(&ctx));
            assert_eq!(
                matches!(prepared, PreparedBuild::OverBudget { .. }),
                budget == 1
            );
            for probe in &probes {
                let (expected, expected_tally) = hash_join_partition(probe, &build, &[0], &[0]);
                let (out, tally) = prepared
                    .join_partition(&chunk_rows(probe, 16), &[0], &[0])
                    .unwrap();
                assert_eq!(rows_of(&out), expected, "budget={budget}");
                assert_eq!(tally.join, expected_tally);
                assert_eq!(tally.pages_written > 0, budget == 1 && !probe.is_empty());
            }
        }
    }
}
