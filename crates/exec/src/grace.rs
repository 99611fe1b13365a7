//! The memory-budgeted grace/hybrid hash join kernel.
//!
//! The in-memory join ([`crate::partition::JoinBuildTable`]) indexes the whole
//! build side of one partition; with a join budget configured
//! (`RDO_JOIN_BUDGET` / [`rdo_storage::SpillConfig::join_budget_bytes`]) this
//! module takes over whenever that build side would exceed the budget
//! ([`PreparedBuild::prepare`] decides on the batches). The out-of-core path
//! works on the same [`Batch`] runs as the in-memory one — bucket ids are
//! hashed off the key columns, spill pages are cut from column slices, spilled
//! buckets come back as decoded page batches, and every leaf probes a
//! [`JoinBuildTable`]; no row is materialized on the way:
//!
//! 1. Both sides of the partition are hashed into `fanout` grace buckets
//!    (a *different* hash than the partition-level exchange, so co-partitioned
//!    inputs still split). The fanout is adaptive by default — 4/8/16-way,
//!    the smallest that covers the build-side byte estimate within the
//!    remaining recursion depth.
//! 2. As many build buckets as fit in the budget stay resident (the *hybrid*
//!    part), gathered into one batch under one build table; their probe rows
//!    join immediately.
//! 3. The remaining buckets **stream** to spill files page by page: a first
//!    pass sizes the buckets, a second routes each row either into the
//!    resident batch or to the pending page of its spilled bucket
//!    ([`rdo_storage::SpillPartitionWriter`]), so the partitioner's transient
//!    footprint is O(fanout × page size) — it never materializes full
//!    buckets. Spilled pairs are read back and joined one at a time —
//!    recursively re-bucketed with a depth-salted hash when a bucket still
//!    exceeds the budget, up to a bounded recursion depth.
//! 4. Past the depth bound (pathological skew: one key carrying more rows than
//!    the budget can hold) the bucket falls back to a block nested-loop join,
//!    which needs no hash table.
//!
//! The kernel is an *optimization, never a semantic change*: every output row
//! carries the original position of its probe row and the pieces the leaves
//! emit are merged back in probe order, so results, join tallies and
//! plan-visible metrics are bit-identical to the in-memory join at every
//! worker count and budget. Only the dedicated grace counters (pages/bytes
//! written and read, partitions spilled, recursions, fallbacks) reveal that
//! the join went out-of-core; they are logical tallies — pure functions of
//! the joined rows — and therefore deterministic too.

use crate::cost::ExecutionMetrics;
use crate::partition::{column_partition_hashes, key_slots, JoinBuildTable, JoinTally};
use rdo_common::{batch_size, Batch, Result};
use rdo_storage::{Catalog, SpillManager, SpillPartitionWriter, SpilledPartitions};
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
    /// Stored bytes written to grace spill files.
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
    /// The build side exceeds the budget: its chunks, for the grace path.
    OverBudget {
        /// The build chunks (column payloads shared with the caller's).
        chunks: Vec<Batch>,
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
            Some(ctx) if approx_bytes(build) > ctx.budget_bytes => PreparedBuild::OverBudget {
                chunks: build.to_vec(),
                ctx: ctx.clone(),
            },
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
            PreparedBuild::OverBudget { chunks, ctx } => {
                grace_join_partition(probe, chunks, probe_key_indexes, build_key_indexes, ctx)
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

fn approx_bytes(chunks: &[Batch]) -> u64 {
    chunks.iter().map(|b| b.approx_bytes() as u64).sum()
}

fn num_rows(chunks: &[Batch]) -> u64 {
    chunks.iter().map(|b| b.num_rows() as u64).sum()
}

/// Join output of one leaf for one probe chunk: `probe ++ build` rows, each
/// with the original position of its probe row.
struct Piece {
    rows: Batch,
    positions: Vec<u64>,
}

/// The memory-budgeted join of one partition's chunks. Below the budget this
/// *is* the in-memory join; above it, both sides go through grace
/// partitioning.
pub fn grace_join_partition(
    probe: &[Batch],
    build: &[Batch],
    probe_key_indexes: &[usize],
    build_key_indexes: &[usize],
    ctx: &GraceContext,
) -> Result<(Vec<Batch>, GraceTally)> {
    let mut tally = GraceTally::default();
    if approx_bytes(build) <= ctx.budget_bytes {
        let (out, join) = JoinBuildTable::build(build, build_key_indexes)
            .probe_partition(probe, probe_key_indexes);
        tally.join = join;
        return Ok((out, tally));
    }
    // An empty probe side joins to nothing; charge the build rows the
    // in-memory kernel would have counted and skip the partitioning I/O.
    let probe_rows = num_rows(probe);
    if probe_rows == 0 {
        tally.join.build_rows = num_rows(build);
        return Ok((Vec::new(), tally));
    }

    let positions: Vec<u64> = (0..probe_rows).collect();
    let mut pieces: Vec<Piece> = Vec::new();
    recurse(
        probe,
        &positions,
        build,
        0,
        probe_key_indexes,
        build_key_indexes,
        ctx,
        &mut pieces,
        &mut tally,
    )?;
    Ok((merge_by_position(pieces), tally))
}

/// Each probe row lives in exactly one bucket chain, and a leaf emits a probe
/// row's matches in build order within one piece: sorting the output rows by
/// (original position, piece, row) reproduces the in-memory order.
fn merge_by_position(pieces: Vec<Piece>) -> Vec<Batch> {
    let mut picks: Vec<(u64, u32, u32)> = pieces
        .iter()
        .enumerate()
        .flat_map(|(p, piece)| {
            let rows = piece.positions.iter().enumerate();
            rows.map(move |(r, &position)| (position, p as u32, r as u32))
        })
        .collect();
    picks.sort_unstable();
    let pieces: Vec<Batch> = pieces.into_iter().map(|piece| piece.rows).collect();
    picks
        .chunks(batch_size())
        .map(|run| {
            // Gather from the pieces this run touches, not from all of them.
            let mut used: Vec<u32> = run.iter().map(|&(_, p, _)| p).collect();
            used.sort_unstable();
            used.dedup();
            let local: Vec<Batch> = used.iter().map(|&p| pieces[p as usize].clone()).collect();
            let picks: Vec<(u32, u32)> = run
                .iter()
                .map(|&(_, p, r)| (used.binary_search(&p).expect("listed above") as u32, r))
                .collect();
            Batch::gather(&local, &picks)
        })
        .collect()
}

/// Marks a row whose key holds a NULL: it can never match, so it is counted
/// and dropped instead of bucketed. Fanout is clamped to <= 1024.
const NULL_BUCKET: u16 = u16::MAX;

/// Grace bucket of every row of `chunk` at one recursion depth, hashed off the
/// key columns. Depth salts the hash so a bucket that fails to split at one
/// level splits at the next, and the mixing makes it independent of the
/// exchange-level `partition_for` (co-partitioned inputs, whose first key is
/// constant modulo the partition count, still spread over all buckets). The
/// per-column digests are the ones `hash_value` gives the materialized keys,
/// so placement does not depend on the column representation.
fn bucket_ids(chunk: &Batch, key_indexes: &[usize], depth: usize, fanout: usize) -> Vec<u16> {
    let seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(depth as u64 + 1);
    let mut hashes = vec![seed; chunk.num_rows()];
    for &k in key_indexes {
        for (h, digest) in hashes
            .iter_mut()
            .zip(column_partition_hashes(chunk.column(k)))
        {
            *h ^= digest;
            *h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            *h ^= *h >> 33;
        }
    }
    let fanout = fanout.max(1) as u64;
    let mut ids: Vec<u16> = hashes.into_iter().map(|h| (h % fanout) as u16).collect();
    for key in key_slots(chunk, key_indexes) {
        if !key.no_nulls() {
            for (i, id) in ids.iter_mut().enumerate() {
                if key.get(i).is_none() {
                    *id = NULL_BUCKET;
                }
            }
        }
    }
    ids
}

#[allow(clippy::too_many_arguments)]
fn recurse(
    probe: &[Batch],
    positions: &[u64],
    build: &[Batch],
    depth: usize,
    probe_keys: &[usize],
    build_keys: &[usize],
    ctx: &GraceContext,
    pieces: &mut Vec<Piece>,
    tally: &mut GraceTally,
) -> Result<()> {
    let build_bytes = approx_bytes(build);
    if build_bytes <= ctx.budget_bytes {
        let table = JoinBuildTable::build(build, build_keys);
        tally.join.build_rows += table.build_rows();
        tally.join.probe_rows += positions.len() as u64;
        probe_table(&table, probe, positions, probe_keys, pieces, tally);
        return Ok(());
    }
    if depth >= ctx.max_depth {
        // Pathological skew: the bucket no longer splits (or we stopped
        // trying). A block nested-loop join needs no build hash table.
        tally.fallbacks += 1;
        leaf_nested_loop(
            probe, positions, build, probe_keys, build_keys, pieces, tally,
        );
        return Ok(());
    }
    tally.recursions += 1;
    let fanout = ctx.level_fanout(build_bytes, depth);
    let mut span = rdo_trace::span("exec.grace");
    span.attr_u64("level", depth as u64);
    span.attr_u64("fanout", fanout as u64);
    span.attr_u64("bucket_bytes", build_bytes);

    // ---- Pass 1: size the buckets without materializing them — O(fanout)
    // state plus one cached bucket id per row, so pass 2 never re-hashes. ----
    let mut bucket_bytes = vec![0u64; fanout];
    let mut bucket_rows = vec![0u64; fanout];
    let build_ids: Vec<Vec<u16>> = build
        .iter()
        .map(|chunk| {
            let ids = bucket_ids(chunk, build_keys, depth, fanout);
            let mut slots: Vec<Vec<u32>> = vec![Vec::new(); fanout];
            for (slot, &id) in ids.iter().enumerate() {
                if id != NULL_BUCKET {
                    slots[id as usize].push(slot as u32);
                }
            }
            for (b, slots) in slots.iter().enumerate() {
                bucket_bytes[b] += chunk.approx_bytes_at(slots) as u64;
                bucket_rows[b] += slots.len() as u64;
            }
            ids
        })
        .collect();

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

    // ---- Pass 2: route the build side. Resident rows are picked in build
    // order (they fit the budget by construction); spilled buckets stream
    // page by page through the writer, so the transient footprint of the
    // overflow is fanout × page size — not the overflow's own size. NULL-
    // keyed rows are counted the way the in-memory kernel counts its insert
    // attempts and dropped. ----
    let mut resident_picks: Vec<(u32, u32)> = Vec::new();
    let mut build_writer = SpillPartitionWriter::new(Arc::clone(&ctx.manager), fanout)?;
    for (c, (chunk, ids)) in build.iter().zip(&build_ids).enumerate() {
        let mut spilled: Vec<(usize, u32)> = Vec::new();
        for (slot, &id) in ids.iter().enumerate() {
            if id == NULL_BUCKET {
                tally.join.build_rows += 1;
            } else if resident[id as usize] {
                resident_picks.push((c as u32, slot as u32));
            } else {
                spilled.push((id as usize, slot as u32));
            }
        }
        build_writer.append_rows(chunk, spilled)?;
    }
    drop(build_ids);
    let (build_store, build_peak) = finish_writer(build_writer, tally)?;

    // ---- One table over all resident rows, in build order: a key's matches
    // live in a single bucket and keep their build-order positions, so
    // indexing the resident buckets together changes nothing about match
    // order. ----
    tally.join.build_rows += resident_picks.len() as u64;
    let table = JoinBuildTable::build(&[Batch::gather(build, &resident_picks)], build_keys);
    drop(resident_picks);

    // ---- Stream the probe side: resident buckets join now, buckets with a
    // spilled build partner stream to disk through the writer (original
    // positions stay in memory), and buckets whose build side is empty can't
    // match anything. Equal keys share a bucket, so probing a whole chunk
    // against the resident table finds matches for resident-bucket rows
    // only. ----
    let mut spilled_positions: Vec<Vec<u64>> = vec![Vec::new(); fanout];
    let mut probe_writer = SpillPartitionWriter::new(Arc::clone(&ctx.manager), fanout)?;
    let mut base = 0usize;
    for chunk in probe {
        let ids = bucket_ids(chunk, probe_keys, depth, fanout);
        let spilled: Vec<(usize, u32)> = ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| id != NULL_BUCKET && spilled_nonempty[id as usize])
            .map(|(slot, &id)| (id as usize, slot as u32))
            .collect();
        for &(b, slot) in &spilled {
            spilled_positions[b].push(positions[base + slot as usize]);
        }
        tally.join.probe_rows += (chunk.num_rows() - spilled.len()) as u64;
        probe_writer.append_rows(chunk, spilled)?;
        base += chunk.num_rows();
    }
    probe_table(&table, probe, positions, probe_keys, pieces, tally);
    drop(table);
    let (probe_store, probe_peak) = finish_writer(probe_writer, tally)?;
    tally.peak_transient_bytes = tally.peak_transient_bytes.max(build_peak).max(probe_peak);

    // ---- Read back and join each spilled pair, one at a time. ----
    for b in 0..fanout {
        if !spilled_nonempty[b] {
            continue;
        }
        let bucket_build = read_bucket(&build_store, b, tally)?;
        let bucket_probe = read_bucket(&probe_store, b, tally)?;
        recurse(
            &bucket_probe,
            &spilled_positions[b],
            &bucket_build,
            depth + 1,
            probe_keys,
            build_keys,
            ctx,
            pieces,
            tally,
        )?;
    }
    // The stores drop here, deleting their spill files.
    Ok(())
}

/// Seals a bucket writer, charging the pages it wrote; returns the store and
/// the writer's buffered-bytes high-water mark.
fn finish_writer(
    writer: SpillPartitionWriter,
    tally: &mut GraceTally,
) -> Result<(SpilledPartitions, u64)> {
    let peak = writer.peak_buffered_bytes();
    let (store, written) = writer.finish()?;
    tally.pages_written += written.pages;
    tally.bytes_written += written.bytes;
    tally.logical_bytes_written += written.logical_bytes;
    Ok((store, peak))
}

/// Reads one spilled bucket back as its page batches, charging the pages
/// actually read.
fn read_bucket(
    store: &SpilledPartitions,
    bucket: usize,
    tally: &mut GraceTally,
) -> Result<Vec<Batch>> {
    let mut chunks = Vec::new();
    let read = store.scan_batches(bucket, |page| {
        chunks.push(page.clone());
        Ok(true)
    })?;
    tally.pages_read += read.pages;
    tally.bytes_read += read.bytes;
    tally.logical_bytes_read += read.logical_bytes;
    Ok(chunks)
}

/// Probes `table` with every chunk of `probe`, emitting one piece per chunk
/// that matched; `positions` holds the original position of every probe row,
/// chunk after chunk.
fn probe_table(
    table: &JoinBuildTable,
    probe: &[Batch],
    positions: &[u64],
    probe_keys: &[usize],
    pieces: &mut Vec<Piece>,
    tally: &mut GraceTally,
) {
    let mut base = 0usize;
    for chunk in probe {
        let (probe_idx, build_idx) = table.matches(chunk, probe_keys);
        if !probe_idx.is_empty() {
            let rows = table.joined(chunk, &probe_idx, &build_idx);
            emit(pieces, tally, rows, &probe_idx, &positions[base..]);
        }
        base += chunk.num_rows();
    }
}

/// Records the join output of one probe chunk: `probe_idx[r]` is the chunk
/// slot behind output row `r`, `positions` the chunk's original positions.
fn emit(
    pieces: &mut Vec<Piece>,
    tally: &mut GraceTally,
    rows: Batch,
    probe_idx: &[u32],
    positions: &[u64],
) {
    tally.join.output_rows += probe_idx.len() as u64;
    pieces.push(Piece {
        rows,
        positions: probe_idx.iter().map(|&i| positions[i as usize]).collect(),
    });
}

/// Fallback leaf for skewed buckets: block nested loop, no hash table. Scans
/// the build side per probe row in build order, which is exactly the match
/// order the build table's ascending chains would produce, and compares key
/// slots the way the table does.
fn leaf_nested_loop(
    probe: &[Batch],
    positions: &[u64],
    build: &[Batch],
    probe_keys: &[usize],
    build_keys: &[usize],
    pieces: &mut Vec<Piece>,
    tally: &mut GraceTally,
) {
    tally.join.build_rows += num_rows(build);
    tally.join.probe_rows += positions.len() as u64;
    let build_sides: Vec<_> = build.iter().map(|b| key_slots(b, build_keys)).collect();
    let mut base = 0usize;
    for chunk in probe {
        let keys = key_slots(chunk, probe_keys);
        let mut probe_idx: Vec<u32> = Vec::new();
        let mut build_picks: Vec<(u32, u32)> = Vec::new();
        for i in 0..chunk.num_rows() {
            if keys.iter().any(|k| k.get(i).is_none()) {
                continue;
            }
            for (c, (b, b_keys)) in build.iter().zip(&build_sides).enumerate() {
                for r in 0..b.num_rows() {
                    if keys.iter().zip(b_keys).all(|(p, q)| p.get(i) == q.get(r)) {
                        probe_idx.push(i as u32);
                        build_picks.push((c as u32, r as u32));
                    }
                }
            }
        }
        if !probe_idx.is_empty() {
            let rows = chunk
                .take(&probe_idx)
                .hstack(&Batch::gather(build, &build_picks));
            emit(pieces, tally, rows, &probe_idx, &positions[base..]);
        }
        base += chunk.num_rows();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{batch_size, chunk_rows, hash_join_partition_chunked, rows_of};
    use rdo_common::{Tuple, Value};
    use rdo_storage::SpillConfig;

    fn manager() -> Arc<SpillManager> {
        SpillManager::create(SpillConfig::default().with_page_size(512)).unwrap()
    }

    /// The kernel over rows: both sides cut into 16-row chunks on the way
    /// in, the output materialized on the way out.
    fn grace_rows(
        probe: &[Tuple],
        build: &[Tuple],
        ctx: &GraceContext,
    ) -> (Vec<Tuple>, GraceTally) {
        let (out, tally) = grace_join_partition(
            &chunk_rows(probe, 16),
            &chunk_rows(build, 16),
            &[0],
            &[0],
            ctx,
        )
        .unwrap();
        (rows_of(&out), tally)
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
        let (expected, expected_tally) =
            hash_join_partition_chunked(&probe, &build, &[0], &[0], batch_size());
        for budget in [1u64, 64, 512, 4096, u64::MAX] {
            for fanout in [2, 8] {
                for max_depth in [0, 1, 3] {
                    let ctx = GraceContext::new(manager(), budget)
                        .with_fanout(fanout)
                        .with_max_depth(max_depth);
                    let (out, tally) = grace_rows(&probe, &build, &ctx);
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
        let (_, tally) = grace_rows(&probe, &build, &ctx);
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
        let (_, tally) = grace_rows(&probe, &build, &ctx);
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
        let (expected, _) = hash_join_partition_chunked(&probe, &build, &[0], &[0], batch_size());
        let ctx = GraceContext::new(manager(), 8).with_max_depth(2);
        let (out, tally) = grace_rows(&probe, &build, &ctx);
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
        let (expected, expected_tally) =
            hash_join_partition_chunked(&probe, &build, &[0], &[0], batch_size());
        let ctx = GraceContext::new(manager(), 1);
        let (out, tally) = grace_rows(&probe, &build, &ctx);
        assert_eq!(out, expected);
        assert_eq!(tally.join, expected_tally);
        assert_eq!(tally.join.build_rows, 81);
        assert_eq!(tally.join.probe_rows, 101);
    }

    #[test]
    fn empty_probe_skips_partitioning_but_counts_build_rows() {
        let build = rows(200, 13);
        let ctx = GraceContext::new(manager(), 1);
        let (out, tally) = grace_rows(&[], &build, &ctx);
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
        let (_, tally) = grace_rows(&probe, &build, &ctx);
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
        let (expected, expected_tally) =
            hash_join_partition_chunked(&probe, &build, &[0], &[0], batch_size());
        let ctx = GraceContext::new(manager(), 2_048); // 512-byte pages
        let (out, tally) = grace_rows(&probe, &build, &ctx);
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
        let (expected, expected_tally) =
            hash_join_partition_chunked(&probe, &build, &[0], &[0], batch_size());
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
                let (expected, expected_tally) =
                    hash_join_partition_chunked(probe, &build, &[0], &[0], batch_size());
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
