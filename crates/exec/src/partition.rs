//! Per-partition operators — written once, over batches.
//!
//! Every physical operator of the engine decomposes into work that runs
//! independently on one partition: filter/project a partition's chunks,
//! bucket them for a re-partition exchange, build and probe one partition's
//! join index, probe one partition of a secondary index. Each of those is one
//! function here taking and returning [`Batch`] runs; the plan executor
//! ([`crate::ParallelExecutor`]) maps them across a worker pool — or,
//! at one worker, loops them on the calling thread. Parallelism only changes
//! *who* runs a partition, never what the partition computes.
//!
//! * **Scan** ([`scan_table_partition`]) — predicates
//!   evaluate column-wise ([`crate::expr::evaluate_all_batch`]); a chunk that
//!   survives whole is passed on *shared* (projection included), otherwise
//!   only the projected columns of the survivors are copied, packed into
//!   full batches by a [`BatchAssembler`].
//! * **Re-partition** ([`repartition_batches`]) — the key column is hashed
//!   off its typed payload ([`column_partition_hashes`], the digest
//!   [`crate::data::partition_for`] gives the materialized value), and each
//!   destination assembles its rows into full batches.
//! * **Hash / broadcast join** ([`JoinBuildTable`]) — a flat chained `u32`
//!   index over the concatenated build side, hashed (with a join-local hash,
//!   not the placement digest) and compared straight off column slots;
//!   matches come out probe-major in build-insertion order, which is the
//!   order the row-at-a-time join produces.
//! * **Indexed nested-loop join** ([`indexed_join_partition`]) — index
//!   probes address base rows as `(chunk, slot)` and the output is gathered
//!   from the stored chunks.
//!
//! Output order is an order-preserving concatenation across chunks, so
//! results and every tally counter are invariant to where chunk boundaries
//! fall (`RDO_BATCH_SIZE`). Rows exist in this module only in the *row
//! adapters* (`*_chunked`, thin wrappers that convert at both ends for
//! callers holding tuples). The original row-at-a-time implementations are
//! kept apart in [`crate::reference`] as the oracle these operators are
//! tested against, and re-exported here as `*_rows`.
//!
//! Each operator returns its output plus a tally of the counters it would
//! contribute to [`crate::ExecutionMetrics`]; tallies are summed in partition
//! order, which makes the merged metrics independent of worker interleaving.

use crate::data::partition_for_hash;
use crate::expr::{evaluate_all, evaluate_all_batch, Predicate};
use rdo_common::batch::{mask_indices, utf8_slot};
use rdo_common::{Batch, BatchAssembler, Column, NullBitmap, Result, Schema, Tuple, Value};
use rdo_sketch::hll::{hash_bool, hash_float64, hash_int64, hash_null, hash_utf8, hash_value};
use rdo_storage::{RowAddr, SecondaryIndex, SpillReadTally, Table};

// The row-at-a-time reference kernels live in [`crate::reference`]; their
// historical paths stay valid.
pub use crate::reference::{
    composite_key, hash_join_partition_rows, repartition_partition_rows, scan_partition_rows,
};

// The batch-size knob lives in `rdo_common` (the storage layer chunks
// resident partitions at the same size); re-exported here so kernel call
// sites keep their import paths.
pub use rdo_common::{batch_size, BATCH_SIZE_ENV, DEFAULT_BATCH_SIZE};

/// Counters produced by scanning one partition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanTally {
    /// Rows read from the partition.
    pub scanned_rows: u64,
    /// Bytes read from the partition.
    pub scanned_bytes: u64,
    /// Rows surviving the predicates.
    pub kept: u64,
}

impl ScanTally {
    /// Adds another tally into this one (partition-order fold).
    pub fn add(&mut self, other: &ScanTally) {
        self.scanned_rows += other.scanned_rows;
        self.scanned_bytes += other.scanned_bytes;
        self.kept += other.kept;
    }
}

/// Filters and projects one chunk into `out`: counts every input row/byte,
/// applies the conjunction column-wise, and hands the survivors — only their
/// projected columns — to the assembler. A chunk that survives whole is
/// shared, not copied.
fn scan_into(
    schema: &Schema,
    predicates: &[Predicate],
    projection: Option<&[usize]>,
    batch: &Batch,
    out: &mut BatchAssembler,
) -> Result<ScanTally> {
    let mask = evaluate_all_batch(predicates, schema, batch)?;
    let kept = mask_indices(&mask);
    let projected;
    let view = match projection {
        Some(indexes) => {
            projected = batch.project(indexes);
            &projected
        }
        None => batch,
    };
    if kept.len() == batch.num_rows() {
        out.push_all(view);
    } else {
        out.push(view, &kept);
    }
    Ok(ScanTally {
        scanned_rows: batch.num_rows() as u64,
        scanned_bytes: batch.approx_bytes() as u64,
        kept: kept.len() as u64,
    })
}

/// Scans partition `partition` of `table` — the per-partition scan
/// operator. Resident tables lend their stored chunks (an unfiltered scan
/// returns them shared); spilled ones decode page by page and report the
/// pages fetched.
pub fn scan_table_partition(
    table: &Table,
    partition: usize,
    schema: &Schema,
    predicates: &[Predicate],
    projection: Option<&[usize]>,
) -> Result<(Vec<Batch>, ScanTally, SpillReadTally)> {
    let mut out = BatchAssembler::new(batch_size());
    let mut tally = ScanTally::default();
    let pages = table.scan_batches(partition, |batch| {
        tally.add(&scan_into(schema, predicates, projection, batch, &mut out)?);
        Ok(true)
    })?;
    Ok((out.finish(), tally, pages))
}

/// Chunks rows into batches of `chunk_size` rows — the entry edge of the row
/// adapters.
pub(crate) fn chunk_rows(rows: &[Tuple], chunk_size: usize) -> Vec<Batch> {
    rows.chunks(chunk_size.max(1))
        .map(|chunk| Batch::from_rows(chunk[0].len(), chunk))
        .collect()
}

/// Materializes a batch run as rows — the exit edge of the row adapters.
pub(crate) fn rows_of(batches: &[Batch]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(batches.iter().map(Batch::num_rows).sum());
    for batch in batches {
        batch.extend_rows_into(&mut out);
    }
    out
}

/// Filters and projects the rows of one partition. Row adapter over the
/// scan operator at the process-wide [`batch_size`].
pub fn scan_partition(
    schema: &Schema,
    predicates: &[Predicate],
    projection: Option<&[usize]>,
    rows: &[Tuple],
) -> Result<(Vec<Tuple>, ScanTally)> {
    scan_partition_chunked(schema, predicates, projection, rows, batch_size())
}

/// [`scan_partition`] with an explicit chunk size (tests sweep sizes without
/// touching the environment). Output and tally are chunk-size invariant.
pub fn scan_partition_chunked(
    schema: &Schema,
    predicates: &[Predicate],
    projection: Option<&[usize]>,
    rows: &[Tuple],
    chunk_size: usize,
) -> Result<(Vec<Tuple>, ScanTally)> {
    let mut out = BatchAssembler::new(chunk_size);
    let mut tally = ScanTally::default();
    for batch in chunk_rows(rows, chunk_size) {
        tally.add(&scan_into(
            schema, predicates, projection, &batch, &mut out,
        )?);
    }
    Ok((rows_of(&out.finish()), tally))
}

/// Counters produced by one partition of a hash/broadcast join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinTally {
    /// Rows inserted into the build table.
    pub build_rows: u64,
    /// Rows probed against the build table.
    pub probe_rows: u64,
    /// Join output rows.
    pub output_rows: u64,
}

impl JoinTally {
    /// Adds another tally into this one (partition-order fold).
    pub fn add(&mut self, other: &JoinTally) {
        self.build_rows += other.build_rows;
        self.probe_rows += other.probe_rows;
        self.output_rows += other.output_rows;
    }
}

/// One key column of a join side, borrowed as its typed payload. `Int64` and
/// `Date` share a class (they hash and compare alike, as [`Value`]s do);
/// `validity` is `None` when the column has no NULLs, so the loops skip the
/// per-slot test.
pub(crate) enum KeySlots<'a> {
    Int {
        values: &'a [i64],
        validity: Option<&'a NullBitmap>,
    },
    Float {
        values: &'a [f64],
        validity: Option<&'a NullBitmap>,
    },
    Bool {
        values: &'a [bool],
        validity: Option<&'a NullBitmap>,
    },
    Utf8 {
        offsets: &'a [usize],
        bytes: &'a [u8],
        validity: Option<&'a NullBitmap>,
    },
    Mixed(&'a [Value]),
}

/// A non-null key slot, by equality class.
#[derive(PartialEq)]
pub(crate) enum KeyRef<'a> {
    Int(i64),
    /// IEEE-754 bits: `NaN` equals the same `NaN`, `-0.0` differs from `0.0`.
    Float(u64),
    Bool(bool),
    Utf8(&'a [u8]),
}

impl<'a> KeySlots<'a> {
    fn of(column: &'a Column) -> Self {
        let nullable = |validity: &'a NullBitmap| (!validity.all_valid()).then_some(validity);
        match column {
            Column::Int64 { values, validity } | Column::Date { values, validity } => {
                KeySlots::Int {
                    values,
                    validity: nullable(validity),
                }
            }
            Column::Float64 { values, validity } => KeySlots::Float {
                values,
                validity: nullable(validity),
            },
            Column::Bool { values, validity } => KeySlots::Bool {
                values,
                validity: nullable(validity),
            },
            Column::Utf8 {
                offsets,
                bytes,
                validity,
            } => KeySlots::Utf8 {
                offsets,
                bytes,
                validity: nullable(validity),
            },
            Column::Mixed { values } => KeySlots::Mixed(values),
        }
    }

    /// The key at slot `i`, `None` for NULL.
    pub(crate) fn get(&self, i: usize) -> Option<KeyRef<'a>> {
        let valid = |validity: &Option<&NullBitmap>| validity.is_none_or(|v| v.is_valid(i));
        match self {
            KeySlots::Int { values, validity } => valid(validity).then(|| KeyRef::Int(values[i])),
            KeySlots::Float { values, validity } => {
                valid(validity).then(|| KeyRef::Float(values[i].to_bits()))
            }
            KeySlots::Bool { values, validity } => valid(validity).then(|| KeyRef::Bool(values[i])),
            KeySlots::Utf8 {
                offsets,
                bytes,
                validity,
            } => valid(validity).then(|| KeyRef::Utf8(&bytes[offsets[i]..offsets[i + 1]])),
            KeySlots::Mixed(values) => match &values[i] {
                Value::Int64(v) | Value::Date(v) => Some(KeyRef::Int(*v)),
                Value::Float64(v) => Some(KeyRef::Float(v.to_bits())),
                Value::Bool(v) => Some(KeyRef::Bool(*v)),
                Value::Utf8(s) => Some(KeyRef::Utf8(s.as_bytes())),
                Value::Null => None,
            },
        }
    }

    /// True if no slot is NULL.
    pub(crate) fn no_nulls(&self) -> bool {
        match self {
            KeySlots::Int { validity, .. }
            | KeySlots::Float { validity, .. }
            | KeySlots::Bool { validity, .. }
            | KeySlots::Utf8 { validity, .. } => validity.is_none(),
            KeySlots::Mixed(values) => !values.iter().any(Value::is_null),
        }
    }
}

impl KeyRef<'_> {
    /// The word the join-local hash folds for this key: the integer, the
    /// float's bits, 0/1, or a byte hash — equal keys give equal words.
    fn payload(&self) -> u64 {
        match self {
            KeyRef::Int(v) => *v as u64,
            KeyRef::Float(bits) => *bits,
            KeyRef::Bool(v) => *v as u64,
            KeyRef::Utf8(bytes) => bytes_hash(bytes),
        }
    }
}

/// The golden-ratio multiplier of the join-local hash.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the join-local hash: one multiply per word.
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(32) ^ word).wrapping_mul(PHI)
}

/// A string key's word: its bytes folded eight at a time, length first.
fn bytes_hash(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

/// The join-local hash of every row: each key column's payload word folded
/// in with [`mix`], then one more [`mix`] so that the top bits — the bucket —
/// spread structured keys (strided or with constant components) too. Build
/// and probe only need to agree with each other, so this is not the
/// placement digest ([`column_partition_hashes`]). NULL slots hash to
/// anything — those rows never enter or probe the index.
fn join_hashes(keys: &[KeySlots<'_>], rows: usize) -> Vec<u64> {
    fn fold(hashes: &mut [u64], words: impl Iterator<Item = u64>) {
        for (h, word) in hashes.iter_mut().zip(words) {
            *h = mix(*h, word);
        }
    }
    let mut hashes = vec![0; rows];
    for key in keys {
        match key {
            KeySlots::Int { values, .. } => fold(&mut hashes, values.iter().map(|&v| v as u64)),
            KeySlots::Float { values, .. } => fold(&mut hashes, values.iter().map(|v| v.to_bits())),
            KeySlots::Bool { values, .. } => fold(&mut hashes, values.iter().map(|&v| v as u64)),
            KeySlots::Utf8 { offsets, bytes, .. } => fold(
                &mut hashes,
                offsets.windows(2).map(|w| bytes_hash(&bytes[w[0]..w[1]])),
            ),
            KeySlots::Mixed(_) => fold(
                &mut hashes,
                (0..rows).map(|i| key.get(i).map_or(0, |k| k.payload())),
            ),
        }
    }
    fold(&mut hashes, std::iter::repeat(0));
    hashes
}

/// The key columns of one join side plus one join-local hash per row.
struct KeyedSide<'a> {
    keys: Vec<KeySlots<'a>>,
    /// Per row: the join-local hash of the key.
    hashes: Vec<u64>,
    /// Per row: false when a key component is NULL (the row can never
    /// match). `None` when no key column holds a NULL.
    keyed: Option<Vec<bool>>,
}

/// The key columns of `batch`, borrowed.
pub(crate) fn key_slots<'a>(batch: &'a Batch, key_indexes: &[usize]) -> Vec<KeySlots<'a>> {
    key_indexes
        .iter()
        .map(|&c| KeySlots::of(batch.column(c)))
        .collect()
}

impl<'a> KeyedSide<'a> {
    fn new(batch: &'a Batch, key_indexes: &[usize]) -> Self {
        let keys = key_slots(batch, key_indexes);
        // A join on no columns is a cross product: one bucket for everyone.
        let hashes = join_hashes(&keys, batch.num_rows());
        let keyed = (!keys.iter().all(KeySlots::no_nulls)).then(|| {
            (0..batch.num_rows())
                .map(|i| keys.iter().all(|k| k.get(i).is_some()))
                .collect()
        });
        Self {
            keys,
            hashes,
            keyed,
        }
    }

    fn is_keyed(&self, i: usize) -> bool {
        self.keyed.as_ref().is_none_or(|k| k[i])
    }
}

/// The key columns as `i64` slices, when every one is a typed
/// `Int64`/`Date` column (NULL slots are the caller's to skip).
fn int_columns<'a>(keys: &[KeySlots<'a>]) -> Option<Vec<&'a [i64]>> {
    keys.iter()
        .map(|key| match key {
            KeySlots::Int { values, .. } => Some(*values),
            _ => None,
        })
        .collect()
}

/// End of a bucket chain / empty bucket.
const NO_ROW: u32 = u32::MAX;

/// A join build table: a flat chained index over a columnar build side.
///
/// The build chunks are concatenated once; `heads[bucket]` is the first build
/// row of a bucket and `links[row].next` the following one, both plain `u32`
/// row ids. Rows are linked in ascending order, so a probe walks its matches
/// in build-insertion order and the output keeps the row join's
/// probe-major/build-insertion-order sequence exactly. Keys are hashed with a
/// join-local hash (one multiply per key component; not the placement digest
/// [`column_partition_hashes`]) and compared off the column slots — no
/// per-row key is ever allocated — with the equality of [`Value`] keys in a
/// hash map: `Int64` and `Date` match each other, floats match on their bit
/// pattern, integers never match floats, NULL matches nothing. Each link
/// keeps its row's full hash as a tag, so a chain step rejects a foreign key
/// without reading a key column.
///
/// One table serves any number of probe partitions (a broadcast join builds
/// it once and shares it).
pub struct JoinBuildTable {
    build: Batch,
    key_indexes: Vec<usize>,
    heads: Vec<u32>,
    links: Vec<Link>,
    /// `hash >> shift` is the bucket: the top bits, the best mixed ones of a
    /// multiplicative hash.
    shift: u32,
}

/// A build row's place in its bucket chain.
#[derive(Clone, Copy)]
struct Link {
    /// The row's join-local hash.
    tag: u64,
    /// The next row of the chain, or [`NO_ROW`].
    next: u32,
}

impl JoinBuildTable {
    /// Builds the table over the key columns of a build side given as a run
    /// of chunks (NULL keys never enter the index).
    pub fn build(chunks: &[Batch], key_indexes: &[usize]) -> Self {
        let build = Batch::concat(chunks);
        let rows = build.num_rows();
        assert!(rows < NO_ROW as usize, "build side exceeds u32 row ids");
        // At most one row per two buckets: a miss walks half a link.
        let bits = (2 * rows).next_power_of_two().trailing_zeros().max(4);
        let shift = 64 - bits;
        let mut heads = vec![NO_ROW; 1 << bits];
        let mut links = Vec::with_capacity(rows);
        if rows > 0 {
            let side = KeyedSide::new(&build, key_indexes);
            links.extend(side.hashes.iter().map(|&tag| Link { tag, next: NO_ROW }));
            // Link back to front: every chain ascends.
            for row in (0..rows).rev() {
                if side.is_keyed(row) {
                    let bucket = (links[row].tag >> shift) as usize;
                    links[row].next = heads[bucket];
                    heads[bucket] = row as u32;
                }
            }
        }
        Self {
            build,
            key_indexes: key_indexes.to_vec(),
            heads,
            links,
            shift,
        }
    }

    /// Rows on the build side (counted once per probing partition, however
    /// many probe batches follow).
    pub fn build_rows(&self) -> u64 {
        self.build.num_rows() as u64
    }

    /// The matches of one probe batch as parallel `(probe slot, build row)`
    /// lists, probe-major with each slot's build rows in insertion order.
    pub(crate) fn matches(&self, probe: &Batch, key_indexes: &[usize]) -> (Vec<u32>, Vec<u32>) {
        if self.build.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let build_keys = key_slots(&self.build, &self.key_indexes);
        let side = KeyedSide::new(probe, key_indexes);
        match (int_columns(&side.keys), int_columns(&build_keys)) {
            // Integer keys of any arity on both sides: compare the slices, no
            // class dispatch.
            (Some(probe_cols), Some(build_cols)) => self.walk(&side, |i, r| {
                probe_cols
                    .iter()
                    .zip(&build_cols)
                    .all(|(p, b)| p[i] == b[r])
            }),
            _ => self.walk(&side, |i, r| {
                side.keys
                    .iter()
                    .zip(&build_keys)
                    .all(|(p, b)| p.get(i) == b.get(r))
            }),
        }
    }

    /// Walks the chain of every keyed probe row, testing the tag before
    /// `equal(probe slot, build row)`; returns the matches as [`Self::matches`]
    /// does. NULL-keyed rows never reach `equal`: the probe side skips them
    /// here and the build side never linked them.
    fn walk(
        &self,
        side: &KeyedSide<'_>,
        equal: impl Fn(usize, usize) -> bool,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut probe_idx: Vec<u32> = Vec::new();
        let mut build_idx: Vec<u32> = Vec::new();
        for (i, &hash) in side.hashes.iter().enumerate() {
            if !side.is_keyed(i) {
                continue;
            }
            let mut row = self.heads[(hash >> self.shift) as usize];
            while row != NO_ROW {
                let link = self.links[row as usize];
                if link.tag == hash && equal(i, row as usize) {
                    probe_idx.push(i as u32);
                    build_idx.push(row);
                }
                row = link.next;
            }
        }
        (probe_idx, build_idx)
    }

    /// The `probe ++ build` rows of a match list from [`Self::matches`].
    pub(crate) fn joined(&self, probe: &Batch, probe_idx: &[u32], build_idx: &[u32]) -> Batch {
        // Every probe row matching exactly once (a foreign key into its
        // primary key) leaves the probe side as it is: share it.
        let matched_once = probe_idx.len() == probe.num_rows()
            && probe_idx.iter().enumerate().all(|(i, &p)| p as usize == i);
        let probe_side = if matched_once {
            probe.clone()
        } else {
            probe.take(probe_idx)
        };
        probe_side.hstack(&self.build.take(build_idx))
    }

    /// Probes the table with one batch, emitting `probe ++ build` columns in
    /// probe order. The returned tally covers this probe batch only —
    /// `build_rows` stays 0 so callers can sum probe tallies without
    /// multiply-counting the build side.
    pub fn probe(&self, probe: &Batch, key_indexes: &[usize]) -> (Batch, JoinTally) {
        let (probe_idx, build_idx) = self.matches(probe, key_indexes);
        let tally = JoinTally {
            build_rows: 0,
            probe_rows: probe.num_rows() as u64,
            output_rows: probe_idx.len() as u64,
        };
        (self.joined(probe, &probe_idx, &build_idx), tally)
    }

    /// Probes the table with every chunk of one probe partition — the
    /// per-partition join operator. The tally charges the build side once.
    pub fn probe_partition(
        &self,
        probe: &[Batch],
        key_indexes: &[usize],
    ) -> (Vec<Batch>, JoinTally) {
        let mut tally = JoinTally {
            build_rows: self.build_rows(),
            ..JoinTally::default()
        };
        let mut out = Vec::with_capacity(probe.len());
        for chunk in probe {
            let (joined, partial) = self.probe(chunk, key_indexes);
            tally.add(&partial);
            if !joined.is_empty() {
                out.push(joined);
            }
        }
        (out, tally)
    }
}

/// Builds a hash table over `build_rows` and probes it with `probe_rows`,
/// emitting `probe ++ build` rows. Row adapter over [`JoinBuildTable`]: the
/// build table is built once, the probe side streams through in
/// [`batch_size`] chunks.
pub fn hash_join_partition(
    probe_rows: &[Tuple],
    build_rows: &[Tuple],
    probe_key_indexes: &[usize],
    build_key_indexes: &[usize],
) -> (Vec<Tuple>, JoinTally) {
    hash_join_partition_chunked(
        probe_rows,
        build_rows,
        probe_key_indexes,
        build_key_indexes,
        batch_size(),
    )
}

/// [`hash_join_partition`] with an explicit chunk size. Output and tally are
/// chunk-size invariant.
pub fn hash_join_partition_chunked(
    probe_rows: &[Tuple],
    build_rows: &[Tuple],
    probe_key_indexes: &[usize],
    build_key_indexes: &[usize],
    chunk_size: usize,
) -> (Vec<Tuple>, JoinTally) {
    let table = JoinBuildTable::build(&chunk_rows(build_rows, chunk_size), build_key_indexes);
    let (out, tally) =
        table.probe_partition(&chunk_rows(probe_rows, chunk_size), probe_key_indexes);
    (rows_of(&out), tally)
}

/// Counters produced by one partition of an indexed nested-loop join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexJoinTally {
    /// Secondary-index lookups performed.
    pub index_lookups: u64,
    /// Rows fetched through the index.
    pub index_fetched_rows: u64,
    /// Join output rows.
    pub output_rows: u64,
}

impl IndexJoinTally {
    /// Adds another tally into this one (partition-order fold).
    pub fn add(&mut self, other: &IndexJoinTally) {
        self.index_lookups += other.index_lookups;
        self.index_fetched_rows += other.index_fetched_rows;
        self.output_rows += other.output_rows;
    }
}

/// Probes one partition of a secondary index with the broadcast build rows,
/// emitting `indexed ++ probe` columns. `base` is the indexed table's
/// partition as stored — the index addresses its rows as `(chunk, slot)`;
/// residual key pairs beyond the indexed one and the scan's local predicates
/// are checked after each index fetch, and the output is gathered from the
/// stored chunks (projected columns only).
///
/// Probes one row at a time deliberately: each probe row fetches a handful
/// of base rows through the index, so there is no contiguous column run to
/// amortize a vectorized probe over.
#[allow(clippy::too_many_arguments)]
pub fn indexed_join_partition(
    broadcast: &[Batch],
    index: &SecondaryIndex,
    partition: usize,
    base: &[Batch],
    left_schema: &Schema,
    predicates: &[Predicate],
    projection: Option<&[usize]>,
    left_key_indexes: &[usize],
    right_key_indexes: &[usize],
    first_right_key_index: usize,
) -> Result<(Vec<Batch>, IndexJoinTally)> {
    let mut tally = IndexJoinTally::default();
    let mut base_picks: Vec<RowAddr> = Vec::new();
    let mut probe_picks: Vec<(u32, u32)> = Vec::new();
    for (c, probe) in broadcast.iter().enumerate() {
        let keys = probe.column(first_right_key_index);
        for i in 0..probe.num_rows() {
            tally.index_lookups += 1;
            for &(chunk, slot) in index.probe(partition, &keys.value(i)) {
                tally.index_fetched_rows += 1;
                let base_chunk = &base[chunk as usize];
                let all_keys_match = left_key_indexes
                    .iter()
                    .zip(right_key_indexes)
                    .skip(1)
                    .all(|(&li, &ri)| base_chunk.value(slot as usize, li) == probe.value(i, ri));
                if !all_keys_match {
                    continue;
                }
                if !predicates.is_empty()
                    && !evaluate_all(predicates, left_schema, &base_chunk.row(slot as usize))?
                {
                    continue;
                }
                base_picks.push((chunk, slot));
                probe_picks.push((c as u32, i as u32));
                tally.output_rows += 1;
            }
        }
    }
    if base_picks.is_empty() {
        return Ok((Vec::new(), tally));
    }
    let projected: Vec<Batch> = match projection {
        Some(indexes) => base.iter().map(|b| b.project(indexes)).collect(),
        None => base.to_vec(),
    };
    let chunk = batch_size();
    let out = base_picks
        .chunks(chunk)
        .zip(probe_picks.chunks(chunk))
        .map(|(left, right)| {
            Batch::gather(&projected, left).hstack(&Batch::gather(broadcast, right))
        })
        .collect();
    Ok((out, tally))
}

/// Stable digest of every slot of a column, without materializing a
/// [`Value`]: the variant is dispatched once per column and the borrowed
/// payloads hash through the same primitives `rdo_sketch::hll::hash_value`
/// uses, so partition placement is representation-invariant (cross-checked
/// in the tests below and in `rdo-sketch`). The validity bitmap is checked
/// (`all_valid`) once for the whole column; NULL-free columns hash in a loop
/// with no per-slot test.
pub fn column_partition_hashes(col: &Column) -> Vec<u64> {
    fn slots<T: Copy>(values: &[T], validity: &NullBitmap, hash: impl Fn(T) -> u64) -> Vec<u64> {
        if validity.all_valid() {
            return values.iter().map(|&v| hash(v)).collect();
        }
        let null = hash_null();
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| if validity.is_valid(i) { hash(v) } else { null })
            .collect()
    }
    match col {
        Column::Int64 { values, validity } | Column::Date { values, validity } => {
            slots(values, validity, hash_int64)
        }
        Column::Float64 { values, validity } => slots(values, validity, hash_float64),
        Column::Bool { values, validity } => slots(values, validity, hash_bool),
        Column::Utf8 {
            offsets,
            bytes,
            validity,
        } => {
            let no_nulls = validity.all_valid();
            (0..validity.len())
                .map(|i| {
                    if no_nulls || validity.is_valid(i) {
                        hash_utf8(utf8_slot(offsets, bytes, i))
                    } else {
                        hash_null()
                    }
                })
                .collect()
        }
        Column::Mixed { values } => values.iter().map(hash_value).collect(),
    }
}

/// Splits a run of chunks over `destinations` outputs. For each chunk,
/// `route` is handed one (cleared) slot list per destination and pushes every
/// slot onto the list of the destination it is bound for; each destination
/// assembles its rows, in input order, into full batches. A chunk bound
/// whole for one destination is passed on shared.
pub fn scatter_batches(
    chunks: &[Batch],
    destinations: usize,
    mut route: impl FnMut(&Batch, &mut [Vec<u32>]),
) -> Vec<Vec<Batch>> {
    let mut out: Vec<BatchAssembler> = (0..destinations)
        .map(|_| BatchAssembler::new(batch_size()))
        .collect();
    let mut slots: Vec<Vec<u32>> = vec![Vec::new(); destinations];
    for chunk in chunks {
        slots.iter_mut().for_each(Vec::clear);
        route(chunk, &mut slots);
        for (assembler, idx) in out.iter_mut().zip(&slots) {
            if idx.len() == chunk.num_rows() {
                assembler.push_all(chunk);
            } else {
                assembler.push(chunk, idx);
            }
        }
    }
    out.into_iter().map(BatchAssembler::finish).collect()
}

/// Buckets one source partition's chunks by the hash of the key column — the
/// per-partition half of a `HashRepartition` exchange. Returns, per
/// destination partition, the rows bound for it (input order, assembled into
/// full batches) and the rows/bytes that left partition `from` (the shuffle
/// volume the cost model charges for). The exchange concatenates the
/// destination runs in source-partition order, so the result is
/// deterministic no matter which worker ran which source partition.
pub fn repartition_batches(
    chunks: &[Batch],
    key_index: usize,
    from: usize,
    num_partitions: usize,
) -> (Vec<Vec<Batch>>, u64, u64) {
    let mut moved_rows = 0u64;
    let mut moved_bytes = 0u64;
    let buckets = scatter_batches(chunks, num_partitions, |chunk, slots| {
        for (i, hash) in column_partition_hashes(chunk.column(key_index))
            .into_iter()
            .enumerate()
        {
            slots[partition_for_hash(hash, num_partitions)].push(i as u32);
        }
        for (to, idx) in slots.iter().enumerate() {
            if to != from {
                moved_rows += idx.len() as u64;
                moved_bytes += chunk.approx_bytes_at(idx) as u64;
            }
        }
    });
    (buckets, moved_rows, moved_bytes)
}

/// Buckets one source partition's rows by the hash of the key column. Row
/// adapter over [`repartition_batches`] at the process-wide [`batch_size`].
pub fn repartition_partition(
    rows: &[Tuple],
    key_index: usize,
    from: usize,
    num_partitions: usize,
) -> (Vec<Vec<Tuple>>, u64, u64) {
    repartition_partition_chunked(rows, key_index, from, num_partitions, batch_size())
}

/// [`repartition_partition`] with an explicit chunk size. Buckets and
/// shuffle counters are chunk-size invariant.
pub fn repartition_partition_chunked(
    rows: &[Tuple],
    key_index: usize,
    from: usize,
    num_partitions: usize,
    chunk_size: usize,
) -> (Vec<Vec<Tuple>>, u64, u64) {
    let (buckets, moved_rows, moved_bytes) = repartition_batches(
        &chunk_rows(rows, chunk_size),
        key_index,
        from,
        num_partitions,
    );
    let buckets = buckets.iter().map(|run| rows_of(run)).collect();
    (buckets, moved_rows, moved_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::partition_for;
    use rdo_common::{DataType, FieldRef, Schema};

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 5)]))
            .collect()
    }

    fn schema() -> Schema {
        Schema::for_dataset("t", &[("k", DataType::Int64), ("g", DataType::Int64)])
    }

    /// Rows exercising every column representation the kernels see: typed
    /// columns with NULL slots, floats with awkward payloads, strings.
    fn tricky_rows() -> Vec<Tuple> {
        (0..37)
            .map(|i| {
                Tuple::new(vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Int64(i % 11)
                    },
                    match i % 5 {
                        0 => Value::Float64(f64::NAN),
                        1 => Value::Float64(-0.0),
                        2 => Value::Null,
                        _ => Value::Float64(i as f64 / 3.0),
                    },
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Utf8(format!("name-{}", i % 6))
                    },
                ])
            })
            .collect()
    }

    fn tricky_schema() -> Schema {
        Schema::for_dataset(
            "t",
            &[
                ("k", DataType::Int64),
                ("f", DataType::Float64),
                ("s", DataType::Utf8),
            ],
        )
    }

    #[test]
    fn scan_kernel_counts_and_filters() {
        let rows = rows(10);
        let predicates = vec![Predicate::compare(
            rdo_common::FieldRef::new("t", "g"),
            crate::expr::CmpOp::Eq,
            2i64,
        )];
        let (out, tally) = scan_partition(&schema(), &predicates, None, &rows).unwrap();
        assert_eq!(tally.scanned_rows, 10);
        assert_eq!(tally.kept, 2);
        assert_eq!(out.len(), 2);
        assert!(tally.scanned_bytes > 0);
    }

    #[test]
    fn hash_join_kernel_concats_probe_then_build() {
        let probe = rows(10);
        let build = rows(5);
        let (out, tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        assert_eq!(tally.build_rows, 5);
        assert_eq!(tally.probe_rows, 10);
        assert_eq!(tally.output_rows, 5, "keys 0..5 match");
        assert_eq!(out[0].values().len(), 4);
    }

    #[test]
    fn null_keys_never_match() {
        let probe = vec![Tuple::new(vec![Value::Null, Value::Int64(0)])];
        let build = vec![Tuple::new(vec![Value::Null, Value::Int64(0)])];
        let (out, tally) = hash_join_partition(&probe, &build, &[0], &[0]);
        assert!(out.is_empty());
        assert_eq!(tally.output_rows, 0);
    }

    #[test]
    fn repartition_kernel_buckets_by_hash() {
        let rows = rows(100);
        let (buckets, moved, bytes) = repartition_partition(&rows, 1, 0, 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        assert!(moved > 0 && moved <= 100);
        assert!(bytes > 0);
        for (p, bucket) in buckets.iter().enumerate() {
            for row in bucket {
                assert_eq!(partition_for(row.value(1), 4), p);
            }
        }
    }

    #[test]
    fn tallies_fold_associatively() {
        let a = ScanTally {
            scanned_rows: 1,
            scanned_bytes: 2,
            kept: 3,
        };
        let b = ScanTally {
            scanned_rows: 10,
            scanned_bytes: 20,
            kept: 30,
        };
        let mut left = a;
        left.add(&b);
        let mut right = b;
        right.add(&a);
        assert_eq!(left, right);
    }

    #[test]
    fn batch_size_is_positive() {
        assert!(batch_size() >= 1);
    }

    #[test]
    fn scan_is_chunk_size_invariant_and_matches_row_kernel() {
        let rows = tricky_rows();
        let schema = tricky_schema();
        let predicates = vec![
            Predicate::compare(FieldRef::new("t", "k"), crate::expr::CmpOp::Le, 7i64),
            Predicate::compare(FieldRef::new("t", "f"), crate::expr::CmpOp::Ge, 0i64),
        ];
        let projection = [2usize, 0];
        let reference =
            scan_partition_rows(&schema, &predicates, Some(&projection), &rows).unwrap();
        for chunk_size in [1, 2, 3, 7, 36, 37, 1000] {
            let chunked =
                scan_partition_chunked(&schema, &predicates, Some(&projection), &rows, chunk_size)
                    .unwrap();
            assert_eq!(chunked, reference, "chunk size {chunk_size}");
        }
        // Empty partitions produce no output, no counters, no resolve errors.
        let empty = scan_partition(&schema, &predicates, None, &[]).unwrap();
        assert_eq!(empty, (Vec::new(), ScanTally::default()));
    }

    #[test]
    fn hash_join_is_chunk_size_invariant_and_matches_row_kernel() {
        let probe = tricky_rows();
        let build: Vec<Tuple> = tricky_rows().into_iter().step_by(2).collect();
        for keys in [&[0usize][..], &[0, 2][..]] {
            let reference = hash_join_partition_rows(&probe, &build, keys, keys);
            for chunk_size in [1, 3, 5, 37, 1000] {
                let chunked = hash_join_partition_chunked(&probe, &build, keys, keys, chunk_size);
                assert_eq!(chunked, reference, "keys {keys:?} chunk {chunk_size}");
            }
        }
        // Empty sides behave like the row kernel, including the tally.
        assert_eq!(
            hash_join_partition(&[], &build, &[0], &[0]),
            hash_join_partition_rows(&[], &build, &[0], &[0])
        );
        assert_eq!(
            hash_join_partition(&probe, &[], &[0], &[0]),
            hash_join_partition_rows(&probe, &[], &[0], &[0])
        );
    }

    #[test]
    fn repartition_is_chunk_size_invariant_and_matches_row_kernel() {
        let rows = tricky_rows();
        for key_index in [0usize, 1, 2] {
            let reference = repartition_partition_rows(&rows, key_index, 1, 4);
            for chunk_size in [1, 3, 8, 37, 1000] {
                let chunked = repartition_partition_chunked(&rows, key_index, 1, 4, chunk_size);
                assert_eq!(chunked, reference, "key {key_index} chunk {chunk_size}");
            }
        }
    }

    #[test]
    fn column_hash_matches_value_hash() {
        // Representation invariance of partition placement: hashing a column
        // slot equals hashing the materialized Value, for typed columns with
        // NULL slots and for the Mixed fallback alike.
        let rows = tricky_rows();
        let batch = Batch::from_rows(3, &rows);
        for c in 0..batch.num_columns() {
            let col = batch.column(c);
            let hashes = column_partition_hashes(col);
            assert_eq!(hashes.len(), batch.num_rows());
            for (i, hash) in hashes.into_iter().enumerate() {
                assert_eq!(hash, hash_value(&col.value(i)), "column {c} row {i}");
            }
        }
        let mixed = Batch::from_rows(
            1,
            &[
                Tuple::new(vec![Value::Int64(1)]),
                Tuple::new(vec![Value::from("one")]),
                Tuple::new(vec![Value::Bool(true)]),
                Tuple::new(vec![Value::Date(9)]),
                Tuple::new(vec![Value::Null]),
            ],
        );
        let col = mixed.column(0);
        for (i, hash) in column_partition_hashes(col).into_iter().enumerate() {
            assert_eq!(hash, hash_value(&col.value(i)));
        }
    }

    /// The longest bucket chain of a table built over `keys`.
    fn longest_chain(keys: Vec<Vec<i64>>) -> usize {
        let rows: Vec<Tuple> = keys
            .into_iter()
            .map(|k| Tuple::new(k.into_iter().map(Value::Int64).collect()))
            .collect();
        let width = rows[0].len();
        let table = JoinBuildTable::build(&chunk_rows(&rows, 1024), &Vec::from_iter(0..width));
        let mut longest = 0;
        for &head in &table.heads {
            let (mut row, mut len) = (head, 0);
            while row != NO_ROW {
                len += 1;
                row = table.links[row as usize].next;
            }
            longest = longest.max(len);
        }
        longest
    }

    /// A mixer whose top bits collapse on structured keys would pile them
    /// into a few buckets; these shapes must spread.
    #[test]
    fn structured_build_keys_spread_over_buckets() {
        let n = 65_536i64;
        let shapes: [(&str, Vec<Vec<i64>>); 4] = [
            ("sequential", (0..n).map(|i| vec![i]).collect()),
            ("strided by 2^16", (0..n).map(|i| vec![i << 16]).collect()),
            ("negative", (0..n).map(|i| vec![-1 - i]).collect()),
            (
                "two constant components",
                (0..n).map(|i| vec![7, i, 1_000_003]).collect(),
            ),
        ];
        for (shape, keys) in shapes {
            let longest = longest_chain(keys);
            assert!(longest <= 8, "{shape}: longest chain {longest}");
        }
    }

    #[test]
    fn join_build_table_counts_build_once() {
        let probe = rows(10);
        let build = rows(5);
        let reference = hash_join_partition_rows(&probe, &build, &[0], &[0]);
        let chunked = hash_join_partition_chunked(&probe, &build, &[0], &[0], 2);
        assert_eq!(
            chunked.1.build_rows, reference.1.build_rows,
            "build side counted once, not once per probe chunk"
        );
        assert_eq!(chunked, reference);
    }
}
