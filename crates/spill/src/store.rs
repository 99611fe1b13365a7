//! The paged, disk-backed partition store.
//!
//! A [`SpilledPartitions`] holds one materialized intermediate result: every
//! partition serialized into fixed-size-target pages in a single spill file,
//! with an in-memory page directory per partition. Writes and reads both go
//! through the manager's buffer pool, so a freshly spilled table that still
//! fits in the pool is served from memory while larger ones do real I/O.
//! Dropping the store invalidates its pool pages and deletes its file.
//!
//! Two pieces make up the I/O fast path:
//!
//! * **Streaming writes** — [`SpillPartitionWriter`] takes batches — whole,
//!   or routed slot by slot to different partitions — and keeps one pending
//!   page per partition, so a producer that *routes* rows (the grace
//!   partitioner) never materializes whole partitions first: its transient
//!   footprint is O(partitions × page size), tracked by
//!   [`SpillPartitionWriter::peak_buffered_bytes`]. Pages are cut by the
//!   rows' row-codec lengths and encoded once from the pending page's column
//!   slices. The page alone picks its layout — column runs, except a tail
//!   page under 1 KiB, which is a row-codec page — and every page goes
//!   through the LZ codec, which stores it raw when that is smaller.
//! * **Read-ahead scans** — [`SpilledPartitions::scan_pages`] overlaps page
//!   decode with disk reads: a prefetch thread keeps the next two pages
//!   resident in the buffer pool while the scanner decompresses and decodes
//!   the current one.

use crate::codec::{decode_rows, encode_batch_row, encoded_row_lens, encoded_tuple_len};
use crate::colcodec;
use crate::compress::{decode_page, encode_page_with, LzScratch};
use crate::manager::{SpillManager, SpillReadTally, SpillWriteTally};
use rdo_common::{batch_size, Batch, BatchBuilder, Result, Tuple};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// Location of one page inside the spill file.
#[derive(Debug, Clone, Copy)]
struct PageMeta {
    page_no: u32,
    offset: u64,
    /// Bytes the page occupies in the file (compressed size when the page
    /// compressed).
    stored_len: u32,
    /// Bytes of *row-codec* data the page stands for. In columnar mode the
    /// physical body is the columnar encoding, but this counter (and every
    /// tally built from it) still reports the row-codec volume so logical
    /// metrics are identical whichever layout is on disk.
    logical_len: u32,
    rows: u32,
    /// Physical layout of the page body: columnar ([`crate::colcodec`]) or
    /// row-wise ([`crate::codec`]). In-memory only — the page directory never
    /// hits disk — so the flag costs nothing in the file format.
    columnar: bool,
}

#[derive(Debug, Default)]
struct PartitionPages {
    pages: Vec<PageMeta>,
    rows: usize,
}

/// Below this many row-codec bytes a page that did not fill up (the tail of a
/// small partition) is stored in the row layout rather than as column runs:
/// on a handful of rows the columnar header — 8 bytes plus a tag and a bitmap
/// per column — and the cross-column matches the compressor loses cost more
/// than the column runs save (measured crossover: 128–256 bytes on
/// multi-column pages, ~1 KiB on single-column ones).
const MIN_COLUMNAR_PAGE_BYTES: usize = 1024;

/// Read-ahead lookahead of spill scans, in pages: double-buffered — the
/// prefetcher reads up to two pages ahead while the scanner decodes the
/// current one.
const READ_AHEAD_PAGES: usize = 2;

/// The page a partition is filling: its rows as a batch under construction,
/// and their row-codec byte length — the page-boundary measure.
#[derive(Debug, Default)]
struct PendingPage {
    rows: BatchBuilder,
    len: usize,
}

/// Streams rows into a fresh spill file, one pending page per partition.
///
/// Rows arrive as batches — whole ([`Self::append_batch`]) or routed slot by
/// slot to different partitions ([`Self::append_rows`]) — and a partition's
/// page is cut as soon as its pending rows reach the target page size, so
/// only `partitions × page_size` bytes (plus at most one oversized row) ever
/// wait. [`Self::finish`] flushes the tails and returns the completed store;
/// dropping an unfinished writer deletes the file.
///
/// Page boundaries, per-page row counts, logical byte counters and the
/// buffered-bytes accounting all follow the *row-codec* length of each row
/// ([`encoded_row_lens`]), so every logical figure is the same in both page
/// layouts and the same whether rows arrive as batches or one [`Tuple`] at a
/// time. A page is encoded **once**, in a layout fixed before encoding: column
/// runs ([`crate::colcodec`]) written from the pending page's column slices —
/// except tail pages under 1 KiB, which are written in the row codec. Each
/// page's metadata records its layout for the reader.
#[derive(Debug)]
pub struct SpillPartitionWriter {
    manager: Arc<SpillManager>,
    file_id: u64,
    path: PathBuf,
    parts: Vec<PartitionPages>,
    pending: Vec<PendingPage>,
    offset: u64,
    page_no: u32,
    tally: SpillWriteTally,
    total_rows: usize,
    approx_bytes: usize,
    buffered_bytes: u64,
    peak_buffered_bytes: u64,
    page_size: usize,
    scratch: LzScratch,
    finished: bool,
}

impl SpillPartitionWriter {
    /// Opens a writer over a fresh spill file with `partitions` partitions.
    pub fn new(manager: Arc<SpillManager>, partitions: usize) -> Result<Self> {
        let page_size = manager.config().page_size.max(512);
        let (file_id, path) = manager.create_file()?;
        Ok(Self {
            manager,
            file_id,
            path,
            parts: (0..partitions).map(|_| PartitionPages::default()).collect(),
            pending: (0..partitions).map(|_| PendingPage::default()).collect(),
            offset: 0,
            page_no: 0,
            tally: SpillWriteTally::default(),
            total_rows: 0,
            approx_bytes: 0,
            buffered_bytes: 0,
            peak_buffered_bytes: 0,
            page_size,
            scratch: LzScratch::new(),
            finished: false,
        })
    }

    /// Appends one row to partition `p` — the row edge, for callers holding
    /// tuples. Cuts the very pages the batch appends cut.
    pub fn append(&mut self, p: usize, row: &Tuple) -> Result<()> {
        self.pending[p].rows.push_row(row);
        if self.account(p, encoded_tuple_len(row)) {
            self.flush_partition(p)?;
        }
        Ok(())
    }

    /// Appends every row of `batch` to partition `p`.
    pub fn append_batch(&mut self, p: usize, batch: &Batch) -> Result<()> {
        self.append_rows(batch, (0..batch.num_rows() as u32).map(|slot| (p, slot)))
    }

    /// Appends the rows of `batch` named by `rows` — `(partition, slot)`, in
    /// the order given — flushing a partition's page whenever its pending
    /// rows reach the page size (a page holds at least one row, so an
    /// oversized row becomes an oversized page rather than an error). The
    /// pages, tallies and the buffered-bytes high-water mark are exactly those
    /// of appending the same rows one at a time in the same order; the rows
    /// themselves are copied into the pending pages a column at a time.
    pub fn append_rows(
        &mut self,
        batch: &Batch,
        rows: impl IntoIterator<Item = (usize, u32)>,
    ) -> Result<()> {
        let lens = encoded_row_lens(batch);
        // Slots routed to each partition and not yet copied into its page.
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.pending.len()];
        for (p, slot) in rows {
            routed[p].push(slot);
            if self.account(p, lens[slot as usize] as usize) {
                self.pending[p].rows.extend_slots(batch, &routed[p]);
                routed[p].clear();
                self.flush_partition(p)?;
            }
        }
        for (pending, slots) in self.pending.iter_mut().zip(&routed) {
            if !slots.is_empty() {
                pending.rows.extend_slots(batch, slots);
            }
        }
        Ok(())
    }

    /// Books one row of `encoded` row-codec bytes into partition `p`; true
    /// when that fills the partition's page.
    fn account(&mut self, p: usize, encoded: usize) -> bool {
        self.pending[p].len += encoded;
        self.buffered_bytes += encoded as u64;
        self.peak_buffered_bytes = self.peak_buffered_bytes.max(self.buffered_bytes);
        self.parts[p].rows += 1;
        self.total_rows += 1;
        self.pending[p].len >= self.page_size
    }

    /// High-water mark of the row-codec bytes pending across all partitions,
    /// bounded by `partitions × page_size` plus at most one oversized row per
    /// partition. A *logical* figure — the bytes the pending rows will occupy
    /// in row-codec pages, the same in both page layouts — not the heap size
    /// of the pending batches (8 bytes a fixed-width slot, whatever the row
    /// codec spends on it).
    pub fn peak_buffered_bytes(&self) -> u64 {
        self.peak_buffered_bytes
    }

    fn flush_partition(&mut self, p: usize) -> Result<()> {
        let page = self.pending[p].rows.finish();
        self.approx_bytes += page.approx_bytes();
        // `logical_len` is always the row-codec volume; a columnar body
        // differs from it, and that difference is the point.
        let logical_len = std::mem::take(&mut self.pending[p].len);
        let mut body = Vec::with_capacity(logical_len);
        let columnar = logical_len >= self.page_size.min(MIN_COLUMNAR_PAGE_BYTES);
        if columnar {
            colcodec::encode_batch(&mut body, &page);
        } else {
            for r in 0..page.num_rows() {
                encode_batch_row(&mut body, &page, r);
            }
        }
        let blob = {
            let _t = rdo_trace::timer("spill.compress_ns");
            encode_page_with(&mut self.scratch, &body, true)
        };
        self.buffered_bytes -= logical_len as u64;
        let meta = PageMeta {
            page_no: self.page_no,
            offset: self.offset,
            stored_len: blob.len() as u32,
            logical_len: logical_len as u32,
            rows: page.num_rows() as u32,
            columnar,
        };
        self.offset += blob.len() as u64;
        self.page_no += 1;
        self.tally.pages += 1;
        self.tally.bytes += blob.len() as u64;
        self.tally.logical_bytes += logical_len as u64;
        self.manager
            .pool()
            .put_page(self.file_id, meta.page_no, meta.offset, blob)?;
        self.parts[p].pages.push(meta);
        Ok(())
    }

    /// Flushes every partition's tail page and seals the store. Returns the
    /// store and the logical write volume.
    pub fn finish(mut self) -> Result<(SpilledPartitions, SpillWriteTally)> {
        for p in 0..self.parts.len() {
            if self.pending[p].rows.num_rows() > 0 {
                self.flush_partition(p)?;
            }
        }
        self.finished = true;
        let store = SpilledPartitions {
            manager: Arc::clone(&self.manager),
            file_id: self.file_id,
            path: std::mem::take(&mut self.path),
            parts: std::mem::take(&mut self.parts),
            total_rows: self.total_rows,
            approx_bytes: self.approx_bytes,
            serialized_bytes: self.tally.bytes,
            logical_bytes: self.tally.logical_bytes,
            pages: self.tally.pages,
        };
        Ok((store, self.tally))
    }
}

impl Drop for SpillPartitionWriter {
    fn drop(&mut self) {
        if !self.finished {
            // Abandoned mid-write (an error unwound the producer): release
            // the pool frames and delete the partial file.
            self.manager.pool().drop_file(self.file_id);
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// A materialized intermediate result spilled to disk, page by page.
#[derive(Debug)]
pub struct SpilledPartitions {
    manager: Arc<SpillManager>,
    file_id: u64,
    path: PathBuf,
    parts: Vec<PartitionPages>,
    total_rows: usize,
    /// Tuple-model bytes (`Tuple::approx_bytes` sums), kept identical to the
    /// in-memory accounting so cost-model inputs do not depend on where a
    /// table lives.
    approx_bytes: usize,
    /// Exact stored page bytes — the *measured* on-disk size of the
    /// intermediate.
    serialized_bytes: u64,
    /// Row-codec bytes the pages stand for.
    logical_bytes: u64,
    pages: u64,
}

impl SpilledPartitions {
    /// Serializes `partitions` into pages and hands them to the buffer pool
    /// (dirty frames; the pool writes them to the file as they are evicted).
    /// Returns the store and the logical write volume.
    pub fn write(
        manager: Arc<SpillManager>,
        partitions: &[Vec<Tuple>],
    ) -> Result<(Self, SpillWriteTally)> {
        let mut writer = SpillPartitionWriter::new(manager, partitions.len())?;
        for (p, partition) in partitions.iter().enumerate() {
            for rows in partition.chunks(batch_size()) {
                writer.append_batch(p, &Batch::from_rows(rows[0].len(), rows))?;
            }
        }
        writer.finish()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Total rows across partitions.
    pub fn row_count(&self) -> usize {
        self.total_rows
    }

    /// Rows of one partition.
    pub fn partition_rows(&self, p: usize) -> usize {
        self.parts[p].rows
    }

    /// Tuple-model bytes (matches `Tuple::approx_bytes` accounting).
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Exact stored bytes on disk.
    pub fn serialized_bytes(&self) -> u64 {
        self.serialized_bytes
    }

    /// Row-codec bytes the pages stand for, whatever their stored layout.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Total pages in the store.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Fetches, decompresses and decodes one page with `decode`, folding it
    /// into `tally` and handing the decoded item to `f`.
    fn visit_page_with<T, D, F>(
        &self,
        meta: &PageMeta,
        tally: &mut SpillReadTally,
        decode: &D,
        f: &mut F,
    ) -> Result<bool>
    where
        D: Fn(&[u8], &PageMeta) -> Result<T>,
        F: FnMut(&T) -> Result<bool>,
    {
        let item = self.manager.pool().with_page(
            self.file_id,
            meta.page_no,
            meta.offset,
            meta.stored_len as usize,
            |blob| -> Result<T> {
                let body = {
                    let _t = rdo_trace::timer("spill.decompress_ns");
                    decode_page(blob)?
                };
                decode(&body, meta)
            },
        )??;
        tally.pages += 1;
        tally.bytes += meta.stored_len as u64;
        tally.logical_bytes += meta.logical_len as u64;
        f(&item)
    }

    /// Decodes one page body back to rows, dispatching on the page's layout
    /// flag.
    fn decode_page_rows(body: &[u8], meta: &PageMeta) -> Result<Vec<Tuple>> {
        if meta.columnar {
            colcodec::decode_rows(body, meta.rows as usize)
        } else {
            decode_rows(body, meta.rows as usize)
        }
    }

    /// Decodes one page body straight to a [`Batch`]: columnar pages skip the
    /// row detour entirely, row pages go through `Batch::from_rows`.
    fn decode_page_batch(body: &[u8], meta: &PageMeta) -> Result<Batch> {
        if meta.columnar {
            colcodec::decode_batch(body, meta.rows as usize)
        } else {
            let rows = decode_rows(body, meta.rows as usize)?;
            let width = rows.first().map_or(0, Tuple::len);
            Ok(Batch::from_rows(width, &rows))
        }
    }

    /// Streams partition `p` page by page: `f` receives each page's decoded
    /// rows in storage order and returns whether to keep going. The returned
    /// tally counts the pages actually fetched, so an early stop charges only
    /// what was read.
    ///
    /// A read-ahead thread keeps the next two pages resident in the buffer
    /// pool while `f` and the row decoder run, overlapping disk I/O with
    /// decode work. Prefetching touches only the physical pool state — the
    /// logical tally and the delivered rows are identical with and without
    /// it.
    pub fn scan_pages<F>(&self, p: usize, mut f: F) -> Result<SpillReadTally>
    where
        F: FnMut(&[Tuple]) -> Result<bool>,
    {
        self.scan_pages_with(p, Self::decode_page_rows, |rows: &Vec<Tuple>| f(rows))
    }

    /// Streams partition `p` page by page as [`Batch`]es — the batch-native
    /// twin of [`Self::scan_pages`], with the same early-stop, tally and
    /// read-ahead behaviour. Columnar pages decode straight into their
    /// column representation with no per-row materialization.
    pub fn scan_batches<F>(&self, p: usize, f: F) -> Result<SpillReadTally>
    where
        F: FnMut(&Batch) -> Result<bool>,
    {
        self.scan_pages_with(p, Self::decode_page_batch, f)
    }

    fn scan_pages_with<T, D, F>(&self, p: usize, decode: D, mut f: F) -> Result<SpillReadTally>
    where
        D: Fn(&[u8], &PageMeta) -> Result<T>,
        F: FnMut(&T) -> Result<bool>,
    {
        let metas = &self.parts[p].pages;
        let pool = self.manager.pool();
        // No read-ahead thread when there is nothing to read ahead: single
        // pages, or every page already resident in the pool (the common case
        // for small grace buckets scanned right after being written) — a
        // thread spawn would cost more than it overlaps. More pages than
        // frames can never be all-resident, so skip the under-lock residency
        // probe entirely then.
        if metas.len() <= 1
            || (metas.len() <= pool.capacity()
                && pool.all_resident(self.file_id, metas.iter().map(|m| m.page_no)))
        {
            let mut tally = SpillReadTally::default();
            for meta in metas {
                if !self.visit_page_with(meta, &mut tally, &decode, &mut f)? {
                    break;
                }
            }
            return Ok(tally);
        }

        let gate = PrefetchGate::new();
        let trace_ctx = rdo_trace::TaskContext::capture();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The read-ahead thread inherits the scanner's trace, so its
                // pool installs and slot waits land in the same profile.
                let _trace = trace_ctx.install();
                // The scanner fetches page 0 itself; read ahead from page 1,
                // staying at most `READ_AHEAD_PAGES` in front of it and
                // skipping pages the scanner has already reached (fetching
                // those would double-read them from disk). Prefetch errors
                // are ignored — the scanner's own read will surface anything
                // real.
                for (i, meta) in metas.iter().enumerate().skip(1) {
                    match gate.wait_for_slot(i) {
                        Slot::Closed => return,
                        Slot::Skip => continue,
                        Slot::Fetch => {
                            let _ = pool.prefetch_page(
                                self.file_id,
                                meta.page_no,
                                meta.offset,
                                meta.stored_len as usize,
                            );
                        }
                    }
                }
            });
            // Release the prefetcher on every exit path — early stops,
            // errors AND panics unwinding out of `f` — or the scope would
            // never join the parked thread.
            let _close_guard = CloseOnDrop(&gate);
            let mut tally = SpillReadTally::default();
            for meta in metas {
                if !self.visit_page_with(meta, &mut tally, &decode, &mut f)? {
                    break;
                }
                gate.advance();
            }
            Ok(tally)
        })
    }

    /// Materializes one partition back into memory, returning the logical
    /// read volume alongside (the grace join charges it to its metrics).
    pub fn read_partition_tallied(&self, p: usize) -> Result<(Vec<Tuple>, SpillReadTally)> {
        let mut out = Vec::with_capacity(self.parts[p].rows);
        let tally = self.scan_pages(p, |rows| {
            out.extend_from_slice(rows);
            Ok(true)
        })?;
        Ok((out, tally))
    }

    /// Materializes one partition back into memory.
    pub fn read_partition(&self, p: usize) -> Result<Vec<Tuple>> {
        Ok(self.read_partition_tallied(p)?.0)
    }
}

impl Drop for SpilledPartitions {
    fn drop(&mut self) {
        self.manager.pool().drop_file(self.file_id);
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Coordination between one scan and its read-ahead thread: the prefetcher
/// waits whenever it would run more than [`READ_AHEAD_PAGES`] pages in front
/// of the scanner, and `close` releases it unconditionally (end of scan, early stop
/// or error).
struct PrefetchGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    /// Pages the scanner has fully processed.
    consumed: usize,
    closed: bool,
}

/// What the prefetcher should do with the page it asked about.
enum Slot {
    /// Read the page into the pool — it is ahead of the scanner, inside the
    /// lookahead window.
    Fetch,
    /// Leave the page alone — the scanner already reached it.
    Skip,
    /// Stop — the scan is over.
    Closed,
}

impl PrefetchGate {
    fn new() -> Self {
        Self {
            state: Mutex::new(GateState {
                consumed: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until page `i` enters the lookahead window in front of the page
    /// the scanner is currently processing. Pages the scanner has already
    /// reached come back as [`Slot::Skip`] — prefetching them would race the
    /// scanner's own fetch and read the page from disk twice.
    fn wait_for_slot(&self, i: usize) -> Slot {
        let _wait = rdo_trace::timer("spill.prefetch_wait_ns");
        let mut state = self.state.lock().expect("prefetch gate lock");
        loop {
            if state.closed {
                return Slot::Closed;
            }
            // The scanner is processing page `consumed` right now.
            if i <= state.consumed {
                return Slot::Skip;
            }
            if i <= state.consumed + READ_AHEAD_PAGES {
                return Slot::Fetch;
            }
            state = self.cv.wait(state).expect("prefetch gate wait");
        }
    }

    fn advance(&self) {
        let mut state = self.state.lock().expect("prefetch gate lock");
        state.consumed += 1;
        drop(state);
        self.cv.notify_all();
    }

    fn close(&self) {
        // Runs during panic unwinds (via `CloseOnDrop`): recover from a
        // poisoned lock instead of double-panicking into an abort.
        let mut state = match self.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.closed = true;
        drop(state);
        self.cv.notify_all();
    }
}

/// Closes its gate when dropped, so a panic unwinding out of the scan
/// callback still releases the read-ahead thread before `thread::scope`
/// joins it.
struct CloseOnDrop<'a>(&'a PrefetchGate);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::SpillConfig;
    use rdo_common::Value;

    fn rows(n: i64, tag: &str) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Utf8(format!("{tag}-{i}")),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 3.0)
                    },
                ])
            })
            .collect()
    }

    fn manager_with(config: SpillConfig) -> Arc<SpillManager> {
        SpillManager::create(config).unwrap()
    }

    fn manager(budget: u64, page_size: usize) -> Arc<SpillManager> {
        manager_with(
            SpillConfig::default()
                .with_budget(budget)
                .with_page_size(page_size),
        )
    }

    #[test]
    fn write_then_scan_roundtrips_every_partition() {
        let mgr = manager(1, 512);
        let partitions = vec![rows(100, "a"), Vec::new(), rows(37, "b")];
        let (store, tally) = SpilledPartitions::write(Arc::clone(&mgr), &partitions).unwrap();
        assert_eq!(store.num_partitions(), 3);
        assert_eq!(store.row_count(), 137);
        assert!(tally.pages > 1, "small page size forces multiple pages");
        assert_eq!(tally.bytes, store.serialized_bytes());
        assert_eq!(tally.logical_bytes, store.logical_bytes());
        assert!(
            tally.bytes < tally.logical_bytes,
            "row pages compress: {tally:?}"
        );
        for (p, expected) in partitions.iter().enumerate() {
            assert_eq!(&store.read_partition(p).unwrap(), expected);
            assert_eq!(store.partition_rows(p), expected.len());
        }
        let expected_bytes: usize = partitions.iter().flatten().map(|t| t.approx_bytes()).sum();
        assert_eq!(store.approx_bytes(), expected_bytes);
    }

    #[test]
    fn scan_charges_only_pages_actually_read() {
        let mgr = manager(1, 512);
        let partitions = vec![rows(500, "x")];
        let (store, write) = SpilledPartitions::write(Arc::clone(&mgr), &partitions).unwrap();
        let full = store.scan_pages(0, |_| Ok(true)).unwrap();
        assert_eq!(full.pages, write.pages);
        assert_eq!(full.bytes, write.bytes);
        assert_eq!(full.logical_bytes, write.logical_bytes);
        let first_only = store.scan_pages(0, |_| Ok(false)).unwrap();
        assert_eq!(first_only.pages, 1, "early stop reads one page");
        assert!(first_only.bytes < full.bytes);
    }

    #[test]
    fn pages_survive_pool_pressure() {
        // A 16-frame pool (minimum) with 512-byte pages and ~60 pages of data:
        // most reads must miss the pool and hit the file (after writeback).
        // Each scan fetches its first page itself, and that page was evicted
        // long ago, so the scanner misses even with read-ahead running.
        let mgr = manager(1, 512);
        let partitions = vec![rows(400, "pressure"), rows(400, "more")];
        let (store, _) = SpilledPartitions::write(Arc::clone(&mgr), &partitions).unwrap();
        for (p, expected) in partitions.iter().enumerate() {
            assert_eq!(&store.read_partition(p).unwrap(), expected);
        }
        let d = mgr.pool_diagnostics();
        assert!(d.writebacks > 0, "evictions flushed dirty pages: {d:?}");
        assert!(d.misses > 0, "reads went to the file: {d:?}");
    }

    /// Scans that run the read-ahead thread (more pages than the pool holds)
    /// deliver exactly the rows written, and their tallies add up to the
    /// write tally.
    #[test]
    fn prefetched_scans_deliver_the_written_rows_and_tallies() {
        let mgr = manager(1, 512);
        let data = vec![rows(700, "pf"), rows(123, "pf2")];
        let (store, write) = SpilledPartitions::write(Arc::clone(&mgr), &data).unwrap();
        assert!(write.pages as usize > mgr.pool().capacity(), "{write:?}");
        for _ in 0..3 {
            let mut read = SpillReadTally::default();
            for (p, expected) in data.iter().enumerate() {
                let (got, tally) = store.read_partition_tallied(p).unwrap();
                assert_eq!(&got, expected, "partition {p}");
                read.add(&tally);
            }
            assert_eq!(
                (read.pages, read.bytes, read.logical_bytes),
                (write.pages, write.bytes, write.logical_bytes)
            );
        }
    }

    /// With the scanner throttled (so the read-ahead thread is guaranteed CPU
    /// time) the prefetcher really does pull pages in ahead of it. Retried a
    /// few times because scheduling is the OS's call — one pass is normally
    /// enough.
    #[test]
    fn read_ahead_thread_installs_pages_before_the_scanner() {
        let mgr = manager(1, 512);
        let data = vec![rows(700, "ahead")];
        let (store, _) = SpilledPartitions::write(Arc::clone(&mgr), &data).unwrap();
        for _ in 0..50 {
            store
                .scan_pages(0, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    Ok(true)
                })
                .unwrap();
            if mgr.pool_diagnostics().prefetches > 0 {
                return;
            }
        }
        panic!(
            "read-ahead never installed a page: {:?}",
            mgr.pool_diagnostics()
        );
    }

    /// Full pages are column runs that the LZ codec packs below their
    /// logical row-codec volume; row scans and batch scans deliver the rows
    /// written with the same logical tally.
    #[test]
    fn columnar_pages_shrink_stored_bytes_and_keep_logical_figures() {
        // Realistic tabular pages at the default 64 KiB page size: repeated
        // categorical strings and typed number columns.
        let tabular = |n: i64, tag: &str| -> Vec<Tuple> {
            (0..n)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int64(i),
                        Value::Utf8(format!("{tag}-{:06}", i % 1000)),
                        Value::Float64(i as f64 / 7.0),
                    ])
                })
                .collect()
        };
        let data = [tabular(20_000, "payload"), tabular(5_000, "other")];
        let mgr = manager_with(SpillConfig::default().with_budget(1));
        let (store, tally) = SpilledPartitions::write(Arc::clone(&mgr), &data).unwrap();
        assert!(tally.pages > 2, "{tally:?}");
        assert!(store
            .parts
            .iter()
            .flat_map(|p| &p.pages)
            .all(|m| m.columnar));
        assert!(
            tally.bytes * 2 < tally.logical_bytes,
            "column runs compress: {tally:?}"
        );
        for (p, partition) in data.iter().enumerate() {
            let (rows, row_tally) = store.read_partition_tallied(p).unwrap();
            assert_eq!(&rows, partition, "partition {p} rows identical");
            let mut via_batches = Vec::new();
            let batch_tally = store
                .scan_batches(p, |batch| {
                    via_batches.extend(batch.to_rows());
                    Ok(true)
                })
                .unwrap();
            assert_eq!(&via_batches, partition);
            assert_eq!(batch_tally, row_tally, "batch scan tally matches row scan");
        }
    }

    /// `scan_batches` over row-layout pages (tails under 1 KiB) converts per
    /// page — rows and tallies still match the row scan exactly.
    #[test]
    fn batch_scans_over_row_pages_match_row_scans() {
        let mgr = manager_with(SpillConfig::default().with_budget(1));
        let data: Vec<Vec<Tuple>> = (0..4).map(|p| rows(8 + p, "rb")).collect();
        let (store, _) = SpilledPartitions::write(Arc::clone(&mgr), &data).unwrap();
        assert!(store
            .parts
            .iter()
            .flat_map(|p| &p.pages)
            .all(|m| !m.columnar));
        for (p, partition) in data.iter().enumerate() {
            let (expected, row_tally) = store.read_partition_tallied(p).unwrap();
            assert_eq!(&expected, partition);
            let mut got = Vec::new();
            let batch_tally = store
                .scan_batches(p, |batch| {
                    got.extend(batch.to_rows());
                    Ok(true)
                })
                .unwrap();
            assert_eq!(got, expected);
            assert_eq!(batch_tally, row_tally);
        }
    }

    #[test]
    fn streaming_writer_bounds_its_transient_footprint() {
        let mgr = manager(1, 512);
        let fanout = 4;
        let mut writer = SpillPartitionWriter::new(Arc::clone(&mgr), fanout).unwrap();
        let data = rows(2_000, "stream");
        for (i, row) in data.iter().enumerate() {
            writer.append(i % fanout, row).unwrap();
        }
        let peak = writer.peak_buffered_bytes();
        let (store, tally) = writer.finish().unwrap();
        assert!(peak > 0);
        // One page-sized buffer per partition, plus at most one row of
        // overshoot per buffer (a page holds at least one row).
        let max_row = 64u64;
        assert!(
            peak <= fanout as u64 * (512 + max_row),
            "peak {peak} exceeds fanout × page"
        );
        assert!(
            tally.logical_bytes > 4 * peak,
            "the spilled volume dwarfs the buffered footprint: {tally:?} vs {peak}"
        );
        // Round-robin routing: partition p holds every 4th row, in order.
        for p in 0..fanout {
            let expected: Vec<Tuple> = data.iter().skip(p).step_by(fanout).cloned().collect();
            assert_eq!(store.read_partition(p).unwrap(), expected);
        }
    }

    /// Rows whose column representations change along the way: a typed
    /// column with NULL slots, an all-NULL stretch (a `Mixed` slice in any
    /// batch cut from it), a column that mixes variants, and strings long
    /// enough to overshoot a 512-byte page.
    fn awkward_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    if (200..400).contains(&i) || i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Float64(i as f64 / 3.0)
                    },
                    match i % 3 {
                        0 => Value::Date(i),
                        1 => Value::Utf8(format!("mixed-{i}")),
                        _ => Value::Bool(i % 2 == 0),
                    },
                    Value::Utf8("s".repeat((i % 97) as usize * if i % 89 == 0 { 9 } else { 1 })),
                ])
            })
            .collect()
    }

    /// However rows reach the writer — one tuple at a time, as whole batches,
    /// or routed slot by slot across partitions — the same pages are cut:
    /// same per-page row counts, logical lengths and layouts, same tallies
    /// (stored bytes included), same buffered-bytes high-water mark, same
    /// rows back. At two chunk sizes.
    #[test]
    fn append_batch_cuts_the_same_pages_as_row_appends() {
        #[derive(Clone, Copy, Debug)]
        enum Feed {
            Rows,
            Batches(usize),
            Routed(usize),
        }
        let data = awkward_rows(900);
        let write = |feed: Feed| {
            let mgr = manager(1, 512);
            let mut writer = SpillPartitionWriter::new(Arc::clone(&mgr), 3).unwrap();
            // Row `i` goes to partition `i % 3` unless every 7th, which is
            // dropped — except under `Batches`, which feeds stretches of 300
            // rows to one partition each.
            let route = |i: usize| (!i.is_multiple_of(7)).then_some(i % 3);
            match feed {
                Feed::Rows => {
                    for (i, row) in data.iter().enumerate() {
                        if let Some(p) = route(i) {
                            writer.append(p, row).unwrap();
                        }
                    }
                }
                Feed::Routed(chunk) => {
                    for (c, rows) in data.chunks(chunk).enumerate() {
                        let routes = (0..rows.len())
                            .filter_map(|s| route(c * chunk + s).map(|p| (p, s as u32)));
                        writer
                            .append_rows(&Batch::from_rows(4, rows), routes)
                            .unwrap();
                    }
                }
                Feed::Batches(chunk) => {
                    for (p, part) in data.chunks(300).enumerate() {
                        for rows in part.chunks(chunk) {
                            writer.append_batch(p, &Batch::from_rows(4, rows)).unwrap();
                        }
                    }
                }
            }
            let peak = writer.peak_buffered_bytes();
            let (store, tally) = writer.finish().unwrap();
            let pages: Vec<Vec<(u32, u32, bool)>> = store
                .parts
                .iter()
                .map(|part| {
                    part.pages
                        .iter()
                        .map(|m| (m.rows, m.logical_len, m.columnar))
                        .collect()
                })
                .collect();
            let rows: Vec<Vec<Tuple>> = (0..3).map(|p| store.read_partition(p).unwrap()).collect();
            (tally, peak, store.approx_bytes(), pages, rows)
        };
        let by_rows = write(Feed::Rows);
        assert!(
            by_rows.0.pages > 20,
            "multi-page partitions: {:?}",
            by_rows.0
        );
        for chunk in [3, 64] {
            assert_eq!(write(Feed::Routed(chunk)), by_rows, "chunk={chunk}");
        }
        // Whole-batch appends against the same stretches fed row by row.
        let by_batches = write(Feed::Batches(64));
        assert_eq!(write(Feed::Batches(3)), by_batches);
        let expected: Vec<Vec<Tuple>> = data.chunks(300).map(<[Tuple]>::to_vec).collect();
        assert_eq!(by_batches.4, expected);
        let expected_bytes: usize = data.iter().map(Tuple::approx_bytes).sum();
        assert_eq!(by_batches.2, expected_bytes);
    }

    /// The layout is fixed before a page is encoded: columnar pages, except
    /// tails under the 1 KiB floor.
    #[test]
    fn page_layout_follows_the_pre_encode_rule() {
        let layouts = |page_size: usize, rows: i64| {
            let (store, _) =
                SpilledPartitions::write(manager(1, page_size), &[awkward_rows(rows)]).unwrap();
            let pages = &store.parts[0].pages;
            pages
                .iter()
                .map(|m| (m.logical_len as usize, m.columnar))
                .collect::<Vec<_>>()
        };
        let pages = layouts(4096, 500);
        assert!(pages.len() > 3);
        for (len, col) in pages {
            assert_eq!(col, len >= MIN_COLUMNAR_PAGE_BYTES, "page of {len} bytes");
        }
        // Below a 1 KiB page size every full page is still columnar.
        let pages = layouts(512, 500);
        let (tail, full) = pages.split_last().unwrap();
        assert!(full.iter().all(|&(len, col)| len >= 512 && col));
        assert_eq!(tail.1, tail.0 >= 512);
    }

    /// A page the LZ codec cannot shrink is stored raw, one flag byte over
    /// its body, and reads back unchanged.
    #[test]
    fn incompressible_pages_are_stored_raw_and_roundtrip() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let noise: String = (0..900)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                char::from(b'!' + (state % 94) as u8)
            })
            .collect();
        let data = vec![vec![Tuple::new(vec![Value::Utf8(noise)])]];
        let (store, tally) = SpilledPartitions::write(manager(1, 4096), &data).unwrap();
        let page = store.parts[0].pages[0];
        assert_eq!(tally.pages, 1);
        assert!(!page.columnar, "a sub-1 KiB tail is a row-codec page");
        assert_eq!(tally.bytes, tally.logical_bytes + 1, "{tally:?}");
        assert_eq!(store.read_partition(0).unwrap(), data[0]);
    }

    #[test]
    fn abandoned_writer_deletes_its_file() {
        let mgr = manager(1, 512);
        let mut writer = SpillPartitionWriter::new(Arc::clone(&mgr), 2).unwrap();
        for row in rows(200, "abandon") {
            writer.append(0, &row).unwrap();
        }
        drop(writer);
        assert_eq!(
            std::fs::read_dir(mgr.dir()).unwrap().count(),
            0,
            "unfinished writer cleans up its spill file"
        );
    }

    #[test]
    fn oversized_rows_get_their_own_pages() {
        let mgr = manager(1, 512);
        let big = Tuple::new(vec![Value::Utf8("z".repeat(10_000))]);
        let partitions = vec![vec![big.clone(), big.clone()]];
        let (store, tally) = SpilledPartitions::write(Arc::clone(&mgr), &partitions).unwrap();
        assert_eq!(tally.pages, 2, "one oversized page per row");
        assert_eq!(store.read_partition(0).unwrap(), partitions[0]);
    }

    #[test]
    fn drop_deletes_the_spill_file() {
        let mgr = manager(1, 512);
        let (store, _) = SpilledPartitions::write(Arc::clone(&mgr), &[rows(50, "d")]).unwrap();
        let path = store.path.clone();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists(), "file removed with the store");
        assert_eq!(
            std::fs::read_dir(mgr.dir()).unwrap().count(),
            0,
            "spill dir empty"
        );
    }
}
