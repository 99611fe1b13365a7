//! The spill manager: budget policy, temp-directory ownership and the shared
//! buffer pool.

use crate::buffer::{BufferPool, PoolDiagnostics, SpillFile};
use rdo_common::{env, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Environment variable naming the per-query memory budget (bytes) for
/// materialized intermediate results. When set, intermediates that would push
/// the resident working set past the budget are spilled to disk.
pub const SPILL_BUDGET_ENV: &str = "RDO_SPILL_BUDGET";

/// Environment variable naming the per-partition memory budget (bytes) for
/// join build sides. When set, any hash/broadcast join whose build side
/// exceeds the budget runs as a grace/hybrid hash join: both sides are
/// partitioned into spill files, as many build partitions as fit stay
/// resident, and spilled partition pairs are joined recursively.
pub const JOIN_BUDGET_ENV: &str = "RDO_JOIN_BUDGET";

/// Environment variable switching spill-page compression on or off
/// (`0`/`1`, `true`/`false`, `on`/`off`). Compression is **on by default**;
/// exporting `RDO_SPILL_COMPRESS=0` restores raw pages.
pub const SPILL_COMPRESS_ENV: &str = "RDO_SPILL_COMPRESS";

/// Environment variable setting the read-ahead lookahead, in pages, for scans
/// of spill files (`0` disables prefetching).
pub const SPILL_PREFETCH_ENV: &str = "RDO_SPILL_PREFETCH";

/// Default page size of the spill store (64 KiB, AsterixDB's frame default).
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

/// Default read-ahead lookahead in pages: double-buffered — the prefetcher
/// reads up to two pages ahead while the scanner decodes the current one.
pub const DEFAULT_PREFETCH_PAGES: usize = 2;

/// Knobs of the disk-backed materialization subsystem. `Copy` so it threads
/// through `DynamicConfig` like the parallel knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillConfig {
    /// Memory budget in bytes for resident (in-memory) materialized
    /// intermediates. `None` disables spilling entirely — every intermediate
    /// stays in RAM, the pre-spill behaviour.
    pub budget_bytes: Option<u64>,
    /// Memory budget in bytes for the build side of one join partition.
    /// `None` keeps every build hash table fully in memory; `Some(b)` makes
    /// joins whose build side exceeds `b` bytes run as grace/hybrid hash
    /// joins through the spill store.
    pub join_budget_bytes: Option<u64>,
    /// Target page size in bytes. A page holds at least one row, so oversized
    /// rows produce oversized pages rather than errors.
    pub page_size: usize,
    /// Buffer-pool frame count. `0` derives it from the budget
    /// (`budget / page_size`, clamped to `[16, 1024]`).
    pub frames: usize,
    /// Page compression (the LZ block codec of [`crate::compress`]). On by
    /// default: pages that actually shrink are stored compressed, the rest
    /// stay raw at the cost of one flag byte. Purely physical — decoded rows,
    /// page boundaries and all logical byte counters are identical either
    /// way.
    pub compress: bool,
    /// Read-ahead lookahead in pages for scans of spill files: a prefetch
    /// thread keeps up to this many pages ahead of the scanner resident in
    /// the buffer pool, overlapping disk reads with page decoding. `0`
    /// disables prefetching (fully synchronous reads).
    pub prefetch_pages: usize,
    /// Columnar page layout ([`crate::colcodec`]): pages store their rows as
    /// column runs — type tag, null bitmap, contiguous values — so the LZ
    /// compressor sees same-type byte runs (tail pages under 1 KiB stay in
    /// the row codec; each page is encoded once, in one layout). On by
    /// default (`RDO_COLUMNAR`; this field and the wire frames of `rdo-net`
    /// are all the knob selects — resident tables are columnar regardless).
    /// Purely physical: decoded rows, page boundaries, per-page row counts
    /// and all *logical* byte counters are identical to the row codec.
    pub columnar: bool,
}

impl Default for SpillConfig {
    fn default() -> Self {
        Self {
            budget_bytes: None,
            join_budget_bytes: None,
            page_size: DEFAULT_PAGE_SIZE,
            frames: 0,
            compress: true,
            prefetch_pages: DEFAULT_PREFETCH_PAGES,
            columnar: rdo_common::columnar_default(),
        }
    }
}

impl SpillConfig {
    /// Spilling disabled (everything stays in memory).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// The default configuration with the `RDO_SPILL_BUDGET`,
    /// `RDO_JOIN_BUDGET`, `RDO_SPILL_COMPRESS` and `RDO_SPILL_PREFETCH`
    /// environment variables applied — `DynamicConfig::default()` uses this,
    /// so exporting any of them drives the whole driver (and the tier-1 test
    /// suite) through the corresponding out-of-core path without code
    /// changes. All four parse through the shared warn-on-invalid helpers of
    /// [`rdo_common::env`].
    pub fn from_env() -> Self {
        Self::from_env_with(|var| std::env::var(var).ok())
    }

    /// [`SpillConfig::from_env`] over an injectable variable lookup, so the
    /// override logic is testable without mutating the process environment
    /// (concurrent `setenv`/`getenv` is undefined behaviour on glibc).
    fn from_env_with(lookup: impl Fn(&str) -> Option<String>) -> Self {
        fn get<T>(
            lookup: &impl Fn(&str) -> Option<String>,
            var: &str,
            fallback: &str,
            parser: fn(&str, &str, &str) -> std::result::Result<T, String>,
        ) -> Option<T> {
            lookup(var).and_then(|raw| env::parse_or_warn(var, &raw, fallback, parser))
        }
        let defaults = Self::default();
        Self {
            budget_bytes: get(
                &lookup,
                SPILL_BUDGET_ENV,
                "spilling stays disabled",
                env::parse_env_u64,
            ),
            join_budget_bytes: get(
                &lookup,
                JOIN_BUDGET_ENV,
                "the grace hash join stays disabled",
                env::parse_env_u64,
            ),
            compress: get(
                &lookup,
                SPILL_COMPRESS_ENV,
                "spill-page compression stays on",
                env::parse_env_bool,
            )
            .unwrap_or(defaults.compress),
            prefetch_pages: get(
                &lookup,
                SPILL_PREFETCH_ENV,
                "the default read-ahead stays in effect",
                env::parse_env_usize,
            )
            .unwrap_or(defaults.prefetch_pages),
            columnar: get(
                &lookup,
                rdo_common::COLUMNAR_ENV,
                "the columnar page layout stays on",
                env::parse_env_bool,
            )
            .unwrap_or(defaults.columnar),
            ..defaults
        }
    }

    /// Builder-style budget override.
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Builder-style join-build-side budget override.
    pub fn with_join_budget(mut self, bytes: u64) -> Self {
        self.join_budget_bytes = Some(bytes);
        self
    }

    /// Builder-style page-size override (clamped to at least 512 bytes).
    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes.max(512);
        self
    }

    /// Builder-style compression switch.
    pub fn with_compression(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }

    /// Builder-style read-ahead override (`0` disables prefetching).
    pub fn with_prefetch_pages(mut self, pages: usize) -> Self {
        self.prefetch_pages = pages;
        self
    }

    /// Builder-style columnar page-layout switch (`false` restores the
    /// row-at-a-time page codec).
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.columnar = columnar;
        self
    }

    /// True if any budget is set (a spill directory and buffer pool are
    /// needed, either for materialized intermediates or for grace joins).
    pub fn enabled(&self) -> bool {
        self.budget_bytes.is_some() || self.join_budget_bytes.is_some()
    }

    /// The buffer-pool frame count this configuration implies.
    pub fn effective_frames(&self) -> usize {
        if self.frames > 0 {
            return self.frames;
        }
        let budget = self
            .budget_bytes
            .unwrap_or(0)
            .max(self.join_budget_bytes.unwrap_or(0)) as usize;
        (budget / self.page_size.max(1)).clamp(16, 1024)
    }
}

/// Logical page-write volume of one spill operation. Deterministic (a pure
/// function of the spilled rows and the compression switch), unlike the
/// buffer pool's physical hit/miss/writeback activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillWriteTally {
    /// Pages appended to the store.
    pub pages: u64,
    /// Stored bytes appended — compressed size when page compression is on.
    pub bytes: u64,
    /// Uncompressed serialized bytes the pages decode back to. Equal to
    /// `bytes` when compression is off; the `bytes / logical_bytes` ratio is
    /// the measured compression ratio.
    pub logical_bytes: u64,
}

/// Logical page-read volume of one scan over a spilled table. Zero for
/// memory-resident tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillReadTally {
    /// Pages fetched (through the buffer pool).
    pub pages: u64,
    /// Stored bytes fetched — compressed size when page compression is on.
    pub bytes: u64,
    /// Uncompressed serialized bytes the fetched pages decoded back to.
    pub logical_bytes: u64,
}

impl SpillReadTally {
    /// Adds another tally into this one (partition-order fold).
    pub fn add(&mut self, other: &SpillReadTally) {
        self.pages += other.pages;
        self.bytes += other.bytes;
        self.logical_bytes += other.logical_bytes;
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Owns the spill directory, the shared buffer pool and the budget
/// accounting. One manager serves every spilled table of a catalog; tables
/// keep it alive through an `Arc`, and the directory is removed when the last
/// reference drops.
#[derive(Debug)]
pub struct SpillManager {
    config: SpillConfig,
    dir: PathBuf,
    pool: BufferPool,
    /// Bytes of *memory-resident* temporary tables currently registered. The
    /// spill policy compares `resident + incoming` against the budget.
    resident_bytes: AtomicU64,
    next_file: AtomicU64,
}

impl SpillManager {
    /// Creates a manager with a fresh private spill directory under the
    /// system temp dir.
    pub fn create(config: SpillConfig) -> Result<Arc<Self>> {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rdo-spill-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Arc::new(Self {
            config,
            dir,
            pool: BufferPool::new(config.effective_frames()),
            resident_bytes: AtomicU64::new(0),
            next_file: AtomicU64::new(0),
        }))
    }

    /// The manager's configuration.
    pub fn config(&self) -> SpillConfig {
        self.config
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Buffer-pool activity snapshot.
    pub fn pool_diagnostics(&self) -> PoolDiagnostics {
        self.pool.diagnostics()
    }

    /// The spill policy: would keeping `bytes` more resident intermediate
    /// bytes exceed the budget? Deterministic given the sequence of
    /// [`SpillManager::retain`]/[`SpillManager::release`] calls.
    pub fn wants_spill(&self, bytes: u64) -> bool {
        match self.config.budget_bytes {
            Some(budget) => {
                self.resident_bytes
                    .load(Ordering::Relaxed)
                    .saturating_add(bytes)
                    > budget
            }
            None => false,
        }
    }

    /// Records `bytes` of a memory-resident intermediate against the budget.
    pub fn retain(&self, bytes: u64) {
        self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Releases `bytes` of a dropped memory-resident intermediate.
    pub fn release(&self, bytes: u64) {
        let _ = self
            .resident_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Bytes of memory-resident intermediates currently tracked.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// Creates a fresh spill file and registers it with the buffer pool.
    /// Returns its id and path; the caller owns the path (deletes it on drop)
    /// and must call [`BufferPool::drop_file`] first.
    pub fn create_file(&self) -> Result<(u64, PathBuf)> {
        let id = self.next_file.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("intermediate-{id}.pages"));
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        self.pool.register_file(id, Arc::new(SpillFile::new(file)));
        Ok((id, path))
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        // Best-effort cleanup; spilled tables deleted their files already.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_policy_tracks_resident_bytes() {
        let mgr = SpillManager::create(SpillConfig::default().with_budget(1_000)).unwrap();
        assert!(!mgr.wants_spill(1_000), "exactly at budget fits");
        assert!(mgr.wants_spill(1_001));
        mgr.retain(600);
        assert!(!mgr.wants_spill(400));
        assert!(mgr.wants_spill(401));
        mgr.release(600);
        assert!(!mgr.wants_spill(1_000));
        mgr.release(1_000_000);
        assert_eq!(mgr.resident_bytes(), 0, "release saturates at zero");
    }

    #[test]
    fn disabled_config_never_spills() {
        let mgr = SpillManager::create(SpillConfig::disabled()).unwrap();
        assert!(!mgr.wants_spill(u64::MAX));
        assert!(!SpillConfig::disabled().enabled());
        assert!(SpillConfig::default().with_budget(1).enabled());
    }

    #[test]
    fn join_budget_enables_the_subsystem_but_not_intermediate_spilling() {
        let config = SpillConfig::default().with_join_budget(4096);
        assert!(config.enabled(), "a join budget needs a spill dir and pool");
        assert_eq!(config.join_budget_bytes, Some(4096));
        let mgr = SpillManager::create(config).unwrap();
        assert!(
            !mgr.wants_spill(u64::MAX),
            "intermediates spill only under RDO_SPILL_BUDGET"
        );
    }

    #[test]
    fn effective_frames_consider_the_join_budget() {
        let config = SpillConfig::default().with_join_budget(64 * DEFAULT_PAGE_SIZE as u64);
        assert_eq!(config.effective_frames(), 64);
        let both = SpillConfig::default()
            .with_budget(32 * DEFAULT_PAGE_SIZE as u64)
            .with_join_budget(128 * DEFAULT_PAGE_SIZE as u64);
        assert_eq!(both.effective_frames(), 128, "larger budget wins");
    }

    #[test]
    fn effective_frames_derive_from_budget() {
        let tiny = SpillConfig::default().with_budget(1);
        assert_eq!(tiny.effective_frames(), 16, "clamped from below");
        let big = SpillConfig::default().with_budget(1 << 40);
        assert_eq!(big.effective_frames(), 1024, "clamped from above");
        let mid = SpillConfig {
            budget_bytes: Some(64 * DEFAULT_PAGE_SIZE as u64),
            ..SpillConfig::default()
        };
        assert_eq!(mid.effective_frames(), 64);
        let explicit = SpillConfig {
            frames: 7,
            ..SpillConfig::default()
        };
        assert_eq!(explicit.effective_frames(), 7);
    }

    #[test]
    fn compression_and_prefetch_knobs_default_on_and_thread_through_builders() {
        let config = SpillConfig::default();
        assert!(config.compress, "page compression is on by default");
        assert_eq!(config.prefetch_pages, DEFAULT_PREFETCH_PAGES);
        let off = config.with_compression(false).with_prefetch_pages(0);
        assert!(!off.compress);
        assert_eq!(off.prefetch_pages, 0);
        let tuned = SpillConfig::default().with_prefetch_pages(8);
        assert_eq!(tuned.prefetch_pages, 8);
    }

    /// The env overrides parse through the shared warn-on-invalid helpers: a
    /// garbage value keeps the default instead of silently flipping the
    /// knob. Exercised through the injectable lookup — never `set_var`, which
    /// is unsound next to concurrent `getenv` callers like
    /// `std::env::temp_dir`.
    #[test]
    fn fast_path_env_overrides_apply_and_garbage_keeps_defaults() {
        let config = SpillConfig::from_env_with(|var| match var {
            SPILL_COMPRESS_ENV => Some("0".to_string()),
            SPILL_PREFETCH_ENV => Some("6".to_string()),
            SPILL_BUDGET_ENV => Some("1048576".to_string()),
            _ => None,
        });
        assert!(
            !config.compress,
            "RDO_SPILL_COMPRESS=0 turns compression off"
        );
        assert_eq!(config.prefetch_pages, 6);
        assert_eq!(config.budget_bytes, Some(1_048_576));
        assert_eq!(config.join_budget_bytes, None);

        let config = SpillConfig::from_env_with(|var| match var {
            SPILL_COMPRESS_ENV => Some("sideways".to_string()),
            SPILL_PREFETCH_ENV => Some("-3".to_string()),
            _ => None,
        });
        assert!(config.compress, "invalid switch warns and stays on");
        assert_eq!(
            config.prefetch_pages, DEFAULT_PREFETCH_PAGES,
            "invalid lookahead warns and keeps the default"
        );
    }

    /// The `RDO_COLUMNAR` switch flows through the same injectable lookup:
    /// valid values flip the page layout, garbage warns and keeps the
    /// process-wide default. The default itself *is* the real environment
    /// knob (`columnar_default()`), so the assertions here compare against
    /// it instead of a literal — the suite runs under CI legs that export
    /// `RDO_COLUMNAR` for the whole process.
    #[test]
    fn columnar_knob_parses_or_warns() {
        let config = SpillConfig::default();
        assert_eq!(
            config.columnar,
            rdo_common::columnar_default(),
            "the config default is the process-wide page layout"
        );
        if std::env::var(rdo_common::COLUMNAR_ENV).is_err() {
            assert!(config.columnar, "columnar pages are on by default");
        }
        assert!(!config.with_columnar(false).columnar);
        assert!(SpillConfig::default().with_columnar(true).columnar);

        let off = SpillConfig::from_env_with(|var| match var {
            rdo_common::COLUMNAR_ENV => Some("off".to_string()),
            _ => None,
        });
        assert!(!off.columnar, "RDO_COLUMNAR=off restores row pages");

        let on = SpillConfig::from_env_with(|var| match var {
            rdo_common::COLUMNAR_ENV => Some("1".to_string()),
            _ => None,
        });
        assert!(on.columnar, "RDO_COLUMNAR=1 selects columnar pages");

        let garbage = SpillConfig::from_env_with(|var| match var {
            rdo_common::COLUMNAR_ENV => Some("diagonal".to_string()),
            _ => None,
        });
        assert_eq!(
            garbage.columnar,
            rdo_common::columnar_default(),
            "invalid switch warns and keeps the process default"
        );
    }

    #[test]
    fn spill_directory_lives_and_dies_with_the_manager() {
        let mgr = SpillManager::create(SpillConfig::default().with_budget(10)).unwrap();
        let dir = mgr.dir().to_path_buf();
        assert!(dir.is_dir());
        let (id, path) = mgr.create_file().unwrap();
        assert!(path.exists());
        mgr.pool().drop_file(id);
        std::fs::remove_file(&path).unwrap();
        drop(mgr);
        assert!(!dir.exists(), "directory removed on drop");
    }
}
