//! The spill manager: budget policy, temp-directory ownership and the shared
//! buffer pool.
//!
//! [`SpillConfig`] is the two budgets and the page size — nothing else. How
//! a page is laid out, compressed and read back is the store's fixed policy
//! ([`crate::store`]), not a setting.

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

/// Default page size of the spill store (64 KiB, AsterixDB's frame default).
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;

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
}

impl Default for SpillConfig {
    fn default() -> Self {
        Self {
            budget_bytes: None,
            join_budget_bytes: None,
            page_size: DEFAULT_PAGE_SIZE,
        }
    }
}

impl SpillConfig {
    /// Spilling disabled (everything stays in memory).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// The default configuration with the `RDO_SPILL_BUDGET` and
    /// `RDO_JOIN_BUDGET` environment variables applied —
    /// `DynamicConfig::default()` uses this, so exporting either drives the
    /// whole driver (and the tier-1 test suite) through the corresponding
    /// out-of-core path without code changes. Both parse through the shared
    /// warn-on-invalid helpers of [`rdo_common::env`].
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
            ..Self::default()
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

    /// True if any budget is set (a spill directory and buffer pool are
    /// needed, either for materialized intermediates or for grace joins).
    pub fn enabled(&self) -> bool {
        self.budget_bytes.is_some() || self.join_budget_bytes.is_some()
    }

    /// The buffer-pool frame count this configuration implies: the larger
    /// budget over the page size, clamped to `[16, 1024]`.
    pub fn effective_frames(&self) -> usize {
        let budget = self
            .budget_bytes
            .unwrap_or(0)
            .max(self.join_budget_bytes.unwrap_or(0)) as usize;
        (budget / self.page_size.max(1)).clamp(16, 1024)
    }
}

/// Logical page-write volume of one spill operation. Deterministic (a pure
/// function of the spilled rows and the page size), unlike the buffer pool's
/// physical hit/miss/writeback activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillWriteTally {
    /// Pages appended to the store.
    pub pages: u64,
    /// Stored bytes appended — the LZ-framed page blobs.
    pub bytes: u64,
    /// Row-codec bytes the pages stand for; the `bytes / logical_bytes`
    /// ratio is the measured compression ratio.
    pub logical_bytes: u64,
}

/// Logical page-read volume of one scan over a spilled table. Zero for
/// memory-resident tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillReadTally {
    /// Pages fetched (through the buffer pool).
    pub pages: u64,
    /// Stored bytes fetched — the LZ-framed page blobs.
    pub bytes: u64,
    /// Row-codec bytes the fetched pages stand for.
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
    }

    /// The budget overrides parse through the shared warn-on-invalid
    /// helpers: a garbage value keeps the default instead of silently
    /// enabling a path. Exercised through the injectable lookup — never
    /// `set_var`, which is unsound next to concurrent `getenv` callers like
    /// `std::env::temp_dir`.
    #[test]
    fn budget_env_overrides_apply_and_garbage_keeps_defaults() {
        let config = SpillConfig::from_env_with(|var| match var {
            SPILL_BUDGET_ENV => Some("1048576".to_string()),
            _ => None,
        });
        assert_eq!(config.budget_bytes, Some(1_048_576));
        assert_eq!(config.join_budget_bytes, None);
        assert_eq!(config.page_size, DEFAULT_PAGE_SIZE);

        let config = SpillConfig::from_env_with(|var| match var {
            JOIN_BUDGET_ENV => Some("-3".to_string()),
            _ => None,
        });
        assert_eq!(config, SpillConfig::default(), "invalid budget warns");
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
