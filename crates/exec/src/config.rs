//! Configuration of the partition-parallel executor.

/// Knobs of the partition-parallel executor, threaded through
/// `DynamicConfig` and the strategy runner so every strategy (dynamic,
/// cost-based, best/worst-order, pilot-run, INGRES-like) executes through the
/// same worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads. `1` runs every partition task in a plain
    /// loop on the calling thread (no thread is spawned); values above the
    /// partition count are harmless (excess workers find the task counter
    /// exhausted and exit).
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl ParallelConfig {
    /// Single-worker configuration: every task runs on the calling thread.
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// Builder-style worker-count override.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The default configuration with the `RDO_WORKERS` environment
    /// variable applied — the bench harness uses this so figures
    /// are reproducible on any machine by pinning the worker count. A
    /// set-but-invalid value silently falling back to a default would make a
    /// pinned CI leg test something else entirely; the shared
    /// [`rdo_common::env`] reader warns loudly instead (matching the
    /// RDO_SPILL_* parsers).
    pub fn from_env() -> Self {
        let config = Self::default();
        rdo_common::env::read_env(
            WORKERS_ENV,
            "using the machine default",
            rdo_common::env::parse_env_positive_usize,
        )
        .map_or(config, |workers| config.with_workers(workers))
    }
}

/// Environment variable pinning the worker count of the partition-parallel
/// executor.
pub const WORKERS_ENV: &str = "RDO_WORKERS";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_has_at_least_one_worker() {
        let config = ParallelConfig::default();
        assert!(config.workers >= 1);
    }

    #[test]
    fn serial_is_one_worker() {
        assert_eq!(ParallelConfig::serial().workers, 1);
    }

    #[test]
    fn builders_clamp_to_one() {
        assert_eq!(ParallelConfig::serial().with_workers(0).workers, 1);
    }

    #[test]
    fn worker_env_values_parse_or_warn() {
        let parse = |raw| {
            rdo_common::env::parse_env_positive_usize(WORKERS_ENV, raw, "using the machine default")
        };
        assert_eq!(parse("4"), Ok(4));
        assert_eq!(parse(" 8 "), Ok(8), "whitespace is tolerated");
        for invalid in ["", "0", "-2", "two", "1.5", "4 workers"] {
            let warning = parse(invalid).expect_err(invalid);
            assert!(
                warning.contains("RDO_WORKERS") && warning.contains("warning"),
                "warning names the variable: {warning}"
            );
        }
    }

    #[test]
    fn with_workers_keeps_explicit_counts() {
        assert_eq!(ParallelConfig::serial().with_workers(6).workers, 6);
        assert_eq!(
            ParallelConfig::default().with_workers(1),
            ParallelConfig::serial()
        );
    }
}
