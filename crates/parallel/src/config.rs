//! Configuration of the partition-parallel executor.

/// Which transport backs the exchange operators (see [`crate::transport`]).
///
/// The kind is a plain, copyable *selection*; resolving it into a concrete
/// [`crate::Transport`] object happens where the executors are built (the
/// `rdo-core` driver and runner, via `rdo-net` for the TCP backend), so this
/// crate never depends on the networking stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Exchanges are in-process memory moves on the coordinator (the
    /// default, and the only behavior that existed before `rdo-net`).
    #[default]
    InProcess,
    /// Exchanges flow as framed page batches over TCP through the worker
    /// processes listed in `RDO_NET_WORKERS` (see `rdo_net`). Falls back to
    /// in-process execution, with a warning, when no workers are reachable.
    Tcp,
}

impl TransportKind {
    /// Short label used in reports and warnings.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::InProcess => "in-process",
            TransportKind::Tcp => "tcp",
        }
    }

    /// The `RDO_TRANSPORT` selection, in-process when unset (set-but-invalid
    /// values warn and keep the default, like every other `RDO_*` knob).
    /// `DynamicConfig::default()`, the strategy runner and the bench harness
    /// all read this, so exporting the variable routes every driver-, runner-
    /// and figures-based execution through the selected transport.
    pub fn from_env() -> Self {
        rdo_common::env::read_env(TRANSPORT_ENV, "staying in-process", parse_transport_env)
            .unwrap_or_default()
    }
}

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
    /// Transport backing the exchange operators. Results and metrics are
    /// bit-identical for every kind; only the physical route differs.
    pub transport: TransportKind,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            transport: TransportKind::InProcess,
        }
    }
}

impl ParallelConfig {
    /// Single-worker configuration: every task runs on the calling thread.
    pub fn serial() -> Self {
        Self {
            workers: 1,
            transport: TransportKind::InProcess,
        }
    }

    /// Builder-style worker-count override.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style transport selection.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// The default configuration with the `RDO_WORKERS` and `RDO_TRANSPORT`
    /// environment variables applied — the bench harness uses this so figures
    /// are reproducible on any machine by pinning the worker count. A
    /// set-but-invalid value silently falling back to a default would make a
    /// pinned CI leg test something else entirely; the shared
    /// [`rdo_common::env`] reader warns loudly instead (matching the
    /// RDO_SPILL_* parsers).
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(workers) = rdo_common::env::read_env(
            WORKERS_ENV,
            "using the machine default",
            rdo_common::env::parse_env_positive_usize,
        ) {
            config = config.with_workers(workers);
        }
        config.with_transport(TransportKind::from_env())
    }
}

/// Environment variable pinning the worker count of the partition-parallel
/// executor.
pub const WORKERS_ENV: &str = "RDO_WORKERS";

/// Environment variable selecting the exchange transport (`inprocess` /
/// `tcp`). The TCP backend additionally needs worker addresses in
/// `RDO_NET_WORKERS` (see `rdo_net`).
pub const TRANSPORT_ENV: &str = "RDO_TRANSPORT";

/// Parses an `RDO_WORKERS` value through the shared warn-on-invalid helper of
/// [`rdo_common::env`]. Returns the warning to print when the value is not a
/// positive integer (`from_env` keeps the default in that case).
pub fn parse_workers(raw: &str) -> std::result::Result<usize, String> {
    rdo_common::env::parse_env_positive_usize(WORKERS_ENV, raw, "using the machine default")
}

/// Parses an `RDO_TRANSPORT` value: `inprocess`/`in-process`/`local` select
/// the default in-process transport, `tcp` selects the `rdo-net` TCP backend.
/// Anything else returns the warning to print (the caller keeps the default).
pub fn parse_transport_env(
    var: &str,
    raw: &str,
    fallback: &str,
) -> std::result::Result<TransportKind, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "inprocess" | "in-process" | "local" => Ok(TransportKind::InProcess),
        "tcp" => Ok(TransportKind::Tcp),
        _ => Err(format!(
            "warning: {var}={raw:?} is not a transport \
             (inprocess or tcp expected); {fallback}"
        )),
    }
}

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
        assert_eq!(parse_workers("4"), Ok(4));
        assert_eq!(parse_workers(" 8 "), Ok(8), "whitespace is tolerated");
        for invalid in ["", "0", "-2", "two", "1.5", "4 workers"] {
            let warning = parse_workers(invalid).expect_err(invalid);
            assert!(
                warning.contains("RDO_WORKERS") && warning.contains("warning"),
                "warning names the variable: {warning}"
            );
        }
    }

    #[test]
    fn transport_env_values_parse_or_warn() {
        for (raw, expected) in [
            ("tcp", TransportKind::Tcp),
            ("TCP", TransportKind::Tcp),
            ("inprocess", TransportKind::InProcess),
            ("in-process", TransportKind::InProcess),
            ("local", TransportKind::InProcess),
            (" tcp ", TransportKind::Tcp),
        ] {
            assert_eq!(
                parse_transport_env("RDO_TRANSPORT", raw, "staying in-process"),
                Ok(expected),
                "{raw}"
            );
        }
        for invalid in ["", "udp", "sockets", "1"] {
            let warning = parse_transport_env("RDO_TRANSPORT", invalid, "staying in-process")
                .expect_err(invalid);
            assert!(
                warning.contains("RDO_TRANSPORT") && warning.contains("staying in-process"),
                "{warning}"
            );
        }
        assert_eq!(TransportKind::default(), TransportKind::InProcess);
        assert_eq!(TransportKind::Tcp.label(), "tcp");
        assert_eq!(TransportKind::InProcess.label(), "in-process");
    }
}
