#![warn(missing_docs)]

//! Multi-query SQL server front-end for the runtime dynamic optimizer.
//!
//! The paper evaluates its dynamic re-optimization inside AsterixDB, a shared
//! multi-query server: many clients submit SQL++ text concurrently, the
//! cluster's memory is one global pool, and a query's statistics outlive the
//! query that collected them. This crate reproduces that operating mode on
//! top of the single-query [`rdo_core`] driver:
//!
//! * **Shared worker pool** — every session's queries execute on ONE
//!   [`WorkerPool`], injected through [`rdo_core::DynamicConfig::with_pool`];
//!   the server never spawns per-query executor threads.
//! * **Global memory admission** — with `RDO_SERVER_MEM_BUDGET` set, each
//!   query reserves a grant from one tracked global budget before running
//!   (FIFO queueing, bounded wait, clean admission-timeout error), and its
//!   private spill/join budgets are carved from that grant.
//! * **Learned-stats plan cache** — bound plans are cached under the
//!   normalized SQL text ([`rdo_sql::normalize`]), and the audit trail's
//!   measured per-subplan cardinalities feed a [`LearnedStatsCatalog`]: a
//!   repeat query plans statically from measured statistics (zero
//!   re-optimization points) instead of re-running pilot stages, with a max
//!   q-error no worse than the cold run's.
//!
//! The wire protocol is a dependency-free length-prefixed frame scheme — see
//! [`protocol`]. Server-side counters
//! (`server.sessions_opened`, `server.plan_cache_hits`, `server.admissions`,
//! ...) surface on the `RDO_METRICS_ADDR` exposition endpoint alongside the
//! per-query series.

pub mod admission;
pub mod protocol;

pub use admission::{AdmissionController, AdmissionTicket};
pub use protocol::{Client, ErrorCode, QueryResponse, RunSummary};

use crate::protocol::{
    encode_error, encode_rows, encode_schema, encode_summary, read_frame, write_frame, Tag,
    ROWS_PER_FRAME,
};
use rdo_common::env::{parse_env_positive_usize, parse_env_u64, parse_or_warn};
use rdo_common::{Lru, Relation, Result};
use rdo_core::{DynamicConfig, DynamicDriver};
use rdo_exec::{ParallelConfig, WorkerPool};
use rdo_planner::{JoinAlgorithmRule, LearnedStatsCatalog};
use rdo_spill::SpillConfig;
use rdo_sql::{BoundQuery, ParamBindings, UdfRegistry};
use rdo_storage::Catalog;
use rdo_trace::TraceHandle;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `RDO_SERVER_ADDR`: the listen address (default `127.0.0.1:0`, an ephemeral
/// port announced by [`ServerHandle::addr`]).
pub const ADDR_ENV: &str = "RDO_SERVER_ADDR";
/// `RDO_SERVER_MEM_BUDGET`: global memory budget in bytes shared by all
/// concurrent queries. Unset disables admission control.
pub const MEM_BUDGET_ENV: &str = "RDO_SERVER_MEM_BUDGET";
/// `RDO_SERVER_ADMIT_TIMEOUT_MS`: how long a query may wait for admission
/// before failing with an admission-timeout error (default 10000).
pub const ADMIT_TIMEOUT_ENV: &str = "RDO_SERVER_ADMIT_TIMEOUT_MS";
/// `RDO_SERVER_QUERY_GRANT`: the per-query memory grant requested from the
/// global budget (default 64 MiB; clamped to the budget).
pub const QUERY_GRANT_ENV: &str = "RDO_SERVER_QUERY_GRANT";
/// `RDO_SERVER_PLAN_CACHE_CAP`: maximum number of cached bound plans
/// (default 256). Past the cap the least-recently-used plan is evicted, so a
/// client iterating literal values inline cannot grow the cache without
/// bound (`$param` bindings are the right tool for value-varying queries).
pub const PLAN_CACHE_CAP_ENV: &str = "RDO_SERVER_PLAN_CACHE_CAP";
/// `RDO_SERVER_LEARNED_CAP`: maximum number of learned-stats entries
/// (default 4096), evicted least-recently-touched past the cap.
pub const LEARNED_CAP_ENV: &str = "RDO_SERVER_LEARNED_CAP";

const DEFAULT_ADMIT_TIMEOUT_MS: u64 = 10_000;
const DEFAULT_QUERY_GRANT: u64 = 64 << 20;
const DEFAULT_PLAN_CACHE_CAP: usize = 256;
const DEFAULT_LEARNED_CAP: usize = 4096;

/// Server configuration; every knob has an `RDO_SERVER_*` environment
/// variable read through the shared warn-on-invalid parsers.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`RDO_SERVER_ADDR`).
    pub addr: String,
    /// Global admission budget in bytes; `None` disables admission
    /// (`RDO_SERVER_MEM_BUDGET`).
    pub mem_budget: Option<u64>,
    /// Admission wait bound in milliseconds (`RDO_SERVER_ADMIT_TIMEOUT_MS`).
    pub admit_timeout_ms: u64,
    /// Per-query grant requested from the budget (`RDO_SERVER_QUERY_GRANT`).
    pub query_grant: u64,
    /// Plan-cache entry bound (`RDO_SERVER_PLAN_CACHE_CAP`).
    pub plan_cache_cap: usize,
    /// Learned-stats entry bound (`RDO_SERVER_LEARNED_CAP`).
    pub learned_cap: usize,
    /// Parallelism of the shared worker pool (the `RDO_WORKERS` family).
    pub parallel: ParallelConfig,
    /// Join-algorithm rule queries plan under.
    pub rule: JoinAlgorithmRule,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            mem_budget: None,
            admit_timeout_ms: DEFAULT_ADMIT_TIMEOUT_MS,
            query_grant: DEFAULT_QUERY_GRANT,
            plan_cache_cap: DEFAULT_PLAN_CACHE_CAP,
            learned_cap: DEFAULT_LEARNED_CAP,
            parallel: ParallelConfig::default(),
            rule: JoinAlgorithmRule::default(),
        }
    }
}

impl ServerConfig {
    /// The defaults with every `RDO_SERVER_*` (and `RDO_WORKERS` family)
    /// override applied. Invalid values warn and keep the default.
    pub fn from_env() -> Self {
        let mut config = Self::from_env_with(|var| std::env::var(var).ok());
        config.parallel = ParallelConfig::from_env();
        config
    }

    /// [`ServerConfig::from_env`] over an injectable lookup, so the override
    /// logic is testable without mutating the process environment.
    fn from_env_with(lookup: impl Fn(&str) -> Option<String>) -> Self {
        fn get(lookup: &impl Fn(&str) -> Option<String>, var: &str, fallback: &str) -> Option<u64> {
            lookup(var).and_then(|raw| parse_or_warn(var, &raw, fallback, parse_env_u64))
        }
        fn get_count(
            lookup: &impl Fn(&str) -> Option<String>,
            var: &str,
            fallback: &str,
        ) -> Option<usize> {
            lookup(var).and_then(|raw| parse_or_warn(var, &raw, fallback, parse_env_positive_usize))
        }
        let defaults = Self::default();
        Self {
            mem_budget: get(&lookup, MEM_BUDGET_ENV, "admission stays disabled"),
            admit_timeout_ms: get(
                &lookup,
                ADMIT_TIMEOUT_ENV,
                "the default admission timeout stays in effect",
            )
            .unwrap_or(defaults.admit_timeout_ms),
            query_grant: get(
                &lookup,
                QUERY_GRANT_ENV,
                "the default per-query grant stays in effect",
            )
            .unwrap_or(defaults.query_grant),
            plan_cache_cap: get_count(
                &lookup,
                PLAN_CACHE_CAP_ENV,
                "the default plan-cache cap stays in effect",
            )
            .unwrap_or(defaults.plan_cache_cap),
            learned_cap: get_count(
                &lookup,
                LEARNED_CAP_ENV,
                "the default learned-stats cap stays in effect",
            )
            .unwrap_or(defaults.learned_cap),
            addr: lookup(ADDR_ENV).unwrap_or(defaults.addr),
            ..defaults
        }
    }
}

/// State shared by every session of one server.
struct Shared {
    catalog: Catalog,
    udfs: UdfRegistry,
    params: ParamBindings,
    pool: WorkerPool,
    admission: Option<Arc<AdmissionController>>,
    learned: Arc<LearnedStatsCatalog>,
    /// Bound plans keyed by normalized SQL text, reused verbatim by repeat
    /// queries (the stable name keeps intermediate-table names and plan
    /// signatures identical across runs). Bounded, because every distinct
    /// inline literal is a new key.
    cache: Mutex<Lru<Arc<BoundQuery>>>,
    trace: TraceHandle,
    config: ServerConfig,
    /// The spill configuration of the environment the server started in,
    /// resolved once; every query carves its budgets out of a copy.
    spill: SpillConfig,
}

/// The spill configuration one query runs under: the server's, with both the
/// intermediate and the join budget set to half the admission grant (if the
/// query holds one) so per-query memory stays inside the global budget.
fn query_spill(base: SpillConfig, grant_bytes: Option<u64>) -> SpillConfig {
    match grant_bytes {
        Some(bytes) => {
            let half = (bytes / 2).max(1);
            base.with_budget(half).with_join_budget(half)
        }
        None => base,
    }
}

/// The multi-query SQL server.
pub struct SqlServer;

impl SqlServer {
    /// Binds the configured address and starts accepting sessions. The
    /// catalog is the shared base data every query reads (each run works on a
    /// cheap clone, so per-query intermediates and spill state stay private).
    pub fn start(
        catalog: Catalog,
        udfs: UdfRegistry,
        params: ParamBindings,
        config: ServerConfig,
    ) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| rdo_common::RdoError::Io(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| rdo_common::RdoError::Io(format!("local_addr: {e}")))?;

        let trace = TraceHandle::enabled();
        rdo_trace::serve::ensure_started_from_env();
        rdo_trace::serve::register_query("server", &trace);

        let shared = Arc::new(Shared {
            catalog,
            udfs,
            params,
            pool: WorkerPool::new(config.parallel.workers),
            admission: config.mem_budget.map(AdmissionController::new),
            learned: Arc::new(LearnedStatsCatalog::bounded(config.learned_cap)),
            cache: Mutex::new(Lru::new(config.plan_cache_cap)),
            trace,
            config,
            spill: SpillConfig::from_env(),
        });

        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let shared = Arc::clone(&shared);
                            std::thread::spawn(move || session(shared, stream));
                        }
                        Err(_) => break,
                    }
                }
            })
        };

        Ok(ServerHandle {
            addr,
            shared,
            stop,
            accept_thread: Some(accept_thread),
        })
    }
}

/// A running server: the bound address plus introspection hooks for tests and
/// examples. Dropping the handle stops the accept loop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves the `:0` ephemeral port).
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// The learned-stats catalog repeat queries plan from.
    pub fn learned(&self) -> Arc<LearnedStatsCatalog> {
        Arc::clone(&self.shared.learned)
    }

    /// The admission controller, if a global budget is configured.
    pub fn admission(&self) -> Option<Arc<AdmissionController>> {
        self.shared.admission.as_ref().map(Arc::clone)
    }

    /// The server-level trace handle (session/cache/admission counters).
    pub fn trace(&self) -> TraceHandle {
        self.shared.trace.clone()
    }

    /// Number of cached bound plans.
    pub fn plan_cache_len(&self) -> usize {
        self.shared
            .cache
            .lock()
            .expect("cache mutex poisoned")
            .len()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop awake so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

/// One client session: a loop of query frames until the peer disconnects. A
/// malformed frame errors (and closes) only this session; malformed SQL or a
/// failed execution sends a structured error frame and keeps the session
/// open.
fn session(shared: Arc<Shared>, stream: TcpStream) {
    shared.trace.counter("server.sessions_opened", 1);
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(None) => break, // clean disconnect between frames
            Ok(Some((Tag::Query, payload))) => {
                let outcome = match String::from_utf8(payload) {
                    Ok(sql) => run_query(&shared, &sql),
                    Err(_) => Err((ErrorCode::InvalidSql, "query text is not UTF-8".to_string())),
                };
                if respond(&mut writer, outcome).is_err() {
                    break; // mid-response disconnect: this session only
                }
            }
            Ok(Some((tag, _))) => {
                // A well-formed frame the server has no business receiving.
                let _ = write_frame(
                    &mut writer,
                    Tag::Error,
                    &encode_error(
                        ErrorCode::Protocol,
                        &format!("unexpected frame {tag:?} from client"),
                    ),
                );
                break;
            }
            Err(e) => {
                // Garbage tag, oversized length or truncated frame: tell the
                // client if it is still there, then drop the session. The
                // listener and every other session keep running.
                let _ = write_frame(
                    &mut writer,
                    Tag::Error,
                    &encode_error(ErrorCode::Protocol, &e.to_string()),
                );
                break;
            }
        }
    }
}

/// Streams one query outcome back to the client.
fn respond(
    writer: &mut impl Write,
    outcome: std::result::Result<(Relation, RunSummary), (ErrorCode, String)>,
) -> Result<()> {
    match outcome {
        Ok((relation, summary)) => {
            write_frame(writer, Tag::ResultSchema, &encode_schema(relation.schema()))?;
            for chunk in relation.rows().chunks(ROWS_PER_FRAME) {
                write_frame(writer, Tag::ResultRows, &encode_rows(chunk))?;
            }
            write_frame(writer, Tag::ResultEnd, &encode_summary(&summary))
        }
        Err((code, message)) => write_frame(writer, Tag::Error, &encode_error(code, &message)),
    }
}

/// FNV-1a over the normalized text: a stable query name (`q<hash>`) so repeat
/// runs register identically-named intermediates and produce identical plan
/// signatures.
fn stable_name(key: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("q{hash:016x}")
}

/// Compiles (or recalls) and executes one query under the server's shared
/// pool, admission budget and learned statistics.
fn run_query(
    shared: &Shared,
    sql: &str,
) -> std::result::Result<(Relation, RunSummary), (ErrorCode, String)> {
    let invalid = |e: rdo_common::RdoError| (ErrorCode::InvalidSql, e.to_string());

    // 1. Plan cache: normalized text is the key; a hit reuses the bound plan
    //    and plans statically from learned statistics (no pilot stages).
    let key = rdo_sql::normalize(sql).map_err(invalid)?;
    let cached = {
        let mut cache = shared.cache.lock().expect("cache mutex poisoned");
        cache.get(&key).cloned()
    };
    let warm = cached.is_some();
    shared.trace.counter(
        if warm {
            "server.plan_cache_hits"
        } else {
            "server.plan_cache_misses"
        },
        1,
    );
    let bound = match cached {
        Some(bound) => bound,
        None => Arc::new(
            rdo_sql::compile(
                sql,
                stable_name(&key),
                &shared.catalog,
                &shared.udfs,
                &shared.params,
            )
            .map_err(invalid)?,
        ),
    };

    // 2. Global admission: reserve this query's memory grant (FIFO, bounded
    //    wait). The RAII ticket returns the grant even on error/panic paths.
    let ticket = match &shared.admission {
        Some(controller) => {
            let grant = shared.config.query_grant;
            let timeout = Duration::from_millis(shared.config.admit_timeout_ms);
            let admitted = controller.admit(grant, timeout);
            shared
                .trace
                .gauge_max("server.admission_queue_depth", controller.max_queue_depth());
            match admitted {
                Ok(ticket) => {
                    shared.trace.counter("server.admissions", 1);
                    Some(ticket)
                }
                Err(e) => {
                    shared.trace.counter("server.admission_timeouts", 1);
                    return Err((ErrorCode::AdmissionTimeout, e.to_string()));
                }
            }
        }
        None => None,
    };

    // 3. Execute on the shared pool. The catalog clone keeps per-query
    //    intermediates and spill state private; the spill/join budgets are
    //    carved from the admission grant so per-query memory stays inside the
    //    global budget.
    let spill = query_spill(shared.spill, ticket.as_ref().map(|t| t.bytes()));
    let mut config = DynamicConfig::dynamic(shared.config.rule)
        .with_parallel(shared.config.parallel)
        .with_spill(spill)
        .with_trace(TraceHandle::disabled())
        .with_pool(shared.pool.clone())
        .with_learned(Arc::clone(&shared.learned));
    if warm {
        // The statistics the pilot stages would re-measure are already in the
        // learned catalog: plan the join order statically from them.
        config = config.with_reopt_budget(0);
    }
    let driver = DynamicDriver::new(config);
    let mut catalog = shared.catalog.clone();
    let mut execute = || -> Result<(Relation, RunSummary)> {
        let outcome = driver.execute(&bound.spec, &mut catalog)?;
        let plan = outcome.plan_description();
        let summary_rows;
        let result = {
            let relation = bound.post.apply(outcome.result)?;
            summary_rows = relation.len() as u64;
            relation
        };
        Ok((
            result,
            RunSummary {
                rows: summary_rows,
                plan_cache_hit: warm,
                reopt_points: outcome.reoptimization_points,
                planner_invocations: outcome.planner_invocations,
                max_q_error: outcome.audit.max_q_error(),
                learned_hits: shared.learned.hits(),
                learned_misses: shared.learned.misses(),
                plan,
                audit: outcome.audit.render(),
            },
        ))
    };
    let outcome = execute();
    drop(ticket); // return the grant before replying

    match outcome {
        Ok(response) => {
            shared.trace.counter("server.queries_ok", 1);
            if !warm {
                // Cache only plans that executed successfully, so a poisoned
                // entry can never pin a failing plan.
                let mut cache = shared.cache.lock().expect("cache mutex poisoned");
                cache.insert(key, bound);
            }
            shared
                .trace
                .gauge_max("server.learned_entries", shared.learned.len() as u64);
            Ok(response)
        }
        Err(e) => {
            shared.trace.counter("server.queries_err", 1);
            Err((ErrorCode::Execution, e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A query runs under the start-time spill configuration — page size
    /// untouched — with the two budgets replaced by half its admission grant;
    /// without a grant the configuration is the start-time one as it is.
    #[test]
    fn per_query_spill_config_is_the_start_time_one_with_the_grant_halves() {
        let base = SpillConfig::default().with_budget(7).with_page_size(4096);
        assert_eq!(query_spill(base, None), base);
        assert_eq!(
            query_spill(base, Some(1 << 20)),
            SpillConfig {
                budget_bytes: Some(1 << 19),
                join_budget_bytes: Some(1 << 19),
                ..base
            }
        );
        // A grant too small to halve still gives a positive budget.
        assert_eq!(query_spill(base, Some(1)).budget_bytes, Some(1));
        assert_eq!(query_spill(base, Some(0)).join_budget_bytes, Some(1));
    }

    #[test]
    fn config_defaults_and_env_overrides() {
        let defaults = ServerConfig::default();
        assert_eq!(defaults.addr, "127.0.0.1:0");
        assert_eq!(defaults.mem_budget, None);
        assert_eq!(defaults.admit_timeout_ms, DEFAULT_ADMIT_TIMEOUT_MS);
        assert_eq!(defaults.query_grant, DEFAULT_QUERY_GRANT);
        assert_eq!(defaults.plan_cache_cap, DEFAULT_PLAN_CACHE_CAP);
        assert_eq!(defaults.learned_cap, DEFAULT_LEARNED_CAP);

        let config = ServerConfig::from_env_with(|var| match var {
            ADDR_ENV => Some("0.0.0.0:5432".to_string()),
            MEM_BUDGET_ENV => Some("1048576".to_string()),
            ADMIT_TIMEOUT_ENV => Some("250".to_string()),
            QUERY_GRANT_ENV => Some("65536".to_string()),
            PLAN_CACHE_CAP_ENV => Some("8".to_string()),
            LEARNED_CAP_ENV => Some("128".to_string()),
            _ => None,
        });
        assert_eq!(config.addr, "0.0.0.0:5432");
        assert_eq!(config.mem_budget, Some(1 << 20));
        assert_eq!(config.admit_timeout_ms, 250);
        assert_eq!(config.query_grant, 65536);
        assert_eq!(config.plan_cache_cap, 8);
        assert_eq!(config.learned_cap, 128);
    }

    #[test]
    fn invalid_env_values_warn_and_keep_defaults() {
        // Set-but-garbage values fall back (and warn on stderr) instead of
        // silently configuring something else.
        let config = ServerConfig::from_env_with(|var| match var {
            MEM_BUDGET_ENV => Some("64MB".to_string()),
            ADMIT_TIMEOUT_ENV => Some("soon".to_string()),
            QUERY_GRANT_ENV => Some("-5".to_string()),
            PLAN_CACHE_CAP_ENV => Some("0".to_string()),
            LEARNED_CAP_ENV => Some("lots".to_string()),
            _ => None,
        });
        assert_eq!(config.mem_budget, None, "admission stays disabled");
        assert_eq!(config.admit_timeout_ms, DEFAULT_ADMIT_TIMEOUT_MS);
        assert_eq!(config.query_grant, DEFAULT_QUERY_GRANT);
        assert_eq!(
            config.plan_cache_cap, DEFAULT_PLAN_CACHE_CAP,
            "caps need >= 1"
        );
        assert_eq!(config.learned_cap, DEFAULT_LEARNED_CAP);
        // The underlying parser produces the warning text read_env prints.
        let warning = parse_env_u64(MEM_BUDGET_ENV, "64MB", "admission stays disabled")
            .expect_err("64MB is not a byte count");
        assert!(warning.contains(MEM_BUDGET_ENV) && warning.contains("admission stays disabled"));
    }

    #[test]
    fn stable_name_is_deterministic_and_distinct() {
        let a = stable_name("SELECT 1");
        assert_eq!(a, stable_name("SELECT 1"));
        assert_ne!(a, stable_name("SELECT 2"));
        assert!(a.starts_with('q') && a.len() == 17);
    }
}
