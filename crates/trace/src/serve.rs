//! The live scrape endpoint: a tiny dependency-free HTTP listener serving
//! `/metrics` (Prometheus text exposition merged across every in-flight
//! collector) and `/progress` (per-query rows-produced / pages-scanned /
//! current-stage JSON), so long runs can be watched while they execute.
//!
//! The listener is plain `std::net::TcpListener` — one short-lived thread, a
//! minimal request-line parser, `Connection: close` responses — because the
//! offline build bakes in no HTTP dependency and none is needed for a scrape
//! protocol this small. Queries register their [`TraceHandle`]s in a global
//! registry of weak references; a scrape upgrades whatever is still alive and
//! merges counters (sum), gauges (max) and histograms (bucket-wise sum) under
//! the same laws local accumulation already uses, so the exposition is
//! consistent mid-run.
//!
//! `RDO_METRICS_ADDR=host:port` starts the process-global listener on first
//! driver use (see [`ensure_started_from_env`]); embedders can run their own
//! with [`MetricsServer::bind`].

use crate::{Collector, Histogram, Profile, TraceHandle};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// The `RDO_METRICS_ADDR` knob: when set to a non-empty `host:port`, the
/// first driver execution starts the process-global scrape listener there.
pub fn metrics_addr() -> Option<String> {
    rdo_common::env::read_env(
        "RDO_METRICS_ADDR",
        "metrics endpoint stays disabled",
        |_, raw, _| Ok(raw.trim().to_string()),
    )
    .filter(|addr| !addr.is_empty())
}

/// One registered query: its name and a weak reference to its collector, so
/// a finished query whose handles were dropped falls out of the scrape
/// output instead of pinning memory.
struct Registered {
    query: String,
    collector: Weak<Collector>,
}

fn registry() -> &'static Mutex<Vec<Registered>> {
    static REGISTRY: OnceLock<Mutex<Vec<Registered>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a query's trace for the live endpoints. Re-registering the same
/// collector (a re-run under the same handle) is de-duplicated; disabled
/// handles register nothing. Dead entries are pruned on every call and every
/// scrape.
pub fn register_query(query: &str, handle: &TraceHandle) {
    let Some(collector) = &handle.inner else {
        return;
    };
    let mut entries = registry().lock().unwrap_or_else(|p| p.into_inner());
    entries.retain(|e| e.collector.strong_count() > 0);
    if entries
        .iter()
        .any(|e| e.collector.as_ptr() == Arc::as_ptr(collector))
    {
        return;
    }
    entries.push(Registered {
        query: query.to_string(),
        collector: Arc::downgrade(collector),
    });
}

/// Snapshot of the live registry: `(query name, collector)` pairs.
fn live_collectors() -> Vec<(String, Arc<Collector>)> {
    let mut entries = registry().lock().unwrap_or_else(|p| p.into_inner());
    entries.retain(|e| e.collector.strong_count() > 0);
    entries
        .iter()
        .filter_map(|e| e.collector.upgrade().map(|c| (e.query.clone(), c)))
        .collect()
}

/// The `/metrics` body: every live collector's counters, gauges and
/// histograms merged under their respective laws (sum / max / bucket-wise
/// sum) and rendered as one Prometheus text exposition.
pub fn metrics_body() -> String {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
    for (_, collector) in live_collectors() {
        let handle = TraceHandle {
            inner: Some(collector),
        };
        for (name, value) in handle.counters() {
            *counters.entry(name).or_insert(0) += value;
        }
        for (name, value) in handle.gauges() {
            let entry = gauges.entry(name).or_insert(0);
            *entry = (*entry).max(value);
        }
        for (name, histogram) in handle.histograms() {
            histograms.entry(name).or_default().merge(&histogram);
        }
    }
    Profile::new(Vec::new(), counters, gauges)
        .with_histograms(histograms)
        .metrics_text()
}

/// The `/progress` body: one JSON object per live query with its current
/// stage note, progress counters and span count.
pub fn progress_body() -> String {
    let mut out = String::from("{\"queries\":[");
    for (index, (query, collector)) in live_collectors().into_iter().enumerate() {
        let handle = TraceHandle {
            inner: Some(collector),
        };
        if index > 0 {
            out.push(',');
        }
        let counters = handle.counters();
        let stage = handle.notes().get("stage").cloned().unwrap_or_default();
        out.push_str(&format!(
            "{{\"query\":{},\"stage\":{},\"rows_produced\":{},\"pages_scanned\":{},\"spans\":{}}}",
            crate::profile::json_string(&query),
            crate::profile::json_string(&stage),
            counters.get("progress.rows_produced").copied().unwrap_or(0),
            counters.get("progress.pages_scanned").copied().unwrap_or(0),
            handle.spans().len(),
        ));
    }
    out.push_str("]}");
    out
}

/// A running scrape listener. Stops (and joins its thread) on drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port) and
    /// starts serving `/metrics` and `/progress` on a background thread.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rdo-metrics".to_string())
            .spawn(move || serve_loop(listener, stop_flag))?;
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn serve_loop(listener: TcpListener, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(15));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(15)),
        }
    }
}

fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    // Read until the end of the request head (or the buffer fills); only the
    // request line matters for a two-route scrape server.
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            metrics_body(),
        ),
        "/progress" => ("200 OK", "application/json", progress_body()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics or /progress\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Starts the process-global listener on `RDO_METRICS_ADDR` exactly once.
/// Called by the driver at the top of every execution; without the knob (or
/// after a bind failure, which warns once) this is a cheap no-op. The global
/// server lives until process exit.
pub fn ensure_started_from_env() {
    static STARTED: OnceLock<Option<&'static MetricsServer>> = OnceLock::new();
    STARTED.get_or_init(|| {
        let addr = metrics_addr()?;
        match MetricsServer::bind(&addr) {
            Ok(server) => {
                rdo_common::info!(
                    "metrics endpoint listening on http://{}/metrics",
                    server.local_addr()
                );
                Some(Box::leak(Box::new(server)))
            }
            Err(e) => {
                rdo_common::warn!("RDO_METRICS_ADDR={addr} bind failed: {e}");
                None
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_progress_for_registered_queries() {
        let handle = TraceHandle::enabled();
        {
            let _guard = handle.install();
            let _span = crate::span("stage.reopt");
            crate::counter("progress.rows_produced", 42);
            crate::counter("progress.pages_scanned", 3);
            crate::note("stage", "reopt#1");
        }
        register_query("serve-test-q", &handle);
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("rdo_progress_rows_produced"), "{metrics}");
        assert!(
            metrics.contains("rdo_stage_reopt_duration_ns_bucket{le=\"+Inf\"} 1"),
            "{metrics}"
        );

        let progress = http_get(addr, "/progress");
        assert!(
            progress.contains("\"query\":\"serve-test-q\""),
            "{progress}"
        );
        assert!(progress.contains("\"stage\":\"reopt#1\""), "{progress}");
        assert!(progress.contains("\"rows_produced\":42"), "{progress}");
        assert!(progress.contains("\"pages_scanned\":3"), "{progress}");

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        drop(handle);
    }

    #[test]
    fn dead_queries_are_pruned_from_the_registry() {
        let handle = TraceHandle::enabled();
        handle.counter("progress.rows_produced", 7);
        register_query("serve-pruned-q", &handle);
        assert!(progress_body().contains("serve-pruned-q"));
        drop(handle);
        // A scrape running concurrently (another test's) upgrades the weak
        // reference for the moment it renders the collector; wait that out.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while progress_body().contains("serve-pruned-q") && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(!progress_body().contains("serve-pruned-q"));
    }

    #[test]
    fn register_is_idempotent_per_collector() {
        let handle = TraceHandle::enabled();
        register_query("serve-idem-q", &handle);
        register_query("serve-idem-q", &handle);
        let hits = progress_body().matches("serve-idem-q").count();
        assert_eq!(hits, 1);
        register_query("ignored", &TraceHandle::disabled());
        drop(handle);
    }
}
