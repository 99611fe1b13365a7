//! The optimizer audit trail is a property of the *query and the statistics*,
//! never of the physical schedule: plan-time estimates come from
//! deterministic sketches and actuals from coordinator-side materialized row
//! counts, so the audit must be bit-identical across worker counts and
//! across every query in the evaluation suite. A scrape endpoint test rides
//! along: `/metrics` and `/progress` answer over real HTTP while a run's
//! collector is registered.
//!
//! No test here mutates the process environment.

use runtime_dynamic_optimization::prelude::*;
use std::io::{Read, Write};

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation")
}

fn audited_run(env: &BenchmarkEnv, workers: usize) -> DynamicOutcome {
    let config = DynamicConfig::default()
        .with_parallel(ParallelConfig::serial().with_workers(workers))
        .with_trace(TraceHandle::enabled());
    let mut catalog = env.catalog.clone();
    DynamicDriver::new(config)
        .execute(&q9(), &mut catalog)
        .expect("audited execution")
}

#[test]
fn audit_is_worker_count_invariant() {
    let env = env();
    let one = audited_run(&env, 1);
    let four = audited_run(&env, 4);
    assert_eq!(one.result, four.result);
    assert_eq!(
        one.audit, four.audit,
        "estimates and decisions must not depend on the worker count"
    );
    assert_eq!(
        one.audit.render(),
        four.audit.render(),
        "the rendered table is bit-identical too"
    );
}

#[test]
fn every_evaluation_query_records_a_complete_audit() {
    let env = env();
    for query in all_queries() {
        let mut catalog = env.catalog.clone();
        let outcome =
            DynamicDriver::new(DynamicConfig::default().with_parallel(ParallelConfig::serial()))
                .execute(&query, &mut catalog)
                .expect("dynamic execution");

        assert!(
            !outcome.audit.is_empty(),
            "{}: the audit must not be empty",
            query.name
        );
        // One estimate row per executed stage, one decision per re-opt point.
        assert_eq!(
            outcome.audit.estimates.len(),
            outcome.stages.len(),
            "{}: every stage carries an estimate record",
            query.name
        );
        assert_eq!(
            outcome.audit.decisions.len(),
            outcome.reoptimization_points as usize,
            "{}: every re-optimization decision is explained",
            query.name
        );
        // The final stage's actual is the pre-projection result cardinality.
        let last = outcome.audit.estimates.last().expect("final record");
        assert_eq!(last.stage, "final", "{}", query.name);
        assert!(outcome.audit.max_q_error() >= 1.0, "{}", query.name);

        // The rendered table shows estimate, actual and q-error per operator.
        let table = outcome.audit.render();
        for heading in ["stage", "estimated", "actual", "q-error"] {
            assert!(
                table.contains(heading),
                "{}: rendered audit misses column {heading:?}",
                query.name
            );
        }
    }
}

/// Minimal HTTP GET against the in-test scrape endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect scrape endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn scrape_endpoint_serves_metrics_and_progress_for_a_registered_run() {
    let env = env();
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind scrape endpoint");
    let addr = server.local_addr();

    let trace = TraceHandle::enabled();
    rdo_trace::serve::register_query("Q9", &trace);
    let mut catalog = env.catalog.clone();
    let outcome = DynamicDriver::new(
        DynamicConfig::default()
            .with_parallel(ParallelConfig::serial())
            .with_trace(trace.clone()),
    )
    .execute(&q9(), &mut catalog)
    .expect("dynamic execution");
    assert!(!outcome.result.is_empty());

    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"));
    assert!(
        metrics.contains("_duration_ns_bucket{le="),
        "latency histogram buckets must be exposed:\n{metrics}"
    );
    assert!(metrics.contains("# TYPE"));

    let progress = http_get(addr, "/progress");
    assert!(progress.starts_with("HTTP/1.1 200 OK"));
    for key in [
        "\"query\"",
        "\"rows_produced\"",
        "\"pages_scanned\"",
        "\"stage\"",
    ] {
        assert!(progress.contains(key), "missing {key} in:\n{progress}");
    }
    assert!(progress.contains("\"Q9\""));

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"));
}
