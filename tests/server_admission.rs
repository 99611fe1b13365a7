//! Global admission under a tiny memory budget: concurrent queries serialize
//! against the tracked global pool (peak never exceeds the budget, the
//! queue-depth gauge goes nonzero), the bounded wait fails with a clean
//! admission-timeout error frame, and the budget always drains back to zero.

use rdo_workloads::{paper_udfs, q50_params, Q17_SQL};
use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::workloads::{BenchmarkEnv, ScaleFactor};
use std::time::{Duration, Instant};

fn tiny_budget_config(budget: u64, timeout_ms: u64) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        mem_budget: Some(budget),
        admit_timeout_ms: timeout_ms,
        // Ask for more than the whole budget: the grant clamps to the budget,
        // so queries hold the entire pool and are forced to run one at a time.
        query_grant: 2 * budget,
        ..ServerConfig::default()
    }
}

#[test]
fn tiny_budget_serializes_concurrent_queries_and_drains_to_zero() {
    let env = BenchmarkEnv::load(ScaleFactor::gb(1), 4, false, 21).unwrap();
    let server = SqlServer::start(
        env.catalog.clone(),
        paper_udfs(),
        q50_params(9, 2000),
        tiny_budget_config(1 << 20, 120_000),
    )
    .unwrap();
    let addr = server.addr();
    let controller = server.admission().expect("budgeted server has admission");
    assert_eq!(controller.total(), 1 << 20);

    // Hold the whole budget out of band until all four clients are queued,
    // so the queueing does not depend on how long one query runs.
    let hold = controller
        .admit(controller.total(), Duration::from_secs(5))
        .unwrap();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.query(Q17_SQL).unwrap().result.sorted()
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while controller.queue_depth() < 4 {
        assert!(
            Instant::now() < deadline,
            "four clients never queued (depth {})",
            controller.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(hold);
    let mut results: Vec<Relation> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let first = results.pop().unwrap();
    for other in results {
        assert_eq!(other, first, "serialized runs agree");
    }

    // Whole-budget grants: the tracked peak is exactly one grant, never more.
    assert_eq!(controller.peak(), controller.total());
    assert!(
        controller.max_queue_depth() >= 4,
        "four simultaneous whole-budget queries must have queued \
         (observed depth {})",
        controller.max_queue_depth()
    );
    assert!(controller.waits() >= 4, "every query admission waited");
    assert_eq!(controller.reserved(), 0, "the budget drains back to zero");
    assert_eq!(controller.timeouts(), 0);

    let counters = server.trace().counters();
    assert_eq!(counters.get("server.admissions"), Some(&4u64));
    assert!(server.trace().gauges().get("server.admission_queue_depth") >= Some(&4u64));
}

#[test]
fn admission_timeout_is_a_clean_error_and_the_server_recovers() {
    let env = BenchmarkEnv::load(ScaleFactor::gb(1), 4, false, 22).unwrap();
    let server = SqlServer::start(
        env.catalog.clone(),
        paper_udfs(),
        q50_params(9, 2000),
        tiny_budget_config(1 << 20, 300),
    )
    .unwrap();
    let controller = server.admission().unwrap();

    // Occupy the entire budget out-of-band so the next query cannot be
    // admitted before its 300 ms deadline.
    let hold = controller
        .admit(controller.total(), Duration::from_secs(5))
        .unwrap();

    let mut client = Client::connect(&server.addr()).unwrap();
    let err = client.query(Q17_SQL).unwrap_err();
    assert!(
        err.to_string().contains("admission timeout"),
        "structured admission-timeout error reaches the client: {err}"
    );
    assert_eq!(controller.timeouts(), 1);
    assert_eq!(
        server.trace().counters().get("server.admission_timeouts"),
        Some(&1u64)
    );

    // The session survived its error frame, and once the hold is released the
    // same client is served normally.
    drop(hold);
    let response = client.query(Q17_SQL).unwrap();
    assert_eq!(response.summary.rows as usize, response.result.len());
    assert_eq!(controller.reserved(), 0, "every grant was returned");
    assert_eq!(controller.peak(), controller.total());
}
