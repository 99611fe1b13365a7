//! Distributed execution is an *optimization*, never a semantic change: for
//! every evaluation query (Q8, Q9, Q17, Q50) and every localhost
//! worker-process count (1, 2, 4), routing the exchange operators through the
//! `rdo-net` TCP transport must produce exactly the results, stage plans and
//! logical metrics of the in-process transport — and the worker processes
//! must shut down cleanly (exit 0, no orphans) with nothing left in the spill
//! directory.
//!
//! This suite runs without the libtest harness (`harness = false` in
//! `Cargo.toml`): its `main` routes through [`rdo_net::maybe_worker`] first,
//! so the binary can spawn copies of *itself* as the localhost worker fleet.

use runtime_dynamic_optimization::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation")
}

fn config() -> DynamicConfig {
    DynamicConfig::default().with_parallel(ParallelConfig::serial().with_workers(2))
}

/// The core acceptance gate: Q8/Q9/Q17/Q50 through 1/2/4 worker *processes*
/// are bit-identical (results, metrics, plans) to the in-process transport,
/// real bytes cross the sockets, and every worker exits 0.
fn queries_are_transport_invariant_at_every_cluster_size() {
    let env = env();
    let driver = DynamicDriver::new(config());

    // In-process references, one per query.
    let references: Vec<DynamicOutcome> = all_queries()
        .iter()
        .map(|query| {
            let mut catalog = env.catalog.clone();
            driver
                .execute_with_transport(query, &mut catalog, Arc::new(InProcessTransport))
                .expect("in-process execution")
        })
        .collect();

    for workers in [1usize, 2, 4] {
        let cluster = LocalCluster::spawn(workers).expect("spawn local workers");
        let transport = Arc::new(TcpTransport::connect(cluster.addrs()).expect("connect workers"));
        for (query, reference) in all_queries().iter().zip(&references) {
            let mut catalog = env.catalog.clone();
            let outcome = driver
                .execute_with_transport(query, &mut catalog, transport.clone())
                .expect("distributed execution");
            assert_eq!(
                outcome.result, reference.result,
                "{}: result diverged at {workers} worker processes",
                query.name
            );
            assert_eq!(
                outcome.total, reference.total,
                "{}: metrics diverged at {workers} worker processes",
                query.name
            );
            assert_eq!(
                outcome.stage_plans, reference.stage_plans,
                "{}: plan choice diverged at {workers} worker processes",
                query.name
            );
        }
        let stats = transport.stats();
        assert!(
            stats.bytes_sent > 0 && stats.bytes_received > 0,
            "exchanges really used the sockets: {stats:?}"
        );
        drop(transport);
        let statuses = cluster.shutdown().expect("clean worker shutdown");
        assert_eq!(statuses.len(), workers);
        assert!(
            statuses.iter().all(|s| s.success()),
            "every worker process exited 0: {statuses:?}"
        );
    }
}

/// The TCP transport composes with the out-of-core subsystems: a 1-byte
/// spill budget (every intermediate on disk) plus a 1-byte join budget
/// (every join through the grace path) still yields bit-identical outcomes,
/// and the spill directory is empty once the run's tables are dropped.
fn distributed_runs_compose_with_spill_and_grace() {
    let env = env();
    let spill = SpillConfig::disabled()
        .with_budget(1)
        .with_join_budget(1)
        .with_page_size(4096);
    let driver = DynamicDriver::new(config().with_spill(spill));
    let query = q17();

    let reference = {
        let mut catalog = env.catalog.clone();
        driver
            .execute_with_transport(&query, &mut catalog, Arc::new(InProcessTransport))
            .expect("in-process out-of-core execution")
    };
    assert!(
        reference.total.spill_pages_written > 0 && reference.total.grace_pages_written > 0,
        "the run actually exercised spill AND grace: {:?}",
        reference.total
    );

    let cluster = LocalCluster::spawn(2).expect("spawn local workers");
    let transport = Arc::new(TcpTransport::connect(cluster.addrs()).expect("connect workers"));
    let mut catalog = env.catalog.clone();
    let outcome = driver
        .execute_with_transport(&query, &mut catalog, transport)
        .expect("distributed out-of-core execution");
    assert_eq!(outcome.result, reference.result);
    assert_eq!(
        outcome.total, reference.total,
        "spill/grace counters included"
    );
    assert_eq!(outcome.stage_plans, reference.stage_plans);

    let dir = catalog.spill_dir().expect("spill configured");
    assert_eq!(
        std::fs::read_dir(&dir).expect("spill dir listable").count(),
        0,
        "spill directory empty after the distributed run"
    );
    cluster.shutdown().expect("clean worker shutdown");
}

/// The *environment-selected* path: a child process with `RDO_TRANSPORT=tcp`
/// and `RDO_NET_WORKERS` exported must end up with TCP exchanges through the
/// plain `DynamicDriver::execute` / `QueryRunner` entry points (no explicit
/// transport object anywhere) — this is the wiring a user gets, and it once
/// regressed silently because nothing exercised it.
fn env_selected_tcp_transport_reaches_driver_and_runner() {
    let cluster = LocalCluster::spawn(1).expect("spawn worker");
    let status = std::process::Command::new(std::env::current_exe().expect("current_exe"))
        .env("RDO_TEST_ENV_TRANSPORT", "1")
        .env(rdo_parallel::TRANSPORT_ENV, "tcp")
        .env(rdo_net::WORKER_ADDRS_ENV, cluster.addr_list())
        .status()
        .expect("spawn env-transport child");
    assert!(status.success(), "env-transport child exited {status}");
    cluster.shutdown().expect("clean worker shutdown");
}

/// Body of the child process spawned by
/// [`env_selected_tcp_transport_reaches_driver_and_runner`]: runs in a fresh
/// process so the exported variables are the *only* transport selection.
fn env_transport_child() {
    use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
    use rdo_exec::Predicate;
    use rdo_planner::DatasetRef;
    use rdo_storage::{Catalog, IngestOptions};

    // The selection must reach every env-reading default.
    assert_eq!(
        DynamicConfig::default().parallel.transport,
        TransportKind::Tcp,
        "DynamicConfig::default() reads RDO_TRANSPORT"
    );
    assert_eq!(
        QueryRunner::default().parallel.transport,
        TransportKind::Tcp,
        "QueryRunner::default() reads RDO_TRANSPORT"
    );
    let resolved = rdo_net::transport_from_config(&DynamicConfig::default().parallel)
        .expect("resolve tcp transport");
    assert_eq!(
        resolved.name(),
        "tcp",
        "selection resolves to a live cluster"
    );

    // And a plain `execute` (no transport object in sight) must agree with
    // the explicitly in-process run.
    let mut catalog = Catalog::new(4);
    let fact_schema = Schema::for_dataset(
        "fact",
        &[
            ("f_id", DataType::Int64),
            ("f_a", DataType::Int64),
            ("f_b", DataType::Int64),
        ],
    );
    let fact_rows = (0..4_000)
        .map(|i| {
            Tuple::new(vec![
                Value::Int64(i),
                Value::Int64(i % 40),
                Value::Int64(i % 200),
            ])
        })
        .collect();
    catalog
        .ingest(
            "fact",
            Relation::new(fact_schema, fact_rows).unwrap(),
            IngestOptions::partitioned_on("f_id"),
        )
        .unwrap();
    for (name, rows) in [("da", 40i64), ("db", 200)] {
        let schema =
            Schema::for_dataset(name, &[("id", DataType::Int64), ("attr", DataType::Int64)]);
        let data = (0..rows)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 6)]))
            .collect();
        catalog
            .ingest(
                name,
                Relation::new(schema, data).unwrap(),
                IngestOptions::partitioned_on("id"),
            )
            .unwrap();
    }
    let query = rdo_planner::QuerySpec::new("env-tcp")
        .with_dataset(DatasetRef::named("fact"))
        .with_dataset(DatasetRef::named("da"))
        .with_dataset(DatasetRef::named("db"))
        .with_join(FieldRef::new("fact", "f_a"), FieldRef::new("da", "id"))
        .with_join(FieldRef::new("fact", "f_b"), FieldRef::new("db", "id"))
        .with_predicate(Predicate::udf("pick", FieldRef::new("da", "attr"), |v| {
            v.as_i64() == Some(2)
        }))
        .with_projection(vec![FieldRef::new("fact", "f_id")]);
    let driver = DynamicDriver::new(DynamicConfig::default());
    let via_env = driver.execute(&query, &mut catalog).expect("env-tcp run");
    let reference = driver
        .execute_with_transport(&query, &mut catalog, Arc::new(InProcessTransport))
        .expect("in-process run");
    assert_eq!(via_env.result, reference.result);
    assert_eq!(via_env.total, reference.total);
    assert_eq!(via_env.stage_plans, reference.stage_plans);
}

/// Satellite: `examples/distributed.rs` exits 0 in its in-process fallback
/// mode (`--in-process`), so the example harness stays runnable even where
/// spawning processes is off the table.
fn example_smoke_in_process_fallback_exits_zero() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let status = std::process::Command::new(cargo)
        .current_dir(manifest_dir)
        .args([
            "run",
            "-q",
            "--example",
            "distributed",
            "--",
            "--in-process",
        ])
        .status()
        .expect("spawn cargo run --example distributed");
    assert!(
        status.success(),
        "examples/distributed.rs --in-process exited {status}"
    );
}

fn main() {
    // Worker mode: this binary was re-executed by `LocalCluster::spawn`.
    if rdo_net::maybe_worker().expect("worker loop") {
        return;
    }
    // Env-transport child mode: a fresh process where RDO_TRANSPORT=tcp is
    // the only transport selection (see the test of the same name).
    if std::env::var_os("RDO_TEST_ENV_TRANSPORT").is_some() {
        env_transport_child();
        return;
    }

    let tests: &[(&str, fn())] = &[
        (
            "queries_are_transport_invariant_at_every_cluster_size",
            queries_are_transport_invariant_at_every_cluster_size,
        ),
        (
            "distributed_runs_compose_with_spill_and_grace",
            distributed_runs_compose_with_spill_and_grace,
        ),
        (
            "env_selected_tcp_transport_reaches_driver_and_runner",
            env_selected_tcp_transport_reaches_driver_and_runner,
        ),
        (
            "example_smoke_in_process_fallback_exits_zero",
            example_smoke_in_process_fallback_exits_zero,
        ),
    ];
    println!("running {} tests (distributed_equivalence)", tests.len());
    let mut failed = 0usize;
    for (name, test) in tests {
        match catch_unwind(AssertUnwindSafe(test)) {
            Ok(()) => println!("test {name} ... ok"),
            Err(_) => {
                println!("test {name} ... FAILED");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        rdo_common::error!("{failed} distributed equivalence test(s) failed");
        std::process::exit(1);
    }
}
