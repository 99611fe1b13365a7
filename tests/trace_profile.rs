//! Tracing is an *observer*, never a participant: enabling it must not
//! change a single bit of any outcome, and the logical span tree it records
//! must be a property of the query — identical across worker counts — not
//! of the physical schedule that happened to run it.
//!
//! No test here mutates the process environment: tracing is enabled through
//! `DynamicConfig::with_trace` / `QueryRunner::with_tracing`.

use runtime_dynamic_optimization::prelude::*;

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation")
}

fn traced_run(env: &BenchmarkEnv, workers: usize) -> (DynamicOutcome, Profile) {
    let trace = TraceHandle::enabled();
    let config = DynamicConfig::default()
        .with_parallel(ParallelConfig::serial().with_workers(workers))
        .with_trace(trace.clone());
    let mut catalog = env.catalog.clone();
    let outcome = DynamicDriver::new(config)
        .execute(&q9(), &mut catalog)
        .expect("traced execution");
    (outcome, trace.profile())
}

#[test]
fn tracing_changes_no_outcome_bit() {
    let env = env();
    let untraced = {
        let mut catalog = env.catalog.clone();
        DynamicDriver::new(DynamicConfig::default())
            .execute(&q9(), &mut catalog)
            .expect("untraced execution")
    };
    let (traced, profile) = traced_run(&env, 1);
    assert_eq!(traced.result, untraced.result, "results must be identical");
    assert_eq!(traced.total, untraced.total, "metrics must be identical");
    assert_eq!(traced.stage_plans, untraced.stage_plans);
    assert!(
        !profile.spans().is_empty(),
        "the traced run actually recorded spans"
    );
}

#[test]
fn logical_shape_is_worker_count_invariant() {
    let env = env();
    let (outcome_1, profile_1) = traced_run(&env, 1);
    let (outcome_4, profile_4) = traced_run(&env, 4);
    assert_eq!(outcome_1.result, outcome_4.result);
    assert_eq!(
        profile_1.logical_shape(),
        profile_4.logical_shape(),
        "the logical span tree is a property of the query, not the schedule"
    );
}

#[test]
fn profile_records_the_driver_stages_and_metrics() {
    let env = env();
    let (outcome, profile) = traced_run(&env, 1);

    let names: Vec<&str> = profile.spans().iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "driver.execute",
        "stage.pushdown",
        "stage.final",
        "planner.plan",
        "exec.scan",
        "exec.join",
        "sink.materialize",
    ] {
        assert!(names.contains(&expected), "missing span {expected:?}");
    }
    // Q9 re-optimizes at least once, so re-opt stages must appear.
    assert!(outcome.reoptimization_points > 0);
    assert!(names.contains(&"stage.reopt"));

    let tree = profile.render_tree();
    assert!(tree.contains("driver.execute"));
    assert!(tree.contains("query=Q9"));

    // A serial in-process run records no pool/net counters, so the
    // trace-level exposition may be empty — but never malformed.
    for line in profile.metrics_text().lines() {
        assert!(
            line.starts_with("# TYPE rdo_") || line.split(' ').count() == 2,
            "malformed exposition line {line:?}"
        );
    }

    // The runner-level report concatenates the execution counters with the
    // trace metrics under one exposition.
    let report = QueryRunner::default()
        .with_tracing(true)
        .run(Strategy::Dynamic, &q9(), &mut env.catalog.clone())
        .expect("runner execution");
    let exposition = report.metrics_text();
    assert!(exposition.contains("rdo_rows_scanned"));
    assert!(!report.profile().spans().is_empty());
}
