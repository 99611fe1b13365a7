//! End-to-end trace capture of a dynamic query execution.
//!
//! Runs dynamic Q9 on two pool workers with tracing enabled, prints the
//! EXPLAIN-ANALYZE span tree (stages, planner calls, the hash joins behind
//! their repartition exchanges, and the `pool.morsel` spans of the worker
//! pool), and writes the whole timeline as a Chrome `trace_event` JSON you
//! can open in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run --release --example trace_profile
//! RDO_TRACE=/tmp/q9.json cargo run --release --example trace_profile
//! ```

use runtime_dynamic_optimization::prelude::*;

fn main() {
    println!("loading synthetic TPC-H/TPC-DS data ...");
    let env = BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation");

    let trace = TraceHandle::enabled();
    // A zero broadcast threshold forces every join through the hash path,
    // so the trace shows hash joins fed by repartition exchanges.
    let driver = DynamicDriver::new(
        DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(0.0))
            .with_parallel(ParallelConfig::serial().with_workers(2))
            .with_trace(trace.clone()),
    );
    let mut catalog = env.catalog.clone();
    let outcome = driver.execute(&q9(), &mut catalog).expect("execution");
    println!(
        "Q9: {} result rows across {} stages, {} rows repartitioned\n",
        outcome.result.len(),
        outcome.stage_plans.len(),
        outcome.total.rows_shuffled,
    );

    let profile = trace.profile();
    print!("{}", profile.render_tree());

    // The audit trail: plan-time estimates vs materialized actuals per stage
    // (with Q-error) and the explanation of every re-optimization decision.
    println!("\noptimizer audit:");
    print!("{}", outcome.audit.render());

    // Per-span latency percentiles, straight from the span histograms.
    for name in ["exec.join", "pool.morsel"] {
        if let Some(h) = profile.histogram(name) {
            println!(
                "\n{name} latency over {} spans: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms",
                h.count(),
                h.quantile_ns(0.5) as f64 / 1e6,
                h.quantile_ns(0.9) as f64 / 1e6,
                h.quantile_ns(0.99) as f64 / 1e6,
            );
        }
    }

    let path = rdo_trace::export_path().unwrap_or_else(|| "trace_profile_q9.json".to_string());
    std::fs::write(&path, profile.chrome_trace_json())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
}
