//! The optimizer audit trail in action: run TPC-H Q9 with deliberately stale
//! statistics and watch runtime re-optimization correct them.
//!
//! The ingestion-time row counts of `lineitem` and `partsupp` are inflated
//! 64× before the run, so every plan-time estimate that touches them is
//! wildly wrong (large Q-error). Runtime re-optimization still computes the
//! correct result — each decision reacts to *measured* actuals, not the lying
//! estimates — and the audit table printed at the end shows exactly which
//! estimates were wrong (their Q-error), alongside the explanation of every
//! re-optimization decision (what was chosen, what was rejected, and the cost
//! advantage the optimizer believed). A clean reference run quantifies how
//! much estimation error the stale sketches injected.
//!
//! ```text
//! cargo run --release --example audit_reopt
//! RDO_METRICS_ADDR=127.0.0.1:9464 RDO_AUDIT_REPS=25 \
//!     cargo run --release --example audit_reopt
//! ```
//!
//! With `RDO_METRICS_ADDR` set, the live scrape endpoint serves `/metrics`
//! (Prometheus exposition with latency-histogram buckets) and `/progress`
//! (per-query stage + rows-produced JSON) for the whole run; `RDO_AUDIT_REPS`
//! repeats the execution so there is something to scrape mid-run.

use runtime_dynamic_optimization::prelude::*;

fn main() -> rdo_common::Result<()> {
    // Start the scrape endpoint (a no-op without RDO_METRICS_ADDR) before the
    // data load, so `/metrics` responds while the example is still working.
    rdo_trace::serve::ensure_started_from_env();
    if let Some(addr) = rdo_trace::serve::metrics_addr() {
        println!("scrape endpoint: http://{addr}/metrics and http://{addr}/progress");
    }
    let reps: usize = std::env::var("RDO_AUDIT_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);

    println!("loading synthetic TPC-H data ...");
    let env = BenchmarkEnv::load(ScaleFactor::gb(2), 8, true, 42)?;

    // Reference: the same query with accurate ingestion-time statistics.
    let clean = {
        let mut catalog = env.catalog.clone();
        let driver =
            DynamicDriver::new(DynamicConfig::default().with_parallel(ParallelConfig::serial()));
        driver.execute(&q9(), &mut catalog)?
    };

    let mut last = None;
    for rep in 0..reps {
        let mut catalog = env.catalog.clone();
        // Make the ingestion-time statistics stale: inflate the row counts the
        // planner's initial estimates are built on. The data itself is
        // untouched, so the result stays correct — only the estimates lie.
        for name in ["lineitem", "partsupp"] {
            if let Some(mut stats) = catalog.stats().get(name).cloned() {
                stats.row_count *= 64;
                catalog.stats_mut().register(name, stats);
            }
        }
        let trace = TraceHandle::enabled();
        let driver = DynamicDriver::new(
            DynamicConfig::default()
                .with_parallel(ParallelConfig::serial())
                .with_trace(trace.clone()),
        );
        let outcome = driver.execute(&q9(), &mut catalog)?;
        if reps > 1 {
            println!(
                "rep {:>3}/{reps}: {} rows, max q-error {:.2}",
                rep + 1,
                outcome.result.len(),
                outcome.audit.max_q_error()
            );
        }
        last = Some(outcome);
    }

    let outcome = last.expect("at least one repetition");
    println!(
        "\nQ9: {} result rows across {} stages, {} re-optimization point(s)\n",
        outcome.result.len(),
        outcome.stages.len(),
        outcome.reoptimization_points
    );
    print!("{}", outcome.audit.render());

    // The headline: the stale sketches injected large estimation errors —
    // visible in the audit — yet the measured-actuals-driven decisions still
    // computed the exact same answer as the clean run.
    let stale_q = outcome.audit.max_q_error();
    let clean_q = clean.audit.max_q_error();
    println!("\nmax q-error with accurate sketches: {clean_q:>8.2}");
    println!("max q-error with stale sketches:    {stale_q:>8.2}");
    assert_eq!(
        outcome.result.clone().sorted(),
        clean.result.clone().sorted(),
        "stale estimates must never change the answer"
    );
    println!(
        "identical {}-row result either way: re-optimization planned from \
         measured actuals, not the lying estimates ✓",
        outcome.result.len()
    );
    Ok(())
}
