//! TPC-DS Q17 stage-by-stage: shows the re-optimization points of the dynamic
//! driver — the pushed-down dimension filters, the join materialized at each
//! iteration, and the final (bushy) plan — together with the overhead breakdown
//! of Figure 6.
//!
//! Run with: `cargo run --release --example tpcds_q17_stages`

use runtime_dynamic_optimization::prelude::*;

fn main() -> rdo_common::Result<()> {
    let scale = ScaleFactor::gb(20);
    println!("loading synthetic TPC-DS data at {scale} ...");
    let mut env = BenchmarkEnv::load(scale, 8, false, 42)?;

    let query = q17();
    let rule = JoinAlgorithmRule::with_threshold(5_000.0);
    let driver = DynamicDriver::new(DynamicConfig::dynamic(rule));
    let outcome = driver.execute(&query, &mut env.catalog)?;

    println!("\nQ17 executed with runtime dynamic optimization");
    println!("  result rows:            {}", outcome.result.len());
    println!(
        "  re-optimization points: {}",
        outcome.reoptimization_points
    );
    println!("  planner invocations:    {}", outcome.planner_invocations);
    println!("\nstages (in execution order):");
    for (i, stage) in outcome.stages.iter().enumerate() {
        let sink = match &stage.sink {
            Some(sink) => format!("-> {}", sink.table),
            None => "-> result".to_string(),
        };
        println!(
            "  [{i}] {:<8} {} {sink} ({} rows scanned)",
            format!("{:?}", stage.kind),
            stage.description(),
            stage.metrics.rows_scanned
        );
    }

    let model = CostModel::with_partitions(8);
    let breakdown = CostBreakdown::of(&outcome, &model);
    println!("\nsimulated-cost breakdown (Figure 6 decomposition):");
    println!("  total:               {:>12.1}", breakdown.total);
    println!(
        "  re-optimization:     {:>12.1}  ({:.1}%)",
        breakdown.reoptimization,
        100.0 * breakdown.reoptimization_fraction()
    );
    println!(
        "  online statistics:   {:>12.1}  ({:.1}%)",
        breakdown.online_stats,
        100.0 * breakdown.online_stats_fraction()
    );
    println!(
        "  predicate push-down: {:>12.1}  ({:.1}%)",
        breakdown.predicate_pushdown,
        100.0 * breakdown.pushdown_fraction()
    );
    println!("  base execution:      {:>12.1}", breakdown.base_execution);

    // Contrast with the plan a static cost-based optimizer would have run.
    let runner = QueryRunner::new(model, rule);
    let cost_based = runner.run(Strategy::CostBased, &query, &mut env.catalog)?;
    println!("\nstatic cost-based plan for comparison:");
    println!("  {}", cost_based.plan);
    println!(
        "  simulated cost {:.1} vs dynamic {:.1}",
        cost_based.simulated_cost, breakdown.total
    );
    Ok(())
}
