//! Quantify the correlated-predicate problem that motivates predicate
//! push-down (Section 5.1 of the paper, TPC-H Q8's `o_orderdate` /
//! `o_orderstatus` pair): measure how far the independence assumption is from
//! the truth for every multi-predicate dataset of the evaluation queries, and
//! show what that misestimation does to the static cost-based plan.
//!
//! Run with: `cargo run --release --example correlated_predicates`

use runtime_dynamic_optimization::planner::analyze_query;
use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::workloads::{q17, q50, q8, q9};

fn main() -> rdo_common::Result<()> {
    let mut env = BenchmarkEnv::load(ScaleFactor::gb(20), 8, false, 42)?;

    println!("correlated local predicates (true vs. independence-assumption selectivity)\n");
    println!(
        "{:<6} {:<10} {:>6} {:>12} {:>12} {:>8} {:>8}",
        "query", "dataset", "preds", "true-sel", "static-est", "corr", "err"
    );
    for query in [q17(), q50(9, 2000), q8(), q9()] {
        let reports = analyze_query(&query, &env.catalog)?;
        for report in reports {
            println!(
                "{:<6} {:<10} {:>6} {:>12.5} {:>12.5} {:>8.2} {:>8.2}",
                query.name,
                report.alias,
                report.marginal_selectivities.len(),
                report.combined_selectivity,
                report.independence_estimate,
                report.correlation_factor(),
                report.static_error_factor()
            );
        }
    }

    // The consequence: on Q8 the static cost-based optimizer works from the
    // multiplied estimate, while the dynamic approach executes the predicates
    // and plans from the truth.
    println!("\nQ8 under the two optimizers:");
    let runner = QueryRunner::new(
        CostModel::with_partitions(8),
        JoinAlgorithmRule::with_threshold(10_000.0),
    );
    let dynamic = runner.run(Strategy::Dynamic, &q8(), &mut env.catalog)?;
    let cost_based = runner.run(Strategy::CostBased, &q8(), &mut env.catalog)?;
    println!(
        "  dynamic     simulated-cost={:>12.1}  plan: {}",
        dynamic.simulated_cost, dynamic.plan
    );
    println!(
        "  cost-based  simulated-cost={:>12.1}  plan: {}",
        cost_based.simulated_cost, cost_based.plan
    );
    Ok(())
}
