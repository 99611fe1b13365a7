//! The plans the re-optimizing strategies pick are pinned across commits: for
//! Q8/Q9/Q17/Q50 under every strategy with a re-optimization loop, a digest
//! of each run's stage plans, rendered audit trail, observed statistics
//! values and sorted result rows equals a constant. Strategy comparisons
//! elsewhere only check that runs agree with each other; this one notices
//! when a refactor of planning or reconstruction silently picks different
//! plans, estimates or intermediates.

use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::sketch::hll::hash_utf8;

/// `plans_digest()` of the planner as of this test's introduction. It changes
/// only with a deliberate change of what the re-optimizing strategies plan
/// or estimate (the failing assertion prints the rendering).
const PLANS_DIGEST: u64 = 1_454_665_892_170_793_494;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Dynamic,
    Strategy::ReoptWithoutOnlineStats,
    Strategy::DynamicWithoutPushdown,
    Strategy::IngresLike,
];

/// Every run's plans, audit trail, statistics work and sorted result rows
/// (as a count and a digest).
fn plans_rendered() -> String {
    let mut env =
        BenchmarkEnv::load(ScaleFactor::gb(100), 4, true, 42).expect("workload generation");
    let runner = QueryRunner::new(
        CostModel::with_partitions(4),
        JoinAlgorithmRule::with_threshold(25_000.0),
    )
    .with_parallel(ParallelConfig::serial().with_workers(2));
    let mut rendered = String::new();
    for query in all_queries() {
        for strategy in STRATEGIES {
            let report = runner
                .run(strategy, &query, &mut env.catalog)
                .unwrap_or_else(|e| panic!("{} under {strategy}: {e}", query.name));
            let mut rows: Vec<Vec<Value>> = report
                .result
                .rows()
                .iter()
                .map(|t| t.values().to_vec())
                .collect();
            rows.sort();
            rendered.push_str(&format!(
                "{} {strategy}\nplans: {}\n{}stats_values={}\nrows={} digest={}\n",
                query.name,
                report.plan,
                report.audit(),
                report.metrics.stats_values_observed,
                rows.len(),
                hash_utf8(&format!("{rows:?}")),
            ));
        }
    }
    rendered
}

#[test]
fn reoptimizing_strategies_pick_the_pinned_plans() {
    let rendered = plans_rendered();
    assert_eq!(
        hash_utf8(&rendered),
        PLANS_DIGEST,
        "plans, audit or results changed:\n{rendered}"
    );
}
