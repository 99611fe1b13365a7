//! The full shape of every plan is pinned across commits: for Q8/Q9/Q17/Q50,
//! a digest of the `{:?}` rendering of
//!
//! * the complete plan of each static strategy (cost-based, best-order,
//!   worst-order, pilot-run), under the default rule and with indexed
//!   nested-loop joins enabled, and
//! * every stage plan of each re-optimizing strategy under the default rule
//!
//! equals a constant. `plan_pin` compares plan signatures, which omit
//! predicates, projections and the order and orientation of the join keys;
//! this test notices when any of those move.

use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::sketch::hll::hash_utf8;

/// The digest of `shapes_rendered()` under the planner as of this test's
/// introduction. It changes only with a deliberate change of a plan's shape
/// (the failing assertion prints the rendering).
const SHAPES_DIGEST: u64 = 15_107_363_211_435_085_751;

fn rule(indexed_nested_loop: bool) -> JoinAlgorithmRule {
    JoinAlgorithmRule::with_threshold(25_000.0).with_indexed_nested_loop(indexed_nested_loop)
}

/// The four re-optimizing strategies' driver configurations.
fn dynamic_configs() -> [(&'static str, DynamicConfig); 4] {
    let rule = rule(false);
    [
        ("dynamic", DynamicConfig::dynamic(rule)),
        (
            "reopt-no-online-stats",
            DynamicConfig::without_online_stats(rule),
        ),
        (
            "dynamic-no-pushdown",
            DynamicConfig {
                push_down_predicates: false,
                ..DynamicConfig::dynamic(rule)
            },
        ),
        ("ingres-like", DynamicConfig::ingres_like(rule)),
    ]
}

/// Every static plan and every dynamic stage plan, rendered in full.
fn shapes_rendered() -> String {
    let mut env =
        BenchmarkEnv::load(ScaleFactor::gb(100), 4, true, 42).expect("workload generation");
    let mut rendered = String::new();
    for query in all_queries() {
        for inl in [false, true] {
            let rule = rule(inl);
            let optimizers: [(&str, Box<dyn Optimizer>); 4] = [
                ("cost-based", Box::new(CostBasedOptimizer::new(rule))),
                ("best-order", Box::new(BestOrderOptimizer::new(rule))),
                ("worst-order", Box::new(WorstOrderOptimizer)),
                ("pilot-run", Box::new(PilotRunOptimizer::new(rule, 2_000))),
            ];
            for (name, optimizer) in optimizers {
                let (plan, _) = optimizer
                    .plan_with_overhead(&query, &env.catalog, env.catalog.stats())
                    .unwrap_or_else(|e| panic!("{} under {name}: {e}", query.name));
                rendered.push_str(&format!("{} {name} inl={inl}\n{plan:?}\n", query.name));
            }
        }
        for (name, config) in dynamic_configs() {
            let config = config
                .with_parallel(ParallelConfig::serial())
                .with_trace(TraceHandle::disabled());
            let outcome = DynamicDriver::new(config)
                .execute(&query, &mut env.catalog)
                .unwrap_or_else(|e| panic!("{} under {name}: {e}", query.name));
            for (i, stage) in outcome.stages.iter().enumerate() {
                rendered.push_str(&format!(
                    "{} {name} stage {i} {:?}\n{:?}\n",
                    query.name, stage.kind, stage.plan
                ));
            }
        }
    }
    rendered
}

#[test]
fn every_plan_keeps_its_pinned_shape() {
    let rendered = shapes_rendered();
    assert_eq!(
        hash_utf8(&rendered),
        SHAPES_DIGEST,
        "a plan's shape changed:\n{rendered}"
    );
}
