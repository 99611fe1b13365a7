//! The best-order baseline: the plan a user would get from the default
//! (FROM-clause-driven) optimizer if they already knew the join order the
//! dynamic approach discovers and added the right broadcast hints. It has no
//! re-optimization overhead, which is why the paper reports it as slightly
//! faster than the dynamic approach — it represents the most gain achievable.

use super::{greedy_full_plan, Optimizer};
use crate::algorithm::JoinAlgorithmRule;
use crate::estimate::{EstimationMode, SizeEstimator};
use crate::query::QuerySpec;
use rdo_common::Result;
use rdo_exec::PhysicalPlan;
use rdo_sketch::StatsCatalog;
use rdo_storage::Catalog;

/// Best-order baseline (oracle sizes, smallest joins first, broadcast hints).
#[derive(Debug, Clone, Copy)]
pub struct BestOrderOptimizer {
    /// Physical join-algorithm rule (the "hints" the user supplies).
    pub rule: JoinAlgorithmRule,
}

impl BestOrderOptimizer {
    /// Creates the optimizer with the given algorithm rule.
    pub fn new(rule: JoinAlgorithmRule) -> Self {
        Self { rule }
    }
}

impl Default for BestOrderOptimizer {
    fn default() -> Self {
        Self::new(JoinAlgorithmRule::default())
    }
}

impl Optimizer for BestOrderOptimizer {
    fn name(&self) -> &'static str {
        "best-order"
    }

    fn plan(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<PhysicalPlan> {
        let estimator = SizeEstimator::new(catalog, stats, EstimationMode::Oracle);
        greedy_full_plan(spec, catalog, &estimator, &self.rule, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DatasetRef;
    use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, ExecutionMetrics, Predicate};
    use rdo_parallel::{ParallelConfig, ParallelExecutor};
    use rdo_storage::IngestOptions;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        for (name, rows) in [("fact", 5_000i64), ("dim", 100)] {
            let schema =
                Schema::for_dataset(name, &[("k", DataType::Int64), ("v", DataType::Int64)]);
            let data = (0..rows)
                .map(|i| Tuple::new(vec![Value::Int64(i % 100), Value::Int64(i)]))
                .collect();
            cat.ingest(
                name,
                Relation::new(schema, data).unwrap(),
                IngestOptions::partitioned_on("v"),
            )
            .unwrap();
        }
        cat
    }

    #[test]
    fn best_order_uses_true_filtered_sizes_for_hints() {
        let cat = catalog();
        // A UDF keeps only dim rows with v < 10 → 10 rows. The oracle sees that,
        // so with a 50-row threshold the dim side gets broadcast even though the
        // static default estimate (10% of 100 = 10... use fact instead).
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("dim"))
            .with_join(FieldRef::new("fact", "k"), FieldRef::new("dim", "k"))
            .with_predicate(Predicate::udf(
                "rare_fact",
                FieldRef::new("fact", "v"),
                |v| v.as_i64().map(|x| x < 30).unwrap_or(false),
            ));
        let opt = BestOrderOptimizer::new(JoinAlgorithmRule::with_threshold(50.0));
        assert_eq!(opt.name(), "best-order");
        let plan = opt.plan(&q, &cat, cat.stats()).unwrap();
        // The filtered fact (30 true rows, static estimate would be 500) is the
        // broadcast build side.
        let sig = plan.signature();
        assert!(sig.contains("⋈b"), "expected a broadcast join: {sig}");
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(
            rel.len(),
            30,
            "each filtered fact row matches exactly one dim row"
        );
    }

    #[test]
    fn simple_filter_still_executes_correctly() {
        let cat = catalog();
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("dim"))
            .with_join(FieldRef::new("fact", "k"), FieldRef::new("dim", "k"))
            .with_predicate(Predicate::compare(
                FieldRef::new("dim", "v"),
                CmpOp::Lt,
                10i64,
            ));
        let plan = BestOrderOptimizer::default()
            .plan(&q, &cat, cat.stats())
            .unwrap();
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(rel.len(), 10 * 50, "10 dim rows × 50 fact matches each");
    }
}
