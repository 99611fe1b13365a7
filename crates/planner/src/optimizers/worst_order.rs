//! The worst-order baseline of the paper's evaluation: a right-deep tree of
//! hash joins that schedules the joins in *decreasing* order of join-result
//! size (the sizes are the ones the dynamic optimization computed). This is the
//! plan a user gets from AsterixDB's FROM-clause-driven default when they write
//! the datasets in the least favourable order and give no hints.

use super::{greedy_full_plan, Optimizer};
use crate::algorithm::JoinAlgorithmRule;
use crate::estimate::{EstimationMode, SizeEstimator};
use crate::query::QuerySpec;
use rdo_common::Result;
use rdo_exec::PhysicalPlan;
use rdo_sketch::StatsCatalog;
use rdo_storage::Catalog;

/// Worst-order baseline (largest joins first, hash joins only).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstOrderOptimizer;

impl Optimizer for WorstOrderOptimizer {
    fn name(&self) -> &'static str {
        "worst-order"
    }

    fn plan(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<PhysicalPlan> {
        // Exact post-predicate sizes (the orders in the paper are derived from
        // the sizes computed during the dynamic optimization), but hash joins
        // only: a zero broadcast threshold disables broadcast and INL.
        let estimator = SizeEstimator::new(catalog, stats, EstimationMode::Oracle);
        let rule = JoinAlgorithmRule::with_threshold(0.0);
        greedy_full_plan(spec, catalog, &estimator, &rule, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizers::best_order::BestOrderOptimizer;
    use crate::query::DatasetRef;
    use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
    use rdo_exec::{CostModel, ExecutionMetrics, ParallelConfig, ParallelExecutor};
    use rdo_storage::IngestOptions;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        // Two "fact" tables joined on a low-selectivity key plus one small dim.
        for (name, rows, key_mod) in [("f1", 4_000i64, 40i64), ("f2", 4_000, 40), ("dim", 40, 40)] {
            let schema =
                Schema::for_dataset(name, &[("id", DataType::Int64), ("k", DataType::Int64)]);
            let data = (0..rows)
                .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % key_mod)]))
                .collect();
            cat.ingest(
                name,
                Relation::new(schema, data).unwrap(),
                IngestOptions::partitioned_on("id"),
            )
            .unwrap();
        }
        cat
    }

    fn spec() -> QuerySpec {
        QuerySpec::new("q")
            .with_dataset(DatasetRef::named("f1"))
            .with_dataset(DatasetRef::named("f2"))
            .with_dataset(DatasetRef::named("dim"))
            .with_join(FieldRef::new("f1", "k"), FieldRef::new("dim", "k"))
            .with_join(FieldRef::new("f1", "k"), FieldRef::new("f2", "k"))
    }

    #[test]
    fn worst_order_uses_only_hash_joins() {
        let cat = catalog();
        let plan = WorstOrderOptimizer
            .plan(&spec(), &cat, cat.stats())
            .unwrap();
        let sig = plan.signature();
        assert!(
            !sig.contains("⋈b") && !sig.contains("⋈i"),
            "signature {sig}"
        );
    }

    #[test]
    fn worst_order_is_more_expensive_than_best_order() {
        let cat = catalog();
        let q = spec();
        let worst = WorstOrderOptimizer.plan(&q, &cat, cat.stats()).unwrap();
        let best = BestOrderOptimizer::default()
            .plan(&q, &cat, cat.stats())
            .unwrap();

        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let model = CostModel::with_partitions(4);
        let mut mw = ExecutionMetrics::new();
        let mut mb = ExecutionMetrics::new();
        let rw = exec.execute_to_relation(&worst, &mut mw).unwrap();
        let rb = exec.execute_to_relation(&best, &mut mb).unwrap();
        assert_eq!(rw.len(), rb.len(), "both plans compute the same query");
        assert!(
            mw.simulated_cost(&model) > mb.simulated_cost(&model),
            "worst order must cost more (worst {} vs best {})",
            mw.simulated_cost(&model),
            mb.simulated_cost(&model)
        );
        assert_eq!(WorstOrderOptimizer.name(), "worst-order");
    }

    #[test]
    fn worst_order_computes_the_same_rows_as_best_order() {
        let cat = catalog();
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let run = |plan: PhysicalPlan| {
            let mut m = ExecutionMetrics::new();
            exec.execute_to_relation(&plan, &mut m).unwrap().sorted()
        };
        let worst = WorstOrderOptimizer
            .plan(&spec(), &cat, cat.stats())
            .unwrap();
        assert_eq!(worst.join_count(), 2);
        let best = BestOrderOptimizer::default()
            .plan(&spec(), &cat, cat.stats())
            .unwrap();
        assert_eq!(run(worst).rows(), run(best).rows());
    }
}
