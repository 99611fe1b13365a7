//! Traditional static cost-based optimization (the paper's "cost-based"
//! baseline): a complete plan is formed up front by dynamic programming over
//! the statistics collected at ingestion time, assuming predicate independence
//! and the System-R default selectivity factors for UDFs and parameterized
//! predicates.

use super::{dp_full_plan, Optimizer};
use crate::algorithm::JoinAlgorithmRule;
use crate::estimate::{EstimationMode, SizeEstimator};
use crate::query::QuerySpec;
use rdo_common::Result;
use rdo_exec::PhysicalPlan;
use rdo_sketch::StatsCatalog;
use rdo_storage::Catalog;

/// Selinger-style static cost-based optimizer.
#[derive(Debug, Clone, Copy)]
pub struct CostBasedOptimizer {
    /// Physical join-algorithm rule (broadcast threshold, INL enablement).
    pub rule: JoinAlgorithmRule,
}

impl CostBasedOptimizer {
    /// Creates the optimizer with the given algorithm rule.
    pub fn new(rule: JoinAlgorithmRule) -> Self {
        Self { rule }
    }
}

impl Default for CostBasedOptimizer {
    fn default() -> Self {
        Self::new(JoinAlgorithmRule::default())
    }
}

impl Optimizer for CostBasedOptimizer {
    fn name(&self) -> &'static str {
        "cost-based"
    }

    fn plan(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<PhysicalPlan> {
        let estimator = SizeEstimator::new(catalog, stats, EstimationMode::Static);
        dp_full_plan(spec, catalog, &estimator, &self.rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DatasetRef;
    use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
    use rdo_exec::{ExecutionMetrics, Predicate};
    use rdo_parallel::{ParallelConfig, ParallelExecutor};
    use rdo_storage::IngestOptions;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        for (name, rows) in [("a", 2_000i64), ("b", 200), ("c", 20)] {
            let schema =
                Schema::for_dataset(name, &[("k", DataType::Int64), ("v", DataType::Int64)]);
            let data = (0..rows)
                .map(|i| Tuple::new(vec![Value::Int64(i % 20), Value::Int64(i)]))
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

    fn spec() -> QuerySpec {
        QuerySpec::new("q")
            .with_dataset(DatasetRef::named("a"))
            .with_dataset(DatasetRef::named("b"))
            .with_dataset(DatasetRef::named("c"))
            .with_join(FieldRef::new("a", "k"), FieldRef::new("b", "k"))
            .with_join(FieldRef::new("b", "k"), FieldRef::new("c", "k"))
    }

    #[test]
    fn produces_executable_plan_over_all_datasets() {
        let cat = catalog();
        let opt = CostBasedOptimizer::default();
        assert_eq!(opt.name(), "cost-based");
        let plan = opt.plan(&spec(), &cat, cat.stats()).unwrap();
        assert_eq!(plan.join_count(), 2);
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert!(!rel.is_empty());
    }

    #[test]
    fn complex_predicate_misleads_the_static_estimate() {
        // A UDF on `a` that keeps almost nothing: the static optimizer assumes
        // 10%, so it will typically not consider `a` broadcastable even though
        // the true filtered size (20 rows) is tiny.
        let cat = catalog();
        let q = spec().with_predicate(Predicate::udf("rare", FieldRef::new("a", "v"), |v| {
            v.as_i64().map(|x| x < 20).unwrap_or(false)
        }));
        let opt = CostBasedOptimizer::new(JoinAlgorithmRule::with_threshold(50.0));
        let plan = opt.plan(&q, &cat, cat.stats()).unwrap();
        // `a` estimated at 200 rows (10% of 2000) > 50-row threshold → never the
        // broadcast side even though truth is 20 rows.
        let sig = plan.signature();
        assert!(sig.contains("σ(a)"), "plan signature: {sig}");
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert!(!rel.is_empty());
    }

    #[test]
    fn default_overhead_is_zero() {
        let cat = catalog();
        let opt = CostBasedOptimizer::default();
        let (_, overhead) = opt.plan_with_overhead(&spec(), &cat, cat.stats()).unwrap();
        assert_eq!(overhead, ExecutionMetrics::new());
    }
}
