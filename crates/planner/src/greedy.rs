//! The *Planner* stage of Algorithm 1: pick the single next join to execute.
//!
//! At every re-optimization point the dynamic approach does **not** form the
//! complete plan; it only searches for the cheapest next join (the one with the
//! least estimated result cardinality, formula 1) and the best algorithm for it.
//! Each candidate is the planner's one join step, [`join_subplans`], over the
//! leaves of the edge's two datasets — the step the static baselines build
//! their plans from.
//! The INGRES-like baseline uses the same machinery but scores candidate joins
//! by the cardinalities of the participating datasets only.

use crate::algorithm::JoinAlgorithmRule;
use crate::estimate::{EstimationMode, SizeEstimator};
use crate::optimizers::{dp_full_plan, join_subplans, SubPlan};
use crate::query::QuerySpec;
use rdo_common::{FieldRef, RdoError, Result};
use rdo_exec::PhysicalPlan;
use rdo_sketch::StatsCatalog;
use rdo_storage::Catalog;
use std::collections::BTreeMap;

/// How the greedy planner scores candidate joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextJoinPolicy {
    /// Estimated join-result cardinality from the statistics (GK + HLL) —
    /// the paper's dynamic approach.
    Statistics,
    /// Sum of the participating dataset cardinalities only — the INGRES-like
    /// baseline.
    CardinalityOnly,
}

/// A join edge: all equi-join conditions between one pair of dataset aliases,
/// normalized so every condition's left key belongs to `left_alias`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinEdge {
    /// One endpoint.
    pub left_alias: String,
    /// The other endpoint.
    pub right_alias: String,
    /// Key pairs `(left_alias key, right_alias key)`.
    pub keys: Vec<(FieldRef, FieldRef)>,
}

impl JoinEdge {
    /// Human-readable description.
    pub fn describe(&self) -> String {
        let conds: Vec<String> = self
            .keys
            .iter()
            .map(|(l, r)| format!("{l} = {r}"))
            .collect();
        conds.join(" AND ")
    }
}

/// Groups the query's join conditions into edges (one per dataset pair).
pub fn join_edges(spec: &QuerySpec) -> Vec<JoinEdge> {
    let mut grouped: BTreeMap<(String, String), Vec<(FieldRef, FieldRef)>> = BTreeMap::new();
    for join in &spec.joins {
        let (l, r) = spec.join_homes(join);
        let (a, b, lk, rk) = if l <= r {
            (
                l.to_string(),
                r.to_string(),
                join.left.clone(),
                join.right.clone(),
            )
        } else {
            (
                r.to_string(),
                l.to_string(),
                join.right.clone(),
                join.left.clone(),
            )
        };
        grouped.entry((a, b)).or_default().push((lk, rk));
    }
    grouped
        .into_iter()
        .map(|((left_alias, right_alias), keys)| JoinEdge {
            left_alias,
            right_alias,
            keys,
        })
        .collect()
}

/// The planner's decision for the next join to execute.
#[derive(Debug, Clone)]
pub struct PlannedJoin {
    /// The edge being joined.
    pub edge: JoinEdge,
    /// The join as a sub-plan: the job's plan (probe side left, build side
    /// right — broadcast for Broadcast/INL — and keys oriented `(probe key,
    /// build key)`), the two aliases it covers and its estimated result
    /// cardinality (formula 1).
    pub joined: SubPlan,
    /// Score used to pick this join (depends on the policy).
    pub score: f64,
}

impl PlannedJoin {
    /// The probe side's key of the first key pair: the column the join's
    /// output is placed on.
    pub fn probe_key(&self) -> Option<&FieldRef> {
        match &self.joined.plan {
            PhysicalPlan::Join { keys, .. } => keys.first().map(|(probe, _)| probe),
            PhysicalPlan::Scan { .. } => None,
        }
    }
}

/// The greedy next-join planner.
#[derive(Debug, Clone, Copy)]
pub struct GreedyPlanner {
    /// Join-scoring policy.
    pub policy: NextJoinPolicy,
    /// Physical join-algorithm rule.
    pub rule: JoinAlgorithmRule,
}

impl GreedyPlanner {
    /// Creates a planner.
    pub fn new(policy: NextJoinPolicy, rule: JoinAlgorithmRule) -> Self {
        Self { policy, rule }
    }

    /// The leaf of one dataset, sized by the policy. The INGRES-like policy
    /// knows nothing beyond dataset cardinalities, so it cannot anticipate the
    /// effect of local predicates that have not been materialized yet; the
    /// statistics policy estimates them from the histograms.
    fn leaf(
        &self,
        spec: &QuerySpec,
        estimator: &SizeEstimator<'_>,
        alias: &str,
    ) -> Result<SubPlan> {
        let size = match self.policy {
            NextJoinPolicy::Statistics => estimator.dataset_size(spec, alias)?,
            NextJoinPolicy::CardinalityOnly => estimator.base_rows(spec, alias)?,
        };
        SubPlan::leaf(spec, alias, size)
    }

    /// Plans every remaining join edge — the join step over the leaves of its
    /// two datasets — and ranks them best-first by `(score, edge
    /// description)`, so `ranked_joins(..)[0]` *is* the next join and
    /// `ranked_joins(..)[1]` is the runner-up the audit trail reports as
    /// rejected.
    pub fn ranked_joins(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<Vec<PlannedJoin>> {
        let estimator = SizeEstimator::new(catalog, stats, EstimationMode::Static);
        let edges = join_edges(spec);
        if edges.is_empty() {
            return Err(RdoError::Planning("query has no joins left to plan".into()));
        }
        let leaves = spec
            .aliases()
            .into_iter()
            .map(|alias| Ok((alias, self.leaf(spec, &estimator, alias)?)))
            .collect::<Result<BTreeMap<_, _>>>()?;
        let mut ranked = Vec::with_capacity(edges.len());
        for edge in edges {
            let (left, right) = (
                &leaves[edge.left_alias.as_str()],
                &leaves[edge.right_alias.as_str()],
            );
            let joined = join_subplans(spec, catalog, &estimator, &self.rule, left, right)?
                .ok_or_else(|| {
                    RdoError::Planning(format!("no condition joins {}", edge.describe()))
                })?;
            let score = match self.policy {
                NextJoinPolicy::Statistics => joined.est_rows,
                NextJoinPolicy::CardinalityOnly => left.est_rows + right.est_rows,
            };
            ranked.push(PlannedJoin {
                edge,
                joined,
                score,
            });
        }
        ranked.sort_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.edge.describe().cmp(&b.edge.describe()))
        });
        Ok(ranked)
    }

    /// Returns the cheapest next join of the (remaining) query, per the policy.
    pub fn next_join(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<PlannedJoin> {
        self.ranked_joins(spec, catalog, stats)?
            .into_iter()
            .next()
            .ok_or_else(|| RdoError::Planning("no plannable join found".into()))
    }

    /// Plans the final job and returns it with its estimated result
    /// cardinality — the number the audit trail compares against the final
    /// stage's actual row count. Algorithm 1 stops re-optimizing once at most
    /// two join edges remain: "there is only one possible remaining join
    /// order" to decide, which the statistics gathered so far suffice for.
    /// More edges remain only when a re-optimization budget ran out; the rest
    /// of the query is then planned statically (Selinger DP) over whatever
    /// statistics the executed stages refreshed, with no single-number
    /// estimate.
    pub fn plan_remaining(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<(PhysicalPlan, Option<f64>)> {
        let estimator = SizeEstimator::new(catalog, stats, EstimationMode::Static);
        let edges = join_edges(spec);
        let last = match edges.len() {
            0 => match spec.datasets.as_slice() {
                [single] => {
                    let size = estimator.dataset_size(spec, &single.alias)?;
                    SubPlan::leaf(spec, &single.alias, size)?
                }
                _ => {
                    return Err(RdoError::Planning(
                        "cannot plan a multi-dataset query without joins".into(),
                    ))
                }
            },
            1 => self.next_join(spec, catalog, stats)?.joined,
            2 => {
                // The second edge joins the first join's result with the
                // remaining dataset, which both policies size by its
                // statistics.
                let inner = self.next_join(spec, catalog, stats)?.joined;
                let outer = edges
                    .iter()
                    .flat_map(|e| [&e.left_alias, &e.right_alias])
                    .find(|alias| !inner.aliases.contains(*alias))
                    .ok_or_else(|| RdoError::Planning("expected a second join edge".into()))?;
                let outer = SubPlan::leaf(spec, outer, estimator.dataset_size(spec, outer)?)?;
                join_subplans(spec, catalog, &estimator, &self.rule, &inner, &outer)?
                    .ok_or_else(|| RdoError::Planning("expected a second join edge".into()))?
            }
            _ => return Ok((dp_full_plan(spec, catalog, &estimator, &self.rule)?, None)),
        };
        Ok((last.plan, Some(last.est_rows)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DatasetRef;
    use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, JoinAlgorithm, ParallelConfig, ParallelExecutor, Predicate};
    use rdo_storage::IngestOptions;

    /// fact(f_id, f_dim, f_big) 10_000 rows; dim(d_id, d_cat) 100 rows;
    /// big(b_id, b_val) 5_000 rows. fact ⋈ dim on f_dim=d_id, fact ⋈ big on
    /// f_big=b_id.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let fact_schema = Schema::for_dataset(
            "fact",
            &[
                ("f_id", DataType::Int64),
                ("f_dim", DataType::Int64),
                ("f_big", DataType::Int64),
            ],
        );
        let fact_rows = (0..10_000)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Int64(i % 100),
                    Value::Int64(i % 5_000),
                ])
            })
            .collect();
        cat.ingest(
            "fact",
            Relation::new(fact_schema, fact_rows).unwrap(),
            IngestOptions::partitioned_on("f_id").with_index("f_dim"),
        )
        .unwrap();

        let dim_schema = Schema::for_dataset(
            "dim",
            &[("d_id", DataType::Int64), ("d_cat", DataType::Int64)],
        );
        let dim_rows = (0..100)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 5)]))
            .collect();
        cat.ingest(
            "dim",
            Relation::new(dim_schema, dim_rows).unwrap(),
            IngestOptions::partitioned_on("d_id"),
        )
        .unwrap();

        let big_schema = Schema::for_dataset(
            "big",
            &[("b_id", DataType::Int64), ("b_val", DataType::Int64)],
        );
        let big_rows = (0..5_000)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i * 3)]))
            .collect();
        cat.ingest(
            "big",
            Relation::new(big_schema, big_rows).unwrap(),
            IngestOptions::partitioned_on("b_id"),
        )
        .unwrap();
        cat
    }

    fn spec() -> QuerySpec {
        QuerySpec::new("q")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("dim"))
            .with_dataset(DatasetRef::named("big"))
            .with_join(FieldRef::new("fact", "f_dim"), FieldRef::new("dim", "d_id"))
            .with_join(FieldRef::new("fact", "f_big"), FieldRef::new("big", "b_id"))
            .with_projection(vec![FieldRef::new("fact", "f_id")])
    }

    fn planner(threshold: f64) -> GreedyPlanner {
        GreedyPlanner::new(
            NextJoinPolicy::Statistics,
            JoinAlgorithmRule::with_threshold(threshold),
        )
    }

    #[test]
    fn edges_group_composite_conditions() {
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("ss"))
            .with_dataset(DatasetRef::named("sr"))
            .with_join(FieldRef::new("ss", "item"), FieldRef::new("sr", "item"))
            .with_join(FieldRef::new("sr", "ticket"), FieldRef::new("ss", "ticket"));
        let edges = join_edges(&q);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].keys.len(), 2);
        // Every left key belongs to the edge's left alias regardless of how the
        // user wrote the condition.
        for (l, r) in &edges[0].keys {
            assert_eq!(l.dataset, edges[0].left_alias);
            assert_eq!(r.dataset, edges[0].right_alias);
        }
    }

    /// The algorithm and key pairs of a join plan.
    fn join_parts(plan: &PhysicalPlan) -> (JoinAlgorithm, &[(FieldRef, FieldRef)]) {
        match plan {
            PhysicalPlan::Join {
                algorithm, keys, ..
            } => (*algorithm, keys),
            PhysicalPlan::Scan { .. } => panic!("expected a join, got {plan:?}"),
        }
    }

    #[test]
    fn statistics_policy_picks_smallest_result_join() {
        let cat = catalog();
        let q = spec();
        // fact ⋈ dim produces 10_000 rows; fact ⋈ big produces 10_000 rows too
        // (every fact row matches exactly one of each)... filter dim to make the
        // dim join clearly smaller.
        let q = q.with_predicate(Predicate::compare(
            FieldRef::new("dim", "d_cat"),
            CmpOp::Eq,
            0i64,
        ));
        let planned = planner(1_000.0).next_join(&q, &cat, cat.stats()).unwrap();
        assert_eq!(planned.edge.describe(), "dim.d_id = fact.f_dim");
        assert!(planned.joined.est_rows < 5_000.0);
    }

    #[test]
    fn cardinality_only_policy_ignores_join_selectivity() {
        let cat = catalog();
        let q = spec();
        // dim (100 rows) + fact (10_000) = 10_100 < big (5_000) + fact = 15_000,
        // so INGRES-like also picks fact⋈dim here; but if we shrink big below
        // dim's total the choice flips even though the join result would be huge.
        let ingres = GreedyPlanner::new(
            NextJoinPolicy::CardinalityOnly,
            JoinAlgorithmRule::with_threshold(1_000.0),
        );
        let planned = ingres.next_join(&q, &cat, cat.stats()).unwrap();
        assert_eq!(planned.edge.describe(), "dim.d_id = fact.f_dim");
        assert_eq!(planned.score, 10_100.0);
    }

    #[test]
    fn small_build_side_gets_broadcast() {
        let cat = catalog();
        // Filter dim so the fact⋈dim edge is unambiguously the cheapest.
        let q = spec().with_predicate(Predicate::compare(
            FieldRef::new("dim", "d_cat"),
            CmpOp::Lt,
            3i64,
        ));
        let planned = planner(1_000.0).next_join(&q, &cat, cat.stats()).unwrap();
        assert_eq!(planned.edge.describe(), "dim.d_id = fact.f_dim");
        assert_eq!(planned.joined.plan.signature(), "(fact ⋈b σ(dim))");
        let (_, keys) = join_parts(&planned.joined.plan);
        assert!(keys
            .iter()
            .all(|(p, b)| p.dataset == "fact" && b.dataset == "dim"));
        assert_eq!(planned.probe_key(), Some(&FieldRef::new("fact", "f_dim")));
    }

    #[test]
    fn inl_chosen_when_enabled_and_applicable() {
        let cat = catalog();
        let q = spec().with_predicate(Predicate::compare(
            FieldRef::new("dim", "d_cat"),
            CmpOp::Eq,
            0i64,
        ));
        let rule = JoinAlgorithmRule::with_threshold(1_000.0).with_indexed_nested_loop(true);
        let planner = GreedyPlanner::new(NextJoinPolicy::Statistics, rule);
        let planned = planner.next_join(&q, &cat, cat.stats()).unwrap();
        assert_eq!(
            planned.joined.plan.signature(),
            "(fact ⋈i σ(dim))",
            "the indexed base table is the probe side"
        );
    }

    #[test]
    fn hash_join_when_build_too_large() {
        let cat = catalog();
        let planned = planner(10.0).next_join(&spec(), &cat, cat.stats()).unwrap();
        assert_eq!(join_parts(&planned.joined.plan).0, JoinAlgorithm::Hash);
    }

    #[test]
    fn planned_join_executes() {
        let cat = catalog();
        let planned = planner(1_000.0)
            .next_join(&spec(), &cat, cat.stats())
            .unwrap();
        assert_eq!(planned.joined.plan.join_count(), 1);
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = rdo_exec::ExecutionMetrics::new();
        let rel = exec
            .execute_to_relation(&planned.joined.plan, &mut m)
            .unwrap();
        assert_eq!(
            rel.len(),
            10_000,
            "every fact row matches exactly one dim row"
        );
    }

    #[test]
    fn plan_remaining_two_edges_builds_full_plan() {
        let cat = catalog();
        let q = spec();
        let p = planner(1_000.0);
        let (plan, _) = p.plan_remaining(&q, &cat, cat.stats()).unwrap();
        assert_eq!(plan.join_count(), 2);
        assert_eq!(plan.datasets().len(), 3);
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = rdo_exec::ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(rel.len(), 10_000);
    }

    #[test]
    fn plan_remaining_single_dataset_is_scan() {
        let cat = catalog();
        let q = QuerySpec::new("q").with_dataset(DatasetRef::named("dim"));
        let p = planner(1_000.0);
        let (plan, _) = p.plan_remaining(&q, &cat, cat.stats()).unwrap();
        assert_eq!(plan.join_count(), 0);
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = rdo_exec::ExecutionMetrics::new();
        assert_eq!(exec.execute_to_relation(&plan, &mut m).unwrap().len(), 100);
    }

    #[test]
    fn plan_remaining_plans_past_two_edges_statically() {
        use crate::optimizers::{cost_based::CostBasedOptimizer, Optimizer};
        use crate::query::JoinCondition;
        let cat = catalog();
        // A 3-edge query: a third edge between dim and big.
        let q = QuerySpec {
            joins: vec![
                JoinCondition::new(FieldRef::new("fact", "f_dim"), FieldRef::new("dim", "d_id")),
                JoinCondition::new(FieldRef::new("fact", "f_big"), FieldRef::new("big", "b_id")),
                JoinCondition::new(FieldRef::new("dim", "d_id"), FieldRef::new("big", "b_id")),
            ],
            ..spec()
        };
        let p = planner(1_000.0);
        let (plan, estimate) = p.plan_remaining(&q, &cat, cat.stats()).unwrap();
        assert_eq!(estimate, None, "the static fallback has no single estimate");
        let static_plan = CostBasedOptimizer::new(p.rule)
            .plan(&q, &cat, cat.stats())
            .unwrap();
        assert_eq!(format!("{plan:?}"), format!("{static_plan:?}"));
    }

    #[test]
    fn ranked_joins_lead_with_the_next_join() {
        let cat = catalog();
        let q = spec().with_predicate(Predicate::compare(
            FieldRef::new("dim", "d_cat"),
            CmpOp::Eq,
            0i64,
        ));
        let p = planner(1_000.0);
        let ranked = p.ranked_joins(&q, &cat, cat.stats()).unwrap();
        assert_eq!(ranked.len(), 2, "one candidate per remaining edge");
        assert_eq!(
            format!("{:?}", ranked[0]),
            format!("{:?}", p.next_join(&q, &cat, cat.stats()).unwrap())
        );
        assert!(
            ranked[0].score <= ranked[1].score,
            "runner-up never beats the winner"
        );
    }

    #[test]
    fn plan_remaining_estimates_every_edge_count() {
        let cat = catalog();
        let p = planner(1_000.0);

        // 0 edges: a single dataset estimates its own size.
        let single = QuerySpec::new("q").with_dataset(DatasetRef::named("dim"));
        let (_, est) = p.plan_remaining(&single, &cat, cat.stats()).unwrap();
        assert_eq!(est, Some(100.0));

        // 1 edge: the next join's estimated cardinality.
        let one = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("dim"))
            .with_join(FieldRef::new("fact", "f_dim"), FieldRef::new("dim", "d_id"));
        let (_, est) = p.plan_remaining(&one, &cat, cat.stats()).unwrap();
        let next = p.next_join(&one, &cat, cat.stats()).unwrap();
        assert_eq!(est, Some(next.joined.est_rows));

        // 2 edges: formula 1 chained through the intermediate; the estimate
        // should be in the ballpark of the true 10_000-row result.
        let (_, est) = p.plan_remaining(&spec(), &cat, cat.stats()).unwrap();
        let est = est.unwrap();
        assert!(est > 0.0, "positive estimate, got {est}");
        let actual = 10_000.0f64;
        let q = (est / actual).max(actual / est);
        assert!(q < 100.0, "chained estimate within two decades, q={q}");
    }

    #[test]
    fn next_join_errors_without_joins() {
        let cat = catalog();
        let q = QuerySpec::new("q").with_dataset(DatasetRef::named("dim"));
        assert!(planner(100.0).next_join(&q, &cat, cat.stats()).is_err());
    }

    #[test]
    fn edge_describes_its_conditions() {
        let edge = JoinEdge {
            left_alias: "a".into(),
            right_alias: "b".into(),
            keys: vec![(FieldRef::new("a", "x"), FieldRef::new("b", "y"))],
        };
        assert_eq!(edge.describe(), "a.x = b.y");
    }
}
