//! The *Planner* stage of Algorithm 1: pick the single next join to execute.
//!
//! At every re-optimization point the dynamic approach does **not** form the
//! complete plan; it only searches for the cheapest next join (the one with the
//! least estimated result cardinality, formula 1) and the best algorithm for it.
//! The INGRES-like baseline uses the same machinery but scores candidate joins
//! by the cardinalities of the participating datasets only.

use crate::algorithm::{JoinAlgorithmRule, JoinSideInfo};
use crate::estimate::{EstimationMode, SizeEstimator};
use crate::query::{JoinCondition, QuerySpec};
use rdo_common::{FieldRef, RdoError, Result};
use rdo_exec::{JoinAlgorithm, PhysicalPlan};
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
    /// True if the edge connects the two given aliases (in either order).
    pub fn connects(&self, a: &str, b: &str) -> bool {
        (self.left_alias == a && self.right_alias == b)
            || (self.left_alias == b && self.right_alias == a)
    }

    /// True if the edge touches the alias.
    pub fn involves(&self, alias: &str) -> bool {
        self.left_alias == alias || self.right_alias == alias
    }

    /// Key pairs oriented so the first element belongs to `alias`.
    pub fn keys_from(&self, alias: &str) -> Vec<(FieldRef, FieldRef)> {
        if self.left_alias == alias {
            self.keys.clone()
        } else {
            self.keys
                .iter()
                .map(|(l, r)| (r.clone(), l.clone()))
                .collect()
        }
    }

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
        let (l, r) = join.datasets();
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
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJoin {
    /// The edge being joined.
    pub edge: JoinEdge,
    /// Probe-side alias (left input of the physical join).
    pub probe_alias: String,
    /// Build-side alias (right input; broadcast for Broadcast/INL).
    pub build_alias: String,
    /// Key pairs oriented `(probe key, build key)`.
    pub keys: Vec<(FieldRef, FieldRef)>,
    /// Chosen join algorithm.
    pub algorithm: JoinAlgorithm,
    /// Estimated result cardinality (formula 1).
    pub estimated_cardinality: f64,
    /// Estimated qualified rows of the probe side.
    pub probe_rows: f64,
    /// Estimated qualified rows of the build side.
    pub build_rows: f64,
    /// Score used to pick this join (depends on the policy).
    pub score: f64,
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

    /// Estimates the result cardinality of an edge given the two side sizes.
    fn edge_cardinality(
        estimator: &SizeEstimator<'_>,
        spec: &QuerySpec,
        edge: &JoinEdge,
        left_size: f64,
        right_size: f64,
    ) -> f64 {
        // For composite-key edges only the most selective condition is used:
        // multiplying per-condition factors assumes the key columns are
        // independent, which badly underestimates correlated composite keys
        // (e.g. partsupp ⋈ lineitem, where the supplier key is functionally
        // determined by the part key).
        let mut denominator = 1.0f64;
        for (lk, rk) in &edge.keys {
            let u_l = estimator.column_distinct(spec, &edge.left_alias, &lk.field, left_size);
            let u_r = estimator.column_distinct(spec, &edge.right_alias, &rk.field, right_size);
            denominator = denominator.max(u_l.max(u_r).max(1.0));
        }
        (left_size * right_size / denominator).max(0.0)
    }

    /// Builds the [`JoinSideInfo`] for one side of an edge.
    fn side_info(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        alias: &str,
        key: &FieldRef,
        estimated_rows: f64,
    ) -> Result<JoinSideInfo> {
        let table = spec.table_of(alias)?;
        let table_ref = catalog.table(table)?;
        let has_local_predicates = !spec.predicates_for(alias).is_empty();
        let is_bare_base_scan = !has_local_predicates && !table_ref.is_temporary();
        // A materialized intermediate (temporary table) counts as "filtered":
        // it is the product of earlier predicate or join work.
        let has_filter = has_local_predicates || table_ref.is_temporary();
        let indexed = catalog.has_secondary_index(table, &key.field);
        Ok(JoinSideInfo::new(alias, estimated_rows)
            .with_bare_base_scan(is_bare_base_scan)
            .with_filter(has_filter)
            .with_index(indexed))
    }

    /// Plans one candidate edge: size estimates, score, algorithm and orientation.
    fn plan_edge(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        estimator: &SizeEstimator<'_>,
        edge: &JoinEdge,
    ) -> Result<PlannedJoin> {
        // The INGRES-like policy knows nothing beyond dataset cardinalities, so
        // it cannot anticipate the effect of local predicates that have not been
        // materialized yet; the statistics policy estimates them from the
        // histograms.
        let (left_size, right_size) = match self.policy {
            NextJoinPolicy::Statistics => (
                estimator.dataset_size(spec, &edge.left_alias)?,
                estimator.dataset_size(spec, &edge.right_alias)?,
            ),
            NextJoinPolicy::CardinalityOnly => (
                estimator.base_rows(spec, &edge.left_alias)?,
                estimator.base_rows(spec, &edge.right_alias)?,
            ),
        };
        let cardinality = Self::edge_cardinality(estimator, spec, edge, left_size, right_size);
        let score = match self.policy {
            NextJoinPolicy::Statistics => cardinality,
            NextJoinPolicy::CardinalityOnly => left_size + right_size,
        };

        let left_info =
            self.side_info(spec, catalog, &edge.left_alias, &edge.keys[0].0, left_size)?;
        let right_info = self.side_info(
            spec,
            catalog,
            &edge.right_alias,
            &edge.keys[0].1,
            right_size,
        )?;
        let choice = self.rule.choose(&left_info, &right_info);
        let (probe_alias, build_alias, keys, probe_rows, build_rows) = if choice.build_is_second {
            (
                edge.left_alias.clone(),
                edge.right_alias.clone(),
                edge.keys.clone(),
                left_size,
                right_size,
            )
        } else {
            (
                edge.right_alias.clone(),
                edge.left_alias.clone(),
                edge.keys_from(&edge.right_alias),
                right_size,
                left_size,
            )
        };
        Ok(PlannedJoin {
            edge: edge.clone(),
            probe_alias,
            build_alias,
            keys,
            algorithm: choice.algorithm,
            estimated_cardinality: cardinality,
            probe_rows,
            build_rows,
            score,
        })
    }

    /// Plans every remaining join edge and ranks them best-first by
    /// `(score, edge description)` — the exact order [`Self::next_join`]
    /// selects under, so `ranked_joins(..)[0]` *is* the next join and
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
        let mut ranked = edges
            .iter()
            .map(|edge| self.plan_edge(spec, catalog, &estimator, edge))
            .collect::<Result<Vec<_>>>()?;
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

    /// Builds the physical scan of one dataset of the query: local predicates
    /// pushed into the scan plus a projection onto the columns the rest of the
    /// query needs.
    pub fn scan_plan(spec: &QuerySpec, alias: &str, project: bool) -> Result<PhysicalPlan> {
        let table = spec.table_of(alias)?;
        let predicates = spec.predicates_for(alias).into_iter().cloned().collect();
        let mut plan = PhysicalPlan::scan_aliased(alias, table).with_predicates(predicates);
        if project {
            let columns = spec.required_columns(alias, false);
            if !columns.is_empty() {
                plan = plan.with_projection(columns);
            }
        }
        Ok(plan)
    }

    /// Builds the physical plan of one planned join (the job executed at a
    /// re-optimization point).
    pub fn join_plan(&self, spec: &QuerySpec, planned: &PlannedJoin) -> Result<PhysicalPlan> {
        // The probe side of an indexed nested-loop join must stay a base-table
        // scan without projection so the executor can use its secondary index
        // and fetch full rows.
        let project_probe = planned.algorithm != JoinAlgorithm::IndexedNestedLoop;
        let probe = Self::scan_plan(spec, &planned.probe_alias, project_probe)?;
        let build = Self::scan_plan(spec, &planned.build_alias, true)?;
        Ok(PhysicalPlan::join_on(
            probe,
            build,
            planned.keys.clone(),
            planned.algorithm,
        ))
    }

    /// Builds the final physical plan once at most two join edges remain
    /// (Algorithm 1 stops re-optimizing at that point: "there is only one
    /// possible remaining join order" to decide, which the statistics gathered
    /// so far suffice for).
    pub fn plan_remaining(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<PhysicalPlan> {
        let edges = join_edges(spec);
        match edges.len() {
            0 => {
                if spec.datasets.len() == 1 {
                    GreedyPlanner::scan_plan(spec, &spec.datasets[0].alias, false)
                } else {
                    Err(RdoError::Planning(
                        "cannot plan a multi-dataset query without joins".into(),
                    ))
                }
            }
            1 => {
                let planned = self.next_join(spec, catalog, stats)?;
                self.join_plan(spec, &planned)
            }
            2 => {
                let estimator = SizeEstimator::new(catalog, stats, EstimationMode::Static);
                let first = self.next_join(spec, catalog, stats)?;
                let inner_plan = self.join_plan(spec, &first)?;
                let other_edge = edges
                    .iter()
                    .find(|e| !e.connects(&first.edge.left_alias, &first.edge.right_alias))
                    .ok_or_else(|| RdoError::Planning("expected a second join edge".into()))?;

                // The second edge connects the inner result with the remaining
                // dataset: the endpoint not consumed by the first join.
                let consumed = [
                    first.edge.left_alias.as_str(),
                    first.edge.right_alias.as_str(),
                ];
                let outer_alias = if consumed.contains(&other_edge.left_alias.as_str()) {
                    other_edge.right_alias.clone()
                } else {
                    other_edge.left_alias.clone()
                };
                let outer_keys = other_edge.keys_from(&outer_alias);
                let outer_size = estimator.dataset_size(spec, &outer_alias)?;
                let outer_info =
                    self.side_info(spec, catalog, &outer_alias, &outer_keys[0].0, outer_size)?;
                let inner_info = JoinSideInfo::new("intermediate", first.estimated_cardinality)
                    .with_filter(true);
                let choice = self.rule.choose(&inner_info, &outer_info);
                if choice.build_is_second {
                    // Probe = inner join result, build = remaining dataset.
                    let build = GreedyPlanner::scan_plan(spec, &outer_alias, true)?;
                    let keys: Vec<(FieldRef, FieldRef)> = outer_keys
                        .iter()
                        .map(|(outer, inner)| (inner.clone(), outer.clone()))
                        .collect();
                    Ok(PhysicalPlan::join_on(
                        inner_plan,
                        build,
                        keys,
                        choice.algorithm,
                    ))
                } else {
                    // Probe = remaining dataset (possibly via its index), build =
                    // inner join result.
                    let project_probe = choice.algorithm != JoinAlgorithm::IndexedNestedLoop;
                    let probe = GreedyPlanner::scan_plan(spec, &outer_alias, project_probe)?;
                    Ok(PhysicalPlan::join_on(
                        probe,
                        inner_plan,
                        outer_keys,
                        choice.algorithm,
                    ))
                }
            }
            n => Err(RdoError::Planning(format!(
                "plan_remaining called with {n} join edges; re-optimization should continue"
            ))),
        }
    }

    /// The planner's cardinality estimate for the plan [`Self::plan_remaining`]
    /// would build — the number the audit trail compares against the final
    /// stage's actual row count. `None` when more than two edges remain (the
    /// cost-based fallback path reports no single-number estimate).
    pub fn estimate_remaining(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<Option<f64>> {
        let estimator = SizeEstimator::new(catalog, stats, EstimationMode::Static);
        let edges = join_edges(spec);
        match edges.len() {
            0 => {
                if spec.datasets.len() == 1 {
                    Ok(Some(estimator.dataset_size(spec, &spec.datasets[0].alias)?))
                } else {
                    Ok(None)
                }
            }
            1 => Ok(Some(
                self.next_join(spec, catalog, stats)?.estimated_cardinality,
            )),
            2 => {
                let first = self.next_join(spec, catalog, stats)?;
                let other_edge = edges
                    .iter()
                    .find(|e| !e.connects(&first.edge.left_alias, &first.edge.right_alias))
                    .ok_or_else(|| RdoError::Planning("expected a second join edge".into()))?;
                let consumed = [
                    first.edge.left_alias.as_str(),
                    first.edge.right_alias.as_str(),
                ];
                let outer_alias = if consumed.contains(&other_edge.left_alias.as_str()) {
                    other_edge.right_alias.clone()
                } else {
                    other_edge.left_alias.clone()
                };
                let outer_size = estimator.dataset_size(spec, &outer_alias)?;
                let inner_size = first.estimated_cardinality;
                // Chain formula 1 through the intermediate: the inner side's
                // per-key distinct count comes from the originating dataset,
                // capped by the intermediate's estimated size (a join cannot
                // raise a column's distinct count).
                let mut denominator = 1.0f64;
                for (outer_key, inner_key) in other_edge.keys_from(&outer_alias) {
                    let u_outer =
                        estimator.column_distinct(spec, &outer_alias, &outer_key.field, outer_size);
                    let u_inner = estimator.column_distinct(
                        spec,
                        &inner_key.dataset,
                        &inner_key.field,
                        inner_size,
                    );
                    denominator = denominator.max(u_outer.max(u_inner).max(1.0));
                }
                Ok(Some((inner_size * outer_size / denominator).max(0.0)))
            }
            _ => Ok(None),
        }
    }
}

/// Convenience: all join conditions of an edge as [`JoinCondition`]s.
pub fn edge_conditions(edge: &JoinEdge) -> Vec<JoinCondition> {
    edge.keys
        .iter()
        .map(|(l, r)| JoinCondition::new(l.clone(), r.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DatasetRef;
    use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, ParallelConfig, ParallelExecutor, Predicate};
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
        let from_sr = edges[0].keys_from("sr");
        assert!(from_sr.iter().all(|(l, _)| l.dataset == "sr"));
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
        assert!(planned.edge.connects("fact", "dim"));
        assert!(planned.estimated_cardinality < 5_000.0);
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
        assert!(planned.edge.connects("fact", "dim"));
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
        assert!(planned.edge.connects("fact", "dim"));
        assert_eq!(planned.algorithm, JoinAlgorithm::Broadcast);
        assert_eq!(planned.build_alias, "dim");
        assert_eq!(planned.probe_alias, "fact");
        assert!(planned
            .keys
            .iter()
            .all(|(p, b)| p.dataset == "fact" && b.dataset == "dim"));
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
        assert_eq!(planned.algorithm, JoinAlgorithm::IndexedNestedLoop);
        assert_eq!(
            planned.probe_alias, "fact",
            "the indexed base table is the probe side"
        );
        assert_eq!(planned.build_alias, "dim");
    }

    #[test]
    fn hash_join_when_build_too_large() {
        let cat = catalog();
        let planned = planner(10.0).next_join(&spec(), &cat, cat.stats()).unwrap();
        assert_eq!(planned.algorithm, JoinAlgorithm::Hash);
    }

    #[test]
    fn join_plan_and_execution_round_trip() {
        let cat = catalog();
        let q = spec();
        let p = planner(1_000.0);
        let planned = p.next_join(&q, &cat, cat.stats()).unwrap();
        let plan = p.join_plan(&q, &planned).unwrap();
        assert_eq!(plan.join_count(), 1);
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = rdo_exec::ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
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
        let plan = p.plan_remaining(&q, &cat, cat.stats()).unwrap();
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
        let plan = p.plan_remaining(&q, &cat, cat.stats()).unwrap();
        assert_eq!(plan.join_count(), 0);
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = rdo_exec::ExecutionMetrics::new();
        assert_eq!(exec.execute_to_relation(&plan, &mut m).unwrap().len(), 100);
    }

    #[test]
    fn plan_remaining_rejects_too_many_edges() {
        let cat = catalog();
        let q = spec().with_dataset(DatasetRef::named("dim2")); // never reached
                                                                // Build a 3-edge query by adding a third edge between dim and big.
        let q = QuerySpec {
            datasets: vec![
                DatasetRef::named("fact"),
                DatasetRef::named("dim"),
                DatasetRef::named("big"),
            ],
            joins: vec![
                JoinCondition::new(FieldRef::new("fact", "f_dim"), FieldRef::new("dim", "d_id")),
                JoinCondition::new(FieldRef::new("fact", "f_big"), FieldRef::new("big", "b_id")),
                JoinCondition::new(FieldRef::new("dim", "d_id"), FieldRef::new("big", "b_id")),
            ],
            ..q
        };
        let p = planner(1_000.0);
        assert!(p.plan_remaining(&q, &cat, cat.stats()).is_err());
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
        assert_eq!(ranked[0], p.next_join(&q, &cat, cat.stats()).unwrap());
        assert!(
            ranked[0].score <= ranked[1].score,
            "runner-up never beats the winner"
        );
    }

    #[test]
    fn estimate_remaining_covers_every_edge_count() {
        let cat = catalog();
        let p = planner(1_000.0);

        // 0 edges: a single dataset estimates its own size.
        let single = QuerySpec::new("q").with_dataset(DatasetRef::named("dim"));
        let est = p.estimate_remaining(&single, &cat, cat.stats()).unwrap();
        assert_eq!(est, Some(100.0));

        // 1 edge: the next join's estimated cardinality.
        let one = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("dim"))
            .with_join(FieldRef::new("fact", "f_dim"), FieldRef::new("dim", "d_id"));
        let est = p.estimate_remaining(&one, &cat, cat.stats()).unwrap();
        let next = p.next_join(&one, &cat, cat.stats()).unwrap();
        assert_eq!(est, Some(next.estimated_cardinality));

        // 2 edges: formula 1 chained through the intermediate; the estimate
        // should be in the ballpark of the true 10_000-row result.
        let est = p
            .estimate_remaining(&spec(), &cat, cat.stats())
            .unwrap()
            .unwrap();
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
    fn edge_conditions_roundtrip() {
        let edge = JoinEdge {
            left_alias: "a".into(),
            right_alias: "b".into(),
            keys: vec![(FieldRef::new("a", "x"), FieldRef::new("b", "y"))],
        };
        let conds = edge_conditions(&edge);
        assert_eq!(conds.len(), 1);
        assert_eq!(conds[0].describe(), "a.x = b.y");
        assert!(edge.involves("a") && !edge.involves("c"));
        assert!(edge.describe().contains("a.x = b.y"));
    }
}
