//! Static (one-shot) optimizer baselines.
//!
//! Unlike the dynamic approach, these optimizers form the *complete* execution
//! plan before the query starts and never revisit it. They differ in the
//! information they feed the same building blocks (the join-size formula and
//! the join-algorithm rule):
//!
//! * [`cost_based::CostBasedOptimizer`] — Selinger-style dynamic programming
//!   over the initial (ingestion-time) statistics, independence assumption and
//!   default factors for complex predicates.
//! * [`worst_order::WorstOrderOptimizer`] — the paper's worst case: a right-deep
//!   tree of hash joins scheduling joins in decreasing result size.
//! * [`best_order::BestOrderOptimizer`] — the FROM order a user would write if
//!   they already knew what the dynamic approach discovers, plus broadcast
//!   hints; modeled as the greedy smallest-result-first construction over exact
//!   post-predicate sizes.
//! * [`pilot_run::PilotRunOptimizer`] — statistics from pilot runs over samples
//!   of the base datasets, then a full plan like the cost-based optimizer.

pub mod best_order;
pub mod cost_based;
pub mod pilot_run;
pub mod worst_order;

use crate::algorithm::{JoinAlgorithmRule, JoinSideInfo};
use crate::query::QuerySpec;
use rdo_common::{FieldRef, RdoError, Result};
use rdo_exec::{ExecutionMetrics, PhysicalPlan};
use rdo_sketch::StatsCatalog;
use rdo_storage::Catalog;
use std::collections::BTreeSet;

/// A static query optimizer: produces a complete physical plan up front.
pub trait Optimizer {
    /// Name used in reports and figures.
    fn name(&self) -> &'static str;

    /// Produces the complete plan for the query.
    fn plan(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<PhysicalPlan>;

    /// Produces the plan plus any up-front work the strategy had to perform
    /// (e.g. the pilot runs); the default has no overhead.
    fn plan_with_overhead(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<(PhysicalPlan, ExecutionMetrics)> {
        Ok((self.plan(spec, catalog, stats)?, ExecutionMetrics::new()))
    }
}

/// Leaf-level statistics a plan-construction strategy works from. Implemented
/// by the histogram/oracle estimator and by the pilot-run sample estimates.
pub trait LeafStats {
    /// Estimated qualified rows of the dataset after its local predicates.
    fn leaf_size(&self, spec: &QuerySpec, alias: &str) -> Result<f64>;
    /// Estimated distinct values of `alias.column`, capped at `cap`.
    fn leaf_distinct(&self, spec: &QuerySpec, alias: &str, column: &str, cap: f64) -> f64;
}

impl LeafStats for crate::estimate::SizeEstimator<'_> {
    fn leaf_size(&self, spec: &QuerySpec, alias: &str) -> Result<f64> {
        self.dataset_size(spec, alias)
    }

    fn leaf_distinct(&self, spec: &QuerySpec, alias: &str, column: &str, cap: f64) -> f64 {
        self.column_distinct(spec, alias, column, cap)
    }
}

/// A partial plan covering a subset of the query's datasets.
#[derive(Debug, Clone)]
pub struct SubPlan {
    /// The physical plan for this subset.
    pub plan: PhysicalPlan,
    /// Aliases covered.
    pub aliases: BTreeSet<String>,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Cumulative cost (sum of intermediate result sizes).
    pub cost: f64,
    /// Set when the sub-plan is a single dataset (leaf), enabling the
    /// index/bare-scan checks of the join-algorithm rule.
    pub leaf_alias: Option<String>,
}

/// Builds the leaf sub-plan for one dataset of the query.
pub fn make_leaf(spec: &QuerySpec, stats: &dyn LeafStats, alias: &str) -> Result<SubPlan> {
    let table = spec.table_of(alias)?;
    let predicates = spec.predicates_for(alias).into_iter().cloned().collect();
    let mut plan = PhysicalPlan::scan_aliased(alias, table).with_predicates(predicates);
    // Project each scan onto the columns the rest of the query needs, exactly
    // like the dynamic driver's scans, so the comparison between strategies is
    // about join order and algorithms rather than row width.
    let columns = spec.required_columns(alias, false);
    if !columns.is_empty() {
        plan = plan.with_projection(columns);
    }
    let est_rows = stats.leaf_size(spec, alias)?;
    let mut aliases = BTreeSet::new();
    aliases.insert(alias.to_string());
    Ok(SubPlan {
        plan,
        aliases,
        est_rows,
        cost: 0.0,
        leaf_alias: Some(alias.to_string()),
    })
}

/// The join conditions of the query connecting two disjoint alias sets,
/// oriented `(key in a, key in b)`.
pub fn connecting_keys(
    spec: &QuerySpec,
    a: &BTreeSet<String>,
    b: &BTreeSet<String>,
) -> Vec<(FieldRef, FieldRef)> {
    let mut keys = Vec::new();
    for join in &spec.joins {
        let (l, r) = join.datasets();
        if a.contains(l) && b.contains(r) {
            keys.push((join.left.clone(), join.right.clone()));
        } else if a.contains(r) && b.contains(l) {
            keys.push((join.right.clone(), join.left.clone()));
        }
    }
    keys
}

fn side_info_for(
    spec: &QuerySpec,
    catalog: &Catalog,
    sub: &SubPlan,
    key: &FieldRef,
) -> JoinSideInfo {
    match &sub.leaf_alias {
        Some(alias) => {
            let has_predicates = !spec.predicates_for(alias).is_empty();
            let table = spec.table_of(alias).unwrap_or(alias);
            let temporary = catalog
                .table(table)
                .map(|t| t.is_temporary())
                .unwrap_or(false);
            let indexed = catalog.has_secondary_index(table, &key.field);
            JoinSideInfo::new(alias.clone(), sub.est_rows)
                .with_bare_base_scan(!has_predicates && !temporary)
                .with_filter(has_predicates || temporary)
                .with_index(indexed)
        }
        None => JoinSideInfo::new("intermediate", sub.est_rows).with_filter(true),
    }
}

/// Joins two sub-plans if the query connects them; returns `None` for a cross
/// product. The estimated output uses the System-R formula over all connecting
/// conditions; the algorithm and build side come from the rule.
pub fn join_subplans(
    spec: &QuerySpec,
    catalog: &Catalog,
    stats: &dyn LeafStats,
    rule: &JoinAlgorithmRule,
    a: &SubPlan,
    b: &SubPlan,
) -> Option<SubPlan> {
    let keys = connecting_keys(spec, &a.aliases, &b.aliases);
    if keys.is_empty() {
        return None;
    }
    // Composite-key joins use only the most selective condition (see
    // `GreedyPlanner::edge_cardinality`): assuming independence between the key
    // columns of a composite foreign key badly underestimates the result.
    let mut denominator = 1.0f64;
    for (ka, kb) in &keys {
        let u_a = stats.leaf_distinct(spec, &ka.dataset, &ka.field, a.est_rows);
        let u_b = stats.leaf_distinct(spec, &kb.dataset, &kb.field, b.est_rows);
        denominator = denominator.max(u_a.max(u_b).max(1.0));
    }
    let est_rows = (a.est_rows * b.est_rows / denominator).max(0.0);

    let a_info = side_info_for(spec, catalog, a, &keys[0].0);
    let b_info = side_info_for(spec, catalog, b, &keys[0].1);
    let choice = rule.choose(&a_info, &b_info);
    let plan = if choice.build_is_second {
        PhysicalPlan::join_on(
            a.plan.clone(),
            b.plan.clone(),
            keys.clone(),
            choice.algorithm,
        )
    } else {
        let swapped: Vec<(FieldRef, FieldRef)> = keys
            .iter()
            .map(|(ka, kb)| (kb.clone(), ka.clone()))
            .collect();
        PhysicalPlan::join_on(b.plan.clone(), a.plan.clone(), swapped, choice.algorithm)
    };

    let mut aliases = a.aliases.clone();
    aliases.extend(b.aliases.iter().cloned());
    Some(SubPlan {
        plan,
        aliases,
        est_rows,
        cost: a.cost + b.cost + est_rows,
        leaf_alias: None,
    })
}

/// Greedy full-plan construction: repeatedly merge the pair of sub-plans whose
/// join has the smallest (or, for the worst-order baseline, largest) estimated
/// output, until one plan covers the whole query.
pub fn greedy_full_plan(
    spec: &QuerySpec,
    catalog: &Catalog,
    stats: &dyn LeafStats,
    rule: &JoinAlgorithmRule,
    pick_largest: bool,
) -> Result<PhysicalPlan> {
    spec.validate()?;
    let mut subplans: Vec<SubPlan> = spec
        .aliases()
        .into_iter()
        .map(|alias| make_leaf(spec, stats, alias))
        .collect::<Result<Vec<_>>>()?;
    if subplans.is_empty() {
        return Err(RdoError::Planning("query has no datasets".into()));
    }
    while subplans.len() > 1 {
        let mut best: Option<(usize, usize, SubPlan)> = None;
        for i in 0..subplans.len() {
            for j in (i + 1)..subplans.len() {
                let Some(candidate) =
                    join_subplans(spec, catalog, stats, rule, &subplans[i], &subplans[j])
                else {
                    continue;
                };
                let better = match &best {
                    None => true,
                    Some((_, _, current)) => {
                        if pick_largest {
                            candidate.est_rows > current.est_rows
                        } else {
                            candidate.est_rows < current.est_rows
                        }
                    }
                };
                if better {
                    best = Some((i, j, candidate));
                }
            }
        }
        let (i, j, merged) =
            best.ok_or_else(|| RdoError::Planning("join graph is not connected".into()))?;
        // Remove j first (larger index) to keep i valid.
        subplans.remove(j);
        subplans.remove(i);
        subplans.push(merged);
    }
    Ok(subplans.pop().expect("one plan remains").plan)
}

/// Selinger-style dynamic programming over all connected sub-sets of datasets,
/// minimizing the cumulative estimated intermediate-result size. Produces bushy
/// plans (the paper notes most optimal plans for these queries are bushy).
pub fn dp_full_plan(
    spec: &QuerySpec,
    catalog: &Catalog,
    stats: &dyn LeafStats,
    rule: &JoinAlgorithmRule,
) -> Result<PhysicalPlan> {
    spec.validate()?;
    let aliases: Vec<String> = spec.aliases().into_iter().map(|s| s.to_string()).collect();
    let n = aliases.len();
    if n == 0 {
        return Err(RdoError::Planning("query has no datasets".into()));
    }
    if n > 16 {
        return Err(RdoError::Planning(format!(
            "dynamic-programming enumeration supports at most 16 datasets, got {n}"
        )));
    }
    let full_mask: usize = (1 << n) - 1;
    let mut table: Vec<Option<SubPlan>> = vec![None; 1 << n];
    for (i, alias) in aliases.iter().enumerate() {
        table[1 << i] = Some(make_leaf(spec, stats, alias)?);
    }
    for mask in 1..=full_mask {
        if table[mask].is_some() {
            continue;
        }
        let mut best: Option<SubPlan> = None;
        // Enumerate proper non-empty sub-masks.
        let mut left = (mask - 1) & mask;
        while left > 0 {
            let right = mask ^ left;
            if left < right {
                // Each split is considered once; join_subplans tries both
                // orientations internally via the algorithm rule.
                left = (left - 1) & mask;
                continue;
            }
            if let (Some(a), Some(b)) = (&table[left], &table[right]) {
                if let Some(candidate) = join_subplans(spec, catalog, stats, rule, a, b) {
                    let better = match &best {
                        None => true,
                        Some(current) => candidate.cost < current.cost,
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
            }
            left = (left - 1) & mask;
        }
        table[mask] = best;
    }
    table[full_mask]
        .take()
        .map(|sp| sp.plan)
        .ok_or_else(|| RdoError::Planning("no connected plan covers all datasets".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{EstimationMode, SizeEstimator};
    use crate::query::DatasetRef;
    use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, JoinAlgorithm, ParallelConfig, ParallelExecutor, Predicate};
    use rdo_storage::IngestOptions;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        for (name, rows, key_mod) in [
            ("fact", 5_000i64, 50i64),
            ("dim", 50, 50),
            ("other", 500, 50),
        ] {
            let schema = Schema::for_dataset(
                name,
                &[
                    ("id", DataType::Int64),
                    ("k", DataType::Int64),
                    ("v", DataType::Int64),
                ],
            );
            let data = (0..rows)
                .map(|i| {
                    Tuple::new(vec![
                        Value::Int64(i),
                        Value::Int64(i % key_mod),
                        Value::Int64(i % 7),
                    ])
                })
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
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("dim"))
            .with_dataset(DatasetRef::named("other"))
            .with_join(FieldRef::new("fact", "k"), FieldRef::new("dim", "k"))
            .with_join(FieldRef::new("fact", "k"), FieldRef::new("other", "k"))
    }

    #[test]
    fn greedy_and_dp_plans_cover_all_datasets_and_agree_on_results() {
        let cat = catalog();
        let q = spec();
        let estimator = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let rule = JoinAlgorithmRule::with_threshold(100.0);

        let greedy = greedy_full_plan(&q, &cat, &estimator, &rule, false).unwrap();
        let dp = dp_full_plan(&q, &cat, &estimator, &rule).unwrap();
        assert_eq!(greedy.datasets().len(), 3);
        assert_eq!(dp.datasets().len(), 3);

        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m1 = ExecutionMetrics::new();
        let mut m2 = ExecutionMetrics::new();
        let r1 = exec.execute_to_relation(&greedy, &mut m1).unwrap();
        let r2 = exec.execute_to_relation(&dp, &mut m2).unwrap();
        assert_eq!(
            r1.len(),
            r2.len(),
            "plan shape must not change the result size"
        );
        assert!(!r1.is_empty());
    }

    #[test]
    fn worst_first_greedy_prefers_larger_joins_first() {
        let cat = catalog();
        let q = spec();
        let estimator = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Oracle);
        // Force hash joins everywhere (threshold zero).
        let rule = JoinAlgorithmRule::with_threshold(0.0);
        let worst = greedy_full_plan(&q, &cat, &estimator, &rule, true).unwrap();
        let best = greedy_full_plan(&q, &cat, &estimator, &rule, false).unwrap();
        // The worst plan joins fact⋈other (bigger result) before fact⋈dim.
        assert_ne!(worst.signature(), best.signature());
    }

    #[test]
    fn cross_products_are_rejected() {
        let cat = catalog();
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("dim"));
        let estimator = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let rule = JoinAlgorithmRule::default();
        assert!(greedy_full_plan(&q, &cat, &estimator, &rule, false).is_err());
        assert!(dp_full_plan(&q, &cat, &estimator, &rule).is_err());
    }

    #[test]
    fn broadcast_threshold_controls_algorithm() {
        let cat = catalog();
        let q = spec();
        let estimator = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let broadcast_rule = JoinAlgorithmRule::with_threshold(100.0);
        let plan = greedy_full_plan(&q, &cat, &estimator, &broadcast_rule, false).unwrap();
        assert!(
            plan.signature().contains("⋈b"),
            "dim (50 rows) should broadcast: {}",
            plan.signature()
        );
        let hash_rule = JoinAlgorithmRule::with_threshold(0.0);
        let plan = greedy_full_plan(&q, &cat, &estimator, &hash_rule, false).unwrap();
        assert!(!plan.signature().contains("⋈b"));
    }

    #[test]
    fn filtered_leaf_uses_predicate_selectivity() {
        let cat = catalog();
        let q = spec().with_predicate(Predicate::compare(
            FieldRef::new("other", "v"),
            CmpOp::Eq,
            0i64,
        ));
        let estimator = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let leaf = make_leaf(&q, &estimator, "other").unwrap();
        assert!(
            leaf.est_rows < 200.0,
            "filtered leaf estimate {}",
            leaf.est_rows
        );
        assert_eq!(leaf.leaf_alias.as_deref(), Some("other"));
    }

    #[test]
    fn connecting_keys_orientation() {
        let q = spec();
        let mut a = BTreeSet::new();
        a.insert("dim".to_string());
        let mut b = BTreeSet::new();
        b.insert("fact".to_string());
        let keys = connecting_keys(&q, &a, &b);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].0.dataset, "dim");
        assert_eq!(keys[0].1.dataset, "fact");
    }

    #[test]
    fn inl_probe_side_remains_unprojected_scan() {
        let mut cat = catalog();
        // Rebuild fact with a secondary index on k so INL becomes possible.
        let schema =
            Schema::for_dataset("fact2", &[("id", DataType::Int64), ("k", DataType::Int64)]);
        let data = (0..5_000)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 50)]))
            .collect();
        cat.ingest(
            "fact2",
            Relation::new(schema, data).unwrap(),
            IngestOptions::partitioned_on("id").with_index("k"),
        )
        .unwrap();
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("fact2"))
            .with_dataset(DatasetRef::named("dim"))
            .with_join(FieldRef::new("fact2", "k"), FieldRef::new("dim", "k"))
            .with_predicate(Predicate::compare(
                FieldRef::new("dim", "v"),
                CmpOp::Eq,
                1i64,
            ));
        let estimator = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let rule = JoinAlgorithmRule::with_threshold(100.0).with_indexed_nested_loop(true);
        let plan = greedy_full_plan(&q, &cat, &estimator, &rule, false).unwrap();
        match &plan {
            PhysicalPlan::Join { algorithm, .. } => {
                assert_eq!(*algorithm, JoinAlgorithm::IndexedNestedLoop)
            }
            _ => panic!("expected a join"),
        }
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert!(!rel.is_empty());
        assert!(m.index_lookups > 0);
    }
}
