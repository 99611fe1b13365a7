//! The runtime dynamic optimization driver (Algorithm 1 of the paper).

use rdo_common::{FieldRef, RdoError, Relation, Result};
use rdo_exec::{
    materialize, ExecutionMetrics, ParallelConfig, ParallelExecutor, PartitionedData, PhysicalPlan,
    WorkerPool,
};
use rdo_planner::greedy::join_edges;
use rdo_planner::{
    reconstruct_after_join, reconstruct_after_pushdown, CostBasedOptimizer, EstimationMode,
    GreedyPlanner, JoinAlgorithmRule, LearnedStatsCatalog, NextJoinPolicy, Optimizer, QuerySpec,
    SizeEstimator,
};
use rdo_storage::Catalog;
use rdo_storage::SpillConfig;
use rdo_trace::audit::{AuditLog, EstimateRecord, ReoptDecision};
use std::sync::Arc;

/// Configuration of the dynamic driver. The paper's approach and the
/// INGRES-like baseline share the same driver and differ only in these knobs.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// How the next join is scored ([`NextJoinPolicy::Statistics`] for the
    /// paper's approach, [`NextJoinPolicy::CardinalityOnly`] for INGRES-like).
    pub policy: NextJoinPolicy,
    /// Physical join-algorithm rule.
    pub rule: JoinAlgorithmRule,
    /// Whether sketches (GK + HLL) are collected on materialized intermediate
    /// results. Disabled for the INGRES-like baseline (cardinalities only) and
    /// for the Figure 6 ablation that isolates the online-statistics cost.
    pub collect_online_stats: bool,
    /// Whether datasets with multiple or complex local predicates are executed
    /// first as single-variable queries (Algorithm 1 lines 6–9).
    pub push_down_predicates: bool,
    /// Maximum number of re-optimization points to spend. `None` (the paper's
    /// configuration) re-optimizes until only two joins remain; `Some(k)` stops
    /// after `k` materialized joins and plans the remaining query statically
    /// over whatever statistics have been gathered so far — the overhead/
    /// accuracy trade-off the paper's future-work section raises.
    pub reopt_budget: Option<u32>,
    /// Partition-parallel execution knobs: every stage (push-down, materialized
    /// join, final job) runs through the worker pool, and the Sink at each
    /// re-optimization barrier merges per-partition sketch partials. Results
    /// and metrics are identical for every worker count.
    pub parallel: ParallelConfig,
    /// Disk-backed materialization knobs: when a budget is set, intermediates
    /// that would push the resident working set past it are spilled to the
    /// paged disk store and read back page by page, with real spilled-bytes /
    /// page-I/O counters in the metrics. A join budget additionally runs
    /// over-budget build sides as grace/hybrid hash joins through the same
    /// store. Results and (non-spill) metrics are bit-identical to the
    /// in-memory paths.
    pub spill: SpillConfig,
    /// Structured tracing: when the handle is enabled, the driver installs it
    /// for the whole execution and records a span tree (stages,
    /// re-optimization points, planner invocations, operators, exchanges)
    /// plus counters into it — call [`rdo_trace::TraceHandle::profile`] on
    /// your clone of the handle afterwards. The default follows the
    /// `RDO_TRACE` / `RDO_TRACE_SPANS` knobs; disabled tracing leaves the
    /// execution on the exact untraced code path.
    pub trace: rdo_trace::TraceHandle,
    /// An externally owned worker pool to execute on. `None` (the default)
    /// spawns a fresh pool per execution; a multi-query server passes its one
    /// shared pool here so concurrent sessions share threads instead of
    /// multiplying them.
    pub pool: Option<WorkerPool>,
    /// A learned-statistics catalog shared across executions. When set, the
    /// driver (a) seeds each push-down stage's plan-time estimate from the
    /// measured cardinality of the same value-qualified filter signature, and
    /// (b) records every materialized stage's actual row count back into the
    /// catalog — so *repeat* queries start from measured statistics instead of
    /// static guesses. `None` keeps the single-query behavior.
    pub learned: Option<Arc<LearnedStatsCatalog>>,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            policy: NextJoinPolicy::Statistics,
            rule: JoinAlgorithmRule::default(),
            collect_online_stats: true,
            push_down_predicates: true,
            reopt_budget: None,
            // Not RDO_WORKERS: worker counts stay explicit or
            // machine-default here.
            parallel: ParallelConfig::default(),
            // Reads RDO_SPILL_BUDGET and RDO_JOIN_BUDGET so an exported
            // budget drives every driver-based code path (including the
            // whole test suite) out-of-core without code changes.
            spill: SpillConfig::from_env(),
            // Reads RDO_TRACE / RDO_TRACE_SPANS, so exported tracing knobs
            // profile every driver-based code path without code changes.
            trace: rdo_trace::TraceHandle::from_env(),
            pool: None,
            learned: None,
        }
    }
}

impl DynamicConfig {
    /// The paper's full dynamic approach.
    pub fn dynamic(rule: JoinAlgorithmRule) -> Self {
        Self {
            rule,
            ..Default::default()
        }
    }

    /// The INGRES-like baseline: same decomposition, but the next join is
    /// chosen by dataset cardinalities only and no sketches are collected.
    pub fn ingres_like(rule: JoinAlgorithmRule) -> Self {
        Self {
            policy: NextJoinPolicy::CardinalityOnly,
            rule,
            collect_online_stats: false,
            push_down_predicates: true,
            ..Default::default()
        }
    }

    /// Ablation used in Figure 6: re-optimization points enabled but online
    /// statistics collection disabled.
    pub fn without_online_stats(rule: JoinAlgorithmRule) -> Self {
        Self {
            rule,
            collect_online_stats: false,
            ..Default::default()
        }
    }

    /// Caps the number of re-optimization points (builder style).
    pub fn with_reopt_budget(mut self, budget: u32) -> Self {
        self.reopt_budget = Some(budget);
        self
    }

    /// Sets the partition-parallel execution knobs (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Sets the disk-backed materialization knobs (builder style).
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = spill;
        self
    }

    /// Sets a join build-side budget in bytes (builder style): joins whose
    /// per-partition build side exceeds it run as grace/hybrid hash joins
    /// through the spill store.
    pub fn with_join_budget(mut self, bytes: u64) -> Self {
        self.spill = self.spill.with_join_budget(bytes);
        self
    }

    /// Sets the trace handle the execution records into (builder style).
    /// Keep a clone of the handle to read the profile after the run.
    pub fn with_trace(mut self, trace: rdo_trace::TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Executes on an externally owned (shared) worker pool instead of
    /// spawning one per execution (builder style).
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a shared learned-statistics catalog (builder style): push-down
    /// estimates are seeded from it and every materialized stage's actual
    /// cardinality is recorded back into it.
    pub fn with_learned(mut self, learned: Arc<LearnedStatsCatalog>) -> Self {
        self.learned = Some(learned);
        self
    }
}

/// What one dynamic execution did.
#[derive(Debug, Clone)]
pub struct DynamicOutcome {
    /// The final query result (already projected onto the SELECT list).
    pub result: Relation,
    /// Metrics of everything the driver executed (including overheads).
    pub total: ExecutionMetrics,
    /// Subset of `total` incurred by the predicate push-down stage.
    pub pushdown: ExecutionMetrics,
    /// Number of Planner invocations (re-optimization points + final planning).
    pub planner_invocations: u32,
    /// Number of materialized intermediate results (re-optimization points).
    pub reoptimization_points: u32,
    /// Signature of the plan executed at every stage, in order.
    pub stage_plans: Vec<String>,
    /// The optimizer audit trail: per-stage estimate-vs-actual records plus
    /// one decision explanation per re-optimization point. Derived entirely
    /// from deterministic coordinator-side quantities, so it is bit-identical
    /// across worker counts.
    pub audit: AuditLog,
}

impl DynamicOutcome {
    /// The overall plan shape as a single string (for EXPLAIN-style reports).
    pub fn plan_description(&self) -> String {
        self.stage_plans.join(" ; ")
    }
}

/// The kind of a materialized stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// A pushed-down single-variable query (Algorithm 1 lines 6–9).
    Pushdown,
    /// A materialized join from the re-optimization loop.
    Join,
}

/// A completed stage whose output now sits in the catalog as a temporary
/// table — what the stage loop reports to its caller, who owns the
/// temporaries: [`DynamicDriver`] drops them when the run ends,
/// [`crate::CheckpointedDriver`] logs them as checkpoints.
pub(crate) struct MaterializedStage<'a> {
    pub(crate) kind: StageKind,
    /// The stage's entry in [`DynamicOutcome::stage_plans`].
    pub(crate) description: &'a str,
    /// Name of the temporary table holding the stage's output.
    pub(crate) table: &'a str,
    /// The remaining query after the stage's reconstruction.
    pub(crate) spec_after: &'a QuerySpec,
}

/// The runtime dynamic optimization driver.
#[derive(Debug, Clone)]
pub struct DynamicDriver {
    /// Driver configuration.
    pub config: DynamicConfig,
}

impl DynamicDriver {
    /// Creates a driver.
    pub fn new(config: DynamicConfig) -> Self {
        Self { config }
    }

    /// Executes the query with runtime dynamic optimization. The catalog is
    /// mutated while the query runs (temporary tables for intermediate results)
    /// but restored before returning.
    pub fn execute(&self, spec: &QuerySpec, catalog: &mut Catalog) -> Result<DynamicOutcome> {
        spec.validate()?;
        let mut temporaries: Vec<String> = Vec::new();
        let outcome = self.run_stages(spec.clone(), 0, catalog, &mut |stage| {
            temporaries.push(stage.table.to_string());
            Ok(())
        });
        // Always clean up temporary tables, even on error.
        for table in &temporaries {
            catalog.drop_table(table);
        }
        outcome
    }

    /// Algorithm 1 from a given starting point: `spec` is the remaining
    /// query and `materialized_joins` the re-optimization points already
    /// spent on it (the query itself and 0, or what a checkpoint log
    /// replayed). Every stage that materializes an intermediate is reported
    /// to `on_stage` right after its Sink; an error from the callback stops
    /// the run there. The temporaries stay in the catalog — dropping them is
    /// the caller's decision.
    pub(crate) fn run_stages(
        &self,
        mut spec: QuerySpec,
        materialized_joins: u32,
        catalog: &mut Catalog,
        on_stage: &mut dyn FnMut(MaterializedStage<'_>) -> Result<()>,
    ) -> Result<DynamicOutcome> {
        let trace = self.config.trace.clone();
        let _trace_guard = trace.install();
        // Live observability: start the RDO_METRICS_ADDR scrape listener (a
        // no-op without the knob) and expose this query's collector to it.
        rdo_trace::serve::ensure_started_from_env();
        rdo_trace::serve::register_query(&spec.name, &trace);
        // The spill policy applies to the intermediates this run
        // materializes, and one persistent worker pool is shared by every
        // stage's executor and Sink barrier (threads spawn once, not per
        // stage).
        catalog.configure_spill(self.config.spill)?;
        let pool = match &self.config.pool {
            Some(shared) => shared.clone(),
            None => WorkerPool::new(self.config.parallel.workers),
        };
        let planner = GreedyPlanner::new(self.config.policy, self.config.rule);
        let mut total = ExecutionMetrics::new();
        let mut pushdown = ExecutionMetrics::new();
        let mut planner_invocations = 0u32;
        let mut stage_plans = Vec::new();
        let mut audit = AuditLog::default();
        let mut reoptimization_points = materialized_joins;

        let outcome = (|| -> Result<DynamicOutcome> {
            let mut root = rdo_trace::span("driver.execute");
            root.attr_str("query", &spec.name);
            // ---- Stage 1: predicate push-down (Algorithm 1, lines 6–9). ----
            if self.config.push_down_predicates {
                for alias in spec.pushdown_candidates() {
                    let mut stage_span = rdo_trace::span("stage.pushdown");
                    stage_span.attr_str("table", &alias);
                    rdo_trace::note("stage", &format!("pushdown:{alias}"));
                    let mut stage_metrics = ExecutionMetrics::new();
                    let plan = Self::pushdown_plan(&spec, &alias)?;
                    let description = format!("pushdown {}", plan.signature());
                    // The value-qualified signature of this filtered scan —
                    // the key repeat queries find the measured cardinality
                    // under (the plan signature alone is predicate-blind).
                    let stage_predicates: Vec<_> =
                        spec.predicates_for(&alias).into_iter().cloned().collect();
                    let learned_key =
                        LearnedStatsCatalog::filter_key(spec.table_of(&alias)?, &stage_predicates);
                    // The planner's estimate for the filtered dataset, recorded
                    // before execution so the audit compares plan-time numbers.
                    // With a learned catalog attached, a repeat query's
                    // estimate is the previously measured row count.
                    let estimator =
                        SizeEstimator::new(catalog, catalog.stats(), EstimationMode::Static);
                    let estimator = match self.config.learned.as_deref() {
                        Some(learned) => estimator.with_learned(learned),
                        None => estimator,
                    };
                    let estimated_rows = estimator.dataset_size(&spec, &alias).ok();
                    let data = ParallelExecutor::with_pool(catalog, pool.clone())
                        .execute(&plan, &mut stage_metrics)?;
                    let table_name = format!("{}__{}_filtered", sanitize(&spec.name), alias);
                    let partition_key = spec
                        .joins_involving(&alias)
                        .first()
                        .and_then(|j| spec.key_of(j, &alias));
                    let tracked = Self::tracked_columns(&spec, &alias);
                    let materialized = materialize(
                        &pool,
                        catalog,
                        &table_name,
                        &data,
                        partition_key,
                        &tracked,
                        self.config.collect_online_stats,
                        &mut stage_metrics,
                    )?;
                    audit.estimates.push(EstimateRecord {
                        stage: format!("pushdown:{alias}"),
                        operator: plan.signature(),
                        estimated_rows,
                        actual_rows: materialized.rows,
                    });
                    if let Some(learned) = &self.config.learned {
                        learned.observe(&learned_key, materialized.rows);
                    }
                    spec = reconstruct_after_pushdown(&spec, &alias, &table_name);
                    pushdown.add(&stage_metrics);
                    total.add(&stage_metrics);
                    on_stage(MaterializedStage {
                        kind: StageKind::Pushdown,
                        description: &description,
                        table: &table_name,
                        spec_after: &spec,
                    })?;
                    stage_plans.push(description);
                }
            }

            // ---- Stage 2: the re-optimization loop (Algorithm 1, lines 11–15). ----
            while join_edges(&spec).len() > 2
                && self
                    .config
                    .reopt_budget
                    .is_none_or(|budget| reoptimization_points < budget)
            {
                planner_invocations += 1;
                reoptimization_points += 1;
                let mut stage_span = rdo_trace::span("stage.reopt");
                stage_span.attr_u64("point", reoptimization_points as u64);
                rdo_trace::note("stage", &format!("reopt#{reoptimization_points}"));
                let (planned, plan, runner_up) = {
                    let _planning = rdo_trace::span("planner.plan");
                    let ranked = planner.ranked_joins(&spec, catalog, catalog.stats())?;
                    let planned = ranked
                        .first()
                        .cloned()
                        .ok_or_else(|| RdoError::Planning("no plannable join found".into()))?;
                    let plan = planner.join_plan(&spec, &planned)?;
                    let runner_up = match ranked.get(1) {
                        Some(second) => {
                            Some((planner.join_plan(&spec, second)?.signature(), second.score))
                        }
                        None => None,
                    };
                    (planned, plan, runner_up)
                };
                // Explain the decision: the estimate the last stage corrected,
                // the join the refreshed statistics picked, and the alternative
                // it rejected.
                audit.decisions.push(ReoptDecision {
                    point: reoptimization_points,
                    trigger: audit.estimates.last().cloned(),
                    chosen: plan.signature(),
                    chosen_cardinality: planned.estimated_cardinality,
                    chosen_score: planned.score,
                    runner_up,
                });

                let mut stage_metrics = ExecutionMetrics::new();
                let data = ParallelExecutor::with_pool(catalog, pool.clone())
                    .execute(&plan, &mut stage_metrics)?;

                let name = format!("{}__I{}", sanitize(&spec.name), reoptimization_points);
                let new_spec = reconstruct_after_join(
                    &spec,
                    &planned.probe_alias,
                    &planned.build_alias,
                    &name,
                );
                // Online statistics are collected on the attributes that
                // participate in later join stages, and skipped entirely on the
                // last iteration (Section 5.3, "Online Statistics").
                let remaining_edges = join_edges(&new_spec).len();
                let collect = self.config.collect_online_stats && remaining_edges > 2;
                let tracked = Self::tracked_columns(&new_spec, &name);
                let partition_key = planned.keys.first().map(|(probe, _)| probe);
                let materialized = materialize(
                    &pool,
                    catalog,
                    &name,
                    &data,
                    partition_key,
                    &tracked,
                    collect,
                    &mut stage_metrics,
                )?;
                audit.estimates.push(EstimateRecord {
                    stage: format!("reopt#{reoptimization_points}"),
                    operator: plan.signature(),
                    estimated_rows: Some(planned.estimated_cardinality),
                    actual_rows: materialized.rows,
                });
                // Join-stage cardinalities are NOT recorded in the learned
                // catalog: `plan.signature()` renders filtered-scan leaves
                // predicate-blind (`σ(table)`), so the key would collide
                // across queries with different constants. Only the
                // value-qualified `filter_key` observations of the push-down
                // stages feed the catalog.
                spec = new_spec;
                total.add(&stage_metrics);
                let description = plan.signature();
                on_stage(MaterializedStage {
                    kind: StageKind::Join,
                    description: &description,
                    table: &name,
                    spec_after: &spec,
                })?;
                stage_plans.push(description);
            }

            // ---- Stage 3: final job. With an unlimited budget at most two joins
            // remain and the greedy planner orders them; with an exhausted
            // budget the rest of the query is planned statically (Selinger DP)
            // over whatever statistics the executed stages refreshed. ----
            planner_invocations += 1;
            let mut stage_span = rdo_trace::span("stage.final");
            rdo_trace::note("stage", "final");
            let (final_plan, final_estimate) = {
                let _planning = rdo_trace::span("planner.plan");
                if join_edges(&spec).len() > 2 {
                    // The budget-exhausted cost-based path reports no
                    // single-number cardinality estimate.
                    let plan = CostBasedOptimizer::new(self.config.rule).plan(
                        &spec,
                        catalog,
                        catalog.stats(),
                    )?;
                    (plan, None)
                } else {
                    let estimate = planner
                        .estimate_remaining(&spec, catalog, catalog.stats())
                        .ok()
                        .flatten();
                    (
                        planner.plan_remaining(&spec, catalog, catalog.stats())?,
                        estimate,
                    )
                }
            };
            stage_plans.push(final_plan.signature());
            stage_span.attr_str("plan", &final_plan.signature());
            let mut stage_metrics = ExecutionMetrics::new();
            let result = final_job(
                &ParallelExecutor::with_pool(catalog, pool.clone()),
                &final_plan,
                &spec.projection,
                &mut stage_metrics,
            )?;
            total.add(&stage_metrics);
            // Like the join stages above, the final plan's signature is
            // predicate-blind (any single-table filtered query renders as
            // `σ(table)`), so its cardinality is not observed under it.
            audit.estimates.push(EstimateRecord {
                stage: "final".to_string(),
                operator: final_plan.signature(),
                estimated_rows: final_estimate,
                actual_rows: result.len() as u64,
            });

            Ok(DynamicOutcome {
                result,
                total,
                pushdown,
                planner_invocations,
                reoptimization_points,
                stage_plans,
                audit,
            })
        })();

        // RDO_TRACE names a Chrome trace_event export path: write the profile
        // collected by this execution there (last run wins). API users call
        // `profile()` on their handle clone instead.
        if trace.is_enabled() {
            if let Some(path) = rdo_trace::export_path() {
                if let Err(e) = std::fs::write(&path, trace.profile().chrome_trace_json()) {
                    rdo_common::warn!("RDO_TRACE export to {path} failed: {e}");
                }
            }
        }
        outcome
    }

    /// Builds the single-variable query for one pushed-down dataset (the paper's
    /// Q2/Q3): its local predicates plus a projection onto the attributes the
    /// remaining query needs.
    fn pushdown_plan(spec: &QuerySpec, alias: &str) -> Result<PhysicalPlan> {
        let table = spec.table_of(alias)?;
        let predicates = spec.predicates_for(alias).into_iter().cloned().collect();
        let projection = spec.required_columns(alias, false);
        let mut plan = PhysicalPlan::scan_aliased(alias, table).with_predicates(predicates);
        if !projection.is_empty() {
            plan = plan.with_projection(projection);
        }
        Ok(plan)
    }

    /// The columns of `alias` worth collecting statistics on: its join keys in
    /// the (remaining) query.
    fn tracked_columns(spec: &QuerySpec, alias: &str) -> Vec<FieldRef> {
        spec.join_key_columns().remove(alias).unwrap_or_default()
    }
}

/// The final job of every strategy, dynamic or static: execute the plan,
/// project its batches onto the SELECT list (an empty list keeps every
/// column) and gather only those columns on the coordinator.
pub(crate) fn final_job(
    executor: &ParallelExecutor<'_>,
    plan: &PhysicalPlan,
    projection: &[FieldRef],
    metrics: &mut ExecutionMetrics,
) -> Result<Relation> {
    let mut data = executor.execute(plan, metrics)?;
    if !projection.is_empty() {
        let indexes = projection
            .iter()
            .map(|f| data.schema().index_of(f))
            .collect::<Result<Vec<usize>>>()?;
        let partitions = data
            .partitions()
            .iter()
            .map(|run| run.iter().map(|batch| batch.project(&indexes)).collect())
            .collect();
        data = PartitionedData::new(data.schema().project(&indexes), partitions, None);
    }
    Ok(executor.gather(&data, metrics))
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, Predicate};
    use rdo_planner::DatasetRef;
    use rdo_storage::IngestOptions;

    /// A star-ish schema with four datasets and three joins so the driver goes
    /// through at least one real re-optimization point:
    /// fact(10_000) ⋈ d1(100, filtered by a UDF) ⋈ d2(200) ⋈ d3(50).
    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let fact_schema = Schema::for_dataset(
            "fact",
            &[
                ("f_id", DataType::Int64),
                ("f_d1", DataType::Int64),
                ("f_d2", DataType::Int64),
                ("f_d3", DataType::Int64),
                ("f_val", DataType::Int64),
            ],
        );
        let fact_rows = (0..10_000)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Int64(i % 100),
                    Value::Int64(i % 200),
                    Value::Int64(i % 50),
                    Value::Int64(i % 7),
                ])
            })
            .collect();
        cat.ingest(
            "fact",
            Relation::new(fact_schema, fact_rows).unwrap(),
            IngestOptions::partitioned_on("f_id"),
        )
        .unwrap();

        for (name, rows) in [("d1", 100i64), ("d2", 200), ("d3", 50)] {
            let schema =
                Schema::for_dataset(name, &[("id", DataType::Int64), ("attr", DataType::Int64)]);
            let data = (0..rows)
                .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10)]))
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
        QuerySpec::new("star")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("d1"))
            .with_dataset(DatasetRef::named("d2"))
            .with_dataset(DatasetRef::named("d3"))
            .with_join(FieldRef::new("fact", "f_d1"), FieldRef::new("d1", "id"))
            .with_join(FieldRef::new("fact", "f_d2"), FieldRef::new("d2", "id"))
            .with_join(FieldRef::new("fact", "f_d3"), FieldRef::new("d3", "id"))
            .with_predicate(Predicate::udf("pick", FieldRef::new("d1", "attr"), |v| {
                v.as_i64() == Some(3)
            }))
            .with_predicate(Predicate::compare(
                FieldRef::new("d1", "id"),
                CmpOp::Lt,
                1_000i64,
            ))
            .with_projection(vec![
                FieldRef::new("fact", "f_id"),
                FieldRef::new("fact", "f_val"),
            ])
    }

    /// The truth: d1 keeps ids with attr==3 and id<1000 → ids {3,13,...,93} (10
    /// rows); every fact row matches d2 and d3 always, and d1 when f_d1 % 10 == 3
    /// → 1/10 of fact rows → 1_000 results.
    const EXPECTED_ROWS: usize = 1_000;

    #[test]
    fn dynamic_execution_produces_correct_result() {
        let mut cat = catalog();
        let driver = DynamicDriver::new(DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(
            500.0,
        )));
        let outcome = driver.execute(&spec(), &mut cat).unwrap();
        assert_eq!(outcome.result.len(), EXPECTED_ROWS);
        assert_eq!(
            outcome.result.schema().len(),
            2,
            "projected to the SELECT list"
        );
        // One re-optimization point: 3 edges → after one materialized join, 2
        // edges remain and the final job runs.
        assert_eq!(outcome.reoptimization_points, 1);
        assert_eq!(outcome.planner_invocations, 2);
        assert!(outcome.total.rows_materialized > 0);
        assert!(outcome.pushdown.rows_scanned >= 100, "d1 was pushed down");
        assert!(outcome.stage_plans.len() >= 3, "pushdown + loop + final");
        assert!(!outcome.plan_description().is_empty());
    }

    #[test]
    fn temporary_tables_are_cleaned_up() {
        let mut cat = catalog();
        let tables_before = cat.table_names();
        let driver = DynamicDriver::new(DynamicConfig::default());
        driver.execute(&spec(), &mut cat).unwrap();
        assert_eq!(cat.table_names(), tables_before);
    }

    #[test]
    fn ingres_like_matches_result_but_skips_sketches() {
        let mut cat = catalog();
        let dynamic = DynamicDriver::new(DynamicConfig::dynamic(JoinAlgorithmRule::default()))
            .execute(&spec(), &mut cat)
            .unwrap();
        let ingres = DynamicDriver::new(DynamicConfig::ingres_like(JoinAlgorithmRule::default()))
            .execute(&spec(), &mut cat)
            .unwrap();
        assert_eq!(dynamic.result.len(), ingres.result.len());
        assert_eq!(
            dynamic.result.clone().sorted(),
            ingres.result.clone().sorted(),
            "both strategies compute the same answer"
        );
        assert!(ingres.total.stats_values_observed == 0);
        assert!(dynamic.total.stats_values_observed > 0);
    }

    #[test]
    fn disabling_pushdown_still_computes_the_query() {
        let mut cat = catalog();
        let config = DynamicConfig {
            push_down_predicates: false,
            ..DynamicConfig::default()
        };
        let outcome = DynamicDriver::new(config)
            .execute(&spec(), &mut cat)
            .unwrap();
        assert_eq!(outcome.result.len(), EXPECTED_ROWS);
        assert_eq!(outcome.pushdown, ExecutionMetrics::new());
    }

    #[test]
    fn without_online_stats_observes_no_values_in_the_loop() {
        let mut cat = catalog();
        let outcome = DynamicDriver::new(DynamicConfig::without_online_stats(
            JoinAlgorithmRule::default(),
        ))
        .execute(&spec(), &mut cat)
        .unwrap();
        assert_eq!(outcome.result.len(), EXPECTED_ROWS);
        assert_eq!(outcome.total.stats_values_observed, 0);
    }

    #[test]
    fn reopt_budget_zero_plans_statically_but_stays_correct() {
        let mut cat = catalog();
        let config = DynamicConfig::dynamic(JoinAlgorithmRule::default()).with_reopt_budget(0);
        let outcome = DynamicDriver::new(config)
            .execute(&spec(), &mut cat)
            .unwrap();
        assert_eq!(outcome.result.len(), EXPECTED_ROWS);
        assert_eq!(outcome.reoptimization_points, 0);
        // One planner invocation for the final (static) job; the push-down stage
        // still ran and refreshed the statistics it produced.
        assert_eq!(outcome.planner_invocations, 1);
        assert!(outcome.pushdown.rows_scanned > 0);
    }

    #[test]
    fn reopt_budget_caps_the_number_of_materialized_joins() {
        let mut cat = catalog();
        let unlimited = DynamicDriver::new(DynamicConfig::default())
            .execute(&spec(), &mut cat)
            .unwrap();
        let capped = DynamicDriver::new(DynamicConfig::default().with_reopt_budget(1))
            .execute(&spec(), &mut cat)
            .unwrap();
        assert!(capped.reoptimization_points <= 1);
        assert!(capped.reoptimization_points <= unlimited.reoptimization_points);
        assert_eq!(
            capped.result.clone().sorted(),
            unlimited.result.clone().sorted(),
            "budgeted and unlimited runs must agree on the answer"
        );
        // A large budget behaves exactly like the unlimited configuration.
        let large = DynamicDriver::new(DynamicConfig::default().with_reopt_budget(100))
            .execute(&spec(), &mut cat)
            .unwrap();
        assert_eq!(large.reoptimization_points, unlimited.reoptimization_points);
    }

    #[test]
    fn two_join_query_needs_no_reoptimization_point() {
        let mut cat = catalog();
        let q = QuerySpec::new("small")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("d1"))
            .with_dataset(DatasetRef::named("d2"))
            .with_join(FieldRef::new("fact", "f_d1"), FieldRef::new("d1", "id"))
            .with_join(FieldRef::new("fact", "f_d2"), FieldRef::new("d2", "id"));
        let outcome = DynamicDriver::new(DynamicConfig::default())
            .execute(&q, &mut cat)
            .unwrap();
        assert_eq!(outcome.reoptimization_points, 0);
        assert_eq!(outcome.planner_invocations, 1);
        assert_eq!(outcome.result.len(), 10_000);
    }

    #[test]
    fn projection_of_missing_column_errors() {
        let mut cat = catalog();
        let q = spec().with_projection(vec![FieldRef::new("fact", "not_a_column")]);
        let result = DynamicDriver::new(DynamicConfig::default()).execute(&q, &mut cat);
        assert!(result.is_err());
        // Cleanup still happened.
        assert!(cat.table_names().iter().all(|t| !t.contains("__I")));
    }

    #[test]
    fn worker_count_never_changes_results_or_metrics() {
        let reference = {
            let mut cat = catalog();
            DynamicDriver::new(DynamicConfig::default().with_parallel(ParallelConfig::serial()))
                .execute(&spec(), &mut cat)
                .unwrap()
        };
        for workers in [2, 4, 8] {
            let mut cat = catalog();
            let config = DynamicConfig::default()
                .with_parallel(ParallelConfig::serial().with_workers(workers));
            let outcome = DynamicDriver::new(config)
                .execute(&spec(), &mut cat)
                .unwrap();
            assert_eq!(outcome.result, reference.result, "workers={workers}");
            assert_eq!(outcome.total, reference.total, "workers={workers}");
            assert_eq!(outcome.stage_plans, reference.stage_plans);
            assert_eq!(outcome.audit, reference.audit, "workers={workers}");
        }
    }

    #[test]
    fn audit_trail_records_every_stage_and_decision() {
        let mut cat = catalog();
        let outcome = DynamicDriver::new(DynamicConfig::default())
            .execute(&spec(), &mut cat)
            .unwrap();
        let audit = &outcome.audit;
        assert_eq!(
            audit.estimates.len(),
            outcome.stage_plans.len(),
            "one estimate record per executed stage"
        );
        assert_eq!(
            audit.decisions.len(),
            outcome.reoptimization_points as usize,
            "one decision explanation per re-optimization point"
        );
        let final_record = audit.estimates.last().unwrap();
        assert_eq!(final_record.stage, "final");
        assert_eq!(final_record.actual_rows, EXPECTED_ROWS as u64);
        assert!(audit.max_q_error() >= 1.0);
        let decision = &audit.decisions[0];
        assert_eq!(decision.point, 1);
        assert!(
            decision.trigger.is_some(),
            "the push-down stage preceded the first decision"
        );
        assert!(!decision.chosen.is_empty());
        let rendered = audit.render();
        assert!(
            rendered.contains("estimate audit (per stage):"),
            "{rendered}"
        );
        assert!(
            rendered.contains("re-optimization decisions:"),
            "{rendered}"
        );
    }

    #[test]
    fn spilled_execution_matches_in_memory_execution_exactly() {
        let reference = {
            let mut cat = catalog();
            DynamicDriver::new(DynamicConfig::default().with_spill(SpillConfig::disabled()))
                .execute(&spec(), &mut cat)
                .unwrap()
        };
        let mut cat = catalog();
        // A 1-byte budget forces every materialized intermediate to disk.
        let config = DynamicConfig::default()
            .with_spill(SpillConfig::disabled().with_budget(1).with_page_size(4096));
        let outcome = DynamicDriver::new(config)
            .execute(&spec(), &mut cat)
            .unwrap();
        assert!(
            outcome.total.spill_bytes_written > 0 && outcome.total.spill_pages_read > 0,
            "the run actually went out-of-core: {:?}",
            outcome.total
        );
        assert_eq!(outcome.result, reference.result, "bit-identical result");
        assert_eq!(outcome.stage_plans, reference.stage_plans);
        let mut scrubbed = outcome.total;
        scrubbed.spill_pages_written = 0;
        scrubbed.spill_bytes_written = 0;
        scrubbed.spill_pages_read = 0;
        scrubbed.spill_bytes_read = 0;
        scrubbed.spill_logical_bytes_written = 0;
        scrubbed.spill_logical_bytes_read = 0;
        assert_eq!(scrubbed, reference.total, "non-spill metrics unchanged");
        // Temp tables dropped => spill dir is empty again.
        let dir = cat.spill_dir().expect("spill configured");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    #[test]
    fn grace_join_execution_matches_in_memory_execution_exactly() {
        let reference = {
            let mut cat = catalog();
            DynamicDriver::new(DynamicConfig::default().with_spill(SpillConfig::disabled()))
                .execute(&spec(), &mut cat)
                .unwrap()
        };
        let mut cat = catalog();
        // A 1-byte join budget drives every join's build side through the
        // grace path (recursion down to the nested-loop fallback included).
        let config = DynamicConfig::default()
            .with_spill(SpillConfig::disabled().with_page_size(4096))
            .with_join_budget(1);
        let outcome = DynamicDriver::new(config)
            .execute(&spec(), &mut cat)
            .unwrap();
        assert!(
            outcome.total.grace_bytes_written > 0
                && outcome.total.grace_pages_read > 0
                && outcome.total.grace_partitions_spilled > 0,
            "the joins actually went out-of-core: {:?}",
            outcome.total
        );
        assert_eq!(outcome.result, reference.result, "bit-identical result");
        assert_eq!(outcome.stage_plans, reference.stage_plans);
        let mut scrubbed = outcome.total;
        scrubbed.grace_partitions_spilled = 0;
        scrubbed.grace_pages_written = 0;
        scrubbed.grace_bytes_written = 0;
        scrubbed.grace_pages_read = 0;
        scrubbed.grace_bytes_read = 0;
        scrubbed.grace_logical_bytes_written = 0;
        scrubbed.grace_logical_bytes_read = 0;
        scrubbed.grace_recursions = 0;
        scrubbed.grace_fallbacks = 0;
        scrubbed.grace_peak_transient_bytes = 0;
        assert_eq!(scrubbed, reference.total, "non-grace metrics unchanged");
        // Grace partition files live only inside a join call.
        let dir = cat.spill_dir().expect("join budget configured");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    #[test]
    fn shared_pool_executions_match_private_pool_executions() {
        let reference = {
            let mut cat = catalog();
            DynamicDriver::new(DynamicConfig::default().with_parallel(ParallelConfig::serial()))
                .execute(&spec(), &mut cat)
                .unwrap()
        };
        // One externally owned pool, reused across two executions — what the
        // SQL server does across sessions.
        let pool = WorkerPool::new(2);
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(2))
            .with_pool(pool.clone());
        for _ in 0..2 {
            let mut cat = catalog();
            let outcome = DynamicDriver::new(config.clone())
                .execute(&spec(), &mut cat)
                .unwrap();
            assert_eq!(outcome.result, reference.result);
            assert_eq!(outcome.total, reference.total);
            assert_eq!(outcome.stage_plans, reference.stage_plans);
        }
    }

    #[test]
    fn learned_stats_seed_repeat_runs() {
        let learned = Arc::new(LearnedStatsCatalog::new());
        let cold = {
            let mut cat = catalog();
            DynamicDriver::new(DynamicConfig::default().with_learned(Arc::clone(&learned)))
                .execute(&spec(), &mut cat)
                .unwrap()
        };
        assert!(
            !learned.is_empty(),
            "the cold run recorded measured cardinalities"
        );
        let hits_before = learned.hits();

        // The repeat run: measured stats stand in for the pilot stages, so the
        // re-optimization loop is skipped entirely.
        let warm = {
            let mut cat = catalog();
            let config = DynamicConfig::default()
                .with_learned(Arc::clone(&learned))
                .with_reopt_budget(0);
            DynamicDriver::new(config)
                .execute(&spec(), &mut cat)
                .unwrap()
        };
        assert_eq!(warm.result.clone().sorted(), cold.result.clone().sorted());
        assert_eq!(warm.reoptimization_points, 0);
        assert!(
            learned.hits() > hits_before,
            "the repeat run read the cache"
        );
        // The seeded push-down estimate is the measured truth → q-error 1.
        let pushdown = warm
            .audit
            .estimates
            .iter()
            .find(|r| r.stage.starts_with("pushdown:"))
            .expect("warm run still push-downs");
        assert_eq!(pushdown.estimated_rows, Some(pushdown.actual_rows as f64));
        assert!(warm.audit.max_q_error() <= cold.audit.max_q_error());
    }

    /// The row-at-a-time oracle of `final_job`'s projection: project every
    /// gathered row onto the SELECT list (an empty list keeps all columns).
    fn project_result(relation: Relation, projection: &[FieldRef]) -> Relation {
        if projection.is_empty() {
            return relation;
        }
        let schema = relation.schema().clone();
        let indexes: Vec<usize> = projection
            .iter()
            .map(|f| schema.index_of(f).unwrap())
            .collect();
        let rows = relation
            .rows()
            .iter()
            .map(|r| r.project(&indexes))
            .collect();
        Relation::new(schema.project(&indexes), rows).unwrap()
    }

    /// Projecting the batches before the gather gives the schema and rows,
    /// in order, that projecting the fully gathered relation gives.
    #[test]
    fn final_job_projects_before_the_gather_like_the_row_projection() {
        let cat = catalog();
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("fact"),
            PhysicalPlan::scan("d1"),
            FieldRef::new("fact", "f_d1"),
            FieldRef::new("d1", "id"),
            rdo_exec::JoinAlgorithm::Hash,
        );
        let selects = [
            vec![FieldRef::new("d1", "attr"), FieldRef::new("fact", "f_id")],
            vec![
                FieldRef::new("fact", "f_val"),
                FieldRef::new("d1", "id"),
                FieldRef::new("fact", "f_val"),
            ],
            vec![],
        ];
        for workers in [1, 4] {
            let executor = ParallelExecutor::with_pool(&cat, WorkerPool::new(workers));
            for select in &selects {
                let mut full_metrics = ExecutionMetrics::new();
                let full = executor
                    .execute_to_relation(&plan, &mut full_metrics)
                    .unwrap();
                let expected = project_result(full, select);
                let mut metrics = ExecutionMetrics::new();
                let actual = final_job(&executor, &plan, select, &mut metrics).unwrap();
                assert_eq!(actual.schema(), expected.schema(), "{select:?}");
                assert_eq!(actual.rows(), expected.rows(), "{select:?}");
                assert_eq!(actual.len(), 10_000);
                assert_eq!(metrics, full_metrics, "{select:?} at {workers} workers");
            }
        }
    }
}
