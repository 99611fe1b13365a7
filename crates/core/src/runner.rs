//! The unified query runner: executes a query under any of the strategies the
//! paper compares and reports wall time, simulated cluster cost and (for the
//! dynamic variants) the overhead breakdown.

use crate::driver::{final_job, DynamicConfig, DynamicDriver};
use crate::report::CostBreakdown;
use rdo_common::{Relation, Result};
use rdo_exec::{CostModel, ExecutionMetrics, ParallelConfig, ParallelExecutor, WorkerPool};
use rdo_planner::{
    BestOrderOptimizer, CostBasedOptimizer, JoinAlgorithmRule, Optimizer, PilotRunOptimizer,
    QuerySpec, WorstOrderOptimizer,
};
use rdo_storage::Catalog;
use std::fmt;
use std::time::Instant;

/// The optimization strategies compared in the paper's evaluation (Figures 7
/// and 8) plus the ablation variants used for the overhead analysis (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The paper's runtime dynamic optimization.
    Dynamic,
    /// Dynamic decomposition driven by dataset cardinalities only (INGRES-like).
    IngresLike,
    /// Static Selinger-style cost-based optimization over initial statistics.
    CostBased,
    /// The user-supplied best FROM order with broadcast hints.
    BestOrder,
    /// The user-supplied worst FROM order (hash joins only).
    WorstOrder,
    /// Pilot runs over samples followed by a static plan.
    PilotRun,
    /// Ablation: re-optimization points enabled but online statistics disabled.
    ReoptWithoutOnlineStats,
    /// Ablation: dynamic approach without the predicate push-down stage.
    DynamicWithoutPushdown,
}

impl Strategy {
    /// Every strategy compared in Figure 7 / Figure 8.
    pub const COMPARISON: [Strategy; 6] = [
        Strategy::Dynamic,
        Strategy::BestOrder,
        Strategy::CostBased,
        Strategy::PilotRun,
        Strategy::IngresLike,
        Strategy::WorstOrder,
    ];

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Dynamic => "dynamic",
            Strategy::IngresLike => "ingres-like",
            Strategy::CostBased => "cost-based",
            Strategy::BestOrder => "best-order",
            Strategy::WorstOrder => "worst-order",
            Strategy::PilotRun => "pilot-run",
            Strategy::ReoptWithoutOnlineStats => "reopt-no-online-stats",
            Strategy::DynamicWithoutPushdown => "dynamic-no-pushdown",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of running one query under one strategy.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategy used.
    pub strategy: Strategy,
    /// Query name.
    pub query: String,
    /// The (projected) result relation.
    pub result: Relation,
    /// Wall-clock seconds of the in-process execution.
    pub wall_seconds: f64,
    /// Simulated cluster cost under the runner's cost model.
    pub simulated_cost: f64,
    /// Raw execution metrics (including any planning overhead such as pilot
    /// runs).
    pub metrics: ExecutionMetrics,
    /// Human-readable plan description.
    pub plan: String,
    /// Overhead breakdown (dynamic variants only).
    pub breakdown: Option<CostBreakdown>,
    /// The optimizer audit trail (dynamic variants; empty for static
    /// strategies, which never re-optimize).
    pub audit_log: rdo_trace::audit::AuditLog,
    /// The run's trace: enabled when the runner's tracing is on, carrying the
    /// span tree and counters this run (and only this run) recorded.
    pub trace: rdo_trace::TraceHandle,
}

impl RunReport {
    /// Number of result rows.
    pub fn result_rows(&self) -> usize {
        self.result.len()
    }

    /// The run's profile (span tree + counters). Empty when tracing was
    /// disabled.
    pub fn profile(&self) -> rdo_trace::Profile {
        self.trace.profile()
    }

    /// The estimate-vs-actual audit table plus the re-optimization decision
    /// explanations, rendered for humans. Static strategies (and dynamic runs
    /// of join-free queries) report "no audit records".
    pub fn audit(&self) -> String {
        self.audit_log.render()
    }

    /// Prometheus text exposition of this run: every [`ExecutionMetrics`]
    /// counter plus whatever the trace collected (works with tracing
    /// disabled too — the logical metrics never depend on tracing). All
    /// series share the single `rdo_` namespace; a trace counter or gauge
    /// whose sanitized name collides with an execution metric is skipped so
    /// the exposition never emits the same series twice.
    pub fn metrics_text(&self) -> String {
        let mut out = crate::report::execution_metrics_text(&self.metrics);
        let mut seen: std::collections::BTreeSet<String> = out
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.split_whitespace().next().map(str::to_string))
            .collect();
        let profile = self.profile();
        for (kind, map) in [("counter", profile.counters()), ("gauge", profile.gauges())] {
            for (name, value) in map {
                let metric = rdo_trace::profile::prometheus_name(name);
                if !seen.insert(metric.clone()) {
                    continue;
                }
                out.push_str(&format!("# TYPE {metric} {kind}\n{metric} {value}\n"));
            }
        }
        out.push_str(&profile.histograms_text());
        out
    }
}

/// Runs queries under the different strategies with a shared configuration.
#[derive(Debug, Clone)]
pub struct QueryRunner {
    /// Cost model of the simulated cluster.
    pub cost_model: CostModel,
    /// Join-algorithm rule shared by all strategies.
    pub rule: JoinAlgorithmRule,
    /// Sample limit for the pilot-run baseline.
    pub pilot_sample_limit: usize,
    /// Partition-parallel execution knobs shared by every strategy — static
    /// baselines execute their plan through the worker pool too, so all six
    /// Figure 7 strategies benefit equally from parallel hardware.
    pub parallel: ParallelConfig,
    /// Tracing template: when enabled, every run records into a *fresh*
    /// handle of its own (so a comparison's six runs don't mix profiles) and
    /// the handle lands in [`RunReport::trace`]. The default follows
    /// `RDO_TRACE` / `RDO_TRACE_SPANS`.
    pub trace: rdo_trace::TraceHandle,
}

impl Default for QueryRunner {
    fn default() -> Self {
        Self {
            cost_model: CostModel::default(),
            rule: JoinAlgorithmRule::default(),
            pilot_sample_limit: 2_000,
            // Worker counts stay explicit or machine-default.
            parallel: ParallelConfig::default(),
            trace: rdo_trace::TraceHandle::from_env(),
        }
    }
}

impl QueryRunner {
    /// Creates a runner with the given cost model and algorithm rule.
    pub fn new(cost_model: CostModel, rule: JoinAlgorithmRule) -> Self {
        Self {
            cost_model,
            rule,
            ..Default::default()
        }
    }

    /// Enables or disables indexed nested-loop joins for every strategy
    /// (Figure 7 vs Figure 8).
    pub fn with_indexed_nested_loop(mut self, enabled: bool) -> Self {
        self.rule = self.rule.with_indexed_nested_loop(enabled);
        self
    }

    /// Sets the partition-parallel execution knobs (builder style).
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Enables or disables tracing for every run (builder style). Each run
    /// still records into its own fresh handle; read it from
    /// [`RunReport::trace`] / [`RunReport::profile`].
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.trace = if enabled {
            rdo_trace::TraceHandle::enabled()
        } else {
            rdo_trace::TraceHandle::disabled()
        };
        self
    }

    /// A fresh per-run handle following the runner's tracing template.
    fn run_trace(&self) -> rdo_trace::TraceHandle {
        if self.trace.is_enabled() {
            rdo_trace::TraceHandle::enabled()
        } else {
            rdo_trace::TraceHandle::disabled()
        }
    }

    /// Runs `spec` under `strategy`.
    pub fn run(
        &self,
        strategy: Strategy,
        spec: &QuerySpec,
        catalog: &mut Catalog,
    ) -> Result<RunReport> {
        match strategy {
            Strategy::Dynamic => {
                self.run_dynamic(strategy, spec, catalog, DynamicConfig::dynamic(self.rule))
            }
            Strategy::IngresLike => self.run_dynamic(
                strategy,
                spec,
                catalog,
                DynamicConfig::ingres_like(self.rule),
            ),
            Strategy::ReoptWithoutOnlineStats => self.run_dynamic(
                strategy,
                spec,
                catalog,
                DynamicConfig::without_online_stats(self.rule),
            ),
            Strategy::DynamicWithoutPushdown => self.run_dynamic(
                strategy,
                spec,
                catalog,
                DynamicConfig {
                    push_down_predicates: false,
                    ..DynamicConfig::dynamic(self.rule)
                },
            ),
            Strategy::CostBased => {
                self.run_static(strategy, spec, catalog, &CostBasedOptimizer::new(self.rule))
            }
            Strategy::BestOrder => {
                self.run_static(strategy, spec, catalog, &BestOrderOptimizer::new(self.rule))
            }
            Strategy::WorstOrder => self.run_static(strategy, spec, catalog, &WorstOrderOptimizer),
            Strategy::PilotRun => {
                // The pilot optimizer takes the run's executor pool so its
                // sample probes execute partition-parallel too.
                let pool = WorkerPool::new(self.parallel.workers);
                let optimizer = PilotRunOptimizer::new(self.rule, self.pilot_sample_limit)
                    .with_pool(pool.clone());
                self.run_static_on_pool(strategy, spec, catalog, &optimizer, pool)
            }
        }
    }

    /// Runs every Figure 7 strategy and returns the reports in the same order.
    pub fn run_comparison(
        &self,
        spec: &QuerySpec,
        catalog: &mut Catalog,
    ) -> Result<Vec<RunReport>> {
        Strategy::COMPARISON
            .iter()
            .map(|s| self.run(*s, spec, catalog))
            .collect()
    }

    fn run_dynamic(
        &self,
        strategy: Strategy,
        spec: &QuerySpec,
        catalog: &mut Catalog,
        config: DynamicConfig,
    ) -> Result<RunReport> {
        let trace = self.run_trace();
        let config = DynamicConfig {
            parallel: self.parallel,
            trace: trace.clone(),
            ..config
        };
        let start = Instant::now();
        let outcome = DynamicDriver::new(config).execute(spec, catalog)?;
        let wall_seconds = start.elapsed().as_secs_f64();
        let breakdown = CostBreakdown::of(&outcome, &self.cost_model);
        let plan = outcome.plan_description();
        Ok(RunReport {
            strategy,
            query: spec.name.clone(),
            result: outcome.result,
            wall_seconds,
            simulated_cost: breakdown.total,
            metrics: outcome.total,
            plan,
            breakdown: Some(breakdown),
            audit_log: outcome.audit,
            trace,
        })
    }

    fn run_static(
        &self,
        strategy: Strategy,
        spec: &QuerySpec,
        catalog: &mut Catalog,
        optimizer: &dyn Optimizer,
    ) -> Result<RunReport> {
        let pool = WorkerPool::new(self.parallel.workers);
        self.run_static_on_pool(strategy, spec, catalog, optimizer, pool)
    }

    fn run_static_on_pool(
        &self,
        strategy: Strategy,
        spec: &QuerySpec,
        catalog: &mut Catalog,
        optimizer: &dyn Optimizer,
        pool: WorkerPool,
    ) -> Result<RunReport> {
        let trace = self.run_trace();
        let start = Instant::now();
        let (result, plan, metrics) = {
            let _trace_guard = trace.install();
            let mut root = rdo_trace::span("driver.execute");
            root.attr_str("query", &spec.name);
            let (plan, mut metrics) = {
                let _planning = rdo_trace::span("planner.plan");
                optimizer.plan_with_overhead(spec, catalog, catalog.stats())?
            };
            let mut stage_span = rdo_trace::span("stage.final");
            stage_span.attr_str("plan", &plan.signature());
            let executor = ParallelExecutor::with_pool(catalog, pool);
            let result = final_job(&executor, &plan, &spec.projection, &mut metrics)?;
            (result, plan, metrics)
        };
        let wall_seconds = start.elapsed().as_secs_f64();
        Ok(RunReport {
            strategy,
            query: spec.name.clone(),
            result,
            wall_seconds,
            simulated_cost: metrics.simulated_cost(&self.cost_model),
            metrics,
            plan: plan.signature(),
            breakdown: None,
            audit_log: Default::default(),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, FieldRef, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, Predicate};
    use rdo_planner::DatasetRef;
    use rdo_storage::IngestOptions;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let fact_schema = Schema::for_dataset(
            "fact",
            &[
                ("f_id", DataType::Int64),
                ("f_a", DataType::Int64),
                ("f_b", DataType::Int64),
                ("f_c", DataType::Int64),
            ],
        );
        let fact_rows = (0..8_000)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Int64(i % 80),
                    Value::Int64(i % 400),
                    Value::Int64(i % 40),
                ])
            })
            .collect();
        cat.ingest(
            "fact",
            Relation::new(fact_schema, fact_rows).unwrap(),
            IngestOptions::partitioned_on("f_id").with_index("f_a"),
        )
        .unwrap();
        for (name, rows) in [("da", 80i64), ("db", 400), ("dc", 40)] {
            let schema =
                Schema::for_dataset(name, &[("id", DataType::Int64), ("attr", DataType::Int64)]);
            let data = (0..rows)
                .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 6)]))
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
        QuerySpec::new("runner-q")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("da"))
            .with_dataset(DatasetRef::named("db"))
            .with_dataset(DatasetRef::named("dc"))
            .with_join(FieldRef::new("fact", "f_a"), FieldRef::new("da", "id"))
            .with_join(FieldRef::new("fact", "f_b"), FieldRef::new("db", "id"))
            .with_join(FieldRef::new("fact", "f_c"), FieldRef::new("dc", "id"))
            .with_predicate(Predicate::udf(
                "da_pick",
                FieldRef::new("da", "attr"),
                |v| v.as_i64() == Some(2),
            ))
            .with_predicate(Predicate::compare(
                FieldRef::new("da", "id"),
                CmpOp::Lt,
                1_000i64,
            ))
            .with_projection(vec![FieldRef::new("fact", "f_id")])
    }

    #[test]
    fn all_strategies_return_identical_results() {
        let mut cat = catalog();
        let runner = QueryRunner::default();
        let q = spec();
        let reports = runner.run_comparison(&q, &mut cat).unwrap();
        assert_eq!(reports.len(), 6);
        let reference = reports[0].result.clone().sorted();
        for report in &reports {
            assert_eq!(
                report.result.clone().sorted(),
                reference,
                "{} returned a different result",
                report.strategy
            );
            assert!(report.simulated_cost > 0.0);
            assert!(report.wall_seconds >= 0.0);
            assert!(!report.plan.is_empty());
        }
    }

    #[test]
    fn dynamic_report_has_breakdown_and_static_does_not() {
        let mut cat = catalog();
        let runner = QueryRunner::default();
        let q = spec();
        let dynamic = runner.run(Strategy::Dynamic, &q, &mut cat).unwrap();
        assert!(dynamic.breakdown.is_some());
        assert!(dynamic.result_rows() > 0);
        let cost_based = runner.run(Strategy::CostBased, &q, &mut cat).unwrap();
        assert!(cost_based.breakdown.is_none());
    }

    #[test]
    fn worst_order_costs_more_than_dynamic() {
        let mut cat = catalog();
        let runner = QueryRunner::default();
        let q = spec();
        let dynamic = runner.run(Strategy::Dynamic, &q, &mut cat).unwrap();
        let worst = runner.run(Strategy::WorstOrder, &q, &mut cat).unwrap();
        assert!(
            worst.simulated_cost > dynamic.simulated_cost,
            "worst {} vs dynamic {}",
            worst.simulated_cost,
            dynamic.simulated_cost
        );
    }

    #[test]
    fn ablation_strategies_run() {
        let mut cat = catalog();
        let runner = QueryRunner::default();
        let q = spec();
        let no_stats = runner
            .run(Strategy::ReoptWithoutOnlineStats, &q, &mut cat)
            .unwrap();
        assert_eq!(no_stats.metrics.stats_values_observed, 0);
        let no_pushdown = runner
            .run(Strategy::DynamicWithoutPushdown, &q, &mut cat)
            .unwrap();
        assert_eq!(
            no_pushdown.result.clone().sorted(),
            no_stats.result.clone().sorted()
        );
    }

    #[test]
    fn dynamic_report_carries_an_audit_and_static_does_not() {
        let mut cat = catalog();
        let runner = QueryRunner::default();
        let q = spec();
        let dynamic = runner.run(Strategy::Dynamic, &q, &mut cat).unwrap();
        assert!(!dynamic.audit_log.is_empty());
        assert!(dynamic.audit().contains("estimate audit (per stage):"));
        assert!(dynamic.audit_log.max_q_error() >= 1.0);
        let cost_based = runner.run(Strategy::CostBased, &q, &mut cat).unwrap();
        assert!(cost_based.audit_log.is_empty());
        assert_eq!(cost_based.audit(), "no audit records\n");
    }

    #[test]
    fn metrics_exposition_has_no_duplicate_series() {
        let mut cat = catalog();
        let runner = QueryRunner::default().with_tracing(true);
        let report = runner.run(Strategy::Dynamic, &spec(), &mut cat).unwrap();
        let text = report.metrics_text();
        assert!(text.contains("rdo_rows_scanned"), "{text}");
        assert!(
            text.contains("_duration_ns_bucket{le="),
            "histogram buckets present: {text}"
        );
        // No metric/label pair may appear twice, and no family may be typed
        // twice (promtool rejects both).
        let mut series = std::collections::BTreeSet::new();
        let mut families = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split_whitespace().next().unwrap();
                assert!(
                    families.insert(family.to_string()),
                    "family {family} typed twice"
                );
            } else if !line.is_empty() {
                let key = line.rsplit_once(' ').map(|(k, _)| k).unwrap_or(line);
                assert!(series.insert(key.to_string()), "series {key} emitted twice");
            }
        }
    }

    #[test]
    fn inl_toggle_changes_rule() {
        let runner = QueryRunner::default().with_indexed_nested_loop(true);
        assert!(runner.rule.enable_indexed_nested_loop);
        let labels: Vec<&str> = Strategy::COMPARISON.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
        assert_eq!(Strategy::Dynamic.to_string(), "dynamic");
    }
}
