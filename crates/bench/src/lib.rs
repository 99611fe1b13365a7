//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (Section 7).
//!
//! | Experiment | Paper content | Harness entry point |
//! |---|---|---|
//! | Figure 6 (left)  | overhead of re-optimization points + online statistics | [`figure6_overheads`] |
//! | Figure 6 (right) | overhead of predicate push-down                         | [`figure6_pushdown`] |
//! | Figure 7         | execution time of all six strategies, SF 10/100/1000    | [`figure7`] |
//! | Figure 8         | same comparison with indexed nested-loop joins enabled  | [`figure8`] |
//! | Table 1          | average improvement of dynamic vs. each baseline        | [`table1`] |
//! | Figures 11–23    | per-query plans chosen by every optimizer                | [`plans`] |
//!
//! Every function returns plain serializable rows so the `figures` binary can
//! print aligned text tables and dump JSON for further analysis.

use rdo_core::{OverheadReport, QueryRunner, RunReport, Strategy};
use rdo_exec::CostModel;
use rdo_planner::{JoinAlgorithmRule, QuerySpec};
use rdo_workloads::{all_queries, BenchmarkEnv, ScaleFactor};
use serde::Serialize;
use std::collections::BTreeMap;

/// Shared configuration for every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Scale factors (in "GB") to evaluate.
    pub scales: Vec<u64>,
    /// Number of partitions of the simulated cluster (the paper uses 10 nodes ×
    /// 4 cores).
    pub partitions: usize,
    /// Broadcast threshold (rows) of the join-algorithm rule.
    pub broadcast_threshold: f64,
    /// Sample size of the pilot-run baseline.
    pub pilot_sample: usize,
    /// Generator seed.
    pub seed: u64,
    /// Worker threads of the partition-parallel executor. Defaults to the
    /// machine's available parallelism; set the `RDO_WORKERS` environment
    /// variable to pin it so figures reproduce exactly on any core count
    /// (results and metrics are worker-count invariant, only wall time moves).
    pub workers: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            scales: vec![10, 100, 1000],
            partitions: 16,
            broadcast_threshold: 25_000.0,
            pilot_sample: 2_000,
            seed: 42,
            workers: rdo_core::ParallelConfig::from_env().workers,
        }
    }
}

impl ExperimentConfig {
    /// A configuration with reduced scale factors, for quick runs and CI.
    pub fn quick() -> Self {
        Self {
            scales: vec![5, 20],
            ..Default::default()
        }
    }

    /// The query runner for this configuration.
    pub fn runner(&self, indexed_nested_loop: bool) -> QueryRunner {
        let rule = JoinAlgorithmRule::with_threshold(self.broadcast_threshold)
            .with_indexed_nested_loop(indexed_nested_loop);
        let mut runner = QueryRunner::new(CostModel::with_partitions(self.partitions), rule)
            .with_parallel(self.parallel());
        runner.pilot_sample_limit = self.pilot_sample;
        runner
    }

    /// The parallel-execution knobs for this configuration.
    pub fn parallel(&self) -> rdo_core::ParallelConfig {
        // RDO_WORKERS pins the worker count (via `Self::default`).
        rdo_core::ParallelConfig::serial().with_workers(self.workers)
    }

    /// Loads the benchmark environment for one scale factor.
    pub fn load_env(&self, scale_gb: u64, with_indexes: bool) -> BenchmarkEnv {
        BenchmarkEnv::load(
            ScaleFactor::gb(scale_gb),
            self.partitions,
            with_indexes,
            self.seed,
        )
        .expect("workload generation cannot fail")
    }
}

/// One measurement of one strategy on one query at one scale factor.
#[derive(Debug, Clone, Serialize)]
pub struct FigureRow {
    /// Query name (Q17, Q50, Q8, Q9).
    pub query: String,
    /// Scale factor in GB.
    pub scale_gb: u64,
    /// Strategy label.
    pub strategy: String,
    /// Simulated cluster cost (the figure's y-axis).
    pub simulated_cost: f64,
    /// Wall-clock seconds of the in-process run.
    pub wall_seconds: f64,
    /// Number of result rows.
    pub result_rows: usize,
    /// Plan signature.
    pub plan: String,
}

impl FigureRow {
    fn from_report(report: &RunReport, scale_gb: u64) -> Self {
        Self {
            query: report.query.clone(),
            scale_gb,
            strategy: report.strategy.label().to_string(),
            simulated_cost: report.simulated_cost,
            wall_seconds: report.wall_seconds,
            result_rows: report.result_rows(),
            plan: report.plan.clone(),
        }
    }
}

/// One row of the Figure 6 (left) overhead decomposition.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Query name.
    pub query: String,
    /// Scale factor in GB.
    pub scale_gb: u64,
    /// Cost of the optimal plan with statistics known upfront.
    pub statistics_upfront: f64,
    /// Extra cost of the re-optimization points.
    pub reoptimization: f64,
    /// Extra cost of online statistics collection.
    pub online_stats: f64,
    /// Combined overhead as a fraction of the total.
    pub overhead_fraction: f64,
}

/// One row of the Figure 6 (right) predicate push-down overhead comparison.
#[derive(Debug, Clone, Serialize)]
pub struct PushdownRow {
    /// Query name.
    pub query: String,
    /// Scale factor in GB.
    pub scale_gb: u64,
    /// Cost without the predicate push-down stage (accurate statistics assumed).
    pub baseline: f64,
    /// Cost with predicate push-down enabled.
    pub with_pushdown: f64,
    /// Overhead fraction of push-down relative to the baseline.
    pub overhead_fraction: f64,
}

/// One row of Table 1 (average improvement of the dynamic approach).
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Scale factor in GB.
    pub scale_gb: u64,
    /// Baseline strategy.
    pub baseline: String,
    /// Average cost(baseline) / cost(dynamic) over the four queries.
    pub improvement: f64,
}

/// One row of the re-optimization budget ablation (paper §8 future work).
#[derive(Debug, Clone, Serialize)]
pub struct BudgetRow {
    /// Query name.
    pub query: String,
    /// Scale factor in GB.
    pub scale_gb: u64,
    /// The configured budget (`"unlimited"` for the paper's configuration).
    pub budget: String,
    /// Re-optimization points the driver actually spent.
    pub reoptimization_points: u32,
    /// Simulated cluster cost of the whole execution (including overheads).
    pub simulated_cost: f64,
    /// Wall-clock seconds of the in-process run.
    pub wall_seconds: f64,
}

/// One row of the correlated-predicate analysis (Section 5.1 / the Q8
/// motivation): how far the independence assumption is from the truth for a
/// dataset with multiple local predicates.
#[derive(Debug, Clone, Serialize)]
pub struct CorrelationRow {
    /// Query name.
    pub query: String,
    /// Scale factor in GB.
    pub scale_gb: u64,
    /// Dataset alias carrying the predicates.
    pub alias: String,
    /// Number of local predicates analyzed.
    pub predicates: usize,
    /// True selectivity of the conjunction.
    pub combined_selectivity: f64,
    /// What a static optimizer estimates under the independence assumption
    /// (histogram marginals, default factors for complex predicates).
    pub independence_estimate: f64,
    /// True selectivity divided by the product of the *measured* marginals
    /// (1.0 = independent).
    pub correlation_factor: f64,
    /// `max(est, truth) / min(est, truth)` of the static estimate (≥ 1).
    pub static_error_factor: f64,
}

/// One plan description (appendix Figures 11–23).
#[derive(Debug, Clone, Serialize)]
pub struct PlanRow {
    /// Query name.
    pub query: String,
    /// Scale factor in GB.
    pub scale_gb: u64,
    /// Whether indexed nested-loop joins were enabled (Figure 8 configuration).
    pub indexed_nested_loop: bool,
    /// Strategy label.
    pub strategy: String,
    /// Plan signature (for the dynamic strategies, the per-stage signatures
    /// separated by `;`).
    pub plan: String,
}

/// Runs the Figure 7 comparison (all strategies, no secondary indexes).
pub fn figure7(config: &ExperimentConfig) -> Vec<FigureRow> {
    comparison_rows(config, false)
}

/// Runs the Figure 8 comparison (secondary indexes + indexed nested-loop joins).
pub fn figure8(config: &ExperimentConfig) -> Vec<FigureRow> {
    comparison_rows(config, true)
}

fn comparison_rows(config: &ExperimentConfig, with_indexes: bool) -> Vec<FigureRow> {
    let runner = config.runner(with_indexes);
    let mut rows = Vec::new();
    for &scale in &config.scales {
        let mut env = config.load_env(scale, with_indexes);
        for query in all_queries() {
            for strategy in Strategy::COMPARISON {
                let report = runner
                    .run(strategy, &query, &mut env.catalog)
                    .expect("benchmark query execution");
                rows.push(FigureRow::from_report(&report, scale));
            }
        }
    }
    rows
}

/// Runs the Figure 6 (left) overhead decomposition.
pub fn figure6_overheads(config: &ExperimentConfig) -> Vec<OverheadRow> {
    let runner = config.runner(false);
    let mut rows = Vec::new();
    for &scale in &config.scales {
        let mut env = config.load_env(scale, false);
        for query in all_queries() {
            let upfront = runner
                .run(Strategy::BestOrder, &query, &mut env.catalog)
                .expect("best-order run");
            let reopt = runner
                .run(Strategy::ReoptWithoutOnlineStats, &query, &mut env.catalog)
                .expect("re-optimization run");
            let full = runner
                .run(Strategy::Dynamic, &query, &mut env.catalog)
                .expect("dynamic run");
            let report = OverheadReport::from_costs(
                upfront.simulated_cost,
                reopt.simulated_cost,
                full.simulated_cost,
            );
            rows.push(OverheadRow {
                query: query.name.clone(),
                scale_gb: scale,
                statistics_upfront: report.statistics_upfront,
                reoptimization: report.reoptimization,
                online_stats: report.online_stats,
                overhead_fraction: report.overhead_fraction(),
            });
        }
    }
    rows
}

/// Runs the Figure 6 (right) predicate push-down overhead comparison.
pub fn figure6_pushdown(config: &ExperimentConfig) -> Vec<PushdownRow> {
    let runner = config.runner(false);
    let mut rows = Vec::new();
    for &scale in &config.scales {
        let mut env = config.load_env(scale, false);
        for query in all_queries() {
            let baseline = runner
                .run(Strategy::DynamicWithoutPushdown, &query, &mut env.catalog)
                .expect("baseline run");
            let with_pushdown = runner
                .run(Strategy::Dynamic, &query, &mut env.catalog)
                .expect("dynamic run");
            let overhead = if baseline.simulated_cost > 0.0 {
                ((with_pushdown.simulated_cost - baseline.simulated_cost) / baseline.simulated_cost)
                    .max(0.0)
            } else {
                0.0
            };
            rows.push(PushdownRow {
                query: query.name.clone(),
                scale_gb: scale,
                baseline: baseline.simulated_cost,
                with_pushdown: with_pushdown.simulated_cost,
                overhead_fraction: overhead,
            });
        }
    }
    rows
}

/// Computes Table 1 (average improvement of the dynamic approach against every
/// baseline) from the Figure 7 rows.
pub fn table1(rows: &[FigureRow]) -> Vec<Table1Row> {
    // (scale, query) -> dynamic cost
    let mut dynamic_cost: BTreeMap<(u64, String), f64> = BTreeMap::new();
    for row in rows {
        if row.strategy == Strategy::Dynamic.label() {
            dynamic_cost.insert((row.scale_gb, row.query.clone()), row.simulated_cost);
        }
    }
    // (scale, baseline) -> improvement ratios
    let mut ratios: BTreeMap<(u64, String), Vec<f64>> = BTreeMap::new();
    for row in rows {
        if row.strategy == Strategy::Dynamic.label() {
            continue;
        }
        if let Some(&dynamic) = dynamic_cost.get(&(row.scale_gb, row.query.clone())) {
            if dynamic > 0.0 {
                ratios
                    .entry((row.scale_gb, row.strategy.clone()))
                    .or_default()
                    .push(row.simulated_cost / dynamic);
            }
        }
    }
    ratios
        .into_iter()
        .map(|((scale_gb, baseline), values)| Table1Row {
            scale_gb,
            baseline,
            improvement: values.iter().sum::<f64>() / values.len().max(1) as f64,
        })
        .collect()
}

/// Sweeps the re-optimization budget of the dynamic driver (0, 1, 2, unlimited)
/// over the two queries with the most joins — the "fewer re-optimizations"
/// trade-off the paper's future-work section raises.
pub fn reopt_budget_ablation(config: &ExperimentConfig) -> Vec<BudgetRow> {
    use rdo_core::{DynamicConfig, DynamicDriver};
    use rdo_workloads::{q17, q9};

    let rule = rdo_planner::JoinAlgorithmRule::with_threshold(config.broadcast_threshold);
    let cost_model = CostModel::with_partitions(config.partitions);
    let mut rows = Vec::new();
    for &scale in &config.scales {
        let mut env = config.load_env(scale, false);
        for query in [q17(), q9()] {
            for budget in [Some(0u32), Some(1), Some(2), None] {
                let driver_config = match budget {
                    Some(limit) => DynamicConfig::dynamic(rule).with_reopt_budget(limit),
                    None => DynamicConfig::dynamic(rule),
                }
                .with_parallel(config.parallel());
                let start = std::time::Instant::now();
                let outcome = DynamicDriver::new(driver_config)
                    .execute(&query, &mut env.catalog)
                    .expect("budgeted dynamic execution");
                rows.push(BudgetRow {
                    query: query.name.clone(),
                    scale_gb: scale,
                    budget: budget
                        .map(|limit| limit.to_string())
                        .unwrap_or_else(|| "unlimited".to_string()),
                    reoptimization_points: outcome.reoptimization_points,
                    simulated_cost: outcome.total.simulated_cost(&cost_model),
                    wall_seconds: start.elapsed().as_secs_f64(),
                });
            }
        }
    }
    rows
}

/// Formats the re-optimization budget ablation as an aligned text table.
pub fn render_budget(rows: &[BudgetRow]) -> String {
    let mut out = String::from("Ablation: re-optimization budget (dynamic strategy)\n");
    out.push_str(&format!(
        "{:<6} {:>6}  {:>10} {:>8} {:>14} {:>10}\n",
        "query", "scale", "budget", "reopts", "sim-cost", "wall-s"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<6} {:>4}GB  {:>10} {:>8} {:>14.1} {:>10.4}\n",
            row.query,
            row.scale_gb,
            row.budget,
            row.reoptimization_points,
            row.simulated_cost,
            row.wall_seconds
        ));
    }
    out
}

/// Measures predicate correlation for every multi-predicate dataset of the
/// four evaluation queries — the quantified version of the paper's Section 5.1
/// argument that multiplying marginal selectivities misestimates correlated
/// conjunctions (TPC-H Q8's `o_orderdate`/`o_orderstatus` pair, the UDF pairs
/// of Q9, the month/year filters of Q17/Q50).
pub fn correlations(config: &ExperimentConfig) -> Vec<CorrelationRow> {
    let mut rows = Vec::new();
    for &scale in &config.scales {
        let env = config.load_env(scale, false);
        for query in all_queries() {
            let reports =
                rdo_planner::analyze_query(&query, &env.catalog).expect("correlation analysis");
            for report in reports {
                rows.push(CorrelationRow {
                    query: query.name.clone(),
                    scale_gb: scale,
                    alias: report.alias.clone(),
                    predicates: report.marginal_selectivities.len(),
                    combined_selectivity: report.combined_selectivity,
                    independence_estimate: report.independence_estimate,
                    correlation_factor: report.correlation_factor(),
                    static_error_factor: report.static_error_factor(),
                });
            }
        }
    }
    rows
}

/// Formats the correlation analysis as an aligned text table.
pub fn render_correlations(rows: &[CorrelationRow]) -> String {
    let mut out =
        String::from("Correlated local predicates (true vs independence-assumption selectivity)\n");
    out.push_str(&format!(
        "{:<6} {:>6}  {:<10} {:>6} {:>12} {:>12} {:>10} {:>10}\n",
        "query", "scale", "dataset", "preds", "true-sel", "static-est", "corr", "err-factor"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<6} {:>4}GB  {:<10} {:>6} {:>12.5} {:>12.5} {:>10.2} {:>10.2}\n",
            row.query,
            row.scale_gb,
            row.alias,
            row.predicates,
            row.combined_selectivity,
            row.independence_estimate,
            row.correlation_factor,
            row.static_error_factor
        ));
    }
    out
}

/// Collects the plans every strategy chooses for every query (appendix
/// Figures 11–23).
pub fn plans(config: &ExperimentConfig, with_indexes: bool) -> Vec<PlanRow> {
    let runner = config.runner(with_indexes);
    let mut rows = Vec::new();
    for &scale in &config.scales {
        let mut env = config.load_env(scale, with_indexes);
        for query in all_queries() {
            for strategy in Strategy::COMPARISON {
                let report = runner
                    .run(strategy, &query, &mut env.catalog)
                    .expect("plan collection run");
                rows.push(PlanRow {
                    query: query.name.clone(),
                    scale_gb: scale,
                    indexed_nested_loop: with_indexes,
                    strategy: report.strategy.label().to_string(),
                    plan: report.plan.clone(),
                });
            }
        }
    }
    rows
}

/// Formats Figure 7/8 rows as an aligned text table grouped by scale and query.
pub fn render_comparison(rows: &[FigureRow]) -> String {
    let mut out = String::new();
    let mut grouped: BTreeMap<(u64, String), Vec<&FigureRow>> = BTreeMap::new();
    for row in rows {
        grouped
            .entry((row.scale_gb, row.query.clone()))
            .or_default()
            .push(row);
    }
    let mut last_scale = None;
    for ((scale, query), group) in grouped {
        if last_scale != Some(scale) {
            out.push_str(&format!("\n=== scale factor {scale} GB ===\n"));
            last_scale = Some(scale);
        }
        out.push_str(&format!("{query}\n"));
        for row in group {
            out.push_str(&format!(
                "  {:<22} cost {:>14.1}   wall {:>8.3}s   rows {:>8}\n",
                row.strategy, row.simulated_cost, row.wall_seconds, row.result_rows
            ));
        }
    }
    out
}

/// Formats the Figure 6 rows as text.
pub fn render_overheads(left: &[OverheadRow], right: &[PushdownRow]) -> String {
    let mut out = String::new();
    out.push_str("Figure 6 (left): re-optimization + online statistics overhead\n");
    out.push_str(&format!(
        "{:<6} {:>8} {:>16} {:>16} {:>14} {:>11}\n",
        "query", "scale", "stats upfront", "re-optimization", "online stats", "overhead%"
    ));
    for row in left {
        out.push_str(&format!(
            "{:<6} {:>8} {:>16.1} {:>16.1} {:>14.1} {:>10.1}%\n",
            row.query,
            row.scale_gb,
            row.statistics_upfront,
            row.reoptimization,
            row.online_stats,
            100.0 * row.overhead_fraction
        ));
    }
    out.push_str("\nFigure 6 (right): predicate push-down overhead\n");
    out.push_str(&format!(
        "{:<6} {:>8} {:>16} {:>16} {:>11}\n",
        "query", "scale", "baseline", "push-down", "overhead%"
    ));
    for row in right {
        out.push_str(&format!(
            "{:<6} {:>8} {:>16.1} {:>16.1} {:>10.1}%\n",
            row.query,
            row.scale_gb,
            row.baseline,
            row.with_pushdown,
            100.0 * row.overhead_fraction
        ));
    }
    out
}

/// Formats Table 1 as text.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 1: average improvement of the dynamic approach (cost ratio baseline/dynamic)\n",
    );
    out.push_str(&format!(
        "{:<8} {:<14} {:>12}\n",
        "scale", "baseline", "improvement"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<8} {:<14} {:>11.2}x\n",
            row.scale_gb, row.baseline, row.improvement
        ));
    }
    out
}

/// Formats the plan rows as text.
pub fn render_plans(rows: &[PlanRow]) -> String {
    let mut out = String::new();
    let mut last = (u64::MAX, String::new());
    for row in rows {
        if last != (row.scale_gb, row.query.clone()) {
            out.push_str(&format!(
                "\n=== {} at {} GB (INL {}) ===\n",
                row.query,
                row.scale_gb,
                if row.indexed_nested_loop { "on" } else { "off" }
            ));
            last = (row.scale_gb, row.query.clone());
        }
        out.push_str(&format!("  {:<22} {}\n", row.strategy, row.plan));
    }
    out
}

/// Convenience used by the criterion benches: run one strategy on one query.
pub fn run_once(
    runner: &QueryRunner,
    strategy: Strategy,
    query: &QuerySpec,
    env: &mut BenchmarkEnv,
) -> RunReport {
    runner
        .run(strategy, query, &mut env.catalog)
        .expect("bench query execution")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scales: vec![2],
            partitions: 4,
            broadcast_threshold: 2_000.0,
            pilot_sample: 500,
            seed: 13,
            workers: 2,
        }
    }

    #[test]
    fn figure7_produces_one_row_per_query_and_strategy() {
        let rows = figure7(&tiny_config());
        assert_eq!(rows.len(), 4 * Strategy::COMPARISON.len());
        assert!(rows.iter().all(|r| r.simulated_cost > 0.0));
        let rendered = render_comparison(&rows);
        assert!(rendered.contains("Q17"));
        assert!(rendered.contains("worst-order"));
    }

    #[test]
    fn reopt_budget_ablation_respects_the_budget() {
        let rows = reopt_budget_ablation(&tiny_config());
        // Two queries × four budgets × one scale factor.
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(row.simulated_cost > 0.0);
            match row.budget.as_str() {
                "0" => assert_eq!(row.reoptimization_points, 0),
                "1" => assert!(row.reoptimization_points <= 1),
                "2" => assert!(row.reoptimization_points <= 2),
                "unlimited" => {}
                other => panic!("unexpected budget label {other}"),
            }
        }
        let rendered = render_budget(&rows);
        assert!(rendered.contains("unlimited"));
        assert!(rendered.contains("Q17"));
    }

    #[test]
    fn correlation_rows_cover_the_multi_predicate_datasets() {
        let rows = correlations(&tiny_config());
        // Q17 has three filtered date_dim aliases, Q50 one, Q8 one (orders),
        // Q9 none with *two or more* predicates on the same dataset... except
        // that its UDF datasets carry a single predicate each, so they are not
        // analyzed. At least the Q17 + Q50 + Q8 datasets must appear.
        assert!(rows.len() >= 5, "got {} rows", rows.len());
        for row in &rows {
            assert!(row.combined_selectivity >= 0.0 && row.combined_selectivity <= 1.0);
            assert!(row.static_error_factor >= 1.0);
            assert!(row.predicates >= 2);
        }
        // The correlated orders predicates of Q8 must be flagged as correlated.
        let q8_orders = rows
            .iter()
            .find(|r| r.query == "Q8" && r.alias == "orders")
            .expect("Q8 orders row");
        assert!(
            q8_orders.correlation_factor > 1.3,
            "Q8 orders correlation factor {}",
            q8_orders.correlation_factor
        );
        let rendered = render_correlations(&rows);
        assert!(rendered.contains("orders"));
    }

    #[test]
    fn table1_improvements_are_positive_and_worst_order_is_largest() {
        let rows = figure7(&tiny_config());
        let table = table1(&rows);
        assert_eq!(table.len(), 5, "five baselines compared against dynamic");
        for row in &table {
            assert!(row.improvement > 0.0);
        }
        let worst = table
            .iter()
            .find(|r| r.baseline == "worst-order")
            .expect("worst-order row");
        let best = table
            .iter()
            .find(|r| r.baseline == "best-order")
            .expect("best-order row");
        assert!(
            worst.improvement > best.improvement,
            "worst-order ({:.2}) must show a larger improvement factor than best-order ({:.2})",
            worst.improvement,
            best.improvement
        );
        assert!(render_table1(&table).contains("worst-order"));
    }

    #[test]
    fn figure6_rows_have_bounded_overheads() {
        let config = tiny_config();
        let left = figure6_overheads(&config);
        let right = figure6_pushdown(&config);
        assert_eq!(left.len(), 4);
        assert_eq!(right.len(), 4);
        for row in &left {
            assert!(row.overhead_fraction >= 0.0 && row.overhead_fraction < 0.9);
        }
        for row in &right {
            assert!(row.overhead_fraction >= 0.0 && row.overhead_fraction < 0.9);
        }
        let text = render_overheads(&left, &right);
        assert!(text.contains("Figure 6"));
    }

    #[test]
    fn plan_rows_cover_all_strategies() {
        let rows = plans(&tiny_config(), false);
        assert_eq!(rows.len(), 4 * Strategy::COMPARISON.len());
        assert!(render_plans(&rows).contains("dynamic"));
    }
}
