//! Cost breakdowns used to reproduce the overhead analysis of Figure 6.

use crate::driver::DynamicOutcome;
use rdo_exec::{CostModel, ExecutionMetrics};

/// Decomposition of a dynamic run's simulated cost into the components the
/// paper analyses: the re-optimization overhead (materializing and re-reading
/// intermediate results plus the extra planner invocations), the online
/// statistics collection, the predicate push-down stage, and everything else
/// (the "useful" join work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Total simulated cost, including all overheads.
    pub total: f64,
    /// Cost of writing and re-reading materialized intermediate results plus
    /// the planner invocations.
    pub reoptimization: f64,
    /// Cost of the online statistics collection (sketch updates at every Sink).
    pub online_stats: f64,
    /// Cost of the predicate push-down stage (separate execution of the filtered
    /// datasets).
    pub predicate_pushdown: f64,
    /// Remaining cost: scans, shuffles, broadcasts and join work.
    pub base_execution: f64,
}

impl CostBreakdown {
    /// Computes the breakdown of a dynamic outcome under a cost model.
    pub fn of(outcome: &DynamicOutcome, model: &CostModel) -> Self {
        let partitions = model.partitions.max(1) as f64;
        let m = &outcome.total;
        let execution_cost = m.simulated_cost(model);
        let planner_cost = outcome.planner_invocations as f64 * model.planner_invocation;
        let total = execution_cost + planner_cost;

        let reopt_io = (m.rows_materialized as f64 * model.materialize_row
            + m.bytes_materialized as f64 * model.materialize_byte
            + m.rows_intermediate_read as f64 * model.intermediate_read_row
            + m.bytes_intermediate_read as f64 * model.intermediate_read_byte)
            / partitions;
        let reoptimization = reopt_io + planner_cost;
        let online_stats = m.stats_values_observed as f64 * model.stats_value / partitions;
        let predicate_pushdown = outcome.pushdown.simulated_cost(model);
        let base_execution = (total - reoptimization - online_stats).max(0.0);
        Self {
            total,
            reoptimization,
            online_stats,
            predicate_pushdown,
            base_execution,
        }
    }

    /// Re-optimization overhead as a fraction of the total.
    pub fn reoptimization_fraction(&self) -> f64 {
        if self.total > 0.0 {
            self.reoptimization / self.total
        } else {
            0.0
        }
    }

    /// Online-statistics overhead as a fraction of the total.
    pub fn online_stats_fraction(&self) -> f64 {
        if self.total > 0.0 {
            self.online_stats / self.total
        } else {
            0.0
        }
    }

    /// Predicate push-down overhead as a fraction of the total.
    pub fn pushdown_fraction(&self) -> f64 {
        if self.total > 0.0 {
            self.predicate_pushdown / self.total
        } else {
            0.0
        }
    }
}

/// The Figure 6 (left) decomposition obtained the way the paper measures it:
/// three executions of the same query — optimal plan with statistics known
/// upfront, re-optimization without online statistics, and the full dynamic
/// approach — whose differences isolate each overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Cost of executing the optimal plan with statistics available upfront.
    pub statistics_upfront: f64,
    /// Extra cost introduced by the re-optimization points (materialization I/O).
    pub reoptimization: f64,
    /// Extra cost introduced by online statistics collection.
    pub online_stats: f64,
}

impl OverheadReport {
    /// Builds the report from the three measured costs.
    pub fn from_costs(upfront: f64, reopt_without_stats: f64, full_dynamic: f64) -> Self {
        Self {
            statistics_upfront: upfront,
            reoptimization: (reopt_without_stats - upfront).max(0.0),
            online_stats: (full_dynamic - reopt_without_stats).max(0.0),
        }
    }

    /// Total cost of the full dynamic execution.
    pub fn total(&self) -> f64 {
        self.statistics_upfront + self.reoptimization + self.online_stats
    }

    /// Combined overhead (re-optimization + online statistics) as a fraction of
    /// the total — the 7–20% band the paper reports.
    pub fn overhead_fraction(&self) -> f64 {
        let total = self.total();
        if total > 0.0 {
            (self.reoptimization + self.online_stats) / total
        } else {
            0.0
        }
    }
}

/// Convenience: simulated cost of plain metrics under a model (used by the
/// benchmark harness for the static baselines, which have no breakdown).
pub fn simulated_cost(metrics: &ExecutionMetrics, model: &CostModel) -> f64 {
    metrics.simulated_cost(model)
}

/// Renders [`ExecutionMetrics`] in the Prometheus text exposition format
/// (same name sanitization and `# TYPE` convention as
/// [`rdo_trace::Profile::metrics_text`]). Every counter sum-merges except
/// `grace_peak_transient_bytes`, which is a max-merged gauge.
pub fn execution_metrics_text(m: &ExecutionMetrics) -> String {
    let counters: [(&str, u64); 33] = [
        ("rows_scanned", m.rows_scanned),
        ("bytes_scanned", m.bytes_scanned),
        ("rows_intermediate_read", m.rows_intermediate_read),
        ("bytes_intermediate_read", m.bytes_intermediate_read),
        ("rows_shuffled", m.rows_shuffled),
        ("bytes_shuffled", m.bytes_shuffled),
        ("rows_broadcast", m.rows_broadcast),
        ("bytes_broadcast", m.bytes_broadcast),
        ("build_rows", m.build_rows),
        ("probe_rows", m.probe_rows),
        ("output_rows", m.output_rows),
        ("index_lookups", m.index_lookups),
        ("index_fetched_rows", m.index_fetched_rows),
        ("rows_materialized", m.rows_materialized),
        ("bytes_materialized", m.bytes_materialized),
        ("stats_values_observed", m.stats_values_observed),
        ("result_rows", m.result_rows),
        ("spill_pages_written", m.spill_pages_written),
        ("spill_bytes_written", m.spill_bytes_written),
        ("spill_pages_read", m.spill_pages_read),
        ("spill_bytes_read", m.spill_bytes_read),
        ("spill_logical_bytes_written", m.spill_logical_bytes_written),
        ("spill_logical_bytes_read", m.spill_logical_bytes_read),
        ("grace_partitions_spilled", m.grace_partitions_spilled),
        ("grace_pages_written", m.grace_pages_written),
        ("grace_bytes_written", m.grace_bytes_written),
        ("grace_pages_read", m.grace_pages_read),
        ("grace_bytes_read", m.grace_bytes_read),
        ("grace_logical_bytes_written", m.grace_logical_bytes_written),
        ("grace_logical_bytes_read", m.grace_logical_bytes_read),
        ("grace_recursions", m.grace_recursions),
        ("grace_fallbacks", m.grace_fallbacks),
        ("grace_peak_transient_bytes", m.grace_peak_transient_bytes),
    ];
    let mut out = String::new();
    for (name, value) in counters {
        let kind = if name == "grace_peak_transient_bytes" {
            "gauge"
        } else {
            "counter"
        };
        out.push_str(&format!("# TYPE rdo_{name} {kind}\nrdo_{name} {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Relation, Schema};

    fn outcome_with(total: ExecutionMetrics, pushdown: ExecutionMetrics) -> DynamicOutcome {
        DynamicOutcome {
            result: Relation::empty(Schema::for_dataset("t", &[("a", DataType::Int64)])),
            total,
            pushdown,
            planner_invocations: 2,
            reoptimization_points: 1,
            stage_plans: vec!["(a ⋈ b)".into()],
            audit: Default::default(),
        }
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let total = ExecutionMetrics {
            rows_scanned: 100_000,
            bytes_scanned: 5_000_000,
            rows_shuffled: 50_000,
            bytes_shuffled: 2_500_000,
            rows_materialized: 10_000,
            bytes_materialized: 500_000,
            rows_intermediate_read: 10_000,
            bytes_intermediate_read: 500_000,
            stats_values_observed: 20_000,
            output_rows: 30_000,
            ..Default::default()
        };
        let pushdown = ExecutionMetrics {
            rows_scanned: 5_000,
            rows_materialized: 500,
            ..Default::default()
        };
        let model = CostModel::default();
        let b = CostBreakdown::of(&outcome_with(total, pushdown), &model);
        assert!(b.total > 0.0);
        assert!(b.reoptimization > 0.0);
        assert!(b.online_stats > 0.0);
        assert!(b.predicate_pushdown > 0.0);
        let sum = b.base_execution + b.reoptimization + b.online_stats;
        assert!((sum - b.total).abs() < 1e-6, "components must sum to total");
        assert!(b.reoptimization_fraction() > 0.0 && b.reoptimization_fraction() < 1.0);
        assert!(b.online_stats_fraction() < b.reoptimization_fraction());
        assert!(b.pushdown_fraction() < 1.0);
    }

    #[test]
    fn zero_cost_breakdown_is_safe() {
        let b = CostBreakdown::of(
            &DynamicOutcome {
                result: Relation::empty(Schema::for_dataset("t", &[("a", DataType::Int64)])),
                total: ExecutionMetrics::new(),
                pushdown: ExecutionMetrics::new(),
                planner_invocations: 0,
                reoptimization_points: 0,
                stage_plans: vec![],
                audit: Default::default(),
            },
            &CostModel::default(),
        );
        assert_eq!(b.total, 0.0);
        assert_eq!(b.reoptimization_fraction(), 0.0);
        assert_eq!(b.online_stats_fraction(), 0.0);
    }

    #[test]
    fn overhead_report_differences() {
        let r = OverheadReport::from_costs(100.0, 112.0, 115.0);
        assert!((r.reoptimization - 12.0).abs() < 1e-9);
        assert!((r.online_stats - 3.0).abs() < 1e-9);
        assert!((r.total() - 115.0).abs() < 1e-9);
        assert!((r.overhead_fraction() - 15.0 / 115.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_report_clamps_negative_differences() {
        let r = OverheadReport::from_costs(100.0, 95.0, 90.0);
        assert_eq!(r.reoptimization, 0.0);
        assert_eq!(r.online_stats, 0.0);
        assert_eq!(r.overhead_fraction(), 0.0);
    }

    #[test]
    fn metrics_text_types_every_counter_once() {
        let m = ExecutionMetrics {
            rows_scanned: 7,
            grace_peak_transient_bytes: 9,
            ..Default::default()
        };
        let text = execution_metrics_text(&m);
        assert_eq!(text.matches("# TYPE ").count(), 33);
        assert_eq!(text.matches(" counter\n").count(), 32);
        assert!(text.contains("# TYPE rdo_grace_peak_transient_bytes gauge\n"));
        assert!(text.contains("\nrdo_rows_scanned 7\n"), "{text}");
        assert!(
            text.contains("\nrdo_grace_peak_transient_bytes 9\n"),
            "{text}"
        );
        assert!(text.contains("\nrdo_output_rows 0\n"), "{text}");
    }

    #[test]
    fn planner_invocations_are_charged_to_reoptimization() {
        let model = CostModel::default();
        let b = CostBreakdown::of(
            &outcome_with(ExecutionMetrics::new(), ExecutionMetrics::new()),
            &model,
        );
        let planner = 2.0 * model.planner_invocation;
        assert!((b.total - planner).abs() < 1e-9);
        assert!((b.reoptimization - planner).abs() < 1e-9);
        assert_eq!(b.base_execution, 0.0);
        assert_eq!(b.predicate_pushdown, 0.0);
    }

    #[test]
    fn materialization_io_is_spread_over_the_partitions() {
        let total = ExecutionMetrics {
            rows_materialized: 8_000,
            bytes_materialized: 400_000,
            ..Default::default()
        };
        let outcome = outcome_with(total, ExecutionMetrics::new());
        let one = CostModel::with_partitions(1);
        let four = CostModel::with_partitions(4);
        let io = |model: &CostModel| {
            CostBreakdown::of(&outcome, model).reoptimization - 2.0 * model.planner_invocation
        };
        assert!(io(&one) > 0.0);
        assert!((io(&one) - 4.0 * io(&four)).abs() < 1e-6 * io(&one));
        assert_eq!(
            simulated_cost(&outcome.total, &one),
            outcome.total.simulated_cost(&one)
        );
    }
}
