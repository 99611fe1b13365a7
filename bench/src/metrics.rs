//! The names every later change uses: the end-to-end metrics with their
//! regression bounds, and the per-layer metrics of the traced run.
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in step.

use crate::json::Json;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a TCP client of `rdo-server` sees, measured
/// with tracing off. `bound` is the share of the parent's median by which it
/// may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Failures are not in this table: a metric here must never read 0, so they
/// travel as the `attempted` / `failed` counts of every result line.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.10),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p90_ms", "ms", Better::Lower, 0.15),
    e2e("latency_p99_ms", "ms", Better::Lower, 0.25),
    e2e("q17_p50_ms", "ms", Better::Lower, 0.15),
    e2e("q50_p50_ms", "ms", Better::Lower, 0.15),
    e2e("q8_p50_ms", "ms", Better::Lower, 0.15),
    e2e("q9_p50_ms", "ms", Better::Lower, 0.15),
];

/// One per-layer metric of the traced run. The layer is the name's prefix —
/// the crate the number belongs to.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 76] = [
    // server: the fixed per-query path around the engine.
    higher("server.plan_cache_hit_ratio", "ratio"),
    higher("server.learned_hit_ratio", "ratio"),
    lower("server.admission_waits", "count"),
    lower("server.result_bytes", "bytes"),
    lower("server.admit_us", "us"),
    lower("server.encode_us", "us"),
    lower("server.decode_us", "us"),
    lower("server.session_overhead_us", "us"),
    lower("server.peak_rss_mib", "MiB"),
    // sql
    lower("sql.normalize_us", "us"),
    lower("sql.compile_us", "us"),
    // planner
    lower("planner.plan_us", "us"),
    lower("planner.invocations", "count"),
    lower("planner.reopt_points", "count"),
    lower("planner.max_q_error", "ratio"),
    // core: the dynamic loop and the paper's Figs 6-7 in wall time.
    lower("core.execute_ms", "ms"),
    lower("core.stage_pushdown_ms", "ms"),
    lower("core.stage_reopt_ms", "ms"),
    lower("core.stage_final_ms", "ms"),
    lower("core.driver_self_ms", "ms"),
    lower("core.strategy_dynamic_ms", "ms"),
    lower("core.strategy_cost_based_ms", "ms"),
    lower("core.strategy_best_order_ms", "ms"),
    lower("core.strategy_pilot_run_ms", "ms"),
    lower("core.strategy_worst_order_ms", "ms"),
    lower("core.dynamic_over_best_static", "ratio"),
    lower("core.cold_over_warm", "ratio"),
    lower("core.checkpoint_overhead_ratio", "ratio"),
    lower("core.checkpoint_restore_ms", "ms"),
    // exec: operators inside a query, then the kernels by direct call.
    lower("exec.scan_ms", "ms"),
    lower("exec.join_ms", "ms"),
    lower("exec.grace_ms", "ms"),
    lower("exec.post_us", "us"),
    lower("exec.rows_scanned", "count"),
    lower("exec.build_rows", "count"),
    lower("exec.probe_rows", "count"),
    lower("exec.rows_examined_per_result_row", "ratio"),
    lower("exec.kernel_scan_batch_ms", "ms"),
    lower("exec.kernel_scan_rows_ms", "ms"),
    lower("exec.kernel_join_batch_ms", "ms"),
    lower("exec.kernel_join_rows_ms", "ms"),
    lower("exec.kernel_repartition_batch_ms", "ms"),
    lower("exec.kernel_repartition_rows_ms", "ms"),
    // parallel
    lower("parallel.sink_materialize_ms", "ms"),
    lower("parallel.pool_queue_wait_ms", "ms"),
    lower("parallel.morsel_skew", "ratio"),
    lower("parallel.pool_dispatch_us", "us"),
    lower("parallel.bytes_shuffled", "bytes"),
    lower("parallel.bytes_broadcast", "bytes"),
    // sketch
    lower("sketch.build_ms_per_100k", "ms"),
    lower("sketch.stats_values_observed", "count"),
    // storage
    lower("storage.catalog_clone_us", "us"),
    lower("storage.register_intermediate_ms", "ms"),
    lower("storage.scan_batches_ms", "ms"),
    lower("storage.rows_materialized", "count"),
    lower("storage.bytes_materialized", "bytes"),
    // spill
    lower("spill.pages_written", "count"),
    lower("spill.pages_read", "count"),
    lower("spill.grace_partitions_spilled", "count"),
    lower("spill.stored_bytes_per_logical_byte", "ratio"),
    higher("spill.encode_row_mb_s", "MB/s"),
    higher("spill.encode_col_mb_s", "MB/s"),
    higher("spill.compress_mb_s", "MB/s"),
    higher("spill.decode_row_mb_s", "MB/s"),
    higher("spill.decode_col_mb_s", "MB/s"),
    higher("spill.decompress_mb_s", "MB/s"),
    lower("spill.roundtrip_ms", "ms"),
    // net
    higher("net.page_batch_write_mb_s", "MB/s"),
    higher("net.page_batch_read_mb_s", "MB/s"),
    // trace: how far traced numbers may be read as untraced ones.
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.spans_per_query", "count"),
    higher("trace.attributed_fraction", "ratio"),
    // Replay step sum over the client-side latency of the same texts: the
    // attribution identity (steps + session overhead = client latency).
    higher("trace.step_sum_over_client", "ratio"),
    // common
    lower("common.batch_from_rows_ms_per_100k", "ms"),
    lower("common.batch_to_rows_ms_per_100k", "ms"),
    // workloads
    lower("workloads.load_s", "s"),
];

/// The content of `BENCHMARK.json`, generated from the tables above and
/// [`crate::workload::WORKLOADS`] (`rdo-perf manifest` prints it).
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        ("command", strings(&["bash", "bench/run.sh"])),
        ("paths", strings(&["bench"])),
        (
            "run_seconds",
            Json::Num(crate::suite::DEFAULT_SECONDS as f64),
        ),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
        for name in names.iter().chain(WORKLOADS.iter().map(|w| &w.name)) {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are what
    /// the binary prints and `compare` enforces. They must not drift.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            manifest().render_pretty(),
            "regenerate with `bench/run.sh manifest > BENCHMARK.json`"
        );
    }
}
