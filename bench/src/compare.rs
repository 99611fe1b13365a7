//! `rdo-perf compare A.json B.json`: is B (the change) no worse than A (the
//! parent) on every end-to-end metric of every workload, by the bounds of
//! [`crate::metrics::END_TO_END`]?

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Ok,
    /// The run-to-run spread of a side exceeds the bound, so a difference of
    /// that size cannot be told from noise. Not "unchanged".
    Unresolved,
    /// B's median is worse than A's by more than the bound.
    Regression,
}

/// By how much of A's median B's median is worse (negative: better).
pub fn worse_by(metric: &EndToEnd, a: &[f64], b: &[f64]) -> f64 {
    let (a, b) = (median(a), median(b));
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Spread is only known for a side with at least four runs; a single run
/// compares medians and nothing else.
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let too_wide = [a, b]
        .iter()
        .any(|side| side.len() >= 4 && spread(side) > metric.bound);
    if too_wide {
        let every_b_better = match metric.better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        return if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(metric, a, b) > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Per-layer counts that must repeat exactly between two runs of the same
/// code and seed; a difference means the plans or the data path changed.
const EXACT_COUNTS: [&str; 8] = [
    "server.plan_cache_hit_ratio",
    "planner.invocations",
    "planner.reopt_points",
    "exec.rows_scanned",
    "spill.pages_written",
    "spill.pages_read",
    "storage.rows_materialized",
    "storage.bytes_materialized",
];

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("rdo-perf/1") {
        return Err(format!("{path}: not an rdo-perf result file"));
    }
    Ok(doc)
}

fn numbers(values: Option<&Json>) -> Vec<f64> {
    values
        .and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Exit code: 0 no regression, 1 a regression, 2 the files cannot be compared.
pub fn run(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("rdo-perf compare: {e}");
            }
            return 2;
        }
    };
    // Like with like only: a result from other hardware or settings is a
    // different benchmark.
    for key in [
        "nproc",
        "workers",
        "partitions",
        "data_seed",
        "seconds",
        "quick",
    ] {
        let (va, vb) = (
            a.get("env").and_then(|e| e.get(key)),
            b.get("env").and_then(|e| e.get(key)),
        );
        if va != vb {
            eprintln!(
                "rdo-perf compare: `{key}` differs ({} vs {}); refusing to compare",
                va.map_or("missing".into(), Json::render),
                vb.map_or("missing".into(), Json::render)
            );
            return 2;
        }
    }
    if a.get("env").and_then(|e| e.get("quick")) == Some(&Json::Bool(true)) {
        eprintln!("rdo-perf compare: --quick results are not comparable");
        return 2;
    }

    let workloads = |doc: &Json| -> Vec<Json> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let (mut regressions, mut unresolved) = (0, 0);
    for wa in workloads(&a) {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            println!("REGRESSION {name}: workload missing from {path_b}");
            regressions += 1;
            continue;
        };
        println!("== {name}");
        for metric in &END_TO_END {
            let values = |w: &Json| {
                numbers(
                    w.get("end_to_end")
                        .and_then(|m| m.get(metric.name))
                        .and_then(|m| m.get("values")),
                )
            };
            let (va, vb) = (values(&wa), values(&wb));
            if va.is_empty() || vb.is_empty() {
                println!("  REGRESSION {:<18} missing from a file", metric.name);
                regressions += 1;
                continue;
            }
            let outcome = verdict(metric, &va, &vb);
            let label = match outcome {
                Verdict::Ok => "ok",
                Verdict::Unresolved => {
                    unresolved += 1;
                    "UNRESOLVED"
                }
                Verdict::Regression => {
                    regressions += 1;
                    "REGRESSION"
                }
            };
            println!(
                "  {label:<10} {:<18} {:>12.4} -> {:>12.4} {:<4} worse by {:>+7.2}% (bound {:.0}%, runs {}/{})",
                metric.name,
                median(&va),
                median(&vb),
                metric.unit,
                worse_by(metric, &va, &vb) * 100.0,
                metric.bound * 100.0,
                va.len(),
                vb.len()
            );
        }
        // Failures: any increase of the failed share is a regression.
        let failed_share = |w: &Json| -> f64 {
            let failed: f64 = numbers(w.get("failed")).iter().sum();
            let attempted: f64 = numbers(w.get("attempted")).iter().sum();
            failed / attempted.max(1.0)
        };
        if failed_share(&wb) > failed_share(&wa) {
            println!(
                "  REGRESSION failed_fraction {:.6} -> {:.6}",
                failed_share(&wa),
                failed_share(&wb)
            );
            regressions += 1;
        }
        for count in EXACT_COUNTS {
            let value = |w: &Json| {
                w.get("per_layer")
                    .and_then(|m| m.get(count))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            if value(&wa) != value(&wb) {
                println!(
                    "  count differs: {count} {:?} -> {:?} (same seed and code must repeat exactly)",
                    value(&wa),
                    value(&wb)
                );
            }
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const THROUGHPUT: EndToEnd = EndToEnd {
        name: "per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.05,
    };

    #[test]
    fn medians_within_the_bound_pass_and_beyond_it_fail() {
        assert_eq!(verdict(&LATENCY, &[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(verdict(&LATENCY, &[100.0], &[111.0]), Verdict::Regression);
        assert_eq!(verdict(&LATENCY, &[100.0], &[50.0]), Verdict::Ok);
        assert_eq!(verdict(&THROUGHPUT, &[100.0], &[96.0]), Verdict::Ok);
        assert_eq!(verdict(&THROUGHPUT, &[100.0], &[94.0]), Verdict::Regression);
        assert_eq!(verdict(&THROUGHPUT, &[100.0], &[150.0]), Verdict::Ok);
        assert!((worse_by(&THROUGHPUT, &[100.0], &[94.0]) - 0.06).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let steady = [99.0, 100.0, 100.0, 101.0, 100.5];
        assert_eq!(verdict(&LATENCY, &noisy, &steady), Verdict::Unresolved);
        assert_eq!(verdict(&LATENCY, &steady, &noisy), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(
            verdict(&LATENCY, &noisy, &[60.0, 61.0, 62.0, 63.0]),
            Verdict::Ok
        );
        // Steady sides compare by medians.
        assert_eq!(verdict(&LATENCY, &steady, &steady), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&LATENCY, &steady, &slower), Verdict::Regression);
        // Fewer than four runs carry no spread: medians only.
        assert_eq!(verdict(&LATENCY, &[80.0, 120.0], &[100.0]), Verdict::Ok);
    }
}
