//! Every workload in one go: each run is its own process (no allocator or
//! RSS bleed between workloads), untraced runs first, then one traced run
//! per workload. Prints every metric by name and writes `latest.json` and
//! `latest.txt`.

use crate::harness::nproc;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, samples_beyond, spread, MIN_BEYOND};
use crate::workload::{Workload, DATA_SEED, PARTITIONS, WORKLOADS};
use std::fmt::Write as _;
use std::process::Command;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const DEFAULT_SECONDS: u64 = 15;
/// `--quick`: long enough for a couple of rounds; checks correctness only.
pub const QUICK_SECONDS: u64 = 1;

pub struct SuiteArgs {
    pub quick: bool,
    /// Untraced runs per workload, on seeds `seed`, `seed + 1`, ...
    pub runs: u64,
    pub seed: u64,
    pub seconds: u64,
    pub out_dir: String,
}

/// For a percentile metric, how many samples lie beyond it — and a warning
/// when fewer than ten do.
pub fn percentile_note(name: &str, n: usize) -> String {
    let p = [("_p50_", 0.50), ("_p90_", 0.90), ("_p99_", 0.99)]
        .iter()
        .find(|(tag, _)| name.contains(tag))
        .map(|(_, p)| *p);
    match p {
        None => String::new(),
        Some(p) => {
            let beyond = samples_beyond(n, p);
            let warning = if beyond < MIN_BEYOND {
                " (fewer than 10 beyond: read with care)"
            } else {
                ""
            };
            format!(" beyond={beyond}{warning}")
        }
    }
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One child run: its result object, its `detail` object and the notes it
/// printed (`  # ` headers and the lines indented under them).
fn child_run(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Option<(Json, Json, Vec<String>)> {
    let exe = std::env::current_exe().expect("path of this binary");
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a benchmark run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        eprintln!(
            "{stdout}\nrun of {} exited with {}",
            workload.name, output.status
        );
        return None;
    }
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next()?).ok()?;
    let detail = Json::parse(lines.next()?.strip_prefix("detail ")?).ok()?;
    let notes = stdout
        .lines()
        .filter(|l| l.starts_with("    ") || l.starts_with("  # "))
        .map(str::to_string)
        .collect();
    Some((result, detail, notes))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run(args: &SuiteArgs) -> i32 {
    let mut text = String::new();
    let mut say = |line: String| {
        println!("{line}");
        writeln!(text, "{line}").expect("write to String");
    };
    if args.quick {
        say(
            "QUICK RUN: checks correctness only; its numbers are not comparable with anything"
                .into(),
        );
    }
    let env = Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("workers", Json::Num(nproc() as f64)),
        ("partitions", Json::Num(PARTITIONS as f64)),
        ("data_seed", Json::Num(DATA_SEED as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("quick", Json::Bool(args.quick)),
        (
            "git_commit",
            Json::str(tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_output("rustc", &["--version"]))),
    ]);
    say(format!("environment {}", env.render()));

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        say(format!(
            "== {} (scale {} GB, {} client(s))",
            workload.name, workload.scale_gb, workload.clients
        ));
        let mut values: Vec<Vec<f64>> = END_TO_END.iter().map(|_| Vec::new()).collect();
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        let mut samples = Json::Null;
        for r in 0..args.runs {
            let Some((result, detail, _)) = child_run(workload, args.seed + r, args.seconds, false)
            else {
                return 1;
            };
            for (metric, values) in END_TO_END.iter().zip(&mut values) {
                values.push(metric_value(&result, metric.name).expect("every end-to-end metric"));
            }
            attempted.push(result.get("attempted").cloned().unwrap_or(Json::Null));
            failed.push(result.get("failed").cloned().unwrap_or(Json::Null));
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            samples = detail.get("samples").cloned().unwrap_or(Json::Null);
        }
        let mut end_to_end = Vec::new();
        for (metric, values) in END_TO_END.iter().zip(&values) {
            let n = samples
                .get(metric.name)
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as usize;
            let run_spread = (values.len() >= 2).then(|| spread(values));
            say(format!(
                "  {:<40} {:>16.4} {:<6} runs={} spread={} n={}{}",
                metric.name,
                median(values),
                metric.unit,
                values.len(),
                run_spread.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
                n,
                percentile_note(metric.name, n),
            ));
            end_to_end.push((
                metric.name.to_string(),
                Json::obj(vec![
                    ("unit", Json::str(metric.unit)),
                    ("median", Json::Num(median(values))),
                    ("spread", run_spread.map_or(Json::Null, Json::Num)),
                    ("n", Json::Num(n as f64)),
                    (
                        "values",
                        Json::Arr(values.iter().copied().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        say(format!(
            "  attempted={} failed={}",
            Json::Arr(attempted.clone()).render(),
            Json::Arr(failed.clone()).render()
        ));

        let Some((traced, detail, notes)) = child_run(workload, args.seed, args.seconds, true)
        else {
            return 1;
        };
        notes.into_iter().for_each(&mut say);
        all_correct &= traced.get("correct") == Some(&Json::Bool(true));
        let mut per_layer = Vec::new();
        for metric in &PER_LAYER {
            let value = metric_value(&traced, metric.name).expect("every per-layer metric");
            let n = detail
                .get("samples")
                .and_then(|s| s.get(metric.name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            say(format!(
                "  {:<40} {:>16.4} {:<6} n={}",
                metric.name, value, metric.unit, n
            ));
            per_layer.push((
                metric.name.to_string(),
                Json::obj(vec![
                    ("unit", Json::str(metric.unit)),
                    ("value", Json::Num(value)),
                    ("n", Json::Num(n)),
                ]),
            ));
        }
        workloads.push(Json::obj(vec![
            ("name", Json::str(workload.name)),
            ("scale_gb", Json::Num(workload.scale_gb as f64)),
            ("clients", Json::Num(workload.clients as f64)),
            ("attempted", Json::Arr(attempted)),
            ("failed", Json::Arr(failed)),
            ("end_to_end", Json::Obj(end_to_end)),
            (
                "traced_attempted",
                traced.get("attempted").cloned().unwrap_or(Json::Null),
            ),
            (
                "traced_failed",
                traced.get("failed").cloned().unwrap_or(Json::Null),
            ),
            ("per_layer", Json::Obj(per_layer)),
        ]));
    }

    let document = Json::obj(vec![
        ("schema", Json::str("rdo-perf/1")),
        ("env", env),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::create_dir_all(&args.out_dir).expect("create the results directory");
    let write = |name: &str, body: &str| {
        let path = format!("{}/{name}", args.out_dir);
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    };
    write("latest.json", &document.render_pretty());
    write("latest.txt", &text);
    if all_correct {
        0
    } else {
        eprintln!("at least one run returned a wrong or failed response");
        1
    }
}
