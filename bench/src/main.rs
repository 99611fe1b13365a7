//! `rdo-perf`: the wall-clock benchmark of `rdo-server`.
//!
//! ```text
//! rdo-perf --workload W [--seed N] [--seconds S] [--trace 0|1]   one run
//! rdo-perf [--quick] [--runs N] [--seed N] [--seconds S]         every workload, untraced then traced
//! rdo-perf compare A.json B.json                                 verdict per metric
//! rdo-perf manifest                                              the content of BENCHMARK.json
//! ```
//!
//! One run is one process: it loads the data, hosts `SqlServer` and its
//! clients over loopback TCP, measures, checks every response against a
//! reference, and prints one JSON object as its last line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` replays the server's query
//! pipeline step by step in-process with `rdo-trace` spans on and reports the
//! per-layer metrics. See `README.md` beside this package.

mod compare;
mod harness;
mod json;
mod metrics;
mod probes;
mod replay;
mod stats;
mod suite;
mod workload;

use harness::{Outcome, Stop};
use json::Json;
use std::time::Duration;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static workload::Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rdo-perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         rdo-perf [--quick] [--runs N] [--seed N] [--seconds S]\n       \
         rdo-perf compare A.json B.json",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

/// `--name value` pairs and bare `--flags`, in any order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Self {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                eprintln!("unexpected argument `{arg}`");
                usage();
            };
            let value = if bare.contains(&name) {
                None
            } else {
                Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--{name} needs a value");
                    usage()
                }))
            };
            out.push((name.to_string(), value));
        }
        Self(out)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn number(&self, name: &str, default: u64) -> u64 {
        match self.0.iter().find(|(n, _)| n == name) {
            None => default,
            Some((_, value)) => value
                .as_deref()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("--{name} needs a whole number");
                    usage()
                }),
        }
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn reject_unknown(&self, known: &[&str]) {
        for (name, _) in &self.0 {
            if !known.contains(&name.as_str()) {
                eprintln!("unknown option --{name}");
                usage();
            }
        }
    }
}

/// `run_query` reads `SpillConfig::from_env()` for every query, and the
/// driver, runner and catalog defaults read more: one exported `RDO_*`
/// variable would silently measure a different system.
fn refuse_rdo_environment() {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("RDO_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "rdo-perf: refusing to run with {} set; the benchmark configures the engine itself",
            set.join(", ")
        );
        std::process::exit(2);
    }
}

/// Spill files go to `std::env::temp_dir()`; keep them beside the binary
/// (inside the build directory) instead of the machine's `/tmp`.
fn keep_temp_files_local() {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.join("rdo-perf-tmp")))
        .expect("the binary has a parent directory");
    std::fs::create_dir_all(&dir).expect("create the local temp directory");
    std::env::set_var("TMPDIR", &dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => std::process::exit(compare::run(a, b)),
            _ => usage(),
        }
    }
    if args.first().map(String::as_str) == Some("manifest") {
        print!("{}", metrics::manifest().render_pretty());
        return;
    }
    refuse_rdo_environment();
    keep_temp_files_local();
    let single = args.iter().any(|a| a == "--workload");
    if single {
        let flags = Flags::parse(&args, &[]);
        flags.reject_unknown(&["workload", "seed", "seconds", "trace"]);
        let name = flags.text("workload").unwrap_or_default();
        let Some(workload) = workload::find(name) else {
            eprintln!("unknown workload `{name}`");
            usage();
        };
        let run = RunArgs {
            workload,
            seed: flags.number("seed", 42),
            seconds: flags.number("seconds", suite::DEFAULT_SECONDS).max(1),
            trace: flags.number("trace", 0) != 0,
        };
        run_once(&run);
        return;
    }
    let flags = Flags::parse(&args, &["quick"]);
    flags.reject_unknown(&["quick", "runs", "seed", "seconds", "out"]);
    std::process::exit(suite::run(&flags_to_suite(&flags)));
}

fn flags_to_suite(flags: &Flags) -> suite::SuiteArgs {
    let quick = flags.has("quick");
    suite::SuiteArgs {
        quick,
        runs: flags.number("runs", 1).max(1),
        seed: flags.number("seed", 42),
        seconds: flags.number(
            "seconds",
            if quick {
                suite::QUICK_SECONDS
            } else {
                suite::DEFAULT_SECONDS
            },
        ),
        out_dir: flags.text("out").unwrap_or("bench/results").to_string(),
    }
}

/// How often the untraced run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

fn run_once(run: &RunArgs) {
    let workload = run.workload;
    println!(
        "rdo-perf {} trace={} seed={} seconds={} nproc={}",
        workload.name,
        run.trace as u8,
        run.seed,
        run.seconds,
        harness::nproc()
    );
    let texts = harness::Texts::of(workload);
    let outcome = if run.trace {
        replay::traced_run(run, &texts)
    } else {
        let mut setups = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPEATS {
            drop(kept.take());
            let (fixture, reference, setup_s) = harness::set_up(workload, texts.upfront(workload));
            setups.push(setup_s);
            kept = Some((fixture, reference));
        }
        let (fixture, mut reference) = kept.expect("at least one set-up");
        let window = harness::measured_window(
            &fixture,
            &texts,
            run.seed,
            Stop::After(Duration::from_secs(run.seconds)),
        );
        let failed = harness::count_failures(&fixture, &mut reference, &texts, &window);
        let attempted = window.samples.len() as u64 + window.errors;
        Outcome {
            attempted,
            failed,
            reported: harness::end_to_end_metrics(&window, attempted - failed, &setups),
            details: vec![
                ("window_s", Json::Num(window.busy_s)),
                ("load_s", Json::Num(fixture.load_s)),
            ],
        }
    };
    print_result(run, outcome);
}

/// Prints every metric by name with its unit and sample count, then the
/// `detail` line the suite collects, then the result object as the last line.
fn print_result(run: &RunArgs, outcome: Outcome) {
    let Outcome {
        attempted,
        failed,
        reported,
        details,
    } = outcome;
    for metric in &reported {
        let note = suite::percentile_note(&metric.name, metric.n);
        println!(
            "  {:<40} {:>16.4} {:<6} n={}{}",
            metric.name, metric.value, metric.unit, metric.n, note
        );
    }
    println!(
        "  attempted={attempted} failed={failed} failed_fraction={:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    let mut detail = vec![
        ("workload", Json::str(run.workload.name)),
        ("trace", Json::Num(run.trace as u8 as f64)),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds as f64)),
        ("scale_gb", Json::Num(run.workload.scale_gb as f64)),
        ("clients", Json::Num(run.workload.clients as f64)),
        (
            "samples",
            Json::Obj(
                reported
                    .iter()
                    .map(|m| (m.name.clone(), Json::Num(m.n as f64)))
                    .collect(),
            ),
        ),
    ];
    detail.extend(details);
    println!("detail {}", Json::obj(detail).render());
    let metrics = reported
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
