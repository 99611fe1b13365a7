//! The traced run: per-layer numbers for one workload.
//!
//! `rdo-server` runs its sessions with tracing off, and its `run_query` is
//! private. So the traced run does two things. A **server pass** sends a
//! fixed number of queries over TCP (untraced, like any client) and keeps
//! what the server answered: latencies, plan-cache flags, plans. A **replay**
//! then walks the same pipeline in-process, one public call at a time —
//! `normalize` → `compile` → `admit` → `Catalog::clone` →
//! `DynamicDriver::execute` → `PostProcess::apply` → frame encode → frame
//! decode — with the same inputs and settings, timing each call from here and
//! passing `TraceHandle::enabled()` so the spans the engine already emits are
//! collected in memory. The replay must reproduce what the server answered
//! for the same text and mode (rows, plan, re-optimization points, planner
//! invocations); if it does not, it is measuring something else and the run
//! fails.

use crate::harness::{
    self, count_failures, digest, nproc, prewarm_hot, server_config, Fixture, Outcome, Reported,
    Stop, Texts, Window,
};
use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::stats::median;
use crate::workload::{round_order, MixedSequence, Pick, Shape, HOT_TEXTS, PAPER_NAMES};
use crate::RunArgs;
use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::server::protocol::{
    decode_rows, decode_schema, decode_summary, encode_rows, encode_schema, encode_summary,
    read_frame, write_frame, Tag, ROWS_PER_FRAME,
};
use runtime_dynamic_optimization::sql::{normalize, BoundQuery};
use runtime_dynamic_optimization::trace::SpanRecord;
use runtime_dynamic_optimization::workloads::{paper_udfs, q50_params};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- span arithmetic --------------------------------------------------------

/// Total duration of the spans called `name`.
pub fn sum_ns(spans: &[SpanRecord], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns)
        .sum()
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover. Children may overlap (morsels on pool threads), so the
/// covered part is the union of their intervals, clipped to the parent.
pub fn self_time_ns(spans: &[SpanRecord], id: u64) -> u64 {
    let Some(parent) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let (lo, hi) = (parent.start_ns, parent.start_ns + parent.duration_ns);
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns.max(lo), (s.start_ns + s.duration_ns).min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut reach = lo;
    for (a, b) in covered {
        if b > reach {
            union += b - a.max(reach);
            reach = b;
        }
    }
    parent.duration_ns - union
}

/// Slowest morsel over mean morsel, per operator that ran more than one, as
/// the median over those operators: how much of an operator's time is one
/// partition making the others wait.
pub fn morsel_skew(spans: &[SpanRecord]) -> Option<f64> {
    let mut by_operator: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == "pool.morsel") {
        by_operator
            .entry(span.parent)
            .or_default()
            .push(span.duration_ns as f64);
    }
    let skews: Vec<f64> = by_operator
        .values()
        .filter(|morsels| morsels.len() > 1)
        .filter_map(|morsels| {
            let mean = morsels.iter().sum::<f64>() / morsels.len() as f64;
            let max = morsels.iter().copied().fold(0.0, f64::max);
            (mean > 0.0).then(|| max / mean)
        })
        .collect();
    (!skews.is_empty()).then(|| median(&skews))
}

// ---- the replayed server ----------------------------------------------------

/// FNV-1a over the normalized text, as `rdo-server` names cached plans: the
/// name decides intermediate-table names and so the plan signature the
/// fidelity check compares.
fn stable_name(key: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("q{hash:016x}")
}

/// One replayed query: what each step cost and what it produced.
pub struct Replayed {
    /// Times in milliseconds and span-derived figures, by per-layer metric
    /// name (or a private `step.*` name).
    pub times: BTreeMap<&'static str, f64>,
    /// Exact counts, by per-layer metric name. Deterministic for a text and
    /// mode.
    pub counts: BTreeMap<&'static str, f64>,
    pub cache_hit: bool,
    pub digest: u64,
    pub plan: String,
    pub reopt_points: u32,
    pub planner_invocations: u32,
}

/// The state `rdo-server` shares between sessions, rebuilt from public parts.
pub struct ReplayServer<'a> {
    fixture: &'a Fixture,
    config: ServerConfig,
    pool: WorkerPool,
    admission: Option<Arc<AdmissionController>>,
    learned: Arc<LearnedStatsCatalog>,
    cache: HashMap<String, Arc<BoundQuery>>,
}

impl<'a> ReplayServer<'a> {
    pub fn new(fixture: &'a Fixture) -> Self {
        let config = server_config(fixture.workload);
        Self {
            fixture,
            pool: WorkerPool::new(config.parallel.workers),
            admission: config.mem_budget.map(AdmissionController::new),
            learned: Arc::new(LearnedStatsCatalog::bounded(config.learned_cap)),
            cache: HashMap::new(),
            config,
        }
    }

    /// One query through the pipeline of `run_query` + `respond` +
    /// `Client::query`. `remember` decides whether a miss enters the plan
    /// cache (a novel text is replayed as a miss every time).
    pub fn query(&mut self, sql: &str, traced: bool, remember: bool) -> Replayed {
        let ms = |since: Instant| since.elapsed().as_secs_f64() * 1e3;
        let mut times = BTreeMap::new();

        let t = Instant::now();
        let key = normalize(sql).expect("generated SQL normalizes");
        times.insert("sql.normalize_us", ms(t) * 1e3);

        let cached = self.cache.get(&key).cloned();
        let warm = cached.is_some();
        let t = Instant::now();
        let bound = cached.unwrap_or_else(|| {
            Arc::new(
                compile(
                    sql,
                    stable_name(&key),
                    &self.fixture.catalog,
                    &paper_udfs(),
                    &q50_params(9, 2000),
                )
                .expect("generated SQL compiles"),
            )
        });
        times.insert("sql.compile_us", ms(t) * 1e3);

        let t = Instant::now();
        let ticket = self.admission.as_ref().map(|controller| {
            controller
                .admit(
                    self.config.query_grant,
                    Duration::from_millis(self.config.admit_timeout_ms),
                )
                .expect("an uncontended admission succeeds")
        });
        times.insert("server.admit_us", ms(t) * 1e3);

        let mut spill = SpillConfig::from_env();
        if let Some(ticket) = &ticket {
            let half = (ticket.bytes() / 2).max(1);
            spill = spill.with_budget(half).with_join_budget(half);
        }
        let trace = if traced {
            TraceHandle::enabled()
        } else {
            TraceHandle::disabled()
        };
        let mut config = DynamicConfig::dynamic(self.config.rule)
            .with_parallel(self.config.parallel)
            .with_spill(spill)
            .with_trace(trace.clone())
            .with_pool(self.pool.clone())
            .with_learned(Arc::clone(&self.learned));
        if warm {
            config = config.with_reopt_budget(0);
        }
        let driver = DynamicDriver::new(config);

        let t = Instant::now();
        let mut catalog = self.fixture.catalog.clone();
        times.insert("storage.catalog_clone_us", ms(t) * 1e3);

        let t = Instant::now();
        let outcome = driver
            .execute(&bound.spec, &mut catalog)
            .expect("replayed execution");
        times.insert("core.execute_ms", ms(t));

        let t = Instant::now();
        let plan = outcome.plan_description();
        let result = {
            // The server runs the post-join stage outside the driver; its
            // `exec.post` span needs the trace installed on this thread.
            let _installed = trace.install();
            bound
                .post
                .apply(outcome.result)
                .expect("replayed post-processing")
        };
        times.insert("exec.post_us", ms(t) * 1e3);
        drop(ticket);

        let t = Instant::now();
        let summary = RunSummary {
            rows: result.len() as u64,
            plan_cache_hit: warm,
            reopt_points: outcome.reoptimization_points,
            planner_invocations: outcome.planner_invocations,
            max_q_error: outcome.audit.max_q_error(),
            learned_hits: self.learned.hits(),
            learned_misses: self.learned.misses(),
            plan,
            audit: outcome.audit.render(),
        };
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            Tag::ResultSchema,
            &encode_schema(result.schema()),
        )
        .expect("encode schema");
        for chunk in result.rows().chunks(ROWS_PER_FRAME) {
            write_frame(&mut wire, Tag::ResultRows, &encode_rows(chunk)).expect("encode rows");
        }
        write_frame(&mut wire, Tag::ResultEnd, &encode_summary(&summary)).expect("encode end");
        times.insert("server.encode_us", ms(t) * 1e3);

        let t = Instant::now();
        let received = decode_response(&wire);
        times.insert("server.decode_us", ms(t) * 1e3);
        assert_eq!(received.len(), result.len(), "the wire lost rows");

        if !warm && remember {
            self.cache.insert(key, bound);
        }

        let step_sum_ms = times["core.execute_ms"]
            + [
                "sql.normalize_us",
                "sql.compile_us",
                "server.admit_us",
                "storage.catalog_clone_us",
                "exec.post_us",
                "server.encode_us",
                "server.decode_us",
            ]
            .iter()
            .map(|k| times[k] / 1e3)
            .sum::<f64>();
        times.insert("step.sum_ms", step_sum_ms);

        if traced {
            span_figures(&trace, &mut times);
        }

        let m = &outcome.total;
        let pages_written = m.spill_pages_written + m.grace_pages_written;
        let stored = m.spill_bytes_written + m.grace_bytes_written;
        let logical = m.spill_logical_bytes_written + m.grace_logical_bytes_written;
        let counts = BTreeMap::from([
            ("server.result_bytes", wire.len() as f64),
            ("planner.invocations", outcome.planner_invocations as f64),
            ("planner.reopt_points", outcome.reoptimization_points as f64),
            ("planner.max_q_error", summary.max_q_error),
            ("exec.rows_scanned", m.rows_scanned as f64),
            ("exec.build_rows", m.build_rows as f64),
            ("exec.probe_rows", m.probe_rows as f64),
            (
                "count.rows_examined",
                (m.rows_scanned + m.rows_intermediate_read) as f64,
            ),
            ("count.result_rows", result.len() as f64),
            ("parallel.bytes_shuffled", m.bytes_shuffled as f64),
            ("parallel.bytes_broadcast", m.bytes_broadcast as f64),
            (
                "sketch.stats_values_observed",
                m.stats_values_observed as f64,
            ),
            ("storage.rows_materialized", m.rows_materialized as f64),
            ("storage.bytes_materialized", m.bytes_materialized as f64),
            ("spill.pages_written", pages_written as f64),
            (
                "spill.pages_read",
                (m.spill_pages_read + m.grace_pages_read) as f64,
            ),
            (
                "spill.grace_partitions_spilled",
                m.grace_partitions_spilled as f64,
            ),
            ("count.spill_stored_bytes", stored as f64),
            ("count.spill_logical_bytes", logical as f64),
        ]);

        Replayed {
            times,
            counts,
            cache_hit: warm,
            digest: digest(sql, &received),
            plan: summary.plan,
            reopt_points: summary.reopt_points,
            planner_invocations: summary.planner_invocations,
        }
    }
}

/// The client half of the protocol over an in-memory response.
fn decode_response(wire: &[u8]) -> Relation {
    let mut reader = wire;
    let mut frame = || {
        read_frame(&mut reader)
            .expect("decode frame")
            .expect("the response ends with ResultEnd")
    };
    let (tag, payload) = frame();
    assert_eq!(tag, Tag::ResultSchema);
    let schema = decode_schema(&payload).expect("decode schema");
    let width = schema.fields().len();
    let mut rows = Vec::new();
    loop {
        match frame() {
            (Tag::ResultRows, payload) => {
                rows.extend(decode_rows(&payload, width).expect("decode rows"))
            }
            (Tag::ResultEnd, payload) => {
                decode_summary(&payload).expect("decode summary");
                break;
            }
            (tag, _) => panic!("unexpected frame {tag:?} in a response"),
        }
    }
    Relation::new(schema, rows).expect("reassemble the result")
}

/// The figures read off one query's spans.
fn span_figures(trace: &TraceHandle, times: &mut BTreeMap<&'static str, f64>) {
    let spans = trace.spans();
    let total_ms = |name: &str| sum_ns(&spans, name) as f64 / 1e6;
    times.insert("planner.plan_us", total_ms("planner.plan") * 1e3);
    times.insert("core.stage_pushdown_ms", total_ms("stage.pushdown"));
    times.insert("core.stage_reopt_ms", total_ms("stage.reopt"));
    times.insert("core.stage_final_ms", total_ms("stage.final"));
    times.insert("exec.scan_ms", total_ms("exec.scan"));
    times.insert("exec.join_ms", total_ms("exec.join"));
    times.insert("parallel.sink_materialize_ms", total_ms("sink.materialize"));
    // Grace levels nest; only the outermost span of each partition counts.
    let grace_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "exec.grace")
        .filter(|s| {
            spans
                .iter()
                .find(|p| p.id == s.parent)
                .is_none_or(|p| p.name != "exec.grace")
        })
        .map(|s| s.duration_ns)
        .sum();
    times.insert("exec.grace_ms", grace_ns as f64 / 1e6);
    if let Some(root) = spans.iter().find(|s| s.name == "driver.execute") {
        let self_ns = self_time_ns(&spans, root.id);
        times.insert("core.driver_self_ms", self_ns as f64 / 1e6);
        times.insert(
            "trace.attributed_fraction",
            1.0 - self_ns as f64 / root.duration_ns.max(1) as f64,
        );
    }
    if let Some(skew) = morsel_skew(&spans) {
        times.insert("parallel.morsel_skew", skew);
    }
    times.insert(
        "parallel.pool_queue_wait_ms",
        trace
            .gauges()
            .get("pool.queue_wait_ns")
            .copied()
            .unwrap_or(0) as f64
            / 1e6,
    );
    times.insert("trace.spans_per_query", spans.len() as f64);
}

// ---- the traced run ---------------------------------------------------------

/// One text of the replay set: which mode it runs in and its share of the
/// workload's query mix.
struct ReplayText {
    text: usize,
    warm: bool,
    weight: f64,
}

/// The texts the replay walks. Round-based workloads replay the four paper
/// texts in the workload's mode; the mixed workload replays its hot set as
/// hits and the first eight novel texts of each client as misses, weighted
/// 90/10 like the traffic.
fn replay_set(run: &RunArgs) -> Vec<ReplayText> {
    let workload = run.workload;
    match workload.shape {
        Shape::ColdRounds | Shape::WarmRounds => (0..4)
            .map(|text| ReplayText {
                text,
                warm: workload.shape == Shape::WarmRounds,
                weight: 0.25,
            })
            .collect(),
        Shape::Mixed => {
            const NOVEL_SAMPLED_PER_CLIENT: usize = 8;
            let clients = workload.clients.min(nproc()).max(1);
            let novel = clients * NOVEL_SAMPLED_PER_CLIENT;
            let mut set: Vec<ReplayText> = (0..HOT_TEXTS)
                .map(|text| ReplayText {
                    text,
                    warm: true,
                    weight: 0.9 / HOT_TEXTS as f64,
                })
                .collect();
            for client in 0..clients {
                set.extend(
                    // Past the picks the client's warm-up consumes, so the
                    // server pass's window holds the server's answer.
                    MixedSequence::new(run.seed, client)
                        .skip(harness::MIXED_WARMUP_QUERIES)
                        .filter(|pick| matches!(pick, Pick::Novel(_)))
                        .take(NOVEL_SAMPLED_PER_CLIENT)
                        .map(|pick| ReplayText {
                            text: Texts::index_of(pick, client),
                            warm: false,
                            weight: 0.1 / novel as f64,
                        }),
                );
            }
            set
        }
    }
}

/// Servers the server pass keeps answers from, after one discarded one. Each
/// answers every text cold, then a warm round; on the mixed workload the
/// last one then serves the concurrent clients.
const SERVER_PASS_ITERATIONS: u64 = 3;
/// Queries each client sends in the mixed workload's server pass.
const SERVER_PASS_MIXED_QUERIES: u64 = 1500;
/// The replay loop runs for this share of `--seconds`; the server pass before
/// it and the probes after it are fixed work.
const REPLAY_SHARE: f64 = 0.4;
/// Most replay rounds (traced and untraced alternate): ten traced
/// repetitions per text.
const MAX_REPLAY_ROUNDS: u64 = 20;

/// What the server pass keeps: every server first answers each text cold,
/// then does the rest of its work (a warm round, or the mixed clients).
struct ServerPass {
    cold: Window,
    rest: Window,
    /// Learned-catalog lookups during the workload's own mode, and the hits
    /// among them.
    learned_hits: u64,
    learned_lookups: u64,
    admission_waits: u64,
}

impl ServerPass {
    /// The samples in the workload's own mode: what the replay must reproduce.
    fn primary(&self, shape: Shape) -> &Window {
        match shape {
            Shape::ColdRounds => &self.cold,
            Shape::WarmRounds | Shape::Mixed => &self.rest,
        }
    }
}

/// The learned catalog's lifetime (hits, lookups) after the last query of a
/// window. Both only grow, so the latest sample holds the largest.
fn learned_totals(window: &Window) -> (u64, u64) {
    window
        .samples
        .iter()
        .map(|s| (s.learned_hits, s.learned_hits + s.learned_misses))
        .max()
        .unwrap_or((0, 0))
}

fn server_pass(fixture: &Fixture, texts: &Texts, seed: u64) -> ServerPass {
    let workload = fixture.workload;
    let mut pass = ServerPass {
        cold: Window::default(),
        rest: Window::default(),
        learned_hits: 0,
        learned_lookups: 0,
        admission_waits: 0,
    };
    // The first server's answers are discarded: first touch of the data is
    // page faults, not the engine. The mixed clients run once, on the last.
    for i in 0..=SERVER_PASS_ITERATIONS {
        let last = i == SERVER_PASS_ITERATIONS;
        let server = fixture.start_server();
        let (cold, rest) = if workload.shape == Shape::Mixed {
            let cold = prewarm_hot(&server, texts);
            let clients = if last {
                let count = Stop::Count(SERVER_PASS_MIXED_QUERIES);
                harness::mixed_clients(&server, workload, texts, seed, count)
            } else {
                Window::default()
            };
            (cold, clients)
        } else {
            let mut client = Client::connect(&server.addr()).expect("connect");
            let cold = harness::rounds_on(&mut client, texts, seed, i, Stop::Count(1));
            let warm = harness::rounds_on(&mut client, texts, seed, i, Stop::Count(1));
            (cold, warm)
        };
        if i == 0 {
            continue;
        }
        let (after_cold, after_rest) = (learned_totals(&cold), learned_totals(&rest));
        let (before, after) = match workload.shape {
            Shape::ColdRounds => ((0, 0), after_cold),
            Shape::WarmRounds | Shape::Mixed => (after_cold, after_rest.max(after_cold)),
        };
        pass.learned_hits += after.0 - before.0;
        pass.learned_lookups += after.1 - before.1;
        pass.admission_waits += server.admission().map_or(0, |a| a.waits());
        pass.cold.absorb(cold);
        pass.rest.absorb(rest);
    }
    pass
}

/// Peak resident set of this process so far, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs the replay rounds and returns, per replay-set entry, its traced and
/// untraced repetitions.
fn replay_rounds(
    fixture: &Fixture,
    texts: &Texts,
    set: &[ReplayText],
    run: &RunArgs,
) -> (Vec<Vec<Replayed>>, Vec<Vec<Replayed>>) {
    let budget = Duration::from_secs_f64(run.seconds as f64 * REPLAY_SHARE);
    let mut traced: Vec<Vec<Replayed>> = set.iter().map(|_| Vec::new()).collect();
    let mut untraced: Vec<Vec<Replayed>> = set.iter().map(|_| Vec::new()).collect();
    let shape = fixture.workload.shape;

    // One long-lived server state for the workloads that have one, filled
    // the way the real server is before the window opens.
    let mut shared = (shape != Shape::ColdRounds).then(|| {
        let mut server = ReplayServer::new(fixture);
        for entry in set.iter().filter(|e| e.warm) {
            server.query(&texts.all[entry.text], false, true);
            server.query(&texts.all[entry.text], false, true);
        }
        server
    });

    let started = Instant::now();
    let mut round = 0;
    while round < 2 || (started.elapsed() < budget && round < MAX_REPLAY_ROUNDS) {
        let trace_this_round = round % 2 == 0;
        let mut fresh;
        let server = match shared.as_mut() {
            Some(server) => server,
            None => {
                fresh = ReplayServer::new(fixture);
                &mut fresh
            }
        };
        // Round-based sets walk in the seed's order like the clients do.
        let order: Vec<usize> = if shape != Shape::Mixed {
            round_order(run.seed, round).to_vec()
        } else {
            (0..set.len()).collect()
        };
        for i in order {
            let entry = &set[i];
            let replayed = server.query(&texts.all[entry.text], trace_this_round, entry.warm);
            assert_eq!(
                replayed.cache_hit, entry.warm,
                "replay mode of text {} drifted",
                entry.text
            );
            if trace_this_round {
                traced[i].push(replayed);
            } else {
                untraced[i].push(replayed);
            }
        }
        round += 1;
    }
    (traced, untraced)
}

/// Weighted mean over the replay set of each text's median of `key`.
fn mix(set: &[ReplayText], reps: &[Vec<Replayed>], key: &str) -> f64 {
    set.iter()
        .zip(reps)
        .map(|(entry, reps)| {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.times.get(key).copied())
                .collect();
            if values.is_empty() {
                0.0
            } else {
                entry.weight * median(&values)
            }
        })
        .sum()
}

/// Sum over one pass through the replay set of the exact count `key`.
fn total(reps: &[Vec<Replayed>], key: &str) -> f64 {
    reps.iter().map(|reps| reps[0].counts[key]).sum()
}

pub fn traced_run(run: &RunArgs, texts: &Texts) -> Outcome {
    let workload = run.workload;
    let (fixture, mut reference, _) = harness::set_up(workload, texts.upfront(workload));
    let set = replay_set(run);

    // 1. What the real server answers, over TCP, for a fixed set of queries.
    let pass = server_pass(&fixture, texts, run.seed);
    let rss_mib = peak_rss_mib();
    let primary = pass.primary(workload.shape);
    let (mut failed, mut attempted) = (0, 0);
    for window in [&pass.cold, &pass.rest] {
        failed += count_failures(&fixture, &mut reference, texts, window);
        attempted += window.samples.len() as u64 + window.errors;
    }
    let client_p50 = |window: &Window, text: usize, warm: bool| -> Option<f64> {
        let latencies: Vec<f64> = window
            .samples
            .iter()
            .filter(|s| s.text == text && s.cache_hit == warm)
            .map(|s| s.latency_ms)
            .collect();
        (!latencies.is_empty()).then(|| median(&latencies))
    };

    // 2. The same pipeline, step by step, with spans on.
    let (traced, untraced) = replay_rounds(&fixture, texts, &set, run);
    let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let reps = traced.iter().map(Vec::len).min().unwrap_or(0);

    // Fidelity: every replayed repetition must be what the server answered.
    for (entry, reps) in set.iter().zip(traced.iter().zip(&untraced)) {
        let served = primary
            .samples
            .iter()
            .find(|s| s.text == entry.text && s.cache_hit == entry.warm);
        for replayed in reps.0.iter().chain(reps.1) {
            attempted += 1;
            let faithful = served.is_some_and(|s| {
                s.digest == replayed.digest
                    && s.plan == replayed.plan
                    && s.reopt_points == replayed.reopt_points
                    && s.planner_invocations == replayed.planner_invocations
            });
            if !faithful {
                failed += 1;
                eprintln!(
                    "UNFAITHFUL REPLAY of text {} (warm={}):\n  server: {:?}\n  replay: plan {:?} reopt {} planner {} digest {:016x}",
                    entry.text,
                    entry.warm,
                    served.map(|s| (&s.plan, s.reopt_points, s.planner_invocations, s.digest)),
                    replayed.plan,
                    replayed.reopt_points,
                    replayed.planner_invocations,
                    replayed.digest
                );
            }
        }
    }

    // Every figure a replayed query records under a per-layer name is
    // reported; `step.*` and `count.*` entries only feed derived metrics.
    let recorded = |of: fn(&Replayed) -> &BTreeMap<&'static str, f64>| -> Vec<&'static str> {
        let mut keys: Vec<&'static str> = traced
            .iter()
            .flatten()
            .flat_map(|r| of(r).keys().copied())
            .filter(|k| !k.starts_with("step.") && !k.starts_with("count."))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    };
    for key in recorded(|r| &r.times) {
        out.insert(key, (mix(&set, &traced, key), reps));
    }
    for key in recorded(|r| &r.counts) {
        out.insert(key, (total(&traced, key), set.len()));
    }
    // The worst estimate is a maximum over the texts, not a sum.
    let max_q_error = traced
        .iter()
        .map(|reps| reps[0].counts["planner.max_q_error"])
        .fold(0.0, f64::max);
    out.insert("planner.max_q_error", (max_q_error, set.len()));
    out.insert(
        "exec.rows_examined_per_result_row",
        (
            total(&traced, "count.rows_examined") / total(&traced, "count.result_rows").max(1.0),
            set.len(),
        ),
    );
    let logical = total(&traced, "count.spill_logical_bytes");
    out.insert(
        "spill.stored_bytes_per_logical_byte",
        (
            if logical > 0.0 {
                total(&traced, "count.spill_stored_bytes") / logical
            } else {
                0.0
            },
            set.len(),
        ),
    );

    // Tracing overhead: the same step, spans on over spans off.
    let untraced_execute = mix(&set, &untraced, "core.execute_ms");
    out.insert(
        "trace.overhead_ratio",
        (
            mix(&set, &traced, "core.execute_ms") / untraced_execute,
            reps,
        ),
    );

    // Attribution: untraced steps + what the session adds = client latency.
    let step_sum_ms = mix(&set, &untraced, "step.sum_ms");
    let client_ms: f64 = set
        .iter()
        .map(|e| e.weight * client_p50(primary, e.text, e.warm).unwrap_or(0.0))
        .sum();
    out.insert(
        "server.session_overhead_us",
        ((client_ms - step_sum_ms) * 1e3, reps),
    );
    out.insert(
        "trace.step_sum_over_client",
        (step_sum_ms / client_ms, reps),
    );
    println!("  # attribution per text (untraced replay step sum / client p50 over TCP):");
    for (entry, reps) in set.iter().zip(&untraced).take(HOT_TEXTS.min(set.len())) {
        let steps: Vec<f64> = reps.iter().map(|r| r.times["step.sum_ms"]).collect();
        let client = client_p50(primary, entry.text, entry.warm).unwrap_or(f64::NAN);
        let label = PAPER_NAMES
            .get(entry.text)
            .copied()
            .unwrap_or("hot variant");
        println!(
            "    {label:<12} steps {:>9.3} ms  client {client:>9.3} ms  ratio {:.3}",
            median(&steps),
            median(&steps) / client
        );
    }

    // Server-pass counters.
    let hits = primary.samples.iter().filter(|s| s.cache_hit).count();
    out.insert(
        "server.plan_cache_hit_ratio",
        (
            hits as f64 / primary.samples.len().max(1) as f64,
            primary.samples.len(),
        ),
    );
    out.insert(
        "server.learned_hit_ratio",
        (
            pass.learned_hits as f64 / pass.learned_lookups.max(1) as f64,
            pass.learned_lookups as usize,
        ),
    );
    out.insert(
        "server.admission_waits",
        (pass.admission_waits as f64, primary.samples.len()),
    );
    out.insert("server.peak_rss_mib", (rss_mib, 1));
    let paper_sum = |window: &Window, warm: bool| -> f64 {
        (0..4)
            .filter_map(|text| client_p50(window, text, warm))
            .sum()
    };
    out.insert(
        "core.cold_over_warm",
        (
            paper_sum(&pass.cold, false) / paper_sum(&pass.rest, true),
            pass.cold.samples.len(),
        ),
    );
    out.insert("workloads.load_s", (fixture.load_s, 1));

    // 3. Layers no query exposes on its own: kernels, codecs, the paper's
    //    strategy comparison and checkpointing, by direct call.
    probes::run(&fixture, &WorkerPool::new(nproc()), &mut out);

    let reported: Vec<Reported> = PER_LAYER
        .iter()
        .map(|metric| {
            let (value, n) = out
                .remove(metric.name)
                .unwrap_or_else(|| panic!("the traced run did not measure {}", metric.name));
            Reported {
                name: metric.name.to_string(),
                value,
                unit: metric.unit,
                n,
            }
        })
        .collect();
    assert!(
        out.is_empty(),
        "measured but not listed in PER_LAYER: {:?}",
        out.keys().collect::<Vec<_>>()
    );
    let details = vec![
        ("replay_reps_traced", Json::Num(reps as f64)),
        ("replay_texts", Json::Num(set.len() as f64)),
        (
            "server_pass_queries",
            Json::Num(primary.samples.len() as f64),
        ),
    ];
    Outcome {
        attempted,
        failed,
        reported,
        details,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, duration_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            thread: 0,
            start_ns,
            duration_ns,
            attrs: Vec::new(),
        }
    }

    fn tree() -> Vec<SpanRecord> {
        vec![
            span(1, 0, "driver.execute", 0, 1000),
            span(2, 1, "stage.pushdown", 100, 200), // 100..300
            span(3, 1, "stage.reopt", 250, 250),    // 250..500, overlaps 2 by 50
            span(4, 1, "stage.final", 900, 300),    // 900..1200, clipped to 1000
            span(5, 3, "exec.join", 260, 200),
            span(6, 5, "pool.morsel", 260, 100),
            span(7, 5, "pool.morsel", 260, 180),
            span(8, 5, "pool.morsel", 300, 20),
            span(9, 2, "exec.scan", 100, 150),
            span(10, 9, "pool.morsel", 100, 150),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = tree();
        // Children cover 100..500 and 900..1000 of 0..1000.
        assert_eq!(self_time_ns(&spans, 1), 1000 - 400 - 100);
        // Overlapping morsels 260..440 cover 180 of the join's 200.
        assert_eq!(self_time_ns(&spans, 5), 20);
        // A leaf is all self time; an unknown id has none.
        assert_eq!(self_time_ns(&spans, 8), 20);
        assert_eq!(self_time_ns(&spans, 99), 0);
    }

    #[test]
    fn sums_and_skew_follow_span_names() {
        let spans = tree();
        assert_eq!(sum_ns(&spans, "pool.morsel"), 450);
        assert_eq!(sum_ns(&spans, "stage.reopt"), 250);
        assert_eq!(sum_ns(&spans, "exec.grace"), 0);
        // Only the join ran several morsels: max 180 over mean 100.
        assert_eq!(morsel_skew(&spans), Some(1.8));
        assert_eq!(morsel_skew(&spans[..5]), None);
    }

    #[test]
    fn stable_name_matches_the_servers_scheme() {
        assert_eq!(stable_name(""), "qcbf29ce484222325");
        assert_eq!(stable_name("SELECT 1").len(), 17);
        assert_ne!(stable_name("SELECT 1"), stable_name("SELECT 2"));
    }
}
