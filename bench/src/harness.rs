//! The untraced side of the benchmark: load the data, host `SqlServer` on
//! loopback, drive it with closed-loop `Client`s, and check every response
//! against a reference computed through an independent path.

use crate::json::Json;
use crate::stats::{median, percentile};
use crate::workload::{
    round_order, MixedSequence, MixedTexts, Pick, Shape, Workload, DATA_SEED, HOT_TEXTS,
    NOVEL_PER_CLIENT, PAPER_NAMES, PAPER_SQL, PARTITIONS,
};
use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::sql::BoundQuery;
use runtime_dynamic_optimization::workloads::{paper_udfs, q50_params};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Logical CPUs; also the worker count of the server's pool and the cap on
/// client threads. Recorded in every result so only like is compared.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The server settings of a workload, field by field: nothing comes from the
/// environment (which `main` has checked is free of `RDO_*`).
pub fn server_config(workload: &Workload) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        mem_budget: workload.mem_budget,
        admit_timeout_ms: 10_000,
        query_grant: workload.query_grant,
        plan_cache_cap: 256,
        learned_cap: 4096,
        parallel: ParallelConfig::serial().with_workers(nproc()),
        rule: JoinAlgorithmRule::default(),
    }
}

/// The loaded data plus everything needed to start servers over it.
pub struct Fixture {
    pub workload: &'static Workload,
    pub catalog: Catalog,
    /// Seconds `BenchmarkEnv::load` took.
    pub load_s: f64,
}

impl Fixture {
    pub fn load(workload: &'static Workload) -> Self {
        let started = Instant::now();
        let env = BenchmarkEnv::load(
            ScaleFactor::gb(workload.scale_gb),
            PARTITIONS,
            false,
            DATA_SEED,
        )
        .expect("generate the benchmark data");
        Self {
            workload,
            catalog: env.catalog,
            load_s: started.elapsed().as_secs_f64(),
        }
    }

    pub fn start_server(&self) -> ServerHandle {
        SqlServer::start(
            self.catalog.clone(),
            paper_udfs(),
            q50_params(9, 2000),
            server_config(self.workload),
        )
        .expect("start rdo-server on loopback")
    }

    pub fn compile(&self, sql: &str, name: &str) -> BoundQuery {
        compile(
            sql,
            name,
            &self.catalog,
            &paper_udfs(),
            &q50_params(9, 2000),
        )
        .unwrap_or_else(|e| panic!("generated SQL does not compile: {e}\n{sql}"))
    }
}

/// Digest of a result. Plans differ between the server's dynamic runs, its
/// warm static runs and the reference, and a join order fixes the row order,
/// so rows are hashed as a multiset — except under ORDER BY, where the order
/// is part of the answer.
pub fn digest(sql: &str, result: &Relation) -> u64 {
    let row_hash = |row: &Tuple, hasher: &mut DefaultHasher| {
        for value in row.values() {
            value.hash(hasher);
        }
    };
    let mut hasher = DefaultHasher::new();
    result.schema().fields().len().hash(&mut hasher);
    result.len().hash(&mut hasher);
    if sql.contains("ORDER BY") {
        for row in result.rows() {
            row_hash(row, &mut hasher);
        }
    } else {
        let mut sum = 0u64;
        for row in result.rows() {
            let mut one = DefaultHasher::new();
            row_hash(row, &mut one);
            sum = sum.wrapping_add(one.finish());
        }
        sum.hash(&mut hasher);
    }
    hasher.finish()
}

/// Reference results, one digest per distinct SQL text, computed without the
/// server, the dynamic driver or the worker pool: compile, run the static
/// cost-based plan serially, apply the post-join stage.
pub struct Reference {
    catalog: Catalog,
    runner: QueryRunner,
    digests: HashMap<String, u64>,
}

impl Reference {
    pub fn new(fixture: &Fixture) -> Self {
        Self {
            catalog: fixture.catalog.clone(),
            runner: QueryRunner::new(
                CostModel::with_partitions(PARTITIONS),
                JoinAlgorithmRule::default(),
            )
            .with_parallel(ParallelConfig::serial())
            .with_tracing(false),
            digests: HashMap::new(),
        }
    }

    pub fn digest_of(&mut self, fixture: &Fixture, sql: &str) -> u64 {
        if let Some(known) = self.digests.get(sql) {
            return *known;
        }
        let bound = fixture.compile(sql, "reference");
        let report = self
            .runner
            .run(Strategy::CostBased, &bound.spec, &mut self.catalog)
            .expect("reference execution");
        let result = bound
            .post
            .apply(report.result)
            .expect("reference post-processing");
        let value = digest(sql, &result);
        self.digests.insert(sql.to_string(), value);
        value
    }
}

/// Everything the benchmark does before the first measured query, timed as
/// `setup_s`: load the data, start a server, compute the reference results
/// of the texts every run sends (the rest are checked after the window).
pub fn set_up(workload: &'static Workload, upfront: &[String]) -> (Fixture, Reference, f64) {
    let started = Instant::now();
    let fixture = Fixture::load(workload);
    drop(fixture.start_server());
    let mut reference = Reference::new(&fixture);
    for sql in upfront {
        reference.digest_of(&fixture, sql);
    }
    let setup_s = started.elapsed().as_secs_f64();
    (fixture, reference, setup_s)
}

/// The texts of a workload, indexable by [`Sample::text`]: the paper texts
/// first, then (for [`Shape::Mixed`]) the rest of the hot set and every
/// client's novel pool.
pub struct Texts {
    pub all: Vec<String>,
}

impl Texts {
    pub fn of(workload: &Workload) -> Self {
        let all = match workload.shape {
            Shape::ColdRounds | Shape::WarmRounds => {
                PAPER_SQL.iter().map(|s| s.to_string()).collect()
            }
            Shape::Mixed => {
                let mixed = MixedTexts::new(workload.clients);
                let mut all = mixed.hot;
                all.extend(mixed.novel.into_iter().flatten());
                all
            }
        };
        Self { all }
    }

    /// The texts whose references are computed during set-up.
    pub fn upfront(&self, workload: &Workload) -> &[String] {
        match workload.shape {
            Shape::ColdRounds | Shape::WarmRounds => &self.all,
            Shape::Mixed => &self.all[..HOT_TEXTS],
        }
    }

    pub fn index_of(pick: Pick, client: usize) -> usize {
        match pick {
            Pick::Hot(i) => i,
            Pick::Novel(i) => HOT_TEXTS + client * NOVEL_PER_CLIENT + i,
        }
    }
}

/// One answered query as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into [`Texts::all`]; below 4 it is a paper text.
    pub text: usize,
    /// `Client::query` send to `ResultEnd` decoded.
    pub latency_ms: f64,
    pub digest: u64,
    pub result_rows: u64,
    pub cache_hit: bool,
    pub reopt_points: u32,
    pub planner_invocations: u32,
    pub plan: String,
    pub learned_hits: u64,
    pub learned_misses: u64,
}

/// The samples of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    /// Queries that came back as an error frame or a broken connection.
    pub errors: u64,
    /// Wall time the clients spent inside the window, server restarts
    /// excluded.
    pub busy_s: f64,
}

impl Window {
    /// Adds another window's samples and errors (not its clock).
    pub fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.errors += other.errors;
    }
}

/// When a measured window ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// The untraced run: keep going until the clock says so.
    After(Duration),
    /// The traced run's server pass: a fixed count (rounds, or queries per
    /// client), so its exact counters repeat exactly.
    Count(u64),
}

impl Stop {
    fn reached(self, started: Instant, done: u64) -> bool {
        match self {
            Stop::After(limit) => started.elapsed() >= limit,
            Stop::Count(n) => done >= n,
        }
    }
}

fn timed_query(client: &mut Client, texts: &Texts, text: usize, into: &mut Window) {
    let sql = &texts.all[text];
    let sent = Instant::now();
    match client.query(sql) {
        Ok(response) => {
            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
            let summary = response.summary;
            into.samples.push(Sample {
                text,
                latency_ms,
                digest: digest(sql, &response.result),
                result_rows: summary.rows,
                cache_hit: summary.plan_cache_hit,
                reopt_points: summary.reopt_points,
                planner_invocations: summary.planner_invocations,
                plan: summary.plan,
                learned_hits: summary.learned_hits,
                learned_misses: summary.learned_misses,
            });
        }
        Err(e) => {
            eprintln!("query failed: {e}");
            into.errors += 1;
        }
    }
}

fn connect(server: &ServerHandle) -> Client {
    Client::connect(&server.addr()).expect("connect to the loopback server")
}

/// Rounds of the four paper texts, each on a fresh server, starting at round
/// number `first_round` of the seed's sequence. Only the queries are on the
/// clock.
pub fn cold_rounds(
    fixture: &Fixture,
    texts: &Texts,
    seed: u64,
    first_round: u64,
    stop: Stop,
) -> Window {
    let mut window = Window::default();
    let started = Instant::now();
    let mut round = 0;
    while !stop.reached(started, round) {
        let server = fixture.start_server();
        let mut client = connect(&server);
        let one = rounds_on(
            &mut client,
            texts,
            seed,
            first_round + round,
            Stop::Count(1),
        );
        window.busy_s += one.busy_s;
        window.absorb(one);
        round += 1;
    }
    window
}

/// Rounds of the four paper texts on one connection to one server: cold the
/// first time the server sees a text, plan-cache hits from then on.
pub fn rounds_on(
    client: &mut Client,
    texts: &Texts,
    seed: u64,
    first_round: u64,
    stop: Stop,
) -> Window {
    let mut window = Window::default();
    let started = Instant::now();
    let mut round = 0;
    while !stop.reached(started, round) {
        for text in round_order(seed, first_round + round) {
            timed_query(client, texts, text, &mut window);
        }
        round += 1;
    }
    window.busy_s = started.elapsed().as_secs_f64();
    window
}

/// Queries each [`Shape::Mixed`] client sends before the window opens, so
/// connections, allocator and plan cache are in their steady state.
pub const MIXED_WARMUP_QUERIES: usize = 100;

/// Sends every hot text once, so the plan cache and learned catalog hold
/// them. Returns the (cold) samples.
pub fn prewarm_hot(server: &ServerHandle, texts: &Texts) -> Window {
    let mut window = Window::default();
    let mut client = connect(server);
    for text in 0..HOT_TEXTS {
        timed_query(&mut client, texts, text, &mut window);
    }
    window
}

/// Concurrent closed-loop clients against one pre-warmed server, each
/// walking its own seeded sequence. The window opens for all clients at once
/// and closes when the last one finishes.
pub fn mixed_clients(
    server: &ServerHandle,
    workload: &Workload,
    texts: &Texts,
    seed: u64,
    stop: Stop,
) -> Window {
    let clients = workload.clients.min(nproc()).max(1);
    let gate = Barrier::new(clients);
    let per_client: Vec<(Window, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let gate = &gate;
                scope.spawn(move || {
                    let mut client = connect(server);
                    let mut sequence = MixedSequence::new(seed, c);
                    let mut warmup = Window::default();
                    for pick in sequence.by_ref().take(MIXED_WARMUP_QUERIES) {
                        timed_query(&mut client, texts, Texts::index_of(pick, c), &mut warmup);
                    }
                    let mut window = Window::default();
                    gate.wait();
                    let started = Instant::now();
                    let mut sent = 0;
                    while !stop.reached(started, sent) {
                        let pick = sequence.next().expect("the sequence is endless");
                        timed_query(&mut client, texts, Texts::index_of(pick, c), &mut window);
                        sent += 1;
                    }
                    (window, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window::default();
    for (client_window, elapsed_s) in per_client {
        window.busy_s = window.busy_s.max(elapsed_s);
        window.absorb(client_window);
    }
    window
}

/// Unmeasured rounds before a round-based window: page faults, allocator
/// growth and (for [`Shape::WarmRounds`]) the plan cache settle here.
pub const WARMUP_ROUNDS: u64 = 3;

/// The untraced measured window of a workload, warm-up included.
pub fn measured_window(fixture: &Fixture, texts: &Texts, seed: u64, stop: Stop) -> Window {
    match fixture.workload.shape {
        Shape::ColdRounds => {
            cold_rounds(fixture, texts, seed, 0, Stop::Count(WARMUP_ROUNDS));
            cold_rounds(fixture, texts, seed, WARMUP_ROUNDS, stop)
        }
        Shape::WarmRounds => {
            let server = fixture.start_server();
            let mut client = connect(&server);
            rounds_on(&mut client, texts, seed, 0, Stop::Count(WARMUP_ROUNDS));
            rounds_on(&mut client, texts, seed, WARMUP_ROUNDS, stop)
        }
        Shape::Mixed => {
            let server = fixture.start_server();
            prewarm_hot(&server, texts);
            mixed_clients(&server, fixture.workload, texts, seed, stop)
        }
    }
}

/// Checks every sample against the reference. Returns how many failed:
/// error frames plus digests that differ from the reference of their text.
pub fn count_failures(
    fixture: &Fixture,
    reference: &mut Reference,
    texts: &Texts,
    window: &Window,
) -> u64 {
    let mut wrong = 0;
    let mut reported = std::collections::BTreeSet::new();
    for sample in &window.samples {
        let expected = reference.digest_of(fixture, &texts.all[sample.text]);
        if sample.digest != expected {
            wrong += 1;
            if reported.insert(sample.text) {
                eprintln!(
                    "WRONG RESULT for text {} ({} rows): digest {:016x}, reference {:016x}\n{}",
                    sample.text,
                    sample.result_rows,
                    sample.digest,
                    expected,
                    texts.all[sample.text]
                );
            }
        }
    }
    window.errors + wrong
}

/// A reported number: value, unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// What one run reports: the `attempted` / `failed` counts and metrics of its
/// result line, plus extra fields for the suite's `detail` line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub reported: Vec<Reported>,
    pub details: Vec<(&'static str, Json)>,
}

/// The end-to-end metrics of a window, in [`crate::metrics::END_TO_END`]
/// order. `ok` is how many responses passed verification; `setups` are the
/// repeated set-up times.
pub fn end_to_end_metrics(window: &Window, ok: u64, setups: &[f64]) -> Vec<Reported> {
    let latencies: Vec<f64> = window.samples.iter().map(|s| s.latency_ms).collect();
    let n = latencies.len();
    let mut out = vec![
        Reported {
            name: "setup_s".into(),
            value: median(setups),
            unit: "s",
            n: setups.len(),
        },
        Reported {
            name: "queries_per_s".into(),
            value: ok as f64 / window.busy_s,
            unit: "1/s",
            n,
        },
    ];
    for (name, p) in [
        ("latency_p50_ms", 0.50),
        ("latency_p90_ms", 0.90),
        ("latency_p99_ms", 0.99),
    ] {
        out.push(Reported {
            name: name.into(),
            value: percentile(&latencies, p),
            unit: "ms",
            n,
        });
    }
    for (paper, name) in PAPER_NAMES.iter().enumerate() {
        let of_text: Vec<f64> = window
            .samples
            .iter()
            .filter(|s| s.text == paper)
            .map(|s| s.latency_ms)
            .collect();
        out.push(Reported {
            name: format!("{name}_p50_ms"),
            value: median(&of_text),
            unit: "ms",
            n: of_text.len(),
        });
    }
    out
}
