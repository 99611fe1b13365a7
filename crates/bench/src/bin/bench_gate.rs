//! The bench-regression gate.
//!
//! ```text
//! cargo run --release -p rdo-bench --bin bench_gate -- \
//!     [--out BENCH_pr.json] [--baseline crates/bench/BENCH_baseline.json] \
//!     [--max-regression 0.25] [--update-baseline]
//! ```
//!
//! Runs the micro-benchmarks (join algorithms, the grace/hybrid spillable
//! join, the dynamic driver on all four evaluation queries), writes the
//! results to `--out`, and fails (exit 1) when any benchmark's **simulated
//! cost** exceeds the checked-in baseline by more than `--max-regression`.
//!
//! The gated number is the deterministic simulated cluster cost (execution
//! counters × the cost model), not wall time: it is bit-identical on every
//! machine and worker count, so the gate cannot flake on shared CI runners,
//! while still catching real regressions — plan changes, extra shuffles,
//! needless spill I/O. Wall time is recorded alongside for trend analysis of
//! the uploaded artifacts but never gated.
//!
//! After an *intentional* cost change (a new operator, a cost-model
//! recalibration), refresh the baseline with `--update-baseline` and commit
//! the diff.

use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
use rdo_core::{DynamicConfig, DynamicDriver, ParallelConfig, ParallelExecutor};
use rdo_exec::partition::{
    hash_join_partition_chunked, hash_join_partition_rows, repartition_partition_chunked,
    repartition_partition_rows, scan_partition_chunked, scan_partition_rows,
};
use rdo_exec::{
    CmpOp, CostModel, ExecutionMetrics, JoinAlgorithm, PhysicalPlan, Predicate, DEFAULT_BATCH_SIZE,
};
use rdo_storage::{Catalog, IngestOptions, SpillConfig, Table};
use rdo_workloads::{all_queries, BenchmarkEnv, ScaleFactor};
use serde::Serialize;
use std::time::Instant;

/// One benchmark's record in the trajectory file.
#[derive(Debug, Clone, Serialize)]
struct BenchRecord {
    name: String,
    /// Simulated cluster cost — deterministic, the gated number.
    cost_units: f64,
    /// Wall-clock milliseconds — machine-dependent, recorded but never gated.
    wall_ms: f64,
    /// Result rows, as a sanity anchor for the cost.
    result_rows: u64,
    /// Largest estimate-vs-actual Q-error of the run's audit trail
    /// (dynamic cases only; 0 when the case records no audit).
    max_q_error: f64,
}

fn main() {
    let args = Args::parse();
    let records = run_benchmarks();

    let json = serde_json::to_string_pretty(&records).expect("serialize records");
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("wrote {} benchmarks to {}", records.len(), args.out);

    // Companion profile artifact: traced repetitions of the dynamic-driver
    // cases, written next to the trajectory file. Strictly after (and apart
    // from) the gated runs above, which stay untraced so the gated costs are
    // the exact seed code path.
    let profile_path = format!("{}.profile.txt", args.out.trim_end_matches(".json"));
    let profile = write_profile_artifact(&profile_path);
    std::fs::write(&profile_path, profile).unwrap_or_else(|e| panic!("write {profile_path}: {e}"));
    println!("wrote stage profiles to {profile_path}");

    if args.update_baseline {
        std::fs::write(&args.baseline, &json)
            .unwrap_or_else(|e| panic!("write {}: {e}", args.baseline));
        println!("baseline {} refreshed", args.baseline);
        return;
    }

    let baseline_json = std::fs::read_to_string(&args.baseline).unwrap_or_else(|e| {
        panic!(
            "baseline {} unreadable ({e}); seed it with --update-baseline",
            args.baseline
        )
    });
    let baseline = parse_records(&baseline_json)
        .unwrap_or_else(|e| panic!("baseline {} malformed: {e}", args.baseline));

    let mut failures = Vec::new();
    for base in &baseline {
        let Some(current) = records.iter().find(|r| r.name == base.name) else {
            failures.push(format!("{}: benchmark disappeared from the run", base.name));
            continue;
        };
        let allowed = base.cost_units * (1.0 + args.max_regression) + 1e-9;
        let delta = if base.cost_units > 0.0 {
            (current.cost_units - base.cost_units) / base.cost_units * 100.0
        } else {
            0.0
        };
        if current.cost_units > allowed {
            failures.push(format!(
                "{}: cost {:.1} vs baseline {:.1} ({:+.1}%, limit +{:.0}%)",
                base.name,
                current.cost_units,
                base.cost_units,
                delta,
                args.max_regression * 100.0
            ));
        } else {
            println!(
                "ok   {}: cost {:.1} vs baseline {:.1} ({:+.1}%)  wall {:.1} ms",
                base.name, current.cost_units, base.cost_units, delta, current.wall_ms
            );
        }
    }
    for record in &records {
        if !baseline.iter().any(|b| b.name == record.name) {
            println!(
                "new  {}: cost {:.1} (not in baseline yet; refresh with --update-baseline)",
                record.name, record.cost_units
            );
        }
    }

    if !failures.is_empty() {
        rdo_common::error!("bench regression gate FAILED:");
        for failure in &failures {
            rdo_common::error!("  {failure}");
        }
        std::process::exit(1);
    }
    println!(
        "bench regression gate passed ({} benchmarks)",
        baseline.len()
    );
}

// ---------------------------------------------------------------------------
// Benchmarks. Everything here is pinned — explicit configs, fixed seeds, no
// environment-variable influence — so the gated costs are reproducible on any
// machine.
// ---------------------------------------------------------------------------

fn run_benchmarks() -> Vec<BenchRecord> {
    let model = CostModel::with_partitions(8);
    let mut records = Vec::new();

    // Micro joins: the three algorithms on a key/foreign-key join.
    let catalog = join_catalog(50_000, 10_000);
    for (label, algorithm) in [
        ("join/hash", JoinAlgorithm::Hash),
        ("join/broadcast", JoinAlgorithm::Broadcast),
        ("join/inl", JoinAlgorithm::IndexedNestedLoop),
    ] {
        records.push(run_join(label, &catalog, algorithm, &model));
    }

    // The kernel pair: the same scan → repartition → join pipeline over the
    // micro-join data, once through the row-at-a-time reference kernels and
    // once through the columnar batch kernels (pinned to the default batch
    // size — no environment influence). The tallies, and therefore the gated
    // simulated costs, are bit-identical between the two; the wall times give
    // the row-vs-columnar comparison in the uploaded artifact.
    for (label, columnar) in [("kernel/row", false), ("kernel/columnar", true)] {
        records.push(run_kernel(label, &catalog, columnar, &model));
    }

    // The grace/hybrid spillable join: the same hash join with a build-side
    // budget far below the per-partition build size, so every partition
    // partitions through the spill store.
    let mut grace_catalog = join_catalog(50_000, 10_000);
    grace_catalog
        .configure_spill(SpillConfig::default().with_join_budget(4_096))
        .expect("configure join budget");
    records.push(run_join(
        "join/grace",
        &grace_catalog,
        JoinAlgorithm::Hash,
        &model,
    ));

    // The spill I/O path: one oversized intermediate through the paged store
    // (1-byte budget forces the spill) and a scan back. The gated cost is
    // the measured page I/O of the LZ-framed columnar pages.
    records.push(run_spill("spill/columnar", &model));

    // The at-rest storage cycle: an intermediate registered from rows (it
    // rests as batch runs), scanned and joined against a base dimension
    // table.
    records.push(run_storage("storage/columnar", &model));

    // The dynamic driver end to end on the four evaluation queries.
    let env = BenchmarkEnv::load(ScaleFactor::gb(2), 8, true, 42).expect("workload generation");
    for query in all_queries() {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial())
            .with_spill(SpillConfig::disabled());
        let start = Instant::now();
        let outcome = DynamicDriver::new(config)
            .execute(&query, &mut catalog)
            .expect("dynamic execution");
        records.push(BenchRecord {
            name: format!("dynamic/{}", query.name.to_lowercase()),
            cost_units: outcome.total.simulated_cost(&model),
            wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
            result_rows: outcome.result.len() as u64,
            max_q_error: outcome.audit.max_q_error(),
        });
    }

    records
}

/// Traced repetitions of the dynamic-driver cases: per stage of each query,
/// the p50/p90/p99 wall time across `REPS` runs, followed by one full span
/// tree (with its latency-histogram percentiles), the estimate-vs-actual
/// audit table, and the metrics exposition of the last repetition.
/// Diagnostics only — nothing here feeds the gate.
fn write_profile_artifact(path: &str) -> String {
    const REPS: usize = 5;
    let env = BenchmarkEnv::load(ScaleFactor::gb(2), 8, true, 42).expect("workload generation");
    let mut out = String::new();
    out.push_str(&format!(
        "# per-stage wall times over {REPS} traced repetitions (p50 / p90 / p99, ms)\n\
         # written by bench_gate next to {path}; not part of the gated costs\n"
    ));
    for query in all_queries() {
        // stage key -> wall seconds per repetition, in stage order.
        let mut stages: Vec<(String, Vec<f64>)> = Vec::new();
        let mut last_trace = None;
        let mut last_audit = None;
        for _ in 0..REPS {
            let trace = rdo_trace::TraceHandle::enabled();
            let mut catalog = env.catalog.clone();
            let config = DynamicConfig::default()
                .with_parallel(ParallelConfig::serial())
                .with_spill(SpillConfig::disabled())
                .with_trace(trace.clone());
            let outcome = DynamicDriver::new(config)
                .execute(&query, &mut catalog)
                .expect("traced dynamic execution");
            last_audit = Some(outcome.audit);
            for (key, seconds) in stage_walls(&trace) {
                match stages.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, walls)) => walls.push(seconds),
                    None => stages.push((key, vec![seconds])),
                }
            }
            last_trace = Some(trace);
        }
        out.push_str(&format!("\n== {} ==\n", query.name));
        for (key, walls) in &stages {
            let mut sorted = walls.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let p = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize] * 1_000.0;
            out.push_str(&format!(
                "{key:<40} p50 {:>9.3} ms   p90 {:>9.3} ms   p99 {:>9.3} ms\n",
                p(0.5),
                p(0.9),
                p(0.99)
            ));
        }
        if let Some(trace) = last_trace {
            let profile = trace.profile();
            out.push_str("\n--- span tree (last repetition) ---\n");
            out.push_str(&profile.render_tree());
            if let Some(audit) = last_audit {
                out.push_str("--- audit (last repetition) ---\n");
                out.push_str(&audit.render());
            }
            out.push_str("--- metrics ---\n");
            out.push_str(&profile.metrics_text());
        }
    }
    out
}

/// The top-level stages of one traced run: every child of `driver.execute`,
/// keyed by name plus its identifying attribute, with wall seconds.
fn stage_walls(trace: &rdo_trace::TraceHandle) -> Vec<(String, f64)> {
    let spans = trace.spans();
    let roots: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "driver.execute")
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| roots.contains(&s.parent))
        .map(|s| {
            let key = match s.attrs.first() {
                Some((k, v)) => format!("{} {}={}", s.name, k, v),
                None => s.name.clone(),
            };
            (key, s.duration_ns as f64 / 1e9)
        })
        .collect()
}

fn run_join(
    label: &str,
    catalog: &Catalog,
    algorithm: JoinAlgorithm,
    model: &CostModel,
) -> BenchRecord {
    let plan = PhysicalPlan::join(
        PhysicalPlan::scan("fact"),
        PhysicalPlan::scan("dim"),
        FieldRef::new("fact", "f_dim"),
        FieldRef::new("dim", "d_id"),
        algorithm,
    );
    let executor = ParallelExecutor::new(catalog, ParallelConfig::serial());
    let mut metrics = ExecutionMetrics::new();
    let start = Instant::now();
    let data = executor
        .execute(&plan, &mut metrics)
        .expect("join execution");
    BenchRecord {
        name: label.to_string(),
        cost_units: metrics.simulated_cost(model),
        wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
        result_rows: data.row_count() as u64,
        max_q_error: 0.0,
    }
}

/// One scan → repartition → hash-join pass over the micro-join catalog,
/// driven directly through the partition kernels: the filtered fact rows are
/// shuffled on the join key, then each target partition probes the matching
/// dim partition. `columnar` selects the batch kernels (at the pinned default
/// batch size) vs the row-at-a-time reference kernels; both populate the
/// metrics from the same tallies, so their simulated costs must coincide.
fn run_kernel(label: &str, catalog: &Catalog, columnar: bool, model: &CostModel) -> BenchRecord {
    let fact = catalog.table("fact").expect("fact table");
    let dim = catalog.table("dim").expect("dim table");
    let predicates = [Predicate::compare(
        FieldRef::new("fact", "f_dim"),
        CmpOp::Lt,
        Value::Int64(5_000),
    )];
    let key_index = 1; // f_dim
    let num_partitions = catalog.num_partitions();

    // Both kernel families take rows here; materialize them outside the
    // timed region.
    let rows_of = |table: &Table| -> Vec<Vec<Tuple>> {
        (0..table.num_partitions())
            .map(|p| table.partition_to_vec(p).expect("resident base table"))
            .collect()
    };
    let (fact_rows, dim_rows) = (rows_of(fact), rows_of(dim));

    let mut metrics = ExecutionMetrics::new();
    let start = Instant::now();
    let mut shuffled: Vec<Vec<Tuple>> = vec![Vec::new(); num_partitions];
    for (p, rows) in fact_rows.iter().enumerate() {
        let (kept, scan) = if columnar {
            scan_partition_chunked(fact.schema(), &predicates, None, rows, DEFAULT_BATCH_SIZE)
        } else {
            scan_partition_rows(fact.schema(), &predicates, None, rows)
        }
        .expect("kernel scan");
        metrics.rows_scanned += scan.scanned_rows;
        metrics.bytes_scanned += scan.scanned_bytes;
        let (buckets, moved_rows, moved_bytes) = if columnar {
            repartition_partition_chunked(&kept, key_index, p, num_partitions, DEFAULT_BATCH_SIZE)
        } else {
            repartition_partition_rows(&kept, key_index, p, num_partitions)
        };
        metrics.rows_shuffled += moved_rows;
        metrics.bytes_shuffled += moved_bytes;
        for (bucket, out) in buckets.into_iter().zip(shuffled.iter_mut()) {
            out.extend(bucket);
        }
    }
    let mut result_rows = 0u64;
    for (p, probe_rows) in shuffled.iter().enumerate() {
        let (joined, tally) = if columnar {
            hash_join_partition_chunked(
                probe_rows,
                &dim_rows[p],
                &[key_index],
                &[0],
                DEFAULT_BATCH_SIZE,
            )
        } else {
            hash_join_partition_rows(probe_rows, &dim_rows[p], &[key_index], &[0])
        };
        metrics.build_rows += tally.build_rows;
        metrics.probe_rows += tally.probe_rows;
        metrics.output_rows += tally.output_rows;
        result_rows += joined.len() as u64;
    }
    BenchRecord {
        name: label.to_string(),
        cost_units: metrics.simulated_cost(model),
        wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
        result_rows,
        max_q_error: 0.0,
    }
}

fn run_spill(label: &str, model: &CostModel) -> BenchRecord {
    let mut catalog = Catalog::new(8);
    catalog
        .configure_spill(SpillConfig::default().with_budget(1))
        .expect("configure spill budget");
    let schema = Schema::for_dataset(
        "temp",
        &[
            ("k", DataType::Int64),
            ("payload", DataType::Utf8),
            ("v", DataType::Float64),
        ],
    );
    let rows: Vec<Tuple> = (0..40_000)
        .map(|i| {
            Tuple::new(vec![
                Value::Int64(i),
                Value::Utf8(format!("payload-{:06}", i % 1_000)),
                Value::Float64(i as f64 / 7.0),
            ])
        })
        .collect();
    let relation = Relation::new(schema, rows).expect("temp relation");

    let mut metrics = ExecutionMetrics::new();
    let start = Instant::now();
    let stored = catalog
        .register_intermediate("temp", relation, Some("k"), &[], false)
        .expect("register intermediate");
    assert!(stored.spilled, "the 1-byte budget must spill");
    metrics.spill_pages_written += stored.pages_written;
    metrics.spill_bytes_written += stored.bytes_written;
    metrics.spill_logical_bytes_written += stored.logical_bytes_written;
    let data = ParallelExecutor::new(&catalog, ParallelConfig::serial())
        .execute(&PhysicalPlan::scan("temp"), &mut metrics)
        .expect("scan spilled intermediate");
    BenchRecord {
        name: label.to_string(),
        cost_units: metrics.simulated_cost(model),
        wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
        result_rows: data.row_count() as u64,
        max_q_error: 0.0,
    }
}

/// The at-rest cycle: registers a fact-shaped intermediate from rows (it
/// rests as batch runs), then runs a hash join of the intermediate against a
/// base dimension table. Registration and join both sit inside the timed
/// region, so the wall time is the full write-then-consume cycle.
fn run_storage(label: &str, model: &CostModel) -> BenchRecord {
    let mut catalog = Catalog::new(8);
    let dim_schema = Schema::for_dataset(
        "dim",
        &[("d_id", DataType::Int64), ("d_val", DataType::Int64)],
    );
    let dim: Vec<Tuple> = (0..10_000)
        .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 17)]))
        .collect();
    catalog
        .ingest(
            "dim",
            Relation::new(dim_schema, dim).expect("dim relation"),
            IngestOptions::partitioned_on("d_id"),
        )
        .expect("ingest dim");
    let temp_schema = Schema::for_dataset(
        "temp",
        &[
            ("t_id", DataType::Int64),
            ("t_dim", DataType::Int64),
            ("t_tag", DataType::Utf8),
        ],
    );
    let temp: Vec<Tuple> = (0..50_000)
        .map(|i| {
            Tuple::new(vec![
                Value::Int64(i),
                Value::Int64(i % 10_000),
                Value::Utf8(format!("tag-{:04}", i % 500)),
            ])
        })
        .collect();
    let relation = Relation::new(temp_schema, temp).expect("temp relation");

    let mut metrics = ExecutionMetrics::new();
    let start = Instant::now();
    let stored = catalog
        .register_intermediate("temp", relation, Some("t_dim"), &[], false)
        .expect("register intermediate");
    assert!(!stored.spilled, "no budget was configured");
    let plan = PhysicalPlan::join(
        PhysicalPlan::scan("temp"),
        PhysicalPlan::scan("dim"),
        FieldRef::new("temp", "t_dim"),
        FieldRef::new("dim", "d_id"),
        JoinAlgorithm::Hash,
    );
    let data = ParallelExecutor::new(&catalog, ParallelConfig::serial())
        .execute(&plan, &mut metrics)
        .expect("join over the intermediate");
    BenchRecord {
        name: label.to_string(),
        cost_units: metrics.simulated_cost(model),
        wall_ms: start.elapsed().as_secs_f64() * 1_000.0,
        result_rows: data.row_count() as u64,
        max_q_error: 0.0,
    }
}

fn join_catalog(fact_rows: i64, dim_rows: i64) -> Catalog {
    let mut catalog = Catalog::new(8);
    let fact_schema = Schema::for_dataset(
        "fact",
        &[("f_id", DataType::Int64), ("f_dim", DataType::Int64)],
    );
    let fact: Vec<Tuple> = (0..fact_rows)
        .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % dim_rows)]))
        .collect();
    catalog
        .ingest(
            "fact",
            Relation::new(fact_schema, fact).expect("fact relation"),
            IngestOptions::partitioned_on("f_id").with_index("f_dim"),
        )
        .expect("ingest fact");
    let dim_schema = Schema::for_dataset(
        "dim",
        &[("d_id", DataType::Int64), ("d_val", DataType::Int64)],
    );
    let dim: Vec<Tuple> = (0..dim_rows)
        .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 17)]))
        .collect();
    catalog
        .ingest(
            "dim",
            Relation::new(dim_schema, dim).expect("dim relation"),
            IngestOptions::partitioned_on("d_id"),
        )
        .expect("ingest dim");
    catalog
}

// ---------------------------------------------------------------------------
// CLI and baseline parsing. The offline serde_json shim only serializes, so
// the gate carries a minimal reader for the exact shape it writes: an array
// of flat objects with string keys and string/number values.
// ---------------------------------------------------------------------------

struct Args {
    out: String,
    baseline: String,
    max_regression: f64,
    update_baseline: bool,
}

impl Args {
    fn parse() -> Self {
        let mut args = Self {
            out: "BENCH_pr.json".to_string(),
            baseline: "crates/bench/BENCH_baseline.json".to_string(),
            max_regression: 0.25,
            update_baseline: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--out" => {
                    i += 1;
                    args.out = argv.get(i).expect("--out requires a path").clone();
                }
                "--baseline" => {
                    i += 1;
                    args.baseline = argv.get(i).expect("--baseline requires a path").clone();
                }
                "--max-regression" => {
                    i += 1;
                    args.max_regression = argv
                        .get(i)
                        .expect("--max-regression requires a fraction")
                        .parse()
                        .expect("fraction like 0.25");
                }
                "--update-baseline" => args.update_baseline = true,
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        args
    }
}

fn parse_records(json: &str) -> Result<Vec<BenchRecord>, String> {
    let mut parser = Parser {
        bytes: json.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    parser.expect(b'[')?;
    let mut records = Vec::new();
    parser.skip_ws();
    if parser.peek() == Some(b']') {
        return Ok(records);
    }
    loop {
        records.push(parser.object()?);
        parser.skip_ws();
        match parser.next() {
            Some(b',') => parser.skip_ws(),
            Some(b']') => return Ok(records),
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, expected: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == expected => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", expected as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Accumulate raw UTF-8 bytes and decode once, so multi-byte
        // characters in benchmark names survive the roundtrip.
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.next() {
                Some(b'"') => return String::from_utf8(out).map_err(|e| format!("bad UTF-8: {e}")),
                Some(b'\\') => match self.next() {
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + digit;
                        }
                        let c = char::from_u32(code).ok_or("bad \\u code point")?;
                        out.extend_from_slice(c.to_string().as_bytes());
                    }
                    // \" \\ \/ and anything else: the character itself.
                    Some(c) => out.push(c),
                    None => return Err("unterminated escape".to_string()),
                },
                Some(c) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e| format!("bad number: {e}"))
    }

    /// One flat `{"name": ..., "cost_units": ..., ...}` object.
    fn object(&mut self) -> Result<BenchRecord, String> {
        self.expect(b'{')?;
        let mut record = BenchRecord {
            name: String::new(),
            cost_units: f64::NAN,
            wall_ms: 0.0,
            result_rows: 0,
            max_q_error: 0.0,
        };
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "name" => record.name = self.string()?,
                "cost_units" => record.cost_units = self.number()?,
                "wall_ms" => record.wall_ms = self.number()?,
                "result_rows" => record.result_rows = self.number()? as u64,
                "max_q_error" => record.max_q_error = self.number()?,
                other => return Err(format!("unknown key {other:?}")),
            }
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
        if record.name.is_empty() || record.cost_units.is_nan() {
            return Err("record missing name or cost_units".to_string());
        }
        Ok(record)
    }
}
