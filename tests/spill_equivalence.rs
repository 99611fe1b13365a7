//! Disk-backed materialization is an *optimization*, never a semantic change:
//! with the spill budget forced below the working-set size, every evaluation
//! query (Q8, Q9, Q17, Q50) must produce bit-identical results, plans and
//! row-count metrics to the in-memory store at every worker count, while the
//! spilled-bytes / page-I/O counters prove the run actually went out-of-core —
//! and every spill file must be gone once the run's temporaries are dropped.

use runtime_dynamic_optimization::prelude::*;

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation")
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A budget far below any materialized intermediate of the evaluation queries,
/// so every re-optimization point writes its intermediate to the paged store.
const TINY_BUDGET: u64 = 1;

fn scrub_spill(mut m: ExecutionMetrics) -> ExecutionMetrics {
    m.spill_pages_written = 0;
    m.spill_bytes_written = 0;
    m.spill_pages_read = 0;
    m.spill_bytes_read = 0;
    m.spill_logical_bytes_written = 0;
    m.spill_logical_bytes_read = 0;
    m
}

/// The core guarantee: for all four evaluation queries and workers 1/2/4/8,
/// the out-of-core dynamic driver matches the in-memory reference bit for bit
/// (result relation, stage plans and every non-spill metric counter), reports
/// nonzero spill counters, and leaves the spill directory empty.
#[test]
fn spilled_runs_match_in_memory_runs_on_all_evaluation_queries() {
    let env = env();
    for query in all_queries() {
        let reference = {
            let mut catalog = env.catalog.clone();
            let config = DynamicConfig::default()
                .with_parallel(ParallelConfig::serial())
                .with_spill(SpillConfig::disabled());
            DynamicDriver::new(config)
                .execute(&query, &mut catalog)
                .expect("in-memory execution")
        };
        for workers in WORKER_COUNTS {
            let mut catalog = env.catalog.clone();
            let config = DynamicConfig::default()
                .with_parallel(ParallelConfig::serial().with_workers(workers))
                .with_spill(SpillConfig::disabled().with_budget(TINY_BUDGET));
            let outcome = DynamicDriver::new(config)
                .execute(&query, &mut catalog)
                .expect("out-of-core execution");

            assert_eq!(
                outcome.result, reference.result,
                "{}: result diverged at workers={workers}",
                query.name
            );
            assert_eq!(
                outcome.stage_plans, reference.stage_plans,
                "{}: plan choice diverged at workers={workers}",
                query.name
            );
            assert_eq!(
                scrub_spill(outcome.total),
                scrub_spill(reference.total),
                "{}: non-spill metrics diverged at workers={workers}",
                query.name
            );
            assert_eq!(
                reference.total.spill_bytes_written, 0,
                "reference run must stay in memory"
            );
            assert!(
                outcome.total.spill_bytes_written > 0
                    && outcome.total.spill_pages_written > 0
                    && outcome.total.spill_bytes_read > 0
                    && outcome.total.spill_pages_read > 0,
                "{}: run must go out-of-core at workers={workers}: {:?}",
                query.name,
                outcome.total
            );
            // Every temporary table was dropped, so its spill file is gone.
            let dir = catalog.spill_dir().expect("spill was configured");
            assert_eq!(
                std::fs::read_dir(&dir).expect("spill dir readable").count(),
                0,
                "{}: spill dir not empty after the run at workers={workers}",
                query.name
            );
            drop(catalog);
            assert!(
                !dir.exists(),
                "{}: spill dir must vanish with the catalog",
                query.name
            );
        }
    }
}

/// Spill counters are deterministic: the same query at different worker counts
/// reports identical spilled-bytes and page-I/O totals.
#[test]
fn spill_counters_are_worker_count_invariant() {
    let env = env();
    let query = q9();
    let mut reference: Option<ExecutionMetrics> = None;
    for workers in WORKER_COUNTS {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(workers))
            .with_spill(SpillConfig::disabled().with_budget(TINY_BUDGET));
        let outcome = DynamicDriver::new(config)
            .execute(&query, &mut catalog)
            .expect("out-of-core execution");
        match &reference {
            None => reference = Some(outcome.total),
            Some(expected) => assert_eq!(
                &outcome.total, expected,
                "metrics (including spill counters) diverged at workers={workers}"
            ),
        }
    }
}

/// The I/O fast-path knobs are physical-only: page compression and read-ahead
/// prefetch, in any combination, change neither results nor plans nor any
/// logical metric — only the *stored* spill byte counters shrink when
/// compression is on, and by a real margin.
#[test]
fn compression_and_prefetch_axes_are_bit_identical() {
    let env = env();
    let run = |query: &QuerySpec, compress: bool, prefetch: usize| {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(2))
            .with_spill(
                SpillConfig::disabled()
                    .with_budget(TINY_BUDGET)
                    .with_compression(compress)
                    .with_prefetch_pages(prefetch)
                    // Row layout pinned: the flag-byte identity asserted at
                    // the end is a row-codec property. The columnar axis has
                    // its own test below.
                    .with_columnar(false),
            );
        DynamicDriver::new(config)
            .execute(query, &mut catalog)
            .expect("out-of-core execution")
    };

    // Compression reduces the measured spill volume on every evaluation
    // query, and the answer never moves.
    for query in all_queries() {
        let raw = run(&query, false, 0);
        let packed = run(&query, true, 0);
        assert_eq!(packed.result, raw.result, "{}", query.name);
        assert_eq!(packed.stage_plans, raw.stage_plans, "{}", query.name);
        assert!(
            packed.total.spill_bytes_written < raw.total.spill_bytes_written
                && packed.total.spill_bytes_read < raw.total.spill_bytes_read,
            "{}: compressed pages must reduce spill_bytes_written: {} vs {}",
            query.name,
            packed.total.spill_bytes_written,
            raw.total.spill_bytes_written
        );
        assert_eq!(
            packed.total.spill_logical_bytes_written, raw.total.spill_logical_bytes_written,
            "{}: the logical volume is compression-invariant",
            query.name
        );
    }

    // The full knob matrix on one query: everything but stored bytes is
    // bit-identical.
    let query = q17();
    let run = |compress: bool, prefetch: usize| run(&query, compress, prefetch);
    let raw = run(false, 0);
    assert!(raw.total.spill_bytes_written > 0);
    for (compress, prefetch) in [(false, 4), (true, 0), (true, 4)] {
        let outcome = run(compress, prefetch);
        assert_eq!(
            outcome.result, raw.result,
            "result diverged at compress={compress} prefetch={prefetch}"
        );
        assert_eq!(outcome.stage_plans, raw.stage_plans);
        // Everything but the stored byte counters must match the raw run —
        // including the logical spill volumes, which compression never moves.
        let mut scrubbed = outcome.total;
        scrubbed.spill_bytes_written = raw.total.spill_bytes_written;
        scrubbed.spill_bytes_read = raw.total.spill_bytes_read;
        assert_eq!(
            scrubbed, raw.total,
            "only stored bytes may differ at compress={compress} prefetch={prefetch}"
        );
        if compress {
            assert!(
                outcome.total.spill_bytes_written < raw.total.spill_bytes_written
                    && outcome.total.spill_bytes_read < raw.total.spill_bytes_read,
                "compressed pages reduce the measured spill I/O: {:?} vs {:?}",
                outcome.total.spill_bytes_written,
                raw.total.spill_bytes_written
            );
        } else {
            assert_eq!(
                outcome.total.spill_bytes_written,
                raw.total.spill_bytes_written
            );
        }
    }
    // Raw pages cost exactly one frame-flag byte each over the row encoding.
    assert_eq!(
        raw.total.spill_bytes_written,
        raw.total.spill_logical_bytes_written + raw.total.spill_pages_written
    );
}

/// The page-layout knob is physical-only: columnar spill pages change
/// neither results nor plans nor any logical metric — page counts, logical
/// byte volumes and peak-transient figures are decided by the row codec's
/// size accounting in both layouts — while the compressed columnar pages
/// never store more than the compressed row pages on any evaluation query.
#[test]
fn columnar_pages_are_bit_identical_and_never_larger() {
    let env = env();
    let run = |query: &QuerySpec, columnar: bool| {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(2))
            .with_spill(
                SpillConfig::disabled()
                    .with_budget(TINY_BUDGET)
                    .with_compression(true)
                    .with_columnar(columnar),
            );
        DynamicDriver::new(config)
            .execute(query, &mut catalog)
            .expect("out-of-core execution")
    };
    for query in all_queries() {
        let row = run(&query, false);
        let col = run(&query, true);
        assert_eq!(col.result, row.result, "{}", query.name);
        assert_eq!(col.stage_plans, row.stage_plans, "{}", query.name);
        // Everything but the stored byte counters is layout-invariant —
        // including page counts and the logical spill volumes.
        let mut scrubbed = col.total;
        scrubbed.spill_bytes_written = row.total.spill_bytes_written;
        scrubbed.spill_bytes_read = row.total.spill_bytes_read;
        assert_eq!(
            scrubbed, row.total,
            "{}: only stored bytes may differ between layouts",
            query.name
        );
        assert!(
            col.total.spill_bytes_written <= row.total.spill_bytes_written
                && col.total.spill_bytes_read <= row.total.spill_bytes_read,
            "{}: columnar pages must not compress worse: {} vs {}",
            query.name,
            col.total.spill_bytes_written,
            row.total.spill_bytes_written
        );
        assert!(
            col.total.spill_bytes_written > 0,
            "{}: the columnar run still went out-of-core",
            query.name
        );
    }
}

/// An intermediate reaches the paged store as batches (the Sink hands over
/// what the operators produced; the page writer streams each batch's rows)
/// or as a relation of tuples (`register_intermediate`, the row edge): either
/// way the same pages are written — page count, stored and logical bytes —
/// and a scan reads back the same rows, in both page layouts.
#[test]
fn batches_and_rows_spill_to_the_same_pages() {
    let env = env();
    let tracked = vec!["l_partkey".to_string()];
    for columnar_pages in [true, false] {
        let spill = SpillConfig::disabled()
            .with_budget(TINY_BUDGET)
            .with_columnar(columnar_pages);
        let scan = |catalog: &Catalog, table: &str| {
            let mut metrics = ExecutionMetrics::new();
            let data = ParallelExecutor::new(catalog, ParallelConfig::serial())
                .execute(&PhysicalPlan::scan(table), &mut metrics)
                .expect("scan");
            (data, metrics)
        };

        let mut by_batches = env.catalog.clone();
        by_batches.configure_spill(spill).expect("spill config");
        let (data, _) = scan(&by_batches, "lineitem");
        let mut sink = ExecutionMetrics::new();
        let outcome = runtime_dynamic_optimization::parallel::materialize(
            &WorkerPool::new(2),
            &mut by_batches,
            "I_spill",
            &data,
            Some("l_partkey"),
            &tracked,
            true,
            &mut sink,
        )
        .expect("materialize");
        assert!(outcome.spilled && sink.spill_pages_written > 0);

        let mut by_rows = env.catalog.clone();
        by_rows.configure_spill(spill).expect("spill config");
        let stored = by_rows
            .register_intermediate("I_spill", data.gather(), Some("l_partkey"), &tracked, true)
            .expect("register rows");
        assert!(stored.spilled);
        assert_eq!(
            (
                sink.spill_pages_written,
                sink.spill_bytes_written,
                sink.spill_logical_bytes_written
            ),
            (
                stored.pages_written,
                stored.bytes_written,
                stored.logical_bytes_written
            ),
            "columnar_pages={columnar_pages}"
        );

        let (from_batches, batch_metrics) = scan(&by_batches, "I_spill");
        let (from_rows, row_metrics) = scan(&by_rows, "I_spill");
        assert_eq!(from_batches.to_rows(), from_rows.to_rows());
        assert_eq!(batch_metrics, row_metrics);
        assert_eq!(batch_metrics.spill_pages_read, sink.spill_pages_written);
        assert_eq!(
            from_batches.gather().sorted(),
            data.gather().sorted(),
            "nothing lost on the way through the pages"
        );
    }
}

/// The strategy runner's report surface also reflects the spill: simulated
/// cost of the out-of-core run exceeds the in-memory run by the measured I/O,
/// everything else equal.
#[test]
fn spilled_runs_cost_more_under_the_cost_model() {
    let env = env();
    let query = q17();
    let run = |spill: SpillConfig| {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial())
            .with_spill(spill);
        DynamicDriver::new(config)
            .execute(&query, &mut catalog)
            .expect("execution")
    };
    let memory = run(SpillConfig::disabled());
    let spilled = run(SpillConfig::disabled().with_budget(TINY_BUDGET));
    let model = CostModel::default();
    assert!(
        spilled.total.simulated_cost(&model) > memory.total.simulated_cost(&model),
        "measured spill I/O must surface in the simulated cost"
    );
    assert_eq!(
        spilled.result, memory.result,
        "the extra cost buys the same answer"
    );
}
