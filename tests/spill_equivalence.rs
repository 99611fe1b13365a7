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

/// Spill pages store fewer bytes than the rows they hold: on every
/// evaluation query the LZ-framed pages, written and read, come in below
/// their logical row-codec volume, while results, plans and every non-spill
/// counter equal the in-memory run.
#[test]
fn stored_pages_are_smaller_than_logical_bytes_and_match_in_memory() {
    let env = env();
    let run = |query: &QuerySpec, spill: SpillConfig| {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(2))
            .with_spill(spill);
        DynamicDriver::new(config)
            .execute(query, &mut catalog)
            .expect("execution")
    };
    for query in all_queries() {
        let memory = run(&query, SpillConfig::disabled());
        let spilled = run(&query, SpillConfig::disabled().with_budget(TINY_BUDGET));
        assert_eq!(spilled.result, memory.result, "{}", query.name);
        assert_eq!(spilled.stage_plans, memory.stage_plans, "{}", query.name);
        assert_eq!(
            scrub_spill(spilled.total),
            scrub_spill(memory.total),
            "{}",
            query.name
        );
        let m = &spilled.total;
        assert!(
            m.spill_bytes_written > 0
                && m.spill_bytes_written < m.spill_logical_bytes_written
                && m.spill_bytes_read < m.spill_logical_bytes_read,
            "{}: stored pages must be smaller than their rows: {m:?}",
            query.name
        );
    }
}

/// An intermediate reaches the paged store as batches (the Sink hands over
/// what the operators produced; the page writer streams each batch's rows)
/// or as a relation of tuples (`register_intermediate`, the row edge): either
/// way the same pages are written — page count, stored and logical bytes —
/// and a scan reads back the same rows.
#[test]
fn batches_and_rows_spill_to_the_same_pages() {
    let env = env();
    let tracked = vec!["l_partkey".to_string()];
    let spill = SpillConfig::disabled().with_budget(TINY_BUDGET);
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
    let outcome = runtime_dynamic_optimization::exec::materialize(
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
        )
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
