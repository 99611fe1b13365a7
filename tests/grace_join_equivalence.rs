//! The grace/hybrid hash join is an *optimization*, never a semantic change:
//! with the join budget forced below every build side, all four evaluation
//! queries (Q8, Q9, Q17, Q50) must produce bit-identical results, plans and
//! non-grace metrics to the in-memory join at every worker count, while the
//! grace counters prove the joins actually partitioned through the spill
//! store — and every grace partition file must be gone after the run.

use runtime_dynamic_optimization::prelude::*;

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation")
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A budget below any bucket's size, so every join partitions recursively all
/// the way to the bounded depth and the nested-loop fallback.
const TINY_JOIN_BUDGET: u64 = 1;

fn scrub_grace(mut m: ExecutionMetrics) -> ExecutionMetrics {
    m.grace_partitions_spilled = 0;
    m.grace_pages_written = 0;
    m.grace_bytes_written = 0;
    m.grace_pages_read = 0;
    m.grace_bytes_read = 0;
    m.grace_logical_bytes_written = 0;
    m.grace_logical_bytes_read = 0;
    m.grace_recursions = 0;
    m.grace_fallbacks = 0;
    m.grace_peak_transient_bytes = 0;
    m
}

/// The core guarantee: for all four evaluation queries and workers 1/2/4/8,
/// the grace-join dynamic driver matches the in-memory reference bit for bit
/// (result relation, stage plans and every non-grace metric counter), reports
/// nonzero grace counters including recursive partitioning, and leaves the
/// spill directory empty.
#[test]
fn grace_runs_match_in_memory_runs_on_all_evaluation_queries() {
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
                .with_spill(SpillConfig::disabled().with_join_budget(TINY_JOIN_BUDGET));
            let outcome = DynamicDriver::new(config)
                .execute(&query, &mut catalog)
                .expect("grace execution");

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
                scrub_grace(outcome.total),
                scrub_grace(reference.total),
                "{}: non-grace metrics diverged at workers={workers}",
                query.name
            );
            assert_eq!(
                reference.total.grace_bytes_written, 0,
                "reference run must stay in memory"
            );
            assert!(
                outcome.total.grace_partitions_spilled > 0
                    && outcome.total.grace_pages_written > 0
                    && outcome.total.grace_bytes_written > 0
                    && outcome.total.grace_pages_read > 0
                    && outcome.total.grace_bytes_read > 0,
                "{}: joins must go out-of-core at workers={workers}: {:?}",
                query.name,
                outcome.total
            );
            assert!(
                outcome.total.grace_recursions > 0,
                "{}: a 1-byte budget must force recursive partitioning: {:?}",
                query.name,
                outcome.total
            );
            // The streaming partitioner's transient footprint stays bounded
            // by the largest fanout tier × page size (plus one row of
            // overshoot per bucket buffer) — never the build side's size.
            let page = rdo_spill::DEFAULT_PAGE_SIZE as u64;
            assert!(
                outcome.total.grace_peak_transient_bytes > 0
                    && outcome.total.grace_peak_transient_bytes <= 16 * 2 * page,
                "{}: partitioner footprint out of bounds: {:?}",
                query.name,
                outcome.total
            );
            // Grace partition files live only inside a join call.
            let dir = catalog.spill_dir().expect("join budget was configured");
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

/// Grace counters are deterministic: the same query at different worker counts
/// reports identical spilled-bytes, page-I/O, recursion and fallback totals.
#[test]
fn grace_counters_are_worker_count_invariant() {
    let env = env();
    let query = q9();
    let mut reference: Option<ExecutionMetrics> = None;
    for workers in WORKER_COUNTS {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(workers))
            .with_spill(SpillConfig::disabled().with_join_budget(TINY_JOIN_BUDGET));
        let outcome = DynamicDriver::new(config)
            .execute(&query, &mut catalog)
            .expect("grace execution");
        match &reference {
            None => reference = Some(outcome.total),
            Some(expected) => assert_eq!(
                &outcome.total, expected,
                "metrics (including grace counters) diverged at workers={workers}"
            ),
        }
    }
}

/// A moderate budget exercises the *hybrid* path — some build buckets stay
/// resident, hash-join leaves handle in-budget buckets — and still matches
/// the in-memory run bit for bit.
#[test]
fn hybrid_budget_keeps_resident_buckets_and_matches() {
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
    let hybrid = run(SpillConfig::disabled().with_join_budget(256));
    assert_eq!(hybrid.result, memory.result);
    assert_eq!(hybrid.stage_plans, memory.stage_plans);
    assert_eq!(scrub_grace(hybrid.total), scrub_grace(memory.total));
    assert!(
        hybrid.total.grace_bytes_written > 0,
        "a 256-byte budget still spills the larger build sides: {:?}",
        hybrid.total
    );
    assert!(
        hybrid.total.grace_bytes_written
            < run(SpillConfig::disabled().with_join_budget(TINY_JOIN_BUDGET))
                .total
                .grace_bytes_written,
        "resident buckets reduce the spilled volume"
    );
}

/// The I/O fast-path knobs are physical-only: with page compression and
/// read-ahead prefetch in any combination, every grace run computes the same
/// answer, the same plans and the same logical metrics; only the *stored*
/// byte counters shrink when compression is on.
#[test]
fn compression_and_prefetch_axes_are_bit_identical() {
    let env = env();
    let query = q9();
    let run = |compress: bool, prefetch: usize| {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(2))
            .with_spill(
                SpillConfig::disabled()
                    .with_join_budget(TINY_JOIN_BUDGET)
                    .with_compression(compress)
                    .with_prefetch_pages(prefetch)
                    // Row layout pinned: the flag-byte identity asserted at
                    // the end is a row-codec property. The columnar axis has
                    // its own test below.
                    .with_columnar(false),
            );
        DynamicDriver::new(config)
            .execute(&query, &mut catalog)
            .expect("grace execution")
    };
    let raw = run(false, 0);
    for (compress, prefetch) in [(false, 4), (true, 0), (true, 4)] {
        let outcome = run(compress, prefetch);
        assert_eq!(
            outcome.result, raw.result,
            "result diverged at compress={compress} prefetch={prefetch}"
        );
        assert_eq!(outcome.stage_plans, raw.stage_plans);
        let mut scrubbed = outcome.total;
        scrubbed.grace_bytes_written = raw.total.grace_bytes_written;
        scrubbed.grace_bytes_read = raw.total.grace_bytes_read;
        assert_eq!(
            scrubbed, raw.total,
            "only stored bytes may differ at compress={compress} prefetch={prefetch}"
        );
        if compress {
            assert!(
                outcome.total.grace_bytes_written < raw.total.grace_bytes_written,
                "compression shrinks grace spill files: {} vs {}",
                outcome.total.grace_bytes_written,
                raw.total.grace_bytes_written
            );
        } else {
            assert_eq!(
                outcome.total.grace_bytes_written,
                raw.total.grace_bytes_written
            );
        }
    }
    // Raw pages cost exactly one frame-flag byte each over the row encoding.
    assert_eq!(
        raw.total.grace_bytes_written,
        raw.total.grace_logical_bytes_written + raw.total.grace_pages_written
    );
}

/// The page-layout knob is physical-only for grace partition files too:
/// columnar bucket pages change neither results nor plans nor any logical
/// grace counter (page counts, logical volumes, recursions, fallbacks and
/// the peak transient footprint all follow the row codec's size accounting),
/// while the compressed columnar pages never store more than the compressed
/// row pages on any evaluation query.
#[test]
fn columnar_pages_are_bit_identical_and_never_larger() {
    let env = env();
    let run = |query: &QuerySpec, columnar: bool| {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(2))
            .with_spill(
                SpillConfig::disabled()
                    .with_join_budget(TINY_JOIN_BUDGET)
                    .with_compression(true)
                    .with_columnar(columnar),
            );
        DynamicDriver::new(config)
            .execute(query, &mut catalog)
            .expect("grace execution")
    };
    for query in all_queries() {
        let row = run(&query, false);
        let col = run(&query, true);
        assert_eq!(col.result, row.result, "{}", query.name);
        assert_eq!(col.stage_plans, row.stage_plans, "{}", query.name);
        let mut scrubbed = col.total;
        scrubbed.grace_bytes_written = row.total.grace_bytes_written;
        scrubbed.grace_bytes_read = row.total.grace_bytes_read;
        assert_eq!(
            scrubbed, row.total,
            "{}: only stored bytes may differ between layouts",
            query.name
        );
        assert!(
            col.total.grace_bytes_written <= row.total.grace_bytes_written
                && col.total.grace_bytes_read <= row.total.grace_bytes_read,
            "{}: columnar bucket pages must not compress worse: {} vs {}",
            query.name,
            col.total.grace_bytes_written,
            row.total.grace_bytes_written
        );
        assert!(
            col.total.grace_bytes_written > 0,
            "{}: the columnar run still partitioned out-of-core",
            query.name
        );
    }
}

/// Spilling joins surface in the simulated cost: the grace run charges its
/// measured partition I/O on top of the identical CPU work.
#[test]
fn grace_runs_cost_more_under_the_cost_model() {
    let env = env();
    let query = q9();
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
    let grace = run(SpillConfig::disabled().with_join_budget(TINY_JOIN_BUDGET));
    let model = CostModel::default();
    assert!(
        grace.total.simulated_cost(&model) > memory.total.simulated_cost(&model),
        "measured grace I/O must surface in the simulated cost"
    );
    assert_eq!(
        grace.result, memory.result,
        "the extra cost buys the same answer"
    );
}

/// Both budgets together: intermediates spill at the Sink *and* joins spill
/// their build sides, and the answer still never changes.
#[test]
fn join_and_spill_budgets_compose() {
    let env = env();
    let query = q8();
    let reference = {
        let mut catalog = env.catalog.clone();
        let config = DynamicConfig::default()
            .with_parallel(ParallelConfig::serial())
            .with_spill(SpillConfig::disabled());
        DynamicDriver::new(config)
            .execute(&query, &mut catalog)
            .expect("in-memory execution")
    };
    let mut catalog = env.catalog.clone();
    let config = DynamicConfig::default()
        .with_parallel(ParallelConfig::serial())
        .with_spill(
            SpillConfig::disabled()
                .with_budget(1)
                .with_join_budget(TINY_JOIN_BUDGET),
        );
    let outcome = DynamicDriver::new(config)
        .execute(&query, &mut catalog)
        .expect("fully out-of-core execution");
    assert_eq!(outcome.result, reference.result);
    assert_eq!(outcome.stage_plans, reference.stage_plans);
    assert!(
        outcome.total.spill_bytes_written > 0 && outcome.total.grace_bytes_written > 0,
        "both subsystems engaged: {:?}",
        outcome.total
    );
    let dir = catalog.spill_dir().expect("spill configured");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}
