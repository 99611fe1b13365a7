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
                outcome.plan_description(),
                reference.plan_description(),
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
    assert_eq!(hybrid.plan_description(), memory.plan_description());
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

/// Grace partition pages store fewer bytes than the rows they hold: on
/// every evaluation query the LZ-framed bucket pages, written and read, come
/// in below their logical row-codec volume, while results, plans and every
/// non-grace counter equal the in-memory run.
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
        let grace = run(
            &query,
            SpillConfig::disabled().with_join_budget(TINY_JOIN_BUDGET),
        );
        assert_eq!(grace.result, memory.result, "{}", query.name);
        assert_eq!(
            grace.plan_description(),
            memory.plan_description(),
            "{}",
            query.name
        );
        assert_eq!(
            scrub_grace(grace.total),
            scrub_grace(memory.total),
            "{}",
            query.name
        );
        let m = &grace.total;
        assert!(
            m.grace_bytes_written > 0
                && m.grace_bytes_written < m.grace_logical_bytes_written
                && m.grace_bytes_read < m.grace_logical_bytes_read,
            "{}: stored pages must be smaller than their rows: {m:?}",
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
    assert_eq!(outcome.plan_description(), reference.plan_description());
    assert!(
        outcome.total.spill_bytes_written > 0 && outcome.total.grace_bytes_written > 0,
        "both subsystems engaged: {:?}",
        outcome.total
    );
    let dir = catalog.spill_dir().expect("spill configured");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
}
