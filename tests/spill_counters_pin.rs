//! The logical spill and grace counters are pinned to the values the
//! row-at-a-time spill path produced (the commit before the grace join and the
//! page writer went batch-native): for Q8/Q9/Q17/Q50 under a tiny spill
//! budget, a tiny join budget and both, every page count, logical byte volume,
//! spilled-partition, recursion and fallback counter equals the recorded
//! constant — at workers 1 and 4 and (the `RDO_BATCH_SIZE=3` CI leg runs this
//! file too) at any chunk size. The *stored* bytes are pinned as well: the
//! pages the engine writes — column runs, row-codec tails, LZ-framed — must
//! not change by a byte.
//!
//! A failing assertion prints the rendering it computed, so a deliberate
//! change of the page-cut rule re-records the constants in one copy-paste.

use runtime_dynamic_optimization::prelude::*;

const TINY: u64 = 1;

/// Small pages, so partitions of a few hundred rows are cut into many pages
/// and the page-boundary rule is what the constants pin.
const PAGE_SIZE: usize = 2048;

/// Budget configurations: `(label, spill budget, join budget)`.
const MODES: [(&str, bool, bool); 3] = [
    ("spill", true, false),
    ("join", false, true),
    ("both", true, true),
];

/// Logical counters, layout- and worker-invariant. Recorded on the parent
/// commit (`7baa08a`).
const LOGICAL: [&str; 12] = [
    "q17/spill spill[pw=50 pr=50 lw=65991 lr=65991] grace[part=0 pw=0 pr=0 lw=0 lr=0 rec=0 fb=0]",
    "q17/join spill[pw=0 pr=0 lw=0 lr=0] grace[part=5548 pw=10770 pr=10770 lw=4503802 lr=4503802 rec=2488 fb=3088]",
    "q17/both spill[pw=50 pr=50 lw=65991 lr=65991] grace[part=5548 pw=10770 pr=10770 lw=4503802 lr=4503802 rec=2488 fb=3088]",
    "q50/spill spill[pw=12 pr=12 lw=7528 lr=7528] grace[part=0 pw=0 pr=0 lw=0 lr=0 rec=0 fb=0]",
    "q50/join spill[pw=0 pr=0 lw=0 lr=0] grace[part=1236 pw=2997 pr=2997 lw=2100735 lr=2100735 rec=692 fb=560]",
    "q50/both spill[pw=12 pr=12 lw=7528 lr=7528] grace[part=1236 pw=2997 pr=2997 lw=2100735 lr=2100735 rec=692 fb=560]",
    "q8/spill spill[pw=236 pr=236 lw=470089 lr=470089] grace[part=0 pw=0 pr=0 lw=0 lr=0 rec=0 fb=0]",
    "q8/join spill[pw=0 pr=0 lw=0 lr=0] grace[part=14844 pw=23184 pr=23184 lw=6349882 lr=6349882 rec=3376 fb=11496]",
    "q8/both spill[pw=236 pr=236 lw=470089 lr=470089] grace[part=14844 pw=23184 pr=23184 lw=6349882 lr=6349882 rec=3376 fb=11496]",
    "q9/spill spill[pw=248 pr=248 lw=490595 lr=490595] grace[part=0 pw=0 pr=0 lw=0 lr=0 rec=0 fb=0]",
    "q9/join spill[pw=0 pr=0 lw=0 lr=0] grace[part=18780 pw=30357 pr=30357 lw=6098778 lr=6098778 rec=3428 fb=15372]",
    "q9/both spill[pw=248 pr=248 lw=490595 lr=490595] grace[part=18780 pw=30357 pr=30357 lw=6098778 lr=6098778 rec=3428 fb=15372]",
];

/// Stored bytes (`spill_bytes_written`, `grace_bytes_written`), worker-
/// invariant. Recorded on the parent commit (`5778699`).
const STORED: [&str; 12] = [
    "q17/spill stored[spill=22354 grace=0]",
    "q17/join stored[spill=0 grace=2081167]",
    "q17/both stored[spill=22354 grace=2081167]",
    "q50/spill stored[spill=2977 grace=0]",
    "q50/join stored[spill=0 grace=939171]",
    "q50/both stored[spill=2977 grace=939171]",
    "q8/spill stored[spill=193535 grace=0]",
    "q8/join stored[spill=0 grace=3438340]",
    "q8/both stored[spill=193535 grace=3438340]",
    "q9/spill stored[spill=167062 grace=0]",
    "q9/join stored[spill=0 grace=2941818]",
    "q9/both stored[spill=167062 grace=2941818]",
];

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(100), 4, true, 42).expect("workload generation")
}

fn run(
    env: &BenchmarkEnv,
    query: &QuerySpec,
    (spill, join): (bool, bool),
    workers: usize,
) -> ExecutionMetrics {
    let mut config = SpillConfig::disabled().with_page_size(PAGE_SIZE);
    if spill {
        config = config.with_budget(TINY);
    }
    if join {
        config = config.with_join_budget(TINY);
    }
    let mut catalog = env.catalog.clone();
    DynamicDriver::new(
        DynamicConfig::default()
            .with_parallel(ParallelConfig::serial().with_workers(workers))
            .with_spill(config),
    )
    .execute(query, &mut catalog)
    .expect("out-of-core execution")
    .total
}

fn logical(label: &str, m: &ExecutionMetrics) -> String {
    format!(
        "{label} spill[pw={} pr={} lw={} lr={}] grace[part={} pw={} pr={} lw={} lr={} rec={} fb={}]",
        m.spill_pages_written,
        m.spill_pages_read,
        m.spill_logical_bytes_written,
        m.spill_logical_bytes_read,
        m.grace_partitions_spilled,
        m.grace_pages_written,
        m.grace_pages_read,
        m.grace_logical_bytes_written,
        m.grace_logical_bytes_read,
        m.grace_recursions,
        m.grace_fallbacks,
    )
}

fn stored(label: &str, m: &ExecutionMetrics) -> String {
    format!(
        "{label} stored[spill={} grace={}]",
        m.spill_bytes_written, m.grace_bytes_written,
    )
}

fn labels() -> Vec<(String, QuerySpec, (bool, bool))> {
    all_queries()
        .into_iter()
        .flat_map(|query| {
            MODES.map(|(mode, spill, join)| {
                (
                    format!("{}/{mode}", query.name.to_lowercase()),
                    query.clone(),
                    (spill, join),
                )
            })
        })
        .collect()
}

fn assert_pinned(what: &str, actual: &[String], expected: &[&str]) {
    assert!(
        actual
            .iter()
            .map(String::as_str)
            .eq(expected.iter().copied()),
        "{what} diverged from the recorded constants; computed:\n{}",
        actual
            .iter()
            .map(|line| format!("    \"{line}\",\n"))
            .collect::<String>()
    );
}

#[test]
fn logical_and_stored_counters_equal_the_recorded_constants() {
    let env = env();
    let labels = labels();
    for workers in [1, 4] {
        let runs: Vec<(&String, ExecutionMetrics)> = labels
            .iter()
            .map(|(label, query, mode)| (label, run(&env, query, *mode, workers)))
            .collect();
        let actual: Vec<String> = runs.iter().map(|(l, m)| logical(l, m)).collect();
        assert_pinned(
            &format!("logical counters (workers={workers})"),
            &actual,
            &LOGICAL,
        );
        let actual: Vec<String> = runs.iter().map(|(l, m)| stored(l, m)).collect();
        assert_pinned(
            &format!("stored bytes (workers={workers})"),
            &actual,
            &STORED,
        );
    }
}
