//! The statistics the Sink registers are pinned to the ones the value-by-value
//! GK insertion and the re-feeding coordinator merge registered before the
//! sketches were rewritten as merge passes: for every push-down and re-opt
//! intermediate of Q8/Q9/Q17/Q50, a digest of the full `DatasetStats`
//! (histogram bounds, distinct estimates, min/max, counts) equals the digest
//! taken with that oracle — at every worker count, and with 3-row base-table
//! chunks. The planner reads nothing else, so equal digests mean equal plans.

use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::sketch::hll::hash_utf8;

/// `stats_digest()` of the commit before the merge-pass sketches (PR 12),
/// where `GkSketch::flush` inserted value by value and `merge` re-fed every
/// entry `g` times. It changes only with a deliberate change of the registered
/// statistics (the failing assertion prints the new value) — or of the
/// intermediates' table names, which the rendering includes: the value was
/// re-taken when checkpointed intermediates took the dynamic driver's names
/// (`…__ckpt_<alias>_filtered` → `…__<alias>_filtered`, `…__ckptI<n>` →
/// `…__I<n>`), as the digest of the previous commit's rendering with exactly
/// those two substitutions applied.
const ORACLE_DIGEST: u64 = 18_298_791_198_993_605_919;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Every intermediate's registered statistics, rendered in a fixed order.
/// The run is stopped after its last materialized stage, which is the one
/// way to see the intermediates' statistics before the driver drops them.
fn stats_rendered(env: &BenchmarkEnv, workers: usize) -> String {
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(25_000.0))
        .with_parallel(ParallelConfig::serial().with_workers(workers));
    let driver = CheckpointedDriver::new(config);
    let mut rendered = String::new();
    for query in all_queries() {
        let mut catalog = env.catalog.clone();
        let stages = driver
            .execute(
                &query,
                &mut catalog,
                FailureInjector::none(),
                &mut CheckpointLog::new(),
            )
            .expect("uninterrupted run")
            .stages_executed();
        assert!(stages >= 2, "{}: push-down and re-opt stages", query.name);

        let mut log = CheckpointLog::new();
        driver
            .execute(
                &query,
                &mut catalog,
                FailureInjector::after_stages(stages),
                &mut log,
            )
            .expect_err("stopped after the last materialized stage");
        for table in log.tables() {
            let stats = catalog.stats().get(&table).expect("registered statistics");
            // Each column renders under its bare name, as when statistics
            // were keyed by it; the qualifier only breaks ties.
            let mut columns: Vec<_> = stats.columns.iter().collect();
            columns.sort_by_key(|(column, _)| (column.field.as_str(), column.dataset.as_str()));
            let columns: Vec<_> = columns.iter().map(|(c, s)| (&c.field, s)).collect();
            rendered.push_str(&format!("{table} rows={} {columns:?}\n", stats.row_count));
        }
    }
    rendered
}

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(100), 4, true, 42).expect("workload generation")
}

fn stats_digest() -> u64 {
    let env = env();
    let reference = stats_rendered(&env, WORKER_COUNTS[0]);
    assert!(
        reference.contains("histogram") && reference.lines().count() >= 8,
        "intermediates with tracked columns were registered:\n{reference}"
    );
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            stats_rendered(&env, *workers),
            reference,
            "registered statistics diverged at workers={workers}"
        );
    }
    // A digest that does not depend on the standard library's hasher.
    hash_utf8(&reference)
}

#[test]
fn registered_statistics_equal_the_value_by_value_oracle() {
    assert_eq!(stats_digest(), ORACLE_DIGEST);
}

/// `RDO_BATCH_SIZE` is read once per process, so the 3-row run is a child
/// process: this test re-invokes its own binary with the knob exported.
#[test]
fn three_row_chunks_register_the_same_statistics() {
    const CHILD: &str = "SINK_STATS_PIN_CHILD";
    if std::env::var_os(CHILD).is_some() {
        println!("stats-digest={}", stats_digest());
        return;
    }
    let output = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "three_row_chunks_register_the_same_statistics",
            "--nocapture",
        ])
        .env(CHILD, "1")
        .env(BATCH_SIZE_ENV, "3")
        .output()
        .expect("child test process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "child failed: {stdout}");
    let digest = stdout
        .lines()
        .find_map(|line| line.split("stats-digest=").nth(1))
        .unwrap_or_else(|| panic!("child printed no digest: {stdout}"));
    assert_eq!(digest.trim(), ORACLE_DIGEST.to_string());
}
