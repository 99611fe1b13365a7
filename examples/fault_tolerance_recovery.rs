//! Fault tolerance from re-optimization checkpoints (the paper's future-work
//! extension): crash a long multi-join query in the middle of its dynamic
//! execution, then resume it from the materialized intermediates instead of
//! starting over.
//!
//! Run with: `cargo run --release --example fault_tolerance_recovery`

use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::workloads::q17;

fn main() -> rdo_common::Result<()> {
    let mut env = BenchmarkEnv::load(ScaleFactor::gb(5), 8, false, 7)?;
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(10_000.0));
    let driver = CheckpointedDriver::new(config);
    let query = q17();

    // ----------------------------------------------- uninterrupted baseline --
    let mut baseline_log = CheckpointLog::new();
    let baseline = driver.execute(
        &query,
        &mut env.catalog,
        FailureInjector::none(),
        &mut baseline_log,
    )?;
    println!(
        "uninterrupted {}: {} stages, {} result rows, {} base rows scanned",
        query.name,
        baseline.stages_executed(),
        baseline.result.len(),
        baseline.total.rows_scanned
    );

    // ------------------------------------------------------ crash + resume --
    let mut log = CheckpointLog::new();
    let crash = driver.execute(
        &query,
        &mut env.catalog,
        FailureInjector::after_stages(2),
        &mut log,
    );
    println!(
        "\ninjected crash: {}",
        crash.expect_err("the injector fails the run")
    );
    println!("checkpoints left behind (the executed prefix of the stage list):");
    for (stage, table) in log.stages.iter().zip(log.tables()) {
        println!(
            "  [{:?}] {} -> table {table}",
            stage.kind,
            stage.description()
        );
    }

    let recovered = driver.execute(&query, &mut env.catalog, FailureInjector::none(), &mut log)?;
    println!(
        "\nrecovered run: {} stages replayed from checkpoints, {} newly executed, {} base rows scanned",
        recovered.stages_recovered,
        recovered.stages_executed(),
        recovered.total.rows_scanned
    );
    println!("recovered plan: {}", recovered.plan_description());
    let saved =
        1.0 - recovered.total.rows_scanned as f64 / baseline.total.rows_scanned.max(1) as f64;
    println!(
        "scan work saved by resuming instead of restarting: {:.1}%",
        100.0 * saved
    );
    assert_eq!(
        recovered.result.clone().sorted(),
        baseline.result.clone().sorted(),
        "recovered result must equal the uninterrupted result"
    );
    println!("recovered result matches the uninterrupted execution ✔");
    Ok(())
}
