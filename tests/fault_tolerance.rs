//! Fault-tolerance integration tests: a paper query interrupted mid-way must be
//! resumable from its re-optimization checkpoints and produce exactly the
//! answer an uninterrupted run produces.

use rdo_common::RdoError;
use rdo_workloads::{q8, q9};
use runtime_dynamic_optimization::prelude::*;

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, false, 123).unwrap()
}

#[test]
fn q9_crash_and_recovery_matches_uninterrupted_execution() {
    let mut env = env();
    let base_tables = env.catalog.table_names();
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(2_000.0));

    let expected = DynamicDriver::new(config.clone())
        .execute(&q9(), &mut env.catalog)
        .unwrap()
        .result
        .sorted();

    let driver = CheckpointedDriver::new(config);
    let mut log = CheckpointLog::new();
    let error = driver
        .execute(
            &q9(),
            &mut env.catalog,
            FailureInjector::after_stages(2),
            &mut log,
        )
        .unwrap_err();
    assert!(error.to_string().contains("injected failure"));
    assert_eq!(log.len(), 2);

    let recovered = driver
        .execute(&q9(), &mut env.catalog, FailureInjector::none(), &mut log)
        .unwrap();
    assert_eq!(recovered.stages_recovered, 2);
    assert_eq!(recovered.result.sorted(), expected);
    assert!(log.is_empty());
    assert_eq!(
        env.catalog.table_names(),
        base_tables,
        "every checkpoint dropped after success"
    );
}

#[test]
fn recovery_skips_already_executed_work() {
    let mut env = env();
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(2_000.0));
    let driver = CheckpointedDriver::new(config);

    // Uninterrupted run, to learn the total amount of work.
    let mut empty_log = CheckpointLog::new();
    let full = driver
        .execute(
            &q9(),
            &mut env.catalog,
            FailureInjector::none(),
            &mut empty_log,
        )
        .unwrap();

    // Crash after one stage, then resume.
    let mut log = CheckpointLog::new();
    driver
        .execute(
            &q9(),
            &mut env.catalog,
            FailureInjector::after_stages(1),
            &mut log,
        )
        .unwrap_err();
    let resumed = driver
        .execute(&q9(), &mut env.catalog, FailureInjector::none(), &mut log)
        .unwrap();

    assert_eq!(resumed.stages_recovered, 1);
    assert_eq!(
        resumed.stages_executed() + resumed.stages_recovered,
        full.stages_executed(),
        "the recovering run executes exactly the stages the crash skipped"
    );
    // The recovering run scans strictly fewer base rows than the full run
    // because the checkpointed stage is not re-executed.
    assert!(resumed.total.rows_scanned < full.total.rows_scanned);
    assert_eq!(resumed.result.sorted(), full.result.sorted());
}

#[test]
fn every_crash_point_recovers_to_the_same_answer() {
    let mut env = env();
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(2_000.0));
    let driver = CheckpointedDriver::new(config.clone());
    let expected = DynamicDriver::new(config)
        .execute(&q9(), &mut env.catalog)
        .unwrap()
        .result
        .sorted();

    // Learn how many checkpointable stages Q9 has.
    let mut probe_log = CheckpointLog::new();
    let probe = driver
        .execute(
            &q9(),
            &mut env.catalog,
            FailureInjector::none(),
            &mut probe_log,
        )
        .unwrap();
    let stages = probe.stages_executed();
    assert!(stages >= 2, "Q9 must have several checkpointable stages");

    for crash_after in 1..=stages {
        let mut log = CheckpointLog::new();
        let first = driver.execute(
            &q9(),
            &mut env.catalog,
            FailureInjector::after_stages(crash_after),
            &mut log,
        );
        assert!(first.is_err(), "crash point {crash_after} should fail");
        let recovered = driver
            .execute(&q9(), &mut env.catalog, FailureInjector::none(), &mut log)
            .unwrap();
        assert_eq!(
            recovered.result.sorted(),
            expected,
            "crash after stage {crash_after} recovered to a different answer"
        );
    }
}

/// A log belongs to the query that wrote it: replaying Q8's checkpoints for
/// Q9 is refused before the catalog or the log is touched, and Q8 can still
/// resume from the log afterwards.
#[test]
fn a_checkpoint_log_is_not_replayed_for_another_query() {
    let mut env = env();
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(2_000.0));
    let expected = DynamicDriver::new(config.clone())
        .execute(&q8(), &mut env.catalog)
        .unwrap()
        .result
        .sorted();
    let driver = CheckpointedDriver::new(config);
    let mut log = CheckpointLog::new();
    driver
        .execute(
            &q8(),
            &mut env.catalog,
            FailureInjector::after_stages(1),
            &mut log,
        )
        .unwrap_err();
    assert_eq!(log.len(), 1);
    let tables = env.catalog.table_names();
    let logged = log.tables();

    let error = driver
        .execute(&q9(), &mut env.catalog, FailureInjector::none(), &mut log)
        .unwrap_err();
    assert!(matches!(error, RdoError::Execution(_)), "{error}");
    assert!(error.to_string().contains("belongs to query"), "{error}");
    assert_eq!(
        env.catalog.table_names(),
        tables,
        "the catalog is untouched"
    );
    assert_eq!(log.tables(), logged, "the log is untouched");

    let resumed = driver
        .execute(&q8(), &mut env.catalog, FailureInjector::none(), &mut log)
        .unwrap();
    assert_eq!(resumed.stages_recovered, 1);
    assert!(
        resumed
            .plan_description()
            .starts_with("recovered pushdown "),
        "{}",
        resumed.plan_description()
    );
    assert_eq!(resumed.result.sorted(), expected);
}

/// The checkpointed driver owns the temporaries differently; everything else
/// is the dynamic driver's one loop, so an uninterrupted run is the dynamic
/// run — result rows in order, every metric counter, the stage plans (the
/// intermediates carry the same names) and the audit trail.
#[test]
fn uninterrupted_checkpointed_run_equals_the_dynamic_driver() {
    let env = env();
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(2_000.0));
    for query in all_queries() {
        let dynamic = DynamicDriver::new(config.clone())
            .execute(&query, &mut env.catalog.clone())
            .unwrap();
        let mut catalog = env.catalog.clone();
        let mut log = CheckpointLog::new();
        let checkpointed = CheckpointedDriver::new(config.clone())
            .execute(&query, &mut catalog, FailureInjector::none(), &mut log)
            .unwrap();
        assert_eq!(checkpointed.result, dynamic.result, "{}", query.name);
        assert_eq!(checkpointed.total, dynamic.total, "{}", query.name);
        assert_eq!(checkpointed.plan_description(), dynamic.plan_description());
        assert_eq!(checkpointed.audit, dynamic.audit, "{}", query.name);
        assert_eq!(
            checkpointed.stages_executed() as usize + 1,
            dynamic.stages.len(),
            "every stage but the final job is a checkpoint"
        );
        assert_eq!(catalog.table_names(), env.catalog.table_names());
    }
}

/// Names of the spans directly under the run's `driver.execute` root.
fn stage_spans(profile: &Profile) -> Vec<String> {
    let roots: Vec<_> = profile
        .spans()
        .iter()
        .filter(|s| s.name == "driver.execute")
        .collect();
    assert_eq!(roots.len(), 1, "one root span per execution");
    let mut stages: Vec<_> = profile
        .spans()
        .iter()
        .filter(|s| s.parent == roots[0].id)
        .collect();
    stages.sort_by_key(|s| s.start_ns);
    stages.iter().map(|s| s.name.clone()).collect()
}

/// The checkpointed path honours `DynamicConfig::{trace, learned}`: the same
/// span tree as the dynamic driver, an audit record per executed stage, and
/// the push-down cardinalities observed into the learned catalog.
#[test]
fn checkpointed_run_is_traced_audited_and_feeds_the_learned_catalog() {
    let env = env();
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(2_000.0));

    let dynamic_trace = TraceHandle::enabled();
    let dynamic = DynamicDriver::new(config.clone().with_trace(dynamic_trace.clone()))
        .execute(&q9(), &mut env.catalog.clone())
        .unwrap();

    let trace = TraceHandle::enabled();
    let learned = std::sync::Arc::new(LearnedStatsCatalog::new());
    let driver = CheckpointedDriver::new(
        config
            .with_trace(trace.clone())
            .with_learned(std::sync::Arc::clone(&learned)),
    );
    let outcome = driver
        .execute(
            &q9(),
            &mut env.catalog.clone(),
            FailureInjector::none(),
            &mut CheckpointLog::new(),
        )
        .unwrap();

    let profile = trace.profile();
    let stages = stage_spans(&profile);
    assert!(stages.iter().any(|s| s == "stage.pushdown"), "{stages:?}");
    assert!(stages.iter().any(|s| s == "stage.reopt"), "{stages:?}");
    assert_eq!(stages.last().map(String::as_str), Some("stage.final"));
    assert_eq!(stages.len(), outcome.stages.len());
    assert_eq!(
        profile.logical_shape(),
        dynamic_trace.profile().logical_shape(),
        "one loop, one span tree"
    );

    assert_eq!(outcome.audit.estimates.len(), outcome.stages.len());
    assert!(!outcome.audit.decisions.is_empty());
    assert_eq!(outcome.audit, dynamic.audit);
    assert!(
        !learned.is_empty(),
        "the push-down stages recorded their measured cardinalities"
    );
}

/// A resumed run executes — and therefore traces and audits — only the stages
/// the crash skipped; the replayed ones cost nothing and record nothing.
#[test]
fn resumed_run_traces_only_the_stages_it_executed() {
    let env = env();
    let mut catalog = env.catalog.clone();
    let config = DynamicConfig::dynamic(JoinAlgorithmRule::with_threshold(2_000.0));
    let mut log = CheckpointLog::new();

    let crashed_trace = TraceHandle::enabled();
    CheckpointedDriver::new(config.clone().with_trace(crashed_trace.clone()))
        .execute(
            &q9(),
            &mut catalog,
            FailureInjector::after_stages(2),
            &mut log,
        )
        .unwrap_err();
    assert_eq!(
        stage_spans(&crashed_trace.profile()).len(),
        2,
        "the crashed run got through two stages"
    );

    let resumed_trace = TraceHandle::enabled();
    let resumed = CheckpointedDriver::new(config.with_trace(resumed_trace.clone()))
        .execute(&q9(), &mut catalog, FailureInjector::none(), &mut log)
        .unwrap();
    assert_eq!(resumed.stages_recovered, 2);
    let stages = stage_spans(&resumed_trace.profile());
    assert_eq!(
        stages.len(),
        resumed.stages_executed() as usize + 1,
        "executed stages plus the final job: {stages:?}"
    );
    assert_eq!(stages.last().map(String::as_str), Some("stage.final"));
    assert_eq!(resumed.audit.estimates.len(), stages.len());
    assert_eq!(
        resumed.stages.len(),
        stages.len() + 2,
        "the plan list also names the two recovered stages"
    );
    assert_eq!(catalog.table_names(), env.catalog.table_names());
}
