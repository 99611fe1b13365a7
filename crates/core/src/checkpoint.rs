//! Checkpoint-based fault tolerance on top of runtime dynamic optimization.
//!
//! The paper's conclusion points out that the materialized intermediate results
//! the dynamic approach produces anyway can double as *checkpoints*: "runtime
//! dynamic optimization can also be used as a way to achieve fault-tolerance by
//! integrating checkpoints. That would help the system to recover from a
//! failure by not having to start over from the beginning of a long-running
//! query." This module implements that extension.
//!
//! A dynamic run is one list of [`Stage`]s, each but the last ending in a
//! Sink. A [`CheckpointLog`] is the prefix of that list whose Sinks completed,
//! plus the query it leaves. [`CheckpointedDriver`] runs
//! [`crate::DynamicDriver`]'s stage loop on the caller's log and keeps the
//! intermediates when a failure interrupts the run; a later execution of the
//! same query resumes from the log's remaining query. [`FailureInjector`]
//! provides deterministic failure injection for tests and experiments.

use crate::driver::{drop_intermediates, DynamicConfig, DynamicDriver, DynamicOutcome, Stage};
use rdo_common::{RdoError, Result};
use rdo_planner::QuerySpec;
use rdo_storage::Catalog;

/// Deterministic failure injection: the run fails after a given number of
/// newly executed (and checkpointed) stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailureInjector {
    fail_after: Option<u32>,
}

impl FailureInjector {
    /// Never fails.
    pub fn none() -> Self {
        Self { fail_after: None }
    }

    /// Fails once `stages` newly executed stages have been checkpointed.
    pub fn after_stages(stages: u32) -> Self {
        Self {
            fail_after: Some(stages),
        }
    }

    /// The injected failure, once `executed` newly executed stages reach the
    /// limit.
    pub(crate) fn check(&self, executed: u32) -> Result<()> {
        match self.fail_after {
            Some(limit) if executed >= limit => Err(RdoError::Execution(format!(
                "injected failure after {executed} newly executed stage(s); checkpoints retained"
            ))),
            _ => Ok(()),
        }
    }
}

/// The durable record of a query's executed stages. In AsterixDB this would
/// live next to the temporary files of the Sink operator; here it is an
/// in-memory value the caller keeps across the failed and the recovering
/// execution.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLog {
    /// The executed prefix of the query's stage list, in execution order;
    /// each stage's Sink table holds its output.
    pub stages: Vec<Stage>,
    /// The query left to run after `stages`. Its name — from which the
    /// intermediates' table names derive — is the query the log belongs to.
    pub remaining: QuerySpec,
}

impl CheckpointLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of checkpointed stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if nothing has been checkpointed.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Names of the materialized intermediates the log references.
    pub fn tables(&self) -> Vec<String> {
        let sinks = self.stages.iter().filter_map(|s| s.sink.as_ref());
        sinks.map(|sink| sink.table.clone()).collect()
    }
}

/// A dynamic-optimization driver whose stages double as recovery checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointedDriver {
    /// Dynamic-optimization configuration (shared with [`DynamicDriver`]).
    pub config: DynamicConfig,
}

impl CheckpointedDriver {
    /// Creates a checkpointed driver.
    pub fn new(config: DynamicConfig) -> Self {
        Self { config }
    }

    /// Executes (or resumes) the query. A non-empty `log` must belong to
    /// `spec` (the same query name); the run starts from its remaining query,
    /// and the outcome lists its stages first, as recovered. Newly completed
    /// stages are appended to `log`. When `injector` triggers, the run returns
    /// an execution error and leaves both the log and the intermediates in
    /// place so a later call can resume. On success every temporary table is
    /// dropped and the log is cleared.
    pub fn execute(
        &self,
        spec: &QuerySpec,
        catalog: &mut Catalog,
        injector: FailureInjector,
        log: &mut CheckpointLog,
    ) -> Result<DynamicOutcome> {
        spec.validate()?;
        if log.is_empty() {
            log.remaining = spec.clone();
        } else if log.remaining.name != spec.name {
            return Err(RdoError::Execution(format!(
                "the checkpoint log belongs to query `{}`, not `{}`; cannot recover",
                log.remaining.name, spec.name
            )));
        }
        if let Some(table) = log.tables().into_iter().find(|t| !catalog.has_table(t)) {
            return Err(RdoError::Execution(format!(
                "checkpointed intermediate `{table}` is missing from the catalog; cannot recover"
            )));
        }

        // Spilled checkpoints survive between the failed and the recovering
        // execution because the catalog keeps the same spill manager for an
        // unchanged configuration.
        let outcome = DynamicDriver::new(self.config.clone()).run_stages(log, catalog, injector)?;

        // Success: the checkpoints are no longer needed.
        drop_intermediates(&outcome.stages, catalog);
        *log = CheckpointLog::new();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{SinkTarget, StageKind};
    use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, ExecutionMetrics, PhysicalPlan, Predicate};
    use rdo_planner::DatasetRef;
    use rdo_storage::IngestOptions;

    /// fact(20_000) joined with four dimensions, two of which carry complex
    /// predicates so the checkpointed run has several stages: two push-downs,
    /// two materialized joins, one final job.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let fact_schema = Schema::for_dataset(
            "fact",
            &[
                ("f_id", DataType::Int64),
                ("f_d1", DataType::Int64),
                ("f_d2", DataType::Int64),
                ("f_d3", DataType::Int64),
                ("f_d4", DataType::Int64),
            ],
        );
        let fact_rows = (0..20_000)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Int64(i % 100),
                    Value::Int64(i % 200),
                    Value::Int64(i % 50),
                    Value::Int64(i % 25),
                ])
            })
            .collect();
        cat.ingest(
            "fact",
            Relation::new(fact_schema, fact_rows).unwrap(),
            IngestOptions::partitioned_on("f_id"),
        )
        .unwrap();
        for (name, rows) in [("d1", 100i64), ("d2", 200), ("d3", 50), ("d4", 25)] {
            let schema =
                Schema::for_dataset(name, &[("id", DataType::Int64), ("attr", DataType::Int64)]);
            let data = (0..rows)
                .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10)]))
                .collect();
            cat.ingest(
                name,
                Relation::new(schema, data).unwrap(),
                IngestOptions::partitioned_on("id"),
            )
            .unwrap();
        }
        cat
    }

    fn spec() -> QuerySpec {
        QuerySpec::new("ckpt-query")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("d1"))
            .with_dataset(DatasetRef::named("d2"))
            .with_dataset(DatasetRef::named("d3"))
            .with_dataset(DatasetRef::named("d4"))
            .with_join(FieldRef::new("fact", "f_d1"), FieldRef::new("d1", "id"))
            .with_join(FieldRef::new("fact", "f_d2"), FieldRef::new("d2", "id"))
            .with_join(FieldRef::new("fact", "f_d3"), FieldRef::new("d3", "id"))
            .with_join(FieldRef::new("fact", "f_d4"), FieldRef::new("d4", "id"))
            .with_predicate(Predicate::udf("pick1", FieldRef::new("d1", "attr"), |v| {
                v.as_i64() == Some(3)
            }))
            .with_predicate(Predicate::compare(
                FieldRef::new("d1", "id"),
                CmpOp::Lt,
                1_000i64,
            ))
            .with_predicate(Predicate::udf("pick2", FieldRef::new("d2", "attr"), |v| {
                v.as_i64().map(|x| x < 5).unwrap_or(false)
            }))
            .with_predicate(Predicate::compare(
                FieldRef::new("d2", "id"),
                CmpOp::Ge,
                0i64,
            ))
            .with_projection(vec![FieldRef::new("fact", "f_id")])
    }

    fn reference_result(cat: &mut Catalog) -> Relation {
        DynamicDriver::new(DynamicConfig::default())
            .execute(&spec(), cat)
            .unwrap()
            .result
            .sorted()
    }

    #[test]
    fn no_failure_matches_the_plain_dynamic_driver() {
        let mut cat = catalog();
        let expected = reference_result(&mut cat);
        let tables_before = cat.table_names();
        let mut log = CheckpointLog::new();
        let outcome = CheckpointedDriver::new(DynamicConfig::default())
            .execute(&spec(), &mut cat, FailureInjector::none(), &mut log)
            .unwrap();
        assert_eq!(outcome.result.clone().sorted(), expected);
        assert_eq!(outcome.stages_recovered, 0);
        assert!(
            outcome.stages_executed() >= 3,
            "pushdowns + at least one join"
        );
        assert!(log.is_empty(), "log cleared after success");
        assert_eq!(cat.table_names(), tables_before, "temporaries cleaned up");
    }

    #[test]
    fn failure_then_recovery_reuses_checkpointed_stages() {
        let mut cat = catalog();
        let base_tables = cat.table_names();
        let expected = reference_result(&mut cat);
        let driver = CheckpointedDriver::new(DynamicConfig::default());
        let mut log = CheckpointLog::new();

        // First run: crash after two completed stages.
        let error = driver
            .execute(
                &spec(),
                &mut cat,
                FailureInjector::after_stages(2),
                &mut log,
            )
            .unwrap_err();
        assert!(error.to_string().contains("injected failure"));
        assert_eq!(
            log.len(),
            2,
            "two stages were checkpointed before the crash"
        );
        for table in log.tables() {
            assert!(
                cat.has_table(&table),
                "checkpoint `{table}` must survive the failure"
            );
        }

        // Second run: resumes from the log and finishes.
        let outcome = driver
            .execute(&spec(), &mut cat, FailureInjector::none(), &mut log)
            .unwrap();
        assert_eq!(outcome.stages_recovered, 2);
        assert!(outcome.stages_executed() >= 1);
        assert_eq!(
            outcome.result.sorted(),
            expected,
            "recovered run must agree"
        );
        assert!(log.is_empty());
        assert_eq!(
            cat.table_names(),
            base_tables,
            "all checkpoints dropped after success"
        );
    }

    #[test]
    fn repeated_failures_make_progress_and_eventually_finish() {
        let mut cat = catalog();
        let expected = reference_result(&mut cat);
        let driver = CheckpointedDriver::new(DynamicConfig::default());
        let mut log = CheckpointLog::new();
        let mut attempts = 0;
        let outcome = loop {
            attempts += 1;
            match driver.execute(
                &spec(),
                &mut cat,
                FailureInjector::after_stages(1),
                &mut log,
            ) {
                Ok(outcome) => break outcome,
                Err(_) => {
                    assert!(attempts < 20, "must converge");
                    continue;
                }
            }
        };
        assert!(attempts > 1, "at least one failure was injected");
        assert_eq!(outcome.result.sorted(), expected);
    }

    #[test]
    fn missing_checkpoint_table_is_detected() {
        let mut cat = catalog();
        let driver = CheckpointedDriver::new(DynamicConfig::default());
        let mut log = CheckpointLog::new();
        driver
            .execute(
                &spec(),
                &mut cat,
                FailureInjector::after_stages(1),
                &mut log,
            )
            .unwrap_err();
        // Simulate losing the materialized intermediate (e.g. local disk wiped).
        let table = log.tables()[0].clone();
        cat.drop_table(&table);
        let error = driver
            .execute(&spec(), &mut cat, FailureInjector::none(), &mut log)
            .unwrap_err();
        assert!(error.to_string().contains("missing from the catalog"));
    }

    #[test]
    fn injector_that_never_triggers_lets_the_run_finish() {
        let mut cat = catalog();
        let mut log = CheckpointLog::new();
        let outcome = CheckpointedDriver::new(DynamicConfig::default())
            .execute(
                &spec(),
                &mut cat,
                FailureInjector::after_stages(100),
                &mut log,
            )
            .unwrap();
        assert!(outcome.stages_executed() < 100);
        assert!(log.is_empty());
    }

    #[test]
    fn checkpoint_log_helpers() {
        let mut log = CheckpointLog::new();
        assert!(log.is_empty());
        log.stages.push(Stage {
            kind: StageKind::Pushdown,
            plan: PhysicalPlan::scan("x"),
            sink: Some(SinkTarget {
                table: "t".into(),
                placement: None,
                tracked: Vec::new(),
                collect_stats: false,
            }),
            metrics: ExecutionMetrics::new(),
        });
        assert_eq!(log.len(), 1);
        assert_eq!(log.tables(), vec!["t".to_string()]);
        assert!(FailureInjector::none().check(10).is_ok());
        assert!(FailureInjector::after_stages(2).check(2).is_err());
        assert!(FailureInjector::after_stages(2).check(1).is_ok());
    }
}
