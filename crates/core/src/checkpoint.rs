//! Checkpoint-based fault tolerance on top of runtime dynamic optimization.
//!
//! The paper's conclusion points out that the materialized intermediate results
//! the dynamic approach produces anyway can double as *checkpoints*: "runtime
//! dynamic optimization can also be used as a way to achieve fault-tolerance by
//! integrating checkpoints. That would help the system to recover from a
//! failure by not having to start over from the beginning of a long-running
//! query." This module implements that extension.
//!
//! [`CheckpointedDriver`] runs [`crate::DynamicDriver`]'s stage loop — there
//! is one Algorithm 1, and it reports every materialized stage to whoever
//! owns the temporaries. This owner records each report in a
//! [`CheckpointLog`] and leaves the intermediates in the catalog when a
//! failure interrupts the run. A subsequent execution with the same log
//! *replays* the completed stages — reusing their intermediates and
//! statistics — and starts the loop from the remaining query.
//! [`FailureInjector`] provides deterministic failure injection for tests and
//! experiments.

pub use crate::driver::StageKind;
use crate::driver::{DynamicConfig, DynamicDriver};
use rdo_common::{RdoError, Relation, Result};
use rdo_exec::ExecutionMetrics;
use rdo_planner::QuerySpec;
use rdo_storage::Catalog;
use rdo_trace::audit::AuditLog;

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

    fn should_fail(&self, executed_stages: u32) -> bool {
        matches!(self.fail_after, Some(limit) if executed_stages >= limit)
    }
}

/// One completed (and materialized) stage.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// What the stage was.
    pub kind: StageKind,
    /// Human-readable description (plan signature).
    pub description: String,
    /// Name of the materialized temporary table holding the stage's output.
    pub table: String,
    /// The remaining query after the stage's reconstruction.
    pub spec_after: QuerySpec,
}

/// The durable record of completed stages. In AsterixDB this would live next to
/// the temporary files of the Sink operator; here it is an in-memory value the
/// caller keeps across the failed and the recovering execution.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLog {
    /// Completed stages in execution order.
    pub entries: Vec<CheckpointEntry>,
}

impl CheckpointLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of checkpointed stages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been checkpointed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Names of the materialized intermediates the log references.
    pub fn tables(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.table.clone()).collect()
    }
}

/// The outcome of a checkpointed (possibly recovering) execution.
#[derive(Debug, Clone)]
pub struct RecoveredOutcome {
    /// The final query result, projected onto the SELECT list.
    pub result: Relation,
    /// Metrics of the work done *by this execution* (recovered stages cost
    /// nothing — that is the point of the checkpoint).
    pub metrics: ExecutionMetrics,
    /// Stages replayed from the checkpoint log.
    pub stages_recovered: u32,
    /// Stages newly executed by this run.
    pub stages_executed: u32,
    /// Plan signature of every stage this run executed (recovered stages are
    /// annotated).
    pub stage_plans: Vec<String>,
    /// The optimizer audit trail of the stages this run executed.
    pub audit: AuditLog,
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

    /// Executes (or resumes) the query. Completed stages found in `log` are
    /// replayed from their materialized intermediates; newly completed stages
    /// are appended to `log`. When `injector` triggers, the run returns an
    /// execution error and leaves both the log and the intermediates in place
    /// so a later call can resume. On success every temporary table is dropped
    /// and the log is cleared.
    pub fn execute(
        &self,
        spec: &QuerySpec,
        catalog: &mut Catalog,
        injector: FailureInjector,
        log: &mut CheckpointLog,
    ) -> Result<RecoveredOutcome> {
        spec.validate()?;

        // ---- Replay the checkpointed stages. ----
        let mut remaining = spec.clone();
        let mut materialized_joins = 0u32;
        let mut stage_plans = Vec::new();
        for entry in &log.entries {
            if !catalog.has_table(&entry.table) {
                return Err(RdoError::Execution(format!(
                    "checkpointed intermediate `{}` is missing from the catalog; cannot recover",
                    entry.table
                )));
            }
            if entry.kind == StageKind::Join {
                materialized_joins += 1;
            }
            stage_plans.push(format!("recovered {}", entry.description));
            remaining = entry.spec_after.clone();
        }
        let stages_recovered = log.len() as u32;

        // ---- Run the rest, one checkpoint per materialized stage. Spilled
        // checkpoints survive between the failed and the recovering execution
        // because the catalog keeps the same spill manager for an unchanged
        // configuration. ----
        let mut executed = 0u32;
        let outcome = DynamicDriver::new(self.config.clone()).run_stages(
            remaining,
            materialized_joins,
            catalog,
            &mut |stage| {
                log.entries.push(CheckpointEntry {
                    kind: stage.kind,
                    description: stage.description.to_string(),
                    table: stage.table.to_string(),
                    spec_after: stage.spec_after.clone(),
                });
                executed += 1;
                if injector.should_fail(executed) {
                    return Err(injected_failure(executed));
                }
                Ok(())
            },
        )?;

        // Success: the checkpoints are no longer needed.
        for table in log.tables() {
            catalog.drop_table(&table);
        }
        log.entries.clear();

        stage_plans.extend(outcome.stage_plans);
        Ok(RecoveredOutcome {
            result: outcome.result,
            metrics: outcome.total,
            stages_recovered,
            stages_executed: executed,
            stage_plans,
            audit: outcome.audit,
        })
    }
}

fn injected_failure(executed: u32) -> RdoError {
    RdoError::Execution(format!(
        "injected failure after {executed} newly executed stage(s); checkpoints retained"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DynamicDriver;
    use rdo_common::{DataType, FieldRef, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, Predicate};
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
        assert_eq!(outcome.result.sorted(), expected);
        assert_eq!(outcome.stages_recovered, 0);
        assert!(
            outcome.stages_executed >= 3,
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
        assert!(outcome.stages_executed >= 1);
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
        assert!(outcome.stages_executed < 100);
        assert!(log.is_empty());
    }

    #[test]
    fn checkpoint_log_helpers() {
        let mut log = CheckpointLog::new();
        assert!(log.is_empty());
        log.entries.push(CheckpointEntry {
            kind: StageKind::Pushdown,
            description: "x".into(),
            table: "t".into(),
            spec_after: QuerySpec::new("q"),
        });
        assert_eq!(log.len(), 1);
        assert_eq!(log.tables(), vec!["t".to_string()]);
        assert!(!FailureInjector::none().should_fail(10));
        assert!(FailureInjector::after_stages(2).should_fail(2));
        assert!(!FailureInjector::after_stages(2).should_fail(1));
    }
}
