//! The pilot-run baseline ([Karanasos et al., SIGMOD'14], as implemented for the
//! paper's comparison): instead of relying on pre-existing statistics, the
//! optimizer first runs select-project "pilot" queries over a *sample* of every
//! base dataset participating in the query (including their local predicates,
//! with an early LIMIT), derives statistics from the samples, and forms the
//! complete plan from those.
//!
//! The known weakness the paper exploits is that distinct-value counts obtained
//! from a bounded sample badly underestimate high-cardinality (foreign-key)
//! columns, so joins without a primary/foreign-key relationship get poor
//! estimates; and the pilot runs themselves cost extra scans.

use super::{dp_full_plan, LeafStats, Optimizer};
use crate::algorithm::JoinAlgorithmRule;
use crate::query::QuerySpec;
use rdo_common::Result;
use rdo_exec::expr::evaluate_all_batch;
use rdo_exec::{ExecutionMetrics, PhysicalPlan, WorkerPool};
use rdo_sketch::{ColumnStatsBuilder, StatsCatalog};
use rdo_storage::Catalog;
use std::collections::HashMap;

/// Pilot-run based optimizer.
///
/// The sample probes run one task per partition on a worker pool — a
/// one-worker pool (a plain loop on the calling thread) unless
/// [`PilotRunOptimizer::with_pool`] attaches the run's executor pool;
/// per-partition sample partials are merged in partition order, so the
/// derived estimates (and the charged overhead metrics) are identical for
/// every worker count.
#[derive(Debug, Clone)]
pub struct PilotRunOptimizer {
    /// Physical join-algorithm rule.
    pub rule: JoinAlgorithmRule,
    /// Maximum number of rows sampled per dataset (the LIMIT of the pilot runs).
    pub sample_limit: usize,
    /// The pool the probes run on.
    pool: WorkerPool,
}

impl PilotRunOptimizer {
    /// Creates the optimizer.
    pub fn new(rule: JoinAlgorithmRule, sample_limit: usize) -> Self {
        Self {
            rule,
            sample_limit,
            pool: WorkerPool::new(1),
        }
    }

    /// Attaches the worker pool the sample probes execute on (builder style).
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }
}

impl Default for PilotRunOptimizer {
    fn default() -> Self {
        Self::new(JoinAlgorithmRule::default(), 2_000)
    }
}

/// Estimates derived from the pilot runs.
struct PilotEstimates {
    /// alias → estimated post-predicate rows (sample fraction × base rows).
    sizes: HashMap<String, f64>,
    /// (alias, column) → distinct estimate from the sample (not extrapolated —
    /// the source of the inaccuracy the paper describes).
    distincts: HashMap<(String, String), f64>,
}

impl LeafStats for PilotEstimates {
    fn leaf_size(&self, _spec: &QuerySpec, alias: &str) -> Result<f64> {
        Ok(*self.sizes.get(alias).unwrap_or(&1.0))
    }

    fn leaf_distinct(&self, _spec: &QuerySpec, alias: &str, column: &str, cap: f64) -> f64 {
        self.distincts
            .get(&(alias.to_string(), column.to_string()))
            .copied()
            .unwrap_or(cap)
            .min(cap.max(1.0))
            .max(1.0)
    }
}

/// Per-partition partial of one dataset's pilot probe, merged in partition
/// order on the coordinator.
struct ProbePartial {
    sampled: u64,
    qualified: u64,
    bytes: u64,
    builders: Vec<ColumnStatsBuilder>,
}

impl PilotRunOptimizer {
    /// Runs the pilot queries: scans up to `sample_limit` rows of each dataset
    /// (spread across its partitions), applies the dataset's local predicates
    /// and collects sample statistics on its join-key columns. One probe task
    /// per partition, mapped over the worker pool.
    fn pilot_runs(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
    ) -> Result<(PilotEstimates, ExecutionMetrics)> {
        let mut metrics = ExecutionMetrics::new();
        let mut sizes = HashMap::new();
        let mut distincts = HashMap::new();
        let key_columns = spec.join_key_columns();

        for dataset in &spec.datasets {
            let table = catalog.table_handle(&dataset.table)?;
            let mut schema = table.schema().clone();
            if dataset.alias != dataset.table {
                schema = schema.with_dataset(&dataset.alias);
            }
            let predicates: Vec<_> = spec
                .predicates_for(&dataset.alias)
                .into_iter()
                .cloned()
                .collect();
            let tracked: Vec<String> = key_columns.get(&dataset.alias).cloned().unwrap_or_default();
            let tracked_indexes: Vec<(String, usize)> = tracked
                .iter()
                .filter_map(|col| {
                    schema
                        .index_of_unqualified(col)
                        .ok()
                        .map(|idx| (col.clone(), idx))
                })
                .collect();

            let per_partition = (self.sample_limit / table.num_partitions().max(1)).max(1);
            let probe = |p: usize| -> Result<ProbePartial> {
                let mut partial = ProbePartial {
                    sampled: 0,
                    qualified: 0,
                    bytes: 0,
                    builders: tracked_indexes
                        .iter()
                        .map(|_| ColumnStatsBuilder::new())
                        .collect(),
                };
                let mut remaining = per_partition;
                table.scan_batches(p, |batch| {
                    let head = if batch.num_rows() > remaining {
                        batch.take(&(0..remaining as u32).collect::<Vec<_>>())
                    } else {
                        batch.clone()
                    };
                    let mask = evaluate_all_batch(&predicates, &schema, &head)?;
                    partial.sampled += head.num_rows() as u64;
                    partial.bytes += head.approx_bytes() as u64;
                    partial.qualified += mask.iter().filter(|&&m| m).count() as u64;
                    for ((_, idx), builder) in
                        tracked_indexes.iter().zip(partial.builders.iter_mut())
                    {
                        builder.observe_column(&head.column(*idx).filter(&mask));
                    }
                    remaining = remaining.saturating_sub(batch.num_rows());
                    Ok(remaining > 0)
                })?;
                Ok(partial)
            };

            // One probe task per partition. Partials merge in partition order;
            // sample counts are plain sums and the distinct sketches merge
            // through HyperLogLog unions, so the estimates are identical
            // for every worker count.
            let partials = self.pool.map_indexed(table.num_partitions(), probe);
            let mut sampled = 0u64;
            let mut qualified = 0u64;
            let mut builders: Vec<(String, ColumnStatsBuilder)> = tracked_indexes
                .iter()
                .map(|(col, _)| (col.clone(), ColumnStatsBuilder::new()))
                .collect();
            for partial in partials {
                let partial = partial?;
                sampled += partial.sampled;
                qualified += partial.qualified;
                metrics.bytes_scanned += partial.bytes;
                for ((_, merged), built) in builders.iter_mut().zip(partial.builders.iter()) {
                    merged.merge(built);
                }
            }
            metrics.rows_scanned += sampled;
            metrics.output_rows += qualified;
            metrics.stats_values_observed += qualified * builders.len() as u64;

            let total_rows = table.row_count() as f64;
            let fraction = if sampled == 0 {
                1.0
            } else {
                qualified as f64 / sampled as f64
            };
            sizes.insert(dataset.alias.clone(), (total_rows * fraction).max(1.0));
            for (col, builder) in builders {
                let stats = builder.build();
                distincts.insert((dataset.alias.clone(), col), stats.distinct.max(1) as f64);
            }
        }
        Ok((PilotEstimates { sizes, distincts }, metrics))
    }
}

impl Optimizer for PilotRunOptimizer {
    fn name(&self) -> &'static str {
        "pilot-run"
    }

    fn plan(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        stats: &StatsCatalog,
    ) -> Result<PhysicalPlan> {
        self.plan_with_overhead(spec, catalog, stats)
            .map(|(p, _)| p)
    }

    fn plan_with_overhead(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        _stats: &StatsCatalog,
    ) -> Result<(PhysicalPlan, ExecutionMetrics)> {
        let (estimates, overhead) = self.pilot_runs(spec, catalog)?;
        let plan = dp_full_plan(spec, catalog, &estimates, &self.rule)?;
        Ok((plan, overhead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DatasetRef;
    use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, ParallelConfig, ParallelExecutor, Predicate};
    use rdo_storage::IngestOptions;

    /// fact has 20_000 rows with 10_000 distinct foreign keys — a bounded sample
    /// can only ever see `sample_limit` of them.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let fact_schema =
            Schema::for_dataset("fact", &[("id", DataType::Int64), ("fk", DataType::Int64)]);
        let fact_rows = (0..20_000)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10_000)]))
            .collect();
        cat.ingest(
            "fact",
            Relation::new(fact_schema, fact_rows).unwrap(),
            IngestOptions::partitioned_on("id"),
        )
        .unwrap();

        let dim_schema =
            Schema::for_dataset("dim", &[("pk", DataType::Int64), ("v", DataType::Int64)]);
        let dim_rows = (0..10_000)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 3)]))
            .collect();
        cat.ingest(
            "dim",
            Relation::new(dim_schema, dim_rows).unwrap(),
            IngestOptions::partitioned_on("pk"),
        )
        .unwrap();
        cat
    }

    fn spec() -> QuerySpec {
        QuerySpec::new("q")
            .with_dataset(DatasetRef::named("fact"))
            .with_dataset(DatasetRef::named("dim"))
            .with_join(FieldRef::new("fact", "fk"), FieldRef::new("dim", "pk"))
    }

    #[test]
    fn pilot_runs_charge_overhead_and_produce_a_plan() {
        let cat = catalog();
        let opt = PilotRunOptimizer::new(JoinAlgorithmRule::default(), 1_000);
        assert_eq!(opt.name(), "pilot-run");
        let (plan, overhead) = opt.plan_with_overhead(&spec(), &cat, cat.stats()).unwrap();
        assert!(overhead.rows_scanned > 0, "pilot runs scan sample rows");
        assert!(overhead.rows_scanned <= 2 * 1_000_u64 + 8);
        let exec = ParallelExecutor::new(&cat, ParallelConfig::serial());
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(
            rel.len(),
            20_000,
            "every fact row joins exactly one dim row"
        );
    }

    #[test]
    fn sample_distinct_counts_underestimate_foreign_keys() {
        let cat = catalog();
        let opt = PilotRunOptimizer::new(JoinAlgorithmRule::default(), 400);
        let (estimates, _) = opt.pilot_runs(&spec(), &cat).unwrap();
        let d = estimates.distincts[&("fact".to_string(), "fk".to_string())];
        assert!(
            d < 1_000.0,
            "a 400-row sample cannot see the 10_000 distinct foreign keys (got {d})"
        );
        // Sizes, on the other hand, extrapolate correctly when there is no filter.
        assert!((estimates.sizes["fact"] - 20_000.0).abs() < 1.0);
    }

    #[test]
    fn pool_backed_probes_match_the_serial_probes_exactly() {
        let cat = catalog();
        let q = spec().with_predicate(Predicate::compare(
            FieldRef::new("dim", "v"),
            CmpOp::Eq,
            1i64,
        ));
        let one_worker = PilotRunOptimizer::new(JoinAlgorithmRule::default(), 800);
        let (expected, expected_metrics) = one_worker.pilot_runs(&q, &cat).unwrap();
        for workers in [2, 4, 8] {
            let parallel = PilotRunOptimizer::new(JoinAlgorithmRule::default(), 800)
                .with_pool(WorkerPool::new(workers));
            let (estimates, metrics) = parallel.pilot_runs(&q, &cat).unwrap();
            assert_eq!(metrics, expected_metrics, "workers={workers}");
            assert_eq!(estimates.sizes, expected.sizes, "workers={workers}");
            assert_eq!(estimates.distincts, expected.distincts, "workers={workers}");
        }
    }

    #[test]
    fn predicates_are_applied_during_pilot_runs() {
        let cat = catalog();
        let q = spec().with_predicate(Predicate::compare(
            FieldRef::new("dim", "v"),
            CmpOp::Eq,
            0i64,
        ));
        let opt = PilotRunOptimizer::new(JoinAlgorithmRule::default(), 999);
        let (estimates, _) = opt.pilot_runs(&q, &cat).unwrap();
        let size = estimates.sizes["dim"];
        assert!(
            (size - 10_000.0 / 3.0).abs() < 700.0,
            "filtered dim size should extrapolate to ~3_333, got {size}"
        );
    }
}
