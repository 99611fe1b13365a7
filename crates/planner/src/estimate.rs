//! Cardinality estimation.
//!
//! The estimator implements the System-R join-size formula the paper uses
//! (Section 4, formula 1):
//!
//! ```text
//! |A ⋈k B| = S(A) · S(B) / max(U(A.k), U(B.k))
//! ```
//!
//! where `S(x)` is the number of qualified rows of `x` immediately before the
//! join and `U(x.k)` the number of distinct values of the join key. The
//! formula is written once, in [`SizeEstimator::join_size`], and applied once,
//! in the planner's one join step
//! ([`join_subplans`](crate::optimizers::join_subplans)), which the dynamic
//! Planner and every static baseline share. The way `S(x)` is obtained is
//! what distinguishes the strategies:
//!
//! * [`EstimationMode::Static`] — initial (ingestion) statistics, independence
//!   assumption for multiple predicates, System-R default factors for complex
//!   predicates. This is what the cost-based baseline sees.
//! * [`EstimationMode::Oracle`] — the true post-predicate cardinality, obtained
//!   by evaluating the predicates against the stored table. This is what the
//!   best-order / worst-order baselines use (the paper derives those orders from
//!   the sizes computed during the dynamic optimization itself).
//!
//! The dynamic approach never needs the oracle: after the predicate push-down
//! stage the filtered datasets *are* materialized and their statistics are exact.

use crate::learned::LearnedStatsCatalog;
use crate::query::QuerySpec;
use rdo_common::{FieldRef, Result};
use rdo_exec::expr::evaluate_all_batch;
use rdo_sketch::{ColumnStats, DatasetStats, StatsCatalog};
use rdo_storage::Catalog;

/// How the estimator obtains post-predicate dataset sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationMode {
    /// Histogram-based selectivities with independence assumption and default
    /// factors for complex predicates.
    Static,
    /// Exact post-predicate cardinalities obtained by evaluating the predicates.
    Oracle,
}

/// Cardinality estimator over a statistics catalog.
pub struct SizeEstimator<'a> {
    catalog: &'a Catalog,
    stats: &'a StatsCatalog,
    mode: EstimationMode,
    learned: Option<&'a LearnedStatsCatalog>,
}

impl<'a> SizeEstimator<'a> {
    /// Creates an estimator. `stats` is passed separately from the catalog so
    /// the dynamic driver can hand in its updated (online) statistics.
    pub fn new(catalog: &'a Catalog, stats: &'a StatsCatalog, mode: EstimationMode) -> Self {
        Self {
            catalog,
            stats,
            mode,
            learned: None,
        }
    }

    /// Seeds static estimation from a learned-statistics catalog (builder
    /// style): when a filtered dataset's value-qualified signature has a
    /// measured cardinality from an earlier run, [`SizeEstimator::dataset_size`]
    /// returns it instead of multiplying histogram selectivities under the
    /// independence assumption. Oracle-mode estimation is unaffected (it is
    /// already exact).
    pub fn with_learned(mut self, learned: &'a LearnedStatsCatalog) -> Self {
        self.learned = Some(learned);
        self
    }

    /// The raw (pre-predicate) row count of the dataset behind `alias`.
    pub fn base_rows(&self, spec: &QuerySpec, alias: &str) -> Result<f64> {
        let table = spec.table_of(alias)?;
        // Statistics are registered under physical table names; when the dynamic
        // driver replaces a base dataset by its filtered intermediate, the alias
        // is re-pointed at the intermediate table, so the table lookup finds the
        // fresh statistics. The alias lookup is a fallback for specs that use
        // the intermediate's name directly.
        if let Some(rows) = self.stats.row_count(table) {
            return Ok(rows as f64);
        }
        if let Some(rows) = self.stats.row_count(alias) {
            return Ok(rows as f64);
        }
        Ok(self.catalog.table(table)?.row_count() as f64)
    }

    /// The estimated number of qualified rows of `alias` after its local
    /// predicates — `S(alias)` in formula 1.
    pub fn dataset_size(&self, spec: &QuerySpec, alias: &str) -> Result<f64> {
        let base = self.base_rows(spec, alias)?;
        let predicates: Vec<_> = spec.predicates_for(alias).into_iter().cloned().collect();
        if predicates.is_empty() {
            return Ok(base);
        }
        match self.mode {
            EstimationMode::Static => {
                let table = spec.table_of(alias)?;
                if let Some(learned) = self.learned {
                    let key = LearnedStatsCatalog::filter_key(table, &predicates);
                    if let Some(rows) = learned.lookup(&key) {
                        return Ok(rows as f64);
                    }
                }
                let selectivity: f64 = predicates
                    .iter()
                    .map(|p| p.estimate_selectivity(self.column_stats(spec, p.field())))
                    .product();
                Ok((base * selectivity).max(1.0))
            }
            EstimationMode::Oracle => self.oracle_filtered_rows(spec, alias),
        }
    }

    /// Exact number of rows of `alias` passing its local predicates, computed by
    /// evaluating them against the stored table.
    pub fn oracle_filtered_rows(&self, spec: &QuerySpec, alias: &str) -> Result<f64> {
        let table = self.catalog.table(spec.table_of(alias)?)?;
        let schema = table.schema_as(alias);
        let predicates: Vec<_> = spec.predicates_for(alias).into_iter().cloned().collect();
        let mut count = 0u64;
        // Streamed so the oracle also works on spilled intermediates.
        for p in 0..table.num_partitions() {
            table.scan_batches(p, |batch| {
                let mask = evaluate_all_batch(&predicates, &schema, batch)?;
                count += mask.iter().filter(|&&m| m).count() as u64;
                Ok(true)
            })?;
        }
        Ok(count as f64)
    }

    /// The statistics of the table holding `column`, and the identity the
    /// table stores the column under (what its statistics are keyed by).
    fn stats_of(
        &self,
        spec: &QuerySpec,
        column: &FieldRef,
    ) -> Option<(&'a DatasetStats, &'a FieldRef)> {
        let alias = spec.home_of(column);
        let table = spec.table_of(alias).ok()?;
        let stored = self
            .catalog
            .table(table)
            .ok()?
            .stored_column(alias, column)
            .ok()?;
        Some((self.stats.get(table)?, stored))
    }

    /// The statistics of one column, if its table tracks it.
    fn column_stats(&self, spec: &QuerySpec, column: &FieldRef) -> Option<&'a ColumnStats> {
        self.stats_of(spec, column)
            .and_then(|(stats, stored)| stats.column(stored))
    }

    /// Estimated number of distinct values of `column`, capped at `size_hint`
    /// (a dataset filtered down to `n` rows cannot have more than `n`
    /// distinct key values).
    pub fn column_distinct(&self, spec: &QuerySpec, column: &FieldRef, size_hint: f64) -> f64 {
        let distinct = self
            .stats_of(spec, column)
            .map(|(stats, stored)| stats.distinct_or_rowcount(stored))
            .unwrap_or(size_hint);
        distinct.min(size_hint.max(1.0)).max(1.0)
    }

    /// Formula 1, the planner's one join-size estimate: `S(A)·S(B) /
    /// max(U(A.k), U(B.k))`, with the denominator at least 1. A composite-key
    /// join passes the largest distinct count of each side.
    pub fn join_size(s_a: f64, s_b: f64, u_a: f64, u_b: f64) -> f64 {
        let denom = u_a.max(u_b).max(1.0);
        (s_a * s_b / denom).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DatasetRef;
    use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, Predicate};
    use rdo_storage::IngestOptions;

    /// orders: 10_000 rows, o_custkey has 1_000 distinct values, o_status is
    /// perfectly correlated with o_priority (both derived from i % 4).
    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
                ("o_status", DataType::Int64),
                ("o_priority", DataType::Int64),
            ],
        );
        let rows = (0..10_000)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Int64(i % 1_000),
                    Value::Int64(i % 4),
                    Value::Int64(i % 4),
                ])
            })
            .collect();
        cat.ingest(
            "orders",
            Relation::new(schema, rows).unwrap(),
            IngestOptions::partitioned_on("o_orderkey"),
        )
        .unwrap();

        let cust_schema = Schema::for_dataset(
            "customer",
            &[
                ("c_custkey", DataType::Int64),
                ("c_nation", DataType::Int64),
            ],
        );
        let cust_rows = (0..1_000)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 25)]))
            .collect();
        cat.ingest(
            "customer",
            Relation::new(cust_schema, cust_rows).unwrap(),
            IngestOptions::partitioned_on("c_custkey"),
        )
        .unwrap();
        cat
    }

    fn spec() -> QuerySpec {
        QuerySpec::new("q")
            .with_dataset(DatasetRef::named("orders"))
            .with_dataset(DatasetRef::named("customer"))
            .with_join(
                FieldRef::new("orders", "o_custkey"),
                FieldRef::new("customer", "c_custkey"),
            )
    }

    #[test]
    fn base_rows_from_stats() {
        let cat = catalog();
        let est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        assert_eq!(est.base_rows(&spec(), "orders").unwrap(), 10_000.0);
        assert_eq!(est.base_rows(&spec(), "customer").unwrap(), 1_000.0);
    }

    #[test]
    fn static_size_uses_histogram_for_simple_predicates() {
        let cat = catalog();
        let q = spec().with_predicate(Predicate::compare(
            FieldRef::new("orders", "o_custkey"),
            CmpOp::Lt,
            100i64,
        ));
        let est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let size = est.dataset_size(&q, "orders").unwrap();
        assert!(
            (size - 1_000.0).abs() < 400.0,
            "≈10% of 10k rows, got {size}"
        );
    }

    #[test]
    fn static_size_multiplies_correlated_predicates_incorrectly() {
        // Both predicates select the same rows (o_status = 1 ⇔ o_priority = 1,
        // 25% each). The truth is 2_500 rows; the independence assumption gives
        // ~625 — the error the paper's predicate push-down removes.
        let cat = catalog();
        let q = spec()
            .with_predicate(Predicate::compare(
                FieldRef::new("orders", "o_status"),
                CmpOp::Eq,
                1i64,
            ))
            .with_predicate(Predicate::compare(
                FieldRef::new("orders", "o_priority"),
                CmpOp::Eq,
                1i64,
            ));
        let static_est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static)
            .dataset_size(&q, "orders")
            .unwrap();
        let oracle_est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Oracle)
            .dataset_size(&q, "orders")
            .unwrap();
        assert_eq!(oracle_est, 2_500.0);
        assert!(
            static_est < oracle_est / 2.0,
            "static {static_est} should underestimate the correlated truth {oracle_est}"
        );
    }

    #[test]
    fn complex_predicates_fall_back_to_default_factor() {
        let cat = catalog();
        let q = spec().with_predicate(Predicate::udf(
            "is_special",
            FieldRef::new("orders", "o_status"),
            |v| v.as_i64() == Some(2),
        ));
        let static_est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static)
            .dataset_size(&q, "orders")
            .unwrap();
        assert!((static_est - 1_000.0).abs() < 1e-6, "10% default factor");
        let oracle_est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Oracle)
            .dataset_size(&q, "orders")
            .unwrap();
        assert_eq!(oracle_est, 2_500.0);
    }

    #[test]
    fn join_formula_matches_selinger() {
        assert_eq!(SizeEstimator::join_size(100.0, 200.0, 10.0, 50.0), 400.0);
        assert_eq!(SizeEstimator::join_size(100.0, 200.0, 0.0, 0.0), 20_000.0);
    }

    #[test]
    fn pk_fk_join_estimate() {
        use crate::optimizers::{join_subplans, SubPlan};
        use crate::JoinAlgorithmRule;
        let cat = catalog();
        let q = spec();
        let est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let leaf = |alias| SubPlan::leaf(&q, alias, est.dataset_size(&q, alias).unwrap()).unwrap();
        let rule = JoinAlgorithmRule::default();
        let joined = join_subplans(&q, &cat, &est, &rule, &leaf("orders"), &leaf("customer"))
            .unwrap()
            .expect("a join condition connects the two");
        // Every order matches exactly one customer → ~10_000 rows.
        let card = joined.est_rows;
        assert!(
            (card - 10_000.0).abs() < 1_500.0,
            "estimated {card}, expected ≈10_000"
        );
    }

    #[test]
    fn distinct_capped_by_size_hint() {
        let cat = catalog();
        let q = spec();
        let est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let d = est.column_distinct(&q, &FieldRef::new("orders", "o_custkey"), 50.0);
        assert_eq!(
            d, 50.0,
            "a 50-row filtered dataset has at most 50 distinct keys"
        );
    }

    #[test]
    fn learned_stats_override_static_estimation() {
        let cat = catalog();
        // The correlated pair from `static_size_multiplies_correlated_predicates_incorrectly`:
        // the truth is 2_500 rows, the independence assumption says ~625.
        let q = spec()
            .with_predicate(Predicate::compare(
                FieldRef::new("orders", "o_status"),
                CmpOp::Eq,
                1i64,
            ))
            .with_predicate(Predicate::compare(
                FieldRef::new("orders", "o_priority"),
                CmpOp::Eq,
                1i64,
            ));
        let unseeded = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static)
            .dataset_size(&q, "orders")
            .unwrap();
        let learned = LearnedStatsCatalog::new();
        let preds: Vec<_> = q.predicates_for("orders").into_iter().cloned().collect();
        learned.observe(&LearnedStatsCatalog::filter_key("orders", &preds), 2_500);
        let est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let seeded = est
            .with_learned(&learned)
            .dataset_size(&q, "orders")
            .unwrap();
        assert_eq!(seeded, 2_500.0, "measured cardinality wins");
        assert_ne!(seeded, unseeded);
        assert_eq!(learned.hits(), 1);

        // A signature with different constants misses and falls back to the
        // static estimate.
        let other = spec().with_predicate(Predicate::compare(
            FieldRef::new("orders", "o_status"),
            CmpOp::Eq,
            2i64,
        ));
        let est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        let fallback = est
            .with_learned(&learned)
            .dataset_size(&other, "orders")
            .unwrap();
        let static_est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static)
            .dataset_size(&other, "orders")
            .unwrap();
        assert_eq!(fallback, static_est);
        assert_eq!(learned.misses(), 1);
    }

    #[test]
    fn alias_stats_take_precedence_over_table_stats() {
        let mut cat = catalog();
        // Pretend the alias "orders" was replaced by a filtered intermediate of
        // 42 rows (what the predicate push-down stage does).
        let schema = Schema::for_dataset("orders", &[("o_custkey", DataType::Int64)]);
        let rows = (0..42).map(|i| Tuple::new(vec![Value::Int64(i)])).collect();
        cat.register_intermediate(
            "orders_filtered",
            Relation::new(schema, rows).unwrap(),
            None,
            &["o_custkey".to_string()],
            true,
        )
        .unwrap();
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::aliased("orders", "orders_filtered"))
            .with_dataset(DatasetRef::named("customer"))
            .with_join(
                FieldRef::new("orders", "o_custkey"),
                FieldRef::new("customer", "c_custkey"),
            );
        let est = SizeEstimator::new(&cat, cat.stats(), EstimationMode::Static);
        // The alias now resolves through the intermediate table, so the fresh
        // post-filter cardinality (42) is used instead of the base 10_000.
        assert_eq!(est.base_rows(&q, "orders").unwrap(), 42.0);
        assert_eq!(cat.stats().row_count("orders_filtered"), Some(42));
    }
}
