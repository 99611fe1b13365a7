//! Detection of correlated local predicates.
//!
//! The paper's central argument for executing predicates before planning is
//! that "traditional optimizers assume predicate independence and thus the
//! total selectivity is computed by multiplying the individual ones. This
//! approach can easily lead to inaccurate estimations" (Section 5.1, citing
//! CORDS). This module quantifies that error for a concrete dataset: given the
//! local predicates of one dataset, it measures each predicate's marginal
//! selectivity, the true combined selectivity, and the ratio between the truth
//! and the independence-assumption estimate. The dynamic driver never needs
//! this (it simply executes the predicates), but the report explains *why* the
//! static baselines go wrong on queries like TPC-H Q8, and it doubles as a
//! CORDS-style screening tool for deciding which datasets benefit most from
//! predicate push-down.

use crate::query::QuerySpec;
use rdo_common::{Relation, Result};
use rdo_exec::Predicate;
use rdo_sketch::DatasetStats;
use rdo_storage::Catalog;
use std::fmt;

/// The measured selectivities of one dataset's local predicates.
#[derive(Debug, Clone)]
pub struct CorrelationReport {
    /// Dataset alias the predicates are local to.
    pub alias: String,
    /// Rows examined (the whole relation or a sample).
    pub rows_examined: u64,
    /// Marginal (single-predicate) selectivities, in predicate order.
    pub marginal_selectivities: Vec<f64>,
    /// True selectivity of the conjunction.
    pub combined_selectivity: f64,
    /// What a static optimizer would estimate for the conjunction under the
    /// independence assumption (the product of its per-predicate estimates,
    /// which themselves fall back to the System-R defaults for complex
    /// predicates).
    pub independence_estimate: f64,
}

impl CorrelationReport {
    /// The product of the *measured* marginal selectivities — the best an
    /// optimizer could do under the independence assumption even with perfect
    /// per-predicate statistics.
    pub fn independence_with_perfect_marginals(&self) -> f64 {
        self.marginal_selectivities.iter().product()
    }

    /// Correlation factor: true combined selectivity divided by the product of
    /// the measured marginals. `1.0` means the predicates are independent;
    /// values well above `1.0` mean the conjunction keeps far more rows than an
    /// independence-assuming optimizer would predict (positively correlated
    /// predicates, the TPC-H Q8 `o_orderdate`/`o_orderstatus` case); values
    /// below `1.0` mean the predicates are mutually exclusive-ish.
    pub fn correlation_factor(&self) -> f64 {
        let independent = self.independence_with_perfect_marginals();
        if independent <= 0.0 {
            if self.combined_selectivity > 0.0 {
                f64::INFINITY
            } else {
                1.0
            }
        } else {
            self.combined_selectivity / independent
        }
    }

    /// Cardinality-estimation error factor of the full static estimate
    /// (histogram/default-factor marginals multiplied together) relative to the
    /// truth: `max(est, truth) / min(est, truth)`, i.e. ≥ 1, where 1 is a
    /// perfect estimate.
    pub fn static_error_factor(&self) -> f64 {
        let estimate = self.independence_estimate.max(f64::MIN_POSITIVE);
        let truth = self.combined_selectivity.max(f64::MIN_POSITIVE);
        (estimate / truth).max(truth / estimate)
    }

    /// True if the predicates deviate from independence by more than `threshold`
    /// in either direction (e.g. `2.0` flags conjunctions that are at least 2×
    /// off under the independence assumption).
    pub fn is_correlated(&self, threshold: f64) -> bool {
        let factor = self.correlation_factor();
        let threshold = threshold.max(1.0);
        !factor.is_finite() || factor >= threshold || factor <= 1.0 / threshold
    }
}

impl fmt::Display for CorrelationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: combined selectivity {:.5}, independence estimate {:.5} (perfect marginals {:.5}), correlation factor {:.2}",
            self.alias,
            self.combined_selectivity,
            self.independence_estimate,
            self.independence_with_perfect_marginals(),
            self.correlation_factor()
        )
    }
}

/// Measures the marginal and combined selectivities of `predicates` over
/// `relation` (the base data of one dataset, or a sample of it). `stats` is
/// what a static optimizer would consult for its per-predicate estimates,
/// keyed by the relation's columns; pass `None` to force the System-R default
/// factors.
pub fn analyze_predicates(
    alias: &str,
    relation: &Relation,
    predicates: &[&Predicate],
    stats: Option<&DatasetStats>,
) -> Result<CorrelationReport> {
    let schema = relation.schema();
    let mut marginal_hits = vec![0u64; predicates.len()];
    let mut combined_hits = 0u64;
    for row in relation.rows() {
        let mut all = true;
        for (index, predicate) in predicates.iter().enumerate() {
            if predicate.evaluate(schema, row)? {
                marginal_hits[index] += 1;
            } else {
                all = false;
            }
        }
        if all && !predicates.is_empty() {
            combined_hits += 1;
        }
    }
    let total = relation.len().max(1) as f64;
    let marginal_selectivities = marginal_hits
        .iter()
        .map(|&hits| hits as f64 / total)
        .collect();
    let independence_estimate = predicates
        .iter()
        .map(|p| p.estimate_selectivity(stats.and_then(|s| s.column(p.field()))))
        .product();
    Ok(CorrelationReport {
        alias: alias.to_string(),
        rows_examined: relation.len() as u64,
        marginal_selectivities,
        combined_selectivity: if predicates.is_empty() {
            1.0
        } else {
            combined_hits as f64 / total
        },
        independence_estimate,
    })
}

/// Analyzes every dataset of `spec` that carries at least two local
/// predicates, over the rows and the ingestion statistics of its table in
/// `catalog`, both seen under the dataset's alias. Returns one report per
/// multi-predicate dataset, in FROM-clause order — the same datasets
/// Algorithm 1 pushes down.
pub fn analyze_query(spec: &QuerySpec, catalog: &Catalog) -> Result<Vec<CorrelationReport>> {
    let mut reports = Vec::new();
    for alias in spec.aliases() {
        let predicates = spec.predicates_for(alias);
        if predicates.len() < 2 {
            continue;
        }
        let table = catalog.table(spec.table_of(alias)?)?;
        let relation = Relation::new(table.schema_as(alias), table.try_gather()?.into_rows())?;
        let stats = catalog.stats().get(table.name()).map(|stats| DatasetStats {
            row_count: stats.row_count,
            columns: (relation.schema().fields().iter())
                .zip(table.schema().fields())
                .filter_map(|(seen, stored)| {
                    Some((seen.name.clone(), stats.column(&stored.name)?.clone()))
                })
                .collect(),
        });
        reports.push(analyze_predicates(
            alias,
            &relation,
            &predicates,
            stats.as_ref(),
        )?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::DatasetRef;
    use rdo_common::{DataType, FieldRef, Schema, Tuple, Value};
    use rdo_exec::CmpOp;
    use rdo_sketch::DatasetStatsBuilder;

    /// orders(o_orderdate, o_orderstatus) where the status is fully determined
    /// by the date — the paper's correlated-predicate example from Q8.
    fn orders(n: i64) -> Relation {
        let schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderdate", DataType::Int64),
                ("o_orderstatus", DataType::Utf8),
                ("o_shippriority", DataType::Int64),
            ],
        );
        let rows = (0..n)
            .map(|i| {
                let date = i % 1_000;
                let status = if date < 500 { "F" } else { "O" };
                Tuple::new(vec![
                    Value::Int64(date),
                    Value::from(status),
                    Value::Int64(i % 4),
                ])
            })
            .collect();
        Relation::new(schema, rows).unwrap()
    }

    fn stats(relation: &Relation) -> DatasetStats {
        let mut builder = DatasetStatsBuilder::all_columns(relation.schema());
        builder.observe_relation(relation);
        builder.build()
    }

    fn date_predicate() -> Predicate {
        Predicate::between(FieldRef::new("orders", "o_orderdate"), 0i64, 499i64)
    }

    fn status_predicate() -> Predicate {
        Predicate::compare(FieldRef::new("orders", "o_orderstatus"), CmpOp::Eq, "F")
    }

    fn priority_predicate() -> Predicate {
        Predicate::compare(FieldRef::new("orders", "o_shippriority"), CmpOp::Eq, 0i64)
    }

    #[test]
    fn correlated_pair_is_flagged() {
        let relation = orders(10_000);
        let stats = stats(&relation);
        let date = date_predicate();
        let status = status_predicate();
        let report =
            analyze_predicates("orders", &relation, &[&date, &status], Some(&stats)).unwrap();
        // Both marginals are ~0.5, the conjunction is also ~0.5 (status is
        // implied by the date), so independence underestimates by ~2x.
        assert!((report.marginal_selectivities[0] - 0.5).abs() < 0.02);
        assert!((report.marginal_selectivities[1] - 0.5).abs() < 0.02);
        assert!((report.combined_selectivity - 0.5).abs() < 0.02);
        assert!(report.correlation_factor() > 1.8, "{report}");
        assert!(report.is_correlated(1.5));
        assert!(report.static_error_factor() > 1.5);
        assert_eq!(report.rows_examined, 10_000);
    }

    #[test]
    fn independent_pair_has_factor_near_one() {
        let relation = orders(10_000);
        let stats = stats(&relation);
        let date = date_predicate();
        let priority = priority_predicate();
        let report =
            analyze_predicates("orders", &relation, &[&date, &priority], Some(&stats)).unwrap();
        let factor = report.correlation_factor();
        assert!((factor - 1.0).abs() < 0.1, "factor {factor}");
        assert!(!report.is_correlated(1.5));
    }

    #[test]
    fn complex_predicates_fall_back_to_default_estimates() {
        let relation = orders(1_000);
        let date = date_predicate().parameterized();
        let status = status_predicate().parameterized();
        let report = analyze_predicates("orders", &relation, &[&date, &status], None).unwrap();
        // 1/4 (BETWEEN default) × 1/10 (equality default).
        assert!((report.independence_estimate - 0.025).abs() < 1e-9);
        // The truth is ~0.5, so the static estimate is ~20x off.
        assert!(report.static_error_factor() > 10.0);
    }

    #[test]
    fn empty_predicate_list_and_empty_relation_are_safe() {
        let relation = orders(100);
        let report = analyze_predicates("orders", &relation, &[], None).unwrap();
        assert_eq!(report.combined_selectivity, 1.0);
        assert_eq!(report.correlation_factor(), 1.0);

        let empty = Relation::empty(relation.schema().clone());
        let date = date_predicate();
        let report = analyze_predicates("orders", &empty, &[&date], None).unwrap();
        assert_eq!(report.rows_examined, 0);
        assert_eq!(report.combined_selectivity, 0.0);
    }

    #[test]
    fn analyze_query_covers_only_multi_predicate_datasets() {
        let spec = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("orders"))
            .with_dataset(DatasetRef::named("lineitem"))
            .with_join(
                FieldRef::new("orders", "o_orderdate"),
                FieldRef::new("lineitem", "l_orderkey"),
            )
            .with_predicate(date_predicate())
            .with_predicate(status_predicate())
            .with_predicate(Predicate::compare(
                FieldRef::new("lineitem", "l_orderkey"),
                CmpOp::Gt,
                0i64,
            ));
        let mut catalog = Catalog::new(2);
        catalog
            .ingest("orders", orders(2_000), Default::default())
            .unwrap();
        let reports = analyze_query(&spec, &catalog).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].alias, "orders");
        assert!(reports[0].correlation_factor() > 1.5);
        let rendered = reports[0].to_string();
        assert!(rendered.contains("orders"));
        assert!(rendered.contains("correlation factor"));
    }
}
