//! Selection predicates, including the "complex" predicates (UDFs and
//! parameterized values) whose selectivity a static optimizer cannot estimate.
//!
//! Section 5.1 of the paper distinguishes three cases:
//!
//! 1. a single fixed-value predicate — estimable from the equi-height histogram;
//! 2. multiple fixed-value predicates — traditional optimizers multiply the
//!    individual selectivities (assuming independence), which is wrong under
//!    correlation;
//! 3. complex predicates (UDFs, parameterized values) — traditional optimizers
//!    fall back to the System-R default factors (1/10 for equality, 1/3 for
//!    inequalities).
//!
//! The dynamic approach instead *executes* such predicates first and measures
//! the result, so [`Predicate::evaluate`] is the ground truth while
//! [`Predicate::estimate_selectivity`] is what the static baselines see.

use rdo_common::batch::utf8_slot;
use rdo_common::{Batch, Column, FieldRef, NullBitmap, RdoError, Result, Schema, Tuple, Value};
use rdo_sketch::ColumnStats;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Comparison operators supported in the WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn apply(&self, lhs: &Value, rhs: &Value) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The System-R default selectivity factor used when nothing is known about
    /// the operand (Selinger et al., as cited by the paper).
    pub fn default_selectivity(&self) -> f64 {
        match self {
            CmpOp::Eq => 0.1,
            CmpOp::Ne => 0.9,
            _ => 1.0 / 3.0,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A user-defined boolean function over one column value.
pub type UdfFn = Arc<dyn Fn(&Value) -> bool + Send + Sync>;

/// The expression forms a local predicate can take.
#[derive(Clone)]
pub enum PredicateExpr {
    /// `field op constant`
    Compare {
        /// Column being filtered.
        field: FieldRef,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        value: Value,
    },
    /// `field BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column being filtered.
        field: FieldRef,
        /// Lower bound (inclusive).
        lo: Value,
        /// Upper bound (inclusive).
        hi: Value,
    },
    /// `field IN (values...)`.
    InList {
        /// Column being filtered.
        field: FieldRef,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// `udf(field)` — a black-box boolean UDF.
    Udf {
        /// Name used for display/explain output.
        name: String,
        /// Column the UDF reads.
        field: FieldRef,
        /// The function itself.
        func: UdfFn,
    },
}

impl fmt::Debug for PredicateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredicateExpr::Compare { field, op, value } => {
                write!(f, "{field} {op} {value}")
            }
            PredicateExpr::Between { field, lo, hi } => {
                write!(f, "{field} BETWEEN {lo} AND {hi}")
            }
            PredicateExpr::InList { field, values } => {
                write!(f, "{field} IN ({} values)", values.len())
            }
            PredicateExpr::Udf { name, field, .. } => write!(f, "{name}({field})"),
        }
    }
}

/// A local selection predicate on a single dataset.
#[derive(Debug, Clone)]
pub struct Predicate {
    /// The predicate expression.
    pub expr: PredicateExpr,
    /// True if the constant(s) are query parameters bound only at runtime, so a
    /// static optimizer must use default selectivities even for simple
    /// comparisons.
    pub parameterized: bool,
}

impl Predicate {
    /// A simple comparison with a fixed value.
    pub fn compare(field: FieldRef, op: CmpOp, value: impl Into<Value>) -> Self {
        Self {
            expr: PredicateExpr::Compare {
                field,
                op,
                value: value.into(),
            },
            parameterized: false,
        }
    }

    /// An inclusive range predicate with fixed bounds.
    pub fn between(field: FieldRef, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Self {
            expr: PredicateExpr::Between {
                field,
                lo: lo.into(),
                hi: hi.into(),
            },
            parameterized: false,
        }
    }

    /// An IN-list predicate with fixed values.
    pub fn in_list(field: FieldRef, values: Vec<Value>) -> Self {
        Self {
            expr: PredicateExpr::InList { field, values },
            parameterized: false,
        }
    }

    /// A black-box UDF predicate.
    pub fn udf(
        name: impl Into<String>,
        field: FieldRef,
        func: impl Fn(&Value) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            expr: PredicateExpr::Udf {
                name: name.into(),
                field,
                func: Arc::new(func),
            },
            parameterized: false,
        }
    }

    /// Marks the predicate as parameterized (value bound at runtime).
    pub fn parameterized(mut self) -> Self {
        self.parameterized = true;
        self
    }

    /// The dataset the predicate is local to.
    pub fn dataset(&self) -> &str {
        &self.field().dataset
    }

    /// The column the predicate reads.
    pub fn field(&self) -> &FieldRef {
        match &self.expr {
            PredicateExpr::Compare { field, .. }
            | PredicateExpr::Between { field, .. }
            | PredicateExpr::InList { field, .. }
            | PredicateExpr::Udf { field, .. } => field,
        }
    }

    /// True if the predicate is "complex" in the paper's sense: a UDF or a
    /// parameterized comparison, whose selectivity a static optimizer cannot
    /// derive from histograms.
    pub fn is_complex(&self) -> bool {
        self.parameterized || matches!(self.expr, PredicateExpr::Udf { .. })
    }

    /// Evaluates the predicate against one tuple.
    pub fn evaluate(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        let idx = schema.index_of(self.field())?;
        let value = tuple.value(idx);
        if value.is_null() {
            return Ok(false);
        }
        Ok(self.matches_value(value))
    }

    /// The predicate's decision for a single *non-null* value (the shared
    /// core of the row path and the batch fallback path; NULL handling —
    /// always false — happens at the call sites).
    fn matches_value(&self, value: &Value) -> bool {
        match &self.expr {
            PredicateExpr::Compare { op, value: rhs, .. } => op.apply(value, rhs),
            PredicateExpr::Between { lo, hi, .. } => value >= lo && value <= hi,
            PredicateExpr::InList { values, .. } => values.contains(value),
            PredicateExpr::Udf { func, .. } => func(value),
        }
    }

    /// Evaluates the predicate against a whole [`Batch`] column-at-a-time,
    /// AND-ing the decision into `mask` (one slot per row; rows already
    /// false are left false, NULL slots become false).
    ///
    /// Typed columns with a compatible constant operand run a monomorphic
    /// fast loop over the raw payload slice (no `Value` materialization, no
    /// per-row schema resolution); everything else — [`Column::Mixed`]
    /// columns, UDFs, and cross-type comparisons whose semantics depend on
    /// [`Value`]'s variant order (e.g. a `Date` column against a `Float64`
    /// constant) — falls back to materializing each value and applying the
    /// row-path decision, so both paths agree bit-for-bit by construction.
    pub fn evaluate_batch(&self, schema: &Schema, batch: &Batch, mask: &mut [bool]) -> Result<()> {
        debug_assert_eq!(mask.len(), batch.num_rows());
        let idx = schema.index_of(self.field())?;
        let col = batch.column(idx);
        if self.eval_batch_fast(col, mask) {
            return Ok(());
        }
        for (i, m) in mask.iter_mut().enumerate() {
            if *m {
                let value = col.value(i);
                *m = !value.is_null() && self.matches_value(&value);
            }
        }
        Ok(())
    }

    /// Attempts the columnar fast path; returns false when this
    /// predicate/column pairing needs the row fallback.
    fn eval_batch_fast(&self, col: &Column, mask: &mut [bool]) -> bool {
        match col {
            Column::Int64 { values, validity } => self.eval_int_fast(values, validity, false, mask),
            Column::Date { values, validity } => self.eval_int_fast(values, validity, true, mask),
            Column::Float64 { values, validity } => self.eval_float_fast(values, validity, mask),
            Column::Utf8 {
                offsets,
                bytes,
                validity,
            } => self.eval_utf8_fast(offsets, bytes, validity, mask),
            Column::Bool { values, validity } => self.eval_bool_fast(values, validity, mask),
            Column::Mixed { .. } => false,
        }
    }

    /// Fast path over an `Int64` (or, with `is_date`, a `Date`) payload
    /// slice. A `Date` column refuses `Float64` operands — their relative
    /// order is the cross-type variant order, not numeric — and falls back.
    fn eval_int_fast(
        &self,
        values: &[i64],
        validity: &NullBitmap,
        is_date: bool,
        mask: &mut [bool],
    ) -> bool {
        // One pass over the bitmap up front: NULL-free columns skip the
        // per-slot validity test.
        let no_nulls = validity.all_valid();
        let valid = |i: usize| no_nulls || validity.is_valid(i);
        let rhs_of = |v: &Value| match v {
            Value::Int64(b) | Value::Date(b) => Some(NumRhs::Int(*b)),
            Value::Float64(b) if !is_date => Some(NumRhs::Float(*b)),
            _ => None,
        };
        match &self.expr {
            PredicateExpr::Compare { op, value: rhs, .. } => {
                let Some(rhs) = rhs_of(rhs) else { return false };
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && valid(i) && cmp_matches(*op, rhs.ord_i64(values[i]));
                }
                true
            }
            PredicateExpr::Between { lo, hi, .. } => {
                let (Some(lo), Some(hi)) = (rhs_of(lo), rhs_of(hi)) else {
                    return false;
                };
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m
                        && valid(i)
                        && lo.ord_i64(values[i]) != Ordering::Less
                        && hi.ord_i64(values[i]) != Ordering::Greater;
                }
                true
            }
            PredicateExpr::InList { values: list, .. } => {
                // Unlike Compare/Between, entries of a foreign variant can
                // simply be dropped: they can never be *equal* to an
                // integer/date slot.
                let entries: Vec<NumRhs> = list.iter().filter_map(rhs_of).collect();
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m
                        && valid(i)
                        && entries
                            .iter()
                            .any(|e| e.ord_i64(values[i]) == Ordering::Equal);
                }
                true
            }
            PredicateExpr::Udf { .. } => false,
        }
    }

    /// Fast path over a `Float64` payload slice. `Date` operands fall back
    /// (cross-type variant order); integers widen and compare through the
    /// same NaN-aware total order as [`Value`]'s `Ord`.
    fn eval_float_fast(&self, values: &[f64], validity: &NullBitmap, mask: &mut [bool]) -> bool {
        // One pass over the bitmap up front: NULL-free columns skip the
        // per-slot validity test.
        let no_nulls = validity.all_valid();
        let valid = |i: usize| no_nulls || validity.is_valid(i);
        let rhs_of = |v: &Value| match v {
            Value::Int64(b) => Some(*b as f64),
            Value::Float64(b) => Some(*b),
            _ => None,
        };
        match &self.expr {
            PredicateExpr::Compare { op, value: rhs, .. } => {
                let Some(rhs) = rhs_of(rhs) else { return false };
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && valid(i) && cmp_matches(*op, values[i].total_cmp(&rhs));
                }
                true
            }
            PredicateExpr::Between { lo, hi, .. } => {
                let (Some(lo), Some(hi)) = (rhs_of(lo), rhs_of(hi)) else {
                    return false;
                };
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m
                        && valid(i)
                        && values[i].total_cmp(&lo) != Ordering::Less
                        && values[i].total_cmp(&hi) != Ordering::Greater;
                }
                true
            }
            PredicateExpr::InList { values: list, .. } => {
                let entries: Vec<f64> = list.iter().filter_map(rhs_of).collect();
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m
                        && valid(i)
                        && entries
                            .iter()
                            .any(|e| values[i].total_cmp(e) == Ordering::Equal);
                }
                true
            }
            PredicateExpr::Udf { .. } => false,
        }
    }

    /// Fast path over a `Utf8` column: borrowed `&str` comparisons straight
    /// out of the contiguous byte buffer.
    fn eval_utf8_fast(
        &self,
        offsets: &[usize],
        bytes: &[u8],
        validity: &NullBitmap,
        mask: &mut [bool],
    ) -> bool {
        // One pass over the bitmap up front: NULL-free columns skip the
        // per-slot validity test.
        let no_nulls = validity.all_valid();
        let valid = |i: usize| no_nulls || validity.is_valid(i);
        let str_at = |i: usize| utf8_slot(offsets, bytes, i);
        match &self.expr {
            PredicateExpr::Compare { op, value: rhs, .. } => {
                let Value::Utf8(rhs) = rhs else { return false };
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && valid(i) && cmp_matches(*op, str_at(i).cmp(rhs.as_str()));
                }
                true
            }
            PredicateExpr::Between { lo, hi, .. } => {
                let (Value::Utf8(lo), Value::Utf8(hi)) = (lo, hi) else {
                    return false;
                };
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && valid(i) && str_at(i) >= lo.as_str() && str_at(i) <= hi.as_str();
                }
                true
            }
            PredicateExpr::InList { values: list, .. } => {
                let entries: Vec<&str> = list.iter().filter_map(Value::as_str).collect();
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && valid(i) && entries.contains(&str_at(i));
                }
                true
            }
            PredicateExpr::Udf { .. } => false,
        }
    }

    /// Fast path over a `Bool` payload slice.
    fn eval_bool_fast(&self, values: &[bool], validity: &NullBitmap, mask: &mut [bool]) -> bool {
        // One pass over the bitmap up front: NULL-free columns skip the
        // per-slot validity test.
        let no_nulls = validity.all_valid();
        let valid = |i: usize| no_nulls || validity.is_valid(i);
        match &self.expr {
            PredicateExpr::Compare { op, value: rhs, .. } => {
                let Value::Bool(rhs) = rhs else { return false };
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && valid(i) && cmp_matches(*op, values[i].cmp(rhs));
                }
                true
            }
            PredicateExpr::Between { lo, hi, .. } => {
                let (Value::Bool(lo), Value::Bool(hi)) = (lo, hi) else {
                    return false;
                };
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && valid(i) && values[i] >= *lo && values[i] <= *hi;
                }
                true
            }
            PredicateExpr::InList { values: list, .. } => {
                let entries: Vec<bool> = list.iter().filter_map(Value::as_bool).collect();
                for (i, m) in mask.iter_mut().enumerate() {
                    *m = *m && valid(i) && entries.contains(&values[i]);
                }
                true
            }
            PredicateExpr::Udf { .. } => false,
        }
    }

    /// Selectivity as seen by a *static* optimizer, given the statistics of
    /// the predicate's column: histogram-based for simple fixed-value
    /// predicates, System-R default factors for complex ones (and for a
    /// column without statistics).
    pub fn estimate_selectivity(&self, column: Option<&ColumnStats>) -> f64 {
        if self.is_complex() {
            return self.default_selectivity();
        }
        match (&self.expr, column) {
            (PredicateExpr::Compare { op, value, .. }, Some(col)) => {
                let v = value.numeric_rank();
                match op {
                    CmpOp::Eq => col.equality_selectivity(v),
                    CmpOp::Ne => 1.0 - col.equality_selectivity(v),
                    CmpOp::Lt | CmpOp::Le => col.range_selectivity(f64::NEG_INFINITY, v),
                    CmpOp::Gt | CmpOp::Ge => col.range_selectivity(v, f64::INFINITY),
                }
            }
            (PredicateExpr::Between { lo, hi, .. }, Some(col)) => {
                col.range_selectivity(lo.numeric_rank(), hi.numeric_rank())
            }
            (PredicateExpr::InList { values, .. }, Some(col)) => values
                .iter()
                .map(|v| col.equality_selectivity(v.numeric_rank()))
                .sum::<f64>()
                .min(1.0),
            _ => self.default_selectivity(),
        }
    }

    /// The System-R default selectivity factor for this predicate shape.
    pub fn default_selectivity(&self) -> f64 {
        match &self.expr {
            PredicateExpr::Compare { op, .. } => op.default_selectivity(),
            PredicateExpr::Between { .. } => 0.25,
            PredicateExpr::InList { values, .. } => (0.1 * values.len() as f64).min(0.5),
            PredicateExpr::Udf { .. } => 0.1,
        }
    }

    /// Short human-readable form used by EXPLAIN output.
    pub fn describe(&self) -> String {
        let base = format!("{:?}", self.expr);
        if self.parameterized {
            format!("{base} [param]")
        } else {
            base
        }
    }
}

/// A numeric constant operand of a columnar fast loop: either an exact
/// integer or a float compared through the NaN-aware total order, mirroring
/// the corresponding [`Value`] `Ord` arms.
enum NumRhs {
    /// `Int64`/`Date` operand: exact integer comparison.
    Int(i64),
    /// `Float64` operand: the integer slot widens and total-order compares.
    Float(f64),
}

impl NumRhs {
    /// Ordering of an integer column slot relative to this operand.
    fn ord_i64(&self, v: i64) -> Ordering {
        match self {
            NumRhs::Int(b) => v.cmp(b),
            NumRhs::Float(b) => (v as f64).total_cmp(b),
        }
    }
}

/// Whether `ord` — the ordering of the column value relative to the constant
/// operand — satisfies `op`.
fn cmp_matches(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// Evaluates a conjunction of predicates.
pub fn evaluate_all(predicates: &[Predicate], schema: &Schema, tuple: &Tuple) -> Result<bool> {
    for p in predicates {
        if !p.evaluate(schema, tuple)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluates a conjunction of predicates over a whole [`Batch`], returning
/// the selection mask (one bool per row). The batch analogue of
/// [`evaluate_all`]: NULLs never match, and a predicate is only evaluated —
/// and its column reference only resolved — while at least one row is still
/// live, matching the row path's per-tuple short-circuit.
pub fn evaluate_all_batch(
    predicates: &[Predicate],
    schema: &Schema,
    batch: &Batch,
) -> Result<Vec<bool>> {
    let mut mask = vec![true; batch.num_rows()];
    for p in predicates {
        if !mask.iter().any(|&m| m) {
            break;
        }
        p.evaluate_batch(schema, batch, &mut mask)?;
    }
    Ok(mask)
}

/// Convenience error constructor used by operators when a predicate references
/// a column missing from the input schema.
pub fn unknown_field(field: &FieldRef) -> RdoError {
    RdoError::UnknownField(field.qualified())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::DataType;
    use rdo_sketch::{DatasetStats, DatasetStatsBuilder};

    fn schema() -> Schema {
        Schema::for_dataset(
            "part",
            &[
                ("p_partkey", DataType::Int64),
                ("p_size", DataType::Int64),
                ("p_brand", DataType::Utf8),
            ],
        )
    }

    fn tuple(key: i64, size: i64, brand: &str) -> Tuple {
        Tuple::new(vec![
            Value::Int64(key),
            Value::Int64(size),
            Value::from(brand),
        ])
    }

    fn stats(n: i64) -> DatasetStats {
        let mut b = DatasetStatsBuilder::all_columns(&schema());
        for i in 0..n {
            b.observe(&tuple(i, i % 50, &format!("Brand#{}", i % 5)));
        }
        b.build()
    }

    #[test]
    fn compare_evaluation() {
        let s = schema();
        let p = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Lt, 10i64);
        assert!(p.evaluate(&s, &tuple(1, 5, "x")).unwrap());
        assert!(!p.evaluate(&s, &tuple(1, 15, "x")).unwrap());
    }

    #[test]
    fn between_and_inlist_evaluation() {
        let s = schema();
        let b = Predicate::between(FieldRef::new("part", "p_size"), 10i64, 20i64);
        assert!(b.evaluate(&s, &tuple(1, 10, "x")).unwrap());
        assert!(b.evaluate(&s, &tuple(1, 20, "x")).unwrap());
        assert!(!b.evaluate(&s, &tuple(1, 21, "x")).unwrap());

        let l = Predicate::in_list(
            FieldRef::new("part", "p_brand"),
            vec![Value::from("A"), Value::from("B")],
        );
        assert!(l.evaluate(&s, &tuple(1, 1, "A")).unwrap());
        assert!(!l.evaluate(&s, &tuple(1, 1, "C")).unwrap());
    }

    #[test]
    fn udf_evaluation_and_complexity() {
        let s = schema();
        let p = Predicate::udf("mysub", FieldRef::new("part", "p_brand"), |v| {
            v.as_str().map(|s| s.ends_with("#3")).unwrap_or(false)
        });
        assert!(p.is_complex());
        assert!(p.evaluate(&s, &tuple(1, 1, "Brand#3")).unwrap());
        assert!(!p.evaluate(&s, &tuple(1, 1, "Brand#4")).unwrap());
    }

    #[test]
    fn null_never_matches() {
        let s = schema();
        let p = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Ne, 5i64);
        let t = Tuple::new(vec![Value::Int64(1), Value::Null, Value::from("x")]);
        assert!(!p.evaluate(&s, &t).unwrap());
    }

    #[test]
    fn unknown_column_errors() {
        let s = schema();
        let p = Predicate::compare(FieldRef::new("part", "missing"), CmpOp::Eq, 1i64);
        assert!(p.evaluate(&s, &tuple(1, 1, "x")).is_err());
    }

    #[test]
    fn parameterized_predicate_uses_defaults() {
        let st = stats(1000);
        let p =
            Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Eq, 3i64).parameterized();
        assert!(p.is_complex());
        assert_eq!(p.estimate_selectivity(st.column(p.field())), 0.1);
        // The same predicate un-parameterized uses the histogram (1/50 ≈ 0.02).
        let q = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Eq, 3i64);
        let est = q.estimate_selectivity(st.column(q.field()));
        assert!(est < 0.05, "histogram estimate {est} should be ~1/50");
    }

    #[test]
    fn udf_estimate_is_default_factor() {
        let st = stats(1000);
        let p = Predicate::udf("f", FieldRef::new("part", "p_brand"), |_| true);
        assert_eq!(p.estimate_selectivity(st.column(p.field())), 0.1);
    }

    #[test]
    fn range_estimate_uses_histogram() {
        let st = stats(10_000);
        let p = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Lt, 25i64);
        let est = p.estimate_selectivity(st.column(p.field()));
        assert!((est - 0.5).abs() < 0.1, "estimate {est} should be ~0.5");
    }

    #[test]
    fn missing_stats_fall_back_to_defaults() {
        let p = Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Gt, 25i64);
        assert!((p.estimate_selectivity(None) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn conjunction_evaluation() {
        let s = schema();
        let preds = vec![
            Predicate::compare(FieldRef::new("part", "p_size"), CmpOp::Lt, 10i64),
            Predicate::in_list(FieldRef::new("part", "p_brand"), vec![Value::from("A")]),
        ];
        assert!(evaluate_all(&preds, &s, &tuple(1, 5, "A")).unwrap());
        assert!(!evaluate_all(&preds, &s, &tuple(1, 5, "B")).unwrap());
    }

    #[test]
    fn describe_mentions_parameterization() {
        let p = Predicate::compare(FieldRef::new("d", "f"), CmpOp::Eq, 1i64).parameterized();
        assert!(p.describe().contains("[param]"));
        let u = Predicate::udf("myudf", FieldRef::new("d", "f"), |_| true);
        assert!(u.describe().contains("myudf"));
    }

    /// The contract of the columnar path: for every predicate shape and
    /// every column representation (typed fast path, Mixed fallback), the
    /// batch mask equals the per-row decisions bit-for-bit.
    #[test]
    fn batch_evaluation_matches_row_evaluation() {
        use rdo_common::Batch;
        let s = Schema::for_dataset(
            "t",
            &[
                ("i", DataType::Int64),
                ("f", DataType::Float64),
                ("s", DataType::Utf8),
                ("b", DataType::Bool),
                ("d", DataType::Date),
            ],
        );
        let rows = vec![
            Tuple::new(vec![
                Value::Int64(5),
                Value::Float64(1.5),
                Value::from("apple"),
                Value::Bool(true),
                Value::Date(100),
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Float64(f64::NAN),
                Value::Null,
                Value::Bool(false),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int64(-3),
                Value::Float64(-0.0),
                Value::from(""),
                Value::Null,
                Value::Date(50),
            ]),
            Tuple::new(vec![
                Value::Int64(7),
                Value::Null,
                Value::from("banana"),
                Value::Bool(true),
                Value::Date(100),
            ]),
        ];
        let field = |name: &str| FieldRef::new("t", name);
        let predicates = vec![
            // Typed fast paths of every shape.
            Predicate::compare(field("i"), CmpOp::Ge, 0i64),
            Predicate::compare(field("i"), CmpOp::Lt, 6.5f64),
            Predicate::between(field("i"), -5i64, 6i64),
            Predicate::in_list(field("i"), vec![Value::Int64(5), Value::from("x")]),
            Predicate::compare(field("f"), CmpOp::Ne, f64::NAN),
            Predicate::compare(field("f"), CmpOp::Gt, -1i64),
            Predicate::between(field("f"), -1.0f64, 2.0f64),
            Predicate::compare(field("s"), CmpOp::Ge, "a"),
            Predicate::between(field("s"), "a", "az"),
            Predicate::in_list(field("s"), vec![Value::from("apple"), Value::Int64(1)]),
            Predicate::compare(field("b"), CmpOp::Eq, true),
            Predicate::in_list(field("b"), vec![Value::Bool(true)]),
            Predicate::compare(field("d"), CmpOp::Le, 100i64),
            Predicate::between(field("d"), Value::Date(60), Value::Date(100)),
            Predicate::in_list(field("d"), vec![Value::Date(100), Value::Float64(100.0)]),
            // Cross-type pairings that must take the row fallback (the
            // relative order of Date and Float64 is the variant order).
            Predicate::compare(field("d"), CmpOp::Lt, 1e18f64),
            Predicate::compare(field("f"), CmpOp::Lt, Value::Date(0)),
            Predicate::compare(field("i"), CmpOp::Lt, "zzz"),
            // UDFs always take the fallback.
            Predicate::udf("starts_a", field("s"), |v| {
                v.as_str().map(|s| s.starts_with('a')).unwrap_or(false)
            }),
        ];
        let batch = Batch::from_rows(5, &rows);
        for p in &predicates {
            let mut mask = vec![true; rows.len()];
            p.evaluate_batch(&s, &batch, &mut mask).unwrap();
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    mask[i],
                    p.evaluate(&s, row).unwrap(),
                    "row {i} disagrees for {}",
                    p.describe()
                );
            }
        }
        // Conjunction, including the all-rows-dead short-circuit.
        let conj = vec![
            Predicate::compare(field("i"), CmpOp::Gt, 100i64),
            Predicate::compare(field("missing"), CmpOp::Eq, 1i64),
        ];
        let mask = evaluate_all_batch(&conj, &s, &batch).unwrap();
        assert!(
            mask.iter().all(|&m| !m),
            "no row survives, no resolve error"
        );
        // A heterogeneous column forces the Mixed fallback.
        let hs = Schema::for_dataset("h", &[("x", DataType::Int64)]);
        let hrows = vec![
            Tuple::new(vec![Value::Int64(1)]),
            Tuple::new(vec![Value::from("one")]),
        ];
        let hbatch = Batch::from_rows(1, &hrows);
        let p = Predicate::compare(FieldRef::new("h", "x"), CmpOp::Eq, 1i64);
        let mask = evaluate_all_batch(std::slice::from_ref(&p), &hs, &hbatch).unwrap();
        assert_eq!(mask[0], p.evaluate(&hs, &hrows[0]).unwrap());
        assert_eq!(mask[1], p.evaluate(&hs, &hrows[1]).unwrap());
    }
}
