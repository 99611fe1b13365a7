//! Post-join operators: grouping/aggregation, ordering and limiting.
//!
//! The paper concentrates on multi-join queries and notes (Section 6.4) that
//! other operators present in a query — GROUP BY, ORDER BY, LIMIT in TPC-DS
//! Q17 — "are evaluated after all the joins and selections have been completed
//! and traditional optimization has been applied". This module provides exactly
//! that post-processing stage: a [`PostProcess`] description applied to the
//! final joined [`Relation`].

use crate::expr::unknown_field;
use rdo_common::{DataType, Field, FieldRef, Relation, Result, Schema, Tuple, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// The aggregate functions supported in the SELECT list of a grouped query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFunc {
    /// `COUNT(col)` / `COUNT(*)` — number of non-null inputs (or rows for `*`).
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl AggregateFunc {
    /// Parses the SQL name of an aggregate function, case-insensitively.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggregateFunc::Count),
            "SUM" => Some(AggregateFunc::Sum),
            "MIN" => Some(AggregateFunc::Min),
            "MAX" => Some(AggregateFunc::Max),
            "AVG" => Some(AggregateFunc::Avg),
            _ => None,
        }
    }

    /// The SQL name of the function.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunc::Count => "COUNT",
            AggregateFunc::Sum => "SUM",
            AggregateFunc::Min => "MIN",
            AggregateFunc::Max => "MAX",
            AggregateFunc::Avg => "AVG",
        }
    }

    /// The output type of the aggregate given the input column type.
    pub fn output_type(&self, input: DataType) -> DataType {
        match self {
            AggregateFunc::Count => DataType::Int64,
            AggregateFunc::Avg => DataType::Float64,
            AggregateFunc::Sum => match input {
                DataType::Float64 => DataType::Float64,
                _ => DataType::Int64,
            },
            AggregateFunc::Min | AggregateFunc::Max => input,
        }
    }
}

impl fmt::Display for AggregateFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One aggregate expression of the SELECT list, e.g. `SUM(ss_quantity) AS qty`.
#[derive(Debug, Clone)]
pub struct AggregateExpr {
    /// The aggregate function.
    pub func: AggregateFunc,
    /// The input column. `None` means `COUNT(*)`.
    pub input: Option<FieldRef>,
    /// Output column name.
    pub alias: String,
}

impl AggregateExpr {
    /// Creates an aggregate over a column.
    pub fn new(func: AggregateFunc, input: FieldRef, alias: impl Into<String>) -> Self {
        Self {
            func,
            input: Some(input),
            alias: alias.into(),
        }
    }

    /// Creates a `COUNT(*)`.
    pub fn count_star(alias: impl Into<String>) -> Self {
        Self {
            func: AggregateFunc::Count,
            input: None,
            alias: alias.into(),
        }
    }

    /// Human-readable form, e.g. `SUM(store_sales.ss_quantity) AS qty`.
    pub fn describe(&self) -> String {
        match &self.input {
            Some(input) => format!("{}({}) AS {}", self.func, input, self.alias),
            None => format!("{}(*) AS {}", self.func, self.alias),
        }
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Column to sort on. Resolved against the post-aggregation schema first
    /// (so ordering by an aggregate alias works) and the input schema otherwise.
    pub field: FieldRef,
    /// True for ascending order (the default), false for `DESC`.
    pub ascending: bool,
}

impl SortKey {
    /// An ascending sort key.
    pub fn asc(field: FieldRef) -> Self {
        Self {
            field,
            ascending: true,
        }
    }

    /// A descending sort key.
    pub fn desc(field: FieldRef) -> Self {
        Self {
            field,
            ascending: false,
        }
    }
}

/// The post-join stage of a query: optional grouping/aggregation, ordering and
/// limit, applied to the final joined relation.
#[derive(Debug, Clone, Default)]
pub struct PostProcess {
    /// GROUP BY columns (empty means no grouping unless aggregates are present,
    /// in which case the whole input is a single group).
    pub group_by: Vec<FieldRef>,
    /// Aggregates of the SELECT list.
    pub aggregates: Vec<AggregateExpr>,
    /// ORDER BY keys, applied in order.
    pub order_by: Vec<SortKey>,
    /// LIMIT, applied last.
    pub limit: Option<usize>,
}

impl PostProcess {
    /// A post-process stage that does nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True if no post-processing is required.
    pub fn is_empty(&self) -> bool {
        self.group_by.is_empty()
            && self.aggregates.is_empty()
            && self.order_by.is_empty()
            && self.limit.is_none()
    }

    /// True if the stage performs grouping or aggregation.
    pub fn has_aggregation(&self) -> bool {
        !self.group_by.is_empty() || !self.aggregates.is_empty()
    }

    /// Adds a GROUP BY column (builder style).
    pub fn group(mut self, field: FieldRef) -> Self {
        self.group_by.push(field);
        self
    }

    /// Adds an aggregate (builder style).
    pub fn aggregate(mut self, agg: AggregateExpr) -> Self {
        self.aggregates.push(agg);
        self
    }

    /// Adds an ORDER BY key (builder style).
    pub fn order(mut self, key: SortKey) -> Self {
        self.order_by.push(key);
        self
    }

    /// Sets the LIMIT (builder style).
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Applies the stage to a relation: aggregation first, then ordering, then
    /// the limit — the order SQL semantics prescribes.
    pub fn apply(&self, input: Relation) -> Result<Relation> {
        let mut span = if self.is_empty() {
            None
        } else {
            let mut s = rdo_trace::span("exec.post");
            s.attr_u64("rows_in", input.len() as u64);
            Some(s)
        };
        let mut current = if self.has_aggregation() {
            aggregate(&input, &self.group_by, &self.aggregates)?
        } else {
            input
        };
        if !self.order_by.is_empty() {
            current = sort(current, &self.order_by)?;
        }
        if let Some(limit) = self.limit {
            current = truncate(current, limit);
        }
        if let Some(span) = &mut span {
            span.attr_u64("rows_out", current.len() as u64);
        }
        Ok(current)
    }

    /// Human-readable description used in EXPLAIN-style output.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if !self.group_by.is_empty() {
            let cols: Vec<String> = self.group_by.iter().map(|f| f.qualified()).collect();
            parts.push(format!("group by [{}]", cols.join(", ")));
        }
        if !self.aggregates.is_empty() {
            let aggs: Vec<String> = self.aggregates.iter().map(|a| a.describe()).collect();
            parts.push(format!("aggregate [{}]", aggs.join(", ")));
        }
        if !self.order_by.is_empty() {
            let keys: Vec<String> = self
                .order_by
                .iter()
                .map(|k| {
                    format!(
                        "{} {}",
                        k.field.qualified(),
                        if k.ascending { "asc" } else { "desc" }
                    )
                })
                .collect();
            parts.push(format!("order by [{}]", keys.join(", ")));
        }
        if let Some(limit) = self.limit {
            parts.push(format!("limit {limit}"));
        }
        if parts.is_empty() {
            "no post-processing".to_string()
        } else {
            parts.join(" -> ")
        }
    }
}

/// Accumulator state for one aggregate in one group.
#[derive(Debug, Clone)]
enum Accumulator {
    Count(i64),
    Sum {
        int: i64,
        float: f64,
        saw_float: bool,
        any: bool,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: i64,
    },
}

impl Accumulator {
    fn new(func: AggregateFunc) -> Self {
        match func {
            AggregateFunc::Count => Accumulator::Count(0),
            AggregateFunc::Sum => Accumulator::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                any: false,
            },
            AggregateFunc::Min => Accumulator::Min(None),
            AggregateFunc::Max => Accumulator::Max(None),
            AggregateFunc::Avg => Accumulator::Avg { sum: 0.0, count: 0 },
        }
    }

    fn observe(&mut self, value: Option<&Value>) {
        match self {
            Accumulator::Count(n) => {
                // COUNT(*) (value == None) counts every row; COUNT(col) skips nulls.
                match value {
                    None => *n += 1,
                    Some(v) if !v.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            Accumulator::Sum {
                int,
                float,
                saw_float,
                any,
            } => {
                if let Some(v) = value {
                    match v {
                        Value::Int64(i) | Value::Date(i) => {
                            *int += i;
                            *float += *i as f64;
                            *any = true;
                        }
                        Value::Float64(f) => {
                            *float += f;
                            *saw_float = true;
                            *any = true;
                        }
                        _ => {}
                    }
                }
            }
            Accumulator::Min(current) => {
                if let Some(v) = value {
                    if !v.is_null() && current.as_ref().map(|c| v < c).unwrap_or(true) {
                        *current = Some(v.clone());
                    }
                }
            }
            Accumulator::Max(current) => {
                if let Some(v) = value {
                    if !v.is_null() && current.as_ref().map(|c| v > c).unwrap_or(true) {
                        *current = Some(v.clone());
                    }
                }
            }
            Accumulator::Avg { sum, count } => {
                if let Some(v) = value {
                    if let Some(f) = v.as_f64() {
                        *sum += f;
                        *count += 1;
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            Accumulator::Count(n) => Value::Int64(n),
            Accumulator::Sum {
                int,
                float,
                saw_float,
                any,
            } => {
                if !any {
                    Value::Null
                } else if saw_float {
                    Value::Float64(float)
                } else {
                    Value::Int64(int)
                }
            }
            Accumulator::Min(v) | Accumulator::Max(v) => v.unwrap_or(Value::Null),
            Accumulator::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / count as f64)
                }
            }
        }
    }
}

/// Hash aggregation of `input` on `group_by` with the given aggregates. With an
/// empty `group_by` the whole input is one group (and an empty input still
/// produces one row of aggregate defaults, matching SQL semantics).
fn aggregate(
    input: &Relation,
    group_by: &[FieldRef],
    aggregates: &[AggregateExpr],
) -> Result<Relation> {
    let schema = input.schema();
    let key_indexes = group_by
        .iter()
        .map(|f| schema.index_of(f))
        .collect::<Result<Vec<usize>>>()?;
    let agg_indexes = aggregates
        .iter()
        .map(|a| match &a.input {
            Some(field) => schema.index_of(field).map(Some),
            None => Ok(None),
        })
        .collect::<Result<Vec<Option<usize>>>>()?;

    // Output schema: the group-by columns (keeping their qualified names so
    // ORDER BY can still reference them) followed by one column per aggregate.
    let mut out_fields: Vec<Field> = key_indexes
        .iter()
        .map(|&i| schema.field(i).clone())
        .collect();
    for (agg, idx) in aggregates.iter().zip(&agg_indexes) {
        let input_type = idx
            .map(|i| schema.field(i).data_type)
            .unwrap_or(DataType::Int64);
        out_fields.push(Field::new(
            FieldRef::new("agg", agg.alias.clone()),
            agg.func.output_type(input_type),
        ));
    }
    let out_schema = Schema::new(out_fields);

    // Group rows, preserving first-seen group order for determinism.
    let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for row in input.rows() {
        let key: Vec<Value> = key_indexes.iter().map(|&i| row.value(i).clone()).collect();
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            aggregates
                .iter()
                .map(|a| Accumulator::new(a.func))
                .collect()
        });
        for (acc, idx) in accs.iter_mut().zip(&agg_indexes) {
            acc.observe(idx.map(|i| row.value(i)));
        }
    }

    // SQL: an ungrouped aggregate over an empty input yields one row.
    if order.is_empty() && key_indexes.is_empty() && !aggregates.is_empty() {
        let row: Vec<Value> = aggregates
            .iter()
            .map(|a| Accumulator::new(a.func).finish())
            .collect();
        return Relation::new(out_schema, vec![Tuple::new(row)]);
    }

    let mut rows = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups.remove(&key).expect("group recorded in order list");
        let mut values = key;
        values.extend(accs.into_iter().map(Accumulator::finish));
        rows.push(Tuple::new(values));
    }
    Relation::new(out_schema, rows)
}

/// Sorts a relation by the given keys (stable, so earlier keys dominate).
fn sort(input: Relation, keys: &[SortKey]) -> Result<Relation> {
    let schema = input.schema().clone();
    let resolved: Vec<(usize, bool)> = keys
        .iter()
        .map(|k| {
            schema
                .index_of(&k.field)
                .map(|i| (i, k.ascending))
                .map_err(|_| unknown_field(&k.field))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut rows = input.into_rows();
    rows.sort_by(|a, b| {
        for &(idx, ascending) in &resolved {
            let ord = a.value(idx).cmp(b.value(idx));
            let ord = if ascending { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Relation::new(schema, rows)
}

/// Keeps only the first `limit` rows.
fn truncate(input: Relation, limit: usize) -> Relation {
    let schema = input.schema().clone();
    let mut rows = input.into_rows();
    rows.truncate(limit);
    Relation::new(schema, rows).expect("schema unchanged by truncation")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let schema = Schema::for_dataset(
            "sales",
            &[
                ("store", DataType::Utf8),
                ("qty", DataType::Int64),
                ("price", DataType::Float64),
            ],
        );
        let rows = vec![
            Tuple::new(vec![Value::from("a"), Value::Int64(2), Value::Float64(1.5)]),
            Tuple::new(vec![Value::from("b"), Value::Int64(5), Value::Float64(4.0)]),
            Tuple::new(vec![Value::from("a"), Value::Int64(3), Value::Float64(2.5)]),
            Tuple::new(vec![Value::from("b"), Value::Int64(1), Value::Float64(0.5)]),
            Tuple::new(vec![Value::from("a"), Value::Null, Value::Float64(9.0)]),
        ];
        Relation::new(schema, rows).unwrap()
    }

    fn field(name: &str) -> FieldRef {
        FieldRef::new("sales", name)
    }

    #[test]
    fn group_by_with_sum_count_avg() {
        let post = PostProcess::none()
            .group(field("store"))
            .aggregate(AggregateExpr::new(
                AggregateFunc::Sum,
                field("qty"),
                "total_qty",
            ))
            .aggregate(AggregateExpr::new(
                AggregateFunc::Count,
                field("qty"),
                "n_qty",
            ))
            .aggregate(AggregateExpr::count_star("n_rows"))
            .aggregate(AggregateExpr::new(
                AggregateFunc::Avg,
                field("price"),
                "avg_price",
            ))
            .order(SortKey::asc(FieldRef::new("sales", "store")));
        let out = post.apply(sample()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema().len(), 5);
        let a = out.rows()[0].values();
        assert_eq!(a[0], Value::from("a"));
        assert_eq!(a[1], Value::Int64(5)); // 2 + 3 (null skipped)
        assert_eq!(a[2], Value::Int64(2)); // COUNT(qty) skips the null
        assert_eq!(a[3], Value::Int64(3)); // COUNT(*) does not
        let avg = a[4].as_f64().unwrap();
        assert!((avg - (1.5 + 2.5 + 9.0) / 3.0).abs() < 1e-9);
        let b = out.rows()[1].values();
        assert_eq!(b[0], Value::from("b"));
        assert_eq!(b[1], Value::Int64(6));
    }

    #[test]
    fn min_max_and_float_sum() {
        let post = PostProcess::none()
            .group(field("store"))
            .aggregate(AggregateExpr::new(
                AggregateFunc::Min,
                field("price"),
                "min_p",
            ))
            .aggregate(AggregateExpr::new(
                AggregateFunc::Max,
                field("price"),
                "max_p",
            ))
            .aggregate(AggregateExpr::new(
                AggregateFunc::Sum,
                field("price"),
                "sum_p",
            ))
            .order(SortKey::asc(field("store")));
        let out = post.apply(sample()).unwrap();
        let a = out.rows()[0].values();
        assert_eq!(a[1], Value::Float64(1.5));
        assert_eq!(a[2], Value::Float64(9.0));
        assert_eq!(a[3], Value::Float64(13.0));
    }

    #[test]
    fn ungrouped_aggregate_over_empty_input_yields_one_row() {
        let empty = Relation::empty(sample().schema().clone());
        let post = PostProcess::none()
            .aggregate(AggregateExpr::count_star("n"))
            .aggregate(AggregateExpr::new(AggregateFunc::Sum, field("qty"), "s"));
        let out = post.apply(empty).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0].value(0), &Value::Int64(0));
        assert_eq!(out.rows()[0].value(1), &Value::Null);
    }

    #[test]
    fn grouped_aggregate_over_empty_input_yields_no_rows() {
        let empty = Relation::empty(sample().schema().clone());
        let post = PostProcess::none()
            .group(field("store"))
            .aggregate(AggregateExpr::count_star("n"));
        let out = post.apply(empty).unwrap();
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let post = PostProcess::none()
            .order(SortKey::desc(field("qty")))
            .with_limit(2);
        let out = post.apply(sample()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0].value(1), &Value::Int64(5));
        assert_eq!(out.rows()[1].value(1), &Value::Int64(3));
    }

    #[test]
    fn order_by_multiple_keys_is_stable_lexicographic() {
        let post = PostProcess::none()
            .order(SortKey::asc(field("store")))
            .order(SortKey::desc(field("qty")));
        let out = post.apply(sample()).unwrap();
        // Nulls sort first within "a" descending? Value ordering puts Null lowest,
        // so descending puts it last.
        let stores: Vec<&Value> = out.rows().iter().map(|r| r.value(0)).collect();
        assert_eq!(
            stores,
            vec![
                &Value::from("a"),
                &Value::from("a"),
                &Value::from("a"),
                &Value::from("b"),
                &Value::from("b")
            ]
        );
        assert_eq!(out.rows()[0].value(1), &Value::Int64(3));
        assert_eq!(out.rows()[1].value(1), &Value::Int64(2));
    }

    #[test]
    fn limit_larger_than_input_keeps_everything() {
        let post = PostProcess::none().with_limit(100);
        let out = post.apply(sample()).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn empty_post_process_is_identity() {
        let post = PostProcess::none();
        assert!(post.is_empty());
        let input = sample();
        let out = post.apply(input.clone()).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn ordering_by_aggregate_alias_works() {
        let post = PostProcess::none()
            .group(field("store"))
            .aggregate(AggregateExpr::new(
                AggregateFunc::Sum,
                field("qty"),
                "total",
            ))
            .order(SortKey::desc(FieldRef::new("agg", "total")));
        let out = post.apply(sample()).unwrap();
        assert_eq!(out.rows()[0].value(1), &Value::Int64(6)); // store b first
    }

    #[test]
    fn unknown_group_column_errors() {
        let post = PostProcess::none()
            .group(FieldRef::new("sales", "missing"))
            .aggregate(AggregateExpr::count_star("n"));
        assert!(post.apply(sample()).is_err());
        let post2 = PostProcess::none().order(SortKey::asc(FieldRef::new("sales", "missing")));
        assert!(post2.apply(sample()).is_err());
    }

    #[test]
    fn aggregate_func_parse_and_output_types() {
        assert_eq!(AggregateFunc::parse("sum"), Some(AggregateFunc::Sum));
        assert_eq!(AggregateFunc::parse("CoUnT"), Some(AggregateFunc::Count));
        assert_eq!(AggregateFunc::parse("median"), None);
        assert_eq!(
            AggregateFunc::Sum.output_type(DataType::Float64),
            DataType::Float64
        );
        assert_eq!(
            AggregateFunc::Sum.output_type(DataType::Int64),
            DataType::Int64
        );
        assert_eq!(
            AggregateFunc::Avg.output_type(DataType::Int64),
            DataType::Float64
        );
        assert_eq!(
            AggregateFunc::Min.output_type(DataType::Utf8),
            DataType::Utf8
        );
        assert_eq!(
            AggregateFunc::Count.output_type(DataType::Utf8),
            DataType::Int64
        );
    }

    #[test]
    fn describe_mentions_every_stage() {
        let post = PostProcess::none()
            .group(field("store"))
            .aggregate(AggregateExpr::new(
                AggregateFunc::Sum,
                field("qty"),
                "total",
            ))
            .order(SortKey::desc(FieldRef::new("agg", "total")))
            .with_limit(10);
        let d = post.describe();
        assert!(d.contains("group by"));
        assert!(d.contains("SUM"));
        assert!(d.contains("order by"));
        assert!(d.contains("limit 10"));
        assert_eq!(PostProcess::none().describe(), "no post-processing");
    }

    #[test]
    fn describe_aggregate_expr_forms() {
        let a = AggregateExpr::new(AggregateFunc::Max, field("qty"), "m");
        assert_eq!(a.describe(), "MAX(sales.qty) AS m");
        let c = AggregateExpr::count_star("n");
        assert_eq!(c.describe(), "COUNT(*) AS n");
    }
}
