//! The binder: turns a parsed [`SelectStatement`] into a [`QuerySpec`] (the
//! logical multi-join query the optimizers work on) plus a [`PostProcess`]
//! stage for GROUP BY / ORDER BY / LIMIT.
//!
//! Binding resolves column references against the catalog schemas, splits the
//! conjunctive WHERE clause into equi-join conditions and local predicates, and
//! lowers complex expressions into the executable [`Predicate`] forms:
//!
//! * `myyear(o_orderdate) = 1998` becomes a boolean UDF predicate whose
//!   closure applies the registered scalar UDF and compares the result;
//! * `d_moy = $moy` and `d_moy = myrand(8, 10)` become *parameterized*
//!   predicates — the bound value is known to the executor but static
//!   optimizers must fall back to default selectivity factors, exactly the
//!   setting the paper studies.

use crate::ast::{Condition, Literal, ScalarExpr, SelectStatement};
use crate::error::SqlError;
use crate::udf::{ParamBindings, ScalarUdf, UdfRegistry};
use rdo_common::{DataType, FieldRef, RdoError, Result, Value};
use rdo_exec::{AggregateExpr, AggregateFunc, CmpOp, PostProcess, Predicate, SortKey};
use rdo_planner::{DatasetRef, QuerySpec};
use rdo_storage::Catalog;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A fully bound query: the join-level specification consumed by the
/// optimizers plus the post-join stage.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// The logical multi-join query.
    pub spec: QuerySpec,
    /// Post-join grouping / ordering / limit.
    pub post: PostProcess,
}

impl BoundQuery {
    /// True if the query needs a post-join stage.
    pub fn has_post_processing(&self) -> bool {
        !self.post.is_empty()
    }
}

/// Binds a parsed statement against a catalog.
pub fn bind(
    statement: &SelectStatement,
    name: impl Into<String>,
    catalog: &Catalog,
    udfs: &UdfRegistry,
    params: &ParamBindings,
) -> Result<BoundQuery> {
    let binder = Binder {
        catalog,
        udfs,
        params,
    };
    binder.bind(statement, name.into())
}

struct Binder<'a> {
    catalog: &'a Catalog,
    udfs: &'a UdfRegistry,
    params: &'a ParamBindings,
}

/// A constant resolved from the AST: its value plus whether it counts as
/// parameterized (runtime parameter or value function).
struct Constant {
    value: Value,
    parameterized: bool,
}

impl Binder<'_> {
    fn bind(&self, statement: &SelectStatement, name: String) -> Result<BoundQuery> {
        let mut spec = QuerySpec::new(name);

        // ---- FROM clause: datasets and the alias → schema map. ----
        let mut bindings: HashMap<String, String> = HashMap::new();
        for table_ref in &statement.from {
            let table = self.catalog.table(&table_ref.table)?;
            let binding = table_ref.binding_name().to_string();
            if bindings
                .insert(binding.clone(), table_ref.table.clone())
                .is_some()
            {
                return Err(SqlError::new(format!(
                    "duplicate dataset alias `{binding}` in FROM clause"
                ))
                .into());
            }
            let _ = table; // existence check only; schemas are consulted per column below
            spec.datasets
                .push(DatasetRef::aliased(binding, table_ref.table.clone()));
        }
        if spec.datasets.is_empty() {
            return Err(SqlError::new("FROM clause is empty").into());
        }

        // ---- WHERE clause: join conditions vs local predicates. ----
        for conjunct in statement.where_conjuncts() {
            self.bind_conjunct(conjunct, &bindings, &mut spec)?;
        }

        // ---- SELECT list. ----
        let mut select_columns: Vec<FieldRef> = Vec::new();
        let mut aggregates: Vec<AggregateExpr> = Vec::new();
        if !statement.select_star {
            for item in &statement.projection {
                match &item.expr {
                    ScalarExpr::Column { .. } => {
                        select_columns.push(self.resolve_column(&item.expr, &bindings)?);
                    }
                    ScalarExpr::FunctionCall { name, args } => {
                        let func = AggregateFunc::parse(name).ok_or_else(|| {
                            SqlError::new(format!(
                                "unsupported expression in SELECT list: `{}` is not an aggregate",
                                item.expr
                            ))
                        })?;
                        let (input, default_alias) = match args.as_slice() {
                            [ScalarExpr::Star] if func == AggregateFunc::Count => {
                                (None, "count_star".to_string())
                            }
                            [column @ ScalarExpr::Column { .. }] => {
                                let field = self.resolve_column(column, &bindings)?;
                                let alias = format!(
                                    "{}_{}",
                                    func.name().to_lowercase(),
                                    field.field
                                );
                                (Some(field), alias)
                            }
                            _ => {
                                return Err(SqlError::new(format!(
                                    "aggregate `{}` must be applied to a single column (or `*` for COUNT)",
                                    item.expr
                                ))
                                .into())
                            }
                        };
                        let alias = item.alias.clone().unwrap_or(default_alias);
                        aggregates.push(AggregateExpr { func, input, alias });
                    }
                    other => {
                        return Err(SqlError::new(format!(
                            "unsupported expression in SELECT list: `{other}`"
                        ))
                        .into())
                    }
                }
            }
        }

        // ---- GROUP BY. ----
        let mut group_by: Vec<FieldRef> = Vec::new();
        for expr in &statement.group_by {
            group_by.push(self.resolve_column(expr, &bindings)?);
        }
        let has_aggregation = !aggregates.is_empty() || !group_by.is_empty();
        if has_aggregation {
            for column in &select_columns {
                if !group_by.contains(column) {
                    return Err(SqlError::new(format!(
                        "column `{}` appears in the SELECT list of a grouped query but not in GROUP BY",
                        column.qualified()
                    ))
                    .into());
                }
            }
        }

        // ---- Pre-aggregation projection of the join result. ----
        if has_aggregation {
            let mut projection: Vec<FieldRef> = Vec::new();
            for field in group_by.iter().chain(select_columns.iter()) {
                if !projection.contains(field) {
                    projection.push(field.clone());
                }
            }
            for agg in &aggregates {
                if let Some(input) = &agg.input {
                    if !projection.contains(input) {
                        projection.push(input.clone());
                    }
                }
            }
            spec.projection = projection;
        } else {
            spec.projection = select_columns;
        }

        // ---- ORDER BY / LIMIT. ----
        let mut post = PostProcess {
            group_by,
            aggregates,
            order_by: Vec::new(),
            limit: statement.limit,
        };
        for item in &statement.order_by {
            let field = match &item.expr {
                ScalarExpr::Column {
                    qualifier: None,
                    name,
                } if post.aggregates.iter().any(|a| &a.alias == name) => {
                    FieldRef::new("agg", name.clone())
                }
                column @ ScalarExpr::Column { .. } => self.resolve_column(column, &bindings)?,
                other => {
                    return Err(SqlError::new(format!(
                        "ORDER BY supports only columns and aggregate aliases, found `{other}`"
                    ))
                    .into())
                }
            };
            post.order_by.push(SortKey {
                field,
                ascending: item.ascending,
            });
        }

        spec.validate()?;
        Ok(BoundQuery { spec, post })
    }

    /// Lowers one WHERE conjunct into either a join condition or a local
    /// predicate on `spec`.
    fn bind_conjunct(
        &self,
        conjunct: &Condition,
        bindings: &HashMap<String, String>,
        spec: &mut QuerySpec,
    ) -> Result<()> {
        match conjunct {
            Condition::Compare { left, op, right } => {
                match (left.is_column(), right.is_column()) {
                    (true, true) => {
                        let l = self.resolve_column(left, bindings)?;
                        let r = self.resolve_column(right, bindings)?;
                        if l.dataset == r.dataset {
                            return Err(SqlError::new(format!(
                                "comparisons between two columns of the same dataset are not supported: {l} {op} {r}"
                            ))
                            .into());
                        }
                        if *op != CmpOp::Eq {
                            return Err(SqlError::new(format!(
                                "only equi-join conditions are supported, found {l} {op} {r}"
                            ))
                            .into());
                        }
                        let left_type = self.column_type(&l, bindings)?;
                        let right_type = self.column_type(&r, bindings)?;
                        if left_type != right_type {
                            return Err(RdoError::join_key_types(&l, left_type, &r, right_type));
                        }
                        spec.joins.push(rdo_planner::JoinCondition::new(l, r));
                    }
                    (true, false) => {
                        let field = self.resolve_column(left, bindings)?;
                        spec.predicates
                            .push(self.comparison_predicate(field, *op, right)?);
                    }
                    (false, true) => {
                        let field = self.resolve_column(right, bindings)?;
                        spec.predicates
                            .push(self.comparison_predicate(field, flip(*op), left)?);
                    }
                    (false, false) => {
                        // One side may be a scalar UDF applied to a column
                        // (`myyear(o_orderdate) = 1998`), the other a constant.
                        let predicate = if Self::is_column_udf_call(left) {
                            let constant = self.resolve_constant(right)?;
                            self.udf_comparison(left, *op, constant, bindings)?
                        } else if Self::is_column_udf_call(right) {
                            let constant = self.resolve_constant(left)?;
                            self.udf_comparison(right, flip(*op), constant, bindings)?
                        } else {
                            return Err(SqlError::new(format!(
                                "a comparison must involve at least one column: `{left} {op} {right}`"
                            ))
                            .into());
                        };
                        spec.predicates.push(predicate);
                    }
                }
            }
            Condition::Between { expr, lo, hi } => {
                let field = self.resolve_column(expr, bindings)?;
                let lo = self.resolve_constant(lo)?;
                let hi = self.resolve_constant(hi)?;
                let mut predicate = Predicate::between(field, lo.value, hi.value);
                if lo.parameterized || hi.parameterized {
                    predicate = predicate.parameterized();
                }
                spec.predicates.push(predicate);
            }
            Condition::InList { expr, list } => {
                let field = self.resolve_column(expr, bindings)?;
                let mut values = Vec::with_capacity(list.len());
                let mut parameterized = false;
                for entry in list {
                    let constant = self.resolve_constant(entry)?;
                    parameterized |= constant.parameterized;
                    values.push(constant.value);
                }
                let mut predicate = Predicate::in_list(field, values);
                if parameterized {
                    predicate = predicate.parameterized();
                }
                spec.predicates.push(predicate);
            }
            Condition::BoolFunction { call } => {
                let (name, field) = self.scalar_udf_call(call, bindings)?;
                let func = self.require_scalar_udf(&name)?;
                spec.predicates.push(Predicate::udf(name, field, move |v| {
                    func(v).as_bool().unwrap_or(false)
                }));
            }
            Condition::And(..) => {
                // `conjuncts()` flattened ANDs before we got here.
                for inner in conjunct.conjuncts() {
                    self.bind_conjunct(inner, bindings, spec)?;
                }
            }
        }
        Ok(())
    }

    /// Builds a local predicate `field op <constant-ish expression>`, handling
    /// both plain constants and scalar-UDF applications on the *column* side
    /// written as `udf(col) op constant` (the caller passes the call through
    /// `right`).
    fn comparison_predicate(
        &self,
        field: FieldRef,
        op: CmpOp,
        other: &ScalarExpr,
    ) -> Result<Predicate> {
        // `field op constant` (literal, parameter or value function).
        if let Ok(constant) = self.resolve_constant(other) {
            let mut predicate = Predicate::compare(field, op, constant.value);
            if constant.parameterized {
                predicate = predicate.parameterized();
            }
            return Ok(predicate);
        }
        Err(SqlError::new(format!(
            "unsupported operand in comparison against `{}`: `{other}`",
            field.qualified()
        ))
        .into())
    }

    /// Lowers `udf(col) op constant` (or the flipped form) into a boolean UDF
    /// predicate. Called from [`bind_conjunct`] when the function-call side is
    /// recognized.
    fn udf_comparison(
        &self,
        call: &ScalarExpr,
        op: CmpOp,
        constant: Constant,
        bindings: &HashMap<String, String>,
    ) -> Result<Predicate> {
        let (name, field) = self.scalar_udf_call(call, bindings)?;
        let func = self.require_scalar_udf(&name)?;
        let rhs = constant.value;
        let display = format!("{name}[{op}{rhs}]");
        let mut predicate =
            Predicate::udf(display, field, move |v| compare_values(op, &func(v), &rhs));
        if constant.parameterized {
            predicate = predicate.parameterized();
        }
        Ok(predicate)
    }

    /// Resolves a column reference to a [`FieldRef`] over a FROM-clause alias.
    /// The type of a column [`Self::resolve_column`] resolved.
    fn column_type(
        &self,
        column: &FieldRef,
        bindings: &HashMap<String, String>,
    ) -> Result<DataType> {
        let table = bindings
            .get(&column.dataset)
            .ok_or_else(|| RdoError::UnknownDataset(column.dataset.clone()))?;
        let schema = self.catalog.table(table)?.schema();
        Ok(schema
            .field(schema.index_of_unqualified(&column.field)?)
            .data_type)
    }

    fn resolve_column(
        &self,
        expr: &ScalarExpr,
        bindings: &HashMap<String, String>,
    ) -> Result<FieldRef> {
        let ScalarExpr::Column { qualifier, name } = expr else {
            return Err(
                SqlError::new(format!("expected a column reference, found `{expr}`")).into(),
            );
        };
        match qualifier {
            Some(alias) => {
                let table = bindings.get(alias).ok_or_else(|| {
                    SqlError::new(format!(
                        "unknown dataset alias `{alias}` in `{alias}.{name}`"
                    ))
                })?;
                let schema = self.catalog.table(table)?.schema();
                schema.index_of_unqualified(name).map_err(|_| {
                    SqlError::new(format!(
                        "dataset `{table}` (alias `{alias}`) has no column `{name}`"
                    ))
                })?;
                Ok(FieldRef::new(alias.clone(), name.clone()))
            }
            None => {
                let mut owners: Vec<&str> = Vec::new();
                for (alias, table) in bindings {
                    let schema = self.catalog.table(table)?.schema();
                    if schema.index_of_unqualified(name).is_ok() {
                        owners.push(alias);
                    }
                }
                owners.sort();
                match owners.as_slice() {
                    [single] => Ok(FieldRef::new((*single).to_string(), name.clone())),
                    [] => Err(SqlError::new(format!(
                        "column `{name}` does not exist in any dataset of the FROM clause"
                    ))
                    .into()),
                    many => Err(SqlError::new(format!(
                        "column `{name}` is ambiguous; it exists in {}",
                        many.join(", ")
                    ))
                    .into()),
                }
            }
        }
    }

    /// Resolves a literal, parameter or value-function call into a constant.
    fn resolve_constant(&self, expr: &ScalarExpr) -> Result<Constant> {
        match expr {
            ScalarExpr::Literal(literal) => Ok(Constant {
                value: literal_value(literal),
                parameterized: false,
            }),
            ScalarExpr::Parameter(name) => Ok(Constant {
                value: self.params.get(name)?,
                parameterized: true,
            }),
            ScalarExpr::FunctionCall { name, args } => {
                let func = self.udfs.value_fn(name).ok_or_else(|| {
                    SqlError::new(format!(
                        "`{name}` is not a registered value function; cannot use it as a constant"
                    ))
                })?;
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(self.resolve_constant(arg)?.value);
                }
                Ok(Constant {
                    value: func(&values)?,
                    parameterized: true,
                })
            }
            other => Err(
                SqlError::new(format!("expected a constant expression, found `{other}`")).into(),
            ),
        }
    }

    /// True if the expression is a function call whose single argument is a
    /// column — the shape of a scalar-UDF predicate.
    fn is_column_udf_call(expr: &ScalarExpr) -> bool {
        matches!(
            expr,
            ScalarExpr::FunctionCall { args, .. }
                if args.len() == 1 && matches!(args[0], ScalarExpr::Column { .. })
        )
    }

    /// Validates a `udf(column)` call shape and resolves its column argument.
    fn scalar_udf_call(
        &self,
        call: &ScalarExpr,
        bindings: &HashMap<String, String>,
    ) -> Result<(String, FieldRef)> {
        let ScalarExpr::FunctionCall { name, args } = call else {
            return Err(SqlError::new(format!("expected a UDF call, found `{call}`")).into());
        };
        match args.as_slice() {
            [column @ ScalarExpr::Column { .. }] => {
                Ok((name.clone(), self.resolve_column(column, bindings)?))
            }
            _ => Err(SqlError::new(format!(
                "UDF predicates must be applied to exactly one column: `{call}`"
            ))
            .into()),
        }
    }

    fn require_scalar_udf(&self, name: &str) -> Result<ScalarUdf> {
        self.udfs
            .scalar(name)
            .ok_or_else(|| SqlError::new(format!("`{name}` is not a registered scalar UDF")).into())
    }
}

/// Converts an AST literal into an engine value.
fn literal_value(literal: &Literal) -> Value {
    match literal {
        Literal::Int(v) => Value::Int64(*v),
        Literal::Float(v) => Value::Float64(*v),
        Literal::String(s) => Value::Utf8(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null => Value::Null,
        Literal::Date(d) => Value::Date(*d),
    }
}

/// Flips a comparison operator when its operands are swapped.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Evaluates `lhs op rhs` over the engine's total value order.
fn compare_values(op: CmpOp, lhs: &Value, rhs: &Value) -> bool {
    let ordering = lhs.cmp(rhs);
    match op {
        CmpOp::Eq => ordering == Ordering::Equal,
        CmpOp::Ne => ordering != Ordering::Equal,
        CmpOp::Lt => ordering == Ordering::Less,
        CmpOp::Le => ordering != Ordering::Greater,
        CmpOp::Gt => ordering == Ordering::Greater,
        CmpOp::Ge => ordering != Ordering::Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use rdo_common::{DataType, Relation, Schema, Tuple};
    use rdo_storage::IngestOptions;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new(2);
        let orders = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
                ("o_orderdate", DataType::Int64),
                ("o_orderstatus", DataType::Utf8),
            ],
        );
        let order_rows = (0..200)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int64(i),
                    Value::Int64(i % 20),
                    Value::Int64(i % 730),
                    Value::from(if i % 730 < 365 { "F" } else { "O" }),
                ])
            })
            .collect();
        cat.ingest(
            "orders",
            Relation::new(orders, order_rows).unwrap(),
            IngestOptions::partitioned_on("o_orderkey"),
        )
        .unwrap();

        let customer = Schema::for_dataset(
            "customer",
            &[
                ("c_custkey", DataType::Int64),
                ("c_nationkey", DataType::Int64),
            ],
        );
        let customer_rows = (0..20)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 5)]))
            .collect();
        cat.ingest(
            "customer",
            Relation::new(customer, customer_rows).unwrap(),
            IngestOptions::partitioned_on("c_custkey"),
        )
        .unwrap();

        let nation = Schema::for_dataset(
            "nation",
            &[("n_nationkey", DataType::Int64), ("n_name", DataType::Utf8)],
        );
        let nation_rows = (0..5)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::from(format!("N{i}").as_str())]))
            .collect();
        cat.ingest(
            "nation",
            Relation::new(nation, nation_rows).unwrap(),
            IngestOptions::partitioned_on("n_nationkey"),
        )
        .unwrap();
        cat
    }

    fn registry() -> UdfRegistry {
        let mut reg = UdfRegistry::new();
        reg.register_scalar("myyear", |v| {
            Value::Int64(v.as_i64().unwrap_or(0) / 365 + 1995)
        });
        reg.register_value_fn("myrand", |args| {
            let lo = args[0].as_i64().unwrap_or(0);
            Ok(Value::Int64(lo))
        });
        reg
    }

    fn bind_sql(sql: &str) -> Result<BoundQuery> {
        let stmt = parse(sql)?;
        bind(
            &stmt,
            "test",
            &catalog(),
            &registry(),
            &ParamBindings::new().with("nk", 3i64),
        )
    }

    #[test]
    fn binds_joins_and_local_predicates() {
        let bound = bind_sql(
            "SELECT o.o_orderkey, n.n_name FROM orders o, customer c, nation n \
             WHERE o.o_custkey = c.c_custkey AND c.c_nationkey = n.n_nationkey \
             AND o.o_orderstatus = 'F' AND o.o_orderdate BETWEEN 0 AND 364",
        )
        .unwrap();
        assert_eq!(bound.spec.datasets.len(), 3);
        assert_eq!(bound.spec.joins.len(), 2);
        assert_eq!(bound.spec.predicates.len(), 2);
        assert_eq!(
            bound.spec.projection,
            vec![
                FieldRef::new("o", "o_orderkey"),
                FieldRef::new("n", "n_name")
            ]
        );
        assert!(!bound.has_post_processing());
    }

    #[test]
    fn unqualified_columns_resolve_by_uniqueness() {
        let bound = bind_sql(
            "SELECT o_orderkey FROM orders, customer WHERE o_custkey = c_custkey AND o_orderstatus = 'F'",
        )
        .unwrap();
        assert_eq!(bound.spec.joins.len(), 1);
        assert_eq!(bound.spec.joins[0].left.dataset, "orders");
        assert_eq!(bound.spec.joins[0].right.dataset, "customer");
    }

    #[test]
    fn ambiguous_or_unknown_columns_error() {
        // `o_orderkey` exists only in orders, but a made-up column errors.
        assert!(bind_sql("SELECT nope FROM orders, customer WHERE o_custkey = c_custkey").is_err());
        // Unknown alias.
        assert!(bind_sql("SELECT x.o_orderkey FROM orders WHERE o_orderkey = 1").is_err());
        // Unknown column behind a valid alias.
        assert!(bind_sql("SELECT o.nope FROM orders o WHERE o.o_orderkey = 1").is_err());
        // Unknown table.
        assert!(bind_sql("SELECT * FROM warehouse").is_err());
    }

    #[test]
    fn parameter_and_value_function_predicates_are_parameterized() {
        let bound = bind_sql(
            "SELECT c_custkey FROM customer WHERE c_nationkey = $nk AND c_custkey = myrand(7)",
        )
        .unwrap();
        assert_eq!(bound.spec.predicates.len(), 2);
        assert!(bound.spec.predicates.iter().all(|p| p.is_complex()));
        // The actual bound values are visible to the executor.
        let schema = Schema::for_dataset(
            "customer",
            &[
                ("c_custkey", DataType::Int64),
                ("c_nationkey", DataType::Int64),
            ],
        );
        let row = Tuple::new(vec![Value::Int64(7), Value::Int64(3)]);
        assert!(bound.spec.predicates[0].evaluate(&schema, &row).unwrap());
        assert!(bound.spec.predicates[1].evaluate(&schema, &row).unwrap());
    }

    #[test]
    fn unbound_parameter_errors() {
        let stmt = parse("SELECT c_custkey FROM customer WHERE c_nationkey = $missing").unwrap();
        let err = bind(&stmt, "q", &catalog(), &registry(), &ParamBindings::new());
        assert!(err.is_err());
    }

    #[test]
    fn scalar_udf_predicates_bind_to_closures() {
        let bound = bind_sql(
            "SELECT o_orderkey FROM orders WHERE myyear(o_orderdate) = 1995 AND o_orderkey < 50",
        )
        .unwrap();
        assert_eq!(bound.spec.predicates.len(), 2);
        let udf = &bound.spec.predicates[0];
        assert!(udf.is_complex());
        let schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
                ("o_orderdate", DataType::Int64),
                ("o_orderstatus", DataType::Utf8),
            ],
        );
        // o_orderdate = 100 → myyear = 1995 → matches.
        let matching = Tuple::new(vec![
            Value::Int64(1),
            Value::Int64(1),
            Value::Int64(100),
            Value::from("F"),
        ]);
        let not_matching = Tuple::new(vec![
            Value::Int64(1),
            Value::Int64(1),
            Value::Int64(400),
            Value::from("F"),
        ]);
        assert!(udf.evaluate(&schema, &matching).unwrap());
        assert!(!udf.evaluate(&schema, &not_matching).unwrap());
    }

    #[test]
    fn flipped_comparison_and_reversed_udf() {
        let bound = bind_sql("SELECT o_orderkey FROM orders WHERE 10 > o_orderkey").unwrap();
        let p = &bound.spec.predicates[0];
        let schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
                ("o_orderdate", DataType::Int64),
                ("o_orderstatus", DataType::Utf8),
            ],
        );
        let small = Tuple::new(vec![
            Value::Int64(5),
            Value::Int64(0),
            Value::Int64(0),
            Value::from("F"),
        ]);
        let large = Tuple::new(vec![
            Value::Int64(50),
            Value::Int64(0),
            Value::Int64(0),
            Value::from("F"),
        ]);
        assert!(p.evaluate(&schema, &small).unwrap());
        assert!(!p.evaluate(&schema, &large).unwrap());
    }

    #[test]
    fn bare_boolean_udf_requires_registration() {
        let mut reg = registry();
        reg.register_scalar("is_recent", |v| Value::Bool(v.as_i64().unwrap_or(0) > 500));
        let stmt = parse("SELECT o_orderkey FROM orders WHERE is_recent(o_orderdate)").unwrap();
        let bound = bind(&stmt, "q", &catalog(), &reg, &ParamBindings::new()).unwrap();
        assert_eq!(bound.spec.predicates.len(), 1);

        let stmt =
            parse("SELECT o_orderkey FROM orders WHERE not_registered(o_orderdate)").unwrap();
        assert!(bind(&stmt, "q", &catalog(), &reg, &ParamBindings::new()).is_err());
    }

    #[test]
    fn group_by_aggregation_and_order_by_alias() {
        let bound = bind_sql(
            "SELECT n.n_name, COUNT(*) AS orders_n, SUM(o.o_orderkey) AS key_sum \
             FROM orders o, customer c, nation n \
             WHERE o.o_custkey = c.c_custkey AND c.c_nationkey = n.n_nationkey \
             GROUP BY n.n_name ORDER BY orders_n DESC, n.n_name LIMIT 3",
        )
        .unwrap();
        assert!(bound.has_post_processing());
        assert_eq!(bound.post.group_by, vec![FieldRef::new("n", "n_name")]);
        assert_eq!(bound.post.aggregates.len(), 2);
        assert_eq!(bound.post.aggregates[0].alias, "orders_n");
        assert_eq!(bound.post.limit, Some(3));
        assert_eq!(
            bound.post.order_by[0].field,
            FieldRef::new("agg", "orders_n")
        );
        assert!(!bound.post.order_by[0].ascending);
        // The join-level projection keeps the group key and the aggregate input.
        assert!(bound
            .spec
            .projection
            .contains(&FieldRef::new("n", "n_name")));
        assert!(bound
            .spec
            .projection
            .contains(&FieldRef::new("o", "o_orderkey")));
    }

    #[test]
    fn selected_column_missing_from_group_by_errors() {
        let err = bind_sql(
            "SELECT n.n_name, o.o_orderkey, COUNT(*) AS n FROM orders o, customer c, nation n \
             WHERE o.o_custkey = c.c_custkey AND c.c_nationkey = n.n_nationkey GROUP BY n.n_name",
        );
        assert!(err.is_err());
    }

    #[test]
    fn default_aggregate_aliases_are_generated() {
        let bound = bind_sql(
            "SELECT n.n_name, SUM(o.o_orderkey), COUNT(*) FROM orders o, customer c, nation n \
             WHERE o.o_custkey = c.c_custkey AND c.c_nationkey = n.n_nationkey GROUP BY n.n_name",
        )
        .unwrap();
        let aliases: Vec<&str> = bound
            .post
            .aggregates
            .iter()
            .map(|a| a.alias.as_str())
            .collect();
        assert_eq!(aliases, vec!["sum_o_orderkey", "count_star"]);
    }

    #[test]
    fn non_equi_join_and_same_dataset_comparisons_are_rejected() {
        assert!(bind_sql(
            "SELECT o_orderkey FROM orders o, customer c WHERE o.o_custkey < c.c_custkey"
        )
        .is_err());
        assert!(bind_sql(
            "SELECT o_orderkey FROM orders o, customer c WHERE o.o_custkey = c.c_custkey AND o.o_orderkey = o.o_custkey"
        )
        .is_err());
    }

    #[test]
    fn duplicate_alias_and_disconnected_join_graph_are_rejected() {
        assert!(
            bind_sql("SELECT o_orderkey FROM orders o, customer o WHERE o.o_orderkey = 1").is_err()
        );
        // Two datasets, no join between them → QuerySpec validation rejects it.
        assert!(bind_sql("SELECT o_orderkey FROM orders, customer WHERE o_orderkey = 1").is_err());
    }

    #[test]
    fn in_list_and_literal_kinds() {
        let bound = bind_sql(
            "SELECT o_orderkey FROM orders WHERE o_orderstatus IN ('F', 'O') AND o_orderdate >= DATE '1970-01-05'",
        )
        .unwrap();
        assert_eq!(bound.spec.predicates.len(), 2);
        let schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
                ("o_orderdate", DataType::Int64),
                ("o_orderstatus", DataType::Utf8),
            ],
        );
        let row = Tuple::new(vec![
            Value::Int64(1),
            Value::Int64(1),
            Value::Int64(10),
            Value::from("F"),
        ]);
        assert!(bound.spec.predicates[0].evaluate(&schema, &row).unwrap());
    }

    #[test]
    fn select_star_keeps_every_column() {
        let bound = bind_sql("SELECT * FROM orders WHERE o_orderkey < 5").unwrap();
        assert!(bound.spec.projection.is_empty());
    }

    #[test]
    fn compare_values_covers_all_operators() {
        let a = Value::Int64(1);
        let b = Value::Int64(2);
        assert!(compare_values(CmpOp::Lt, &a, &b));
        assert!(compare_values(CmpOp::Le, &a, &a));
        assert!(compare_values(CmpOp::Gt, &b, &a));
        assert!(compare_values(CmpOp::Ge, &b, &b));
        assert!(compare_values(CmpOp::Eq, &a, &a));
        assert!(compare_values(CmpOp::Ne, &a, &b));
        assert_eq!(flip(CmpOp::Lt), CmpOp::Gt);
        assert_eq!(flip(CmpOp::Ge), CmpOp::Le);
        assert_eq!(flip(CmpOp::Eq), CmpOp::Eq);
    }
}
