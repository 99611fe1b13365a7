//! Abstract syntax tree for the SQL++ subset accepted by the frontend.
//!
//! The grammar covers the shape of the paper's evaluation queries (Figure 5 and
//! the appendix): a conjunctive WHERE clause mixing equi-join conditions with
//! local selection predicates (fixed-value comparisons, BETWEEN, IN lists, UDF
//! applications and parameterized values), plus GROUP BY / ORDER BY / LIMIT
//! which the engine evaluates after the joins (Section 6.4).

use rdo_exec::CmpOp;
use std::fmt;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    String(String),
    /// Boolean literal (`TRUE` / `FALSE`).
    Bool(bool),
    /// `NULL`.
    Null,
    /// `DATE 'YYYY-MM-DD'`, stored as days since 1970-01-01.
    Date(i64),
}

/// A scalar expression: the operands of comparisons and the entries of the
/// SELECT / GROUP BY / ORDER BY lists.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A (possibly qualified) column reference.
    Column {
        /// Dataset alias, if written (`d1.d_moy`).
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A literal constant.
    Literal(Literal),
    /// A named parameter (`$moy`), bound at execution time.
    Parameter(String),
    /// A function call — either an aggregate (in the SELECT list), a scalar UDF
    /// over a column (in the WHERE clause), or a value function with constant
    /// arguments (the paper's `myrand(8, 10)`).
    FunctionCall {
        /// Function name as written.
        name: String,
        /// Arguments.
        args: Vec<ScalarExpr>,
    },
    /// `*` — only valid inside `COUNT(*)`.
    Star,
}

impl ScalarExpr {
    /// Convenience constructor for a column reference.
    pub fn column(qualifier: Option<&str>, name: &str) -> Self {
        ScalarExpr::Column {
            qualifier: qualifier.map(|s| s.to_string()),
            name: name.to_string(),
        }
    }

    /// True if the expression is a column reference.
    pub fn is_column(&self) -> bool {
        matches!(self, ScalarExpr::Column { .. })
    }

    /// True if the expression (transitively) contains a parameter.
    pub fn contains_parameter(&self) -> bool {
        match self {
            ScalarExpr::Parameter(_) => true,
            ScalarExpr::FunctionCall { args, .. } => args.iter().any(|a| a.contains_parameter()),
            _ => false,
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => f.write_str(name),
            },
            ScalarExpr::Literal(l) => match l {
                Literal::Int(v) => write!(f, "{v}"),
                Literal::Float(v) => write!(f, "{v}"),
                Literal::String(s) => write!(f, "'{s}'"),
                Literal::Bool(b) => write!(f, "{b}"),
                Literal::Null => f.write_str("NULL"),
                Literal::Date(d) => write!(f, "DATE({d})"),
            },
            ScalarExpr::Parameter(p) => write!(f, "${p}"),
            ScalarExpr::FunctionCall { name, args } => {
                let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "{name}({})", parts.join(", "))
            }
            ScalarExpr::Star => f.write_str("*"),
        }
    }
}

/// One conjunct of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `left op right`.
    Compare {
        /// Left operand.
        left: ScalarExpr,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: ScalarExpr,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested expression (a column).
        expr: ScalarExpr,
        /// Lower bound.
        lo: ScalarExpr,
        /// Upper bound.
        hi: ScalarExpr,
    },
    /// `expr IN (v1, v2, ...)`.
    InList {
        /// Tested expression (a column).
        expr: ScalarExpr,
        /// Accepted values.
        list: Vec<ScalarExpr>,
    },
    /// A bare boolean UDF application, e.g. `udf(A.x)`.
    BoolFunction {
        /// The function call.
        call: ScalarExpr,
    },
    /// Conjunction of two conditions.
    And(Box<Condition>, Box<Condition>),
}

impl Condition {
    /// Flattens nested `AND`s into a list of conjuncts.
    pub fn conjuncts(&self) -> Vec<&Condition> {
        match self {
            Condition::And(l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

/// One entry of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The selected expression (a column or an aggregate call).
    pub expr: ScalarExpr,
    /// Optional `AS alias`.
    pub alias: Option<String>,
}

/// One entry of the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name in the catalog.
    pub table: String,
    /// Optional alias (`date_dim d1` or `date_dim AS d1`).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the rest of the query uses to refer to this table.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// One entry of the ORDER BY clause.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// The ordering expression (a column or an aggregate alias).
    pub expr: ScalarExpr,
    /// True unless `DESC` was written.
    pub ascending: bool,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    /// True for `SELECT *` (the projection list is then empty).
    pub select_star: bool,
    /// SELECT list (empty for `SELECT *`).
    pub projection: Vec<SelectItem>,
    /// FROM clause, in user order (which matters for the best/worst-order
    /// baselines of the paper).
    pub from: Vec<TableRef>,
    /// WHERE clause, if present.
    pub where_clause: Option<Condition>,
    /// GROUP BY columns.
    pub group_by: Vec<ScalarExpr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderItem>,
    /// LIMIT, if present.
    pub limit: Option<usize>,
}

impl SelectStatement {
    /// The conjuncts of the WHERE clause (empty if there is none).
    pub fn where_conjuncts(&self) -> Vec<&Condition> {
        self.where_clause
            .as_ref()
            .map(|c| c.conjuncts())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_flattening() {
        let a = Condition::BoolFunction {
            call: ScalarExpr::column(None, "x"),
        };
        let b = Condition::Compare {
            left: ScalarExpr::column(Some("t"), "y"),
            op: CmpOp::Eq,
            right: ScalarExpr::Literal(Literal::Int(1)),
        };
        let c = Condition::Between {
            expr: ScalarExpr::column(Some("t"), "z"),
            lo: ScalarExpr::Literal(Literal::Int(0)),
            hi: ScalarExpr::Literal(Literal::Int(9)),
        };
        let tree = Condition::And(
            Box::new(Condition::And(Box::new(a.clone()), Box::new(b.clone()))),
            Box::new(c.clone()),
        );
        let flat = tree.conjuncts();
        assert_eq!(flat, vec![&a, &b, &c]);
    }

    #[test]
    fn scalar_expr_helpers() {
        let col = ScalarExpr::column(Some("d1"), "d_moy");
        assert!(col.is_column());
        assert!(!col.contains_parameter());
        assert_eq!(col.to_string(), "d1.d_moy");

        let call = ScalarExpr::FunctionCall {
            name: "myrand".into(),
            args: vec![
                ScalarExpr::Literal(Literal::Int(8)),
                ScalarExpr::Parameter("hi".into()),
            ],
        };
        assert!(call.contains_parameter());
        assert_eq!(call.to_string(), "myrand(8, $hi)");
        assert_eq!(ScalarExpr::Star.to_string(), "*");
        assert_eq!(
            ScalarExpr::Literal(Literal::String("ASIA".into())).to_string(),
            "'ASIA'"
        );
    }

    #[test]
    fn table_ref_binding_name() {
        let plain = TableRef {
            table: "orders".into(),
            alias: None,
        };
        let aliased = TableRef {
            table: "date_dim".into(),
            alias: Some("d1".into()),
        };
        assert_eq!(plain.binding_name(), "orders");
        assert_eq!(aliased.binding_name(), "d1");
    }

    #[test]
    fn where_conjuncts_of_empty_clause() {
        let stmt = SelectStatement::default();
        assert!(stmt.where_conjuncts().is_empty());
    }

    #[test]
    fn expressions_display_in_sql_form() {
        let lit = |l| ScalarExpr::Literal(l);
        assert_eq!(lit(Literal::Int(-3)).to_string(), "-3");
        assert_eq!(lit(Literal::Float(2.5)).to_string(), "2.5");
        assert_eq!(lit(Literal::Bool(true)).to_string(), "true");
        assert_eq!(lit(Literal::Null).to_string(), "NULL");
        assert_eq!(lit(Literal::Date(10)).to_string(), "DATE(10)");
        assert_eq!(ScalarExpr::column(None, "o_k").to_string(), "o_k");
        let nested = ScalarExpr::FunctionCall {
            name: "f".into(),
            args: vec![
                ScalarExpr::FunctionCall {
                    name: "g".into(),
                    args: vec![ScalarExpr::column(Some("t"), "x")],
                },
                lit(Literal::String("a".into())),
            ],
        };
        assert_eq!(nested.to_string(), "f(g(t.x), 'a')");
        assert_eq!(
            ScalarExpr::FunctionCall {
                name: "now".into(),
                args: vec![]
            }
            .to_string(),
            "now()"
        );
    }

    #[test]
    fn parameters_are_found_at_any_call_depth() {
        let deep = ScalarExpr::FunctionCall {
            name: "outer".into(),
            args: vec![ScalarExpr::FunctionCall {
                name: "inner".into(),
                args: vec![ScalarExpr::Parameter("moy".into())],
            }],
        };
        assert!(deep.contains_parameter());
        assert!(!deep.is_column());
        assert!(ScalarExpr::Parameter("p".into()).contains_parameter());
        for plain in [
            ScalarExpr::Star,
            ScalarExpr::Literal(Literal::Int(1)),
            ScalarExpr::column(None, "x"),
        ] {
            assert!(!plain.contains_parameter(), "{plain}");
        }
        // A single (non-AND) condition is its own only conjunct.
        let only = Condition::BoolFunction { call: deep };
        let stmt = SelectStatement {
            where_clause: Some(only.clone()),
            ..Default::default()
        };
        assert_eq!(stmt.where_conjuncts(), vec![&only]);
    }
}
