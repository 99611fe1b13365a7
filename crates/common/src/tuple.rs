//! Tuples and in-memory relations.

use crate::error::{RdoError, Result};
use crate::schema::{FieldRef, Schema};
use crate::value::Value;

/// A row of values, positionally aligned with a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// The values of the tuple.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the tuple has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at position `index`.
    pub fn value(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// Concatenates two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend(self.values.iter().cloned());
        values.extend(other.values.iter().cloned());
        Tuple::new(values)
    }

    /// Projects the tuple onto the given column indexes.
    pub fn project(&self, indexes: &[usize]) -> Tuple {
        Tuple::new(indexes.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Rough size of the tuple in bytes, used by the cost model to charge I/O
    /// and network proportionally to data width, like the paper's byte-based
    /// accounting of intermediate results.
    pub fn approx_bytes(&self) -> usize {
        self.values
            .iter()
            .map(|v| match v {
                Value::Utf8(s) => 16 + s.len(),
                _ => 8,
            })
            .sum()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// A schema plus rows: the unit exchanged between operators and materialized at
/// re-optimization points.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    schema: Schema,
    rows: Vec<Tuple>,
}

impl Relation {
    /// Creates a relation. Every row must match the schema arity.
    pub fn new(schema: Schema, rows: Vec<Tuple>) -> Result<Self> {
        if let Some(bad) = rows.iter().find(|r| r.len() != schema.len()) {
            return Err(RdoError::Execution(format!(
                "row arity {} does not match schema arity {}",
                bad.len(),
                schema.len()
            )));
        }
        Ok(Self { schema, rows })
    }

    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row (no arity check; used by operators that already validated).
    pub fn push(&mut self, row: Tuple) {
        self.rows.push(row);
    }

    /// Consumes the relation and returns its rows.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    /// Extracts the column `field` as a vector of values.
    pub fn column(&self, field: &FieldRef) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(field)?;
        Ok(self.rows.iter().map(|r| r.value(idx).clone()).collect())
    }

    /// Total approximate bytes of the relation.
    pub fn approx_bytes(&self) -> usize {
        self.rows.iter().map(|r| r.approx_bytes()).sum()
    }

    /// Sorts rows (used by tests comparing result multisets deterministically).
    pub fn sorted(mut self) -> Relation {
        self.rows.sort();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::for_dataset("t", &[("a", DataType::Int64), ("b", DataType::Utf8)])
    }

    fn row(a: i64, b: &str) -> Tuple {
        Tuple::new(vec![Value::Int64(a), Value::from(b)])
    }

    #[test]
    fn relation_checks_arity() {
        let ok = Relation::new(schema(), vec![row(1, "x")]);
        assert!(ok.is_ok());
        let bad = Relation::new(schema(), vec![Tuple::new(vec![Value::Int64(1)])]);
        assert!(bad.is_err());
    }

    #[test]
    fn tuple_concat_and_project() {
        let t = row(1, "x").concat(&row(2, "y"));
        assert_eq!(t.len(), 4);
        let p = t.project(&[3, 0]);
        assert_eq!(p.values(), &[Value::from("y"), Value::Int64(1)]);
    }

    #[test]
    fn column_extraction() {
        let rel = Relation::new(schema(), vec![row(1, "x"), row(2, "y")]).unwrap();
        let col = rel.column(&FieldRef::new("t", "a")).unwrap();
        assert_eq!(col, vec![Value::Int64(1), Value::Int64(2)]);
        assert!(rel.column(&FieldRef::new("t", "zzz")).is_err());
    }

    #[test]
    fn approx_bytes_counts_strings() {
        let t = row(1, "hello");
        assert_eq!(t.approx_bytes(), 8 + 16 + 5);
        let rel = Relation::new(schema(), vec![row(1, "hello"), row(2, "")]).unwrap();
        assert_eq!(rel.approx_bytes(), (8 + 21) + (8 + 16));
    }

    #[test]
    fn sorted_orders_rows() {
        let rel = Relation::new(schema(), vec![row(2, "y"), row(1, "x")]).unwrap();
        let sorted = rel.sorted();
        assert_eq!(sorted.rows()[0], row(1, "x"));
    }

    #[test]
    fn empty_relation() {
        let rel = Relation::empty(schema());
        assert!(rel.is_empty());
        assert_eq!(rel.len(), 0);
        assert_eq!(rel.approx_bytes(), 0);
    }

    #[test]
    fn push_appends() {
        let mut rel = Relation::empty(schema());
        rel.push(row(5, "z"));
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.into_rows(), vec![row(5, "z")]);
    }
}
