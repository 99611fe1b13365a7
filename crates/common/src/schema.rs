//! Schemas and field references.
//!
//! Fields are addressed by a qualified name `dataset.field`. When a join is
//! materialized into an intermediate dataset (the paper's `I_AB`), the
//! intermediate relation keeps the *original* qualified names of the surviving
//! columns so that query reconstruction (Section 5.4 of the paper) can simply
//! re-point join predicates at the new dataset.

use crate::error::{RdoError, Result};
use crate::value::DataType;
use std::fmt;

/// A reference to a field of a dataset, e.g. `lineitem.l_orderkey`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRef {
    /// The dataset (or intermediate-result) name.
    pub dataset: String,
    /// The column name.
    pub field: String,
}

impl FieldRef {
    /// Creates a new field reference.
    pub fn new(dataset: impl Into<String>, field: impl Into<String>) -> Self {
        Self {
            dataset: dataset.into(),
            field: field.into(),
        }
    }

    /// Parses a `dataset.field` string.
    pub fn parse(qualified: &str) -> Result<Self> {
        match qualified.split_once('.') {
            Some((d, f)) if !d.is_empty() && !f.is_empty() => Ok(Self::new(d, f)),
            _ => Err(RdoError::UnknownField(qualified.to_string())),
        }
    }

    /// Returns the `dataset.field` form.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.dataset, self.field)
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.dataset, self.field)
    }
}

/// Strips the dataset qualifier from a (possibly qualified) column name:
/// `"lineitem.l_orderkey"` → `"l_orderkey"`, `"l_orderkey"` → itself.
///
/// Used wherever a column is looked up by its bare name: secondary-index
/// keys, the fallback of partition-key resolution
/// (`rdo_storage::table::resolve_key`) and the Sink's tracked columns.
/// Partition placement is never matched by name — it is tracked as a
/// resolved column index, because two datasets' `id` columns share a bare
/// name but not a placement.
pub fn unqualified(column: &str) -> &str {
    column.rsplit('.').next().unwrap_or(column)
}

/// A single column of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Qualified name of the column.
    pub name: FieldRef,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Creates a new field.
    pub fn new(name: FieldRef, data_type: DataType) -> Self {
        Self { name, data_type }
    }
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from a list of fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Self { fields }
    }

    /// Convenience constructor: all fields belong to `dataset`.
    pub fn for_dataset(dataset: &str, columns: &[(&str, DataType)]) -> Self {
        Self {
            fields: columns
                .iter()
                .map(|(name, dt)| Field::new(FieldRef::new(dataset, *name), *dt))
                .collect(),
        }
    }

    /// The fields of the schema, in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a field by exact qualified reference.
    pub fn index_of(&self, field: &FieldRef) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| &f.name == field)
            .ok_or_else(|| RdoError::UnknownField(field.qualified()))
    }

    /// Index of a field by unqualified column name. Errors if ambiguous or
    /// missing.
    pub fn index_of_unqualified(&self, column: &str) -> Result<usize> {
        let mut matches = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name.field == column);
        match (matches.next(), matches.next()) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(RdoError::InvalidQuery(format!(
                "ambiguous column name: {column}"
            ))),
            _ => Err(RdoError::UnknownField(column.to_string())),
        }
    }

    /// Looks a field up by qualified reference, falling back to the unqualified
    /// column name. The fallback is what lets reconstructed queries address a
    /// column of `I_AB` via its original `B.c` reference.
    pub fn resolve(&self, field: &FieldRef) -> Result<usize> {
        if let Ok(i) = self.index_of(field) {
            return Ok(i);
        }
        self.index_of_unqualified(&field.field)
    }

    /// Returns the field at `index`.
    pub fn field(&self, index: usize) -> &Field {
        &self.fields[index]
    }

    /// True if the schema contains the field (qualified or by column name).
    pub fn contains(&self, field: &FieldRef) -> bool {
        self.resolve(field).is_ok()
    }

    /// Concatenates two schemas (used when joining two inputs).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        fields.extend(other.fields.iter().cloned());
        Schema::new(fields)
    }

    /// Builds a projected schema out of the given column indexes.
    pub fn project(&self, indexes: &[usize]) -> Schema {
        Schema::new(indexes.iter().map(|&i| self.fields[i].clone()).collect())
    }

    /// Renames every field to belong to `dataset`, keeping column names. Used
    /// when a materialized intermediate result is registered as a new dataset
    /// but consumers may still use original qualified names via [`Self::resolve`].
    pub fn with_dataset(&self, dataset: &str) -> Schema {
        Schema::new(
            self.fields
                .iter()
                .map(|f| Field::new(FieldRef::new(dataset, f.name.field.clone()), f.data_type))
                .collect(),
        )
    }

    /// Qualified names of all columns.
    pub fn qualified_names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.qualified()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::for_dataset(
            "lineitem",
            &[
                ("l_orderkey", DataType::Int64),
                ("l_partkey", DataType::Int64),
                ("l_price", DataType::Float64),
            ],
        )
    }

    #[test]
    fn field_ref_parse() {
        let f = FieldRef::parse("a.b").unwrap();
        assert_eq!(f, FieldRef::new("a", "b"));
        assert!(FieldRef::parse("ab").is_err());
        assert!(FieldRef::parse(".b").is_err());
        assert!(FieldRef::parse("a.").is_err());
    }

    #[test]
    fn qualified_display() {
        let f = FieldRef::new("orders", "o_orderkey");
        assert_eq!(f.qualified(), "orders.o_orderkey");
        assert_eq!(f.to_string(), "orders.o_orderkey");
    }

    #[test]
    fn index_of_qualified_and_unqualified() {
        let s = sample();
        assert_eq!(
            s.index_of(&FieldRef::new("lineitem", "l_partkey")).unwrap(),
            1
        );
        assert_eq!(s.index_of_unqualified("l_price").unwrap(), 2);
        assert!(s.index_of(&FieldRef::new("orders", "l_partkey")).is_err());
        assert!(s.index_of_unqualified("nope").is_err());
    }

    #[test]
    fn resolve_falls_back_to_unqualified() {
        let s = sample().with_dataset("I_ab");
        // The original qualified name no longer matches exactly but resolves by
        // column name.
        assert_eq!(s.resolve(&FieldRef::new("lineitem", "l_price")).unwrap(), 2);
        assert_eq!(s.resolve(&FieldRef::new("I_ab", "l_orderkey")).unwrap(), 0);
    }

    #[test]
    fn ambiguous_unqualified_lookup_errors() {
        let a = Schema::for_dataset("a", &[("k", DataType::Int64)]);
        let b = Schema::for_dataset("b", &[("k", DataType::Int64)]);
        let joined = a.join(&b);
        assert!(matches!(
            joined.index_of_unqualified("k"),
            Err(RdoError::InvalidQuery(_))
        ));
        // But exact qualified lookup still works.
        assert_eq!(joined.index_of(&FieldRef::new("b", "k")).unwrap(), 1);
    }

    #[test]
    fn join_concatenates() {
        let a = sample();
        let b = Schema::for_dataset("orders", &[("o_orderkey", DataType::Int64)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 4);
        assert_eq!(j.field(3).name.qualified(), "orders.o_orderkey");
    }

    #[test]
    fn project_selects_columns() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.field(0).name.field, "l_price");
        assert_eq!(p.field(1).name.field, "l_orderkey");
    }

    #[test]
    fn with_dataset_renames() {
        let s = sample().with_dataset("I_1");
        assert!(s.fields().iter().all(|f| f.name.dataset == "I_1"));
        assert_eq!(s.field(0).name.field, "l_orderkey");
    }

    #[test]
    fn qualified_names_list() {
        let s = sample();
        assert_eq!(
            s.qualified_names(),
            vec![
                "lineitem.l_orderkey".to_string(),
                "lineitem.l_partkey".to_string(),
                "lineitem.l_price".to_string()
            ]
        );
    }
}
