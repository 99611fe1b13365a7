//! Coordinator-side operator setup of the plan executor
//! ([`crate::executor`]).
//!
//! Schema aliasing, projection resolution, join-key resolution and
//! partition-key survival are computed once per operator, before any
//! per-partition work starts.

use rdo_common::{FieldRef, Result, Schema};
use rdo_storage::Table;

/// Everything a scan derives from the plan node before touching rows.
#[derive(Debug, Clone)]
pub struct ScanSetup {
    /// The table's schema as seen under the plan's dataset alias
    /// ([`Table::schema_as`]); predicates are evaluated against it.
    pub schema: Schema,
    /// Resolved projection column indexes (`None` keeps every column).
    pub projection_indexes: Option<Vec<usize>>,
    /// Schema of the scan output (after projection).
    pub out_schema: Schema,
    /// Index in `out_schema` of the table's partition key, if it survives
    /// the projection — a later hash join on it skips the re-partition
    /// exchange.
    pub partition_key: Option<usize>,
}

/// Prepares a scan of `table` under the plan's `dataset` alias.
pub fn prepare_scan(
    table: &Table,
    dataset: &str,
    projection: Option<&[FieldRef]>,
) -> Result<ScanSetup> {
    let schema = table.schema_as(dataset);
    let projection_indexes = resolve_projection(&schema, projection)?;
    let out_schema = match &projection_indexes {
        Some(idx) => schema.project(idx),
        None => schema.clone(),
    };

    let partition_key = partition_key_surviving(table, projection_indexes.as_deref());
    Ok(ScanSetup {
        schema,
        projection_indexes,
        out_schema,
        partition_key,
    })
}

/// Everything an indexed nested-loop join derives from the plan before
/// probing: the indexed (left) side's scan setup plus the resolved key
/// indexes against the broadcast (right) side.
#[derive(Debug, Clone)]
pub struct IndexedJoinSetup {
    /// Schema of the indexed base table as seen under its alias; the scan's
    /// local predicates are evaluated against it.
    pub left_schema: Schema,
    /// Resolved projection indexes of the indexed side.
    pub projection_indexes: Option<Vec<usize>>,
    /// Schema of the join output (projected left ++ right).
    pub out_schema: Schema,
    /// Key column indexes in the indexed table.
    pub left_key_indexes: Vec<usize>,
    /// Key column indexes in the broadcast input.
    pub right_key_indexes: Vec<usize>,
    /// Index of the first (indexed) key in the broadcast input.
    pub first_right_key_index: usize,
    /// Index of the indexed table's partition key in the output, if it
    /// survives the projection (the indexed side's columns come first).
    pub partition_key: Option<usize>,
}

/// Prepares an indexed nested-loop join of base `table` (aliased `dataset`,
/// optionally projected) against a broadcast input with `right_schema`.
pub fn prepare_indexed_join(
    table: &Table,
    dataset: &str,
    projection: Option<&[FieldRef]>,
    right_schema: &Schema,
    keys: &[(FieldRef, FieldRef)],
) -> Result<IndexedJoinSetup> {
    let left_schema = table.schema_as(dataset);
    let projection_indexes = resolve_projection(&left_schema, projection)?;
    let left_out_schema = match &projection_indexes {
        Some(idx) => left_schema.project(idx),
        None => left_schema.clone(),
    };
    let out_schema = left_out_schema.join(right_schema);

    // Residual key pairs beyond the indexed one are checked after the index
    // probe (composite-key joins).
    let (left_key_indexes, right_key_indexes) = resolve_keys(&left_schema, right_schema, keys)?;
    let first_right_key_index = right_key_indexes[0];

    let partition_key = partition_key_surviving(table, projection_indexes.as_deref());
    Ok(IndexedJoinSetup {
        left_schema,
        projection_indexes,
        out_schema,
        left_key_indexes,
        right_key_indexes,
        first_right_key_index,
        partition_key,
    })
}

/// Resolves every join-key pair against the schemas of the two join inputs.
pub fn resolve_keys(
    left: &Schema,
    right: &Schema,
    keys: &[(FieldRef, FieldRef)],
) -> Result<(Vec<usize>, Vec<usize>)> {
    let left_indexes = keys
        .iter()
        .map(|(l, _)| left.index_of(l))
        .collect::<Result<_>>()?;
    let right_indexes = keys
        .iter()
        .map(|(_, r)| right.index_of(r))
        .collect::<Result<_>>()?;
    Ok((left_indexes, right_indexes))
}

/// Resolves a projection list (`None` keeps every column) against `schema`.
fn resolve_projection(
    schema: &Schema,
    projection: Option<&[FieldRef]>,
) -> Result<Option<Vec<usize>>> {
    projection
        .map(|cols| cols.iter().map(|c| schema.index_of(c)).collect())
        .transpose()
}

/// Where the table's partition key lands in the output of `projection`
/// (`None` keeps every column), if it survives.
fn partition_key_surviving(table: &Table, projection: Option<&[usize]>) -> Option<usize> {
    let key = table.partition_key()?;
    match projection {
        Some(indexes) => indexes.iter().position(|&i| i == key),
        None => Some(key),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Relation, Tuple, Value};

    fn table() -> Table {
        let schema = Schema::for_dataset(
            "orders",
            &[("o_k", DataType::Int64), ("o_c", DataType::Int64)],
        );
        let rows = (0..10)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 3)]))
            .collect();
        Table::from_relation(
            "orders",
            Relation::new(schema, rows).unwrap(),
            2,
            Some("o_k"),
        )
        .unwrap()
    }

    #[test]
    fn scan_setup_aliases_and_projects() {
        let t = table();
        let setup = prepare_scan(&t, "o2", Some(&[FieldRef::new("o2", "o_c")])).unwrap();
        assert_eq!(setup.schema.fields()[0].name.dataset, "o2");
        assert_eq!(setup.projection_indexes, Some(vec![1]));
        assert_eq!(setup.out_schema.len(), 1);
        assert_eq!(setup.partition_key, None, "o_k projected away");
    }

    #[test]
    fn scan_setup_keeps_surviving_partition_key() {
        let t = table();
        let setup = prepare_scan(&t, "orders", None).unwrap();
        assert_eq!(setup.partition_key, Some(0));
        assert!(setup.projection_indexes.is_none());
        // A projection that moves the key reports its new position.
        let cols = [
            FieldRef::new("orders", "o_c"),
            FieldRef::new("orders", "o_k"),
        ];
        let setup = prepare_scan(&t, "orders", Some(&cols)).unwrap();
        assert_eq!(setup.partition_key, Some(1));
    }

    #[test]
    fn unknown_projection_column_errors() {
        let t = table();
        assert!(prepare_scan(&t, "orders", Some(&[FieldRef::new("orders", "nope")])).is_err());
    }
}
