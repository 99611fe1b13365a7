//! Coordinator-side operator setup of the plan executor
//! ([`crate::executor`]).
//!
//! Schema aliasing, projection resolution, join-key resolution and
//! partition-key survival are computed once per operator, before any
//! per-partition work starts.

use rdo_common::{FieldRef, RdoError, Result, Schema};
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
/// The two keys of a pair must have the same type.
pub fn resolve_keys(
    left: &Schema,
    right: &Schema,
    keys: &[(FieldRef, FieldRef)],
) -> Result<(Vec<usize>, Vec<usize>)> {
    let mut left_indexes = Vec::with_capacity(keys.len());
    let mut right_indexes = Vec::with_capacity(keys.len());
    for (l, r) in keys {
        let (li, ri) = (left.index_of(l)?, right.index_of(r)?);
        let (left_type, right_type) = (left.field(li).data_type, right.field(ri).data_type);
        if left_type != right_type {
            return Err(RdoError::join_key_types(l, left_type, r, right_type));
        }
        left_indexes.push(li);
        right_indexes.push(ri);
    }
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

    fn lineitem_schema() -> Schema {
        Schema::for_dataset(
            "l",
            &[
                ("l_k", DataType::Int64),
                ("l_c", DataType::Int64),
                ("l_q", DataType::Int64),
            ],
        )
    }

    #[test]
    fn resolve_keys_maps_each_pair_to_its_own_side() {
        let left = table().schema_as("o");
        let keys = [
            (FieldRef::new("o", "o_k"), FieldRef::new("l", "l_k")),
            (FieldRef::new("o", "o_c"), FieldRef::new("l", "l_c")),
        ];
        let (l, r) = resolve_keys(&left, &lineitem_schema(), &keys).unwrap();
        assert_eq!(l, vec![0, 1]);
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn resolve_keys_rejects_a_key_from_the_wrong_side() {
        let left = table().schema_as("o");
        let swapped = [(FieldRef::new("l", "l_k"), FieldRef::new("o", "o_k"))];
        assert!(resolve_keys(&left, &lineitem_schema(), &swapped).is_err());
    }

    #[test]
    fn resolve_keys_rejects_keys_of_different_types() {
        let left = table().schema_as("o");
        let right = Schema::for_dataset("f", &[("f_k", DataType::Float64)]);
        let keys = [(FieldRef::new("o", "o_k"), FieldRef::new("f", "f_k"))];
        let err = resolve_keys(&left, &right, &keys).unwrap_err().to_string();
        assert!(
            err.contains("o.o_k = f.f_k compares Int64 with Float64"),
            "{err}"
        );
    }

    #[test]
    fn indexed_join_setup_puts_the_indexed_side_first() {
        let t = table();
        let keys = [(FieldRef::new("orders", "o_c"), FieldRef::new("l", "l_q"))];
        let setup = prepare_indexed_join(&t, "orders", None, &lineitem_schema(), &keys).unwrap();
        assert_eq!(setup.out_schema.len(), 5);
        assert_eq!(
            setup.out_schema.field(0).name,
            FieldRef::new("orders", "o_k")
        );
        assert_eq!(setup.out_schema.field(2).name, FieldRef::new("l", "l_k"));
        assert_eq!(setup.left_key_indexes, vec![1]);
        assert_eq!(setup.right_key_indexes, vec![2]);
        assert_eq!(setup.first_right_key_index, 2);
        assert_eq!(setup.partition_key, Some(0));
    }

    #[test]
    fn indexed_join_setup_tracks_the_key_through_the_projection() {
        let t = table();
        let keys = [(FieldRef::new("orders", "o_c"), FieldRef::new("l", "l_c"))];
        let only_c = [FieldRef::new("orders", "o_c")];
        let setup =
            prepare_indexed_join(&t, "orders", Some(&only_c), &lineitem_schema(), &keys).unwrap();
        assert_eq!(setup.out_schema.len(), 4);
        // The key predicate still resolves against the unprojected table.
        assert_eq!(setup.left_key_indexes, vec![1]);
        assert_eq!(setup.partition_key, None, "o_k projected away");
        let bad = [(FieldRef::new("orders", "o_c"), FieldRef::new("l", "nope"))];
        assert!(prepare_indexed_join(&t, "orders", None, &lineitem_schema(), &bad).is_err());
    }

    #[test]
    fn scan_setup_of_an_unpartitioned_table_has_no_key() {
        let schema = Schema::for_dataset("r", &[("x", DataType::Int64)]);
        let rows = (0..4).map(|i| Tuple::new(vec![Value::Int64(i)])).collect();
        let t = Table::from_relation("r", Relation::new(schema, rows).unwrap(), 2, None).unwrap();
        let setup = prepare_scan(&t, "r", None).unwrap();
        assert_eq!(setup.partition_key, None);
        assert_eq!(setup.out_schema, setup.schema);
    }
}
