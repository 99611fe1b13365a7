//! Per-partition secondary indexes.
//!
//! The paper's Indexed Nested-Loop join requires "a base dataset with an index
//! on the join key(s)"; the broadcast side probes the local index of each
//! partition. A [`SecondaryIndex`] therefore holds one hash index per partition,
//! mapping key values to local row addresses — intermediate results never have
//! secondary indexes, which is exactly why the cost-based and pilot-run
//! baselines lose INL opportunities in Figure 8 of the paper.

use crate::table::{resolve_key, Table};
use rdo_common::{Result, Value};
use std::collections::HashMap;

/// Where an indexed row lives inside its partition: `(chunk, slot)` is row
/// `slot` of `Table::batches(partition)[chunk]` — the pick
/// [`rdo_common::Batch::gather`] takes.
pub type RowAddr = (u32, u32);

/// A secondary index on one column of a table.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    table: String,
    column: String,
    /// One hash index per partition: key value → row addresses within the
    /// partition, in storage order.
    partitions: Vec<HashMap<Value, Vec<RowAddr>>>,
}

impl SecondaryIndex {
    /// Builds the index by scanning every partition of `table`.
    pub fn build(table: &Table, column: &str) -> Result<Self> {
        let idx = resolve_key(table.schema(), column)?;
        let mut partitions = Vec::with_capacity(table.num_partitions());
        for p in 0..table.num_partitions() {
            let mut index: HashMap<Value, Vec<RowAddr>> =
                HashMap::with_capacity(table.partition_len(p));
            for (chunk, batch) in table.batches(p).iter().enumerate() {
                let keys = batch.column(idx);
                for slot in 0..batch.num_rows() {
                    index
                        .entry(keys.value(slot))
                        .or_default()
                        .push((chunk as u32, slot as u32));
                }
            }
            partitions.push(index);
        }
        Ok(Self {
            table: table.name().to_string(),
            column: table.schema().field(idx).name.field.clone(),
            partitions,
        })
    }

    /// Name of the indexed table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Name of the indexed column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Looks up the addresses of the rows matching `key` in the given
    /// partition.
    pub fn probe(&self, partition: usize, key: &Value) -> &[RowAddr] {
        self.partitions[partition]
            .get(key)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of distinct keys in a partition (index size proxy for the cost
    /// model).
    pub fn partition_keys(&self, partition: usize) -> usize {
        self.partitions[partition].len()
    }

    /// Total number of indexed entries.
    pub fn total_entries(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.values().map(|v| v.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Relation, Schema, Tuple};

    fn table(n: i64, partitions: usize) -> Table {
        let schema = Schema::for_dataset(
            "lineitem",
            &[
                ("l_orderkey", DataType::Int64),
                ("l_partkey", DataType::Int64),
            ],
        );
        let rows = (0..n)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 50)]))
            .collect();
        let rel = Relation::new(schema, rows).unwrap();
        Table::from_relation("lineitem", rel, partitions, Some("l_orderkey")).unwrap()
    }

    #[test]
    fn build_and_probe() {
        let t = table(1000, 4);
        let idx = SecondaryIndex::build(&t, "l_partkey").unwrap();
        assert_eq!(idx.table(), "lineitem");
        assert_eq!(idx.column(), "l_partkey");
        assert_eq!(idx.num_partitions(), 4);
        // Every probe result must actually contain the key.
        let key = Value::Int64(7);
        let mut matches = 0;
        for p in 0..4 {
            for &(chunk, slot) in idx.probe(p, &key) {
                assert_eq!(t.batches(p)[chunk as usize].value(slot as usize, 1), key);
                matches += 1;
            }
        }
        assert_eq!(
            matches, 20,
            "1000 rows with 50 distinct part keys → 20 matches"
        );
    }

    #[test]
    fn probe_missing_key_is_empty() {
        let t = table(100, 2);
        let idx = SecondaryIndex::build(&t, "l_partkey").unwrap();
        assert!(idx.probe(0, &Value::Int64(999)).is_empty());
        assert!(idx.probe(1, &Value::Int64(-1)).is_empty());
    }

    #[test]
    fn qualified_column_name_accepted() {
        let t = table(10, 2);
        let idx = SecondaryIndex::build(&t, "lineitem.l_partkey").unwrap();
        assert_eq!(idx.column(), "l_partkey");
    }

    #[test]
    fn unknown_column_errors() {
        let t = table(10, 2);
        assert!(SecondaryIndex::build(&t, "nope").is_err());
    }

    #[test]
    fn total_entries_matches_rows() {
        let t = table(500, 3);
        let idx = SecondaryIndex::build(&t, "l_partkey").unwrap();
        assert_eq!(idx.total_entries(), 500);
        let keys: usize = (0..3).map(|p| idx.partition_keys(p)).sum();
        assert!(keys >= 50, "at least 50 distinct keys overall, got {keys}");
    }

    #[test]
    fn every_row_is_reachable_through_its_own_key() {
        let t = table(300, 3);
        let idx = SecondaryIndex::build(&t, "l_orderkey").unwrap();
        for p in 0..3 {
            for (chunk, batch) in t.batches(p).iter().enumerate() {
                for slot in 0..batch.num_rows() {
                    let key = batch.value(slot, 0);
                    // l_orderkey is unique: one address per key.
                    assert_eq!(idx.probe(p, &key), &[(chunk as u32, slot as u32)]);
                }
            }
            assert_eq!(idx.partition_keys(p), t.partition_len(p));
        }
    }

    #[test]
    fn addresses_of_a_key_follow_storage_order() {
        let t = table(2000, 2);
        let idx = SecondaryIndex::build(&t, "l_partkey").unwrap();
        for p in 0..2 {
            let addrs = idx.probe(p, &Value::Int64(3));
            assert!(!addrs.is_empty());
            assert!(addrs.windows(2).all(|w| w[0] < w[1]), "{addrs:?}");
        }
    }

    #[test]
    fn index_of_an_empty_table_is_empty() {
        let t = table(0, 4);
        let idx = SecondaryIndex::build(&t, "l_partkey").unwrap();
        assert_eq!(idx.num_partitions(), 4);
        assert_eq!(idx.total_entries(), 0);
        assert!((0..4).all(|p| idx.partition_keys(p) == 0));
        assert!(idx.probe(0, &Value::Int64(0)).is_empty());
    }
}
