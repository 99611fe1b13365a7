//! The row-at-a-time reference kernels.
//!
//! The original implementations of scan, hash join and re-partition, one
//! tuple at a time over `Vec<Tuple>` partitions with a
//! `HashMap<Vec<Value>, _>` join table. No executor runs them any more: they
//! are the oracle the batch operators of [`crate::partition`] are tested
//! against (the differential suites assert identical rows, row order and
//! tallies), and the row side of the bench harnesses' row-vs-batch
//! comparisons. [`crate::partition`] re-exports them under their historical
//! paths.

use crate::data::partition_for;
use crate::expr::{evaluate_all, Predicate};
use crate::partition::{JoinTally, ScanTally};
use rdo_common::{Result, Schema, Tuple, Value};
use std::collections::HashMap;

/// The row-at-a-time scan: filters and projects one partition's rows.
pub fn scan_partition_rows(
    schema: &Schema,
    predicates: &[Predicate],
    projection: Option<&[usize]>,
    rows: &[Tuple],
) -> Result<(Vec<Tuple>, ScanTally)> {
    let mut out = Vec::new();
    let mut tally = ScanTally::default();
    for row in rows {
        tally.scanned_rows += 1;
        tally.scanned_bytes += row.approx_bytes() as u64;
        if evaluate_all(predicates, schema, row)? {
            let projected = match projection {
                Some(indexes) => row.project(indexes),
                None => row.clone(),
            };
            out.push(projected);
            tally.kept += 1;
        }
    }
    Ok((out, tally))
}

/// Extracts a composite join key, treating any NULL component as "no key"
/// (SQL equi-join semantics: NULL never matches).
pub fn composite_key(row: &Tuple, indexes: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(indexes.len());
    for &i in indexes {
        let v = row.value(i);
        if v.is_null() {
            return None;
        }
        key.push(v.clone());
    }
    Some(key)
}

/// The row-at-a-time hash join: builds a map over `build_rows` keyed by the
/// composite key and probes it row by row, emitting `probe ++ build` rows in
/// probe-major, build-insertion order.
pub fn hash_join_partition_rows(
    probe_rows: &[Tuple],
    build_rows: &[Tuple],
    probe_key_indexes: &[usize],
    build_key_indexes: &[usize],
) -> (Vec<Tuple>, JoinTally) {
    let mut tally = JoinTally::default();
    let mut table: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::with_capacity(build_rows.len());
    for row in build_rows {
        tally.build_rows += 1;
        if let Some(key) = composite_key(row, build_key_indexes) {
            table.entry(key).or_default().push(row);
        }
    }
    let mut out = Vec::new();
    for row in probe_rows {
        tally.probe_rows += 1;
        let Some(key) = composite_key(row, probe_key_indexes) else {
            continue;
        };
        if let Some(matches) = table.get(&key) {
            for m in matches {
                out.push(row.concat(m));
                tally.output_rows += 1;
            }
        }
    }
    (out, tally)
}

/// The row-at-a-time re-partition: buckets one source partition's rows by
/// the hash of the key column.
pub fn repartition_partition_rows(
    rows: &[Tuple],
    key_index: usize,
    from: usize,
    num_partitions: usize,
) -> (Vec<Vec<Tuple>>, u64, u64) {
    let mut buckets: Vec<Vec<Tuple>> = vec![Vec::new(); num_partitions];
    let mut moved_rows = 0u64;
    let mut moved_bytes = 0u64;
    for row in rows {
        let to = partition_for(row.value(key_index), num_partitions);
        if to != from {
            moved_rows += 1;
            moved_bytes += row.approx_bytes() as u64;
        }
        buckets[to].push(row.clone());
    }
    (buckets, moved_rows, moved_bytes)
}
