//! Partitioned intermediate data flowing between operators.
//!
//! A [`PartitionedData`] is what one operator hands the next: per cluster
//! partition, a run of [`Batch`]es. Scans produce it (sharing the stored
//! chunks when nothing is filtered out), exchanges re-arrange it, joins
//! consume two of them, and the Sink moves its batches into the catalog —
//! all without a row in sight. Rows are produced in exactly one place,
//! [`PartitionedData::gather`], when a query's result leaves the operator
//! pipeline as a [`Relation`]; [`PartitionedData::from_rows`] and
//! [`PartitionedData::partition_rows`] are the explicit row edges for
//! tests that hold tuples.

use rdo_common::{batch_size, Batch, Relation, Schema, Tuple, Value};
use rdo_sketch::hll::hash_value;

/// Data produced by an operator, kept partitioned exactly as it would be across
/// the nodes of the shared-nothing cluster.
#[derive(Debug, Clone)]
pub struct PartitionedData {
    schema: Schema,
    partitions: Vec<Vec<Batch>>,
    /// Index (in `schema`) of the column the data is currently
    /// hash-partitioned on, if any. A subsequent hash join on the same column
    /// skips the re-partition exchange for this input — the "already
    /// partitioned on the join key(s)" case of the paper's hash-join
    /// description. An index, not a name: after a join, `a.id` and `b.id`
    /// are different columns even though both are called `id`.
    partition_key: Option<usize>,
}

impl PartitionedData {
    /// Creates partitioned data from per-partition batch runs.
    pub fn new(schema: Schema, partitions: Vec<Vec<Batch>>, partition_key: Option<usize>) -> Self {
        Self {
            schema,
            partitions,
            partition_key,
        }
    }

    /// Creates partitioned data from per-partition rows, chunked at
    /// [`batch_size`] — the row edge in (tests).
    pub fn from_rows(
        schema: Schema,
        partitions: Vec<Vec<Tuple>>,
        partition_key: Option<usize>,
    ) -> Self {
        let width = schema.len();
        let partitions = partitions
            .iter()
            .map(|rows| {
                rows.chunks(batch_size())
                    .map(|chunk| Batch::from_rows(width, chunk))
                    .collect()
            })
            .collect();
        Self::new(schema, partitions, partition_key)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The partitions: one run of batches each.
    pub fn partitions(&self) -> &[Vec<Batch>] {
        &self.partitions
    }

    /// Consumes the data into its per-partition batch runs.
    pub fn into_partitions(self) -> Vec<Vec<Batch>> {
        self.partitions
    }

    /// The rows of one partition, materialized — the row edge out (tests).
    pub fn partition_rows(&self, index: usize) -> Vec<Tuple> {
        crate::partition::rows_of(&self.partitions[index])
    }

    /// Every partition's rows. Chunk boundaries are not part of the data's
    /// identity — two runs that bucketed or received the same rows
    /// differently still compare equal here.
    pub fn to_rows(&self) -> Vec<Vec<Tuple>> {
        (0..self.num_partitions())
            .map(|p| self.partition_rows(p))
            .collect()
    }

    /// Number of rows in one partition.
    pub fn partition_len(&self, index: usize) -> usize {
        self.partitions[index].iter().map(Batch::num_rows).sum()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Index of the column the data is hash-partitioned on, if any.
    pub fn partition_key(&self) -> Option<usize> {
        self.partition_key
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.partitions.iter().flatten().map(Batch::num_rows).sum()
    }

    /// Approximate total bytes (the tuple-model figure of the rows).
    pub fn approx_bytes(&self) -> usize {
        self.partitions
            .iter()
            .flatten()
            .map(Batch::approx_bytes)
            .sum()
    }

    /// True if the data is hash-partitioned on the column at index `column`.
    pub fn is_partitioned_on(&self, column: usize) -> bool {
        self.partition_key == Some(column)
    }

    /// Assembles the output of a re-partition exchange from the bucketed
    /// source partitions (each the result of
    /// [`crate::partition::repartition_batches`], in source-partition
    /// order): destination runs concatenate in source order, which makes the
    /// result independent of who bucketed which source.
    pub fn from_buckets(
        schema: Schema,
        bucketed: impl IntoIterator<Item = (Vec<Vec<Batch>>, u64, u64)>,
        num_partitions: usize,
        key_index: usize,
    ) -> (PartitionedData, u64, u64) {
        let mut partitions: Vec<Vec<Batch>> = vec![Vec::new(); num_partitions];
        let mut moved_rows = 0u64;
        let mut moved_bytes = 0u64;
        for (buckets, rows, bytes) in bucketed {
            moved_rows += rows;
            moved_bytes += bytes;
            for (to, mut bucket) in buckets.into_iter().enumerate() {
                partitions[to].append(&mut bucket);
            }
        }
        (
            PartitionedData::new(schema, partitions, Some(key_index)),
            moved_rows,
            moved_bytes,
        )
    }

    /// Gathers all partitions into a single relation, in partition order —
    /// result delivery, and the one place a query's rows are materialized.
    pub fn gather(&self) -> Relation {
        let mut rows = Vec::with_capacity(self.row_count());
        for batch in self.partitions.iter().flatten() {
            batch.extend_rows_into(&mut rows);
        }
        Relation::new(self.schema.clone(), rows).expect("batches match the schema width")
    }

    /// Every batch of every partition, in partition order (a broadcast build
    /// side). Shares the column payloads.
    pub fn all_batches(&self) -> Vec<Batch> {
        self.partitions.iter().flatten().cloned().collect()
    }
}

/// Partition id of a value for a cluster with `n` partitions.
pub fn partition_for(value: &Value, n: usize) -> usize {
    partition_for_hash(hash_value(value), n)
}

/// Partition id from a pre-computed stable digest. The re-partition operator
/// hashes borrowed column slots (`rdo_sketch::hll::hash_int64` and friends)
/// and routes through this, so row and batch placement agree by
/// construction.
pub fn partition_for_hash(hash: u64, n: usize) -> usize {
    (hash % n.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::DataType;

    fn data(n: i64, partitions: usize) -> PartitionedData {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("g", DataType::Int64)]);
        let mut parts = vec![Vec::new(); partitions];
        for i in 0..n {
            parts[(i % partitions as i64) as usize]
                .push(Tuple::new(vec![Value::Int64(i), Value::Int64(i % 7)]));
        }
        PartitionedData::from_rows(schema, parts, None)
    }

    #[test]
    fn row_count_and_bytes() {
        let d = data(100, 4);
        assert_eq!(d.row_count(), 100);
        assert_eq!(d.num_partitions(), 4);
        assert_eq!(d.approx_bytes(), d.gather().approx_bytes());
        assert_eq!(d.gather().len(), 100);
        assert_eq!(
            d.all_batches().iter().map(Batch::num_rows).sum::<usize>(),
            100
        );
    }

    #[test]
    fn rows_roundtrip_through_batches() {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("s", DataType::Utf8)]);
        let parts: Vec<Vec<Tuple>> = (0..3)
            .map(|p| {
                (0..p * 5)
                    .map(|i| {
                        Tuple::new(vec![
                            if i % 4 == 0 {
                                Value::Null
                            } else {
                                Value::Int64(i)
                            },
                            Value::Utf8(format!("p{p}-{i}")),
                        ])
                    })
                    .collect()
            })
            .collect();
        let d = PartitionedData::from_rows(schema, parts.clone(), Some(0));
        for (p, rows) in parts.iter().enumerate() {
            assert_eq!(&d.partition_rows(p), rows);
            assert_eq!(d.partition_len(p), rows.len());
        }
        assert_eq!(d.gather().rows(), parts.concat().as_slice());
    }

    /// The gather delivers partition 0's rows first, then partition 1's, and
    /// so on, each partition's batches in run order — whatever the row
    /// values would hash to.
    #[test]
    fn gather_concatenates_partitions_then_batches_in_order() {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
        let batch = |values: &[i64]| {
            let rows: Vec<Tuple> = values
                .iter()
                .map(|&v| Tuple::new(vec![Value::Int64(v)]))
                .collect();
            Batch::from_rows(1, &rows)
        };
        let partitions = vec![
            vec![batch(&[30, 10]), batch(&[20])],
            Vec::new(),
            vec![batch(&[5]), batch(&[]), batch(&[7, 6])],
            vec![batch(&[1])],
        ];
        let gathered = PartitionedData::new(schema, partitions, Some(0)).gather();
        let values: Vec<i64> = gathered
            .rows()
            .iter()
            .map(|row| match row.value(0) {
                Value::Int64(v) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(values, [30, 10, 20, 5, 7, 6, 1]);
    }

    fn int_batch(values: &[i64]) -> Batch {
        let rows: Vec<Tuple> = values
            .iter()
            .map(|&v| Tuple::new(vec![Value::Int64(v)]))
            .collect();
        Batch::from_rows(1, &rows)
    }

    #[test]
    fn from_buckets_concatenates_destinations_in_source_order() {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
        // Two sources, each bucketed into two destinations.
        let bucketed = vec![
            (vec![vec![int_batch(&[1, 2])], vec![int_batch(&[3])]], 2, 16),
            (vec![vec![int_batch(&[4])], vec![int_batch(&[5, 6])]], 1, 8),
        ];
        let (out, rows, bytes) = PartitionedData::from_buckets(schema, bucketed, 2, 0);
        assert_eq!((rows, bytes), (3, 24), "moved volume is the sources' sum");
        assert_eq!(out.partition_key(), Some(0));
        let values = |p: usize| -> Vec<Value> {
            out.partition_rows(p)
                .iter()
                .map(|r| r.value(0).clone())
                .collect()
        };
        assert_eq!(values(0), [1, 2, 4].map(Value::Int64));
        assert_eq!(values(1), [3, 5, 6].map(Value::Int64));
    }

    #[test]
    fn to_rows_ignores_chunk_boundaries() {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
        let coarse = PartitionedData::new(
            schema.clone(),
            vec![vec![int_batch(&[1, 2, 3])], vec![int_batch(&[4])]],
            None,
        );
        let fine = PartitionedData::new(
            schema,
            vec![
                vec![int_batch(&[1]), int_batch(&[]), int_batch(&[2, 3])],
                vec![int_batch(&[4])],
            ],
            None,
        );
        assert_ne!(coarse.partitions(), fine.partitions());
        assert_eq!(coarse.to_rows(), fine.to_rows());
        assert_eq!(coarse.partition_len(0), fine.partition_len(0));
        assert_eq!(coarse.approx_bytes(), fine.approx_bytes());
    }

    #[test]
    fn all_batches_shares_payloads_in_partition_order() {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
        let d = PartitionedData::new(
            schema,
            vec![vec![int_batch(&[9])], Vec::new(), vec![int_batch(&[8, 7])]],
            None,
        );
        let all = d.all_batches();
        assert_eq!(all.len(), 2);
        assert!(std::ptr::eq(
            all[0].column(0),
            d.partitions()[0][0].column(0)
        ));
        assert!(std::ptr::eq(
            all[1].column(0),
            d.partitions()[2][0].column(0)
        ));
        assert_eq!(d.into_partitions().iter().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn partition_key_tags_only_its_own_column() {
        let keyed = PartitionedData::from_rows(
            Schema::for_dataset("t", &[("a", DataType::Int64), ("b", DataType::Int64)]),
            vec![Vec::new(); 2],
            Some(1),
        );
        assert!(keyed.is_partitioned_on(1));
        assert!(!keyed.is_partitioned_on(0));
        let unkeyed = data(10, 2);
        assert_eq!(unkeyed.partition_key(), None);
        assert!(!unkeyed.is_partitioned_on(0) && !unkeyed.is_partitioned_on(1));
    }

    #[test]
    fn partition_ids_stay_in_range_and_agree_with_the_digest() {
        for n in [1, 2, 3, 8] {
            for v in -20..20 {
                let value = Value::Int64(v);
                let p = partition_for(&value, n);
                assert!(p < n);
                assert_eq!(p, partition_for_hash(hash_value(&value), n));
            }
        }
        // Zero partitions is treated as one rather than dividing by zero.
        assert_eq!(partition_for_hash(12345, 0), 0);
        assert_eq!(partition_for(&Value::from("x"), 1), 0);
    }
}
