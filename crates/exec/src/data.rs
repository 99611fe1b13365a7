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
//! transports and tests that hold tuples.

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
    /// [`batch_size`] — the row edge in (transports that received tuples,
    /// tests).
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

    /// The rows of one partition, materialized — the row edge out
    /// (transports that ship tuples, tests).
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
}
