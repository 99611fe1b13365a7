//! Exchange operators: the explicit data movements between partitions.
//!
//! In the paper's Hyracks runtime these are the connectors between operator
//! instances. Each movement is an explicit operator that runs its
//! per-partition half on the worker pool and reports the rows/bytes it moved,
//! so the cost model's network charges correspond to real, metered exchanges.
//! All three move batches: a re-shuffle re-buckets them, a broadcast shares
//! them, and [`Gather`] — result delivery — is where a query's rows are
//! finally materialized.

use crate::pool::WorkerPool;
use rdo_common::{Batch, Relation};
use rdo_exec::partition::repartition_batches;
use rdo_exec::PartitionedData;

/// Re-shuffles tuples so every row lives in the partition its key hashes to
/// (the exchange in front of each hash-join input that is not already
/// partitioned on its join key).
#[derive(Debug, Clone)]
pub struct HashRepartition {
    /// Index of the key column in the input schema.
    pub key_index: usize,
    /// (Possibly qualified) name of the key column; the output is tagged as
    /// partitioned on its unqualified form.
    pub key_name: String,
}

impl HashRepartition {
    /// Creates the exchange.
    pub fn new(key_index: usize, key_name: impl Into<String>) -> Self {
        Self {
            key_index,
            key_name: key_name.into(),
        }
    }

    /// Runs the exchange: each source partition is bucketed on the pool, then
    /// the buckets are concatenated in source-partition order (making the
    /// output independent of worker interleaving). Returns the re-partitioned
    /// data and the rows/bytes that crossed partitions.
    pub fn apply(&self, data: &PartitionedData, pool: &WorkerPool) -> (PartitionedData, u64, u64) {
        let n = data.num_partitions();
        let bucketed = pool.map_indexed(n, |from| {
            repartition_batches(&data.partitions()[from], self.key_index, from, n)
        });
        PartitionedData::from_buckets(data.schema().clone(), bucketed, n, &self.key_name)
    }
}

/// Replicates an input to every one of `target_partitions` partitions (the
/// exchange in front of broadcast and indexed nested-loop joins). The batches
/// are shared — workers probe the same replica instead of each copying it —
/// while the metrics still charge the full `rows × partitions` replication
/// the real cluster would pay.
#[derive(Debug, Clone, Copy)]
pub struct Broadcast {
    /// Number of partitions the input is replicated to.
    pub target_partitions: usize,
}

impl Broadcast {
    /// Creates the exchange.
    pub fn new(target_partitions: usize) -> Self {
        Self { target_partitions }
    }

    /// Runs the exchange: flattens the input into one run of (shared)
    /// batches and returns it with the replication volume (rows, bytes)
    /// charged for shipping a copy to every target partition.
    pub fn apply(&self, data: &PartitionedData) -> (Vec<Batch>, u64, u64) {
        let copies = self.target_partitions as u64;
        (
            data.all_batches(),
            data.row_count() as u64 * copies,
            data.approx_bytes() as u64 * copies,
        )
    }
}

/// Collects every partition on the coordinator, in partition order — result
/// delivery to the user (and the input to the Sink's table build).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gather;

impl Gather {
    /// Runs the exchange.
    pub fn apply(&self, data: &PartitionedData) -> Relation {
        data.gather()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Schema, Tuple, Value};
    use rdo_exec::data::partition_for;

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
    fn hash_repartition_matches_serial_repartition_for_any_worker_count() {
        let input = data(500, 8);
        let (expected, expected_rows, expected_bytes) =
            HashRepartition::new(1, "t.g").apply(&input, &WorkerPool::new(1));
        for workers in [2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let (out, rows, bytes) = HashRepartition::new(1, "t.g").apply(&input, &pool);
            assert_eq!(out.partitions(), expected.partitions(), "workers={workers}");
            assert_eq!(rows, expected_rows);
            assert_eq!(bytes, expected_bytes);
            assert!(out.is_partitioned_on("g"));
            for p in 0..8 {
                for row in out.partition_rows(p) {
                    assert_eq!(partition_for(row.value(1), 8), p);
                }
            }
        }
    }

    #[test]
    fn repartition_moves_rows_to_hash_partition() {
        let d = data(1000, 8);
        let (r, moved_rows, moved_bytes) =
            HashRepartition::new(1, "t.g").apply(&d, &WorkerPool::new(1));
        assert_eq!(r.row_count(), 1000);
        assert!(r.is_partitioned_on("g"));
        assert!(r.is_partitioned_on("t.g"));
        assert!(moved_rows > 0 && moved_rows <= 1000);
        assert!(moved_bytes > 0);
        // Every row must be in the partition its key hashes to.
        for p in 0..8 {
            for row in r.partition_rows(p) {
                assert_eq!(partition_for(row.value(1), 8), p);
            }
        }
    }

    #[test]
    fn repartition_on_same_key_moves_nothing_second_time() {
        let pool = WorkerPool::new(1);
        let exchange = HashRepartition::new(0, "k");
        let (once, _, _) = exchange.apply(&data(500, 4), &pool);
        let (_twice, moved, _) = exchange.apply(&once, &pool);
        assert_eq!(moved, 0, "already partitioned data should not move");
    }

    #[test]
    fn broadcast_charges_replication_volume() {
        let input = data(30, 3);
        let (replica, replicated_rows, replicated_bytes) = Broadcast::new(4).apply(&input);
        assert_eq!(replica.iter().map(Batch::num_rows).sum::<usize>(), 30);
        assert_eq!(replicated_rows, 30 * 4);
        assert_eq!(replicated_bytes, input.approx_bytes() as u64 * 4);
        // Shared, not copied: the replica's columns are the input's.
        assert!(std::ptr::eq(
            replica[0].column(0),
            input.partitions()[0][0].column(0)
        ));
    }

    #[test]
    fn gather_flattens_in_partition_order() {
        let input = data(10, 2);
        let relation = Gather.apply(&input);
        assert_eq!(relation.len(), 10);
        assert_eq!(relation, input.gather());
    }
}
