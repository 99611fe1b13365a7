//! The transport seam of the exchange layer.
//!
//! The exchange operators of [`crate::exchange`] describe *what* moves between
//! partitions (a re-shuffle, a replication, a result collection); a
//! [`Transport`] decides *how* the tuples travel. [`InProcessTransport`] — the
//! default — performs the movements as memory moves inside the coordinator
//! process, exactly as every executor did before the seam existed. The
//! `rdo-net` crate provides a TCP implementation that routes the same
//! exchanges through worker processes as framed page batches, so the executor
//! and the driver never care which side of a socket a tuple crossed.
//!
//! The contract every implementation must honor: results, partition order and
//! the reported movement tallies are **bit-identical** to
//! [`InProcessTransport`]. A transport is a physical routing decision, never a
//! semantic one — the equivalence suites pin this for the TCP backend at
//! every worker-process count.

use crate::exchange::{Broadcast, Gather, HashRepartition};
use crate::pool::WorkerPool;
use rdo_common::{Batch, Relation, Result};
use rdo_exec::PartitionedData;
use std::sync::Arc;

/// How exchange operators move tuples between partitions.
///
/// Implementations must be deterministic and bit-identical to
/// [`InProcessTransport`]: same output partitions in the same order, same
/// moved-row/moved-byte tallies, same gathered relations.
pub trait Transport: std::fmt::Debug + Send + Sync {
    /// Short label for reports and logs (`"in-process"`, `"tcp"`).
    fn name(&self) -> &'static str;

    /// Runs a [`HashRepartition`] exchange over `data`, returning the
    /// re-partitioned data plus the rows and bytes that crossed partitions.
    fn repartition(
        &self,
        exchange: &HashRepartition,
        data: &PartitionedData,
        pool: &WorkerPool,
    ) -> Result<(PartitionedData, u64, u64)>;

    /// Runs a [`Broadcast`] exchange over `data`, returning the shared
    /// replica plus the replicated rows and bytes charged to the metrics.
    fn broadcast(
        &self,
        exchange: &Broadcast,
        data: &PartitionedData,
    ) -> Result<(Vec<Batch>, u64, u64)>;

    /// Runs the [`Gather`] exchange: collects every partition on the
    /// coordinator, in partition order.
    fn gather(&self, data: &PartitionedData) -> Result<Relation>;
}

/// The default transport: exchanges are in-process memory moves on the
/// coordinator, exactly the behavior the exchange operators had before the
/// [`Transport`] seam existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessTransport;

impl Transport for InProcessTransport {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn repartition(
        &self,
        exchange: &HashRepartition,
        data: &PartitionedData,
        pool: &WorkerPool,
    ) -> Result<(PartitionedData, u64, u64)> {
        Ok(exchange.apply(data, pool))
    }

    fn broadcast(
        &self,
        exchange: &Broadcast,
        data: &PartitionedData,
    ) -> Result<(Vec<Batch>, u64, u64)> {
        Ok(exchange.apply(data))
    }

    fn gather(&self, data: &PartitionedData) -> Result<Relation> {
        Ok(Gather.apply(data))
    }
}

/// Returns the default transport (an [`InProcessTransport`] behind an `Arc`).
pub fn default_transport() -> Arc<dyn Transport> {
    Arc::new(InProcessTransport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Schema, Tuple, Value};

    fn data(n: i64, partitions: usize) -> PartitionedData {
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64), ("g", DataType::Int64)]);
        let mut parts = vec![Vec::new(); partitions];
        for i in 0..n {
            parts[(i % partitions as i64) as usize]
                .push(Tuple::new(vec![Value::Int64(i), Value::Int64(i % 7)]));
        }
        PartitionedData::from_rows(schema, parts, None)
    }

    /// The in-process transport is a transparent wrapper over the exchange
    /// operators' own `apply` methods.
    #[test]
    fn in_process_transport_matches_direct_exchange_application() {
        let input = data(200, 4);
        let pool = WorkerPool::new(2);
        let transport = InProcessTransport;
        assert_eq!(transport.name(), "in-process");

        let exchange = HashRepartition::new(1, "t.g");
        let (expected, er, eb) = exchange.apply(&input, &pool);
        let (actual, ar, ab) = transport.repartition(&exchange, &input, &pool).unwrap();
        assert_eq!(actual.partitions(), expected.partitions());
        assert_eq!((ar, ab), (er, eb));

        let bcast = Broadcast::new(4);
        let (expected_rows, er, eb) = bcast.apply(&input);
        let (actual_rows, ar, ab) = transport.broadcast(&bcast, &input).unwrap();
        assert_eq!(actual_rows, expected_rows);
        assert_eq!((ar, ab), (er, eb));

        assert_eq!(transport.gather(&input).unwrap(), input.gather());
    }
}
