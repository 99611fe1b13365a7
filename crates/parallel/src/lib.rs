//! The plan executor of the simulated shared-nothing cluster.
//!
//! The storage layer models the cluster's data partitions faithfully
//! ([`rdo_storage::Catalog`] holds every table hash-partitioned across
//! `num_partitions` partitions). This crate executes physical plans with one
//! task per partition on a pool of persistent worker threads, exchanging
//! batches between partitions through explicit exchange operators — the role
//! Hyracks' connectors play in the paper's architecture. It is the engine's
//! only executor: one worker is the serial configuration.
//!
//! # Architecture
//!
//! ```text
//!             PhysicalPlan
//!                  │
//!          ParallelExecutor            (coordinator: recursion, planning of
//!                  │                    exchanges, metric folding)
//!      ┌───────────┼───────────┐
//!      ▼           ▼           ▼
//!  HashRepartition Broadcast  Gather   (exchange operators, rdo_parallel::exchange)
//!      │           │           │
//!      ▼           ▼           ▼
//!  ┌────────────────────────────────┐
//!  │           WorkerPool           │  (persistent threads, work-stealing by
//!  │  task = per-partition kernel   │   atomic partition counter)
//!  │  from rdo_exec::partition      │
//!  └────────────────────────────────┘
//! ```
//!
//! * **Worker pool** — [`WorkerPool`] spawns its threads **once** (per driver
//!   execution; `WorkerPool::new`) and feeds them jobs through a
//!   condvar-guarded dispatch slot, so per-stage spawn/join cost is gone;
//!   workers pull partition indexes from a shared atomic counter and run the
//!   per-partition kernels of [`rdo_exec::partition`]. With `workers = 1` no
//!   thread is spawned and the tasks run in a plain loop on the calling
//!   thread.
//! * **Exchange operators** — [`exchange::HashRepartition`] re-shuffles rows
//!   to the partition their key hashes to, [`exchange::Broadcast`] replicates
//!   a (small) build side to every partition, [`exchange::Gather`] collects
//!   partitions on the coordinator for result delivery.
//! * **Deterministic merging** — every task returns per-partition
//!   [`rdo_exec::ExecutionMetrics`] partials folded in partition order with
//!   [`rdo_exec::ExecutionMetrics::merge`] (associative and commutative), and
//!   exchange outputs concatenate buckets in source-partition order, so
//!   results and metrics are identical for every worker count and every
//!   interleaving.
//! * **Barriers at re-optimization points** — the dynamic driver (Algorithm 1)
//!   materializes each chosen join before re-planning. [`sink::materialize`]
//!   is that barrier: workers build and seal one `DatasetStatsBuilder`
//!   (GK + HLL) per partition, the partials are merged per tracked column on
//!   the pool, in partition order, and the intermediate is registered,
//!   mirroring the paper's per-partition Sink statistics.
//!
//! * **Transport seam** — each exchange routes through a [`Transport`]
//!   ([`transport`] module): [`InProcessTransport`] (the default) performs the
//!   movement as an in-process memory move, while the `rdo-net` crate's TCP
//!   backend ships the same tuples across worker processes as framed page
//!   batches. Both are bit-identical by contract; `RDO_TRANSPORT` selects
//!   the kind (see [`TransportKind`]).
//!
//! [`ParallelConfig::workers`] defaults to the machine's available
//! parallelism; `RDO_WORKERS` overrides it (see [`ParallelConfig::from_env`]),
//! which keeps benchmark figures reproducible on any core count.
//!
//! # Example
//!
//! Execute a tiny join plan on four workers and check it against one:
//!
//! ```
//! use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
//! use rdo_exec::{ExecutionMetrics, JoinAlgorithm, PhysicalPlan};
//! use rdo_parallel::{ParallelConfig, ParallelExecutor};
//! use rdo_storage::{Catalog, IngestOptions};
//!
//! let mut catalog = Catalog::new(4);
//! for (name, rows) in [("orders", 60i64), ("customer", 12)] {
//!     let schema = Schema::for_dataset(name, &[("id", DataType::Int64)]);
//!     let data = (0..rows).map(|i| Tuple::new(vec![Value::Int64(i % 12)])).collect();
//!     catalog
//!         .ingest(name, Relation::new(schema, data).unwrap(), IngestOptions::default())
//!         .unwrap();
//! }
//! let plan = PhysicalPlan::join(
//!     PhysicalPlan::scan("orders"),
//!     PhysicalPlan::scan("customer"),
//!     FieldRef::new("orders", "id"),
//!     FieldRef::new("customer", "id"),
//!     JoinAlgorithm::Hash,
//! );
//!
//! let mut serial_metrics = ExecutionMetrics::new();
//! let expected = ParallelExecutor::new(&catalog, ParallelConfig::serial())
//!     .execute_to_relation(&plan, &mut serial_metrics)
//!     .unwrap();
//!
//! let executor = ParallelExecutor::new(&catalog, ParallelConfig::serial().with_workers(4));
//! let mut metrics = ExecutionMetrics::new();
//! let actual = executor.execute_to_relation(&plan, &mut metrics).unwrap();
//!
//! // Bit-identical results and metrics at any worker count.
//! assert_eq!(actual, expected);
//! assert_eq!(metrics, serial_metrics);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod exchange;
pub mod executor;
pub mod pool;
pub mod sink;
pub mod transport;

pub use config::{
    parse_transport_env, parse_workers, ParallelConfig, TransportKind, TRANSPORT_ENV, WORKERS_ENV,
};
pub use exchange::{Broadcast, Gather, HashRepartition};
pub use executor::ParallelExecutor;
pub use pool::WorkerPool;
pub use sink::materialize;
pub use transport::{default_transport, InProcessTransport, Transport};
