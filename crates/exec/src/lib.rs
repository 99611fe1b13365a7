//! The execution runtime of the simulated shared-nothing engine.
//!
//! This crate plays the role of Hyracks in the paper's architecture
//! (Figure 2): the physical plan (scans with pushed-down predicates and a
//! tree of joins, each annotated with a join algorithm), the per-partition
//! operators a plan decomposes into, the exchanges that move data between
//! partitions, the executor that runs them on a pool of persistent worker
//! threads — one task per partition of the [`rdo_storage::Catalog`] — and a
//! deterministic cost model for the distributed effects (re-partitioning,
//! broadcast replication, materialization at re-optimization points,
//! secondary-index lookups, online statistics collection). It is the
//! engine's only executor: one worker is the serial configuration.
//!
//! # Architecture
//!
//! ```text
//!             PhysicalPlan
//!                  │
//!          ParallelExecutor            (coordinator: recursion, planning of
//!                  │                    exchanges, metric folding)
//!        ┌─────────┴─────────┐
//!        ▼                   ▼
//!  HashRepartition       Broadcast     (exchange operators, metered
//!        │                   │          memory moves)
//!        ▼                   ▼
//!  ┌────────────────────────────────┐
//!  │           WorkerPool           │  (persistent threads, work-stealing by
//!  │  task = per-partition kernel   │   atomic partition counter)
//!  │  from `partition`              │
//!  └────────────────────────────────┘
//! ```
//!
//! The operators mirror Section 3 of the paper:
//!
//! * **Hash join** — both inputs are re-partitioned on the join key (skipped
//!   for an input already partitioned on that column), then joined with a
//!   per-partition dynamic hash join. With a join memory budget configured
//!   (`RDO_JOIN_BUDGET`), partitions whose build side exceeds the budget run
//!   as grace/hybrid hash joins through the spill store ([`grace`]).
//! * **Broadcast join** — the (small) build input is replicated to every
//!   partition of the probe input.
//! * **Indexed nested-loop join** — the build input is broadcast and used to
//!   probe a secondary index of a base dataset.
//! * **Sink / Reader** — [`sink::materialize`] stores an intermediate result
//!   as a temporary table, the barrier at each re-optimization point: one
//!   sealed GK + HLL partial per partition, merged per tracked column in
//!   partition order, mirrors the paper's per-partition Sink statistics.
//!   Later jobs read the table back with an ordinary scan.
//!
//! How the pieces fit:
//!
//! * **Worker pool** — [`WorkerPool`] spawns its threads **once** (per driver
//!   execution) and feeds them jobs through a condvar-guarded dispatch slot;
//!   workers pull partition indexes from a shared atomic counter and run the
//!   per-partition kernels of [`partition`]. With `workers = 1` no thread is
//!   spawned and the tasks run in a plain loop on the calling thread.
//! * **Exchanges** — [`HashRepartition`] re-shuffles rows to the partition
//!   their key hashes to and [`Broadcast`] replicates a (small) build side
//!   to every partition. The executor calls them directly; each is a memory
//!   move inside the process that reports the rows and bytes it moved.
//! * **Deterministic merging** — every task returns per-partition
//!   [`ExecutionMetrics`] partials folded in partition order with
//!   [`ExecutionMetrics::merge`], and exchange outputs concatenate buckets in
//!   source-partition order, so results and metrics are identical for every
//!   worker count and every interleaving.
//!
//! Data has one representation end to end: [`rdo_common::Batch`]. Tables
//! rest as runs of batches, [`PartitionedData`] carries runs of batches
//! between operators, and every per-partition operator is written once over
//! them — predicates evaluate column-at-a-time, hashing and join-key
//! comparison run over borrowed column slots. Rows are produced once per
//! query, when the result is gathered for [`PostProcess`] and the caller.
//! Results are invariant to where chunk boundaries fall (`RDO_BATCH_SIZE`,
//! see [`partition::batch_size`]), and bit-identical to the row-at-a-time
//! reference kernels (`*_rows`) the operators are tested against.
//!
//! [`ParallelConfig::workers`] defaults to the machine's available
//! parallelism; `RDO_WORKERS` overrides it (see [`ParallelConfig::from_env`]).
//!
//! # Example
//!
//! Execute a tiny join plan on four workers and check it against one:
//!
//! ```
//! use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
//! use rdo_exec::{ExecutionMetrics, JoinAlgorithm, ParallelConfig, ParallelExecutor, PhysicalPlan};
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
pub mod cost;
pub mod data;
pub mod exchange;
pub mod executor;
pub mod expr;
pub mod grace;
pub mod partition;
pub mod plan;
pub mod pool;
pub mod post;
pub mod reference;
pub mod setup;
pub mod sink;

pub use config::{ParallelConfig, WORKERS_ENV};
pub use cost::{CostModel, ExecutionMetrics};
pub use data::PartitionedData;
pub use exchange::{Broadcast, HashRepartition};
pub use executor::ParallelExecutor;
pub use expr::{evaluate_all_batch, CmpOp, Predicate, PredicateExpr, UdfFn};
pub use grace::{GraceContext, GraceTally, PreparedBuild};
pub use partition::{
    batch_size, column_partition_hashes, JoinBuildTable, BATCH_SIZE_ENV, DEFAULT_BATCH_SIZE,
};
pub use plan::{JoinAlgorithm, PhysicalPlan};
pub use pool::WorkerPool;
pub use post::{AggregateExpr, AggregateFunc, PostProcess, SortKey};
pub use sink::{materialize, MaterializeOutcome};
