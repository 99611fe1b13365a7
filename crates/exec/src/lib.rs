//! Physical execution layer of the simulated shared-nothing engine.
//!
//! This crate plays the role of Hyracks' operators in the paper's
//! architecture (Figure 2): the physical plan (scans with pushed-down
//! predicates and a tree of joins, each annotated with a join algorithm), the
//! per-partition operators a plan decomposes into, and a deterministic cost
//! model for the distributed effects — re-partitioning (shuffle), broadcast
//! replication, materialization of intermediate results at re-optimization
//! points, secondary-index lookups and online statistics collection. The
//! executor that maps the operators over the partitions of the
//! [`rdo_storage::Catalog`] is `rdo_parallel::ParallelExecutor`.
//!
//! The operators implemented here mirror Section 3 of the paper:
//!
//! * **Hash join** — both inputs are re-partitioned on the join key (skipped for
//!   an input already partitioned on it), then joined with a per-partition
//!   dynamic hash join. With a join memory budget configured
//!   (`RDO_JOIN_BUDGET`), partitions whose build side exceeds the budget run
//!   as grace/hybrid hash joins through the spill store ([`grace`]).
//! * **Broadcast join** — the (small) build input is replicated to every
//!   partition of the probe input.
//! * **Indexed nested-loop join** — the build input is broadcast and used to
//!   probe a secondary index of a base dataset.
//! * **Sink / Reader** — store materialized intermediate results as temporary
//!   tables ([`sink::store`]; the Sink that sketches them on the worker pool
//!   is `rdo_parallel::sink::materialize`) and read them back in later jobs.
//!
//! Data has one representation end to end: [`rdo_common::Batch`]. Tables
//! rest as runs of batches, [`PartitionedData`] carries runs of batches
//! between operators, and every per-partition operator ([`partition`]) is
//! written once over them — predicates evaluate column-at-a-time, hashing and
//! join-key comparison run over borrowed column slots. Rows are produced once
//! per query, when [`PartitionedData::gather`] hands the result to
//! [`PostProcess`] and the caller. Results are invariant to where chunk
//! boundaries fall (`RDO_BATCH_SIZE`, see [`partition::batch_size`]), and
//! bit-identical to the row-at-a-time reference kernels (`*_rows`) the
//! operators are tested against.

pub mod cost;
pub mod data;
pub mod expr;
pub mod grace;
pub mod partition;
pub mod plan;
pub mod post;
pub mod reference;
pub mod setup;
pub mod sink;

pub use cost::{CostModel, ExecutionMetrics};
pub use data::PartitionedData;
pub use expr::{evaluate_all_batch, CmpOp, Predicate, PredicateExpr, UdfFn};
pub use grace::{GraceContext, GraceTally, PreparedBuild};
pub use partition::{
    batch_size, column_partition_hashes, JoinBuildTable, BATCH_SIZE_ENV, DEFAULT_BATCH_SIZE,
};
pub use plan::{JoinAlgorithm, PhysicalPlan};
pub use post::{AggregateExpr, AggregateFunc, PostProcess, SortKey};
pub use sink::MaterializeOutcome;
