//! Runtime Dynamic Optimization for Join Queries — a reproduction of
//! Pavlopoulou, Carey and Tsotras, *"Revisiting Runtime Dynamic Optimization for
//! Join Queries in Big Data Management Systems"* (EDBT 2022), as a Rust library.
//!
//! The crate is an umbrella over the workspace:
//!
//! * [`common`] — values, schemas, tuples and relations;
//! * [`sketch`] — Greenwald–Khanna quantile sketches, HyperLogLog and the
//!   statistics catalog;
//! * [`storage`] — the partitioned in-memory storage, secondary indexes and
//!   ingestion-time statistics of the simulated shared-nothing cluster;
//! * [`spill`] — disk-backed materialization: the compact tuple page format,
//!   the fixed-frame buffer pool (CLOCK eviction, pin/unpin, dirty writeback)
//!   and the budget-driven spill policy (`RDO_SPILL_BUDGET`) that let
//!   intermediate results exceed RAM;
//! * [`exec`] — the execution runtime: physical operators (hash / broadcast /
//!   indexed nested-loop joins), the memory-budgeted grace/hybrid hash join
//!   (`RDO_JOIN_BUDGET`), the partition-parallel executor (a persistent
//!   worker pool running one task per partition, with explicit, metered
//!   exchange operators between them), the Sink and the cluster cost model;
//! * [`net`] — page-batch wire framing over the spill page codecs, kept only
//!   for the wall-clock benchmark's `net.page_batch_*` probe;
//! * [`planner`] — the query model, cardinality estimation, the greedy
//!   next-join Planner and the static baselines (cost-based, best-order,
//!   worst-order, pilot-run);
//! * [`core`] — the runtime dynamic optimization driver (Algorithm 1), whose
//!   run is one list of stages that doubles as its recovery checkpoints, and
//!   the strategy runner;
//! * [`trace`] — the observability substrate: structured spans, counters,
//!   gauges and latency histograms, the optimizer audit trail
//!   (estimate-vs-actual Q-error, re-optimization decision explanations) and
//!   the `RDO_METRICS_ADDR` live scrape endpoint;
//! * [`workloads`] — synthetic TPC-H / TPC-DS style generators and the four
//!   evaluation queries (Q8, Q9, Q17, Q50), both as programmatic specs and as
//!   SQL++ text;
//! * [`sql`] — the SQL++ frontend (lexer, parser, binder) that turns query text
//!   into the spec consumed by the optimizers plus the post-join GROUP BY /
//!   ORDER BY / LIMIT stage;
//! * [`server`] — the multi-query SQL server front-end: TCP sessions over a
//!   length-prefixed frame protocol, one shared worker pool, global memory
//!   admission (`RDO_SERVER_MEM_BUDGET`) and a learned-stats plan cache that
//!   lets repeat queries plan from measured cardinalities.
//!
//! # Quickstart
//!
//! ```
//! use runtime_dynamic_optimization::prelude::*;
//!
//! // Load the synthetic benchmark data at a tiny scale factor.
//! let mut env = BenchmarkEnv::load(ScaleFactor::gb(1), 4, false, 42).unwrap();
//!
//! // Run TPC-H Q9 (UDF predicates on part and orders) with the paper's
//! // runtime dynamic optimization and with the static cost-based baseline.
//! let runner = QueryRunner::default();
//! let dynamic = runner.run(Strategy::Dynamic, &q9(), &mut env.catalog).unwrap();
//! let cost_based = runner.run(Strategy::CostBased, &q9(), &mut env.catalog).unwrap();
//!
//! // Both compute the same answer; the dynamic plan is never worse by more
//! // than its (small) re-optimization overhead.
//! assert_eq!(
//!     dynamic.result.clone().sorted(),
//!     cost_based.result.clone().sorted()
//! );
//! ```

pub use rdo_common as common;
pub use rdo_core as core;
pub use rdo_exec as exec;
pub use rdo_net as net;
pub use rdo_planner as planner;
pub use rdo_server as server;
pub use rdo_sketch as sketch;
pub use rdo_spill as spill;
pub use rdo_sql as sql;
pub use rdo_storage as storage;
pub use rdo_trace as trace;
pub use rdo_workloads as workloads;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use rdo_common::{
        batch_size, Batch, Column, DataType, Field, FieldRef, NullBitmap, Relation, Schema, Tuple,
        Value, BATCH_SIZE_ENV, DEFAULT_BATCH_SIZE,
    };
    pub use rdo_core::{
        CheckpointLog, CheckpointedDriver, CostBreakdown, DynamicConfig, DynamicDriver,
        DynamicOutcome, FailureInjector, OverheadReport, QueryRunner, RunReport, SinkTarget, Stage,
        StageKind, Strategy,
    };
    pub use rdo_exec::{
        AggregateExpr, AggregateFunc, CmpOp, CostModel, ExecutionMetrics, JoinAlgorithm,
        ParallelConfig, ParallelExecutor, PhysicalPlan, PostProcess, Predicate, SortKey,
        WorkerPool,
    };
    pub use rdo_planner::{
        BestOrderOptimizer, CostBasedOptimizer, DatasetRef, GreedyPlanner, JoinAlgorithmRule,
        LearnedStatsCatalog, NextJoinPolicy, Optimizer, PilotRunOptimizer, QuerySpec,
        WorstOrderOptimizer,
    };
    pub use rdo_server::{
        AdmissionController, Client, ErrorCode, QueryResponse, RunSummary, ServerConfig,
        ServerHandle, SqlServer,
    };
    pub use rdo_sketch::{ColumnStats, EquiHeightHistogram, GkSketch, HyperLogLog, StatsCatalog};
    pub use rdo_spill::{decode_batch, encode_batch};
    pub use rdo_sql::{compile, BoundQuery, ParamBindings, UdfRegistry};
    pub use rdo_storage::{
        Catalog, IngestOptions, SecondaryIndex, SpillConfig, StoredIntermediate, Table,
    };
    pub use rdo_trace::audit::{AuditLog, EstimateRecord, ReoptDecision};
    pub use rdo_trace::serve::MetricsServer;
    pub use rdo_trace::{Histogram, Profile, TraceHandle};
    pub use rdo_workloads::{
        all_queries, compile_paper_query, paper_udfs, q17, q50, q8, q9, BenchmarkEnv, ScaleFactor,
    };
}
