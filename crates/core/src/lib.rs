//! Runtime dynamic optimization — the paper's primary contribution.
//!
//! The [`DynamicDriver`] implements Algorithm 1: push down and execute complex
//! local predicates first, then repeatedly ask the Planner for the single
//! cheapest next join, execute just that join, materialize its result while
//! collecting online statistics, reconstruct the remaining query around the
//! intermediate, and stop re-optimizing once at most two joins remain. A run
//! is one list of [`Stage`]s, each ending in a Sink but the final job; a
//! [`CheckpointLog`] is a prefix of it that a [`CheckpointedDriver`] resumes.
//!
//! The [`QueryRunner`] executes the same query under any of the strategies the
//! paper compares (dynamic, INGRES-like, cost-based, best-order, worst-order,
//! pilot-run, and the ablation variants used for Figure 6) and reports wall
//! time, simulated cluster cost and the overhead breakdown.

pub mod checkpoint;
pub mod driver;
pub mod report;
pub mod runner;

pub use checkpoint::{CheckpointLog, CheckpointedDriver, FailureInjector};
pub use driver::{DynamicConfig, DynamicDriver, DynamicOutcome, SinkTarget, Stage, StageKind};
pub use rdo_exec::{ParallelConfig, ParallelExecutor};
pub use report::{CostBreakdown, OverheadReport};
pub use runner::{QueryRunner, RunReport, Strategy};
