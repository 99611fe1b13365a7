//! The query model and every optimizer strategy evaluated in the paper.
//!
//! The crate provides:
//!
//! * [`QuerySpec`] — the logical multi-join query (datasets, local predicates,
//!   equi-join conditions, projection list), playing the role of the SQL++ /
//!   Algebricks representation.
//! * [`SizeEstimator`] — cardinality estimation: System-R's join-size formula
//!   (formula 1, written once in [`SizeEstimator::join_size`]) driven by the
//!   statistics catalog, with the default selectivity factors for complex
//!   predicates that static optimizers must fall back to.
//! * [`JoinAlgorithmRule`] — the physical rule choosing hash, broadcast or
//!   indexed nested-loop for a join, given the estimated input sizes and the
//!   available secondary indexes.
//! * [`GreedyPlanner`] — the paper's *Planner* stage: pick the single next join
//!   with the least estimated result cardinality (`NextJoinPolicy::Statistics`)
//!   or the INGRES-like cardinality-only variant (`NextJoinPolicy::CardinalityOnly`).
//! * [`reconstruct`] — the *Query Reconstruction* stage rewriting the remaining
//!   query around a materialized intermediate result.
//! * [`correlation`] — a CORDS-style screening tool quantifying how far the
//!   independence assumption is from the truth for a dataset's local
//!   predicates (the error source that motivates predicate push-down).
//! * [`optimizers`] — the planner's one join step
//!   ([`optimizers::join_subplans`]: formula 1 plus the algorithm rule over
//!   two sub-plans, whose leaves are each a [`optimizers::leaf_scan`]), which
//!   the greedy Planner ranks candidates with, and the static baselines built
//!   from it: cost-based (Selinger-style dynamic programming over initial
//!   statistics), worst-order, best-order and pilot-run.

pub mod algorithm;
pub mod correlation;
pub mod estimate;
pub mod greedy;
pub mod learned;
pub mod optimizers;
pub mod query;
pub mod reconstruct;

pub use algorithm::JoinAlgorithmRule;
pub use correlation::{analyze_predicates, analyze_query, CorrelationReport};
pub use estimate::{EstimationMode, SizeEstimator};
pub use greedy::{GreedyPlanner, NextJoinPolicy, PlannedJoin};
pub use learned::LearnedStatsCatalog;
pub use optimizers::{
    best_order::BestOrderOptimizer, cost_based::CostBasedOptimizer, pilot_run::PilotRunOptimizer,
    worst_order::WorstOrderOptimizer, Optimizer,
};
pub use query::{DatasetRef, JoinCondition, QuerySpec};
pub use reconstruct::{reconstruct_after_join, reconstruct_after_pushdown};
