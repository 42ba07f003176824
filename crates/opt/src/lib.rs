//! `irf-opt`: the closed-loop PDN optimizer for IR-Fusion.
//!
//! Given a parsed power grid and an analysis pipeline, this crate
//! proposes typed topology edits ([`CandidateGenerator`]), prices them
//! in metal ([`CostModel`]) against a budget, and drives a
//! deterministic beam-search loop ([`Optimizer`]) through the
//! stage-graph what-if machinery until the worst-case IR drop meets a
//! target, the budget runs out, or improvement stalls. Every run is a
//! pure function of (grid, config, pipeline configuration) —
//! trajectories are byte-identical at any thread count and any cache
//! state, which the serving layer and bench gate rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod candidates;
mod cost;
mod optimizer;

pub use candidates::{Candidate, CandidateGenerator};
pub use cost::CostModel;
pub use optimizer::{
    BatchPredictor, IterationRecord, OptimizationReport, OptimizeError, Optimizer, OptimizerConfig,
    StopReason, WinnerPlan,
};
