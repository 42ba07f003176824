//! IR-Fusion: a fusion framework for static IR drop analysis combining
//! numerical solution and machine learning.
//!
//! This crate is the top of the reproduction stack. It wires together:
//!
//! - the SPICE front door ([`irf_spice`]) and circuit model
//!   ([`irf_pg`]);
//! - the **AMG-PCG** numerical solver ([`irf_sparse`]) run for a small
//!   number of iterations to obtain a *rough* solution;
//! - hierarchical numerical-structural **feature fusion**
//!   ([`irf_features`]);
//! - the **Inception Attention U-Net** and the baseline zoo
//!   ([`irf_models`]) on the in-house autograd framework
//!   ([`irf_nn`]);
//! - **augmented curriculum learning** ([`irf_data`]) for training;
//! - contest metrics ([`irf_metrics`]) for evaluation.
//!
//! # Quickstart
//!
//! ```
//! use ir_fusion::{FusionConfig, IrFusionPipeline};
//! use irf_data::{synthesize, SynthSpec};
//!
//! // Synthesize a small design and analyze it end to end.
//! let grid = synthesize(&SynthSpec::default());
//! let pipeline = IrFusionPipeline::new(FusionConfig::default());
//! let analysis = pipeline.stack_builder().analyze(&grid, None)?;
//! assert!(analysis.rough_map.max() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod evaluate;
pub mod experiment;
pub mod pipeline;
pub mod report;
pub mod stages;
pub mod store;
pub mod train;

pub use checkpoint::{load_model, save_model};
pub use config::{FusionConfig, TrainConfig};
pub use evaluate::{evaluate_model, evaluate_numerical};
pub use irf_features::FeatureError;
pub use pipeline::{
    Analysis, AnalysisSession, CachePolicy, EditPlan, FeatureStackBuilder, IrFusionPipeline,
    PreparedSample, PreparedStack, StreamPrepareError,
};
pub use report::SignoffReport;
pub use stages::{
    apply_topology_deltas, conductance_fingerprint, currents_fingerprint, design_fingerprint,
    geometry_fingerprint, topology_fingerprint, warm_stage_fingerprint, EditError, Prediction,
    RoughSolution, Stage, StagePlan, TopologyDelta, WARM_ROUGH_TAG,
};
pub use store::{StageArtifact, StageCounters, StageStore};
pub use train::{train, TrainedModel};
