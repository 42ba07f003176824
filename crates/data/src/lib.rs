//! Dataset substrate: synthetic power-grid designs, golden labels,
//! augmentation, and curriculum scheduling.
//!
//! The paper evaluates on the ICCAD-2023 contest dataset (100
//! BeGAN-generated "fake" designs + 20 real designs). That data is not
//! redistributable, so this crate synthesizes an equivalent corpus
//! from first principles (see DESIGN.md, "Substitutions"):
//!
//! - [`synth::SynthSpec`] / [`synth::synthesize`] build multi-layer
//!   stripe-and-via power grids as SPICE netlists;
//! - [`fake`] produces regular, smooth-current designs (the "easy"
//!   class), [`real_like`] produces irregular designs with macro
//!   blockages and clustered hotspots (the "hard" class);
//! - [`golden`] labels every design with an exact sparse-Cholesky
//!   solve;
//! - [`augment`] implements the paper's 90/180/270-degree rotation
//!   augmentation and oversampling;
//! - [`curriculum`] implements the predefined easy-to-hard curriculum
//!   scheduler;
//! - [`dataset::Dataset`] ties it together with the contest-style
//!   train/test split.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augment;
pub mod curriculum;
pub mod dataset;
pub mod export;
pub mod fake;
pub mod golden;
pub mod real_like;
pub mod synth;

pub use dataset::{Dataset, Design, DesignClass};
pub use synth::{
    approx_node_count, synthesize, synthesize_to_path, synthesize_to_string, synthesize_to_writer,
    SynthSpec,
};
