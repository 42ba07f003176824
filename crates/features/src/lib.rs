//! Hierarchical numerical-structural feature extraction (paper
//! Section III-C).
//!
//! IR-Fusion feeds its model a stack of per-design images:
//!
//! - **hierarchical numerical features** — the rough AMG-PCG solution
//!   rasterized *per metal layer* ([`solution::layer_solution_maps`]);
//! - **hierarchical structure features** — per-layer current maps
//!   ([`current::layer_current_maps`]), the effective distance to the
//!   pads ([`distance::effective_distance_map`]), the PDN density map
//!   ([`density::pdn_density_map_tiled`]), the resistance map
//!   ([`resistance::resistance_map`]) and the shortest-path resistance
//!   map ([`shortest_path::shortest_path_resistance_map`]).
//!
//! [`stack::FeatureExtractor`] bundles all of them into a named
//! [`stack::FeatureStack`] ready for the model zoo.
//!
//! Every splatted map is an index-and-add over the design's
//! [`irf_pg::TileTable`] — the tile and layer slot of each node, worked
//! out once per design and carried by [`GeometryMaps`] — and keeps the
//! bits of the per-sample coordinate splat it replaced
//! (`tests/tile_table_differential.rs`).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod current;
pub mod density;
pub mod distance;
pub mod error;
pub mod normalize;
pub mod resistance;
pub mod shortest_path;
pub mod solution;
pub mod stack;

pub use error::FeatureError;
pub use stack::{FeatureConfig, FeatureExtractor, FeatureStack, GeometryMaps, ResistanceMaps};
