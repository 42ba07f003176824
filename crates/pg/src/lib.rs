//! Power-grid circuit model, MNA system assembly, and rasterization.
//!
//! This crate turns SPICE netlist text, read card by card through
//! [`irf_spice::visit_cards`] ([`grid_from_spice_reader`],
//! [`grid_from_spice_path`]), into:
//!
//! - a structured multi-layer [`PowerGrid`] (nodes with layer and
//!   coordinates, resistive segments, cell loads, power pads);
//! - a reduced SPD linear system via modified nodal analysis
//!   ([`stamp::PgSystem`]) expressed in **IR-drop coordinates**
//!   (`drop = Vdd - v`, pads are Dirichlet zeros folded into the
//!   diagonal), so the solution is non-negative and directly equals
//!   the per-node IR drop;
//! - fixed-size image rasterization ([`raster::Rasterizer`] /
//!   [`raster::GridMap`]) translating node coordinates to the pixel
//!   grid exactly as the paper does (`x = x_n / w`, `y = y_n / l`).
//!
//! # Example
//!
//! ```
//! use irf_pg::grid_from_spice_reader;
//!
//! let src = "\
//! R1 n1_m1_0_0 n1_m1_2000_0 0.5
//! R2 n1_m4_0_0 n1_m1_0_0 0.1
//! I1 n1_m1_2000_0 0 1m
//! V1 n1_m4_0_0 0 1.1
//! .end
//! ";
//! let grid = grid_from_spice_reader(src.as_bytes())?;
//! let system = grid.build_system();
//! assert_eq!(system.matrix.rows(), 2); // pad node eliminated
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod grid;
pub mod raster;
pub mod stamp;
pub mod stats;
pub mod streaming;

pub use error::ModelError;
pub use grid::{Load, Pad, PgNode, PowerGrid, Segment};
pub use raster::{GridMap, Rasterizer, TileTable};
pub use stamp::{PgStructure, PgSystem};
pub use streaming::{grid_from_spice_path, grid_from_spice_reader, IngestError};

/// The power-grid model error type. Alias for [`ModelError`]: malformed
/// grids surface as `Err(PgError)` rather than panics.
pub type PgError = ModelError;
pub use stats::DesignStats;
