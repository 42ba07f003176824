//! SPICE netlist parsing for power-grid (PG) designs.
//!
//! The IR-Fusion flow starts from a SPICE description of the power
//! grid — resistors for metal segments and vias, current sources for
//! cell load, and voltage sources for the power pads. This crate
//! provides:
//!
//! - [`parse`] / [`parse_reader`]: a line-oriented SPICE parser
//!   covering the subset used by PG analysis (`R`, `I`, `V` elements,
//!   `*` comments, `+` continuations, SI value suffixes, `.end`), from
//!   a `&str` or any `BufRead`; [`visit_cards`] streams the same cards
//!   to a callback without building a netlist. All three run the one
//!   chunk-parallel driver in [`stream`].
//! - [`netlist::Netlist`]: the parsed design with hash-interned node
//!   names and structured node coordinates following the ICCAD-2023
//!   contest convention `n<net>_m<layer>_<x>_<y>`.
//! - [`writer::write`]: serialization back to SPICE, so synthetic
//!   designs round-trip through the same front door real designs use.
//!
//! # Example
//!
//! ```
//! let src = "\
//! * tiny grid
//! R1 n1_m1_0_0 n1_m1_1000_0 0.5
//! I1 n1_m1_1000_0 0 1m
//! V1 n1_m4_0_0 0 1.1
//! R2 n1_m4_0_0 n1_m1_0_0 0.1
//! .end
//! ";
//! let netlist = irf_spice::parse(src)?;
//! assert_eq!(netlist.resistors().len(), 2);
//! assert_eq!(netlist.current_sources().len(), 1);
//! assert_eq!(netlist.voltage_sources().len(), 1);
//! # Ok::<(), irf_spice::ParseError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod lexer;
pub mod netlist;
pub mod parser;
pub mod stream;
pub mod value;
pub mod writer;

pub use error::ParseError;
pub use hash::{source_hash, Fnv1a};
pub use netlist::{CurrentSource, Netlist, NodeId, NodeInfo, Resistor, VoltageSource};
pub use parser::parse;
pub use stream::{
    parse_reader, visit_cards, ChunkReader, StreamError, StreamedCard, StreamedCardKind,
};
pub use writer::write;
