//! SPICE netlist reading for power-grid (PG) designs.
//!
//! The IR-Fusion flow starts from a SPICE description of the power
//! grid — resistors for metal segments and vias, current sources for
//! cell load, and voltage sources for the power pads. This crate has
//! one way in:
//!
//! - [`visit_cards`]: a line-oriented SPICE reader covering the subset
//!   used by PG analysis (`R`, `I`, `V` elements, `*` comments, `+`
//!   continuations, SI value suffixes, `.end`) from any `BufRead`. It
//!   parses chunks of cards in parallel ([`stream`]), rejects malformed
//!   cards and duplicate element names, and hands each card to a
//!   callback in source order. `irf-pg` builds its grid from those
//!   cards; nothing else turns SPICE bytes into a design.
//! - [`value`]: SPICE numbers with SI suffixes, both ways, so writers
//!   of SPICE text print values this reader gets back bit for bit.
//! - [`Fnv1a`]: the stable hash the stage-graph cache keys are made of.
//!
//! # Example
//!
//! ```
//! use irf_spice::{visit_cards, StreamedCardKind};
//!
//! let src = "\
//! * tiny grid
//! R1 n1_m1_0_0 n1_m1_1000_0 0.5
//! I1 n1_m1_1000_0 0 1m
//! V1 n1_m4_0_0 0 1.1
//! R2 n1_m4_0_0 n1_m1_0_0 0.1
//! .end
//! ";
//! let mut resistors = 0;
//! let mut load = 0.0;
//! visit_cards(src.as_bytes(), |card| {
//!     match card.kind {
//!         StreamedCardKind::Resistor => resistors += 1,
//!         StreamedCardKind::CurrentSource => load += card.value,
//!         StreamedCardKind::VoltageSource => assert_eq!(card.a, "n1_m4_0_0"),
//!     }
//!     Ok(())
//! })?;
//! assert_eq!((resistors, load), (2, 1e-3));
//! # Ok::<(), irf_spice::StreamError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod lexer;
pub mod parser;
pub mod stream;
pub mod value;

pub use error::ParseError;
pub use hash::Fnv1a;
pub use stream::{visit_cards, StreamError, StreamedCard, StreamedCardKind};
