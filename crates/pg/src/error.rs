//! Errors raised while building the circuit model.

use std::error::Error;
use std::fmt;

/// Error building or using a [`crate::PowerGrid`] model.
///
/// Also exported as [`PgError`](crate::PgError): malformed grids
/// surface as errors rather than panics, following the same convention
/// as `FeatureError::NoPads` upstream.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A resistor had a non-positive or non-finite resistance (`1e400`
    /// parses to infinity).
    NonPositiveResistance {
        /// Element name.
        name: String,
        /// The offending value.
        ohms: f64,
    },
    /// The design has no voltage source, so the system is floating.
    NoPads,
    /// A voltage source was not referenced to ground.
    UngroundedSource {
        /// Element name.
        name: String,
    },
    /// A current or voltage source had a non-finite value (`1e400`
    /// parses to infinity).
    NonFiniteSource {
        /// Element name.
        name: String,
        /// The offending value.
        value: f64,
    },
    /// A segment, load, or pad referenced a node index outside the
    /// grid's node list.
    InvalidNodeIndex {
        /// Which element kind held the bad reference.
        what: &'static str,
        /// The out-of-range index.
        index: usize,
        /// Number of nodes in the grid.
        nodes: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NonPositiveResistance { name, ohms } => {
                write!(
                    f,
                    "resistor '{name}' has non-positive or non-finite resistance {ohms}"
                )
            }
            ModelError::NoPads => write!(f, "design has no voltage source (floating grid)"),
            ModelError::UngroundedSource { name } => {
                write!(f, "voltage source '{name}' is not referenced to ground")
            }
            ModelError::NonFiniteSource { name, value } => {
                write!(f, "source '{name}' has non-finite value {value}")
            }
            ModelError::InvalidNodeIndex { what, index, nodes } => {
                write!(
                    f,
                    "{what} references node {index}, but grid has {nodes} nodes"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ModelError::NoPads.to_string().contains("floating"));
        let e = ModelError::NonPositiveResistance {
            name: "R9".into(),
            ohms: f64::INFINITY,
        };
        assert!(e.to_string().contains("R9"));
        assert!(e.to_string().contains("non-positive or non-finite"));
        let e = ModelError::NonFiniteSource {
            name: "I3".into(),
            value: f64::INFINITY,
        };
        assert!(e.to_string().contains("'I3'"));
        assert!(e.to_string().contains("non-finite"));
    }
}
