//! The structured multi-layer power-grid model.

use crate::error::ModelError;
use crate::stamp::PgSystem;
use std::sync::Arc;

/// A circuit node of the power grid (never ground, never removed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgNode {
    /// Name from the netlist.
    pub name: String,
    /// Metal layer (1 = bottom / cell layer). Nodes without the layer
    /// naming convention land on layer 1.
    pub layer: u32,
    /// X coordinate in database units.
    pub x: i64,
    /// Y coordinate in database units.
    pub y: i64,
    /// `true` if a voltage source pins this node (power pad).
    pub is_pad: bool,
}

/// A resistive segment (metal wire or inter-layer via).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Endpoint node indices into [`PowerGrid::nodes`].
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// Resistance in ohms (strictly positive).
    pub ohms: f64,
}

impl Segment {
    /// Conductance in siemens.
    #[must_use]
    pub fn conductance(&self) -> f64 {
        1.0 / self.ohms
    }
}

/// A cell load drawing DC current from a grid node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Load {
    /// Node index into [`PowerGrid::nodes`].
    pub node: usize,
    /// Drawn current in amperes (positive = current leaves the grid).
    pub amps: f64,
}

/// A power pad pinned to the supply voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pad {
    /// Node index into [`PowerGrid::nodes`].
    pub node: usize,
    /// Pad voltage in volts.
    pub volts: f64,
}

/// The distinct values of `layers`, ascending. A netlist names its
/// nodes layer by layer, so a value is compared with the one before it
/// before it is kept for the sort: long runs cost a compare each.
pub(crate) fn sorted_distinct(layers: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut distinct: Vec<u32> = Vec::new();
    for layer in layers {
        if distinct.last() != Some(&layer) {
            distinct.push(layer);
        }
    }
    distinct.sort_unstable();
    distinct.dedup();
    distinct
}

/// A validated multi-layer power grid.
///
/// Built by the one grid builder in [`crate::streaming`], from SPICE
/// bytes by [`grid_from_spice_reader`](crate::grid_from_spice_reader)
/// or [`grid_from_spice_path`](crate::grid_from_spice_path); ground
/// is removed, voltage sources become [`Pad`]s, current sources become
/// [`Load`]s, and elements touching only ground are dropped.
///
/// The node table is frozen by the builder and shared: cloning a grid
/// copies its segments, loads and pads (all `Copy` data) and bumps one
/// reference count, so a what-if edit never pays for the node names it
/// cannot touch. Code that must change a node builds a new table
/// (`grid.nodes.to_vec()`, edit, `.into()`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerGrid {
    /// All circuit nodes: one immutable table per design, shared by
    /// every clone of the grid.
    pub nodes: Arc<[PgNode]>,
    /// Resistive segments between nodes.
    pub segments: Vec<Segment>,
    /// Cell loads.
    pub loads: Vec<Load>,
    /// Power pads.
    pub pads: Vec<Pad>,
}

impl PowerGrid {
    /// Supply voltage: the maximum pad voltage.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoPads`] if the grid has no pads (cannot
    /// happen for grids built from SPICE text).
    pub fn try_vdd(&self) -> Result<f64, ModelError> {
        self.pads
            .iter()
            .map(|p| p.volts)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
            .ok_or(ModelError::NoPads)
    }

    /// Supply voltage: the maximum pad voltage.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no pads (cannot happen for grids built
    /// from SPICE text); use [`PowerGrid::try_vdd`] for grids of
    /// unknown provenance.
    #[must_use]
    pub fn vdd(&self) -> f64 {
        self.try_vdd().expect("grid has no pads")
    }

    /// Sorted list of metal layers present.
    #[must_use]
    pub fn layers(&self) -> Vec<u32> {
        sorted_distinct(self.nodes.iter().map(|n| n.layer))
    }

    /// Bounding box `(x0, y0, x1, y1)` over all nodes.
    #[must_use]
    pub fn bounding_box(&self) -> (i64, i64, i64, i64) {
        let mut bb = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        for n in self.nodes.iter() {
            bb.0 = bb.0.min(n.x);
            bb.1 = bb.1.min(n.y);
            bb.2 = bb.2.max(n.x);
            bb.3 = bb.3.max(n.y);
        }
        if self.nodes.is_empty() {
            (0, 0, 0, 0)
        } else {
            bb
        }
    }

    /// Adjacency list over segments: for each node, `(neighbour,
    /// conductance)` pairs. Used by feature extraction (shortest-path
    /// resistance) and validation.
    #[must_use]
    pub fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for s in &self.segments {
            adj[s.a].push((s.b, s.conductance()));
            adj[s.b].push((s.a, s.conductance()));
        }
        adj
    }

    /// Total current drawn by all loads (amperes).
    #[must_use]
    pub fn total_load_current(&self) -> f64 {
        self.loads.iter().map(|l| l.amps).sum()
    }

    /// Builds the reduced SPD system in IR-drop coordinates.
    /// See [`PgSystem`].
    ///
    /// # Panics
    ///
    /// Panics on malformed grids; use [`PgSystem::try_build`] for
    /// grids of unknown provenance.
    #[must_use]
    pub fn build_system(&self) -> PgSystem {
        PgSystem::build(self)
    }

    /// `true` when every node can reach a pad through segments — a
    /// well-formed grid; floating islands make the reduced system
    /// singular.
    #[must_use]
    pub fn is_connected_to_pads(&self) -> bool {
        if self.pads.is_empty() {
            return false;
        }
        let adj = self.adjacency();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.pads.iter().map(|p| p.node).collect();
        for &s in &stack {
            seen[s] = true;
        }
        while let Some(u) = stack.pop() {
            for &(v, _) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen.iter().all(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{grid_from_spice_reader, IngestError};

    const SRC: &str = "\
R1 n1_m1_0_0 n1_m1_2000_0 0.5
R2 n1_m4_0_0 n1_m1_0_0 0.1
I1 n1_m1_2000_0 0 1m
V1 n1_m4_0_0 0 1.1
.end
";

    #[test]
    fn builds_nodes_segments_loads_pads() {
        let g = grid_from_spice_reader(SRC.as_bytes()).unwrap();
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.segments.len(), 2);
        assert_eq!(g.loads.len(), 1);
        assert_eq!(g.pads.len(), 1);
        assert_eq!(g.vdd(), 1.1);
        assert!(g.nodes[g.pads[0].node].is_pad);
    }

    #[test]
    fn layers_are_collected() {
        let g = grid_from_spice_reader(SRC.as_bytes()).unwrap();
        assert_eq!(g.layers(), vec![1, 4]);
    }

    #[test]
    fn reversed_current_source_injects() {
        let src = "R1 a b 1.0\nI1 0 b 2m\nV1 a 0 1.0\n";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        assert_eq!(g.loads[0].amps, -2e-3);
    }

    #[test]
    fn no_pads_is_rejected() {
        let src = "R1 a b 1.0\n";
        assert!(matches!(
            grid_from_spice_reader(src.as_bytes()),
            Err(IngestError::Model(ModelError::NoPads))
        ));
    }

    #[test]
    fn zero_resistance_is_rejected() {
        let src = "R1 a b 0\nV1 a 0 1.0\n";
        assert!(matches!(
            grid_from_spice_reader(src.as_bytes()),
            Err(IngestError::Model(ModelError::NonPositiveResistance { .. }))
        ));
    }

    #[test]
    fn ungrounded_source_is_rejected() {
        let src = "R1 a b 1.0\nV1 a b 1.0\n";
        assert!(matches!(
            grid_from_spice_reader(src.as_bytes()),
            Err(IngestError::Model(ModelError::UngroundedSource { .. }))
        ));
    }

    #[test]
    fn connectivity_check() {
        let g = grid_from_spice_reader(SRC.as_bytes()).unwrap();
        assert!(g.is_connected_to_pads());
        let island = "R1 a b 1.0\nR2 c d 1.0\nV1 a 0 1.0\n";
        let g = grid_from_spice_reader(island.as_bytes()).unwrap();
        assert!(!g.is_connected_to_pads());
    }

    #[test]
    fn bounding_box_spans_nodes() {
        let g = grid_from_spice_reader(SRC.as_bytes()).unwrap();
        assert_eq!(g.bounding_box(), (0, 0, 2000, 0));
    }
}
