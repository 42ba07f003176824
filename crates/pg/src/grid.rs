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
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNodeIndex`] when a segment, load,
    /// or pad references a node outside the grid's node list.
    pub fn try_build_system(&self) -> Result<PgSystem, ModelError> {
        PgSystem::try_build(self)
    }

    /// Builds the reduced SPD system in IR-drop coordinates.
    /// See [`PgSystem`].
    ///
    /// # Panics
    ///
    /// Panics on malformed grids; use [`PowerGrid::try_build_system`]
    /// for grids of unknown provenance.
    #[must_use]
    pub fn build_system(&self) -> PgSystem {
        PgSystem::build(self)
    }

    /// Merges parallel segments (same unordered endpoint pair) into
    /// one equivalent segment with the combined conductance —
    /// netlist sanitation that shrinks the MNA system without changing
    /// the electrical behaviour. Returns the number of segments
    /// merged away.
    pub fn merge_parallel_segments(&mut self) -> usize {
        use std::collections::HashMap;
        let before = self.segments.len();
        let mut combined: HashMap<(usize, usize), f64> = HashMap::new();
        let mut order: Vec<(usize, usize)> = Vec::new();
        for s in &self.segments {
            let key = (s.a.min(s.b), s.a.max(s.b));
            match combined.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() += s.conductance();
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(s.conductance());
                    order.push(key);
                }
            }
        }
        self.segments = order
            .into_iter()
            .map(|(a, b)| Segment {
                a,
                b,
                ohms: 1.0 / combined[&(a, b)],
            })
            .collect();
        before - self.segments.len()
    }

    /// Validation findings for a grid (empty = clean). Complements
    /// [`PowerGrid::is_connected_to_pads`] with the lint-level issues
    /// sign-off flows check before a solve.
    #[must_use]
    pub fn validate(&self) -> Vec<String> {
        let mut issues = Vec::new();
        if self.pads.is_empty() {
            issues.push("no power pads".to_string());
        }
        if self.loads.is_empty() {
            issues.push("no cell loads (all drops will be zero)".to_string());
        }
        if !self.is_connected_to_pads() {
            issues.push("some nodes cannot reach a pad (singular system)".to_string());
        }
        // Parallel duplicates.
        let mut seen = std::collections::HashSet::new();
        let mut dups = 0usize;
        for s in &self.segments {
            if !seen.insert((s.a.min(s.b), s.a.max(s.b))) {
                dups += 1;
            }
        }
        if dups > 0 {
            issues.push(format!(
                "{dups} parallel segments (consider merge_parallel_segments)"
            ));
        }
        // Negative loads feed current *into* the grid; legal but worth
        // flagging for a VDD net.
        let injecting = self.loads.iter().filter(|l| l.amps < 0.0).count();
        if injecting > 0 {
            issues.push(format!("{injecting} loads inject current into the grid"));
        }
        issues
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
    fn parallel_segments_merge_to_equivalent_conductance() {
        let src = "V1 p 0 1.0\nR1 p a 2.0\nR2 p a 2.0\nR3 a b 1.0\nI1 b 0 1m\n";
        let mut g = grid_from_spice_reader(src.as_bytes()).unwrap();
        assert_eq!(g.segments.len(), 3);
        let merged = g.merge_parallel_segments();
        assert_eq!(merged, 1);
        assert_eq!(g.segments.len(), 2);
        // Two 2-ohm resistors in parallel = 1 ohm.
        let pa = g
            .segments
            .iter()
            .find(|s| (s.a, s.b) != (1, 2) && (s.b, s.a) != (1, 2))
            .unwrap();
        assert!((pa.ohms - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validate_flags_issues() {
        let src = "V1 p 0 1.0\nR1 p a 2.0\nR2 p a 2.0\nI1 0 a 1m\n";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let issues = g.validate();
        assert!(issues.iter().any(|i| i.contains("parallel")));
        assert!(issues.iter().any(|i| i.contains("inject")));
        // A clean grid validates empty.
        let clean = "V1 p 0 1.0\nR1 p a 2.0\nI1 a 0 1m\n";
        let g = grid_from_spice_reader(clean.as_bytes()).unwrap();
        assert!(g.validate().is_empty(), "{:?}", g.validate());
    }

    #[test]
    fn merged_grid_solves_identically() {
        let src = "V1 p 0 1.0\nR1 p a 2.0\nR2 p a 2.0\nR3 a b 1.0\nI1 b 0 1m\n";
        let g0 = grid_from_spice_reader(src.as_bytes()).unwrap();
        let mut g1 = g0.clone();
        g1.merge_parallel_segments();
        let s0 = g0.build_system();
        let s1 = g1.build_system();
        let x0 = irf_sparse::Solver::new(irf_sparse::SolverKind::Cholesky)
            .solve(&s0.matrix, &s0.rhs)
            .x;
        let x1 = irf_sparse::Solver::new(irf_sparse::SolverKind::Cholesky)
            .solve(&s1.matrix, &s1.rhs)
            .x;
        for (a, b) in x0.iter().zip(&x1) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn bounding_box_spans_nodes() {
        let g = grid_from_spice_reader(SRC.as_bytes()).unwrap();
        assert_eq!(g.bounding_box(), (0, 0, 2000, 0));
    }
}
