//! MNA assembly of the reduced SPD system in IR-drop coordinates.
//!
//! Assembly is split along the stage-graph boundary the incremental
//! pipeline exploits: [`PgStructure`] is the *topology-only* artifact
//! (conductance matrix + node/row maps, determined by nodes, segments,
//! and the pad set — never by loads), while the right-hand side is a
//! cheap function of the load currents ([`PgStructure::rhs`]). A
//! current-only edit therefore reuses the assembled matrix verbatim.

use crate::error::ModelError;
use crate::grid::{Load, PowerGrid};
use irf_sparse::{CsrAssembler, CsrMatrix, PatternScatter};
use std::sync::Arc;

/// The MNA stamping walk, written once: hands `emit` every
/// `(row, col, value)` contribution of `grid`'s segments to the
/// reduced conductance matrix, in the fixed order every assembly path
/// consumes them (segment order; per segment diagonal `a`, diagonal
/// `b`, then the two off-diagonals). A segment to a pad folds into its
/// other end's diagonal; a pad-to-pad segment carries no unknown.
///
/// Every segment endpoint must index into `index_of`.
fn for_each_stamp(
    grid: &PowerGrid,
    index_of: &[Option<usize>],
    mut emit: impl FnMut(usize, usize, f64),
) {
    for s in &grid.segments {
        let g = s.conductance();
        match (index_of[s.a], index_of[s.b]) {
            (Some(a), Some(b)) => {
                emit(a, a, g);
                emit(b, b, g);
                emit(a, b, -g);
                emit(b, a, -g);
            }
            (Some(a), None) | (None, Some(a)) => emit(a, a, g),
            (None, None) => {}
        }
    }
}

/// The topology half of the reduced system `G d = I`: the conductance
/// matrix over non-pad nodes and the grid-node ↔ reduced-row maps.
///
/// Pads are Dirichlet nodes with `d = 0`; their coupling conductances
/// are folded into the diagonal of their neighbours, which keeps the
/// system symmetric positive definite and strictly diagonally dominant
/// at pad neighbours. Nothing here depends on the load currents.
///
/// Every part sits behind an `Arc`, so the artifacts built from a
/// structure hold it instead of copying it: a solver setup keeps the
/// matrix as its finest AMG level, and a re-stamped structure
/// ([`PgStructure::restamped`]) shares the base's node maps and
/// sparsity pattern, owning only its new values. Cloning one copies
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct PgStructure {
    /// Reduced conductance matrix over non-pad nodes.
    pub matrix: Arc<CsrMatrix>,
    /// For each grid node index, its row in the reduced system
    /// (`None` for pads).
    pub index_of: Arc<[Option<usize>]>,
    /// Reduced row -> grid node index.
    pub node_of: Arc<[usize]>,
}

impl PgStructure {
    /// Assembles the conductance matrix and node maps from a grid.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidNodeIndex`] when a segment, load,
    /// or pad references a node outside the grid's node list (cannot
    /// happen for grids produced by
    /// [`grid_from_spice_reader`](crate::grid_from_spice_reader)).
    pub fn try_build(grid: &PowerGrid) -> Result<Self, ModelError> {
        let n_nodes = grid.nodes.len();
        let bad_index = |what: &'static str, index: usize| ModelError::InvalidNodeIndex {
            what,
            index,
            nodes: n_nodes,
        };
        for s in &grid.segments {
            for idx in [s.a, s.b] {
                if idx >= n_nodes {
                    return Err(bad_index("segment", idx));
                }
            }
        }
        for l in &grid.loads {
            if l.node >= n_nodes {
                return Err(bad_index("load", l.node));
            }
        }
        for p in &grid.pads {
            if p.node >= n_nodes {
                return Err(bad_index("pad", p.node));
            }
        }
        let mut span = irf_trace::span("mna_assembly");
        let mut index_of = vec![None; n_nodes];
        let mut node_of = Vec::new();
        for (i, node) in grid.nodes.iter().enumerate() {
            if !node.is_pad {
                index_of[i] = Some(node_of.len());
                node_of.push(i);
            }
        }
        let n = node_of.len();
        // Two-pass, memory-lean assembly: a count pass sizes each row,
        // then stamps land directly in their row buckets — no triplet
        // buffer (24 B/entry) at million-node scale. Both passes, and
        // [`PgStructure::restamped`], run the one [`for_each_stamp`]
        // walk, so what `restamped` regenerates is bitwise identical.
        let mut asm = CsrAssembler::new(n, n);
        for_each_stamp(grid, &index_of, |row, _, _| asm.count_entry(row));
        asm.begin_fill();
        for_each_stamp(grid, &index_of, |row, col, value| asm.push(row, col, value));
        let matrix = asm.finish();
        if span.is_recording() {
            span.attr("grid_nodes", n_nodes);
            span.attr("unknowns", n);
            span.attr("nnz", matrix.nnz());
            span.attr("segments", grid.segments.len());
        }
        Ok(PgStructure {
            matrix: Arc::new(matrix),
            index_of: index_of.into(),
            node_of: node_of.into(),
        })
    }

    /// Assembles the structure, panicking on malformed grids.
    ///
    /// # Panics
    ///
    /// Panics where [`PgStructure::try_build`] would error.
    #[must_use]
    pub fn build(grid: &PowerGrid) -> Self {
        Self::try_build(grid).expect("malformed power grid")
    }

    /// Re-stamps an edited grid's conductances into this structure's
    /// sparsity pattern — the topology-delta fast path that skips the
    /// full MNA re-assembly sort.
    ///
    /// `edited` must be the same grid with only segment resistances
    /// changed: same node list, same pad set, same segment endpoints.
    /// Anything else — a structural mismatch, a new connection falling
    /// outside the base pattern, or a conductance sum landing on exact
    /// zero — returns `None`, and the caller falls back to
    /// [`PgStructure::build`]. On `Some`, the result is bitwise
    /// identical to a cold build of `edited`: the same stamps, in the
    /// same order, scatter-added straight into the base pattern. It
    /// shares this structure's node maps and the matrix's sparsity
    /// pattern; only the values are new.
    #[must_use]
    pub fn restamped(&self, edited: &PowerGrid) -> Option<PgStructure> {
        let n_nodes = self.index_of.len();
        if edited.nodes.len() != n_nodes {
            return None;
        }
        for (node, idx) in edited.nodes.iter().zip(self.index_of.iter()) {
            if node.is_pad != idx.is_none() {
                return None;
            }
        }
        if edited
            .segments
            .iter()
            .any(|s| s.a >= n_nodes || s.b >= n_nodes)
        {
            return None;
        }
        let mut span = irf_trace::span("mna_restamp");
        let mut scatter = PatternScatter::new(&self.matrix);
        for_each_stamp(edited, &self.index_of, |row, col, value| {
            scatter.add(row, col, value);
        });
        let matrix = scatter.finish()?;
        if span.is_recording() {
            span.attr("unknowns", self.node_of.len());
            span.attr("nnz", matrix.nnz());
            span.attr("segments", edited.segments.len());
        }
        Some(PgStructure {
            matrix: Arc::new(matrix),
            index_of: Arc::clone(&self.index_of),
            node_of: Arc::clone(&self.node_of),
        })
    }

    /// Dimension of the reduced system.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.node_of.len()
    }

    /// Builds the load-current right-hand side for this structure —
    /// the only part of the system that depends on the current vector.
    /// Loads on pads (or out-of-range nodes) contribute nothing.
    #[must_use]
    pub fn rhs(&self, loads: &[Load]) -> Vec<f64> {
        let mut rhs = vec![0.0; self.dim()];
        for l in loads {
            if let Some(Some(row)) = self.index_of.get(l.node) {
                rhs[*row] += l.amps;
            }
        }
        rhs
    }

    /// Expands a reduced solution to per-grid-node IR drops (pads get
    /// exactly `0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `reduced.len() != self.dim()`.
    #[must_use]
    pub fn expand_solution(&self, reduced: &[f64]) -> Vec<f64> {
        assert_eq!(
            reduced.len(),
            self.dim(),
            "reduced solution length mismatch"
        );
        let mut full = vec![0.0; self.index_of.len()];
        for (row, &node) in self.node_of.iter().enumerate() {
            full[node] = reduced[row];
        }
        full
    }
}

/// The reduced linear system `G d = I` of a power grid, expressed in
/// IR-drop coordinates `d_i = Vdd - v_i`: a [`PgStructure`] plus the
/// load-current right-hand side. Solving yields per-node IR drops
/// directly. The matrix and node maps are the structure's `Arc`s.
#[derive(Debug, Clone, PartialEq)]
pub struct PgSystem {
    /// Reduced conductance matrix over non-pad nodes.
    pub matrix: Arc<CsrMatrix>,
    /// Load-current right-hand side (amperes).
    pub rhs: Vec<f64>,
    /// For each grid node index, its row in the reduced system
    /// (`None` for pads).
    pub index_of: Arc<[Option<usize>]>,
    /// Reduced row -> grid node index.
    pub node_of: Arc<[usize]>,
}

impl PgSystem {
    /// Assembles the reduced system from a power grid.
    ///
    /// # Errors
    ///
    /// See [`PgStructure::try_build`].
    pub fn try_build(grid: &PowerGrid) -> Result<Self, ModelError> {
        let structure = PgStructure::try_build(grid)?;
        Ok(Self::from_structure(structure, &grid.loads))
    }

    /// Assembles the reduced system from a power grid.
    ///
    /// # Panics
    ///
    /// Panics if a segment references an out-of-range node (cannot
    /// happen for grids produced by
    /// [`grid_from_spice_reader`](crate::grid_from_spice_reader)).
    #[must_use]
    pub fn build(grid: &PowerGrid) -> Self {
        Self::try_build(grid).expect("malformed power grid")
    }

    /// Combines an already-assembled structure with a load vector.
    #[must_use]
    pub fn from_structure(structure: PgStructure, loads: &[Load]) -> Self {
        let rhs = structure.rhs(loads);
        PgSystem {
            matrix: structure.matrix,
            rhs,
            index_of: structure.index_of,
            node_of: structure.node_of,
        }
    }

    /// Dimension of the reduced system.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.node_of.len()
    }

    /// Expands a reduced solution to per-grid-node IR drops (pads get
    /// exactly `0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `reduced.len() != self.dim()`.
    #[must_use]
    pub fn expand_solution(&self, reduced: &[f64]) -> Vec<f64> {
        assert_eq!(
            reduced.len(),
            self.dim(),
            "reduced solution length mismatch"
        );
        let mut full = vec![0.0; self.index_of.len()];
        for (row, &node) in self.node_of.iter().enumerate() {
            full[node] = reduced[row];
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_from_spice_reader;
    use irf_sparse::{Solver, SolverKind};

    /// Chain: pad --1R-- n1 --1R-- n2, with 1 mA drawn at n2.
    /// Exact drops: d(n1) = 1 mV, d(n2) = 2 mV.
    const CHAIN: &str = "\
V1 p 0 1.0
R1 p n1 1.0
R2 n1 n2 1.0
I1 n2 0 1m
.end
";

    fn chain_system() -> PgSystem {
        grid_from_spice_reader(CHAIN.as_bytes())
            .unwrap()
            .build_system()
    }

    #[test]
    fn reduced_dimension_excludes_pads() {
        let s = chain_system();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.matrix.rows(), 2);
    }

    #[test]
    fn system_is_spd_and_symmetric() {
        let s = chain_system();
        assert!(s.matrix.is_symmetric(0.0));
        for i in 0..s.dim() {
            assert!(s.matrix.get(i, i) > 0.0);
        }
    }

    #[test]
    fn hand_computed_drops_match() {
        let s = chain_system();
        let report = Solver::new(SolverKind::Cholesky).solve(&s.matrix, &s.rhs);
        let drops = s.expand_solution(&report.x);
        // Node order follows first appearance: p, n1, n2.
        let by_name = |_name: &str, idx: usize| drops[idx];
        assert!((by_name("p", 0) - 0.0).abs() < 1e-12);
        assert!((by_name("n1", 1) - 1e-3).abs() < 1e-12);
        assert!((by_name("n2", 2) - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn pad_to_pad_segments_are_dropped() {
        let src = "V1 p 0 1.0\nV2 q 0 1.0\nR1 p q 1.0\nR2 p a 1.0\nI1 a 0 1m\n";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let s = g.build_system();
        assert_eq!(s.dim(), 1);
        assert_eq!(s.matrix.get(0, 0), 1.0);
    }

    #[test]
    fn rhs_collects_loads() {
        let src = "V1 p 0 1.0\nR1 p a 1.0\nI1 a 0 1m\nI2 a 0 2m\n";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let s = g.build_system();
        assert!((s.rhs[0] - 3e-3).abs() < 1e-15);
    }

    #[test]
    fn restamped_resistance_edit_matches_cold_build_bitwise() {
        let src = "\
V1 p 0 1.0
R1 p n1 1.0
R2 n1 n2 1.0
R3 n2 n3 2.0
I1 n3 0 1m
";
        let base_grid = grid_from_spice_reader(src.as_bytes()).unwrap();
        let base = PgStructure::build(&base_grid);

        let mut edited = base_grid.clone();
        edited.segments[1].ohms *= 1.5;
        edited.segments[2].ohms *= 0.25;
        let fast = base.restamped(&edited).expect("same pattern");
        let cold = PgStructure::build(&edited);
        assert_eq!(fast, cold);

        // Identical grid restamps to an identical structure.
        assert_eq!(base.restamped(&base_grid).expect("identity"), base);
    }

    #[test]
    fn restamped_shares_the_node_maps_and_the_pattern() {
        let src = "V1 p 0 1.0\nR1 p a 1.0\nR2 a b 1.0\nI1 b 0 1m\n";
        let grid = grid_from_spice_reader(src.as_bytes()).unwrap();
        let base = PgStructure::build(&grid);
        let mut edited = grid.clone();
        edited.segments[1].ohms *= 2.0;
        let fast = base.restamped(&edited).expect("same pattern");
        assert!(Arc::ptr_eq(&fast.index_of, &base.index_of));
        assert!(Arc::ptr_eq(&fast.node_of, &base.node_of));
        let (a, b) = (&fast.matrix, &base.matrix);
        assert!(std::ptr::eq(a.row_ptr(), b.row_ptr()));
        assert!(std::ptr::eq(a.col_idx(), b.col_idx()));
        assert_ne!(a.values(), b.values());
    }

    #[test]
    fn restamped_declines_on_structural_changes() {
        let src = "V1 p 0 1.0\nR1 p a 1.0\nR2 a b 1.0\nR3 b c 1.0\nI1 c 0 1m\n";
        let grid = grid_from_spice_reader(src.as_bytes()).unwrap();
        let base = PgStructure::build(&grid);

        // Different node count.
        let smaller =
            grid_from_spice_reader(&b"V1 p 0 1.0\nR1 p a 1.0\nR2 a b 1.0\nI1 b 0 1m\n"[..])
                .unwrap();
        assert!(base.restamped(&smaller).is_none());

        // New connection a--c outside the base sparsity pattern (the
        // base chain only couples a-b and b-c).
        let mut rewired = grid.clone();
        let (a, c) = (rewired.segments[0].b, rewired.segments[2].b);
        rewired
            .segments
            .push(crate::grid::Segment { a, b: c, ohms: 1.0 });
        assert!(base.restamped(&rewired).is_none());

        // Pad set mismatch.
        let mut repadded = grid.clone();
        let mut nodes = repadded.nodes.to_vec();
        nodes[1].is_pad = true;
        repadded.nodes = nodes.into();
        assert!(base.restamped(&repadded).is_none());

        // Segment endpoint out of range.
        let mut broken = grid.clone();
        broken.segments[0].b = 99;
        assert!(base.restamped(&broken).is_none());
    }

    #[test]
    fn drop_solution_is_nonnegative() {
        // Any passive grid with positive loads has non-negative drops.
        let src = "\
V1 n1_m4_0_0 0 1.0
R1 n1_m4_0_0 n1_m1_0_0 0.2
R2 n1_m1_0_0 n1_m1_1000_0 0.4
R3 n1_m1_1000_0 n1_m1_2000_0 0.4
I1 n1_m1_1000_0 0 2m
I2 n1_m1_2000_0 0 1m
";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let s = g.build_system();
        let x = Solver::new(SolverKind::Cholesky).solve(&s.matrix, &s.rhs).x;
        assert!(x.iter().all(|&d| d >= -1e-15));
    }
}
