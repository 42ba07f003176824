//! Golden labelling via the exact direct solver.

use irf_pg::PowerGrid;
use irf_sparse::cholesky::CholeskyFactor;

/// Exact per-node IR drops from a sparse Cholesky solve — the golden
/// reference the contest (and this reproduction) labels designs with.
///
/// # Panics
///
/// Panics if the reduced system is not SPD (which indicates a
/// disconnected grid; check
/// [`PowerGrid::is_connected_to_pads`](irf_pg::PowerGrid::is_connected_to_pads)).
#[must_use]
pub fn golden_drops(grid: &PowerGrid) -> Vec<f64> {
    let system = grid.build_system();
    let factor = CholeskyFactor::factor(&system.matrix)
        .expect("reduced PG system must be SPD; is the grid connected to pads?");
    let reduced = factor.solve(&system.rhs);
    system.expand_solution(&reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthSpec};

    #[test]
    fn golden_drops_are_nonnegative_and_bounded() {
        let g = synthesize(&SynthSpec::default());
        let drops = golden_drops(&g);
        assert_eq!(drops.len(), g.nodes.len());
        assert!(drops.iter().all(|&d| d >= -1e-12));
        // Drops cannot exceed the supply.
        assert!(drops.iter().all(|&d| d < g.vdd()));
    }

    #[test]
    fn pads_have_zero_drop() {
        let g = synthesize(&SynthSpec::default());
        let drops = golden_drops(&g);
        for p in &g.pads {
            assert_eq!(drops[p.node], 0.0);
        }
    }

    #[test]
    fn more_current_means_more_drop() {
        let base = SynthSpec::default();
        let heavy = SynthSpec {
            total_current: base.total_current * 2.0,
            ..base.clone()
        };
        let gb = synthesize(&base);
        let gh = synthesize(&heavy);
        let db = golden_drops(&gb);
        let dh = golden_drops(&gh);
        let max_b = db.iter().copied().fold(0.0, f64::max);
        let max_h = dh.iter().copied().fold(0.0, f64::max);
        assert!(
            (max_h - 2.0 * max_b).abs() < 1e-4 * max_b.max(1e-12),
            "linearity of G d = I: {max_h} vs {}",
            2.0 * max_b
        );
    }
}
