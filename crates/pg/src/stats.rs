//! Design-level statistics used in reports and dataset summaries.

use crate::grid::PowerGrid;
use std::fmt;

/// Aggregate statistics of one power-grid design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignStats {
    /// Total circuit nodes (excluding ground).
    pub nodes: usize,
    /// Resistive segments.
    pub segments: usize,
    /// Cell loads.
    pub loads: usize,
    /// Power pads.
    pub pads: usize,
    /// Metal layers present.
    pub layers: Vec<u32>,
    /// Total load current in amperes.
    pub total_current: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Die bounding box `(x0, y0, x1, y1)` in database units.
    pub bounding_box: (i64, i64, i64, i64),
}

impl DesignStats {
    /// Computes statistics for a grid.
    #[must_use]
    pub fn from_grid(grid: &PowerGrid) -> Self {
        DesignStats {
            nodes: grid.nodes.len(),
            segments: grid.segments.len(),
            loads: grid.loads.len(),
            pads: grid.pads.len(),
            layers: grid.layers(),
            total_current: grid.total_load_current(),
            vdd: grid.vdd(),
            bounding_box: grid.bounding_box(),
        }
    }
}

impl fmt::Display for DesignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} segments, {} loads, {} pads, layers {:?}, {:.3} A total load @ {:.2} V",
            self.nodes,
            self.segments,
            self.loads,
            self.pads,
            self.layers,
            self.total_current,
            self.vdd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_from_spice_reader;

    #[test]
    fn stats_match_grid() {
        let src = "\
R1 n1_m1_0_0 n1_m1_2000_0 0.5
R2 n1_m4_0_0 n1_m1_0_0 0.1
I1 n1_m1_2000_0 0 1m
V1 n1_m4_0_0 0 1.1
";
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let s = DesignStats::from_grid(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.segments, 2);
        assert_eq!(s.pads, 1);
        assert_eq!(s.layers, vec![1, 4]);
        assert!((s.total_current - 1e-3).abs() < 1e-15);
        let text = s.to_string();
        assert!(text.contains("3 nodes"));
    }
}
