//! Metal-area cost model for topology edits.
//!
//! Every candidate the optimizer considers carries a scalar *metal
//! cost*: an estimate of the extra routing resource (track area, via
//! cuts) the edit spends. Costs are what keep the closed loop honest —
//! without them "widen everything" always wins.

use ir_fusion::TopologyDelta;
use irf_pg::PowerGrid;

/// Cost weight of a unit of wire on any metal layer.
const LAYER_WEIGHT: f64 = 1.0;
/// Cost weight of one via cut.
const VIA_WEIGHT: f64 = 1.0;
/// Database units to cost units for wire length.
const LENGTH_SCALE: f64 = 1e-3;

/// The metal cost model.
///
/// The model prices a [`TopologyDelta`] by the extra conductance it
/// buys: scaling a segment's resistance by `s < 1` means widening the
/// wire (or adding parallel via cuts) by a factor `1/s`, i.e. spending
/// `1/s - 1` extra units of metal per unit of wire already there.
/// Strap and segment edits are weighted by Manhattan wire length (one
/// cost unit per 1000 database units, every layer weighted alike); via
/// edits by a flat weight per cut. Narrowing (`s >= 1`) is free — the
/// model prices resource *spent*, not saved.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel;

impl CostModel {
    /// Manhattan length of segment `i` in cost units.
    fn segment_length(grid: &PowerGrid, i: usize) -> f64 {
        let s = &grid.segments[i];
        let (a, b) = (&grid.nodes[s.a], &grid.nodes[s.b]);
        let len = (a.x - b.x).abs() + (a.y - b.y).abs();
        #[allow(clippy::cast_precision_loss)]
        let len = len as f64;
        len * LENGTH_SCALE
    }

    /// Metal cost of applying one delta to `grid` (its current state —
    /// chained edits should be priced against the progressively edited
    /// grid). Deltas that match nothing cost zero.
    #[must_use]
    pub fn delta_cost(&self, grid: &PowerGrid, delta: &TopologyDelta) -> f64 {
        match *delta {
            TopologyDelta::Strap { layer, scale } => {
                let extra = (1.0 / scale - 1.0).max(0.0);
                (0..grid.segments.len())
                    .filter(|&i| {
                        let s = &grid.segments[i];
                        grid.nodes[s.a].layer == layer && grid.nodes[s.b].layer == layer
                    })
                    .map(|i| LAYER_WEIGHT * Self::segment_length(grid, i) * extra)
                    .sum()
            }
            TopologyDelta::Via {
                lower,
                upper,
                scale,
            } => {
                let extra = (1.0 / scale - 1.0).max(0.0);
                let matched = grid
                    .segments
                    .iter()
                    .filter(|s| {
                        let (la, lb) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
                        (la, lb) == (lower, upper) || (la, lb) == (upper, lower)
                    })
                    .count();
                #[allow(clippy::cast_precision_loss)]
                let matched = matched as f64;
                matched * VIA_WEIGHT * extra
            }
            TopologyDelta::Segment { segment, ohms } => {
                if segment >= grid.segments.len() || ohms <= 0.0 {
                    return 0.0;
                }
                let s = &grid.segments[segment];
                let old = s.ohms;
                let extra = (old / ohms - 1.0).max(0.0);
                let (la, lb) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
                if la == lb {
                    // A wire: extra width over the segment's length,
                    // never cheaper than one length unit so zero-length
                    // stubs still carry a price.
                    let len = Self::segment_length(grid, segment).max(LENGTH_SCALE);
                    LAYER_WEIGHT * len * extra
                } else {
                    // A via: upsizing means extra parallel cuts.
                    VIA_WEIGHT * extra
                }
            }
        }
    }

    /// Total metal cost of a delta plan, priced progressively: each
    /// delta is costed against the grid with all previous deltas
    /// applied, matching how the optimizer accumulates cost along a
    /// beam path. Deltas that fail to apply are priced against the
    /// grid as-is and skipped.
    #[must_use]
    pub fn plan_cost(&self, grid: &PowerGrid, deltas: &[TopologyDelta]) -> f64 {
        let mut work = grid.clone();
        let mut total = 0.0;
        for d in deltas {
            total += self.delta_cost(&work, d);
            let _ = ir_fusion::apply_topology_deltas(&mut work, std::slice::from_ref(d));
        }
        total
    }
}
