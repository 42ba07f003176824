//! Deterministic candidate generation from parsed PDN geometry and a
//! rough drop map.
//!
//! The generator reads per-node voltage drops from the base analysis,
//! derives per-segment recoverable voltage (the drop *across* each
//! resistive segment — exactly the voltage a wider wire would claw
//! back) and per-segment current, and emits typed [`TopologyDelta`]
//! plans: strap widening on congested layers, via ladders at
//! worst-drop layer crossings, and segment upsizing along the
//! highest-current paths. Output order is fully deterministic —
//! sorted by predicted benefit, then cost, then label.

use crate::cost::CostModel;
use ir_fusion::TopologyDelta;
use irf_pg::PowerGrid;

/// One proposed edit plan: the typed deltas plus the
/// `(predicted worst-drop delta, metal cost)` pair the optimizer
/// ranks it by.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Human-readable identity, e.g. `strap:m3@0.5` — stable across
    /// runs and thread counts, used for trajectory reporting.
    pub label: String,
    /// The typed edits this candidate applies.
    pub deltas: Vec<TopologyDelta>,
    /// Metal cost under the optimizer's [`CostModel`], priced against
    /// the grid the candidate was generated from.
    pub cost: f64,
    /// Heuristic predicted reduction of the worst recoverable segment
    /// voltage (volts) — a ranking signal, not a solver result.
    pub predicted_delta: f64,
}

/// Resistance scales tried for whole-layer strap widening (`0.5`
/// doubles strap width).
const STRAP_SCALES: [f64; 2] = [0.5, 0.7];
/// Resistance scale for via-ladder candidates (`0.5` doubles the cut
/// count between a layer pair).
const VIA_SCALE: f64 = 0.5;
/// Resistance scale for single-segment upsizing.
const SEGMENT_SCALE: f64 = 0.5;
/// How many of the highest-voltage segments get individual upsizing
/// candidates.
const MAX_SEGMENT_CANDIDATES: usize = 4;

/// Deterministic candidate generator over a parsed [`PowerGrid`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CandidateGenerator;

impl CandidateGenerator {
    /// Emits candidates for `grid` given the base analysis's per-node
    /// voltage drops (full node space, as in
    /// [`ir_fusion::RoughSolution::drops`]), each priced under `cost`.
    /// Output is sorted by `(predicted_delta desc, cost asc, label
    /// asc)` and independent of thread count and cache state.
    ///
    /// # Panics
    ///
    /// Panics if `drops` is shorter than the grid's node list.
    #[must_use]
    pub fn generate(&self, grid: &PowerGrid, drops: &[f64], cost: &CostModel) -> Vec<Candidate> {
        assert!(
            drops.len() >= grid.nodes.len(),
            "drops must cover the node space"
        );
        // Per-segment recoverable voltage: the drop across the segment.
        let volts: Vec<f64> = grid
            .segments
            .iter()
            .map(|s| (drops[s.a] - drops[s.b]).abs())
            .collect();

        let mut out = Vec::new();

        // Strap widening: one candidate per (strap layer, scale),
        // scored by the worst segment voltage on that layer.
        let mut layers: Vec<(u32, f64)> = Vec::new();
        for (i, s) in grid.segments.iter().enumerate() {
            let (la, lb) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
            if la == lb {
                match layers.iter_mut().find(|(l, _)| *l == la) {
                    Some(entry) => entry.1 = entry.1.max(volts[i]),
                    None => layers.push((la, volts[i])),
                }
            }
        }
        layers.sort_unstable_by_key(|(l, _)| *l);
        for &(layer, worst) in &layers {
            for scale in STRAP_SCALES {
                let delta = TopologyDelta::Strap { layer, scale };
                out.push(Candidate {
                    label: format!("strap:m{layer}@{scale}"),
                    cost: cost.delta_cost(grid, &delta),
                    deltas: vec![delta],
                    predicted_delta: (1.0 - scale) * worst,
                });
            }
        }

        // Via ladders: one candidate per layer pair, scored by the
        // worst via-segment voltage (the drop-map hotspot a denser
        // ladder would relieve).
        let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
        for (i, s) in grid.segments.iter().enumerate() {
            let (la, lb) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
            if la != lb {
                let (lo, hi) = (la.min(lb), la.max(lb));
                match pairs.iter_mut().find(|(a, b, _)| (*a, *b) == (lo, hi)) {
                    Some(entry) => entry.2 = entry.2.max(volts[i]),
                    None => pairs.push((lo, hi, volts[i])),
                }
            }
        }
        pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
        for &(lower, upper, worst) in &pairs {
            let delta = TopologyDelta::Via {
                lower,
                upper,
                scale: VIA_SCALE,
            };
            out.push(Candidate {
                label: format!("via:m{lower}-m{upper}@{VIA_SCALE}"),
                cost: cost.delta_cost(grid, &delta),
                deltas: vec![delta],
                predicted_delta: (1.0 - VIA_SCALE) * worst,
            });
        }

        // Segment upsizing along the highest-current paths: the top-N
        // segments by recoverable voltage (ties break on lower index).
        let mut ranked: Vec<usize> = (0..grid.segments.len()).collect();
        ranked.sort_by(|&a, &b| volts[b].total_cmp(&volts[a]).then(a.cmp(&b)));
        for &i in ranked.iter().take(MAX_SEGMENT_CANDIDATES) {
            if volts[i] <= 0.0 {
                break;
            }
            let ohms = grid.segments[i].ohms * SEGMENT_SCALE;
            let delta = TopologyDelta::Segment { segment: i, ohms };
            out.push(Candidate {
                label: format!("seg:{i}@{SEGMENT_SCALE}"),
                cost: cost.delta_cost(grid, &delta),
                deltas: vec![delta],
                predicted_delta: (1.0 - SEGMENT_SCALE) * volts[i],
            });
        }

        out.sort_by(|a, b| {
            b.predicted_delta
                .total_cmp(&a.predicted_delta)
                .then(a.cost.total_cmp(&b.cost))
                .then(a.label.cmp(&b.label))
        });
        out
    }
}
