//! The stage graph: typed pipeline artifacts and the content
//! fingerprints that key them.
//!
//! A full analysis decomposes into a chain of stage artifacts
//!
//! ```text
//! ParsedDesign -> AssembledSystem -> SolverSetup -> RoughSolution
//!                                 \-> GeometryMaps, ResistanceMaps -/
//!                                        -> FeatureStack -> Prediction
//! ```
//!
//! where each artifact is determined by *exactly* the inputs its
//! fingerprint covers:
//!
//! | stage                | fingerprint inputs                               |
//! |----------------------|--------------------------------------------------|
//! | `Parsed`             | the design fingerprint ([`design_fingerprint`])  |
//! | `Assembled`          | topology (geometry + conductances + pad volts)   |
//! | `SolverSetup`        | topology + solver configuration                  |
//! | `Rough`              | topology + solver configuration + currents       |
//! | `Structural`         | geometry + feature configuration                 |
//! | `Resistance`         | geometry + conductances + feature configuration  |
//! | `Stack`              | all of the above                                 |
//!
//! The topology fingerprint is itself split: the *geometry* half
//! (node positions, layers, segment endpoints, pad set) and the
//! *conductance* half (segment resistances) are hashed separately and
//! combined. Editing only the current vector invalidates `Rough` and
//! `Stack` while the assembled MNA matrix, the AMG hierarchy and all
//! structural feature maps are reused verbatim. A strap/via resistance
//! edit ([`TopologyDelta`]) keeps the `Parsed` and geometry-keyed
//! `Structural` artifacts warm and recomputes only the
//! conductance-dependent chain (`Assembled → SolverSetup → Rough`,
//! `Resistance`, `Stack`) — and those recomputations ride incremental
//! fast paths (CSR re-stamping, refreshed shortest-path distances)
//! where possible; the AMG setup is re-run whole on the edited values.
//! Predictions are *not* cached: the model can be hot-swapped at any
//! time, so they are recomputed from the (cached) stack.
//!
//! All fingerprints are 64-bit FNV-1a ([`irf_spice::Fnv1a`], a word a
//! step): stable across processes and platforms, so a restarted server
//! reproduces the same keys for the same designs.
//!
//! Every key is composed from six component digests (geometry,
//! conductances, pad volts, currents and the two config digests), each
//! hashed once. [`StagePlan::for_design`] composes them in one place —
//! the single definition of the six keys — so an [`AnalysisSession`]
//! carries the digests and an edit re-hashes only the component it
//! changed: the `ohms` after a topology delta, the loads after a
//! current delta, never the 90k node names neither can touch.
//!
//! [`AnalysisSession`]: crate::pipeline::AnalysisSession

use crate::config::FusionConfig;
use irf_pg::{GridMap, Load, PowerGrid};
use irf_sparse::SolveSummary;
use irf_spice::Fnv1a;
use std::sync::Arc;

/// Identifies one stage of the analysis pipeline in the stage store
/// and its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Parsed design (power grid) keyed by netlist source or design
    /// fingerprint.
    Parsed,
    /// Assembled MNA system (matrix + node index maps).
    Assembled,
    /// Prepared solver handle (AMG hierarchy, factorization, ...).
    SolverSetup,
    /// Truncated rough solve result.
    Rough,
    /// Geometry-only structural feature maps (distance, density) —
    /// reusable across both current and strap/via resistance edits.
    Structural,
    /// Resistance-dependent structural feature maps (resistance mass,
    /// shortest-path resistance) — invalidated by strap/via edits but
    /// not by current edits.
    Resistance,
    /// The fully assembled feature stack.
    Stack,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Parsed,
        Stage::Assembled,
        Stage::SolverSetup,
        Stage::Rough,
        Stage::Structural,
        Stage::Resistance,
        Stage::Stack,
    ];

    /// Stable label for metrics and trace attributes.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Parsed => "parsed",
            Stage::Assembled => "assembled",
            Stage::SolverSetup => "solver_setup",
            Stage::Rough => "rough",
            Stage::Structural => "structural",
            Stage::Resistance => "resistance",
            Stage::Stack => "stack",
        }
    }

    /// Dense index for per-stage counter arrays.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        match self {
            Stage::Parsed => 0,
            Stage::Assembled => 1,
            Stage::SolverSetup => 2,
            Stage::Rough => 3,
            Stage::Structural => 4,
            Stage::Resistance => 5,
            Stage::Stack => 6,
        }
    }
}

/// The truncated rough-solve artifact: per-node drops plus the
/// summary of the solve behind them.
///
/// The solve's reduced vector is held once, in `drops`: expansion to
/// node space is a pure copy, so `drops[node_of[row]]` is its
/// `x[row]` bit for bit, and [`RoughSolution::reduced_solution`]
/// reads it back for a warm start.
#[derive(Debug, Clone)]
pub struct RoughSolution {
    /// The [`Stage::Rough`] fingerprint this solution was computed
    /// under (topology + solver configuration + currents).
    pub fingerprint: u64,
    /// Per-node voltage drops (full node space, pads at zero).
    pub drops: Vec<f64>,
    /// Reduced row -> node index of the system this was solved on: the
    /// assembled structure's map, shared. Its length is the reduced
    /// dimension a warm start checks.
    pub node_of: Arc<[usize]>,
    /// Summary of the truncated solve.
    pub report: SolveSummary,
    /// Seconds spent in the solve (excluding reused setup).
    pub solve_seconds: f64,
}

impl RoughSolution {
    /// The solve's reduced solution vector, gathered from `drops`
    /// through `node_of`: bit for bit the vector the solve returned.
    #[must_use]
    pub fn reduced_solution(&self) -> Vec<f64> {
        self.node_of.iter().map(|&node| self.drops[node]).collect()
    }
}

/// A model prediction, tagged with the fingerprint of the stack it
/// was computed from. Not cached — the model can be hot-swapped — but
/// carrying the fingerprint lets callers correlate predictions with
/// the warm artifacts that produced them.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The [`Stage::Stack`] fingerprint of the input stack.
    pub fingerprint: u64,
    /// The fused bottom-layer drop map (volts).
    pub map: GridMap,
}

/// Fingerprint of the grid *geometry*: node names, layers, positions
/// and pad membership, segment endpoints, and the pad node set —
/// everything that shapes the structural rasterization and the MNA
/// sparsity pattern, but **not** the segment resistances, pad
/// voltages, or load currents. A strap/via resistance edit keeps this
/// fingerprint (and the geometry-keyed [`Stage::Structural`] maps)
/// valid.
#[must_use]
pub fn geometry_fingerprint(grid: &PowerGrid) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(grid.nodes.len() as u64);
    for n in grid.nodes.iter() {
        h.write_words(n.name.as_bytes());
        h.write_u64(u64::from(n.layer) | u64::from(n.is_pad) << 32);
        h.write_i64(n.x);
        h.write_i64(n.y);
    }
    h.write_u64(grid.segments.len() as u64);
    for s in &grid.segments {
        h.write_u64(s.a as u64);
        h.write_u64(s.b as u64);
    }
    h.write_u64(grid.pads.len() as u64);
    for p in &grid.pads {
        h.write_u64(p.node as u64);
    }
    h.finish()
}

/// Fingerprint of the segment resistances alone — the half of the
/// topology a strap/via edit changes. Segment endpoints are covered
/// by [`geometry_fingerprint`]; this hash covers only the `ohms`
/// values, positionally.
#[must_use]
pub fn conductance_fingerprint(grid: &PowerGrid) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(grid.segments.len() as u64);
    for s in &grid.segments {
        h.write_f64(s.ohms);
    }
    h.finish()
}

/// Fingerprint of the pad voltages alone, positionally — the boundary
/// values baked into the assembled system. *Which* nodes are pads is
/// geometry ([`geometry_fingerprint`]).
#[must_use]
pub fn pad_volts_fingerprint(grid: &PowerGrid) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(grid.pads.len() as u64);
    for p in &grid.pads {
        h.write_f64(p.volts);
    }
    h.finish()
}

/// Fingerprint of the grid *topology*: nodes, segments and pads —
/// everything that shapes the MNA matrix, and nothing that doesn't.
/// The load (current) vector is deliberately excluded: it only enters
/// the right-hand side, so a current-only edit keeps this fingerprint
/// (and every artifact keyed by it) valid.
///
/// Composed from [`geometry_fingerprint`], [`conductance_fingerprint`]
/// and [`pad_volts_fingerprint`], so artifacts keyed on the geometry
/// half alone can be shared across resistance edits.
#[must_use]
pub fn topology_fingerprint(grid: &PowerGrid) -> u64 {
    topology_of(
        geometry_fingerprint(grid),
        conductance_fingerprint(grid),
        pad_volts_fingerprint(grid),
    )
}

/// Fingerprint of the load (current) vector alone — the only input
/// that changes under a what-if current edit.
#[must_use]
pub fn currents_fingerprint(loads: &[Load]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(loads.len() as u64);
    for l in loads {
        h.write_u64(l.node as u64);
        h.write_f64(l.amps);
    }
    h.finish()
}

/// Fingerprint of the configuration fields that shape the prepared
/// solver (kind, AMG parameters, iteration budget).
#[must_use]
pub fn solver_config_fingerprint(config: &FusionConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(config.solver_iterations as u64);
    // Debug formatting is stable and covers nested enums (solver
    // kind, smoother, cycle) without a bespoke serialization.
    h.write(format!("{:?}", config.solver_kind).as_bytes());
    h.write(format!("{:?}", config.amg).as_bytes());
    h.finish()
}

/// Fingerprint of the feature-extraction configuration (resolution,
/// normalization, enabled families).
#[must_use]
pub fn feature_config_fingerprint(config: &FusionConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write(format!("{:?}", config.feature).as_bytes());
    h.finish()
}

/// Folds already-computed fingerprints into one composite key.
#[must_use]
pub fn combine_fingerprints(parts: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for &p in parts {
        h.write_u64(p);
    }
    h.finish()
}

/// Domain-separation tag mixed into [`Stage::Rough`] and
/// [`Stage::Stack`] keys when a rough solve is warm-started from a
/// prior [`RoughSolution`] (FNV-1a of `"irf-warm-rough"`). Keeping
/// warm-started artifacts under distinct keys preserves the bitwise
/// cold contract for every default-path cache entry.
pub const WARM_ROUGH_TAG: u64 = 0xd895_9991_8696_006a;

/// Key for a stage artifact whose rough solve was warm-started from
/// the seed with fingerprint `seed`: the plain stage key, the
/// [`WARM_ROUGH_TAG`] domain separator and the seed identity folded
/// together so warm and cold artifacts can never collide in the store.
#[must_use]
pub fn warm_stage_fingerprint(key: u64, seed: u64) -> u64 {
    combine_fingerprints(&[key, WARM_ROUGH_TAG, seed])
}

/// Content fingerprint of a design plus the preparation-relevant
/// configuration — the [`Stage::Stack`] key of
/// [`StagePlan::for_design`], so the two cannot drift.
///
/// Two (grid, config) pairs with equal fingerprints produce bitwise
/// identical stacks. Model, training and threading settings are
/// deliberately excluded — they do not affect the stack (results are
/// bitwise identical at any thread count).
#[must_use]
pub fn design_fingerprint(grid: &PowerGrid, config: &FusionConfig) -> u64 {
    StagePlan::for_design(grid, config).stack
}

/// The component digests of one (grid, config) pair — each input of
/// the stage graph hashed once. Every stage key is a combination of
/// these ([`StagePlan::from_parts`]), so an edit that changes one
/// input replaces one digest and recombines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyParts {
    /// [`geometry_fingerprint`].
    pub(crate) geometry: u64,
    /// [`conductance_fingerprint`] — what a topology delta changes.
    pub(crate) conductance: u64,
    /// [`pad_volts_fingerprint`].
    pub(crate) pad_volts: u64,
    /// [`currents_fingerprint`] — what a current edit changes.
    pub(crate) currents: u64,
    /// [`solver_config_fingerprint`].
    pub(crate) solver_config: u64,
    /// [`feature_config_fingerprint`].
    pub(crate) feature_config: u64,
}

impl KeyParts {
    /// Hashes every component of `grid` and `config`, each once.
    pub(crate) fn of(grid: &PowerGrid, config: &FusionConfig) -> Self {
        KeyParts {
            geometry: geometry_fingerprint(grid),
            conductance: conductance_fingerprint(grid),
            pad_volts: pad_volts_fingerprint(grid),
            currents: currents_fingerprint(&grid.loads),
            solver_config: solver_config_fingerprint(config),
            feature_config: feature_config_fingerprint(config),
        }
    }
}

/// The one composition behind [`topology_fingerprint`] and the
/// topology-keyed stages of [`StagePlan`].
fn topology_of(geometry: u64, conductance: u64, pad_volts: u64) -> u64 {
    combine_fingerprints(&[geometry, conductance, pad_volts])
}

/// The full key plan for one (grid, config) pair: every per-stage
/// fingerprint the stage walk needs, computed once up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagePlan {
    /// Topology fingerprint — the [`Stage::Assembled`] key.
    pub assembled: u64,
    /// Topology + solver config — the [`Stage::SolverSetup`] key.
    pub solver_setup: u64,
    /// Topology + solver config + currents — the [`Stage::Rough`] key.
    pub rough: u64,
    /// Geometry + feature config — the [`Stage::Structural`] key.
    /// Survives strap/via resistance edits.
    pub structural: u64,
    /// Geometry + conductances + feature config — the
    /// [`Stage::Resistance`] key.
    pub resistance: u64,
    /// Everything — the [`Stage::Stack`] key, equal to
    /// [`design_fingerprint`].
    pub stack: u64,
}

impl StagePlan {
    /// Computes all stage keys for a design under a configuration.
    #[must_use]
    pub fn for_design(grid: &PowerGrid, config: &FusionConfig) -> Self {
        Self::from_parts(&KeyParts::of(grid, config))
    }

    /// The single definition of the six keys: which component digests
    /// each stage's artifact is a function of.
    pub(crate) fn from_parts(parts: &KeyParts) -> Self {
        let KeyParts {
            geometry,
            conductance,
            pad_volts,
            currents,
            solver_config,
            feature_config,
        } = *parts;
        let topology = topology_of(geometry, conductance, pad_volts);
        StagePlan {
            assembled: topology,
            solver_setup: combine_fingerprints(&[topology, solver_config]),
            rough: combine_fingerprints(&[topology, solver_config, currents]),
            structural: combine_fingerprints(&[geometry, feature_config]),
            resistance: combine_fingerprints(&[geometry, conductance, feature_config]),
            stack: combine_fingerprints(&[topology, currents, solver_config, feature_config]),
        }
    }
}

/// One topology edit of a what-if plan: a resistance change that keeps
/// the grid's geometry (and therefore its sparsity pattern and
/// geometry-keyed feature maps) intact.
///
/// Deltas are validated against the base grid before application; see
/// [`apply_topology_deltas`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyDelta {
    /// Scales the resistance of every *strap* segment on `layer` (both
    /// endpoints on that layer) by `scale` — the "widen/narrow a power
    /// strap" edit (resistance scales inversely with strap width).
    Strap {
        /// Metal layer the strap segments live on.
        layer: u32,
        /// Multiplier applied to each matched segment's ohms (> 0).
        scale: f64,
    },
    /// Scales the resistance of every *via* segment between `lower`
    /// and `upper` (one endpoint on each layer) by `scale` — the
    /// "add/remove via cuts" edit (n parallel cuts divide resistance
    /// by n).
    Via {
        /// One of the two layers the via connects (order-insensitive).
        lower: u32,
        /// The other layer.
        upper: u32,
        /// Multiplier applied to each matched segment's ohms (> 0).
        scale: f64,
    },
    /// Sets one segment's resistance to an absolute value.
    Segment {
        /// Index into the grid's segment list.
        segment: usize,
        /// New resistance in ohms (> 0, finite).
        ohms: f64,
    },
}

/// Why a what-if edit plan was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum EditError {
    /// A strap delta matched no segment with both endpoints on the
    /// named layer.
    NoStrapSegments {
        /// The layer that matched nothing.
        layer: u32,
    },
    /// A via delta matched no segment connecting the two layers.
    NoViaSegments {
        /// One named layer.
        lower: u32,
        /// The other named layer.
        upper: u32,
    },
    /// A via delta named the same layer twice.
    DegenerateVia {
        /// The repeated layer.
        layer: u32,
    },
    /// A segment delta pointed outside the grid's segment list.
    SegmentOutOfRange {
        /// The offending index.
        segment: usize,
        /// Number of segments in the grid.
        segments: usize,
    },
    /// A scale or resistance value was zero, negative, NaN or infinite.
    InvalidValue {
        /// Which field was invalid (`"scale"` or `"ohms"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::NoStrapSegments { layer } => {
                write!(f, "no strap segments on layer m{layer}")
            }
            EditError::NoViaSegments { lower, upper } => {
                write!(f, "no via segments between layers m{lower} and m{upper}")
            }
            EditError::DegenerateVia { layer } => {
                write!(f, "via delta names layer m{layer} twice")
            }
            EditError::SegmentOutOfRange { segment, segments } => {
                write!(f, "segment {segment} out of range ({segments} segments)")
            }
            EditError::InvalidValue { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// Validates and applies a list of topology deltas to a grid in order.
///
/// Every delta must match at least one segment and carry a positive,
/// finite value; the first violation aborts with an [`EditError`] and
/// the grid is left untouched (application is all-or-nothing).
///
/// # Errors
///
/// See [`EditError`].
pub fn apply_topology_deltas(
    grid: &mut PowerGrid,
    deltas: &[TopologyDelta],
) -> Result<(), EditError> {
    // Validate against the *base* grid first so a trailing bad delta
    // cannot leave a half-edited grid behind.
    for d in deltas {
        match *d {
            TopologyDelta::Strap { layer, scale } => {
                check_positive("scale", scale)?;
                if !grid
                    .segments
                    .iter()
                    .any(|s| grid.nodes[s.a].layer == layer && grid.nodes[s.b].layer == layer)
                {
                    return Err(EditError::NoStrapSegments { layer });
                }
            }
            TopologyDelta::Via {
                lower,
                upper,
                scale,
            } => {
                check_positive("scale", scale)?;
                if lower == upper {
                    return Err(EditError::DegenerateVia { layer: lower });
                }
                if !grid.segments.iter().any(|s| {
                    let (la, lb) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
                    (la, lb) == (lower, upper) || (la, lb) == (upper, lower)
                }) {
                    return Err(EditError::NoViaSegments { lower, upper });
                }
            }
            TopologyDelta::Segment { segment, ohms } => {
                check_positive("ohms", ohms)?;
                if segment >= grid.segments.len() {
                    return Err(EditError::SegmentOutOfRange {
                        segment,
                        segments: grid.segments.len(),
                    });
                }
            }
        }
    }
    for d in deltas {
        match *d {
            TopologyDelta::Strap { layer, scale } => {
                for i in 0..grid.segments.len() {
                    let s = &grid.segments[i];
                    if grid.nodes[s.a].layer == layer && grid.nodes[s.b].layer == layer {
                        grid.segments[i].ohms *= scale;
                    }
                }
            }
            TopologyDelta::Via {
                lower,
                upper,
                scale,
            } => {
                for i in 0..grid.segments.len() {
                    let s = &grid.segments[i];
                    let (la, lb) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
                    if (la, lb) == (lower, upper) || (la, lb) == (upper, lower) {
                        grid.segments[i].ohms *= scale;
                    }
                }
            }
            TopologyDelta::Segment { segment, ohms } => {
                grid.segments[segment].ohms = ohms;
            }
        }
    }
    Ok(())
}

fn check_positive(what: &'static str, value: f64) -> Result<(), EditError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(EditError::InvalidValue { what, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_data::Design;

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let cfg = FusionConfig::tiny();
        let a = Design::fake(1);
        let b = Design::fake(2);
        assert_eq!(
            design_fingerprint(&a.grid, &cfg),
            design_fingerprint(&a.grid, &cfg),
            "same content must fingerprint identically"
        );
        assert_ne!(
            design_fingerprint(&a.grid, &cfg),
            design_fingerprint(&b.grid, &cfg),
            "different designs must fingerprint differently"
        );
        let mut cfg2 = cfg;
        cfg2.solver_iterations += 1;
        assert_ne!(
            design_fingerprint(&a.grid, &cfg),
            design_fingerprint(&a.grid, &cfg2),
            "solver budget is preparation-relevant"
        );
        let mut cfg3 = cfg;
        cfg3.num_threads = 7;
        assert_eq!(
            design_fingerprint(&a.grid, &cfg),
            design_fingerprint(&a.grid, &cfg3),
            "thread count must not affect the fingerprint"
        );
    }

    #[test]
    fn each_change_flips_exactly_the_keys_that_depend_on_it() {
        use std::sync::Arc;
        let cfg = FusionConfig::tiny();
        let base = Design::fake(1).grid;
        let keys = |grid: &PowerGrid, cfg: &FusionConfig| {
            let p = StagePlan::for_design(grid, cfg);
            [
                p.assembled,
                p.solver_setup,
                p.rough,
                p.structural,
                p.resistance,
                p.stack,
            ]
        };
        let base_keys = keys(&base, &cfg);
        let edited = |edit: &dyn Fn(&mut PowerGrid)| {
            let mut grid = base.clone();
            edit(&mut grid);
            grid
        };
        let (mut more_iterations, mut wider) = (cfg, cfg);
        more_iterations.solver_iterations += 1;
        wider.feature.width += 1;
        // Which of [assembled, solver_setup, rough, structural,
        // resistance, stack] each change flips.
        let cases: [(&str, PowerGrid, FusionConfig, [bool; 6]); 6] = [
            (
                "one load's amps",
                edited(&|g| g.loads[0].amps += 1e-6),
                cfg,
                [false, false, true, false, false, true],
            ),
            (
                "one segment's ohms",
                edited(&|g| g.segments[7].ohms *= 1.5),
                cfg,
                [true, true, true, false, true, true],
            ),
            (
                "one pad's volts",
                edited(&|g| g.pads[0].volts += 0.01),
                cfg,
                [true, true, true, false, false, true],
            ),
            (
                "one node's x",
                edited(&|g| Arc::make_mut(&mut g.nodes)[3].x += 1),
                cfg,
                [true, true, true, true, true, true],
            ),
            (
                "the solver budget",
                base.clone(),
                more_iterations,
                [false, true, true, false, false, true],
            ),
            (
                "the map width",
                base.clone(),
                wider,
                [false, false, false, true, true, true],
            ),
        ];
        for (label, grid, cfg, flips) in cases {
            let got = keys(&grid, &cfg);
            let flipped: Vec<bool> = got.iter().zip(&base_keys).map(|(a, b)| a != b).collect();
            assert_eq!(flipped, flips, "{label}");
        }
    }

    #[test]
    fn the_plan_and_the_named_fingerprints_share_one_composition() {
        let cfg = FusionConfig::tiny();
        let grid = Design::fake(3).grid;
        let plan = StagePlan::for_design(&grid, &cfg);
        assert_eq!(plan.stack, design_fingerprint(&grid, &cfg));
        assert_eq!(plan.assembled, topology_fingerprint(&grid));
        assert_eq!(plan, StagePlan::from_parts(&KeyParts::of(&grid, &cfg)));
    }

    #[test]
    fn current_edits_keep_topology_and_setup_keys() {
        let cfg = FusionConfig::tiny();
        let base = Design::fake(1);
        let mut edited = base.grid.clone();
        edited.loads[0].amps *= 2.0;
        let a = StagePlan::for_design(&base.grid, &cfg);
        let b = StagePlan::for_design(&edited, &cfg);
        assert_eq!(a.assembled, b.assembled, "topology unchanged");
        assert_eq!(a.solver_setup, b.solver_setup, "solver setup reusable");
        assert_eq!(a.structural, b.structural, "structural maps reusable");
        assert_ne!(a.rough, b.rough, "rough solve must rerun");
        assert_ne!(a.stack, b.stack, "stack must rebuild");
    }

    #[test]
    fn topology_edits_invalidate_every_derived_key() {
        let cfg = FusionConfig::tiny();
        let base = Design::fake(1);
        let mut rewired = base.grid.clone();
        rewired.segments[0].ohms *= 2.0;
        let a = StagePlan::for_design(&base.grid, &cfg);
        let b = StagePlan::for_design(&rewired, &cfg);
        assert_ne!(a.assembled, b.assembled);
        assert_ne!(a.solver_setup, b.solver_setup);
        assert_ne!(a.rough, b.rough);
        assert_ne!(a.resistance, b.resistance, "resistance maps must rerun");
        assert_ne!(a.stack, b.stack);
        // The geometry half is untouched by a resistance edit: the
        // geometry-keyed structural maps stay warm.
        assert_eq!(a.structural, b.structural, "geometry maps reusable");
        assert_eq!(
            geometry_fingerprint(&base.grid),
            geometry_fingerprint(&rewired)
        );
        assert_ne!(
            conductance_fingerprint(&base.grid),
            conductance_fingerprint(&rewired)
        );

        // A *geometric* edit (rewiring a segment endpoint) invalidates
        // the geometry half too.
        let mut respanned = base.grid.clone();
        respanned.segments[0].b = respanned.segments[1].b;
        let c = StagePlan::for_design(&respanned, &cfg);
        assert_ne!(a.structural, c.structural);
        assert_ne!(a.assembled, c.assembled);
    }

    #[test]
    fn strap_and_via_deltas_rescale_matched_segments() {
        let base = Design::fake(1);
        let layer_of = |g: &PowerGrid, i: usize| {
            (
                g.nodes[g.segments[i].a].layer,
                g.nodes[g.segments[i].b].layer,
            )
        };
        let (strap_layer, via_pair) = {
            let mut strap = None;
            let mut via = None;
            for i in 0..base.grid.segments.len() {
                let (la, lb) = layer_of(&base.grid, i);
                if la == lb {
                    strap.get_or_insert(la);
                } else {
                    via.get_or_insert((la.min(lb), la.max(lb)));
                }
            }
            (strap.expect("strap segment"), via.expect("via segment"))
        };

        let mut edited = base.grid.clone();
        apply_topology_deltas(
            &mut edited,
            &[
                TopologyDelta::Strap {
                    layer: strap_layer,
                    scale: 0.5,
                },
                TopologyDelta::Via {
                    lower: via_pair.1, // order-insensitive
                    upper: via_pair.0,
                    scale: 2.0,
                },
            ],
        )
        .expect("valid deltas");
        for i in 0..base.grid.segments.len() {
            let (la, lb) = layer_of(&base.grid, i);
            let (old, new) = (base.grid.segments[i].ohms, edited.segments[i].ohms);
            if la == strap_layer && lb == strap_layer {
                assert_eq!(new, old * 0.5, "strap segment {i}");
            } else if (la.min(lb), la.max(lb)) == via_pair {
                assert_eq!(new, old * 2.0, "via segment {i}");
            } else {
                assert_eq!(new, old, "untouched segment {i}");
            }
        }
        // Geometry is preserved; only conductances changed.
        assert_eq!(
            geometry_fingerprint(&base.grid),
            geometry_fingerprint(&edited)
        );
        assert_ne!(
            conductance_fingerprint(&base.grid),
            conductance_fingerprint(&edited)
        );
    }

    #[test]
    fn bad_deltas_are_rejected_without_touching_the_grid() {
        let base = Design::fake(1);
        let mut g = base.grid.clone();
        let cases: Vec<(TopologyDelta, EditError)> = vec![
            (
                TopologyDelta::Strap {
                    layer: 99,
                    scale: 0.5,
                },
                EditError::NoStrapSegments { layer: 99 },
            ),
            (
                TopologyDelta::Via {
                    lower: 1,
                    upper: 1,
                    scale: 0.5,
                },
                EditError::DegenerateVia { layer: 1 },
            ),
            (
                TopologyDelta::Via {
                    lower: 77,
                    upper: 78,
                    scale: 0.5,
                },
                EditError::NoViaSegments {
                    lower: 77,
                    upper: 78,
                },
            ),
            (
                TopologyDelta::Segment {
                    segment: usize::MAX,
                    ohms: 1.0,
                },
                EditError::SegmentOutOfRange {
                    segment: usize::MAX,
                    segments: base.grid.segments.len(),
                },
            ),
            (
                TopologyDelta::Strap {
                    layer: 1,
                    scale: -2.0,
                },
                EditError::InvalidValue {
                    what: "scale",
                    value: -2.0,
                },
            ),
            (
                TopologyDelta::Segment {
                    segment: 0,
                    ohms: f64::NAN,
                },
                EditError::InvalidValue {
                    what: "ohms",
                    value: f64::NAN,
                },
            ),
        ];
        for (delta, want) in cases {
            // A valid leading delta must not be applied when a later
            // one fails: application is all-or-nothing.
            let got = apply_topology_deltas(
                &mut g,
                &[
                    TopologyDelta::Segment {
                        segment: 0,
                        ohms: 123.0,
                    },
                    delta,
                ],
            )
            .expect_err("delta must be rejected");
            match (&got, &want) {
                // NaN != NaN: compare the variant and field name only.
                (
                    EditError::InvalidValue { what: a, value: v },
                    EditError::InvalidValue { what: b, .. },
                ) if v.is_nan() => assert_eq!(a, b),
                _ => assert_eq!(got, want),
            }
            assert_eq!(g, base.grid, "grid must be untouched after {want:?}");
        }
    }

    #[test]
    fn pad_set_is_part_of_the_topology() {
        let cfg = FusionConfig::tiny();
        let base = Design::fake(1);
        let mut repinned = base.grid.clone();
        repinned.pads[0].volts += 0.1;
        let a = StagePlan::for_design(&base.grid, &cfg);
        let b = StagePlan::for_design(&repinned, &cfg);
        assert_ne!(a.assembled, b.assembled, "pad edits change the system");
    }

    #[test]
    fn config_fingerprints_split_solver_from_features() {
        let cfg = FusionConfig::tiny();
        let mut more_iters = cfg;
        more_iters.solver_iterations += 1;
        assert_ne!(
            solver_config_fingerprint(&cfg),
            solver_config_fingerprint(&more_iters)
        );
        assert_eq!(
            feature_config_fingerprint(&cfg),
            feature_config_fingerprint(&more_iters),
            "solver budget must not touch the feature key"
        );
    }
}
