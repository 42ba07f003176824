//! The assembled per-design feature stack.

use crate::current::{layer_current_maps, total_current_map_tiled, ConductanceShares};
use crate::density::pdn_density_map_tiled;
use crate::distance::effective_distance_map;
use crate::error::FeatureError;
use crate::normalize::{normalize, Normalization};
use crate::resistance::resistance_map;
use crate::shortest_path::{self, PadDistances};
use crate::solution::layer_solution_maps;
use irf_pg::{GridMap, PowerGrid, Rasterizer, TileTable};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Fixed scale applied to voltage-valued maps (the rough-solution
/// channels): volts x 100, so millivolt-scale drops land near 0.1-1.
/// Training labels use the same constant
/// (see the `ir-fusion` crate), which is what lets the model exploit
/// the numerical solution as a near-identity starting point.
pub const VOLT_SCALE: f32 = 100.0;

/// Fixed scale applied to current-valued maps (amperes x 100).
pub const CURRENT_SCALE: f32 = 100.0;

/// Fixed scale applied to resistance-valued path maps (ohms x 0.1).
pub const PATH_RESISTANCE_SCALE: f32 = 0.1;

/// Configuration of the feature extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureConfig {
    /// Output map width in pixels (the paper uses 256; the reproduction
    /// defaults lower for CPU training).
    pub width: usize,
    /// Output map height in pixels.
    pub height: usize,
    /// Include per-layer rough-solution maps (the *numerical* half of
    /// the fusion). Turning this off is the "w/o Num. Solu." ablation.
    pub numerical: bool,
    /// Include per-layer current maps (vs a single total map).
    /// Turning this off is the "w/o hierarchical" ablation: only the
    /// flat IREDGe-style inputs remain.
    pub hierarchical: bool,
    /// Normalization applied to the *structural shape* maps (density,
    /// resistance mass). Physically valued maps (currents, solutions,
    /// distances, path resistance) always use fixed scales so their
    /// amplitude survives across designs.
    pub normalization: Normalization,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            width: 64,
            height: 64,
            numerical: true,
            hierarchical: true,
            normalization: Normalization::MaxAbs,
        }
    }
}

/// A named stack of equally sized feature maps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureStack {
    maps: Vec<GridMap>,
    names: Vec<String>,
}

impl FeatureStack {
    /// Number of channels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// `true` when the stack holds no maps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// The maps in channel order.
    #[must_use]
    pub fn maps(&self) -> &[GridMap] {
        &self.maps
    }

    /// Channel names, parallel to [`FeatureStack::maps`].
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Appends a named map.
    ///
    /// # Panics
    ///
    /// Panics if the map size differs from maps already present.
    pub fn push(&mut self, name: impl Into<String>, map: GridMap) {
        if let Some(first) = self.maps.first() {
            assert_eq!(
                (first.width(), first.height()),
                (map.width(), map.height()),
                "feature stack maps must share one size"
            );
        }
        self.maps.push(map);
        self.names.push(name.into());
    }

    /// Flattens into an NCHW buffer `(1, C, H, W)` for the models.
    /// Returns `(channels, height, width, data)`.
    #[must_use]
    pub fn to_nchw(&self) -> (usize, usize, usize, Vec<f32>) {
        let (h, w) = self
            .maps
            .first()
            .map_or((0, 0), |m| (m.height(), m.width()));
        let mut data = Vec::with_capacity(self.maps.len() * h * w);
        for m in &self.maps {
            data.extend_from_slice(m.data());
        }
        (self.maps.len(), h, w, data)
    }

    /// Rotates every map by `quarters x 90°` clockwise (augmentation).
    /// Channels are rotated concurrently; output order is preserved.
    #[must_use]
    pub fn rotated(&self, quarters: u32) -> FeatureStack {
        let tasks: Vec<_> = self
            .maps
            .iter()
            .map(|m| move || m.rotated(quarters))
            .collect();
        FeatureStack {
            maps: irf_runtime::par_map(tasks),
            names: self.names.clone(),
        }
    }
}

/// The *geometry-only* feature channels: determined by node positions,
/// layers, segment endpoints, and the pad set — never by segment
/// resistances or load currents.
///
/// A strap/via resistance edit reuses these maps verbatim: a topology
/// delta that only rescales `ohms` leaves them untouched.
///
/// The design's [`TileTable`] rides along: it depends on exactly what
/// these maps depend on, so whoever holds the maps warm holds the tile
/// of every node for the resistance stage, the stack and the rough map
/// to read. Equality compares the two maps.
#[derive(Debug, Clone)]
pub struct GeometryMaps {
    /// The normalized `distance/effective` channel.
    pub distance: GridMap,
    /// The normalized `density/pdn` channel.
    pub density: GridMap,
    tiles: Arc<Carried<TileTable>>,
}

impl PartialEq for GeometryMaps {
    fn eq(&self, other: &Self) -> bool {
        self.distance == other.distance && self.density == other.density
    }
}

impl GeometryMaps {
    /// The tile and layer slot of every node of the design.
    #[must_use]
    pub fn tile_table(&self) -> &TileTable {
        &self.tiles.table
    }
}

/// A lookup table carried beside the maps of the stage that built it,
/// and whether a stack has been assembled from it yet.
#[derive(Debug)]
struct Carried<T> {
    table: T,
    read: AtomicBool,
}

impl<T> Carried<T> {
    fn new(table: T) -> Arc<Self> {
        Arc::new(Carried {
            table,
            read: AtomicBool::new(false),
        })
    }

    /// What the `feature_stack` span says of the table: `"built"` on
    /// the first stack assembled from it — the analysis that paid for
    /// it — and `"warm"` on every later one.
    fn claim(&self) -> &'static str {
        if self.read.swap(true, Ordering::Relaxed) {
            "warm"
        } else {
            "built"
        }
    }
}

/// The *resistance-dependent* structural channels: functions of the
/// segment resistances (but still never of the load currents). A
/// strap/via edit gets new ones while [`GeometryMaps`] stays warm — and
/// *refreshes* them from the base design's
/// ([`FeatureExtractor::resistance_maps_from_base`]) instead of
/// re-running every per-pad pass; a current-only edit reuses both
/// halves.
///
/// Equality compares the two maps. The per-pad distance arrays a base
/// grows on its first topology edit are working state, not content,
/// and the conductance shares are a function of the same segments the
/// maps are.
#[derive(Debug, Clone)]
pub struct ResistanceMaps {
    /// The normalized `resistance/map` channel.
    pub resistance: GridMap,
    /// The normalized `resistance/shortest_path` channel (the costly
    /// per-pad passes).
    pub shortest_path: GridMap,
    /// The per-pad distance arrays behind `shortest_path`, materialised
    /// by the first topology edit that refreshes from these maps. A
    /// cold analysis leaves this empty: `pads x nodes x 8` bytes are
    /// only worth holding for a design that is being edited.
    pad_distances: OnceLock<PadDistances>,
    /// What the per-layer current maps split each tile's load by. Like
    /// the two maps it depends on the segments and never on the loads,
    /// so a current edit reads it and a strap edit rebuilds it once.
    shares: Arc<Carried<ConductanceShares>>,
}

impl PartialEq for ResistanceMaps {
    fn eq(&self, other: &Self) -> bool {
        self.resistance == other.resistance && self.shortest_path == other.shortest_path
    }
}

impl ResistanceMaps {
    /// `true` once a topology edit of this design has materialised its
    /// per-pad distance arrays.
    #[must_use]
    pub fn holds_pad_distances(&self) -> bool {
        self.pad_distances.get().is_some()
    }
}

/// Extracts the full hierarchical numerical-structural stack for one
/// design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FeatureExtractor {
    /// Extraction settings.
    pub config: FeatureConfig,
}

impl FeatureExtractor {
    /// Creates an extractor.
    #[must_use]
    pub fn new(config: FeatureConfig) -> Self {
        FeatureExtractor { config }
    }

    /// Builds the rasterizer this extractor uses for `grid`.
    #[must_use]
    pub fn rasterizer(&self, grid: &PowerGrid) -> Rasterizer {
        Rasterizer::new(grid.bounding_box(), self.config.width, self.config.height)
    }

    /// Extracts the feature stack.
    ///
    /// `rough_drop` is the per-node IR-drop estimate from the truncated
    /// AMG-PCG solve (pass all-zeros to emulate the "w/o Num. Solu."
    /// ablation while keeping the channel count fixed).
    ///
    /// The shortest-path resistance values — the costliest feature —
    /// are computed first at top level, so their per-pad
    /// passes fan out across the whole pool; the remaining map groups
    /// then run as one task each (nested parallel calls inside a task
    /// execute inline).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads (the
    /// pad-relative features are undefined).
    ///
    /// # Panics
    ///
    /// Panics if `rough_drop.len() != grid.nodes.len()`.
    pub fn extract(
        &self,
        grid: &PowerGrid,
        rough_drop: &[f64],
    ) -> Result<FeatureStack, FeatureError> {
        let geometry = self.geometry(grid)?;
        let resistance = self.resistance_maps_with(grid, &geometry, None)?;
        self.extract_with_parts(grid, rough_drop, &geometry, &resistance)
    }

    /// Computes only the geometry-dependent channels (effective
    /// distance, PDN density). These survive both current edits *and*
    /// strap/via resistance edits, so the incremental pipeline keys
    /// them on the geometry fingerprint alone.
    ///
    /// Each map's values are bitwise identical to the corresponding
    /// channel of [`FeatureExtractor::extract`]: every individual map
    /// is produced by the same serial code regardless of which grouping
    /// computed it.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads (the
    /// distance channel is pad-relative).
    pub fn geometry(&self, grid: &PowerGrid) -> Result<GeometryMaps, FeatureError> {
        if grid.pads.is_empty() {
            return Err(FeatureError::NoPads);
        }
        let tiles = self.tile_table(grid);
        let norm = self.config.normalization;
        let dist = Normalization::Fixed(1.0 / self.config.width.max(self.config.height) as f32);
        let t = &tiles;
        let tasks: Vec<Box<dyn FnOnce() -> GridMap + Send>> = vec![
            Box::new(move || {
                let _s = irf_trace::span("feature/effective_distance");
                normalize(&effective_distance_map(grid, t.raster()), dist)
            }),
            Box::new(move || {
                let _s = irf_trace::span("feature/pdn_density");
                normalize(&pdn_density_map_tiled(t), norm)
            }),
        ];
        let mut maps = irf_runtime::par_map(tasks).into_iter();
        Ok(GeometryMaps {
            distance: maps.next().expect("distance map"),
            density: maps.next().expect("density map"),
            tiles: Carried::new(tiles),
        })
    }

    /// The tile table of `grid` under this extractor's rasterizer.
    fn tile_table(&self, grid: &PowerGrid) -> TileTable {
        let _s = irf_trace::span("feature/tile_table");
        TileTable::new(grid, self.config.width, self.config.height)
    }

    /// Computes only the resistance-dependent structural channels
    /// (resistance mass, per-pad shortest-path resistance). These are
    /// what a strap/via edit replaces while [`GeometryMaps`] stays
    /// warm.
    ///
    /// The shortest-path resistance values — the costliest feature —
    /// are computed first at top level, so their per-pad
    /// passes fan out across the whole pool; the remaining maps then
    /// run as one task each (nested parallel calls inside a task
    /// execute inline).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads (the
    /// pad-relative features are undefined).
    pub fn resistance_maps(&self, grid: &PowerGrid) -> Result<ResistanceMaps, FeatureError> {
        self.resistance_maps_tiled(grid, None, None)
    }

    /// The resistance maps of `grid`, an `ohms`-only edit of
    /// `base_grid`, refreshed from `base` — which must be
    /// `base_grid`'s maps. Bit for bit what
    /// [`FeatureExtractor::resistance_maps`] returns for `grid`; only
    /// the cost differs: the first call on a `base` materialises its
    /// per-pad distance arrays (one full pass per pad, kept inside
    /// `base`), every call then pays for the distances the edit moves
    /// ([`PadDistances::refreshed`]), one fold and two whole-die
    /// splats. The returned maps hold no arrays of their own. When
    /// `grid` differs from `base_grid` in more than segment
    /// resistances, this *is* `resistance_maps(grid)`.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    pub fn resistance_maps_from_base(
        &self,
        grid: &PowerGrid,
        base_grid: &PowerGrid,
        base: &ResistanceMaps,
    ) -> Result<ResistanceMaps, FeatureError> {
        self.resistance_maps_tiled(grid, None, Some((base_grid, base)))
    }

    /// The resistance maps of `grid` for a caller that already holds
    /// its [`GeometryMaps`]: what [`FeatureExtractor::resistance_maps`]
    /// (`base` absent) or [`FeatureExtractor::resistance_maps_from_base`]
    /// (`base = (base_grid, its maps)`) returns, bit for bit, read
    /// through the geometry's tile table instead of a second one.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    ///
    /// # Panics
    ///
    /// Panics if `geometry` is not `grid`'s.
    pub fn resistance_maps_with(
        &self,
        grid: &PowerGrid,
        geometry: &GeometryMaps,
        base: Option<(&PowerGrid, &ResistanceMaps)>,
    ) -> Result<ResistanceMaps, FeatureError> {
        self.resistance_maps_tiled(grid, Some(geometry.tile_table()), base)
    }

    fn resistance_maps_tiled(
        &self,
        grid: &PowerGrid,
        tiles: Option<&TileTable>,
        base: Option<(&PowerGrid, &ResistanceMaps)>,
    ) -> Result<ResistanceMaps, FeatureError> {
        if grid.pads.is_empty() {
            return Err(FeatureError::NoPads);
        }
        let own_tiles;
        let tiles = match tiles {
            Some(tiles) => tiles,
            None => {
                own_tiles = self.tile_table(grid);
                &own_tiles
            }
        };
        /// What the shortest-path channel is made from.
        enum PathSource<'a> {
            /// Per-node values, still to be rasterized.
            PerNode(Vec<f64>),
            /// The base's finished map: the edit moved no pad's
            /// distances at all.
            BaseMap(&'a GridMap),
        }
        let sp_source = {
            let mut sp_span = irf_trace::span("feature/shortest_path_resistance");
            // Full passes run under this span besides a cold compute's:
            // materialising the base's arrays, and pads that fell back.
            let mut full_passes = 0;
            let refreshed = base.and_then(|(base_grid, base)| {
                if base_grid.pads.is_empty() {
                    return None;
                }
                let distances = base.pad_distances.get_or_init(|| {
                    let distances =
                        PadDistances::compute(base_grid).expect("base pads checked above");
                    full_passes += distances.passes().len();
                    distances
                });
                let (refreshed, stats) = distances.refreshed(base_grid, grid)?;
                full_passes += stats.full_passes;
                let base_map = &base.shortest_path;
                let unmoved = refreshed.shares_every_pass_with(distances)
                    && (base_map.width(), base_map.height())
                        == (self.config.width, self.config.height);
                let source = if unmoved {
                    PathSource::BaseMap(base_map)
                } else {
                    PathSource::PerNode(refreshed.per_node())
                };
                Some((source, stats))
            });
            if sp_span.is_recording() {
                sp_span.attr("pads", grid.pads.len());
                sp_span.attr("refreshed", refreshed.is_some());
                if let Some((_, stats)) = &refreshed {
                    sp_span.attr("changed_segments", stats.changed_segments);
                    sp_span.attr("settled", stats.settled);
                    sp_span.attr("full_passes", full_passes);
                }
            }
            match refreshed {
                Some((source, _)) => source,
                None => {
                    PathSource::PerNode(shortest_path::shortest_path_resistance_per_node(grid)?)
                }
            }
        };
        let norm = self.config.normalization;
        let path_r = Normalization::Fixed(PATH_RESISTANCE_SCALE);
        let tasks: Vec<Box<dyn FnOnce() -> GridMap + Send>> = vec![
            Box::new(move || {
                let _s = irf_trace::span("feature/resistance_map");
                normalize(&resistance_map(grid, tiles), norm)
            }),
            Box::new({
                let sp_source = &sp_source;
                move || {
                    let _s = irf_trace::span("feature/shortest_path_rasterize");
                    match sp_source {
                        PathSource::PerNode(values) => {
                            normalize(&shortest_path::rasterize_per_node(values, tiles), path_r)
                        }
                        PathSource::BaseMap(map) => (*map).clone(),
                    }
                }
            }),
        ];
        let mut maps = irf_runtime::par_map(tasks).into_iter();
        let shares = {
            let _s = irf_trace::span("feature/share_tables");
            ConductanceShares::new(grid, tiles)
        };
        Ok(ResistanceMaps {
            resistance: maps.next().expect("resistance map"),
            shortest_path: maps.next().expect("shortest-path map"),
            pad_distances: OnceLock::new(),
            shares: Carried::new(shares),
        })
    }

    /// Assembles the full stack from the split structural halves —
    /// the stage-graph entry point where [`GeometryMaps`] and
    /// [`ResistanceMaps`] are cached under *different* fingerprints.
    /// Recomputes only the current-dependent channels, through the tile
    /// table and the conductance shares the halves carry, and splices
    /// the precomputed structural maps into the fixed channel order.
    /// Channel order and values are bitwise identical to
    /// [`FeatureExtractor::extract`].
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::NoPads`] when the grid has no pads.
    ///
    /// # Panics
    ///
    /// Panics if `rough_drop.len() != grid.nodes.len()`, the halves are
    /// not `grid`'s, or the map sizes disagree with the configured
    /// raster.
    pub fn extract_with_parts(
        &self,
        grid: &PowerGrid,
        rough_drop: &[f64],
        geometry: &GeometryMaps,
        resistance: &ResistanceMaps,
    ) -> Result<FeatureStack, FeatureError> {
        if grid.pads.is_empty() {
            return Err(FeatureError::NoPads);
        }
        let mut span = irf_trace::span("feature_stack");
        let tile_table = geometry.tiles.claim();
        let share_tables = resistance.shares.claim();
        let tiles = geometry.tile_table();
        let shares = &resistance.shares.table;
        let amps = Normalization::Fixed(CURRENT_SCALE);
        let volts = Normalization::Fixed(VOLT_SCALE);
        // Every map group is independent of the others, so they are
        // computed concurrently; channel order is fixed by how the
        // results are assembled below, not by completion order.
        enum Group {
            One(&'static str, GridMap),
            Layers(&'static str, Vec<(u32, GridMap)>),
        }
        let mut tasks: Vec<Box<dyn FnOnce() -> Group + Send>> = vec![Box::new(move || {
            let _s = irf_trace::span("feature/current_total");
            Group::One(
                "current/total",
                normalize(&total_current_map_tiled(grid, tiles), amps),
            )
        })];
        if self.config.hierarchical {
            tasks.push(Box::new(move || {
                let _s = irf_trace::span("feature/layer_currents");
                Group::Layers(
                    "current",
                    layer_current_maps(grid, tiles, shares)
                        .into_iter()
                        .map(|(layer, m)| (layer, normalize(&m, amps)))
                        .collect(),
                )
            }));
        }
        if self.config.numerical {
            tasks.push(Box::new(move || {
                let _s = irf_trace::span("feature/layer_solutions");
                Group::Layers(
                    "solution",
                    layer_solution_maps(rough_drop, tiles)
                        .into_iter()
                        .map(|(layer, m)| (layer, normalize(&m, volts)))
                        .collect(),
                )
            }));
        }
        let mut groups = irf_runtime::par_map(tasks).into_iter();
        let mut stack = FeatureStack::default();
        let total = match groups.next().expect("current/total group") {
            Group::One(name, m) => (name, m),
            Group::Layers(..) => unreachable!("first group is current/total"),
        };
        stack.push(total.0, total.1);
        stack.push("distance/effective", geometry.distance.clone());
        stack.push("density/pdn", geometry.density.clone());
        stack.push("resistance/map", resistance.resistance.clone());
        stack.push("resistance/shortest_path", resistance.shortest_path.clone());
        for group in groups {
            match group {
                Group::One(name, m) => stack.push(name, m),
                Group::Layers(prefix, maps) => {
                    for (layer, m) in maps {
                        stack.push(format!("{prefix}/m{layer}"), m);
                    }
                }
            }
        }
        if span.is_recording() {
            span.attr("channels", stack.len());
            span.attr("width", self.config.width);
            span.attr("height", self.config.height);
            span.attr("tile_table", tile_table);
            span.attr("share_tables", share_tables);
        }
        Ok(stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_pg::grid_from_spice_reader;

    fn grid() -> PowerGrid {
        let src = "\
V1 n1_m4_0_0 0 1.0
R1 n1_m4_0_0 n1_m1_0_0 0.1
R2 n1_m1_0_0 n1_m1_1000_0 0.5
R3 n1_m4_0_0 n1_m4_1000_1000 0.2
R4 n1_m4_1000_1000 n1_m1_1000_0 0.3
I1 n1_m1_1000_0 0 1m
";
        grid_from_spice_reader(src.as_bytes()).unwrap()
    }

    fn config() -> FeatureConfig {
        FeatureConfig {
            width: 8,
            height: 8,
            ..FeatureConfig::default()
        }
    }

    #[test]
    fn full_stack_has_expected_channels() {
        let g = grid();
        let ex = FeatureExtractor::new(config());
        let drops = vec![0.0; g.nodes.len()];
        let stack = ex.extract(&g, &drops).unwrap();
        // 5 shared + 2 layer-current + 2 layer-solution.
        assert_eq!(stack.len(), 9);
        assert!(stack.names().iter().any(|n| n == "solution/m4"));
        assert!(stack.names().iter().any(|n| n == "current/m1"));
    }

    #[test]
    fn ablations_drop_channel_groups() {
        let g = grid();
        let drops = vec![0.0; g.nodes.len()];
        let no_num = FeatureExtractor::new(FeatureConfig {
            numerical: false,
            ..config()
        })
        .extract(&g, &drops)
        .unwrap();
        assert_eq!(no_num.len(), 7);
        let flat = FeatureExtractor::new(FeatureConfig {
            numerical: false,
            hierarchical: false,
            ..config()
        })
        .extract(&g, &drops)
        .unwrap();
        assert_eq!(flat.len(), 5);
    }

    #[test]
    fn to_nchw_concatenates_channels() {
        let g = grid();
        let ex = FeatureExtractor::new(config());
        let stack = ex.extract(&g, &vec![0.0; g.nodes.len()]).unwrap();
        let (c, h, w, data) = stack.to_nchw();
        assert_eq!((c, h, w), (9, 8, 8));
        assert_eq!(data.len(), 9 * 64);
        assert_eq!(&data[..64], stack.maps()[0].data());
    }

    #[test]
    fn maps_are_bounded_after_scaling() {
        let g = grid();
        let ex = FeatureExtractor::new(config());
        let stack = ex.extract(&g, &vec![0.001; g.nodes.len()]).unwrap();
        for (m, name) in stack.maps().iter().zip(stack.names()) {
            assert!(m.max().is_finite(), "{name} not finite");
            assert!(m.max() < 100.0, "{name} badly scaled: {}", m.max());
        }
        // Solution channels keep their absolute scale: 1 mV -> 0.1.
        let sol = stack
            .names()
            .iter()
            .position(|n| n.starts_with("solution/"))
            .expect("solution channel present");
        assert!((stack.maps()[sol].max() - 0.1).abs() < 1e-5);
    }

    #[test]
    fn rotation_rotates_every_map() {
        let g = grid();
        let ex = FeatureExtractor::new(config());
        let stack = ex.extract(&g, &vec![0.0; g.nodes.len()]).unwrap();
        let rot = stack.rotated(2);
        assert_eq!(rot.len(), stack.len());
        let m0 = &stack.maps()[0];
        let r0 = &rot.maps()[0];
        assert_eq!(m0.get(0, 0), r0.get(7, 7));
    }

    /// The channel of `stack` named `name`.
    fn channel<'s>(stack: &'s FeatureStack, name: &str) -> &'s GridMap {
        let i = stack.names().iter().position(|n| n == name);
        &stack.maps()[i.unwrap_or_else(|| panic!("no {name} channel"))]
    }

    #[test]
    fn structural_reuse_is_bitwise_identical() {
        let g = grid();
        let ex = FeatureExtractor::new(config());
        let drops = vec![0.0005; g.nodes.len()];
        let cold = ex.extract(&g, &drops).unwrap();
        let geometry = ex.geometry(&g).unwrap();
        let resistance = ex.resistance_maps(&g).unwrap();
        let warm = ex
            .extract_with_parts(&g, &drops, &geometry, &resistance)
            .unwrap();
        assert_eq!(cold, warm);
        // The structural maps never depend on the loads: recomputing
        // them after a current edit yields the exact same channels.
        let mut edited = g.clone();
        for l in &mut edited.loads {
            l.amps *= 3.0;
        }
        assert_eq!(ex.geometry(&edited).unwrap(), geometry);
        assert_eq!(ex.resistance_maps(&edited).unwrap(), resistance);
    }

    #[test]
    fn split_halves_match_the_combined_structural_maps_bitwise() {
        let g = grid();
        let ex = FeatureExtractor::new(config());
        let drops = vec![0.0005; g.nodes.len()];
        let cold = ex.extract(&g, &drops).unwrap();
        let geometry = ex.geometry(&g).unwrap();
        let resistance = ex.resistance_maps(&g).unwrap();
        assert_eq!(&geometry.distance, channel(&cold, "distance/effective"));
        assert_eq!(&geometry.density, channel(&cold, "density/pdn"));
        assert_eq!(&resistance.resistance, channel(&cold, "resistance/map"));
        assert_eq!(
            &resistance.shortest_path,
            channel(&cold, "resistance/shortest_path")
        );

        // Parts-based assembly equals the cold extract bit for bit.
        let parts = ex
            .extract_with_parts(&g, &drops, &geometry, &resistance)
            .unwrap();
        assert_eq!(cold, parts);

        // A pure resistance edit leaves the geometry half untouched
        // but changes the resistance half.
        let mut edited = g.clone();
        edited.segments[1].ohms *= 2.0;
        assert_eq!(ex.geometry(&edited).unwrap(), geometry);
        assert_ne!(ex.resistance_maps(&edited).unwrap(), resistance);
    }

    /// Coordinates are parsed from node names, so a netlist can span
    /// more than an `i64` holds; the parent's `x1 - x0` panicked a debug
    /// build here and wrapped a release one.
    #[test]
    fn a_die_wider_than_i64_rasterizes_without_overflow() {
        let src = "\
V1 n1_m4_-9223372036854775800_0 0 1.0
R1 n1_m4_-9223372036854775800_0 n1_m1_9223372036854775800_0 0.1
R2 n1_m1_9223372036854775800_0 n1_m1_0_0 0.5
I1 n1_m1_0_0 0 1m
";
        let g = grid_from_spice_reader(std::io::Cursor::new(src)).expect("valid grid");
        let ex = FeatureExtractor::new(config());
        let geometry = ex.geometry(&g).expect("pads");
        let resistance = ex.resistance_maps(&g).expect("pads");
        // Three nodes on the row y = 0: columns 0, 4 (x = 0, mid-die)
        // and 7 of 8.
        let density = geometry.density.data();
        assert_eq!(
            (density[0], density[4], density[7]),
            (1.0, 1.0, 1.0),
            "{density:?}"
        );
        assert_eq!(density.iter().filter(|&&v| v != 0.0).count(), 3);
        // R2's halves land mid-die and at the right edge.
        let mass = resistance.resistance.data();
        assert!(
            mass[4] > 0.0 && mass[7] > mass[4] && mass[0] > 0.0,
            "{mass:?}"
        );
        let stack = ex
            .extract_with_parts(&g, &[0.0, 0.002, 0.004], &geometry, &resistance)
            .expect("pads");
        assert_eq!(stack.len(), 9);
    }

    #[test]
    #[should_panic(expected = "share one size")]
    fn mismatched_map_sizes_panic() {
        let mut s = FeatureStack::default();
        s.push("a", GridMap::new(4, 4));
        s.push("b", GridMap::new(8, 8));
    }
}
