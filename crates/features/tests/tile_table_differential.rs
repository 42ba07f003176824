//! Differential contract of the tile table: every feature map written
//! as an index-and-add over a [`TileTable`] has the bits of the
//! coordinate splat it replaced. The oracles below are those bodies,
//! kept as they were: one `Rasterizer::pixel` per sample, one filtered
//! pass per layer, a `HashMap` from layer to slot.
//!
//! Why the bits hold: a tile's `f32` sum depends only on which addends
//! it receives and in which order, and every body visits nodes,
//! segments (end `a`, then `b`) and loads in the order its oracle does.
//!
//! Mutation-checked. Each of these fails this file: `resistance_map`
//! walking the segments backwards; an endpoint's conductance credited
//! to the other endpoint's layer (the 300-layer case: in a synthesized
//! grid both ends of a via share a tile); `layer_solution_maps` walking
//! the nodes backwards; `total_current_map_tiled` summing in `f64`.
//! Swapping the two endpoint adds *within* a segment is no mutation at
//! all — both ends receive the same addend. The `f64` conductance
//! shares reach a map only through an `f32` rounding that hides their
//! last bits (summing them over segments backwards, or the totals over
//! layers in descending order, passes here), so their bits are pinned
//! where the fields can be read: `current.rs`'s
//! `shares_keep_the_bits_of_the_per_segment_bookkeeping`, which fails
//! under both.

use irf_data::synth::{synthesize, SynthSpec};
use irf_features::current::{layer_current_maps, total_current_map_tiled, ConductanceShares};
use irf_features::density::pdn_density_map_tiled;
use irf_features::normalize::{normalize, Normalization};
use irf_features::resistance::resistance_map;
use irf_features::shortest_path::{rasterize_per_node, shortest_path_resistance_per_node};
use irf_features::solution::{
    bottom_layer_solution_map, bottom_layer_solution_map_tiled, layer_solution_maps,
};
use irf_features::stack::{CURRENT_SCALE, PATH_RESISTANCE_SCALE, VOLT_SCALE};
use irf_features::{FeatureConfig, FeatureExtractor};
use irf_pg::{GridMap, Load, Pad, PgNode, PowerGrid, Rasterizer, Segment, TileTable};
use irf_runtime::Xoshiro256pp;
use std::sync::Mutex;

/// The parent's bodies, coordinate by coordinate.
mod oracle {
    use irf_pg::{GridMap, PowerGrid, Rasterizer};
    use std::collections::HashMap;

    pub fn pdn_density_map(grid: &PowerGrid, raster: &Rasterizer) -> GridMap {
        raster
            .splat_sum(grid.nodes.iter().map(|n| (n.x, n.y, 1.0)))
            .normalized()
    }

    pub fn resistance_map(grid: &PowerGrid, raster: &Rasterizer) -> GridMap {
        raster.splat_sum(grid.segments.iter().flat_map(|s| {
            let half = s.ohms / 2.0;
            let na = &grid.nodes[s.a];
            let nb = &grid.nodes[s.b];
            [(na.x, na.y, half), (nb.x, nb.y, half)]
        }))
    }

    pub fn rasterize_per_node(grid: &PowerGrid, values: &[f64], raster: &Rasterizer) -> GridMap {
        raster.splat_mean(
            grid.nodes
                .iter()
                .zip(values)
                .filter(|(_, v)| v.is_finite())
                .map(|(n, &v)| (n.x, n.y, v)),
        )
    }

    pub fn total_current_map(grid: &PowerGrid, raster: &Rasterizer) -> GridMap {
        raster.splat_sum(grid.loads.iter().map(|l| {
            let n = &grid.nodes[l.node];
            (n.x, n.y, l.amps)
        }))
    }

    pub fn layer_current_maps(grid: &PowerGrid, raster: &Rasterizer) -> Vec<(u32, GridMap)> {
        let layers = grid.layers();
        let (w, h) = (raster.width(), raster.height());
        let mut layer_index: HashMap<u32, usize> = HashMap::new();
        for (i, &l) in layers.iter().enumerate() {
            layer_index.insert(l, i);
        }
        let mut share = vec![vec![0f64; w * h]; layers.len()];
        for s in &grid.segments {
            let g = s.conductance() / 2.0;
            for &end in &[s.a, s.b] {
                let n = &grid.nodes[end];
                let (px, py) = raster.pixel(n.x, n.y);
                share[layer_index[&n.layer]][py * w + px] += g;
            }
        }
        let mut totals = vec![0f64; w * h];
        for layer_share in &share {
            for (t, s) in totals.iter_mut().zip(layer_share) {
                *t += s;
            }
        }
        let mut maps: Vec<GridMap> = (0..layers.len()).map(|_| GridMap::new(w, h)).collect();
        for l in &grid.loads {
            let n = &grid.nodes[l.node];
            let (px, py) = raster.pixel(n.x, n.y);
            let idx = py * w + px;
            if totals[idx] > 0.0 {
                for (li, layer_share) in share.iter().enumerate() {
                    let frac = layer_share[idx] / totals[idx];
                    maps[li].add(px, py, (l.amps * frac) as f32);
                }
            } else {
                maps[0].add(px, py, l.amps as f32);
            }
        }
        layers.into_iter().zip(maps).collect()
    }

    pub fn layer_solution_maps(
        grid: &PowerGrid,
        drops: &[f64],
        raster: &Rasterizer,
    ) -> Vec<(u32, GridMap)> {
        grid.layers()
            .into_iter()
            .map(|layer| {
                let samples = grid
                    .nodes
                    .iter()
                    .zip(drops)
                    .filter(|(n, _)| n.layer == layer)
                    .map(|(n, &d)| (n.x, n.y, d));
                (layer, raster.splat_mean(samples))
            })
            .collect()
    }

    pub fn bottom_layer_solution_map(
        grid: &PowerGrid,
        drops: &[f64],
        raster: &Rasterizer,
    ) -> GridMap {
        let bottom = grid.layers().first().copied().unwrap_or(1);
        raster.splat_max(
            grid.nodes
                .iter()
                .zip(drops)
                .filter(|(n, _)| n.layer == bottom)
                .map(|(n, &d)| (n.x, n.y, d)),
        )
    }
}

/// The global thread count is process-wide state; hold this lock while
/// flipping it (same pattern as `tests/integration_determinism.rs`).
static THREAD_CONFIG: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREAD_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    irf_runtime::set_num_threads(n);
    let result = f();
    irf_runtime::set_num_threads(0);
    result
}

fn bits(map: &GridMap) -> Vec<u32> {
    map.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_same(what: &str, got: &GridMap, want: &GridMap) {
    assert_eq!(
        (got.width(), got.height()),
        (want.width(), want.height()),
        "{what}: size"
    );
    assert_eq!(bits(got), bits(want), "{what}: bits");
}

fn assert_same_layers(what: &str, got: &[(u32, GridMap)], want: &[(u32, GridMap)]) {
    let layers = |maps: &[(u32, GridMap)]| maps.iter().map(|(l, _)| *l).collect::<Vec<_>>();
    assert_eq!(layers(got), layers(want), "{what}: layer order");
    for ((layer, got), (_, want)) in got.iter().zip(want) {
        assert_same(&format!("{what}/m{layer}"), got, want);
    }
}

/// Per-node values of mixed magnitude and sign, so an `f32` sum that
/// takes them in another order, or in `f64`, rounds differently.
fn per_node(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.random::<f64>() - 0.3) * 10f64.powi((rng.next_u64() % 6) as i32 - 4))
        .collect()
}

/// Every map of `grid` under `raster` against its oracle.
fn check_every_map(what: &str, grid: &PowerGrid, raster: &Rasterizer, values: &[f64]) {
    let tiles = TileTable::with_raster(grid, *raster);
    assert_eq!(tiles.layers(), grid.layers().as_slice(), "{what}: layers");
    let drops = per_node(grid.nodes.len(), 0xd809);

    assert_same(
        &format!("{what}: density"),
        &pdn_density_map_tiled(&tiles),
        &oracle::pdn_density_map(grid, raster),
    );
    assert_same(
        &format!("{what}: resistance"),
        &resistance_map(grid, &tiles),
        &oracle::resistance_map(grid, raster),
    );
    assert_same(
        &format!("{what}: per-node"),
        &rasterize_per_node(values, &tiles),
        &oracle::rasterize_per_node(grid, values, raster),
    );
    assert_same(
        &format!("{what}: total current"),
        &total_current_map_tiled(grid, &tiles),
        &oracle::total_current_map(grid, raster),
    );
    assert_same_layers(
        &format!("{what}: layer currents"),
        &layer_current_maps(grid, &tiles, &ConductanceShares::new(grid, &tiles)),
        &oracle::layer_current_maps(grid, raster),
    );
    assert_same_layers(
        &format!("{what}: layer solutions"),
        &layer_solution_maps(&drops, &tiles),
        &oracle::layer_solution_maps(grid, &drops, raster),
    );
    assert_same(
        &format!("{what}: bottom solution"),
        &bottom_layer_solution_map_tiled(&drops, &tiles),
        &oracle::bottom_layer_solution_map(grid, &drops, raster),
    );

    // The entry that takes a rasterizer builds the same table.
    assert_same(
        &format!("{what}: bottom solution by raster"),
        &bottom_layer_solution_map(grid, &drops, raster),
        &oracle::bottom_layer_solution_map(grid, &drops, raster),
    );
}

fn synth(nodes: usize, seed: u64) -> PowerGrid {
    synthesize(&SynthSpec::scaled_to_nodes(nodes, seed))
}

fn node(layer: u32, x: i64, y: i64) -> PgNode {
    PgNode {
        name: format!("n1_m{layer}_{x}_{y}"),
        layer,
        x,
        y,
        is_pad: false,
    }
}

/// A grid straight from its parts: the maps read positions, layers,
/// segments and loads, and ask for no connectivity.
fn hand_made(nodes: Vec<PgNode>, segments: Vec<Segment>, loads: Vec<Load>) -> PowerGrid {
    PowerGrid {
        nodes: nodes.into(),
        segments,
        loads,
        pads: vec![Pad {
            node: 0,
            volts: 1.0,
        }],
    }
}

fn segment(a: usize, b: usize, ohms: f64) -> Segment {
    Segment { a, b, ohms }
}

#[test]
fn synthesized_grids_keep_every_bit() {
    for (nodes, seed, size) in [(3000, 5, 16), (12_000, 9, 64), (800, 2, 7)] {
        let grid = synth(nodes, seed);
        let raster = Rasterizer::new(grid.bounding_box(), size, size);
        let values = shortest_path_resistance_per_node(&grid).expect("pads");
        check_every_map(&format!("synth {nodes}/{seed}"), &grid, &raster, &values);
    }
}

#[test]
fn a_raster_of_another_grids_box_clamps_the_same_nodes() {
    let grid = synth(3000, 5);
    let (x0, y0, x1, y1) = grid.bounding_box();
    // The middle half of the die: every node outside lands on an edge
    // tile, which then sums a long run of addends.
    let inner = (
        x0 + (x1 - x0) / 4,
        y0 + (y1 - y0) / 4,
        x1 - (x1 - x0) / 4,
        y1 - (y1 - y0) / 4,
    );
    let raster = Rasterizer::new(inner, 16, 12);
    let values = per_node(grid.nodes.len(), 77);
    check_every_map("clamped", &grid, &raster, &values);
    // And a box the die only touches at a corner.
    let far = Rasterizer::new((x1, y1, x1 + 5000, y1 + 5000), 8, 8);
    check_every_map("far box", &grid, &far, &values);
}

#[test]
fn loads_on_a_tile_without_conductance_fall_to_the_bottom_layer() {
    // Node 3 sits alone in the far tile: no segment ends there, so its
    // two loads go whole to the bottom layer's map.
    let nodes = vec![
        node(4, 0, 0),
        node(2, 0, 0),
        node(2, 100, 0),
        node(4, 1000, 1000),
    ];
    let segments = vec![segment(0, 1, 0.1), segment(1, 2, 0.7)];
    let loads = vec![
        Load {
            node: 3,
            amps: 1.5e-3,
        },
        Load {
            node: 2,
            amps: 2.5e-3,
        },
        Load {
            node: 3,
            amps: 0.25e-3,
        },
    ];
    let grid = hand_made(nodes, segments, loads);
    let raster = Rasterizer::new(grid.bounding_box(), 2, 2);
    check_every_map("fallback", &grid, &raster, &[0.0, 0.1, 0.8, f64::INFINITY]);
    let tiles = TileTable::with_raster(&grid, raster);
    let maps = layer_current_maps(&grid, &tiles, &ConductanceShares::new(&grid, &tiles));
    assert_eq!(maps[0].0, 2);
    assert_eq!(maps[0].1.get(1, 1), 1.5e-3_f32 + 0.25e-3_f32);
    assert_eq!(maps[1].1.get(1, 1), 0.0);
}

#[test]
fn a_layer_absent_from_a_tile_stays_zero_there() {
    // Layer 3 has nodes in the left tile only; layer 1 in both.
    let nodes = vec![
        node(3, 0, 0),
        node(1, 10, 0),
        node(1, 900, 0),
        node(1, 1000, 0),
        node(3, 20, 0),
    ];
    let segments = vec![
        segment(0, 1, 0.2),
        segment(1, 2, 1.0),
        segment(2, 3, 0.3),
        segment(0, 4, 0.05),
    ];
    let loads = vec![
        Load {
            node: 3,
            amps: 1e-3,
        },
        Load {
            node: 1,
            amps: 3e-3,
        },
    ];
    let grid = hand_made(nodes, segments, loads);
    let raster = Rasterizer::new(grid.bounding_box(), 2, 1);
    check_every_map("absent layer", &grid, &raster, &[0.0, 0.2, 1.2, 1.5, 0.05]);
    let tiles = TileTable::with_raster(&grid, raster);
    let solutions = layer_solution_maps(&[0.0, 1.0, 2.0, 3.0, 4.0], &tiles);
    assert_eq!(solutions[1].0, 3);
    assert_eq!(solutions[1].1.data(), &[2.0, 0.0]);
    assert_eq!(solutions[0].1.data(), &[1.0, 2.5]);
}

#[test]
fn infinite_shortest_path_values_are_skipped() {
    let grid = synth(800, 2);
    let raster = Rasterizer::new(grid.bounding_box(), 8, 8);
    let mut values = per_node(grid.nodes.len(), 31);
    for v in values.iter_mut().step_by(3) {
        *v = f64::INFINITY;
    }
    check_every_map("every third unreachable", &grid, &raster, &values);
    let none = vec![f64::INFINITY; grid.nodes.len()];
    let tiles = TileTable::with_raster(&grid, raster);
    assert!(rasterize_per_node(&none, &tiles)
        .data()
        .iter()
        .all(|&v| v == 0.0));
}

#[test]
fn no_loads_and_one_node() {
    let mut grid = synth(800, 2);
    grid.loads.clear();
    let raster = Rasterizer::new(grid.bounding_box(), 8, 8);
    let values = per_node(grid.nodes.len(), 4);
    check_every_map("no loads", &grid, &raster, &values);

    let lone = hand_made(
        vec![node(7, 42, -42)],
        Vec::new(),
        vec![Load {
            node: 0,
            amps: 1e-3,
        }],
    );
    let raster = Rasterizer::new(lone.bounding_box(), 4, 4);
    check_every_map("one node", &lone, &raster, &[0.5]);
}

#[test]
fn three_hundred_layers_keep_their_order_and_their_maps() {
    // More layers than a byte counts, met in no order: node `i` sits on
    // layer `(i * 7) % 300 + 1`, two nodes a layer, a chain of segments
    // through all of them.
    let layers = 300usize;
    let nodes: Vec<PgNode> = (0..2 * layers)
        .map(|i| {
            let layer = ((i * 7) % layers + 1) as u32;
            node(layer, (i as i64 * 37) % 1000, (i as i64 * 91) % 1000)
        })
        .collect();
    let segments = (1..nodes.len())
        .map(|i| segment(i - 1, i, 0.1 + (i % 13) as f64 * 0.07))
        .collect();
    let loads = (0..nodes.len())
        .step_by(5)
        .map(|node| Load {
            node,
            amps: 1e-4 * (1 + node % 9) as f64,
        })
        .collect();
    let grid = hand_made(nodes, segments, loads);
    let raster = Rasterizer::new(grid.bounding_box(), 4, 4);
    let tiles = TileTable::with_raster(&grid, raster);
    assert_eq!(tiles.layers(), (1..=300).collect::<Vec<u32>>().as_slice());
    assert_eq!(
        tiles.slots().iter().max().copied(),
        Some(299),
        "a slot holds every layer ingest can produce"
    );
    let values = per_node(grid.nodes.len(), 300);
    check_every_map("300 layers", &grid, &raster, &values);
}

/// The extractor's channels — tables carried by the geometry and
/// resistance halves, groups fanned out over the pool — against the
/// oracles under the extractor's own normalizations, at every thread
/// count.
#[test]
fn the_extractor_reads_its_tables_to_the_oracles_bits_at_1_2_4_8_threads() {
    let grid = synth(3000, 5);
    let config = FeatureConfig {
        width: 16,
        height: 16,
        ..FeatureConfig::default()
    };
    let extractor = FeatureExtractor::new(config);
    let raster = extractor.rasterizer(&grid);
    let drops = per_node(grid.nodes.len(), 11);
    let values = shortest_path_resistance_per_node(&grid).expect("pads");
    let amps = Normalization::Fixed(CURRENT_SCALE);
    let volts = Normalization::Fixed(VOLT_SCALE);
    let scaled = |maps: Vec<(u32, GridMap)>, by: Normalization| -> Vec<(u32, GridMap)> {
        maps.into_iter()
            .map(|(layer, m)| (layer, normalize(&m, by)))
            .collect()
    };
    let want_currents = scaled(oracle::layer_current_maps(&grid, &raster), amps);
    let want_solutions = scaled(oracle::layer_solution_maps(&grid, &drops, &raster), volts);

    for threads in [1, 2, 4, 8] {
        let (geometry, resistance, stack) = with_threads(threads, || {
            let geometry = extractor.geometry(&grid).expect("pads");
            let resistance = extractor.resistance_maps(&grid).expect("pads");
            let stack = extractor
                .extract_with_parts(&grid, &drops, &geometry, &resistance)
                .expect("pads");
            (geometry, resistance, stack)
        });
        let at = |what: &str| format!("{what} at {threads} threads");
        assert_same(
            &at("density"),
            &geometry.density,
            &normalize(
                &oracle::pdn_density_map(&grid, &raster),
                config.normalization,
            ),
        );
        assert_same(
            &at("resistance"),
            &resistance.resistance,
            &normalize(
                &oracle::resistance_map(&grid, &raster),
                config.normalization,
            ),
        );
        assert_same(
            &at("shortest path"),
            &resistance.shortest_path,
            &normalize(
                &oracle::rasterize_per_node(&grid, &values, &raster),
                Normalization::Fixed(PATH_RESISTANCE_SCALE),
            ),
        );
        let channel = |name: &str| {
            let i = stack
                .names()
                .iter()
                .position(|n| n == name)
                .unwrap_or_else(|| panic!("no channel {name}"));
            &stack.maps()[i]
        };
        assert_same(
            &at("current/total"),
            channel("current/total"),
            &normalize(&oracle::total_current_map(&grid, &raster), amps),
        );
        for (layer, want) in &want_currents {
            let name = format!("current/m{layer}");
            assert_same(&at(&name), channel(&name), want);
        }
        for (layer, want) in &want_solutions {
            let name = format!("solution/m{layer}");
            assert_same(&at(&name), channel(&name), want);
        }
        assert_eq!(
            stack.len(),
            5 + want_currents.len() + want_solutions.len(),
            "channels at {threads} threads"
        );
        // The cold entry builds its own tables and lands on the same bits.
        let cold = with_threads(threads, || extractor.extract(&grid, &drops)).expect("pads");
        assert_eq!(cold, stack, "cold extract at {threads} threads");
    }
}
