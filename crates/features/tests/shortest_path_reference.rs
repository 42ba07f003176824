//! The shipped shortest-path passes against an independent reference:
//! a textbook binary-heap Dijkstra written here, sharing no code with
//! the crate. Every distance array, the per-node average and the
//! per-pad arrays `PadDistances` keeps must have the reference's bits,
//! at 1 and 4 threads — on synthetic grids, dataset designs, a design
//! that takes the multi-source pass, and meshes whose resistances
//! spread over decades (where the FIFO pass escalates to its heap).

use irf_data::synth::{synthesize, SynthSpec};
use irf_data::Dataset;
use irf_features::shortest_path::{
    resistance_distances, shortest_path_resistance_per_node, PadDistances,
};
use irf_pg::PowerGrid;
use irf_runtime::Xoshiro256pp;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Mutex;

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

/// A heap entry ordered so that `BinaryHeap` pops the smallest
/// distance first.
struct Entry {
    dist: f64,
    node: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then(other.node.cmp(&self.node))
    }
}

/// Textbook Dijkstra over the grid's segments from `sources`, each
/// path's resistance summed edge by edge from the source;
/// `f64::INFINITY` where no source reaches.
fn reference(grid: &PowerGrid, sources: &[usize]) -> Vec<f64> {
    let mut adjacency = vec![Vec::new(); grid.nodes.len()];
    for s in &grid.segments {
        adjacency[s.a].push((s.b, s.ohms));
        adjacency[s.b].push((s.a, s.ohms));
    }
    let mut dist = vec![f64::INFINITY; grid.nodes.len()];
    let mut done = vec![false; grid.nodes.len()];
    let mut heap = BinaryHeap::new();
    for &s in sources {
        dist[s] = 0.0;
        heap.push(Entry { dist: 0.0, node: s });
    }
    while let Some(Entry { dist: d, node }) = heap.pop() {
        if done[node] {
            continue;
        }
        done[node] = true;
        for &(next, ohms) in &adjacency[node] {
            if d + ohms < dist[next] {
                dist[next] = d + ohms;
                heap.push(Entry {
                    dist: d + ohms,
                    node: next,
                });
            }
        }
    }
    dist
}

/// The reference arrays: one per pad, or the one multi-source array
/// when the design has more than 32 pads.
fn reference_passes(grid: &PowerGrid) -> Vec<Vec<f64>> {
    let pads: Vec<usize> = grid.pads.iter().map(|p| p.node).collect();
    if pads.len() > 32 {
        vec![reference(grid, &pads)]
    } else {
        pads.iter().map(|&p| reference(grid, &[p])).collect()
    }
}

/// The per-node average of the reference arrays in the summation order
/// the crate documents: pads summed from zero in chunks of four, in pad
/// order, chunks folded left to right from zero; unreached pads skip.
fn reference_average(passes: &[Vec<f64>]) -> Vec<f64> {
    if let [single] = passes {
        return single.clone();
    }
    let n = passes[0].len();
    let (mut total, mut reached) = (vec![0.0f64; n], vec![0u32; n]);
    for chunk in passes.chunks(4) {
        let mut partial = vec![0.0f64; n];
        for pass in chunk {
            for (i, &d) in pass.iter().enumerate() {
                if d.is_finite() {
                    partial[i] += d;
                    reached[i] += 1;
                }
            }
        }
        for (t, p) in total.iter_mut().zip(&partial) {
            *t += p;
        }
    }
    total
        .iter()
        .zip(&reached)
        .map(|(&t, &r)| {
            if r > 0 {
                t / f64::from(r)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every public entry point against the reference, at 1 and 4 threads.
fn check(grid: &PowerGrid, label: &str) {
    let pads: Vec<usize> = grid.pads.iter().map(|p| p.node).collect();
    let want = reference_passes(grid);
    let want_average = reference_average(&want);
    let want_all = reference(grid, &pads);
    for threads in [1, 4] {
        let label = format!("{label} @ {threads} threads");
        with_threads(threads, || {
            if pads.len() <= 32 {
                for (pad, want) in pads.iter().zip(&want) {
                    let got = resistance_distances(grid, &[*pad]).expect("pads");
                    assert_eq!(bits(&got), bits(want), "{label}: pad node {pad}");
                }
            }
            let got = resistance_distances(grid, &pads).expect("pads");
            assert_eq!(bits(&got), bits(&want_all), "{label}: all pads at once");
            let got = shortest_path_resistance_per_node(grid).expect("pads");
            assert_eq!(bits(&got), bits(&want_average), "{label}: per-node average");
            let kept = PadDistances::compute(grid).expect("pads");
            assert_eq!(kept.passes().len(), want.len(), "{label}: pass count");
            for (i, (got, want)) in kept.passes().zip(&want).enumerate() {
                assert_eq!(bits(got), bits(want), "{label}: kept pass {i}");
            }
            assert_eq!(
                bits(&kept.per_node()),
                bits(&want_average),
                "{label}: kept per-node average"
            );
        });
    }
}

/// A `side x side` mesh with `pads` pads on its diagonal, every
/// resistance log-uniform over `decades` decades above 10 mOhm (all
/// equal at zero decades, which makes every tie possible).
fn decade_mesh(side: usize, pads: usize, decades: f64, seed: u64) -> PowerGrid {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut src = String::new();
    for p in 0..pads {
        let k = if pads == 1 {
            0
        } else {
            p * (side - 1) / (pads - 1)
        };
        src.push_str(&format!("V{p} n{k}_{k} 0 1.0\n"));
    }
    src.push_str(&format!("I1 n{0}_0 0 1m\n", side - 1));
    let mut r = 0;
    for y in 0..side {
        for x in 0..side {
            for (nx, ny) in [(x + 1, y), (x, y + 1)] {
                if nx < side && ny < side {
                    let ohms = 0.01 * 10f64.powf(decades * rng.random::<f64>());
                    src.push_str(&format!("R{r} n{x}_{y} n{nx}_{ny} {ohms:e}\n"));
                    r += 1;
                }
            }
        }
    }
    irf_pg::grid_from_spice_reader(src.as_bytes()).expect("valid grid")
}

#[test]
fn synthetic_grids_match_the_reference() {
    for (nodes, seed) in [(2_000, 1), (3_000, 2), (5_000, 3)] {
        let grid = synthesize(&SynthSpec::scaled_to_nodes(nodes, seed));
        check(&grid, &format!("scaled_to_nodes({nodes}, {seed})"));
    }
}

#[test]
fn dataset_designs_match_the_reference() {
    let dataset = Dataset::generate(2, 2, 0, 7);
    for design in &dataset.designs {
        check(&design.grid, &design.name);
    }
}

#[test]
fn a_design_past_the_per_pad_limit_takes_the_multi_source_pass() {
    let spec = SynthSpec {
        m1_stripes: 30,
        m2_stripes: 30,
        m4_stripes: 5,
        pads: 40,
        stripe_jitter: 0.1,
        seed: 5,
        ..SynthSpec::default()
    };
    let grid = synthesize(&spec);
    assert!(grid.pads.len() > 32, "{} pads", grid.pads.len());
    assert_eq!(
        PadDistances::compute(&grid).expect("pads").passes().len(),
        1
    );
    check(&grid, "40 pads");
}

#[test]
fn decade_spread_meshes_match_the_reference() {
    for decades in [0.0, 3.0, 6.0] {
        for (pads, seed) in [(1, 1), (5, 2)] {
            let grid = decade_mesh(40, pads, decades, seed);
            check(&grid, &format!("{decades} decades, {pads} pads"));
        }
        // More pads than the per-pad limit: the multi-source pass.
        let grid = decade_mesh(40, 40, decades, 3);
        check(&grid, &format!("{decades} decades, 40 pads"));
    }
}
