//! A rebuilt AMG setup against a cold one, bit for bit. Every edit of a
//! seeded two-layer grid is set up twice — rebuilt from its base with
//! [`Solver::rebuild_from`] and cold with [`Solver::prepare`] — and
//! the two must agree at every level: aggregation, first pairing,
//! operator (row pointers, columns, value bits, row chunks), smoother
//! diagonal, the coarse factor and a solve. Each way a rebuild refuses
//! to carry a level over is forced at least once, so every fallback
//! runs too.

use irf_runtime::Xoshiro256pp;
use std::sync::Arc;

use super::aggregation::{Refusal, SetupWorkspace};
use super::hierarchy::{AmgHierarchy, Rebuild};
use crate::csr::CsrMatrix;
use crate::solver::{Solver, SolverKind, SolverSetup};

/// Grid sides the optimized run (`cargo test --release -p irf-sparse
/// amg`) scales up by; the dev-profile run stays small.
const SCALE: usize = if cfg!(debug_assertions) { 1 } else { 3 };

/// A two-layer power grid on an `n x n` site array: horizontal straps
/// on layer 0, vertical straps on layer 1, vias where `(x + y) % 3 ==
/// 0` and all along the first strap (which joins every strap to every
/// other), and pads to ground on a coarse lattice of layer-1 sites.
/// Conductances come from a few values, so couplings tie everywhere.
#[derive(Clone)]
struct Grid {
    n: usize,
    /// `(a, b, conductance)` per resistor.
    edges: Vec<(usize, usize, f64)>,
    /// `(node, conductance)` per pad.
    pads: Vec<(usize, f64)>,
}

/// Which resistors an edit scales.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// One resistor.
    Segment(usize),
    /// Every resistor of one layer-0 strap.
    Strap(usize),
    /// Every via in the sites `x` in `lo..hi`.
    Vias(usize, usize),
}

impl Grid {
    fn new(n: usize, seed: u64) -> Grid {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let node = |layer: usize, x: usize, y: usize| (layer * n + y) * n + x;
        let weights = [1.0, 1.0, 2.0, 0.5];
        let mut edges = Vec::new();
        for y in 0..n {
            for x in 0..n {
                let mut draw = |scale: f64| scale * weights[rng.random_range(0..weights.len())];
                if x + 1 < n {
                    edges.push((node(0, x, y), node(0, x + 1, y), draw(1.0)));
                }
                if y + 1 < n {
                    edges.push((node(1, x, y), node(1, x, y + 1), draw(1.5)));
                }
                if (x + y) % 3 == 0 || y == 0 {
                    edges.push((node(0, x, y), node(1, x, y), draw(4.0)));
                }
            }
        }
        let pads = (0..n)
            .step_by(7)
            .flat_map(|y| (0..n).step_by(7).map(move |x| (node(1, x, y), 20.0)))
            .collect();
        Grid { n, edges, pads }
    }

    fn nodes(&self) -> usize {
        2 * self.n * self.n
    }

    fn matrix(&self) -> CsrMatrix {
        let mut t = Vec::new();
        for &(a, b, g) in &self.edges {
            t.extend([(a, a, g), (b, b, g), (a, b, -g), (b, a, -g)]);
        }
        t.extend(self.pads.iter().map(|&(p, g)| (p, p, g)));
        CsrMatrix::from_triplets(self.nodes(), self.nodes(), &t)
    }

    /// The resistors `edit` names.
    fn members(&self, edit: Edit) -> Vec<usize> {
        let n = self.n;
        let layer_of = |v: usize| v / (n * n);
        let (x_of, y_of) = (|v: usize| v % n, |v: usize| (v / n) % n);
        (0..self.edges.len())
            .filter(|&e| {
                let (a, b, _) = self.edges[e];
                match edit {
                    Edit::Segment(s) => e == s,
                    Edit::Strap(y) => layer_of(a) == 0 && layer_of(b) == 0 && y_of(a) == y,
                    Edit::Vias(lo, hi) => layer_of(a) != layer_of(b) && (lo..hi).contains(&x_of(a)),
                }
            })
            .collect()
    }

    /// This grid with every resistor of `edits` scaled by its factor.
    fn edited(&self, edits: &[(Edit, f64)]) -> Grid {
        let mut grid = self.clone();
        for &(edit, factor) in edits {
            for e in self.members(edit) {
                grid.edges[e].2 *= factor;
            }
        }
        grid
    }

    /// A seeded batch: a few segments, a strap or a via block, or all
    /// three, each scaled the way a sizing edit would.
    fn random_edits(&self, rng: &mut Xoshiro256pp) -> Vec<(Edit, f64)> {
        const FACTORS: [f64; 5] = [0.5, 0.8, 1.25, 2.0, 0.1];
        let factor = |rng: &mut Xoshiro256pp| FACTORS[rng.random_range(0..FACTORS.len())];
        let mut edits = Vec::new();
        let shape = rng.random_range(0..4usize);
        if shape != 1 {
            for _ in 0..rng.random_range(1..=8usize) {
                let segment = Edit::Segment(rng.random_range(0..self.edges.len()));
                edits.push((segment, factor(rng)));
            }
        }
        if shape == 1 || shape == 3 {
            edits.push((Edit::Strap(rng.random_range(0..self.n)), factor(rng)));
        }
        if shape == 2 || shape == 3 {
            let lo = rng.random_range(0..self.n);
            edits.push((Edit::Vias(lo, lo + 1 + self.n / 8), factor(rng)));
        }
        edits
    }
}

fn assert_same_matrix(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
    assert_eq!(got.rows(), want.rows(), "{what}: rows");
    assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
    assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
    assert_eq!(got.row_chunks(), want.row_chunks(), "{what}: row chunks");
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every level, the smoother diagonals, the coarse factor and a solve
/// of `got` equal `want`'s, bit for bit.
fn assert_same_setup(got: &SolverSetup, want: &SolverSetup, a: &CsrMatrix, what: &str) {
    let (g, w) = (got.amg_core().expect("AMG"), want.amg_core().expect("AMG"));
    let (gh, wh) = (g.hierarchy(), w.hierarchy());
    assert_eq!(gh.num_levels(), wh.num_levels(), "{what}: levels");
    for (l, (gl, wl)) in gh.levels().iter().zip(wh.levels()).enumerate() {
        assert_same_matrix(&gl.a, &wl.a, &format!("{what}, level {l}"));
        assert_eq!(gl.agg, wl.agg, "{what}, level {l}: aggregation");
        assert_eq!(gl.first, wl.first, "{what}, level {l}: first pairing");
    }
    let (gd, wd) = (g.smoother_diagonals(), w.smoother_diagonals());
    assert_eq!(gd.len(), wd.len(), "{what}: smoother diagonals");
    for (l, (gd, wd)) in gd.iter().zip(wd).enumerate() {
        assert_eq!(bits(gd), bits(wd), "{what}, level {l}: smoother diagonal");
    }
    assert_eq!(
        bits(gh.coarse_factor()),
        bits(wh.coarse_factor()),
        "{what}: coarse factor"
    );
    let b: Vec<f64> = (0..a.rows()).map(|i| 1e-3 * (1 + i % 5) as f64).collect();
    let (gs, ws) = (got.solve(a, &b), want.solve(a, &b));
    assert_eq!(bits(&gs.x), bits(&ws.x), "{what}: solve");
    assert_eq!(gs.iterations, ws.iterations, "{what}: iterations");
}

fn solver() -> Solver {
    Solver::new(SolverKind::AmgPcg)
        .with_tolerance(1e-10)
        .with_max_iterations(6)
}

/// Rebuilds `a` from `base`, checks it against a cold setup of `a`,
/// and returns it with how the rebuild went.
fn rebuild_and_check(base: &SolverSetup, a: &Arc<CsrMatrix>, what: &str) -> (SolverSetup, Rebuild) {
    let base_h = base.amg_hierarchy().expect("AMG");
    let (_, outcome) = AmgHierarchy::rebuild_in(base_h, a, &mut SetupWorkspace::default());
    let rebuilt = solver().rebuild_from(base, a);
    assert_same_setup(&rebuilt, &solver().prepare(a), a, what);
    (rebuilt, outcome)
}

/// Runs `f` at 1 and at 4 threads.
fn at_1_and_4_threads(mut f: impl FnMut(usize)) {
    for threads in [1, 4] {
        irf_runtime::set_num_threads(threads);
        f(threads);
        irf_runtime::set_num_threads(0);
    }
}

#[test]
fn seeded_edits_rebuild_to_the_cold_setup() {
    at_1_and_4_threads(|threads| {
        for seed in 1..=3u64 {
            let grid = Grid::new(20 * SCALE, seed);
            let base = solver().prepare(&Arc::new(grid.matrix()));
            let mut rng = Xoshiro256pp::seed_from_u64(seed + 100);
            for k in 0..24 {
                let edits = grid.random_edits(&mut rng);
                let a = Arc::new(grid.edited(&edits).matrix());
                let what = format!("seed {seed}, edit {k} {edits:?}, {threads} threads");
                rebuild_and_check(&base, &a, &what);
            }
        }
    });
}

/// How a rebuild ended, in the terms the fallbacks are told apart by.
fn ending(rebuild: &Rebuild) -> &'static str {
    match rebuild.fallback {
        None => "carried whole",
        Some((0, Refusal::Choice)) => "choice at level 0",
        Some((_, Refusal::Choice)) => "choice below level 0",
        Some((_, refusal)) => refusal.label(),
    }
}

/// Walks single-resistor edits of one grid in a fixed order until it
/// has met each way a rebuild can end on a same-pattern edit (other
/// than a cancelling sum, which has its own test), then checks the
/// first edit of each against a cold setup.
#[test]
fn every_fallback_is_forced_and_still_the_cold_setup() {
    const WANTED: [&str; 4] = [
        "carried whole",
        "degree",
        "choice at level 0",
        "choice below level 0",
    ];
    let grid = Grid::new(24 * SCALE, 11);
    let base = solver().prepare(&Arc::new(grid.matrix()));
    let base_h = base.amg_hierarchy().expect("AMG");
    let mut found: Vec<(&str, Arc<CsrMatrix>)> = Vec::new();
    let edits = (0..grid.edges.len())
        .step_by(3)
        .flat_map(|e| [2.0, 0.5, 0.1, 1.25].map(|factor| [(Edit::Segment(e), factor)]));
    for edit in edits {
        let a = Arc::new(grid.edited(&edit).matrix());
        let (_, rebuild) = AmgHierarchy::rebuild_in(base_h, &a, &mut SetupWorkspace::default());
        let end = ending(&rebuild);
        if WANTED.contains(&end) && found.iter().all(|(seen, _)| *seen != end) {
            found.push((end, a));
        }
        if found.len() == WANTED.len() {
            break;
        }
    }
    let ends: Vec<&str> = found.iter().map(|(end, _)| *end).collect();
    assert_eq!(ends.len(), WANTED.len(), "only met {ends:?}");
    at_1_and_4_threads(|threads| {
        for (end, a) in &found {
            rebuild_and_check(&base, a, &format!("{end}, {threads} threads"));
        }
    });
}

#[test]
fn a_rebuild_from_a_rebuilt_setup_is_still_the_cold_setup() {
    at_1_and_4_threads(|threads| {
        let grid = Grid::new(16 * SCALE, 7);
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        let mut setup = solver().prepare(&Arc::new(grid.matrix()));
        let mut edited = grid.clone();
        for k in 0..12 {
            edited = edited.edited(&grid.random_edits(&mut rng));
            let a = Arc::new(edited.matrix());
            let what = format!("chain step {k}, {threads} threads");
            setup = rebuild_and_check(&setup, &a, &what).0;
        }
    });
}

/// A weak coupling never steers a pairing, so an edit of weak couplings
/// alone passes every pairing check; here two of them meet in one
/// coarse entry and cancel to exactly zero, which drops the entry from
/// the cold product and must refuse the base's coarse pattern.
#[test]
fn a_coarse_sum_that_cancels_to_zero_refuses_the_pattern() {
    let grid = Grid::new(12 * SCALE, 3);
    let plain = AmgHierarchy::build(&Arc::new(grid.matrix()), Default::default());
    let agg = plain.levels()[0].agg.as_deref().expect("a coarse level");
    // `i` and `i2` share an aggregate; `j` is far from both.
    let i = grid.n + 1;
    let i2 = (0..grid.nodes())
        .find(|&r| r != i && agg.assign[r] == agg.assign[i])
        .expect("a pair");
    let j = grid.nodes() - 2;
    let w = 1e-4;
    let mut linked = grid.clone();
    linked.edges.extend([(i, j, w), (i2, j, w)]);
    let base_matrix = linked.matrix();
    let base = solver().prepare(&Arc::new(base_matrix.clone()));
    let base_agg = base.amg_hierarchy().expect("AMG").levels()[0].agg.clone();
    assert_eq!(
        base_agg.as_deref(),
        Some(agg),
        "weak links moved the pairing"
    );
    // The same pattern with the (i2, j) coupling flipped to +w.
    let mut values = base_matrix.values().to_vec();
    for (r, c) in [(i2, j), (j, i2)] {
        let at = base_matrix.row_ptr()[r] + base_matrix.row(r).0.binary_search(&c).unwrap();
        values[at] = w;
    }
    let (rows, pattern) = (base_matrix.rows(), &base_matrix);
    let cancelled = CsrMatrix::from_sorted_parts(
        rows,
        rows,
        pattern.row_ptr().to_vec(),
        pattern.col_idx().to_vec(),
        values,
    );
    at_1_and_4_threads(|threads| {
        let what = format!("cancel, {threads} threads");
        let (_, outcome) = rebuild_and_check(&base, &Arc::new(cancelled.clone()), &what);
        assert_eq!(outcome.fallback, Some((0, Refusal::Pattern)), "{what}");
    });
}

#[test]
fn another_pattern_kind_or_parameter_set_up_cold() {
    let grid = Grid::new(10 * SCALE, 5);
    let a = Arc::new(grid.matrix());
    let smaller = Arc::new(Grid::new(8 * SCALE, 5).matrix());
    let other_params = solver().with_amg_params(super::AmgParams {
        theta: 0.5,
        ..Default::default()
    });
    let cold = solver().prepare(&a);
    for (base, what) in [
        (solver().prepare(&smaller), "another pattern"),
        (other_params.prepare(&a), "other params"),
        (
            Solver::new(SolverKind::AmgPcgVCycle).prepare(&a),
            "other cycle",
        ),
        (
            Solver::new(SolverKind::Cholesky).prepare(&a),
            "another kind",
        ),
    ] {
        assert_same_setup(&solver().rebuild_from(&base, &a), &cold, &a, what);
    }
    let (_, outcome) = AmgHierarchy::rebuild_in(
        solver().prepare(&smaller).amg_hierarchy().expect("AMG"),
        &a,
        &mut SetupWorkspace::default(),
    );
    assert_eq!(outcome.fallback, Some((0, Refusal::Shape)));
    // An unedited matrix reuses every level and shares each one.
    let (same, outcome) = rebuild_and_check(&cold, &a, "unedited");
    let n_levels = cold.amg_hierarchy().unwrap().num_levels();
    assert_eq!((outcome.reused_levels, outcome.fallback), (n_levels, None));
    let levels = |s: &SolverSetup| s.amg_hierarchy().unwrap().levels().to_vec();
    for (got, base) in levels(&same).iter().zip(&levels(&cold)) {
        assert!(Arc::ptr_eq(&got.a, &base.a));
    }
}
