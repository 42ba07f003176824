//! Bit-for-bit parity of the AMG setup with the formulation it
//! replaced, kept here as oracles: a sorted strength list per row
//! walked for the first free entry, and a Galerkin product that
//! scatters every mapped fine entry into a bucket array and lets
//! `CsrMatrix::from_bucketed` stable-sort and merge it. One flipped
//! tie, one sum taken in another order or one zero kept changes an
//! `assign` entry or a value bit, and these tests name the level and
//! the array where it happened.

use irf_runtime::Xoshiro256pp;
use std::sync::Arc;

use super::aggregation::{Aggregation, SetupWorkspace};
use super::hierarchy::{AmgHierarchy, AmgParams};
use crate::csr::CsrMatrix;

/// Sizes the optimized run (`cargo test --release -p irf-sparse amg`)
/// scales up by; the dev-profile run stays small.
const SCALE: usize = if cfg!(debug_assertions) { 1 } else { 4 };

/// The strong-connection adjacency of `a` as the setup used to
/// materialise it — for each row, the strong off-diagonal
/// neighbours stably sorted by descending coupling strength `-a_ij`.
pub(crate) fn strength_graph(a: &CsrMatrix, theta: f64) -> Vec<Vec<(usize, f64)>> {
    assert_eq!(a.rows(), a.cols(), "strength graph needs a square matrix");
    (0..a.rows())
        .map(|i| {
            let (cols, vals) = a.row(i);
            let max_neg = cols
                .iter()
                .zip(vals)
                .filter(|&(&c, _)| c != i)
                .map(|(_, &v)| -v)
                .fold(0.0_f64, f64::max);
            let mut neigh: Vec<(usize, f64)> = cols
                .iter()
                .zip(vals)
                .filter(|&(&c, &v)| c != i && -v >= theta * max_neg && v < 0.0)
                .map(|(&c, &v)| (c, -v))
                .collect();
            neigh.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            neigh
        })
        .collect()
}

fn pairwise_oracle(a: &CsrMatrix, theta: f64) -> Aggregation {
    let n = a.rows();
    let graph = strength_graph(a, theta);
    const UNASSIGNED: usize = usize::MAX;
    let mut assign = vec![UNASSIGNED; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| graph[i].len());
    let mut n_coarse = 0;
    for &i in &order {
        if assign[i] != UNASSIGNED {
            continue;
        }
        let partner = graph[i]
            .iter()
            .find(|&&(j, _)| assign[j] == UNASSIGNED)
            .map(|&(j, _)| j);
        assign[i] = n_coarse;
        if let Some(j) = partner {
            assign[j] = n_coarse;
        }
        n_coarse += 1;
    }
    Aggregation { assign, n_coarse }
}

fn galerkin_oracle(a: &CsrMatrix, agg: &Aggregation) -> CsrMatrix {
    assert_eq!(agg.assign.len(), a.rows());
    let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
    let mut offsets = vec![0usize; agg.n_coarse + 1];
    for r in 0..a.rows() {
        offsets[agg.assign[r] + 1] += row_ptr[r + 1] - row_ptr[r];
    }
    for i in 0..agg.n_coarse {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets[..agg.n_coarse].to_vec();
    let mut entries: Vec<(usize, f64)> = vec![(0, 0.0); a.nnz()];
    for r in 0..a.rows() {
        let coarse_r = agg.assign[r];
        for k in row_ptr[r]..row_ptr[r + 1] {
            entries[cursor[coarse_r]] = (agg.assign[col_idx[k]], values[k]);
            cursor[coarse_r] += 1;
        }
    }
    CsrMatrix::from_bucketed(agg.n_coarse, agg.n_coarse, &offsets, entries)
}

fn assert_same_matrix(got: &CsrMatrix, want: &CsrMatrix, what: &str) {
    assert_eq!(got.rows(), want.rows(), "{what}: rows");
    assert_eq!(got.cols(), want.cols(), "{what}: cols");
    assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
    assert_eq!(got.col_idx(), want.col_idx(), "{what}: col_idx");
    let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
    assert_eq!(got.row_chunks(), want.row_chunks(), "{what}: row chunks");
}

/// Walks the setup loop of `AmgHierarchy::build` with the oracles,
/// asserting at every level that one shared workspace yields the same
/// first pairing, intermediate product, second pairing and final
/// product. Returns the oracle's levels.
fn descend(a: &CsrMatrix, params: AmgParams, what: &str) -> Vec<(CsrMatrix, Option<Aggregation>)> {
    let mut ws = SetupWorkspace::default();
    let mut levels = Vec::new();
    let mut current = a.clone();
    while current.rows() > params.coarse_limit && levels.len() + 1 < params.max_levels {
        let at = format!("{what}, level {}", levels.len());
        let first = pairwise_oracle(&current, params.theta);
        assert_eq!(
            ws.pairwise(&current, params.theta),
            first,
            "{at}: 1st pairing"
        );
        let mid = galerkin_oracle(&current, &first);
        assert_same_matrix(
            &ws.galerkin(&current, &first),
            &mid,
            &format!("{at}: intermediate product"),
        );
        let second = pairwise_oracle(&mid, params.theta);
        assert_eq!(ws.pairwise(&mid, params.theta), second, "{at}: 2nd pairing");
        let agg = Aggregation {
            assign: first.assign.iter().map(|&m| second.assign[m]).collect(),
            n_coarse: second.n_coarse,
        };
        assert_eq!(
            ws.double_pairwise(&current, params.theta).0,
            agg,
            "{at}: composed"
        );
        if agg.n_coarse >= current.rows() {
            break;
        }
        let coarse = galerkin_oracle(&current, &agg);
        assert_same_matrix(
            &ws.galerkin(&current, &agg),
            &coarse,
            &format!("{at}: final product"),
        );
        levels.push((current, Some(agg)));
        current = coarse;
    }
    levels.push((current, None));
    levels
}

/// [`descend`] at 1/2/4/8 threads; for an SPD `a` also the built
/// hierarchy, level by level.
fn assert_parity(a: &CsrMatrix, params: AmgParams, spd: bool, what: &str) {
    for threads in [1, 2, 4, 8] {
        irf_runtime::set_num_threads(threads);
        let what = format!("{what}, theta {}, {threads} threads", params.theta);
        let want = descend(a, params, &what);
        if spd {
            let built = AmgHierarchy::build(&Arc::new(a.clone()), params);
            assert_eq!(built.num_levels(), want.len(), "{what}: levels");
            for (l, (got, (a, agg))) in built.levels().iter().zip(&want).enumerate() {
                assert_same_matrix(&got.a, a, &format!("{what}: built level {l}"));
                assert_eq!(
                    got.agg.as_deref(),
                    agg.as_ref(),
                    "{what}: built aggregation {l}"
                );
            }
        }
        irf_runtime::set_num_threads(0);
    }
}

fn params(theta: f64, coarse_limit: usize) -> AmgParams {
    AmgParams {
        theta,
        coarse_limit,
        ..AmgParams::default()
    }
}

/// A `dims`-dimensional 7-point-style Laplacian on a box: every
/// coupling is -1, so every pairing decision is a tie.
fn laplacian(shape: [usize; 3]) -> CsrMatrix {
    let [nx, ny, nz] = shape;
    let idx = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
    let dims = shape.iter().filter(|&&s| s > 1).count();
    let mut t = Vec::new();
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                let i = idx(x, y, z);
                t.push((i, i, 2.0 * dims as f64));
                for (j, inside) in [
                    (idx((x + 1) % nx, y, z), x + 1 < nx),
                    (idx(x, (y + 1) % ny, z), y + 1 < ny),
                    (idx(x, y, (z + 1) % nz), z + 1 < nz),
                ] {
                    if inside {
                        t.push((i, j, -1.0));
                        t.push((j, i, -1.0));
                    }
                }
            }
        }
    }
    CsrMatrix::from_triplets(nx * ny * nz, nx * ny * nz, &t)
}

/// A connected symmetric M-matrix on `n` nodes with about `degree`
/// couplings a row drawn from four weights, so equal couplings — ties —
/// are everywhere; strictly dominant on every seventh row (SPD).
fn tied_m_matrix(n: usize, degree: usize, seed: u64) -> CsrMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let weights = [0.5, 1.0, 1.0, 2.0];
    let mut t = Vec::new();
    let mut diag = vec![0.0; n];
    for i in 0..n {
        for k in 0..degree.div_ceil(2) {
            let j = if k == 0 {
                (i + 1) % n
            } else {
                rng.random_range(0..n)
            };
            if j == i {
                continue;
            }
            let w = weights[rng.random_range(0..weights.len())];
            t.push((i, j, -w));
            t.push((j, i, -w));
            diag[i] += w;
            diag[j] += w;
        }
    }
    for (i, d) in diag.iter().enumerate() {
        t.push((i, i, if i % 7 == 0 { d + 0.25 } else { *d }));
    }
    CsrMatrix::from_triplets(n, n, &t)
}

/// A square matrix straight from CSR arrays, so it can hold what
/// `from_triplets` never stores: explicit `0.0` and `-0.0`, empty rows,
/// a missing diagonal. Each row draws up to `max_len` distinct columns
/// and its values from `pool`.
fn raw_matrix(n: usize, max_len: usize, pool: &[f64], seed: u64) -> CsrMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    for _ in 0..n {
        let len = rng.random_range(0..=max_len.min(n));
        let mut cols: Vec<usize> = (0..len).map(|_| rng.random_range(0..n)).collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            col_idx.push(c);
            values.push(pool[rng.random_range(0..pool.len())]);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_sorted_parts(n, n, row_ptr, col_idx, values)
}

/// Aggregates of one to four rows scattered over `0..n` in no order.
fn scattered_aggregation(n: usize, seed: u64) -> Aggregation {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut rows: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rows.swap(i, rng.random_range(0..=i));
    }
    let mut assign = vec![0; n];
    let (mut n_coarse, mut at) = (0, 0);
    while at < n {
        let size = rng.random_range(1..=4usize).min(n - at);
        for &r in &rows[at..at + size] {
            assign[r] = n_coarse;
        }
        at += size;
        n_coarse += 1;
    }
    Aggregation { assign, n_coarse }
}

#[test]
fn uniform_laplacians_where_every_coupling_ties() {
    for (shape, what) in [
        ([1, 1, 150 * SCALE], "1-D"),
        ([1, 12 * SCALE, 17], "2-D"),
        ([6, 5 * SCALE, 7], "3-D"),
    ] {
        let a = laplacian(shape);
        for theta in [0.0, 0.25, 1.0] {
            assert_parity(&a, params(theta, 8), true, what);
        }
    }
}

#[test]
fn seeded_m_matrices_with_planted_ties() {
    for (n, degree, seed) in [
        (60, 3, 1),
        (150 * SCALE, 4, 2),
        (120 * SCALE, 9, 3),
        (90 * SCALE, 30, 4),
    ] {
        let a = tied_m_matrix(n, degree, seed);
        for theta in [0.0, 0.25, 1.0] {
            let what = format!("n {n}, degree {degree}");
            assert_parity(&a, params(theta, 6), true, &what);
        }
    }
}

/// The three ways a coarse row is put in column order: few columns
/// (`sort_unstable` sorts up to 20 by insertion), many columns that are
/// still a small share of the level (its quicksort), and the plateau
/// rows that touch more than one column in `DENSE_ROW_SHARE` (the stamp
/// scan). This test checks that the hierarchy it descends has rows of
/// each kind before trusting the parity it asserts.
#[test]
fn short_long_and_dense_coarse_rows() {
    let a = tied_m_matrix(1500, 6, 5);
    let levels = descend(&a, params(0.25, 6), "row kinds");
    let mut kinds = [0usize; 3];
    for (m, _) in levels.iter().skip(1) {
        for w in m.row_ptr().windows(2) {
            let len = w[1] - w[0];
            kinds[if 8 * len > m.rows() {
                2
            } else {
                usize::from(len > 20)
            }] += 1;
        }
    }
    assert!(kinds.iter().all(|&k| k >= 10), "{kinds:?}");
    assert_parity(&a, params(0.25, 6), true, "row kinds");
}

#[test]
fn values_an_m_matrix_never_holds() {
    let subnormal = f64::from_bits(1);
    // Quieted by the `0.0 + v` that starts a sum, and by nothing else.
    let signalling = f64::from_bits(0x7ff0_0000_0000_0001);
    let pools: [(&str, &[f64]); 5] = [
        ("positive off-diagonals", &[-1.0, 1.0, 1.0, -2.0, 3.0]),
        ("signed zeros", &[-1.0, -1.0, 0.0, -0.0, -0.0, 2.0, -2.0]),
        (
            "subnormals",
            &[-subnormal, -subnormal, subnormal, -1e-310, -1e-310, -1.0],
        ),
        (
            "infinities",
            &[-1.0, f64::NEG_INFINITY, f64::INFINITY, -2.0],
        ),
        ("a signalling NaN", &[-1.0, signalling, -2.0, 1.0]),
    ];
    for (what, pool) in pools {
        // Non-symmetric patterns, empty rows, rows of only a diagonal
        // or only off-diagonals all occur in `raw_matrix`'s draws.
        for (n, max_len, seed) in [(40, 3, 11), (100 * SCALE, 6, 12), (70 * SCALE, 40, 13)] {
            let a = raw_matrix(n, max_len, pool, seed);
            for theta in [0.0, 0.25, 1.0] {
                assert_parity(&a, params(theta, 4), false, &format!("{what}, n {n}"));
            }
        }
    }
}

#[test]
fn handmade_aggregates_of_one_to_four_scattered_rows() {
    let pool = [-1.0, -1.0, -0.5, 1.0, 0.5, -0.0, 2.0];
    for (n, max_len, seed) in [(9, 4, 21), (130 * SCALE, 7, 22), (80 * SCALE, 60, 23)] {
        let a = raw_matrix(n, max_len, &pool, seed);
        let agg = scattered_aggregation(n, seed + 100);
        let sizes = agg.aggregate_sizes();
        assert!(sizes.iter().all(|&s| (1..=4).contains(&s)));
        let want = galerkin_oracle(&a, &agg);
        // A workspace that has seen another matrix first: stale stamps
        // and longer buffers must not leak into this product.
        let mut ws = SetupWorkspace::default();
        let other = raw_matrix(2 * n, max_len, &pool, seed + 200);
        let _ = ws.galerkin(&other, &scattered_aggregation(2 * n, seed + 300));
        for threads in [1, 2, 4, 8] {
            irf_runtime::set_num_threads(threads);
            let what = format!("n {n}, {threads} threads");
            assert_same_matrix(&ws.galerkin(&a, &agg), &want, &what);
            assert_same_matrix(&super::hierarchy::galerkin_coarse(&a, &agg), &want, &what);
            irf_runtime::set_num_threads(0);
        }
    }
}

#[test]
fn sums_that_cancel_to_zero_are_not_stored() {
    // Coarse (0, 1) = 1 - 1 + 0.5 - 0.5 and coarse (1, 0) = -0.0 + 0.0:
    // both exactly zero, so the product is diagonal.
    let a = CsrMatrix::from_sorted_parts(
        4,
        4,
        vec![0, 3, 6, 8, 10],
        vec![0, 2, 3, 1, 2, 3, 0, 2, 1, 3],
        vec![2.0, 1.0, -1.0, 3.0, 0.5, -0.5, -0.0, 4.0, 0.0, 5.0],
    );
    let agg = Aggregation {
        assign: vec![0, 0, 1, 1],
        n_coarse: 2,
    };
    let want = galerkin_oracle(&a, &agg);
    assert_eq!(want.col_idx(), [0, 1]);
    assert_eq!(want.values(), [5.0, 9.0]);
    assert_same_matrix(
        &super::hierarchy::galerkin_coarse(&a, &agg),
        &want,
        "cancel",
    );
    // Whole levels of it: +w and -w couplings meet in most aggregates.
    let pool = [1.0, -1.0, 1.0, -1.0, 0.5, -0.5];
    for seed in 31..35 {
        let a = raw_matrix(60 * SCALE, 12, &pool, seed);
        let levels = descend(&a, params(0.25, 4), "cancel");
        assert!(levels.len() > 1);
        assert_parity(&a, params(0.25, 4), false, "cancel");
    }
}

#[test]
fn one_row_and_one_row_past_the_coarse_limit() {
    let one = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]);
    assert_parity(&one, params(0.25, 64), true, "1x1");
    assert_parity(&one, params(0.25, 0), true, "1x1, limit 0");
    let limit = AmgParams::default().coarse_limit;
    for (n, levels) in [(limit, 1), (limit + 1, 2)] {
        let a = laplacian([1, 1, n]);
        assert_parity(&a, AmgParams::default(), true, &format!("{n} rows"));
        assert_eq!(
            AmgHierarchy::build(&Arc::new(a), AmgParams::default()).num_levels(),
            levels
        );
    }
    // `max_levels` ends the descent before the size does.
    let capped = AmgParams {
        max_levels: 2,
        ..params(0.25, 4)
    };
    assert_parity(&laplacian([1, 20, 20]), capped, true, "max_levels 2");
}
