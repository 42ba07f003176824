//! Bitwise parity of the AVX2 kernels against the scalar path.
//!
//! Only meaningful with `--features simd`; compiles to nothing
//! otherwise. Each test computes the scalar result (vector path
//! force-disabled via `irf_runtime::simd::set_disabled`, which leaves
//! the safe-Rust row-group kernel every build ships) and the SIMD
//! result in the same process and asserts f64 **bit** equality at
//! 1/2/4/8 threads.
#![cfg(feature = "simd")]

use irf_sparse::{smoother, CsrMatrix};
use std::sync::Mutex;

/// The SIMD kill-switch and thread count are process globals; tests
/// that flip them must not interleave.
static GLOBALS: Mutex<()> = Mutex::new(());

fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
    GLOBALS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic pseudo-random 2-D grid Laplacian with jittered
/// conductances — row lengths 3..5, the shape MNA produces.
fn grid_matrix(nx: usize, ny: usize, seed: u64) -> CsrMatrix {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
    let n = nx * ny;
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    let idx = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            let mut diag = 1e-3 + rng.random::<f64>();
            let mut link = |t: &mut Vec<(usize, usize, f64)>, j: usize, g: f64| {
                t.push((i, j, -g));
                diag += g;
            };
            if x + 1 < nx {
                link(&mut t, idx(x + 1, y), 0.5 + rng.random::<f64>());
            }
            if x > 0 {
                link(&mut t, idx(x - 1, y), 0.25 + rng.random::<f64>());
            }
            if y + 1 < ny {
                link(&mut t, idx(x, y + 1), 0.75 + rng.random::<f64>());
            }
            if y > 0 {
                link(&mut t, idx(x, y - 1), 1.0 + rng.random::<f64>());
            }
            t.push((i, i, diag));
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
    (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn spmv_simd_is_bitwise_identical_to_scalar_at_any_thread_count() {
    let _g = lock_globals();
    // Big enough for several nnz-balanced chunks plus a ragged tail.
    let a = grid_matrix(97, 53, 0xABCD);
    let x = rand_vec(a.cols(), 7);

    irf_runtime::simd::set_disabled(true);
    irf_runtime::set_num_threads(1);
    let scalar = a.spmv(&x);
    irf_runtime::simd::set_disabled(false);

    if !irf_runtime::simd::enabled() {
        eprintln!("skipping: AVX2 unavailable at runtime");
        return;
    }
    for threads in [1usize, 2, 4, 8] {
        irf_runtime::set_num_threads(threads);
        let simd = a.spmv(&x);
        assert_eq!(
            bits(&scalar),
            bits(&simd),
            "spmv diverged at {threads} threads"
        );
    }
    assert!(a.simd_plan_built());
    irf_runtime::set_num_threads(1);
}

#[test]
fn residual_simd_is_bitwise_identical_to_scalar() {
    let _g = lock_globals();
    let a = grid_matrix(61, 41, 0x5EED);
    let x = rand_vec(a.cols(), 11);
    let b = rand_vec(a.rows(), 13);
    let mut scalar = vec![0.0; a.rows()];
    let mut simd = vec![0.0; a.rows()];

    irf_runtime::simd::set_disabled(true);
    irf_runtime::set_num_threads(1);
    a.residual_into(&b, &x, &mut scalar);
    irf_runtime::simd::set_disabled(false);

    if !irf_runtime::simd::enabled() {
        eprintln!("skipping: AVX2 unavailable at runtime");
        return;
    }
    for threads in [1usize, 2, 4, 8] {
        irf_runtime::set_num_threads(threads);
        a.residual_into(&b, &x, &mut simd);
        assert_eq!(
            bits(&scalar),
            bits(&simd),
            "residual diverged at {threads} threads"
        );
    }
    irf_runtime::set_num_threads(1);
}

/// Rows of 0, 1, 2, 3, 5, 64 and 200 non-zeros mixed, so SELL groups
/// pad short rows against long ones and the row-group kernel runs
/// long tails; some values subnormal.
fn ragged_matrix(rows: usize, seed: u64) -> CsrMatrix {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
    let cols = 263;
    let lengths = [0usize, 1, 2, 3, 5, 64, 200];
    let mut t: Vec<(usize, usize, f64)> = Vec::new();
    for r in 0..rows {
        let len = lengths[(rng.next_u64() % lengths.len() as u64) as usize];
        let start = (rng.next_u64() % (cols - len + 1) as u64) as usize;
        for c in start..start + len {
            let v = if rng.next_u64().is_multiple_of(16) {
                -4.0e-310
            } else {
                rng.random::<f64>() * 4.0 - 2.0
            };
            t.push((r, c, v));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &t)
}

/// Ordinary values salted with `0.0`, `-0.0` and a subnormal.
fn salted_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| match rng.next_u64() % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => 2.0e-311,
            _ => rng.random::<f64>() * 2.0 - 1.0,
        })
        .collect()
}

#[test]
fn ragged_rows_agree_between_reference_row_group_and_simd_kernels() {
    let _g = lock_globals();
    // 97 rows: several chunks, none a multiple of four; 3 and 1 rows:
    // shorter than one SELL group.
    for (rows, seed) in [(97usize, 0xA1u64), (3, 0xA2), (1, 0xA3)] {
        let a = ragged_matrix(rows, seed);
        let x = salted_vec(a.cols(), seed + 0x10);
        let b = salted_vec(a.rows(), seed + 0x20);
        let mut want_y = vec![0.0; rows];
        let mut want_r = vec![0.0; rows];
        a.rows_into_reference(&x, None, &mut want_y);
        a.rows_into_reference(&x, Some(&b), &mut want_r);

        let mut y = vec![0.0; rows];
        let mut r = vec![0.0; rows];
        irf_runtime::simd::set_disabled(true);
        irf_runtime::set_num_threads(1);
        a.spmv_into(&x, &mut y);
        a.residual_into(&b, &x, &mut r);
        irf_runtime::simd::set_disabled(false);
        assert_eq!(bits(&want_y), bits(&y), "{rows} rows: row-group spmv");
        assert_eq!(bits(&want_r), bits(&r), "{rows} rows: row-group residual");

        if !irf_runtime::simd::enabled() {
            eprintln!("skipping: AVX2 unavailable at runtime");
            return;
        }
        for threads in [1usize, 2, 4, 8] {
            irf_runtime::set_num_threads(threads);
            a.spmv_into(&x, &mut y);
            a.residual_into(&b, &x, &mut r);
            assert_eq!(bits(&want_y), bits(&y), "{rows} rows: simd spmv, {threads}");
            assert_eq!(
                bits(&want_r),
                bits(&r),
                "{rows} rows: simd residual, {threads}"
            );
        }
        assert!(a.simd_plan_built());
    }
    irf_runtime::set_num_threads(1);
}

#[test]
fn l1_jacobi_simd_is_bitwise_identical_to_scalar() {
    let _g = lock_globals();
    let a = grid_matrix(71, 67, 0xF00D);
    let b = rand_vec(a.rows(), 17);

    irf_runtime::simd::set_disabled(true);
    irf_runtime::set_num_threads(1);
    let mut scalar = vec![0.0; a.rows()];
    smoother::l1_jacobi(&a, &b, &mut scalar, 4);
    irf_runtime::simd::set_disabled(false);

    if !irf_runtime::simd::enabled() {
        eprintln!("skipping: AVX2 unavailable at runtime");
        return;
    }
    for threads in [1usize, 2, 4, 8] {
        irf_runtime::set_num_threads(threads);
        let mut simd = vec![0.0; a.rows()];
        smoother::l1_jacobi(&a, &b, &mut simd, 4);
        assert_eq!(
            bits(&scalar),
            bits(&simd),
            "l1-jacobi diverged at {threads} threads"
        );
    }
    irf_runtime::set_num_threads(1);
}

#[test]
fn pattern_rebuild_does_not_reuse_stale_plan() {
    let _g = lock_globals();
    let t1 = [(0usize, 0usize, 2.0f64), (0, 1, -1.0), (1, 1, 3.0)];
    let base = CsrMatrix::from_triplets(2, 2, &t1);
    // Materialise the plan on `base`.
    let _ = base.spmv(&[1.0, 1.0]);
    let t2: Vec<_> = t1.iter().map(|&(r, c, v)| (r, c, v * 2.0)).collect();
    let rebuilt = CsrMatrix::from_triplets_with_pattern(&base, &t2).expect("same pattern");
    assert!(!rebuilt.simd_plan_built(), "rebuild must start plan-less");
    let y = rebuilt.spmv(&[1.0, 1.0]);
    assert_eq!(y, vec![2.0, 6.0]);
}
