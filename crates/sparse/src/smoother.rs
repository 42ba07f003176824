//! Stationary smoothers used inside the AMG cycles.

use crate::csr::CsrMatrix;

/// Which stationary smoother an AMG level applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SmootherKind {
    /// Damped (weighted) Jacobi; robust and cheap.
    #[default]
    Jacobi,
    /// ℓ1-Jacobi: Jacobi scaled by `a_ii + Σ_{j≠i} |a_ij|`. Always
    /// convergent for SPD matrices without damping, and — like plain
    /// Jacobi — embarrassingly parallel, unlike Gauss-Seidel.
    L1Jacobi,
    /// Forward Gauss-Seidel sweep.
    GaussSeidel,
    /// Symmetric Gauss-Seidel (forward then backward sweep) — keeps the
    /// preconditioner symmetric, as PCG requires.
    SymmetricGaussSeidel,
}

/// Performs `sweeps` damped-Jacobi iterations on `A x = b` in place.
///
/// `omega` is the damping factor; `2/3` is the classic choice for
/// Laplacian-like operators.
///
/// # Panics
///
/// Panics if dimensions mismatch or a diagonal entry is zero.
pub fn jacobi(a: &CsrMatrix, b: &[f64], x: &mut [f64], omega: f64, sweeps: usize) {
    let diag = a.diagonal();
    let mut r = vec![0.0; a.rows()];
    scaled_sweeps(a, b, x, omega, sweeps, &diag, &mut r);
}

/// Performs `sweeps` ℓ1-Jacobi iterations on `A x = b` in place: the
/// update is scaled by `d_i = a_ii + Σ_{j≠i} |a_ij|`, which makes the
/// iteration unconditionally convergent for SPD `A` (no damping factor
/// to tune) while remaining fully parallel across rows.
///
/// # Panics
///
/// Panics if dimensions mismatch or an ℓ1 diagonal entry is zero.
pub fn l1_jacobi(a: &CsrMatrix, b: &[f64], x: &mut [f64], sweeps: usize) {
    let diag = l1_diagonal(a);
    let mut r = vec![0.0; a.rows()];
    scaled_sweeps(a, b, x, 1.0, sweeps, &diag, &mut r);
}

/// The ℓ1 smoothing diagonal `d_i = a_ii + Σ_{j≠i} |a_ij|`.
#[must_use]
pub fn l1_diagonal(a: &CsrMatrix) -> Vec<f64> {
    let mut d = vec![0.0; a.rows()];
    irf_runtime::par_chunks_mut(&mut d, SWEEP_CHUNK, |ci, dc| {
        let base = ci * SWEEP_CHUNK;
        for (i, di) in dc.iter_mut().enumerate() {
            *di = l1_diagonal_entry(a, base + i);
        }
    });
    d
}

/// Row `row`'s entry of [`l1_diagonal`].
#[inline]
pub(crate) fn l1_diagonal_entry(a: &CsrMatrix, row: usize) -> f64 {
    let (cols, vals) = a.row(row);
    let mut acc = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        acc += if c == row { v } else { v.abs() };
    }
    acc
}

/// Rows per parallel work unit in diagonal-scaled sweeps. Fixed so that
/// partitioning never affects results.
const SWEEP_CHUNK: usize = 2048;

/// Shared kernel for Jacobi-family smoothers: `sweeps` iterations of
/// `x += omega * D^{-1} (b - A x)` with a caller-provided diagonal
/// `diag` and residual scratch buffer `r`. Exposed so AMG cycles can
/// reuse buffers across iterations instead of reallocating.
///
/// # Panics
///
/// Panics if dimensions mismatch or — checked once per call, before
/// the first sweep, not per element — a diagonal entry is zero.
pub fn scaled_sweeps(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    omega: f64,
    sweeps: usize,
    diag: &[f64],
    r: &mut [f64],
) {
    if sweeps > 0 {
        assert_nonzero_diagonal(diag);
    }
    sweeps_on_checked_diagonal(a, b, x, omega, sweeps, diag, r);
}

/// Panics with the first zero entry of a smoothing diagonal. The
/// sweeps divide by every entry, so the check is made once up front —
/// by [`scaled_sweeps`] per call, by an AMG cycle once at setup —
/// where it does not keep the update loop from vectorising.
pub(crate) fn assert_nonzero_diagonal(diag: &[f64]) {
    if let Some(row) = diag.iter().position(|&d| d == 0.0) {
        panic!("jacobi: zero diagonal at row {row}");
    }
}

/// One Jacobi-family sweep from the zero vector, `x_i = 0.0 + omega *
/// b_i / d_i`, without a pass over the matrix. The incoming `x` is
/// not read. This is the one special case of a cycle's pre-smoother,
/// and it has the bits of the general sweep on a zeroed `x`:
/// `r = b - A·0` has the bits of `b` (zero absorption: the docs of
/// `CsrMatrix::rows_into`), and the `0.0 +` keeps the `+0.0` that
/// `x_i += ...` leaves where the quotient is `-0.0`. `diag` has been
/// through [`assert_nonzero_diagonal`].
pub(crate) fn sweep_from_zero(b: &[f64], x: &mut [f64], omega: f64, diag: &[f64]) {
    assert_eq!(b.len(), x.len());
    assert_eq!(diag.len(), x.len());
    irf_runtime::par_chunks_mut(x, SWEEP_CHUNK, |ci, xc| {
        let base = ci * SWEEP_CHUNK;
        let (bc, dc) = (&b[base..base + xc.len()], &diag[base..base + xc.len()]);
        for ((xi, bi), di) in xc.iter_mut().zip(bc).zip(dc) {
            *xi = 0.0 + omega * bi / di;
        }
    });
}

/// [`scaled_sweeps`] on a diagonal the caller has already put through
/// [`assert_nonzero_diagonal`].
pub(crate) fn sweeps_on_checked_diagonal(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    omega: f64,
    sweeps: usize,
    diag: &[f64],
    r: &mut [f64],
) {
    let n = a.rows();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    assert_eq!(diag.len(), n);
    assert_eq!(r.len(), n);
    for _ in 0..sweeps {
        a.residual_into(b, x, r);
        let r = &*r;
        irf_runtime::par_chunks_mut(x, SWEEP_CHUNK, |ci, xc| {
            let base = ci * SWEEP_CHUNK;
            let (rc, dc) = (&r[base..base + xc.len()], &diag[base..base + xc.len()]);
            for ((xi, ri), di) in xc.iter_mut().zip(rc).zip(dc) {
                *xi += omega * ri / di;
            }
        });
    }
}

/// Performs `sweeps` forward Gauss-Seidel iterations on `A x = b`.
///
/// # Panics
///
/// Panics if dimensions mismatch or a diagonal entry is zero.
pub fn gauss_seidel(a: &CsrMatrix, b: &[f64], x: &mut [f64], sweeps: usize) {
    gs_directed(a, b, x, sweeps, false);
}

/// Performs `sweeps` symmetric Gauss-Seidel iterations (forward then
/// backward). The resulting error propagator is symmetric, so this is
/// safe inside an SPD preconditioner.
///
/// # Panics
///
/// Panics if dimensions mismatch or a diagonal entry is zero.
pub fn symmetric_gauss_seidel(a: &CsrMatrix, b: &[f64], x: &mut [f64], sweeps: usize) {
    for _ in 0..sweeps {
        gs_directed(a, b, x, 1, false);
        gs_directed(a, b, x, 1, true);
    }
}

fn gs_directed(a: &CsrMatrix, b: &[f64], x: &mut [f64], sweeps: usize, backward: bool) {
    let n = a.rows();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    for _ in 0..sweeps {
        if backward {
            for i in (0..n).rev() {
                gs_relax_row(a, b, x, i);
            }
        } else {
            for i in 0..n {
                gs_relax_row(a, b, x, i);
            }
        }
    }
}

/// One Gauss-Seidel relaxation: solves row `i` for `x[i]` against the
/// current values of its neighbours.
#[inline]
fn gs_relax_row(a: &CsrMatrix, b: &[f64], x: &mut [f64], i: usize) {
    let (cols, vals) = a.row(i);
    let mut sigma = 0.0;
    let mut diag = 0.0;
    for (&c, &v) in cols.iter().zip(vals) {
        if c == i {
            diag = v;
        } else {
            sigma += v * x[c];
        }
    }
    assert!(diag != 0.0, "gauss-seidel: zero diagonal at row {i}");
    x[i] = (b[i] - sigma) / diag;
}

/// Applies the chosen smoother for `sweeps` sweeps.
pub fn smooth(kind: SmootherKind, a: &CsrMatrix, b: &[f64], x: &mut [f64], sweeps: usize) {
    match kind {
        SmootherKind::Jacobi => jacobi(a, b, x, 2.0 / 3.0, sweeps),
        SmootherKind::L1Jacobi => l1_jacobi(a, b, x, sweeps),
        SmootherKind::GaussSeidel => gauss_seidel(a, b, x, sweeps),
        SmootherKind::SymmetricGaussSeidel => symmetric_gauss_seidel(a, b, x, sweeps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::norm2;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    fn rel_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.residual_into(b, x, &mut r);
        norm2(&r) / norm2(b)
    }

    #[test]
    fn jacobi_reduces_residual() {
        let a = laplacian_1d(20);
        let b = vec![1.0; 20];
        let mut x = vec![0.0; 20];
        let before = rel_residual(&a, &b, &x);
        jacobi(&a, &b, &mut x, 2.0 / 3.0, 10);
        assert!(rel_residual(&a, &b, &x) < before);
    }

    #[test]
    fn l1_jacobi_reduces_residual_without_damping() {
        let a = laplacian_1d(20);
        let b = vec![1.0; 20];
        let mut x = vec![0.0; 20];
        let before = rel_residual(&a, &b, &x);
        l1_jacobi(&a, &b, &mut x, 500);
        assert!(rel_residual(&a, &b, &x) < 0.5 * before);
    }

    #[test]
    fn l1_diagonal_dominates_plain_diagonal() {
        let a = laplacian_1d(10);
        let plain = a.diagonal();
        for (l1, d) in l1_diagonal(&a).iter().zip(&plain) {
            assert!(l1 >= d);
        }
    }

    #[test]
    fn the_sweep_from_zero_has_the_bits_of_a_general_sweep_on_a_zeroed_vector() {
        let a = laplacian_1d(40);
        // Both zeros in b: `-0.0` is where `0.0 +` earns its place.
        let b: Vec<f64> = (0..40)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => (i as f64).sin(),
            })
            .collect();
        let diag = l1_diagonal(&a);
        let mut general = vec![0.0; 40];
        sweeps_on_checked_diagonal(&a, &b, &mut general, 0.7, 1, &diag, &mut [0.0; 40]);
        // Whatever x held is overwritten, not read.
        let mut from_zero = vec![f64::NAN; 40];
        sweep_from_zero(&b, &mut from_zero, 0.7, &diag);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&general), bits(&from_zero));
    }

    /// A 5-point Laplacian on an `n x n` grid: the fine-level shape.
    fn laplacian_2d(n: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * n + j;
        let mut t = Vec::with_capacity(5 * n * n);
        for i in 0..n {
            for j in 0..n {
                let r = idx(i, j);
                t.push((r, r, 4.0));
                if i > 0 {
                    t.push((r, idx(i - 1, j), -1.0));
                }
                if i + 1 < n {
                    t.push((r, idx(i + 1, j), -1.0));
                }
                if j > 0 {
                    t.push((r, idx(i, j - 1), -1.0));
                }
                if j + 1 < n {
                    t.push((r, idx(i, j + 1), -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n * n, n * n, &t)
    }

    /// The shape of a coarse AMG level: `rows` ragged rows of 30-70
    /// non-zeros scattered over all columns, diagonally dominant.
    fn coarse_like(rows: usize, seed: u64) -> CsrMatrix {
        let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
        let mut t = Vec::with_capacity(rows * 51);
        for r in 0..rows {
            let len = 30 + (rng.next_u64() % 41) as usize;
            let stride = 1 + (rng.next_u64() % 7) as usize;
            for j in 1..len {
                let c = (r + j * stride) % rows;
                if c != r {
                    t.push((r, c, -(0.1 + rng.random::<f64>())));
                }
            }
            t.push((r, r, 2.0 * len as f64));
        }
        CsrMatrix::from_triplets(rows, rows, &t)
    }

    /// Four Jacobi-family sweeps from `x`, every residual through the
    /// one-row-at-a-time loop and every update serial.
    fn reference_sweeps(a: &CsrMatrix, b: &[f64], x: &mut [f64], omega: f64, diag: &[f64]) {
        let mut r = vec![0.0; a.rows()];
        for _ in 0..4 {
            a.rows_into_reference(x, Some(b), &mut r);
            for ((xi, ri), di) in x.iter_mut().zip(&r).zip(diag) {
                *xi += omega * ri / di;
            }
        }
    }

    #[test]
    fn jacobi_sweeps_equal_the_one_row_reference_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (shape, a) in [
            ("5-point", laplacian_2d(64)),
            ("coarse", coarse_like(600, 9)),
        ] {
            let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(8);
            let b: Vec<f64> = (0..a.rows())
                .map(|_| rng.random::<f64>() * 2.0 - 1.0)
                .collect();
            let mut want_jacobi = vec![0.0; a.rows()];
            reference_sweeps(&a, &b, &mut want_jacobi, 2.0 / 3.0, &a.diagonal());
            let mut want_l1 = vec![0.0; a.rows()];
            reference_sweeps(&a, &b, &mut want_l1, 1.0, &l1_diagonal(&a));
            for threads in [1, 2, 4, 8] {
                irf_runtime::set_num_threads(threads);
                let mut x_jacobi = vec![0.0; a.rows()];
                jacobi(&a, &b, &mut x_jacobi, 2.0 / 3.0, 4);
                let mut x_l1 = vec![0.0; a.rows()];
                l1_jacobi(&a, &b, &mut x_l1, 4);
                irf_runtime::set_num_threads(0);
                assert_eq!(
                    bits(&x_jacobi),
                    bits(&want_jacobi),
                    "{shape}: jacobi, {threads} threads"
                );
                assert_eq!(
                    bits(&x_l1),
                    bits(&want_l1),
                    "{shape}: l1_jacobi, {threads} threads"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "jacobi: zero diagonal at row 3")]
    fn scaled_sweeps_reject_a_zero_diagonal_before_the_first_sweep() {
        let a = laplacian_1d(6);
        let mut diag = a.diagonal();
        diag[3] = 0.0;
        let (mut x, mut r) = (vec![0.0; 6], vec![0.0; 6]);
        scaled_sweeps(&a, &[1.0; 6], &mut x, 1.0, 1, &diag, &mut r);
    }

    #[test]
    fn gauss_seidel_converges_on_small_system() {
        let a = laplacian_1d(8);
        let b = vec![1.0; 8];
        let mut x = vec![0.0; 8];
        gauss_seidel(&a, &b, &mut x, 500);
        assert!(rel_residual(&a, &b, &x) < 1e-8);
    }

    #[test]
    fn symmetric_gs_converges_faster_than_one_direction_sweepwise() {
        let a = laplacian_1d(16);
        let b = vec![1.0; 16];
        let mut x_gs = vec![0.0; 16];
        let mut x_sgs = vec![0.0; 16];
        gauss_seidel(&a, &b, &mut x_gs, 10);
        symmetric_gauss_seidel(&a, &b, &mut x_sgs, 10);
        assert!(rel_residual(&a, &b, &x_sgs) <= rel_residual(&a, &b, &x_gs) + 1e-12);
    }

    #[test]
    fn smoothers_fix_exact_solution() {
        // If x already solves A x = b, one sweep must leave it unchanged.
        let a = laplacian_1d(5);
        let x_true = vec![1.0, 2.0, 3.0, 2.0, 1.0];
        let b = a.spmv(&x_true);
        for kind in [
            SmootherKind::Jacobi,
            SmootherKind::L1Jacobi,
            SmootherKind::GaussSeidel,
            SmootherKind::SymmetricGaussSeidel,
        ] {
            let mut x = x_true.clone();
            smooth(kind, &a, &b, &mut x, 3);
            for (xi, ti) in x.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-12, "{kind:?} moved exact solution");
            }
        }
    }
}
