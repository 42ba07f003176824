//! Preconditioned conjugate gradient (PCG) with pluggable preconditioners.
//!
//! The AMG-PCG solver of PowerRush — and therefore of the IR-Fusion
//! paper — is exactly [`pcg`] with an
//! [`AmgPreconditioner`](crate::amg::AmgPreconditioner) plugged in.

use crate::cg::{CgResult, ConvergenceTrace};
use crate::csr::CsrMatrix;
use crate::vector::{axpy, dot, norm2, xpby};

/// An SPD preconditioner `M^{-1}` applied as `z = M^{-1} r`.
///
/// Implementations must be (approximately) symmetric positive definite
/// for PCG to retain its convergence guarantees; the flexible
/// Polak-Ribiere update used by [`pcg`] tolerates the mild
/// non-linearity of a K-cycle AMG preconditioner.
pub trait Preconditioner {
    /// Applies the preconditioner: overwrites `z` with `M^{-1} r`.
    /// The incoming `z` is scratch: callers need not clear it and
    /// implementations must not read it.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r.len() != z.len()` or the length
    /// does not match the operator dimension.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// The identity preconditioner; turns PCG into plain CG.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(A)`.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the diagonal of `a`.
    ///
    /// # Panics
    ///
    /// Panics if any diagonal entry is zero.
    #[must_use]
    pub fn new(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                assert!(d != 0.0, "jacobi preconditioner: zero diagonal at row {i}");
                1.0 / d
            })
            .collect();
        JacobiPreconditioner { inv_diag }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Solves the SPD system `A x = b` with flexible preconditioned
/// conjugate gradient.
///
/// Uses the Polak-Ribiere (flexible) beta so that slightly non-linear
/// preconditioners — such as a K-cycle AMG — remain admissible.
/// Convergence is declared when `||b - A x|| / ||b|| < tol`.
///
/// # Panics
///
/// Panics if `A` is not square or `b.len() != A.rows()`.
#[must_use]
pub fn pcg<M: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    m: &M,
    tol: f64,
    max_iter: usize,
) -> CgResult {
    pcg_with_guess(a, b, m, vec![0.0; b.len()], tol, max_iter)
}

/// [`pcg`] starting from a caller-supplied initial guess `x0`.
///
/// The preconditioner is applied only where the answer depends on it:
/// once per iteration that is followed by another (so `iterations`
/// times in a solve the budget or the tolerance ends, never more than
/// `iterations + 1` on a breakdown) and not at all when `max_iter` is
/// zero or `x0` already meets `tol`. The relative residual of an
/// iteration is known before its preconditioner application, which
/// only prepares the next search direction; the solve that stops there
/// skips it. An all-zero guess also skips the initial residual pass:
/// `b - A·0` has the bits of `b` (see
/// `smoother::sweep_from_zero`).
///
/// # Panics
///
/// Panics if dimensions do not match.
#[must_use]
pub fn pcg_with_guess<M: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    m: &M,
    x0: Vec<f64>,
    tol: f64,
    max_iter: usize,
) -> CgResult {
    assert_eq!(a.rows(), a.cols(), "pcg: matrix must be square");
    assert_eq!(b.len(), a.rows(), "pcg: rhs length mismatch");
    assert_eq!(x0.len(), b.len(), "pcg: guess length mismatch");
    let n = b.len();
    let bnorm = norm2(b);
    let mut x = x0;
    if bnorm == 0.0 {
        return CgResult {
            x: vec![0.0; n],
            converged: true,
            trace: ConvergenceTrace { history: vec![0.0] },
        };
    }
    let mut r = vec![0.0; n];
    if x.iter().all(|&v| v == 0.0) {
        r.copy_from_slice(b);
    } else {
        a.residual_into(b, &x, &mut r);
    }
    let mut history = vec![norm2(&r) / bnorm];
    let mut converged = history[0] < tol;
    if converged || max_iter == 0 {
        return CgResult {
            x,
            converged,
            trace: ConvergenceTrace { history },
        };
    }
    let mut z = vec![0.0; n];
    m.apply(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    // Scratch for the previous residual, reused across iterations so
    // the inner loop allocates nothing.
    let mut r_old = vec![0.0; n];
    let mut rz = dot(&r, &z);
    loop {
        a.spmv_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        // Keep the previous residual for the flexible beta.
        r_old.copy_from_slice(&r);
        axpy(-alpha, &ap, &mut r);
        let rel = norm2(&r) / bnorm;
        history.push(rel);
        converged = rel < tol;
        // `history` holds the initial residual and one entry per
        // iteration. Stop before a cycle nobody reads.
        if converged || history.len() > max_iter {
            break;
        }
        m.apply(&r, &mut z);
        // Polak-Ribiere: beta = z^T (r - r_old) / (z_old^T r_old).
        let num = {
            let (z, r, r_old) = (&z, &r, &r_old);
            irf_runtime::par_reduce(
                n,
                8192,
                0.0,
                |range| {
                    let mut acc = 0.0;
                    for i in range {
                        acc += z[i] * (r[i] - r_old[i]);
                    }
                    acc
                },
                |a, b| a + b,
            )
        };
        let beta = (num / rz).max(0.0);
        rz = dot(&r, &z);
        xpby(&z, beta, &mut p);
        if rz <= 0.0 || !rz.is_finite() {
            break;
        }
    }
    CgResult {
        x,
        converged,
        trace: ConvergenceTrace { history },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                t.push((idx(i, j), idx(i, j), 4.0));
                if i + 1 < nx {
                    t.push((idx(i, j), idx(i + 1, j), -1.0));
                    t.push((idx(i + 1, j), idx(i, j), -1.0));
                }
                if j + 1 < ny {
                    t.push((idx(i, j), idx(i, j + 1), -1.0));
                    t.push((idx(i, j + 1), idx(i, j), -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn identity_preconditioner_matches_plain_cg() {
        let a = laplacian_2d(10, 10);
        let b = vec![1.0; 100];
        let plain = crate::cg::conjugate_gradient(&a, &b, vec![0.0; b.len()], 1e-10, 500);
        let pre = pcg(&a, &b, &IdentityPreconditioner, 1e-10, 500);
        assert!(pre.converged);
        for (p, q) in plain.x.iter().zip(&pre.x) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn jacobi_preconditioner_converges() {
        let a = laplacian_2d(10, 10);
        let b = vec![1.0; 100];
        let m = JacobiPreconditioner::new(&a);
        let res = pcg(&a, &b, &m, 1e-10, 500);
        assert!(res.converged);
        let mut r = vec![0.0; 100];
        a.residual_into(&b, &res.x, &mut r);
        assert!(norm2(&r) / norm2(&b) < 1e-9);
    }

    #[test]
    fn warm_start_converges_faster() {
        let a = laplacian_2d(10, 10);
        let b = vec![1.0; 100];
        let m = JacobiPreconditioner::new(&a);
        let cold = pcg(&a, &b, &m, 1e-10, 500);
        let warm = pcg_with_guess(&a, &b, &m, cold.x.clone(), 1e-10, 500);
        assert!(warm.trace.iterations() <= 1);
    }

    /// Jacobi, counting its applications; optionally returning a
    /// direction that breaks PCG down (`z = -r`, so `r·z < 0`) from
    /// the `sabotage_from`-th application on.
    struct Counting {
        inner: JacobiPreconditioner,
        calls: std::cell::Cell<usize>,
        sabotage_from: usize,
    }

    impl Counting {
        fn new(a: &CsrMatrix) -> Self {
            Counting {
                inner: JacobiPreconditioner::new(a),
                calls: std::cell::Cell::new(0),
                sabotage_from: usize::MAX,
            }
        }
    }

    impl Preconditioner for Counting {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            self.calls.set(self.calls.get() + 1);
            if self.calls.get() >= self.sabotage_from {
                for (zi, ri) in z.iter_mut().zip(r) {
                    *zi = -ri;
                }
            } else {
                self.inner.apply(r, z);
            }
        }
    }

    #[test]
    fn the_preconditioner_is_applied_only_where_the_answer_depends_on_it() {
        let a = laplacian_2d(10, 10);
        let b: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64).collect();

        // The budget ends the solve: one application per iteration.
        for budget in [1, 2, 7] {
            let m = Counting::new(&a);
            let res = pcg(&a, &b, &m, 1e-30, budget);
            assert_eq!(res.trace.iterations(), budget);
            assert!(!res.converged);
            assert_eq!(m.calls.get(), budget, "budget {budget}");
        }

        // The tolerance ends it: still one per iteration.
        let m = Counting::new(&a);
        let done = pcg(&a, &b, &m, 1e-10, 500);
        assert!(done.converged && done.trace.iterations() < 500);
        assert_eq!(m.calls.get(), done.trace.iterations());

        // No iteration, no application: an empty budget ...
        let m = Counting::new(&a);
        let res = pcg(&a, &b, &m, 1e-10, 0);
        assert_eq!((res.trace.iterations(), m.calls.get()), (0, 0));
        assert!(!res.converged && res.x.iter().all(|&v| v == 0.0));
        assert_eq!(res.trace.history, vec![1.0]);
        // ... and a guess that already meets the tolerance.
        let m = Counting::new(&a);
        let res = pcg_with_guess(&a, &b, &m, done.x.clone(), 1e-8, 500);
        assert_eq!((res.trace.iterations(), m.calls.get()), (0, 0));
        assert!(res.converged);
        assert_eq!(res.x, done.x);

        // Breakdown: the third application hands back an ascent
        // direction, `r·z <= 0` stops the solve after iteration 2,
        // never more than one application past the iteration count.
        let m = Counting {
            sabotage_from: 3,
            ..Counting::new(&a)
        };
        let res = pcg(&a, &b, &m, 1e-30, 50);
        assert_eq!(res.trace.iterations(), 2);
        assert_eq!(m.calls.get(), 3);
        // The first application already broken: `p·Ap > 0` still holds
        // for `p = -r`, so one iteration runs before `r·z` is looked at.
        let m = Counting {
            sabotage_from: 1,
            ..Counting::new(&a)
        };
        let res = pcg(&a, &b, &m, 1e-30, 50);
        assert!(m.calls.get() <= res.trace.iterations() + 1);

        // b = 0 still returns zeros without touching anything.
        let m = Counting::new(&a);
        let res = pcg_with_guess(&a, &[0.0; 100], &m, vec![1.0; 100], 1e-10, 10);
        assert!(res.converged && res.x.iter().all(|&v| v == 0.0));
        assert_eq!(m.calls.get(), 0);
    }

    #[test]
    fn pcg_zero_rhs() {
        let a = laplacian_2d(4, 4);
        let res = pcg(&a, &[0.0; 16], &IdentityPreconditioner, 1e-10, 10);
        assert!(res.converged && res.x.iter().all(|&v| v == 0.0));
    }
}
