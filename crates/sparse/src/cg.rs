//! Plain (unpreconditioned) conjugate gradient.

use crate::csr::CsrMatrix;
use crate::vector::{axpy, dot, norm2, xpby};

/// Convergence trace of an iterative solve: one relative-residual entry
/// per iteration, starting with the initial residual.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceTrace {
    /// Relative residual history; `history[0]` is the initial value.
    pub history: Vec<f64>,
}

impl ConvergenceTrace {
    /// Final relative residual (or `inf` if no iterations ran).
    #[must_use]
    pub fn final_residual(&self) -> f64 {
        self.history.last().copied().unwrap_or(f64::INFINITY)
    }

    /// Number of iterations performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.history.len().saturating_sub(1)
    }
}

/// Result of a conjugate-gradient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// Approximate solution.
    pub x: Vec<f64>,
    /// `true` if the relative residual dropped below the tolerance.
    pub converged: bool,
    /// Per-iteration residual history.
    pub trace: ConvergenceTrace,
}

/// Solves the SPD system `A x = b` with plain conjugate gradient from
/// the guess `x0` (an all-zero one skips the initial residual pass:
/// `b - A·0` has the bits of `b`).
///
/// Iterates until the relative residual `||b - A x|| / ||b||` drops
/// below `tol` or `max_iter` iterations have run; a guess that meets
/// `tol` takes none. A zero right-hand side returns the zero solution
/// immediately.
///
/// # Panics
///
/// Panics if `A` is not square or `b` or `x0` is not `A.rows()` long.
#[must_use]
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: Vec<f64>,
    tol: f64,
    max_iter: usize,
) -> CgResult {
    assert_eq!(a.rows(), a.cols(), "cg: matrix must be square");
    assert_eq!(b.len(), a.rows(), "cg: rhs length mismatch");
    assert_eq!(x0.len(), b.len(), "cg: guess length mismatch");
    let n = b.len();
    let bnorm = norm2(b);
    if bnorm == 0.0 {
        return CgResult {
            x: vec![0.0; n],
            converged: true,
            trace: ConvergenceTrace { history: vec![0.0] },
        };
    }
    let mut x = x0;
    let mut r = b.to_vec();
    if x.iter().any(|&v| v != 0.0) {
        a.residual_into(b, &x, &mut r);
    }
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let mut rr = dot(&r, &r);
    let mut history = vec![rr.sqrt() / bnorm];
    let mut converged = history[0] < tol;
    let mut it = 0;
    while !converged && it < max_iter {
        a.spmv_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            break; // not SPD or numerical breakdown
        }
        let alpha = rr / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        xpby(&r, beta, &mut p);
        rr = rr_new;
        it += 1;
        let rel = rr.sqrt() / bnorm;
        history.push(rel);
        converged = rel < tol;
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
    fn cg_solves_identity_in_one_step() {
        let a = CsrMatrix::identity(10);
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let res = conjugate_gradient(&a, &b, vec![0.0; 10], 1e-12, 10);
        assert!(res.converged);
        assert!(res.trace.iterations() <= 1);
        for (xi, bi) in res.x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn cg_solves_2d_laplacian() {
        let a = laplacian_2d(12, 12);
        let b = vec![1.0; a.rows()];
        let res = conjugate_gradient(&a, &b, vec![0.0; b.len()], 1e-10, 1000);
        assert!(res.converged);
        let mut r = vec![0.0; b.len()];
        a.residual_into(&b, &res.x, &mut r);
        assert!(crate::vector::norm2(&r) / crate::vector::norm2(&b) < 1e-9);
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = laplacian_2d(4, 4);
        let res = conjugate_gradient(&a, &[0.0; 16], vec![0.0; 16], 1e-10, 100);
        assert!(res.converged);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cg_residual_history_is_monotone_overall() {
        let a = laplacian_2d(8, 8);
        let b = vec![1.0; 64];
        let res = conjugate_gradient(&a, &b, vec![0.0; 64], 1e-10, 500);
        let first = res.trace.history[0];
        let last = res.trace.final_residual();
        assert!(last < first);
    }

    #[test]
    fn cg_respects_iteration_budget() {
        let a = laplacian_2d(16, 16);
        let b = vec![1.0; 256];
        let res = conjugate_gradient(&a, &b, vec![0.0; 256], 1e-14, 3);
        assert!(!res.converged);
        assert_eq!(res.trace.iterations(), 3);
    }
}
