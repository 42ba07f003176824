//! Sparse up-looking Cholesky factorization (the direct-solver
//! baseline, in the spirit of KLU/CHOLMOD's role in the paper).
//!
//! The factorization follows the classic CSparse recipe: an
//! elimination tree computed from the symmetric pattern, per-row
//! reach sets, and an up-looking numeric phase. The factor is the
//! golden reference used to label synthetic designs exactly.

use crate::csr::CsrMatrix;
use crate::error::SolveError;

const NONE: usize = usize::MAX;

/// A lower-triangular sparse Cholesky factor `A = L L^T`.
///
/// # Example
///
/// ```
/// use irf_sparse::{TripletMatrix, cholesky::CholeskyFactor};
///
/// let mut t = TripletMatrix::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 2.0);
/// }
/// t.push(0, 1, -1.0);
/// t.push(1, 0, -1.0);
/// let a = t.to_csr();
/// let f = CholeskyFactor::factor(&a)?;
/// let x = f.solve(&[1.0, 0.0, 2.0]);
/// let r = a.spmv(&x);
/// assert!((r[0] - 1.0).abs() < 1e-12);
/// # Ok::<(), irf_sparse::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    n: usize,
    /// Strictly-lower entries of column `j`: row indices (ascending).
    col_rows: Vec<Vec<usize>>,
    /// Values parallel to `col_rows`.
    col_vals: Vec<Vec<f64>>,
    /// Diagonal of `L`.
    diag: Vec<f64>,
}

impl CholeskyFactor {
    /// Factors the SPD matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotSquare`] for non-square input and
    /// [`SolveError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive.
    pub fn factor(a: &CsrMatrix) -> Result<Self, SolveError> {
        if a.rows() != a.cols() {
            return Err(SolveError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let parent = etree(a);
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut col_vals: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut diag = vec![0.0; n];
        let mut x = vec![0.0; n]; // dense scratch for the current row
        let mut mark = vec![NONE; n];
        let mut pattern: Vec<usize> = Vec::new();
        for k in 0..n {
            // Scatter the strictly-lower part of row k (== upper column
            // k by symmetry) into the scratch vector and gather the
            // reach set along the elimination tree.
            pattern.clear();
            mark[k] = k;
            let mut d = 0.0;
            let (cols, vals) = a.row(k);
            for (&c, &v) in cols.iter().zip(vals) {
                if c > k {
                    continue;
                }
                if c == k {
                    d = v;
                    continue;
                }
                x[c] = v;
                let mut i = c;
                while mark[i] != k {
                    mark[i] = k;
                    pattern.push(i);
                    i = parent[i];
                    if i == NONE {
                        break;
                    }
                }
            }
            // Up-looking: process reach in ascending column order
            // (valid topological order since parent[j] > j).
            pattern.sort_unstable();
            for &j in &pattern {
                let lkj = x[j] / diag[j];
                x[j] = 0.0;
                for (&i, &v) in col_rows[j].iter().zip(&col_vals[j]) {
                    x[i] -= v * lkj;
                }
                d -= lkj * lkj;
                col_rows[j].push(k);
                col_vals[j].push(lkj);
            }
            if d <= 0.0 {
                return Err(SolveError::NotPositiveDefinite { row: k, pivot: d });
            }
            diag[k] = d.sqrt();
        }
        Ok(CholeskyFactor {
            n,
            col_rows,
            col_vals,
            diag,
        })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros in `L` (including the diagonal).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.n + self.col_rows.iter().map(Vec::len).sum::<usize>()
    }

    /// Solves `A x = b` via forward/backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "cholesky solve: rhs length mismatch");
        let mut y = b.to_vec();
        // Forward: L y = b (column-oriented).
        for j in 0..self.n {
            y[j] /= self.diag[j];
            let yj = y[j];
            for (&i, &v) in self.col_rows[j].iter().zip(&self.col_vals[j]) {
                y[i] -= v * yj;
            }
        }
        // Backward: L^T x = y.
        for j in (0..self.n).rev() {
            let mut s = y[j];
            for (&i, &v) in self.col_rows[j].iter().zip(&self.col_vals[j]) {
                s -= v * y[i];
            }
            y[j] = s / self.diag[j];
        }
        y
    }
}

/// Elimination tree of the symmetric matrix pattern: `parent[i]` is the
/// first row `> i` whose factor row touches column `i`.
fn etree(a: &CsrMatrix) -> Vec<usize> {
    let n = a.rows();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        let (cols, _) = a.row(k);
        for &c in cols {
            if c >= k {
                continue;
            }
            let mut i = c;
            while i != NONE && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NONE {
                    parent[i] = k;
                    break;
                }
                i = next;
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;
    use crate::vector::norm2;

    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                t.push(idx(i, j), idx(i, j), 4.1);
                if i + 1 < nx {
                    t.stamp_conductance(idx(i, j), idx(i + 1, j), 1.0);
                }
                if j + 1 < ny {
                    t.stamp_conductance(idx(i, j), idx(i, j + 1), 1.0);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn factor_solve_roundtrip() {
        let a = laplacian_2d(9, 7);
        let f = CholeskyFactor::factor(&a).expect("SPD");
        let x_true: Vec<f64> = (0..a.rows()).map(|i| ((i * 3) % 11) as f64 - 5.0).collect();
        let b = a.spmv(&x_true);
        let x = f.solve(&b);
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(err / norm2(&x_true) < 1e-10, "relative error {err}");
    }

    #[test]
    fn identity_factors_to_identity() {
        let a = CsrMatrix::identity(5);
        let f = CholeskyFactor::factor(&a).expect("SPD");
        assert_eq!(f.nnz(), 5);
        let x = f.solve(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn non_square_is_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(matches!(
            CholeskyFactor::factor(&a),
            Err(SolveError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn indefinite_is_rejected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, -1.0)]);
        assert!(matches!(
            CholeskyFactor::factor(&a),
            Err(SolveError::NotPositiveDefinite { row: 1, .. })
        ));
    }

    #[test]
    fn fill_in_is_bounded_by_dense() {
        let a = laplacian_2d(8, 8);
        let f = CholeskyFactor::factor(&a).expect("SPD");
        assert!(f.nnz() <= 64 * 65 / 2);
        assert!(f.nnz() >= a.nnz() / 2); // at least the lower triangle
    }

    #[test]
    fn solve_matches_cg() {
        let a = laplacian_2d(6, 6);
        let b = vec![1.0; 36];
        let x_dir = CholeskyFactor::factor(&a).expect("SPD").solve(&b);
        let x_cg = crate::cg::conjugate_gradient(&a, &b, vec![0.0; b.len()], 1e-12, 1000).x;
        for (p, q) in x_dir.iter().zip(&x_cg) {
            assert!((p - q).abs() < 1e-8);
        }
    }
}
