//! AMG setup stage: the multilevel hierarchy of Galerkin operators.

use crate::amg::aggregation::{aggregate_double_pairwise, Aggregation};
use crate::csr::CsrMatrix;
use crate::smoother::SmootherKind;

/// Tunable parameters of the AMG setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmgParams {
    /// Strength-of-connection threshold in `[0, 1]`.
    pub theta: f64,
    /// Stop coarsening once a level has at most this many unknowns.
    pub coarse_limit: usize,
    /// Hard cap on the number of levels.
    pub max_levels: usize,
    /// Pre-/post-smoothing sweeps per level.
    pub smoothing_sweeps: usize,
    /// Which smoother to run on each level.
    pub smoother: SmootherKind,
}

impl Default for AmgParams {
    fn default() -> Self {
        AmgParams {
            theta: 0.25,
            coarse_limit: 64,
            max_levels: 20,
            smoothing_sweeps: 1,
            smoother: SmootherKind::SymmetricGaussSeidel,
        }
    }
}

/// One level of the hierarchy: its operator and the aggregation that
/// maps it to the next coarser level (absent on the coarsest level).
#[derive(Debug, Clone)]
pub struct Level {
    /// Galerkin operator on this level.
    pub a: CsrMatrix,
    /// Fine-to-coarse map toward the next level, if any.
    pub agg: Option<Aggregation>,
}

/// The full multigrid hierarchy plus a dense Cholesky factor of the
/// coarsest operator.
#[derive(Debug, Clone)]
pub struct AmgHierarchy {
    levels: Vec<Level>,
    params: AmgParams,
    /// Lower-triangular dense Cholesky factor of the coarsest operator,
    /// stored row-major (`nc x nc`).
    coarse_chol: Vec<f64>,
    coarse_n: usize,
}

/// Computes the Galerkin coarse operator `A_c = P^T A P` for a
/// piecewise-constant prolongation defined by `agg`.
///
/// # Panics
///
/// Panics if `agg.assign.len() != a.rows()`.
#[must_use]
pub fn galerkin_coarse(a: &CsrMatrix, agg: &Aggregation) -> CsrMatrix {
    assert_eq!(agg.assign.len(), a.rows(), "aggregation size mismatch");
    // Two-pass bucketed product: count how many fine entries land in
    // each coarse row, prefix-sum into bucket offsets, then scatter
    // `(assign[c], v)` pairs directly into their coarse-row buckets in
    // fine-row iteration order. This replaces the old full triplet
    // buffer (24 B per fine non-zero — the AMG setup's memory hog at
    // million-node scale) with one exactly-sized 16 B/entry array.
    //
    // Bitwise identical to the triplet formulation: the bucket sort
    // inside `from_triplets` preserved per-coarse-row order of the
    // fine iteration, and the direct scatter writes the same per-row
    // sequences, so the shared sort+merge back half
    // (`from_bucketed`, parallel per coarse row) sums duplicates in
    // the same order.
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
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

/// [`galerkin_coarse`] variant that scatter-adds into a known coarse
/// sparsity pattern instead of sorting a fresh one.
///
/// Returns `None` when the product's structure does not match
/// `pattern` (the caller falls back to [`galerkin_coarse`]). On
/// `Some`, the result is bitwise identical to [`galerkin_coarse`]:
/// both sum the mapped fine entries in the same serial triplet order.
fn galerkin_coarse_with_pattern(
    a: &CsrMatrix,
    agg: &Aggregation,
    pattern: &CsrMatrix,
) -> Option<CsrMatrix> {
    assert_eq!(agg.assign.len(), a.rows(), "aggregation size mismatch");
    if pattern.rows() != agg.n_coarse || pattern.cols() != agg.n_coarse {
        return None;
    }
    // Scatter-add each mapped fine entry straight into the pattern's
    // value slots, in fine-row iteration order — the same
    // accumulation order `from_triplets_with_pattern` used over the
    // old materialized triplet list, with no triplet buffer at all.
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
    let p_row_ptr = pattern.row_ptr();
    let p_col_idx = pattern.col_idx();
    let mut out = vec![0.0f64; pattern.nnz()];
    for r in 0..a.rows() {
        let coarse_r = agg.assign[r];
        let (s, e) = (p_row_ptr[coarse_r], p_row_ptr[coarse_r + 1]);
        for k in row_ptr[r]..row_ptr[r + 1] {
            let coarse_c = agg.assign[col_idx[k]];
            let slot = p_col_idx[s..e].binary_search(&coarse_c).ok()?;
            out[s + slot] += values[k];
        }
    }
    CsrMatrix::with_pattern_values(pattern, out)
}

/// Restricts a fine-level vector: `r_c[a] = sum_{i in a} r[i]`
/// (`r_c = P^T r`).
#[must_use]
pub fn restrict(agg: &Aggregation, fine: &[f64]) -> Vec<f64> {
    let mut coarse = vec![0.0; agg.n_coarse];
    restrict_into(agg, fine, &mut coarse);
    coarse
}

/// [`restrict`] into a caller-owned buffer (overwritten), for cycle
/// inner loops that reuse scratch instead of allocating.
///
/// # Panics
///
/// Panics if `coarse.len() != agg.n_coarse`.
pub fn restrict_into(agg: &Aggregation, fine: &[f64], coarse: &mut [f64]) {
    assert_eq!(
        coarse.len(),
        agg.n_coarse,
        "restrict: coarse length mismatch"
    );
    coarse.iter_mut().for_each(|v| *v = 0.0);
    for (i, &v) in fine.iter().enumerate() {
        coarse[agg.assign[i]] += v;
    }
}

/// Prolongates a coarse correction and adds it to the fine vector:
/// `x[i] += x_c[agg[i]]` (`x += P x_c`).
pub fn prolongate_add(agg: &Aggregation, coarse: &[f64], fine: &mut [f64]) {
    for (i, xi) in fine.iter_mut().enumerate() {
        *xi += coarse[agg.assign[i]];
    }
}

impl AmgHierarchy {
    /// Runs the AMG setup stage on `a`.
    ///
    /// Recursively aggregates until the operator is small enough, then
    /// factors the coarsest operator with dense Cholesky so coarse
    /// solves are exact.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square, or if the coarsest operator is not
    /// positive definite (which indicates a non-SPD input).
    #[must_use]
    pub fn build(a: &CsrMatrix, params: AmgParams) -> Self {
        assert_eq!(a.rows(), a.cols(), "amg: matrix must be square");
        let mut levels = Vec::new();
        let mut current = a.clone();
        while current.rows() > params.coarse_limit && levels.len() + 1 < params.max_levels {
            let agg = aggregate_double_pairwise(&current, params.theta);
            if agg.n_coarse >= current.rows() {
                break; // aggregation stalled; stop coarsening
            }
            let coarse = galerkin_coarse(&current, &agg);
            levels.push(Level {
                a: current,
                agg: Some(agg),
            });
            current = coarse;
        }
        let coarse_n = current.rows();
        let coarse_chol = dense_cholesky(&current);
        levels.push(Level {
            a: current,
            agg: None,
        });
        AmgHierarchy {
            levels,
            params,
            coarse_chol,
            coarse_n,
        }
    }

    /// Re-runs the setup for a matrix with the same sparsity pattern as
    /// `base`'s finest operator, reusing base-level coarse *patterns*
    /// where the hierarchy shape is provably unchanged.
    ///
    /// Aggregation is value-dependent, so it is always recomputed —
    /// reusing a stale fine-to-coarse map would silently change the
    /// hierarchy and break the bitwise warm-equals-cold contract. What
    /// *can* be reused safely is the sorted sparsity pattern of each
    /// Galerkin product: when the fresh aggregation equals the base
    /// level's and the fine operators share a pattern, the coarse
    /// operator is scatter-assembled into the base coarse pattern
    /// (skipping the dominant sort) and is bitwise identical to what
    /// [`AmgHierarchy::build`] would produce. Any mismatch falls back
    /// to the full per-level build, so the result always equals
    /// `AmgHierarchy::build(a, params)` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square, or if the coarsest operator is not
    /// positive definite.
    #[must_use]
    pub fn rebuild_from(a: &CsrMatrix, params: AmgParams, base: &AmgHierarchy) -> Self {
        assert_eq!(a.rows(), a.cols(), "amg: matrix must be square");
        let reuse = params == base.params;
        let mut levels = Vec::new();
        let mut current = a.clone();
        while current.rows() > params.coarse_limit && levels.len() + 1 < params.max_levels {
            let agg = aggregate_double_pairwise(&current, params.theta);
            if agg.n_coarse >= current.rows() {
                break; // aggregation stalled; stop coarsening
            }
            let li = levels.len();
            let coarse = if reuse {
                base.levels
                    .get(li)
                    .filter(|b| b.agg.as_ref() == Some(&agg) && b.a.same_pattern(&current))
                    .and_then(|_| base.levels.get(li + 1))
                    .and_then(|next| galerkin_coarse_with_pattern(&current, &agg, &next.a))
                    .unwrap_or_else(|| galerkin_coarse(&current, &agg))
            } else {
                galerkin_coarse(&current, &agg)
            };
            levels.push(Level {
                a: current,
                agg: Some(agg),
            });
            current = coarse;
        }
        let coarse_n = current.rows();
        let coarse_chol = dense_cholesky(&current);
        levels.push(Level {
            a: current,
            agg: None,
        });
        AmgHierarchy {
            levels,
            params,
            coarse_chol,
            coarse_n,
        }
    }

    /// Number of levels (including the coarsest).
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The levels, finest first.
    #[must_use]
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The setup parameters used.
    #[must_use]
    pub fn params(&self) -> &AmgParams {
        &self.params
    }

    /// Operator complexity: total non-zeros across all levels divided
    /// by the finest-level non-zeros. A healthy aggregation hierarchy
    /// stays well below 2.
    #[must_use]
    pub fn operator_complexity(&self) -> f64 {
        let fine = self.levels[0].a.nnz().max(1) as f64;
        let total: usize = self.levels.iter().map(|l| l.a.nnz()).sum();
        total as f64 / fine
    }

    /// Solves the coarsest system exactly using the cached Cholesky
    /// factor. Overwrites `x`; its incoming values are not read.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the coarsest dimension.
    pub fn coarse_solve(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.coarse_n, "coarse solve: rhs mismatch");
        assert_eq!(x.len(), self.coarse_n, "coarse solve: x mismatch");
        let n = self.coarse_n;
        let l = &self.coarse_chol;
        // Forward substitution L y = b, with y kept in x: a cycle comes
        // here hundreds of times per solve, so no scratch is allocated.
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= l[i * n + j] * x[j];
            }
            x[i] = s / l[i * n + i];
        }
        // Backward substitution L^T x = y, in place: step i reads y_i
        // (still in x[i]) and the already final x[j], j > i. It strides
        // down a column of the row-major factor; the factor sits in L1
        // and this whole function is 1.4 % of a 24-iteration K-cycle
        // solve (EXPERIMENTS.md), so no transpose is stored for it.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= l[j * n + i] * x[j];
            }
            x[i] = s / l[i * n + i];
        }
    }
}

/// Dense Cholesky of a small sparse SPD matrix; returns the
/// lower-triangular factor row-major.
///
/// # Panics
///
/// Panics if the matrix is not positive definite.
fn dense_cholesky(a: &CsrMatrix) -> Vec<f64> {
    let n = a.rows();
    let mut m = vec![0.0; n * n];
    for (r, c, v) in a.iter() {
        m[r * n + c] = v;
    }
    for i in 0..n {
        for j in 0..=i {
            let mut s = m[i * n + j];
            for k in 0..j {
                s -= m[i * n + k] * m[j * n + k];
            }
            if i == j {
                assert!(
                    s > 0.0,
                    "amg coarse operator is not positive definite (pivot {s:e} at row {i})"
                );
                m[i * n + j] = s.sqrt();
            } else {
                m[i * n + j] = s / m[j * n + j];
            }
        }
        for j in (i + 1)..n {
            m[i * n + j] = 0.0;
        }
    }
    m
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
    fn hierarchy_coarsens_to_limit() {
        let a = laplacian_2d(20, 20);
        let h = AmgHierarchy::build(&a, AmgParams::default());
        assert!(h.num_levels() >= 2);
        let coarsest = &h.levels().last().unwrap().a;
        assert!(coarsest.rows() <= AmgParams::default().coarse_limit);
    }

    #[test]
    fn galerkin_preserves_symmetry() {
        let a = laplacian_2d(10, 10);
        let h = AmgHierarchy::build(&a, AmgParams::default());
        for level in h.levels() {
            assert!(level.a.is_symmetric(1e-12));
        }
    }

    #[test]
    fn operator_complexity_is_modest() {
        let a = laplacian_2d(24, 24);
        let h = AmgHierarchy::build(&a, AmgParams::default());
        assert!(h.operator_complexity() < 2.0, "{}", h.operator_complexity());
    }

    #[test]
    fn restrict_prolongate_are_transposes() {
        // <P^T r, e>_c == <r, P e>_f for arbitrary vectors.
        let a = laplacian_2d(6, 6);
        let agg = crate::amg::aggregation::aggregate_pairwise(&a, 0.25);
        let r: Vec<f64> = (0..36).map(|i| (i as f64).sin()).collect();
        let e: Vec<f64> = (0..agg.n_coarse).map(|i| (i as f64).cos()).collect();
        let rc = restrict(&agg, &r);
        let lhs: f64 = rc.iter().zip(&e).map(|(a, b)| a * b).sum();
        let mut pe = vec![0.0; 36];
        prolongate_add(&agg, &e, &mut pe);
        let rhs: f64 = r.iter().zip(&pe).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn coarse_solve_is_exact() {
        let a = laplacian_2d(6, 6); // 36 <= coarse_limit: single level
        let h = AmgHierarchy::build(&a, AmgParams::default());
        assert_eq!(h.num_levels(), 1);
        let x_true: Vec<f64> = (0..36).map(|i| (i % 7) as f64).collect();
        let b = a.spmv(&x_true);
        let mut x = vec![0.0; 36];
        h.coarse_solve(&b, &mut x);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn rebuild_from_matches_a_cold_build_bitwise() {
        let a = laplacian_2d(20, 20);
        let params = AmgParams::default();
        let base = AmgHierarchy::build(&a, params);

        // Same-pattern symmetric value edit: weaken a subset of the
        // couplings the way a strap-resistance edit does (the `r + c`
        // predicate keeps the matrix symmetric, and shrinking negative
        // off-diagonals preserves diagonal dominance / SPD-ness).
        let mut t: Vec<(usize, usize, f64)> = a.iter().collect();
        for e in t.iter_mut() {
            if e.0 != e.1 && (e.0 + e.1) % 7 == 0 {
                e.2 *= 0.5;
            }
        }
        let edited = CsrMatrix::from_triplets(400, 400, &t);

        let cold = AmgHierarchy::build(&edited, params);
        let warm = AmgHierarchy::rebuild_from(&edited, params, &base);
        assert_eq!(warm.num_levels(), cold.num_levels());
        for (w, c) in warm.levels().iter().zip(cold.levels()) {
            assert_eq!(w.a, c.a, "rebuilt level operator differs");
            assert_eq!(w.agg, c.agg, "rebuilt aggregation differs");
        }
        assert_eq!(warm.coarse_chol, cold.coarse_chol);

        // Rebuilding against an unrelated base still equals cold.
        let other = AmgHierarchy::build(&laplacian_2d(15, 15), params);
        let cross = AmgHierarchy::rebuild_from(&edited, params, &other);
        for (w, c) in cross.levels().iter().zip(cold.levels()) {
            assert_eq!(w.a, c.a);
        }
    }

    #[test]
    fn galerkin_coarse_row_sums_stay_nonnegative_diagonal() {
        let a = laplacian_2d(8, 8);
        let agg = crate::amg::aggregation::aggregate_pairwise(&a, 0.25);
        let ac = galerkin_coarse(&a, &agg);
        for i in 0..ac.rows() {
            assert!(ac.get(i, i) > 0.0);
        }
    }
}
