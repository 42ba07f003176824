//! AMG setup stage: the multilevel hierarchy of Galerkin operators.

use std::sync::Arc;
use std::time::Instant;

use crate::amg::aggregation::{
    bucket_rows, keeps_its_pair, strength, Aggregation, Pairing, Refusal, RowSums, SetupWorkspace,
};
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
            smoother: SmootherKind::Jacobi,
        }
    }
}

/// One level of the hierarchy: its operator and the aggregation that
/// maps it to the next coarser level (absent on the coarsest level).
/// Both sit behind `Arc`s, so a hierarchy rebuilt from another
/// ([`crate::Solver::rebuild_from`]) shares what it carried over.
#[derive(Debug, Clone)]
pub struct Level {
    /// Galerkin operator on this level. Level 0's is the caller's
    /// matrix itself, shared, not a copy of it.
    pub a: Arc<CsrMatrix>,
    /// Fine-to-coarse map toward the next level, if any.
    pub agg: Option<Arc<Aggregation>>,
    /// The first of the two pairings `agg` composes, beside it.
    pub(crate) first: Option<Arc<Pairing>>,
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
/// piecewise-constant prolongation defined by `agg`: entry `(I, J)` is
/// the sum of every `a_ij` with `i` in aggregate `I` and `j` in `J`,
/// taken in (fine row, stored position) order; sums that come out
/// exactly zero are not stored.
///
/// # Panics
///
/// Panics if `agg.assign.len() != a.rows()`.
#[must_use]
pub fn galerkin_coarse(a: &CsrMatrix, agg: &Aggregation) -> CsrMatrix {
    SetupWorkspace::default().galerkin(a, agg)
}

/// A coarse row that touched more than one in this many of the coarse
/// columns is emitted by scanning the stamps in column order instead of
/// sorting what it touched. Measured on the final products of a
/// 91 k-node hierarchy (EXPERIMENTS.md, "What an AMG setup costs"):
/// the level whose coarse rows touch 142 of 651 columns takes 0.93 ms
/// sorted and 0.59 ms scanned, the next (225 of 227) 0.68 and 0.26; a
/// share of 4 catches only part of the first, 16 reads like 8, and 32
/// starts scanning the level above (50 of 1 923 columns), 0.97 ->
/// 1.58 ms. Short rows need no cut-over of their own: `sort_unstable`
/// already sorts up to 20 elements by insertion, and a hand-written
/// insertion sort in front of it measured the same or slower on every
/// level.
const DENSE_ROW_SHARE: usize = 8;

impl SetupWorkspace {
    /// [`galerkin_coarse`] on this workspace, one coarse row at a time.
    ///
    /// The order argument: sorting a coarse row's mapped entries stably
    /// by column and merging duplicates left to right from `0.0` (what
    /// `CsrMatrix::from_triplets` does with the same entries) adds the
    /// contributions to one coarse column in the order they were
    /// generated — ascending fine row, then stored position. Walking
    /// the aggregate's fine rows in ascending order and adding each
    /// entry to `acc[column]`, started at `0.0 + v`, is that same
    /// sequence of additions per column, so every sum has the same
    /// bits and the same sums are exactly zero.
    pub(crate) fn galerkin(&mut self, a: &CsrMatrix, agg: &Aggregation) -> CsrMatrix {
        assert_eq!(agg.assign.len(), a.rows(), "aggregation size mismatch");
        let t0 = Instant::now();
        let (assign, n_coarse) = (&agg.assign[..], agg.n_coarse);
        bucket_rows(
            a.rows(),
            n_coarse,
            |r| assign[r],
            &mut self.bucket_ptr,
            &mut self.bucket_list,
        );
        self.sums.reserve(n_coarse);
        let assign = |c: usize| assign[c];
        // Reserved for the most the product can hold (a coarse entry
        // takes at least one fine entry) and trimmed once it is known.
        let mut row_ptr = Vec::with_capacity(n_coarse + 1);
        let mut col_idx = Vec::with_capacity(a.nnz());
        let mut values = Vec::with_capacity(a.nnz());
        row_ptr.push(0);
        for coarse_r in 0..n_coarse {
            let members =
                &self.bucket_list[self.bucket_ptr[coarse_r]..self.bucket_ptr[coarse_r + 1]];
            self.sums.sum_row(a, assign, n_coarse, members, |c, v| {
                col_idx.push(c);
                values.push(v);
            });
            row_ptr.push(col_idx.len());
        }
        col_idx.shrink_to_fit();
        values.shrink_to_fit();
        self.galerkin_s += t0.elapsed().as_secs_f64();
        CsrMatrix::from_sorted_parts(n_coarse, n_coarse, row_ptr, col_idx, values)
    }
}

impl RowSums {
    fn reserve(&mut self, n_coarse: usize) {
        if self.stamp.len() < n_coarse {
            self.stamp.resize(n_coarse, 0);
            self.acc.resize(n_coarse, 0.0);
            self.touched.resize(n_coarse, 0);
        }
    }

    /// One coarse row of a Galerkin product: the fine rows `members`
    /// (ascending) of `a`, their columns mapped through `assign` into
    /// `0..n_coarse`, summed per coarse column in (fine row, stored
    /// position) order; `emit` receives every sum that is not exactly
    /// zero, in column order. The one routine behind the cold product
    /// and a rebuild's re-summed rows.
    #[inline]
    fn sum_row(
        &mut self,
        a: &CsrMatrix,
        assign: impl Fn(usize) -> usize,
        n_coarse: usize,
        members: &[usize],
        mut emit: impl FnMut(usize, f64),
    ) {
        let (stamp, acc) = (&mut self.stamp[..n_coarse], &mut self.acc[..n_coarse]);
        let (a_ptr, a_col, a_val) = (a.row_ptr(), a.col_idx(), a.values());
        self.epoch += 1;
        let mut n_touched = 0;
        for &r in members {
            let entries = a_ptr[r]..a_ptr[r + 1];
            for (&c, &v) in a_col[entries.clone()].iter().zip(&a_val[entries]) {
                let coarse_c = assign(c);
                if stamp[coarse_c] == self.epoch {
                    acc[coarse_c] += v;
                } else {
                    stamp[coarse_c] = self.epoch;
                    acc[coarse_c] = 0.0 + v;
                    self.touched[n_touched] = coarse_c;
                    n_touched += 1;
                }
            }
        }
        let mut emit = |c: usize| {
            if acc[c] != 0.0 {
                emit(c, acc[c]);
            }
        };
        if DENSE_ROW_SHARE * n_touched > n_coarse {
            (0..n_coarse)
                .filter(|&c| stamp[c] == self.epoch)
                .for_each(&mut emit);
        } else {
            let touched = &mut self.touched[..n_touched];
            touched.sort_unstable();
            touched.iter().copied().for_each(emit);
        }
    }

    /// [`RowSums::sum_row`] into `out`, overwritten.
    fn row_into(
        &mut self,
        a: &CsrMatrix,
        assign: impl Fn(usize) -> usize,
        n_coarse: usize,
        members: &[usize],
        out: &mut SummedRow,
    ) {
        out.cols.clear();
        out.vals.clear();
        self.sum_row(a, assign, n_coarse, members, |c, v| {
            out.cols.push(c);
            out.vals.push(v);
        });
    }
}

/// How a rebuild went: the levels it carried over from its base, and
/// where and why it ran the cold loop instead, if it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rebuild {
    /// Levels whose pairings were proven to hold: every level when
    /// nothing refused, else the levels above the refusing one.
    pub(crate) reused_levels: usize,
    /// The level the cold loop ran from, and why.
    pub(crate) fallback: Option<(usize, Refusal)>,
    /// Per level from the finest, while the levels keep the base's
    /// pattern: the rows whose values differ from the base level's.
    pub(crate) dirty_rows: Vec<Vec<usize>>,
}

impl Rebuild {
    pub(crate) fn carried(levels: usize, dirty_rows: Vec<Vec<usize>>) -> Self {
        Rebuild {
            reused_levels: levels,
            fallback: None,
            dirty_rows,
        }
    }

    pub(crate) fn fallback(level: usize, refusal: Refusal, dirty_rows: Vec<Vec<usize>>) -> Self {
        Rebuild {
            reused_levels: level,
            fallback: Some((level, refusal)),
            dirty_rows,
        }
    }
}

/// `true` when both slices hold the same values bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The rows, ascending, whose values differ bit for bit between `a`
/// and `b`, two matrices of one pattern. Blocks of values are compared
/// whole first; only a block that differs is looked into.
fn changed_rows(a: &CsrMatrix, b: &CsrMatrix) -> Vec<usize> {
    const BLOCK: usize = 64;
    let row_ptr = a.row_ptr();
    let mut rows: Vec<usize> = Vec::new();
    let blocks = a.values().chunks(BLOCK).zip(b.values().chunks(BLOCK));
    for (k, (x, y)) in blocks.enumerate() {
        let differs = |(x, y): (&f64, &f64)| x.to_bits() != y.to_bits();
        if !x.iter().zip(y).fold(false, |any, xy| any | differs(xy)) {
            continue;
        }
        for (at, _) in x.iter().zip(y).enumerate().filter(|&(_, xy)| differs(xy)) {
            let row = row_ptr.partition_point(|&p| p <= k * BLOCK + at) - 1;
            if rows.last() != Some(&row) {
                rows.push(row);
            }
        }
    }
    rows
}

impl SetupWorkspace {
    /// One level of [`AmgHierarchy::rebuild_in`]. The base level has
    /// operator `base`, first pairing `first`, composed aggregation
    /// `agg` and coarse operator `coarse`; `edited` has `base`'s
    /// pattern and differs from it only in the (ascending) rows
    /// `dirty`. Proves that `first` and the second pairing hold on
    /// `edited`, re-sums the coarse rows `dirty` falls in, and returns
    /// the edited coarse operator on `coarse`'s pattern (`coarse`
    /// itself when no bit changed) with the rows whose bits changed.
    #[allow(clippy::too_many_arguments)]
    fn carry(
        &mut self,
        base: &CsrMatrix,
        edited: &CsrMatrix,
        dirty: &[usize],
        first: &Pairing,
        agg: &Aggregation,
        coarse: &Arc<CsrMatrix>,
        theta: f64,
    ) -> Result<(Arc<CsrMatrix>, Vec<usize>), Refusal> {
        // The aggregates the dirty rows fall in with their members in
        // ascending order, and the second pairing (the aggregate of
        // each intermediate node), in one pass over the level.
        let mut touched: Vec<usize> = dirty.iter().map(|&i| agg.assign[i]).collect();
        touched.sort_unstable();
        touched.dedup();
        let mut slot = vec![usize::MAX; agg.n_coarse];
        for (k, &aggregate) in touched.iter().enumerate() {
            slot[aggregate] = k;
        }
        let mut members = vec![Members::default(); touched.len()];
        let mut second = vec![0; first.n_pairs];
        for (r, &aggregate) in agg.assign.iter().enumerate() {
            second[first.of(r)] = aggregate;
            if let Some(m) = members.get_mut(slot[aggregate]) {
                m.push(r);
            }
        }
        let f = |c: usize| first.of(c);
        // The fine rows of intermediate node `pair`, which lies in
        // touched aggregate `aggregate`.
        let rows_of = |pair: usize, aggregate: usize| {
            let mut rows = Members::default();
            for &r in members[slot[aggregate]].rows() {
                if f(r) == pair {
                    rows.push(r);
                }
            }
            rows
        };

        // The first pairing, on the dirty rows.
        let degree_on = |m: &CsrMatrix, r: usize| {
            let (cols, vals) = m.row(r);
            strength(r, cols, vals, theta).1
        };
        for &i in dirty {
            let pair = rows_of(f(i), agg.assign[i]);
            let partner = pair.rows().iter().copied().find(|&r| r != i);
            let partner = partner.map(|p| (p, degree_on(base, p)));
            keeps_its_pair(i, edited.row(i), degree_on(base, i), partner, f, theta)?;
        }

        // The intermediate rows the dirty rows fall in, on both
        // matrices: the ones whose bits differ are the second pairing's
        // dirty rows.
        self.sums.reserve(first.n_pairs);
        let (mut row, mut base_row) = (SummedRow::default(), SummedRow::default());
        let mut pairs: Vec<(usize, usize)> = dirty.iter().map(|&i| (f(i), agg.assign[i])).collect();
        pairs.sort_unstable();
        pairs.dedup();
        for &(pair, aggregate) in &pairs {
            let rows = rows_of(pair, aggregate);
            self.sums
                .row_into(edited, f, first.n_pairs, rows.rows(), &mut row);
            self.sums
                .row_into(base, f, first.n_pairs, rows.rows(), &mut base_row);
            if row.same_as(&base_row.cols, &base_row.vals) {
                continue;
            }
            let base_degree = strength(pair, &base_row.cols, &base_row.vals, theta).1;
            // The other intermediate node of `pair`'s aggregate, if any.
            let mut others = members[slot[aggregate]].rows().iter().map(|&r| f(r));
            let partner = others.find(|&p| p != pair).map(|p| {
                let rows = rows_of(p, aggregate);
                self.sums
                    .row_into(base, f, first.n_pairs, rows.rows(), &mut base_row);
                (p, strength(p, &base_row.cols, &base_row.vals, theta).1)
            });
            let s = |c: usize| second[c];
            keeps_its_pair(pair, (&row.cols, &row.vals), base_degree, partner, s, theta)?;
        }

        // The coarse rows, re-summed on the edited matrix.
        let a = |c: usize| agg.assign[c];
        let mut changed = Vec::new();
        let mut values: Option<Vec<f64>> = None;
        for (&k, rows) in touched.iter().zip(&members) {
            self.sums
                .row_into(edited, a, agg.n_coarse, rows.rows(), &mut row);
            let (base_cols, base_vals) = coarse.row(k);
            if row.cols != base_cols {
                return Err(Refusal::Pattern);
            }
            if !row.same_as(base_cols, base_vals) {
                let values = values.get_or_insert_with(|| coarse.values().to_vec());
                values[coarse.row_ptr()[k]..coarse.row_ptr()[k + 1]].copy_from_slice(&row.vals);
                changed.push(k);
            }
        }
        let Some(values) = values else {
            return Ok((Arc::clone(coarse), changed));
        };
        let edited_coarse =
            CsrMatrix::with_pattern_values(coarse, values).ok_or(Refusal::Pattern)?;
        Ok((Arc::new(edited_coarse), changed))
    }
}

/// The rows of one aggregate, ascending: at most four, two pairs.
#[derive(Debug, Clone, Copy, Default)]
struct Members {
    rows: [usize; 4],
    len: usize,
}

impl Members {
    fn push(&mut self, r: usize) {
        self.rows[self.len] = r;
        self.len += 1;
    }

    fn rows(&self) -> &[usize] {
        &self.rows[..self.len]
    }
}

/// One summed coarse row, in column order.
#[derive(Debug, Default)]
struct SummedRow {
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl SummedRow {
    /// `true` when this row has exactly these columns and value bits.
    fn same_as(&self, cols: &[usize], vals: &[f64]) -> bool {
        self.cols == cols && same_bits(&self.vals, vals)
    }
}

/// Restricts a fine-level vector into a caller-owned buffer
/// (overwritten): `r_c[a] = sum_{i in a} r[i]` (`r_c = P^T r`).
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
    /// solves are exact. The finest level holds `a` itself (one more
    /// reference to the caller's matrix): only the coarse operators
    /// are new allocations.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square, or if the coarsest operator is not
    /// positive definite (which indicates a non-SPD input).
    #[must_use]
    pub fn build(a: &Arc<CsrMatrix>, params: AmgParams) -> Self {
        Self::build_in(a, params, &mut SetupWorkspace::default())
    }

    /// [`AmgHierarchy::build`] on the caller's workspace, which
    /// afterwards says how long the pairings and the products took.
    pub(crate) fn build_in(a: &Arc<CsrMatrix>, params: AmgParams, ws: &mut SetupWorkspace) -> Self {
        assert_eq!(a.rows(), a.cols(), "amg: matrix must be square");
        Self::descend(Vec::new(), Arc::clone(a), params, ws)
    }

    /// The cold setup loop from `current`, the operator of level
    /// `levels.len()`, down to the coarse factor.
    fn descend(
        mut levels: Vec<Level>,
        mut current: Arc<CsrMatrix>,
        params: AmgParams,
        ws: &mut SetupWorkspace,
    ) -> Self {
        while current.rows() > params.coarse_limit && levels.len() + 1 < params.max_levels {
            let (agg, first) = ws.double_pairwise(&current, params.theta);
            if agg.n_coarse >= current.rows() {
                break; // aggregation stalled; stop coarsening
            }
            let coarse = ws.galerkin(&current, &agg);
            levels.push(Level {
                a: current,
                agg: Some(Arc::new(agg)),
                first: Some(Arc::new(first)),
            });
            current = Arc::new(coarse);
        }
        let coarse_n = current.rows();
        let coarse_chol = dense_cholesky(&current);
        levels.push(Level {
            a: current,
            agg: None,
            first: None,
        });
        AmgHierarchy {
            levels,
            params,
            coarse_chol,
            coarse_n,
        }
    }

    /// The hierarchy [`AmgHierarchy::build_in`] would build for `a`,
    /// a matrix on `base`'s finest pattern, reusing every level of
    /// `base` it can prove a cold build would reproduce bit for bit.
    ///
    /// Walking down from the rows of `a` whose values differ from the
    /// base's, each level proves both of its pairings still hold
    /// ([`keeps_its_pair`] on the dirty rows), re-sums only the coarse
    /// rows those rows fall in, and hands the coarse rows whose bits
    /// changed to the next level. Once no row differs, every remaining
    /// level and the coarse factor are the base's, shared. From the
    /// first level whose proof fails it runs the cold loop.
    pub(crate) fn rebuild_in(
        base: &AmgHierarchy,
        a: &Arc<CsrMatrix>,
        ws: &mut SetupWorkspace,
    ) -> (Self, Rebuild) {
        let params = base.params;
        let fine = &base.levels[0].a;
        if !a.same_pattern(fine) {
            let cold = Self::build_in(a, params, ws);
            return (cold, Rebuild::fallback(0, Refusal::Shape, Vec::new()));
        }
        let mut dirty = changed_rows(a, fine);
        let mut levels = Vec::with_capacity(base.levels.len());
        let mut dirty_rows = Vec::with_capacity(base.levels.len());
        let mut current = Arc::clone(a);
        for (l, lvl) in base.levels.iter().enumerate() {
            dirty_rows.push(dirty.clone());
            if dirty.is_empty() {
                // `current` has this level's bits, so every level below
                // and the coarse factor are the base's.
                levels.push(Level {
                    a: current,
                    ..lvl.clone()
                });
                levels.extend_from_slice(&base.levels[l + 1..]);
                let h = AmgHierarchy {
                    levels,
                    coarse_chol: base.coarse_chol.clone(),
                    ..*base
                };
                return (h, Rebuild::carried(base.levels.len(), dirty_rows));
            }
            let carried = match (&lvl.agg, &lvl.first) {
                (Some(agg), Some(first)) => {
                    let coarse = &base.levels[l + 1].a;
                    ws.carry(&lvl.a, &current, &dirty, first, agg, coarse, params.theta)
                }
                // The base's coarsest level: a cold build stops here too,
                // unless the base's own descent stalled here.
                _ if current.rows() > params.coarse_limit && l + 1 < params.max_levels => {
                    Err(Refusal::Shape)
                }
                _ => {
                    let coarse_chol = dense_cholesky(&current);
                    levels.push(Level {
                        a: current,
                        ..lvl.clone()
                    });
                    let h = AmgHierarchy {
                        levels,
                        coarse_chol,
                        ..*base
                    };
                    return (h, Rebuild::carried(base.levels.len(), dirty_rows));
                }
            };
            match carried {
                Ok((coarse, changed)) => {
                    levels.push(Level {
                        a: current,
                        ..lvl.clone()
                    });
                    (current, dirty) = (coarse, changed);
                }
                Err(refusal) => {
                    let cold = Self::descend(levels, current, params, ws);
                    return (cold, Rebuild::fallback(l, refusal, dirty_rows));
                }
            }
        }
        unreachable!("the base's coarsest level ends the walk")
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

    /// The dense Cholesky factor of the coarsest operator, row-major.
    #[cfg(test)]
    pub(crate) fn coarse_factor(&self) -> &[f64] {
        &self.coarse_chol
    }

    /// Operator complexity: total non-zeros across all levels divided
    /// by the finest-level non-zeros. A uniform 2-D Laplacian stays
    /// below 2; the benchmark's multi-layer power grids read 2.15-2.40
    /// at 24 k-91 k nodes, because from the third level on aggregation
    /// shrinks the rows but no longer the non-zeros (ROADMAP, "the
    /// hierarchy's plateau levels").
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
        let h = AmgHierarchy::build(&Arc::new(a.clone()), AmgParams::default());
        assert!(h.num_levels() >= 2);
        let coarsest = &h.levels().last().unwrap().a;
        assert!(coarsest.rows() <= AmgParams::default().coarse_limit);
    }

    #[test]
    fn the_finest_level_is_the_callers_matrix() {
        let a = Arc::new(laplacian_2d(20, 20));
        let h = AmgHierarchy::build(&a, AmgParams::default());
        assert!(Arc::ptr_eq(&h.levels()[0].a, &a));
        let setup = crate::Solver::new(crate::SolverKind::AmgPcg).prepare(&a);
        let levels = setup.amg_hierarchy().expect("an AMG setup").levels();
        assert!(Arc::ptr_eq(&levels[0].a, &a));
    }

    #[test]
    fn galerkin_preserves_symmetry() {
        let a = laplacian_2d(10, 10);
        let h = AmgHierarchy::build(&Arc::new(a.clone()), AmgParams::default());
        for level in h.levels() {
            assert!(level.a.is_symmetric(1e-12));
        }
    }

    #[test]
    fn operator_complexity_is_modest() {
        let a = laplacian_2d(24, 24);
        let h = AmgHierarchy::build(&Arc::new(a.clone()), AmgParams::default());
        assert!(h.operator_complexity() < 2.0, "{}", h.operator_complexity());
    }

    #[test]
    fn restrict_prolongate_are_transposes() {
        // <P^T r, e>_c == <r, P e>_f for arbitrary vectors.
        let a = laplacian_2d(6, 6);
        let agg = crate::amg::aggregation::aggregate_pairwise(&a, 0.25);
        let r: Vec<f64> = (0..36).map(|i| (i as f64).sin()).collect();
        let e: Vec<f64> = (0..agg.n_coarse).map(|i| (i as f64).cos()).collect();
        let mut rc = vec![f64::NAN; agg.n_coarse];
        restrict_into(&agg, &r, &mut rc);
        let lhs: f64 = rc.iter().zip(&e).map(|(a, b)| a * b).sum();
        let mut pe = vec![0.0; 36];
        prolongate_add(&agg, &e, &mut pe);
        let rhs: f64 = r.iter().zip(&pe).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn coarse_solve_is_exact() {
        let a = laplacian_2d(6, 6); // 36 <= coarse_limit: single level
        let h = AmgHierarchy::build(&Arc::new(a.clone()), AmgParams::default());
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
        use crate::solver::{Solver, SolverKind};

        let a = laplacian_2d(20, 20);
        let solver = Solver::new(SolverKind::AmgPcg);
        let base = solver.prepare(&Arc::new(a.clone()));

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

        let cold = AmgHierarchy::build(&Arc::new(edited.clone()), AmgParams::default());
        // Against its own base, and against an unrelated one.
        let other = solver.prepare(&Arc::new(laplacian_2d(15, 15)));
        for base in [&base, &other] {
            let warm = solver.rebuild_from(base, &Arc::new(edited.clone()));
            let warm = warm.amg_hierarchy().expect("an AMG setup");
            assert_eq!(warm.num_levels(), cold.num_levels());
            for (w, c) in warm.levels().iter().zip(cold.levels()) {
                assert_eq!(w.a, c.a, "rebuilt level operator differs");
                assert_eq!(w.agg, c.agg, "rebuilt aggregation differs");
            }
            assert_eq!(warm.coarse_chol, cold.coarse_chol);
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
