//! Compressed sparse row (CSR) matrix.

use std::sync::Arc;

/// Cuts `0..rows` into nnz-balanced chunks: each chunk accumulates at
/// least an autotuned cost budget (one unit per stored non-zero plus
/// one per row) before the next boundary. Returned in `row_ptr` style
/// (`[0, ..., rows]`), ready for
/// [`irf_runtime::par_ragged_chunks_mut`]. Skewed rows (a few dense
/// pad rows among thousands of sparse ones) therefore no longer
/// straggle one worker the way fixed row-count chunks did.
///
/// The per-chunk budget comes from
/// [`irf_runtime::autotuned_chunk_cost`], replacing the old fixed
/// 8192-unit threshold: million-node grids no longer shatter into
/// hundreds of thousands of dispatch-bound micro-chunks, and coarse
/// AMG levels no longer collapse to a single serial chunk. The budget
/// is a pure function of the matrix structure (total cost), never the
/// thread count, so chunk boundaries stay bitwise stable.
fn nnz_balanced_chunks(rows: usize, row_ptr: &[usize]) -> Vec<usize> {
    let total = row_ptr[rows] + rows;
    let budget = irf_runtime::autotuned_chunk_cost(total);
    let mut bounds = Vec::with_capacity(total / budget.max(1) + 2);
    bounds.push(0);
    let mut cost = 0usize;
    for r in 0..rows {
        cost += row_ptr[r + 1] - row_ptr[r] + 1;
        if cost >= budget {
            bounds.push(r + 1);
            cost = 0;
        }
    }
    if *bounds.last().expect("non-empty") != rows {
        bounds.push(rows);
    }
    bounds
}

/// Rows the default-build SpMV/residual kernel advances in lock-step
/// ([`CsrMatrix::rows_into`]). Chosen from a measurement, not an
/// option: EXPERIMENTS.md, "What a K-cycle iteration costs", times 1,
/// 2, 3, 4 and 8 on every level of a 28 k-node hierarchy and on the
/// whole 24-iteration solve (50.3 / 48.4 / 48.4 / 50.3 / 56.2 ms). Two
/// wins on the 50-120-long coarse rows where the solve spends its time
/// and costs the least on the 4-long fine rows; from four up the eight
/// slice pointers no longer fit the registers.
const ROW_GROUP: usize = 2;

/// Stores one row group's sums at `out[at..]`, subtracted from `b`
/// when the caller wants a residual.
#[inline(always)]
fn write_rows<const W: usize>(acc: &[f64; W], b: Option<&[f64]>, at: usize, out: &mut [f64]) {
    match b {
        Some(b) => {
            let mut l = 0;
            while l < W {
                out[at + l] = b[at + l] - acc[l];
                l += 1;
            }
        }
        None => out[at..at + W].copy_from_slice(acc),
    }
}

/// An immutable sparse matrix in compressed sparse row format.
///
/// This is the workhorse storage for the conductance systems produced
/// by modified nodal analysis. Column indices within each row are kept
/// sorted and unique, which the solvers and the AMG setup rely on.
///
/// The sparsity pattern (`row_ptr`, `col_idx` and the row chunks) sits
/// behind `Arc`s: a matrix re-stamped into an existing pattern
/// ([`crate::PatternScatter`]) owns only its values and shares the
/// pattern with its base, and cloning a matrix copies only the values.
///
/// # Example
///
/// ```
/// use irf_sparse::CsrMatrix;
///
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 1, 2.0)]);
/// let y = a.spmv(&[1.0, 1.0]);
/// assert_eq!(y, vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    row_ptr: Arc<[usize]>,
    /// Column indices, sorted within each row.
    col_idx: Arc<[usize]>,
    /// Non-zero values, parallel to `col_idx`.
    values: Vec<f64>,
    /// nnz-balanced row-chunk boundaries for the parallel kernels
    /// (`row_ptr` style), precomputed from the structure at
    /// construction.
    row_chunks: Arc<[usize]>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets, summing
    /// duplicates and dropping entries whose sum is exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if any triplet is out of bounds.
    #[must_use]
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        // Count entries per row (with duplicates) to size buckets.
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        // Bucket sort triplets into rows.
        let mut cursor = counts.clone();
        let mut entries: Vec<(usize, f64)> = vec![(0, 0.0); triplets.len()];
        for &(r, c, v) in triplets {
            entries[cursor[r]] = (c, v);
            cursor[r] += 1;
        }
        Self::from_bucketed(rows, cols, &counts, entries)
    }

    /// Finishes assembly from already row-bucketed `(col, value)`
    /// entries: `offsets` is a `rows + 1` prefix array delimiting each
    /// row's slice of `entries`, with entries in per-row insertion
    /// order. This is the shared back half of
    /// [`CsrMatrix::from_triplets`] and the two-pass
    /// [`crate::CsrAssembler`], so both produce bitwise-identical
    /// matrices from the same per-row entry sequences.
    ///
    /// Each row is sorted by column in parallel — one ragged piece per
    /// row, each sorted by the same serial routine, so the result is
    /// identical at any thread count. This is the dominant cost of
    /// assembly. The sort must be *stable*: duplicate (row, col)
    /// contributions then merge in insertion order, which is exactly
    /// the order [`crate::PatternScatter`] scatter-adds
    /// them — the bitwise-identity contract of
    /// incremental re-assembly. Duplicates are summed and exact-zero
    /// sums dropped.
    pub(crate) fn from_bucketed(
        rows: usize,
        cols: usize,
        offsets: &[usize],
        mut entries: Vec<(usize, f64)>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), rows + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), entries.len());
        irf_runtime::par_ragged_chunks_mut(&mut entries, offsets, |_r, row| {
            row.sort_by_key(|&(c, _)| c);
        });
        // Merge duplicates row by row (cheap linear scan).
        let mut row_ptr = vec![0usize; rows + 1];
        let mut out_c: Vec<usize> = Vec::with_capacity(entries.len());
        let mut out_v: Vec<f64> = Vec::with_capacity(entries.len());
        for r in 0..rows {
            let row = &entries[offsets[r]..offsets[r + 1]];
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = 0.0;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    out_c.push(c);
                    out_v.push(v);
                }
            }
            row_ptr[r + 1] = out_c.len();
        }
        drop(entries);
        Self::from_sorted_parts(rows, cols, row_ptr, out_c, out_v)
    }

    /// Wraps finished CSR arrays whose columns are already sorted and
    /// unique within each row: the tail of every constructor here and
    /// of the AMG Galerkin product, which emits its rows in order.
    pub(crate) fn from_sorted_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(row_ptr[rows], col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        let row_chunks = nnz_balanced_chunks(rows, &row_ptr).into();
        CsrMatrix {
            rows,
            cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values,
            row_chunks,
        }
    }

    /// Wraps a fully accumulated `values` array (parallel to
    /// `pattern`'s stored entries) in the pattern's structure, which
    /// the result shares with `pattern` rather than copies. Shared
    /// tail of the pattern-reuse assembly path
    /// ([`crate::PatternScatter`]).
    ///
    /// Returns `None` when any accumulated value is exactly `0.0`: a
    /// full assembly would have dropped that entry, so the true
    /// pattern differs (including slots nothing touched) and the fast
    /// path must decline.
    pub(crate) fn with_pattern_values(pattern: &CsrMatrix, values: Vec<f64>) -> Option<Self> {
        debug_assert_eq!(values.len(), pattern.nnz());
        if values.contains(&0.0) {
            return None;
        }
        Some(CsrMatrix {
            rows: pattern.rows,
            cols: pattern.cols,
            row_ptr: Arc::clone(&pattern.row_ptr),
            col_idx: Arc::clone(&pattern.col_idx),
            values,
            row_chunks: Arc::clone(&pattern.row_chunks),
        })
    }

    /// `true` when `other` has exactly this matrix's sparsity pattern
    /// (shape, row pointers and column indices) regardless of values.
    /// Two matrices that share one pattern answer without a scan.
    #[must_use]
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        if Arc::ptr_eq(&self.row_ptr, &other.row_ptr) && Arc::ptr_eq(&self.col_idx, &other.col_idx)
        {
            return true;
        }
        self.row_ptr == other.row_ptr && self.col_idx == other.col_idx
    }

    /// Builds an `n x n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self::from_sorted_parts(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// nnz-balanced row-chunk boundaries (`row_ptr` style) the parallel
    /// kernels partition on; also useful for callers running their own
    /// per-row parallel passes over this matrix.
    #[must_use]
    pub fn row_chunks(&self) -> &[usize] {
        &self.row_chunks
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`rows + 1` entries).
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[must_use]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `(cols, vals)` slice pair for one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.row_ptr[row], self.row_ptr[row + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Value at `(row, col)`, `0.0` if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&col) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix-vector product `y = A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Sparse matrix-vector product into a caller-owned buffer
    /// (`y = A * x`), avoiding an allocation in solver inner loops.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.rows, "spmv: y length mismatch");
        // Row-parallel over nnz-balanced ragged chunks: each output
        // element is produced by exactly one serial accumulation and
        // the chunk boundaries derive from the structure alone, so the
        // result is bitwise identical at any thread count. Matrices
        // below one chunk run inline.
        irf_runtime::par_ragged_chunks_mut(y, &self.row_chunks, |ci, yc| {
            self.rows_into(self.row_chunks[ci], x, None, yc);
        });
    }

    /// Residual `r = b - A*x` into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "residual: x length mismatch");
        assert_eq!(r.len(), self.rows, "residual: r length mismatch");
        assert_eq!(b.len(), self.rows, "residual: b length mismatch");
        irf_runtime::par_ragged_chunks_mut(r, &self.row_chunks, |ci, rc| {
            self.rows_into(self.row_chunks[ci], x, Some(b), rc);
        });
    }

    /// The row-group kernel behind [`CsrMatrix::spmv_into`] and
    /// [`CsrMatrix::residual_into`]: fills `out` with the sums of rows
    /// `base..base + out.len()` against `x` — or, given `b`, with
    /// `b[row] - sum`.
    ///
    /// [`ROW_GROUP`] consecutive rows advance in lock-step, one
    /// accumulator each, so the adds of one row's chain overlap the
    /// other rows' instead of waiting on their own previous add; rows
    /// longer than the group's shortest finish their tails one after
    /// another, and rows left over at the end of `out` go one at a
    /// time. Every row is still `acc = 0.0; acc += a_k * x[col_k]` in
    /// stored order, one rounded multiply and one rounded add a step,
    /// so how rows are grouped cannot show in the result: it equals
    /// [`CsrMatrix::rows_into_reference`] bit for bit.
    ///
    /// # Zero absorption
    ///
    /// A multiply by an all-zero vector can be skipped outright. With
    /// finite matrix entries (assembly guarantees them) every product
    /// `a_k * ±0.0` is `±0.0`, and under round-to-nearest an
    /// accumulator that starts at `+0.0` stays `+0.0` when one is added
    /// (`+0.0 + ±0.0 = +0.0`). So `A·0` is all `+0.0`, and `b - A·0`
    /// has the bits of `b`. The AMG pre-smoother
    /// (`smoother::sweep_from_zero`) and `pcg::pcg_with_guess` rest on
    /// it; DESIGN.md §8 states the contract.
    fn rows_into(&self, base: usize, x: &[f64], b: Option<&[f64]>, out: &mut [f64]) {
        let n = out.len();
        let ptr = &self.row_ptr[base..=base + n];
        let b = b.map(|b| &b[base..base + n]);
        let mut i = 0;
        while i + ROW_GROUP <= n {
            let acc = self.row_group::<ROW_GROUP>(&ptr[i..=i + ROW_GROUP], x);
            write_rows(&acc, b, i, out);
            i += ROW_GROUP;
        }
        while i < n {
            let acc = self.row_group::<1>(&ptr[i..=i + 1], x);
            write_rows(&acc, b, i, out);
            i += 1;
        }
    }

    /// The sums of the `W` consecutive rows delimited by `ptr` (`W + 1`
    /// row pointers) against `x`. Each row's `values`/`col_idx` are
    /// sliced once, and the lock-step part again to the shortest row's
    /// length, so the loops carry no check but the one on `x`. Index
    /// loops, not iterator adapters: the dev-profile test suite spends
    /// its solver time here.
    #[inline(always)]
    fn row_group<const W: usize>(&self, ptr: &[usize], x: &[f64]) -> [f64; W] {
        let mut vals: [&[f64]; W] = [&[]; W];
        let mut cols: [&[usize]; W] = [&[]; W];
        let mut shortest = usize::MAX;
        let mut l = 0;
        while l < W {
            vals[l] = &self.values[ptr[l]..ptr[l + 1]];
            cols[l] = &self.col_idx[ptr[l]..ptr[l + 1]];
            shortest = shortest.min(vals[l].len());
            l += 1;
        }
        let mut head_vals = vals;
        let mut head_cols = cols;
        let mut l = 0;
        while l < W {
            head_vals[l] = &vals[l][..shortest];
            head_cols[l] = &cols[l][..shortest];
            l += 1;
        }
        let mut acc = [0.0f64; W];
        let mut k = 0;
        while k < shortest {
            let mut l = 0;
            while l < W {
                acc[l] += head_vals[l][k] * x[head_cols[l][k]];
                l += 1;
            }
            k += 1;
        }
        let mut l = 0;
        while l < W {
            let mut k = shortest;
            while k < vals[l].len() {
                acc[l] += vals[l][k] * x[cols[l][k]];
                k += 1;
            }
            l += 1;
        }
        acc
    }

    /// The one-row-at-a-time loop [`CsrMatrix::spmv_into`] and
    /// [`CsrMatrix::residual_into`] ran before the row-group kernel,
    /// serial over all rows: `out[row] = sum` or, given `b`,
    /// `b[row] - sum`. Kept as the reference the parity tests hold the
    /// shipped kernels to; nothing in the program calls it.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    #[doc(hidden)]
    pub fn rows_into_reference(&self, x: &[f64], b: Option<&[f64]>, out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "reference: x length mismatch");
        assert_eq!(out.len(), self.rows, "reference: out length mismatch");
        for (row, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *o = match b {
                Some(b) => b[row] - acc,
                None => acc,
            };
        }
    }

    /// The diagonal of the matrix (zeros where no diagonal is stored).
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Transposed copy of the matrix.
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in self.col_idx.iter() {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let dst = cursor[c];
                col_idx[dst] = r;
                values[dst] = self.values[k];
                cursor[c] += 1;
            }
        }
        row_ptr.rotate_right(1);
        row_ptr[0] = 0;
        // Rebuild the proper prefix array.
        let mut rp = vec![0usize; self.cols + 1];
        for &c in self.col_idx.iter() {
            rp[c + 1] += 1;
        }
        for i in 0..self.cols {
            rp[i + 1] += rp[i];
        }
        Self::from_sorted_parts(self.cols, self.rows, rp, col_idx, values)
    }

    /// `true` if the matrix equals its transpose up to `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if (v - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
            self.col_idx[s..e]
                .iter()
                .zip(&self.values[s..e])
                .map(move |(&c, &v)| (r, c, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PatternScatter;

    /// Scatter-adds `triplets` into `pattern` ([`PatternScatter`]).
    fn scatter(pattern: &CsrMatrix, triplets: &[(usize, usize, f64)]) -> Option<CsrMatrix> {
        let mut scatter = PatternScatter::new(pattern);
        for &(r, c, v) in triplets {
            scatter.add(r, c, v);
        }
        scatter.finish()
    }

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

    #[test]
    fn from_triplets_sorts_and_merges() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.0), (0, 0, 3.0), (0, 2, 1.0)]);
        assert_eq!(a.row(0), (&[0usize, 2][..], &[3.0, 2.0][..]));
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn pattern_reuse_is_bitwise_identical_to_full_assembly() {
        // Duplicates with different magnitudes exercise the summation
        // order: stable-sorted merge and pattern scatter must agree.
        let t1 = [
            (0, 2, 0.1),
            (0, 0, 3.0),
            (0, 2, 0.2),
            (1, 1, 2.0),
            (0, 2, 0.3),
        ];
        let base = CsrMatrix::from_triplets(2, 3, &t1);
        let t2: Vec<_> = t1.iter().map(|&(r, c, v)| (r, c, v * 1.5)).collect();
        let fresh = CsrMatrix::from_triplets(2, 3, &t2);
        let reused = scatter(&base, &t2).expect("pattern matches");
        assert_eq!(fresh, reused);
        assert!(base.same_pattern(&reused));
    }

    #[test]
    fn a_restamp_shares_its_base_pattern() {
        let base = laplacian_1d(6);
        let t: Vec<_> = base.iter().map(|(r, c, v)| (r, c, v * 2.0)).collect();
        let restamped = scatter(&base, &t).expect("pattern matches");
        assert!(Arc::ptr_eq(&restamped.row_ptr, &base.row_ptr));
        assert!(Arc::ptr_eq(&restamped.col_idx, &base.col_idx));
        assert!(Arc::ptr_eq(&restamped.row_chunks, &base.row_chunks));
        assert!(base.same_pattern(&restamped));
        // A fresh assembly of the same entries owns its pattern, equal
        // in every bit to the shared one.
        let fresh = CsrMatrix::from_triplets(6, 6, &t);
        assert!(!Arc::ptr_eq(&fresh.col_idx, &base.col_idx));
        assert!(base.same_pattern(&fresh));
        assert_eq!(fresh, restamped);
    }

    #[test]
    fn pattern_reuse_declines_on_mismatch() {
        let base = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        // New entry outside the pattern.
        assert!(scatter(&base, &[(0, 1, 1.0)]).is_none());
        // Exact-zero sum: from_triplets would drop the entry.
        assert!(scatter(&base, &[(0, 0, 1.0), (0, 0, -1.0)]).is_none());
        // Untouched pattern slot stays 0.0: also a pattern change.
        assert!(scatter(&base, &[(0, 0, 2.0)]).is_none());
    }

    #[test]
    fn same_pattern_detects_structural_differences() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 0, 5.0), (1, 1, -2.0)]);
        let c = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 1, 1.0)]);
        assert!(a.same_pattern(&b));
        assert!(!a.same_pattern(&c));
    }

    #[test]
    fn identity_spmv_is_identity() {
        let a = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(a.spmv(&x), x);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = laplacian_1d(5);
        let x: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let y = a.spmv(&x);
        // dense check
        for (r, yr) in y.iter().enumerate() {
            let mut acc = 0.0;
            for (c, xc) in x.iter().enumerate() {
                acc += a.get(r, c) * xc;
            }
            assert!((yr - acc).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = CsrMatrix::from_triplets(3, 2, &[(0, 1, 1.0), (2, 0, -2.0), (1, 1, 5.0)]);
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_swaps_entries() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 7.0)]);
        let at = a.transpose();
        assert_eq!(at.get(1, 0), 7.0);
        assert_eq!(at.get(0, 1), 0.0);
    }

    #[test]
    fn symmetric_detection() {
        assert!(laplacian_1d(6).is_symmetric(0.0));
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(!a.is_symmetric(1e-12));
    }

    #[test]
    fn diagonal_extraction() {
        let a = laplacian_1d(3);
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn residual_is_zero_at_solution() {
        let a = CsrMatrix::identity(3);
        let b = vec![1.0, 2.0, 3.0];
        let mut r = vec![0.0; 3];
        a.residual_into(&b, &b, &mut r);
        assert!(r.iter().all(|v| v.abs() < 1e-15));
    }

    #[test]
    fn row_chunks_partition_all_rows() {
        // Skewed structure: one dense row among sparse ones.
        let mut t: Vec<(usize, usize, f64)> = (0..5000).map(|i| (i, i, 1.0)).collect();
        for c in 0..4000 {
            t.push((17, c, 0.5));
        }
        let a = CsrMatrix::from_triplets(5000, 5000, &t);
        let ch = a.row_chunks();
        assert_eq!(*ch.first().unwrap(), 0);
        assert_eq!(*ch.last().unwrap(), 5000);
        assert!(ch.windows(2).all(|w| w[0] < w[1]));
        assert!(ch.len() > 2, "skewed matrix should split into chunks");
        // spmv still matches the dense reference on the skewed matrix.
        let x: Vec<f64> = (0..5000).map(|i| f64::from(i as u32 % 13) - 6.0).collect();
        let y = a.spmv(&x);
        // Row 17: 0.5 on cols 0..4000 plus the 1.0 diagonal (merged).
        let dense17: f64 = (0..4000).map(|c| 0.5 * x[c]).sum::<f64>() + x[17];
        assert!((y[17] - dense17).abs() < 1e-9);
        assert!((y[40] - x[40]).abs() < 1e-15);
    }

    /// A matrix no assembly path would build, for the kernels alone:
    /// row lengths drawn from `lengths`, explicit stored `0.0`/`-0.0`
    /// and subnormal values among ordinary ones, and row chunks of
    /// `chunk_rows` rows whatever their cost.
    fn ragged(rows: usize, lengths: &[usize], chunk_rows: usize, seed: u64) -> CsrMatrix {
        let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
        let cols = 257;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for _ in 0..rows {
            let len = lengths[(rng.next_u64() % lengths.len() as u64) as usize];
            // `len` distinct sorted columns: a random start, unit steps.
            let start = (rng.next_u64() % (cols - len + 1) as u64) as usize;
            for c in start..start + len {
                col_idx.push(c);
                values.push(match rng.next_u64() % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 3.0e-310,
                    _ => rng.random::<f64>() * 4.0 - 2.0,
                });
            }
            row_ptr.push(col_idx.len());
        }
        let mut row_chunks: Vec<usize> = (0..rows).step_by(chunk_rows).collect();
        row_chunks.push(rows);
        CsrMatrix {
            rows,
            cols,
            row_ptr: row_ptr.into(),
            col_idx: col_idx.into(),
            values,
            row_chunks: row_chunks.into(),
        }
    }

    /// A vector of ordinary values salted with both zeros and a
    /// subnormal.
    fn salted(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
        (0..n)
            .map(|_| match rng.next_u64() % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => -2.0e-311,
                _ => rng.random::<f64>() * 2.0 - 1.0,
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_group_kernel_equals_the_one_row_loop_bit_for_bit() {
        let mixed = [0, 1, 2, 3, 5, 64, 200];
        // (rows, lengths, rows per chunk): chunks that are and are not
        // a multiple of the group width, a last chunk of one row,
        // matrices shorter than one group, no rows at all.
        let cases: [(usize, &[usize], usize); 8] = [
            (97, &mixed, 7),
            (64, &mixed, 8),
            (33, &mixed, 1),
            (50, &[200], 3),
            (41, &[0, 1], 5),
            (1, &[64], 4),
            (1, &[0], 1),
            (0, &mixed, 3),
        ];
        for (case, &(rows, lengths, chunk_rows)) in cases.iter().enumerate() {
            let a = ragged(rows, lengths, chunk_rows, 0xC5_00 + case as u64);
            let x = salted(a.cols, 0xC5_10 + case as u64);
            let b = salted(a.rows, 0xC5_20 + case as u64);
            let mut want_y = vec![f64::NAN; rows];
            let mut want_r = vec![f64::NAN; rows];
            a.rows_into_reference(&x, None, &mut want_y);
            a.rows_into_reference(&x, Some(&b), &mut want_r);

            // The public entries run the kernel chunk by chunk, at
            // every thread count.
            for threads in [1, 2, 4, 8] {
                irf_runtime::set_num_threads(threads);
                let (mut y, mut r) = (vec![f64::NAN; rows], vec![f64::NAN; rows]);
                a.spmv_into(&x, &mut y);
                a.residual_into(&b, &x, &mut r);
                irf_runtime::set_num_threads(0);
                assert_eq!(
                    bits(&y),
                    bits(&want_y),
                    "case {case}: spmv, {threads} threads"
                );
                assert_eq!(
                    bits(&r),
                    bits(&want_r),
                    "case {case}: residual, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = laplacian_1d(3);
        assert_eq!(a.iter().count(), a.nnz());
        let sum: f64 = a.iter().map(|(_, _, v)| v).sum();
        assert!((sum - 2.0).abs() < 1e-14); // 3*2 - 4*1
    }
}
