//! SELL-4 (sliced ELLPACK) companion storage for the SIMD SpMV path.
//!
//! [`SellPlan`] repacks a [`CsrMatrix`](crate::CsrMatrix)'s non-zeros
//! into groups of 4 consecutive rows, transposed slot-major and padded
//! to the longest row in each group, so an AVX2 kernel can advance all
//! 4 rows with one 256-bit value load, one index load and one gather
//! per step. Groups never straddle the matrix's nnz-balanced
//! `row_chunks` boundaries — those boundaries derive from the structure
//! alone, so the grouping (and therefore the result) is identical at
//! any thread count.
//!
//! # Bitwise-determinism contract
//!
//! Per output row the kernel performs the exact scalar sequence
//! `acc = 0.0; acc += a_k * x[col_k]` in stored order — one rounded
//! multiply and one rounded add per step, no FMA, no reassociation —
//! which is also what the default build's safe-Rust row-group kernel
//! (`CsrMatrix::rows_into`, two rows in lock-step) does per row, so
//! the two agree bit for bit however either groups its rows.
//! Padding slots hold value `0.0` / column `0`, appended *after* the
//! row's real entries; they add `0.0 * x[0]` (which is `±0.0`) to an
//! accumulator that is either still `+0.0` or already past its real
//! entries. Under round-to-nearest a finite accumulator can only be
//! `+0.0` or non-zero at that point (`+0.0 + ±0.0 = +0.0`, and
//! `a + (-a) = +0.0` for finite `a`), and `acc + ±0.0` is then the
//! bitwise identity — so pads never change the result. The solvers
//! uphold the remaining precondition (finite `x`); NaN/inf inputs
//! propagate exactly as in the scalar loop on x86.
//!
//! The same absorption is why a multiply by an all-zero vector can be
//! skipped outright: with finite matrix entries (assembly guarantees
//! them) every product `a_k * ±0.0` is `±0.0`, the accumulator stays
//! `+0.0`, and `b - A·0` has the bits of `b`. The AMG pre-smoother
//! (`smoother::sweep_from_zero`) and `pcg_with_guess` rest
//! on it; DESIGN.md §8 states the contract.
//!
//! The plan is built lazily on the first SIMD-dispatched kernel call
//! and cached on the matrix (`OnceLock`); cloning a matrix shares the
//! plan (values are immutable), while value-rebuilding constructors
//! start with an empty cache.

// In the default build (safe Rust only: the row-group kernel in
// `csr.rs`) the plan type is compiled but the kernels that consume it
// are not.
#![cfg_attr(not(feature = "simd"), allow(dead_code))]

/// SELL-4 repacking of a CSR matrix, ready for 4-wide f64 kernels.
#[derive(Debug, Clone)]
pub(crate) struct SellPlan {
    /// Group storage: per group `len * 4` values, slot-major (step 0
    /// lanes 0..4, step 1 lanes 0..4, ...). Pads are `0.0`.
    vals: Vec<f64>,
    /// Column indices parallel to `vals`, as `i32` for the AVX2
    /// gather — half the memory traffic of the natural `usize`, which
    /// matters because SpMV is bandwidth-bound. Pads are `0`.
    cols: Vec<i32>,
    /// Per-group offsets into `vals`/`cols` (`n_groups + 1` entries).
    group_ptr: Vec<usize>,
    /// First group index of each row chunk (`n_chunks + 1` entries);
    /// groups cover up to 4 consecutive rows and never cross a chunk
    /// boundary.
    chunk_groups: Vec<usize>,
}

impl SellPlan {
    /// Repacks CSR arrays into SELL-4 groups aligned to `row_chunks`.
    pub(crate) fn build(
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f64],
        row_chunks: &[usize],
    ) -> Self {
        let n_chunks = row_chunks.len() - 1;
        let mut chunk_groups = Vec::with_capacity(n_chunks + 1);
        chunk_groups.push(0usize);
        let mut group_ptr = vec![0usize];
        let mut total = 0usize;
        for ci in 0..n_chunks {
            let (base, end) = (row_chunks[ci], row_chunks[ci + 1]);
            let mut r = base;
            while r < end {
                let gend = (r + 4).min(end);
                let len = (r..gend)
                    .map(|row| row_ptr[row + 1] - row_ptr[row])
                    .max()
                    .unwrap_or(0);
                total += len * 4;
                group_ptr.push(total);
                r = gend;
            }
            chunk_groups.push(group_ptr.len() - 1);
        }
        let mut vals = vec![0.0f64; total];
        let mut cols = vec![0i32; total];
        let mut g = 0usize;
        for ci in 0..n_chunks {
            let (base, end) = (row_chunks[ci], row_chunks[ci + 1]);
            let mut r = base;
            while r < end {
                let gend = (r + 4).min(end);
                let off = group_ptr[g];
                for lane in 0..gend - r {
                    let row = r + lane;
                    for (step, k) in (row_ptr[row]..row_ptr[row + 1]).enumerate() {
                        vals[off + step * 4 + lane] = values[k];
                        cols[off + step * 4 + lane] = col_idx[k] as i32;
                    }
                }
                g += 1;
                r = gend;
            }
        }
        SellPlan {
            vals,
            cols,
            group_ptr,
            chunk_groups,
        }
    }
}

/// AVX2 SpMV / residual over one row chunk: `out[i] = Σ a_row * x`
/// (or `b[row] - Σ` when `b` is given). `out` is the chunk's slice of
/// the destination vector; `base` is the chunk's first absolute row
/// (used to index `b`).
///
/// # Safety
///
/// Caller must ensure AVX2 is available (gated on
/// [`irf_runtime::simd::enabled`]) and that `plan` was built from the
/// same matrix the chunk geometry refers to.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn spmv_chunk_avx2(
    plan: &SellPlan,
    ci: usize,
    base: usize,
    x: &[f64],
    out: &mut [f64],
    b: Option<&[f64]>,
) {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_i32gather_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm_loadu_si128,
    };
    let xp = x.as_ptr();
    // One fused step: `acc += vals[s] * x[cols[s]]` for a group's 4
    // lanes — one 32B value load, one 16B i32 index load, one gather.
    let step = |vp: *const f64, cp: *const i32, s: usize, acc: __m256d| -> __m256d {
        let idx = _mm_loadu_si128(cp.add(s * 4).cast());
        let xv = _mm256_i32gather_pd::<8>(xp, idx);
        _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(vp.add(s * 4)), xv))
    };
    let g0 = plan.chunk_groups[ci];
    let g1 = plan.chunk_groups[ci + 1];
    let mut accs = vec![_mm256_setzero_pd(); g1 - g0];
    // Pass 1: accumulate pairs of groups interleaved. Groups cover
    // disjoint rows, so interleaving hides the per-group add-latency
    // chain without touching any single row's rounding order.
    let mut g = g0;
    while g + 2 <= g1 {
        let (off_a, off_b) = (plan.group_ptr[g], plan.group_ptr[g + 1]);
        let len_a = (off_b - off_a) / 4;
        let len_b = (plan.group_ptr[g + 2] - off_b) / 4;
        let (vp_a, cp_a) = (plan.vals.as_ptr().add(off_a), plan.cols.as_ptr().add(off_a));
        let (vp_b, cp_b) = (plan.vals.as_ptr().add(off_b), plan.cols.as_ptr().add(off_b));
        let mut acc_a = _mm256_setzero_pd();
        let mut acc_b = _mm256_setzero_pd();
        let both = len_a.min(len_b);
        for s in 0..both {
            acc_a = step(vp_a, cp_a, s, acc_a);
            acc_b = step(vp_b, cp_b, s, acc_b);
        }
        for s in both..len_a {
            acc_a = step(vp_a, cp_a, s, acc_a);
        }
        for s in both..len_b {
            acc_b = step(vp_b, cp_b, s, acc_b);
        }
        accs[g - g0] = acc_a;
        accs[g + 1 - g0] = acc_b;
        g += 2;
    }
    if g < g1 {
        let off = plan.group_ptr[g];
        let len = (plan.group_ptr[g + 1] - off) / 4;
        let (vp, cp) = (plan.vals.as_ptr().add(off), plan.cols.as_ptr().add(off));
        let mut acc = _mm256_setzero_pd();
        for s in 0..len {
            acc = step(vp, cp, s, acc);
        }
        accs[g - g0] = acc;
    }
    // Pass 2: write the accumulated row sums out.
    let mut row0 = 0usize;
    for g in g0..g1 {
        let acc = accs[g - g0];
        let nrows = (out.len() - row0).min(4);
        if let Some(b) = b {
            let bp = b.as_ptr().add(base + row0);
            if nrows == 4 {
                let bv = _mm256_loadu_pd(bp);
                _mm256_storeu_pd(out.as_mut_ptr().add(row0), _mm256_sub_pd(bv, acc));
            } else {
                let mut tmp = [0.0f64; 4];
                _mm256_storeu_pd(tmp.as_mut_ptr(), acc);
                for (l, &t) in tmp.iter().take(nrows).enumerate() {
                    out[row0 + l] = *bp.add(l) - t;
                }
            }
        } else if nrows == 4 {
            _mm256_storeu_pd(out.as_mut_ptr().add(row0), acc);
        } else {
            let mut tmp = [0.0f64; 4];
            _mm256_storeu_pd(tmp.as_mut_ptr(), acc);
            out[row0..row0 + nrows].copy_from_slice(&tmp[..nrows]);
        }
        row0 += nrows;
    }
}

/// AVX2 diagonal-scaled Jacobi update over one chunk:
/// `x[i] += omega * r[i] / diag[i]`, elementwise — each element is one
/// rounded multiply, one rounded divide and one rounded add, the exact
/// scalar sequence. The caller has already checked `diag` for zeros
/// (`smoother::assert_nonzero_diagonal`).
///
/// # Safety
///
/// Caller must ensure AVX2 is available (gated on
/// [`irf_runtime::simd::enabled`]). `r` and `diag` must be at least as
/// long as `xc`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn scaled_update_chunk_avx2(xc: &mut [f64], r: &[f64], diag: &[f64], omega: f64) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_storeu_pd,
    };
    let n = xc.len();
    let om = _mm256_set1_pd(omega);
    let mut i = 0usize;
    while i + 4 <= n {
        let dv = _mm256_loadu_pd(diag.as_ptr().add(i));
        let rv = _mm256_loadu_pd(r.as_ptr().add(i));
        let t = _mm256_div_pd(_mm256_mul_pd(om, rv), dv);
        let xv = _mm256_loadu_pd(xc.as_ptr().add(i));
        _mm256_storeu_pd(xc.as_mut_ptr().add(i), _mm256_add_pd(xv, t));
        i += 4;
    }
    while i < n {
        xc[i] += omega * r[i] / diag[i];
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_groups_align_to_chunks() {
        // 6 rows split into chunks [0, 5, 6]: groups must be
        // {0..4}, {4..5}, {5..6} — never straddling row 5.
        let row_ptr = [0usize, 1, 2, 3, 4, 5, 6];
        let col_idx = [0usize, 1, 2, 3, 4, 5];
        let values = [1.0f64; 6];
        let chunks = [0usize, 5, 6];
        let plan = SellPlan::build(&row_ptr, &col_idx, &values, &chunks);
        assert_eq!(plan.chunk_groups, vec![0, 2, 3]);
        assert_eq!(plan.group_ptr, vec![0, 4, 8, 12]);
        // Lane 0 of group 0, step 0 is row 0's single entry.
        assert_eq!(plan.vals[0], 1.0);
        assert_eq!(plan.cols[0], 0);
    }

    #[test]
    fn plan_pads_short_rows_with_zero() {
        // Rows of length 2 and 0 in one group: padded to len 2.
        let row_ptr = [0usize, 2, 2];
        let col_idx = [0usize, 1];
        let values = [3.0f64, 4.0];
        let chunks = [0usize, 2];
        let plan = SellPlan::build(&row_ptr, &col_idx, &values, &chunks);
        assert_eq!(plan.group_ptr, vec![0, 8]);
        // Slot-major: step 0 = [3.0, 0, 0, 0], step 1 = [4.0, 0, 0, 0].
        assert_eq!(plan.vals[0], 3.0);
        assert_eq!(plan.vals[4], 4.0);
        assert!(plan.vals[1..4].iter().all(|&v| v == 0.0));
        assert!(plan.cols[1..4].iter().all(|&c| c == 0));
    }
}
