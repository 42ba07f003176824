//! AVX2 f32 kernel for the linear forward hot loop.
//!
//! Compiled only with the `simd` feature on x86-64 and dispatched at
//! run time via [`irf_runtime::simd::enabled`]. The kernel performs
//! the exact per-element rounding sequence of its scalar counterpart —
//! one rounded multiply and one rounded add per step, no FMA, no
//! reassociation — vectorizing *across* output elements, so scalar and
//! SIMD results are bitwise identical. (conv2d needs no intrinsics: its
//! stride-1 kernel in `tape.rs` is safe Rust that LLVM vectorizes in
//! every build, and measured faster than the AVX2 axpy that used to
//! live here — EXPERIMENTS.md, "SIMD kernel speed".)
#![cfg(all(feature = "simd", target_arch = "x86_64"))]
#![allow(unsafe_code)]

use std::arch::x86_64::{
    _mm256_add_ps, _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_mul_ps,
    _mm256_set1_ps, _mm256_storeu_ps,
};

/// One sample-row of the dense linear layer: `orow[oi] = bd[oi] +
/// Σ_c wd[oi*c + cj] * xrow[cj]` for all `o` outputs, vectorized 8
/// outputs at a time (strided weight rows read with a gather), scalar
/// tail for the remainder. Per output the accumulation order over `c`
/// is exactly the scalar loop's.
///
/// # Safety
///
/// Caller must ensure AVX2 is available; `wd` must hold `orow.len() *
/// xrow.len()` weights and the row stride `c == xrow.len()` must fit
/// in `i32` (gather offsets).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn linear_row(orow: &mut [f32], xrow: &[f32], wd: &[f32], bd: &[f32]) {
    let o = orow.len();
    let c = xrow.len();
    debug_assert!(wd.len() >= o * c);
    debug_assert!(bd.len() >= o);
    debug_assert!(o.checked_mul(c).is_some_and(|t| t <= i32::MAX as usize));
    let mut oi = 0usize;
    while oi + 8 <= o {
        let mut acc = _mm256_loadu_ps(bd.as_ptr().add(oi));
        // Weight rows for outputs oi..oi+8 start at (oi+l)*c.
        let base = (oi * c) as i32;
        let ci32 = c as i32;
        let idx: [i32; 8] = [
            base,
            base + ci32,
            base + 2 * ci32,
            base + 3 * ci32,
            base + 4 * ci32,
            base + 5 * ci32,
            base + 6 * ci32,
            base + 7 * ci32,
        ];
        let iv = _mm256_loadu_si256(idx.as_ptr().cast());
        for (cj, &xv) in xrow.iter().enumerate() {
            let wv = _mm256_i32gather_ps::<4>(wd.as_ptr().add(cj), iv);
            let xb = _mm256_set1_ps(xv);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wv, xb));
        }
        _mm256_storeu_ps(orow.as_mut_ptr().add(oi), acc);
        oi += 8;
    }
    while oi < o {
        let mut acc = bd[oi];
        let wrow = oi * c;
        for (cj, &xv) in xrow.iter().enumerate() {
            acc += wd[wrow + cj] * xv;
        }
        orow[oi] = acc;
        oi += 1;
    }
}
