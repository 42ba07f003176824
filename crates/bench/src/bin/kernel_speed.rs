//! Single-thread kernel speed: reference vs fast for the forward hot
//! kernels — conv2d, dense linear, CSR SpMV and the
//! l1-Jacobi smoother sweep.
//!
//! ```bash
//! cargo run -p irf-bench --release --features simd --bin kernel_speed -- [--tiny]
//! ```
//!
//! Every other perf number lives in `irf-benchmark` (`BENCHMARK.json`),
//! but the benchmark compiles the default build only: this is the one
//! instrument that times the non-default `simd` build, whose numbers
//! the open "decide `simd`" question needs. Its bitwise legs are the
//! same oracles the `simd_parity` tests hold the kernels to.
//!
//! For conv2d the reference is the general bounds-checked loop nest and
//! the fast leg the stride-1 run kernel every build dispatches to (safe
//! Rust, no intrinsics, so it runs with or without the `simd` feature).
//! For SpMV and the smoother the reference is the one-row-at-a-time
//! loop the solver ran before its row-group kernel
//! (`CsrMatrix::rows_into_reference`) and the fast leg what the build
//! ships: the row-group kernel by default, the AVX2 SELL-4 kernel with
//! the `simd` feature and AVX2 at run time — and then the row-group
//! kernel's time is printed beside it ("scalar" column), because that
//! is what AVX2 has to beat. Both run on a 5-point Laplacian (the fine
//! level) and on a coarse-level-shaped matrix (~600 ragged rows of ~50
//! non-zeros, where a K-cycle spends most of its time). For linear the
//! reference is the scalar loop and the fast leg its AVX2 variant.
//! Every kernel is checksum-asserted: the fast leg must be bitwise
//! identical to the reference (the kernels vectorize across outputs but
//! keep each output's rounding sequence) — the benchmark fails
//! otherwise. Speedups are printed, never gated.

use irf_nn::{Tape, Tensor};
use irf_sparse::smoother::{l1_diagonal, l1_jacobi};
use irf_sparse::CsrMatrix;
use std::time::Instant;

fn checksum64(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0u64, |h, v| h.rotate_left(7) ^ v)
}

fn rand_tensor(shape: [usize; 4], seed: u64) -> Tensor {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
    let n = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..n).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect(),
    )
}

/// One timed leg: median-free simple total over `reps` runs plus a
/// checksum of the final output bits.
struct Leg {
    seconds: f64,
    checksum: u64,
}

fn time_leg(reps: usize, mut run: impl FnMut() -> u64) -> Leg {
    let mut checksum = run(); // warm-up (builds lazy plans, touches caches)
    let start = Instant::now();
    for _ in 0..reps {
        checksum = run();
    }
    Leg {
        seconds: start.elapsed().as_secs_f64() / reps as f64,
        checksum,
    }
}

/// Whether the SIMD path can actually execute in this build/machine.
fn simd_available() -> bool {
    irf_runtime::simd::compiled() && {
        irf_runtime::simd::set_disabled(false);
        irf_runtime::simd::enabled()
    }
}

struct Row {
    kernel: &'static str,
    /// The reference leg: scalar loop (conv2d: general loop nest;
    /// spmv/smoother: the old one-row loop).
    scalar: Leg,
    /// The fast leg: what the build ships, when it differs from the
    /// reference and can run on this machine.
    simd: Option<Leg>,
    /// The shipped safe-Rust kernel, where an AVX2 one is the fast leg.
    shipped_scalar: Option<Leg>,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.simd.as_ref().map(|s| self.scalar.seconds / s.seconds)
    }
}

/// 3x3 conv2d forward (the zoo's dominant op): the general loop nest
/// called directly against the stride-1 kernel through the tape.
fn bench_conv(tiny: bool) -> Row {
    let (hw, reps) = if tiny { (24, 3) } else { (72, 10) };
    let x = rand_tensor([2, 8, hw, hw], 1);
    let w = rand_tensor([16, 8, 3, 3], 2);
    let b = rand_tensor([1, 16, 1, 1], 3);
    let general = time_leg(reps, || {
        let y = irf_nn::tape::conv2d_forward_reference(&x, &w, &b, 1, 1, 1);
        checksum64(y.data().iter().map(|v| u64::from(v.to_bits())))
    });
    let stride1 = time_leg(reps, || {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let wn = tape.input(w.clone());
        let bn = tape.input(b.clone());
        let y = tape.conv2d(xn, wn, bn, 1, 1);
        checksum64(tape.value(y).data().iter().map(|v| u64::from(v.to_bits())))
    });
    Row {
        kernel: "conv2d",
        scalar: general,
        simd: Some(stride1),
        shipped_scalar: None,
    }
}

/// Dense linear head forward through the tape.
fn bench_linear(tiny: bool) -> Row {
    let (c, reps) = if tiny { (96, 5) } else { (256, 20) };
    let x = rand_tensor([64, c, 1, 1], 4);
    let w = rand_tensor([c, c, 1, 1], 5);
    let b = rand_tensor([1, c, 1, 1], 6);
    let fwd = || {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let wn = tape.input(w.clone());
        let bn = tape.input(b.clone());
        let y = tape.linear(xn, wn, bn);
        checksum64(tape.value(y).data().iter().map(|v| u64::from(v.to_bits())))
    };
    irf_runtime::simd::set_disabled(true);
    let scalar = time_leg(reps, fwd);
    let simd = simd_available().then(|| time_leg(reps, fwd));
    Row {
        kernel: "linear",
        scalar,
        simd,
        shipped_scalar: None,
    }
}

/// A 5-point Laplacian on an n x n grid — the MNA-like operator the
/// solver kernels actually see.
fn laplacian(n: usize) -> CsrMatrix {
    let idx = |i: usize, j: usize| i * n + j;
    let mut triplets = Vec::with_capacity(5 * n * n);
    for i in 0..n {
        for j in 0..n {
            let r = idx(i, j);
            triplets.push((r, r, 4.0));
            if i > 0 {
                triplets.push((r, idx(i - 1, j), -1.0));
            }
            if i + 1 < n {
                triplets.push((r, idx(i + 1, j), -1.0));
            }
            if j > 0 {
                triplets.push((r, idx(i, j - 1), -1.0));
            }
            if j + 1 < n {
                triplets.push((r, idx(i, j + 1), -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n * n, n * n, &triplets)
}

fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| f64::from(rng.random::<f32>()) * 2.0 - 1.0)
        .collect()
}

/// The shape of a coarse AMG level: `rows` ragged rows of 30-70
/// non-zeros scattered over all columns, diagonally dominant.
fn coarse_like(rows: usize, seed: u64) -> CsrMatrix {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
    let mut triplets = Vec::with_capacity(rows * 51);
    for r in 0..rows {
        let len = 30 + (rng.next_u64() % 41) as usize;
        let stride = 1 + (rng.next_u64() % 7) as usize;
        for j in 1..len {
            let c = (r + j * stride) % rows;
            if c != r {
                triplets.push((r, c, -(0.1 + f64::from(rng.random::<f32>()))));
            }
        }
        triplets.push((r, r, 2.0 * len as f64));
    }
    CsrMatrix::from_triplets(rows, rows, &triplets)
}

/// The two matrix shapes a solve multiplies by, with the factor by
/// which the small coarse one needs more repetitions for a stable time.
fn shapes(tiny: bool) -> [(CsrMatrix, usize); 2] {
    let n = if tiny { 64 } else { 224 };
    [(laplacian(n), 1), (coarse_like(600, 9), 8)]
}

/// Times `run` as the reference (`use_reference = true` is passed to
/// it), as the shipped safe-Rust kernel, and as AVX2 when that can run.
fn three_legs(kernel: &'static str, reps: usize, mut run: impl FnMut(bool) -> u64) -> Row {
    irf_runtime::simd::set_disabled(true);
    let reference = time_leg(reps, || run(true));
    let row_group = time_leg(reps, || run(false));
    let avx2 = simd_available().then(|| time_leg(reps, || run(false)));
    let (fast, shipped_scalar) = match avx2 {
        Some(avx2) => (avx2, Some(row_group)),
        None => (row_group, None),
    };
    Row {
        kernel,
        scalar: reference,
        simd: Some(fast),
        shipped_scalar,
    }
}

fn bench_spmv(tiny: bool) -> Vec<Row> {
    let names = ["spmv", "spmv-coarse"];
    shapes(tiny)
        .iter()
        .zip(names)
        .map(|((a, more), name)| {
            let reps = if tiny { 20 } else { 100 } * more;
            let x = rand_vec(a.cols(), 7);
            let mut y = vec![0.0; a.rows()];
            three_legs(name, reps, |use_reference| {
                if use_reference {
                    a.rows_into_reference(&x, None, &mut y);
                } else {
                    a.spmv_into(&x, &mut y);
                }
                checksum64(y.iter().map(|v| v.to_bits()))
            })
        })
        .collect()
}

/// l1-Jacobi sweeps with every residual through the old one-row loop:
/// how `l1_jacobi` computed before the row-group kernel (its damping
/// factor is 1, and `1.0 * r` is `r` exactly).
fn l1_jacobi_reference(a: &CsrMatrix, b: &[f64], x: &mut [f64], sweeps: usize) {
    let diag = l1_diagonal(a);
    let mut r = vec![0.0; a.rows()];
    for _ in 0..sweeps {
        a.rows_into_reference(x, Some(b), &mut r);
        for ((xi, ri), di) in x.iter_mut().zip(&r).zip(&diag) {
            *xi += ri / di;
        }
    }
}

fn bench_smoother(tiny: bool) -> Vec<Row> {
    let names = ["smoother", "smoother-coarse"];
    shapes(tiny)
        .iter()
        .zip(names)
        .map(|((a, more), name)| {
            let reps = if tiny { 10 } else { 50 } * more;
            let b = rand_vec(a.rows(), 8);
            three_legs(name, reps, |use_reference| {
                // Fresh x per run so every sweep does identical work.
                let mut x = vec![0.0; a.rows()];
                if use_reference {
                    l1_jacobi_reference(a, &b, &mut x, 4);
                } else {
                    l1_jacobi(a, &b, &mut x, 4);
                }
                checksum64(x.iter().map(|v| v.to_bits()))
            })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    // Single-thread: the speedups compared are per-core.
    irf_runtime::set_num_threads(1);
    println!(
        "kernel_speed: single-thread reference vs fast ({}, simd compiled: {})",
        if tiny { "tiny" } else { "full" },
        irf_runtime::simd::compiled(),
    );

    let mut rows = vec![bench_conv(tiny), bench_linear(tiny)];
    rows.extend(bench_spmv(tiny));
    rows.extend(bench_smoother(tiny));
    // Leave the process-global switch as the build default.
    irf_runtime::simd::set_disabled(false);

    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "kernel", "ref (ms)", "fast (ms)", "speedup", "scalar (ms)", "checksum"
    );
    for row in &rows {
        if let Some(simd) = &row.simd {
            assert_eq!(
                row.scalar.checksum, simd.checksum,
                "{}: fast output is not bitwise identical to the reference",
                row.kernel
            );
        }
        if let Some(shipped) = &row.shipped_scalar {
            assert_eq!(
                row.scalar.checksum, shipped.checksum,
                "{}: shipped scalar output is not bitwise identical to the reference",
                row.kernel
            );
        }
        let speedup = row.speedup();
        let ms = |leg: &Option<Leg>| {
            leg.as_ref()
                .map_or_else(|| "-".to_string(), |l| format!("{:.4}", l.seconds * 1e3))
        };
        println!(
            "{:<16} {:>12.4} {:>12} {:>8} {:>12} {:>10}",
            row.kernel,
            row.scalar.seconds * 1e3,
            ms(&row.simd),
            speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
            ms(&row.shipped_scalar),
            "ok",
        );
    }
    println!("checksums: reference == fast bitwise on every kernel that ran both");
    if rows[1].simd.is_none() {
        println!(
            "simd unavailable (feature off or no AVX2): conv2d, spmv and smoother time the \
             safe-Rust kernels every build ships; linear has no fast leg"
        );
    }
}
