//! Single-thread kernel speed: reference vs fast vs int8 for the
//! forward hot kernels — conv2d, dense linear, CSR SpMV and the
//! l1-Jacobi smoother sweep.
//!
//! ```bash
//! cargo run -p irf-bench --release --features simd --bin kernel_speed -- [--tiny] [--assert-speedup]
//! ```
//!
//! For conv2d the reference is the general bounds-checked loop nest and
//! the fast leg the stride-1 run kernel every build dispatches to (safe
//! Rust, no intrinsics, so it runs with or without the `simd` feature).
//! For the other three the reference is the scalar loop and the fast
//! leg its AVX2 variant, which needs the `simd` feature and AVX2 at run
//! time. Every f32/f64 kernel is checksum-asserted: the fast leg must
//! be bitwise identical to the reference (the kernels vectorize across
//! outputs but keep each output's rounding sequence), and the int8 leg
//! must reproduce itself exactly — the benchmark fails otherwise.
//! `--assert-speedup` additionally enforces >= 1.5x single-thread
//! speedup on at least two of {conv2d, spmv, smoother}.

use irf_nn::quant::PrecisionMode;
use irf_nn::{ParamStore, Tape, Tensor};
use irf_sparse::smoother::l1_jacobi;
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
    /// The reference leg: scalar loop (conv2d: general loop nest).
    scalar: Leg,
    /// The fast leg: AVX2 variant (conv2d: stride-1 kernel), when it
    /// can run in this build on this machine.
    simd: Option<Leg>,
    int8: Option<Leg>,
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
    let fwd = |precision: PrecisionMode, store: &ParamStore, wid, bid, x: &Tensor| {
        let mut tape = Tape::new();
        tape.set_precision(precision);
        let xn = tape.input(x.clone());
        let wn = tape.param(store, wid);
        let bn = tape.param(store, bid);
        let y = tape.conv2d(xn, wn, bn, 1, 1);
        checksum64(tape.value(y).data().iter().map(|v| u64::from(v.to_bits())))
    };
    let mut store = ParamStore::new();
    let wid = store.register("w", w);
    let bid = store.register("b", b);
    store.quantize(PrecisionMode::Int8);

    let stride1 = time_leg(reps, || fwd(PrecisionMode::F32, &store, wid, bid, &x));
    let int8 = time_leg(reps, || fwd(PrecisionMode::Int8, &store, wid, bid, &x));
    Row {
        kernel: "conv2d",
        scalar: general,
        simd: Some(stride1),
        int8: Some(int8),
    }
}

/// Dense linear head forward through the tape.
fn bench_linear(tiny: bool) -> Row {
    let (c, reps) = if tiny { (96, 5) } else { (256, 20) };
    let x = rand_tensor([64, c, 1, 1], 4);
    let w = rand_tensor([c, c, 1, 1], 5);
    let b = rand_tensor([1, c, 1, 1], 6);
    let fwd = |precision: PrecisionMode, store: &ParamStore, wid, bid, x: &Tensor| {
        let mut tape = Tape::new();
        tape.set_precision(precision);
        let xn = tape.input(x.clone());
        let wn = tape.param(store, wid);
        let bn = tape.param(store, bid);
        let y = tape.linear(xn, wn, bn);
        checksum64(tape.value(y).data().iter().map(|v| u64::from(v.to_bits())))
    };
    let mut store = ParamStore::new();
    let wid = store.register("w", w);
    let bid = store.register("b", b);
    store.quantize(PrecisionMode::Int8);

    irf_runtime::simd::set_disabled(true);
    let scalar = time_leg(reps, || fwd(PrecisionMode::F32, &store, wid, bid, &x));
    let simd =
        simd_available().then(|| time_leg(reps, || fwd(PrecisionMode::F32, &store, wid, bid, &x)));
    irf_runtime::simd::set_disabled(true);
    let int8 = time_leg(reps, || fwd(PrecisionMode::Int8, &store, wid, bid, &x));
    Row {
        kernel: "linear",
        scalar,
        simd,
        int8: Some(int8),
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

fn bench_spmv(tiny: bool) -> Row {
    let (n, reps) = if tiny { (64, 20) } else { (224, 100) };
    let a = laplacian(n);
    let x = rand_vec(n * n, 7);
    let mut y = vec![0.0; n * n];
    let mut run = |disabled: bool| {
        irf_runtime::simd::set_disabled(disabled);
        time_leg(reps, || {
            a.spmv_into(&x, &mut y);
            checksum64(y.iter().map(|v| v.to_bits()))
        })
    };
    let scalar = run(true);
    let simd = simd_available().then(|| run(false));
    Row {
        kernel: "spmv",
        scalar,
        simd,
        int8: None,
    }
}

fn bench_smoother(tiny: bool) -> Row {
    let (n, reps) = if tiny { (64, 10) } else { (224, 50) };
    let a = laplacian(n);
    let b = rand_vec(n * n, 8);
    let run = |disabled: bool| {
        irf_runtime::simd::set_disabled(disabled);
        time_leg(reps, || {
            // Fresh x per run so every sweep does identical work.
            let mut x = vec![0.0; n * n];
            l1_jacobi(&a, &b, &mut x, 4);
            checksum64(x.iter().map(|v| v.to_bits()))
        })
    };
    let scalar = run(true);
    let simd = simd_available().then(|| run(false));
    Row {
        kernel: "smoother",
        scalar,
        simd,
        int8: None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let assert_speedup = args.iter().any(|a| a == "--assert-speedup");
    // Single-thread: the tentpole's speedup target is per-core.
    irf_runtime::set_num_threads(1);
    println!(
        "kernel_speed: single-thread reference vs fast vs int8 ({}, simd compiled: {})",
        if tiny { "tiny" } else { "full" },
        irf_runtime::simd::compiled(),
    );

    let rows = [
        bench_conv(tiny),
        bench_linear(tiny),
        bench_spmv(tiny),
        bench_smoother(tiny),
    ];
    // Leave the process-global switch as the build default.
    irf_runtime::simd::set_disabled(false);

    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "kernel", "ref (ms)", "fast (ms)", "speedup", "int8 (ms)", "checksum"
    );
    let mut target_hits = 0usize;
    for row in &rows {
        if let Some(simd) = &row.simd {
            assert_eq!(
                row.scalar.checksum, simd.checksum,
                "{}: fast output is not bitwise identical to the reference",
                row.kernel
            );
        }
        if let Some(int8) = &row.int8 {
            // int8 must be deterministic, and a genuinely different
            // numeric path from f32.
            assert_ne!(
                row.scalar.checksum, int8.checksum,
                "{}: int8 output should differ from f32",
                row.kernel
            );
        }
        let speedup = row.speedup();
        if matches!(row.kernel, "conv2d" | "spmv" | "smoother") && speedup.is_some_and(|s| s >= 1.5)
        {
            target_hits += 1;
        }
        println!(
            "{:<10} {:>12.3} {:>12} {:>8} {:>12} {:>10}",
            row.kernel,
            row.scalar.seconds * 1e3,
            row.simd
                .as_ref()
                .map_or_else(|| "-".to_string(), |l| format!("{:.3}", l.seconds * 1e3)),
            speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
            row.int8
                .as_ref()
                .map_or_else(|| "-".to_string(), |l| format!("{:.3}", l.seconds * 1e3)),
            "ok",
        );
    }
    println!("checksums: reference == fast bitwise on every kernel that ran both");
    if rows[1].simd.is_some() {
        let met = target_hits >= 2;
        println!(
            "speedup target (>=1.5x on >=2 of conv2d/spmv/smoother): {} ({target_hits}/3)",
            if met { "MET" } else { "NOT MET" }
        );
        assert!(
            !assert_speedup || met,
            "--assert-speedup: fewer than two kernels reached 1.5x"
        );
    } else {
        println!("simd unavailable (feature off or no AVX2): only conv2d has a fast leg");
    }
}
