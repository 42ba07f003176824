//! Bitwise parity of the padded-pitch conv2d kernel against the general
//! bounds-checked loop nest it replaced, at every thread count.
//!
//! The kernel widens every input row with zero columns and lets each
//! tap multiply them, which is exact only for an output channel whose
//! bias is not `-0.0` and whose weights are all finite; the cases below
//! hold both sides of that line.

use irf_nn::{Tape, Tensor};

fn rand_tensor(shape: [usize; 4], seed: u64) -> Tensor {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(seed);
    let n = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..n).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect(),
    )
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn conv2d_stride1_kernel_is_bitwise_identical_to_the_general_loop() {
    // (what, x shape (n, ci, h, w), co, kernel (kh, kw))
    let cases = [
        // The model's kernels, on an odd map so every run length leaves
        // a vector tail, several samples deep.
        ("1x1", [3, 5, 19, 23], 7, (1, 1)),
        ("3x3", [3, 5, 19, 23], 7, (3, 3)),
        ("1x7", [2, 4, 19, 23], 4, (1, 7)),
        ("7x1", [2, 4, 19, 23], 4, (7, 1)),
        ("7x7", [2, 2, 19, 23], 1, (7, 7)),
        // The scales whose rows are shorter than two vectors.
        ("3x3 on 8x8", [1, 6, 8, 8], 5, (3, 3)),
        ("3x3 on 16x16", [1, 6, 16, 16], 5, (3, 3)),
        // Maps narrower than the kernel: most taps only see padding.
        ("7x7 on 2x2", [2, 3, 2, 2], 2, (7, 7)),
        ("3x3 on 3x1", [1, 2, 3, 1], 2, (3, 3)),
        ("1x7 on 5x3", [1, 2, 5, 3], 3, (1, 7)),
    ];
    for (seed, (what, shape, co, (kh, kw))) in (100u64..).step_by(3).zip(cases) {
        let x = rand_tensor(shape, seed);
        let mut w = rand_tensor([co, shape[1], kh, kw], seed + 1);
        let mut b = rand_tensor([1, co, 1, 1], seed + 2);
        // Every channel takes the padded path.
        assert_matches_reference(&format!("{what}, plain"), &x, &w, &b);
        // Exact zeros hit the skip branch; an infinite weight turns
        // any padding that is multiplied instead of skipped into NaN;
        // a -0.0 bias turns any padding that is added into +0.0.
        let taps = w.data().len();
        w.data_mut()[taps / 2] = 0.0;
        w.data_mut()[taps - 1] = 0.0;
        w.data_mut()[taps / 3] = f32::INFINITY;
        b.data_mut()[0] = -0.0;
        assert_matches_reference(what, &x, &w, &b);
    }
}

/// Runs `x * w + b` through the tape at 1, 2, 4 and 8 threads and
/// holds every output bit to the general loop nest.
fn assert_matches_reference(what: &str, x: &Tensor, w: &Tensor, b: &Tensor) {
    let reference = irf_nn::tape::conv2d_forward_reference(x, w, b);
    for threads in [1usize, 2, 4, 8] {
        irf_runtime::set_num_threads(threads);
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let wn = tape.input(w.clone());
        let bn = tape.input(b.clone());
        let y = tape.conv2d(xn, wn, bn);
        assert_eq!(tape.value(y).shape(), reference.shape(), "{what}");
        assert_eq!(
            bits(tape.value(y)),
            bits(&reference),
            "{what} diverged at {threads} threads"
        );
    }
    irf_runtime::set_num_threads(1);
}

#[test]
fn negative_zero_maps_keep_their_sign_at_the_borders() {
    // -0.0 in, positive weights, -0.0 bias: every term is -0.0, so
    // the general loop writes -0.0 everywhere. Adding a padding
    // column's w * 0.0 = +0.0 would turn the border pixels to +0.0.
    let x = Tensor::filled([2, 3, 8, 8], -0.0);
    let w = Tensor::from_vec(
        [4, 3, 3, 3],
        (0..4 * 3 * 9).map(|i| 0.25 + i as f32 / 64.0).collect(),
    );
    let b = Tensor::filled([1, 4, 1, 1], -0.0);
    let reference = irf_nn::tape::conv2d_forward_reference(&x, &w, &b);
    assert!(
        reference
            .data()
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits()),
        "the reference keeps -0.0 at every pixel"
    );
    assert_matches_reference("all -0.0", &x, &w, &b);
    // One -0.0-bias channel among ordinary ones.
    let mut b = rand_tensor([1, 4, 1, 1], 7);
    b.data_mut()[2] = -0.0;
    assert_matches_reference("one -0.0 bias", &x, &w, &b);
    let w = rand_tensor([4, 3, 1, 7], 8);
    assert_matches_reference("1x7, one -0.0 bias", &x, &w, &b);
}

#[test]
fn an_infinite_border_tap_goes_through_the_general_loop() {
    // An infinite weight on a tap that reaches the left padding: the
    // general loop never multiplies padding, so the column-0 pixels
    // read ±inf; inf * 0.0 would make them NaN.
    let x = rand_tensor([2, 3, 8, 8], 11);
    let mut w = rand_tensor([4, 3, 3, 3], 12);
    let b = rand_tensor([1, 4, 1, 1], 13);
    // Channel 1, input channel 2, tap (ky, kx) = (1, 0).
    w.data_mut()[(3 + 2) * 9 + 3] = f32::INFINITY;
    let reference = irf_nn::tape::conv2d_forward_reference(&x, &w, &b);
    assert!(reference.data().iter().all(|v| !v.is_nan()));
    assert_matches_reference("infinite border tap", &x, &w, &b);
    w.data_mut()[(3 + 2) * 9 + 3] = f32::NAN;
    assert_matches_reference("NaN border tap", &x, &w, &b);
}

#[test]
fn a_zero_weight_never_multiplies_an_infinite_input() {
    // One infinite pixel, positive weights but for a zero on the left
    // tap of the middle kernel row: the general loop skips that tap, so
    // the pixel right of the infinity reads +inf from no tap and stays
    // finite, where 0 * inf would make it NaN. For the 3- and 7-wide
    // kernel rows, which run as one fused pass.
    for k in [3usize, 7] {
        let side = k + 2;
        let mut x = Tensor::filled([1, 1, side, side], 1.0);
        x.data_mut()[side * side / 2] = f32::INFINITY;
        let mut w = Tensor::filled([1, 1, k, k], 0.5);
        w.data_mut()[k / 2 * k] = 0.0;
        let b = Tensor::filled([1, 1, 1, 1], 0.25);
        let reference = irf_nn::tape::conv2d_forward_reference(&x, &w, &b);
        assert!(reference.data()[side * side / 2 + k / 2].is_finite());
        assert_matches_reference(&format!("{k}x{k}, zero beside inf"), &x, &w, &b);
    }
}

#[test]
fn the_coarse_scales_match_at_batch_four() {
    // The U-Net's 8x8 and 16x16 maps, four samples deep, with the
    // kernels that run there.
    let cases = [
        ("3x3 on 8x8", [4, 12, 8, 8], 9, (3, 3)),
        ("3x3 on 16x16", [4, 12, 16, 16], 9, (3, 3)),
        ("1x1 on 8x8", [4, 12, 8, 8], 5, (1, 1)),
        ("1x3 on 16x16", [4, 8, 16, 16], 8, (1, 3)),
        ("3x1 on 16x16", [4, 8, 16, 16], 8, (3, 1)),
        ("7x7 on 8x8", [4, 2, 8, 8], 1, (7, 7)),
    ];
    for (seed, (what, shape, co, (kh, kw))) in (300u64..).step_by(3).zip(cases) {
        let x = rand_tensor(shape, seed);
        let w = rand_tensor([co, shape[1], kh, kw], seed + 1);
        let b = rand_tensor([1, co, 1, 1], seed + 2);
        assert_matches_reference(what, &x, &w, &b);
    }
}
