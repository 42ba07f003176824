//! Bitwise parity of the stride-1 conv2d kernel against the general
//! bounds-checked loop nest it replaced, at every thread count.

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
    // (what, x shape (n, ci, h, w), co, kernel (kh, kw), pad (h, w))
    let cases = [
        // The model's kernels with its "same" pads, on an odd map so
        // every run length leaves a vector tail, several samples deep.
        ("1x1", [3, 5, 19, 23], 7, (1, 1), (0, 0)),
        ("3x3", [3, 5, 19, 23], 7, (3, 3), (1, 1)),
        ("1x7", [2, 4, 19, 23], 4, (1, 7), (0, 3)),
        ("7x1", [2, 4, 19, 23], 4, (7, 1), (3, 0)),
        ("7x7", [2, 2, 19, 23], 1, (7, 7), (3, 3)),
        // The scales whose rows are shorter than two vectors.
        ("3x3 on 8x8", [1, 6, 8, 8], 5, (3, 3), (1, 1)),
        ("3x3 on 16x16", [1, 6, 16, 16], 5, (3, 3), (1, 1)),
        // Maps narrower than the kernel: most taps only see padding.
        ("7x7 on 2x2", [2, 3, 2, 2], 2, (7, 7), (3, 3)),
        ("3x3 on 3x1", [1, 2, 3, 1], 2, (3, 3), (1, 1)),
        ("1x7 on 5x3", [1, 2, 5, 3], 3, (1, 7), (0, 3)),
        // Unpadded and over-padded: output narrower / wider than input.
        ("3x3, pad_w 0", [2, 3, 9, 11], 4, (3, 3), (1, 0)),
        ("3x3, no pad", [2, 3, 9, 11], 4, (3, 3), (0, 0)),
        ("1x1, pad 1", [1, 3, 6, 5], 2, (1, 1), (1, 1)),
        ("3x3, pad 2", [1, 3, 6, 5], 2, (3, 3), (2, 2)),
    ];
    for (seed, (what, shape, co, (kh, kw), (pad_h, pad_w))) in (100u64..).step_by(3).zip(cases) {
        let x = rand_tensor(shape, seed);
        let mut w = rand_tensor([co, shape[1], kh, kw], seed + 1);
        let mut b = rand_tensor([1, co, 1, 1], seed + 2);
        // Exact zeros hit the skip branch; an infinite weight turns
        // any padding that is multiplied instead of skipped into NaN;
        // a -0.0 bias turns any padding that is added into +0.0.
        let taps = w.data().len();
        w.data_mut()[taps / 2] = 0.0;
        w.data_mut()[taps - 1] = 0.0;
        w.data_mut()[taps / 3] = f32::INFINITY;
        b.data_mut()[0] = -0.0;

        let reference = irf_nn::tape::conv2d_forward_reference(&x, &w, &b, 1, pad_h, pad_w);
        for threads in [1usize, 2, 4, 8] {
            irf_runtime::set_num_threads(threads);
            let mut tape = Tape::new();
            let xn = tape.input(x.clone());
            let wn = tape.input(w.clone());
            let bn = tape.input(b.clone());
            let y = tape.conv2d_rect(xn, wn, bn, pad_h, pad_w);
            assert_eq!(tape.value(y).shape(), reference.shape(), "{what}");
            assert_eq!(
                bits(tape.value(y)),
                bits(&reference),
                "{what} diverged at {threads} threads"
            );
        }
    }
    irf_runtime::set_num_threads(1);
}
