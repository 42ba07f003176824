//! Randomized-but-deterministic property tests for the autograd
//! framework: gradient checks and algebraic invariants over
//! fixed-seed random instances, so failures reproduce exactly.

use irf_nn::{loss, ParamStore, Tape, Tensor};
use irf_runtime::Xoshiro256pp;

const CASES: u64 = 24;

fn tensor(rng: &mut Xoshiro256pp, shape: [usize; 4]) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.random_range(-1.5f32..1.5)).collect();
    Tensor::from_vec(shape, data)
}

fn coords(rng: &mut Xoshiro256pp, max: usize, len: usize) -> Vec<usize> {
    (0..len).map(|_| rng.random_range(0usize..max)).collect()
}

/// Checks `d sum(f(x)) / dx` against central differences at a few
/// random coordinates (full sweeps are done in the unit tests).
fn gradcheck<F>(x0: &Tensor, forward: F, coords: &[usize], tol: f32)
where
    F: Fn(&mut Tape, irf_nn::NodeId) -> irf_nn::NodeId,
{
    let mut store = ParamStore::new();
    let mut tape = Tape::new();
    let x = tape.leaf(x0.clone());
    let y = forward(&mut tape, x);
    let seed = Tensor::filled(tape.value(y).shape(), 1.0);
    tape.backward(y, seed, &mut store);
    let analytic = tape.grad(x).expect("leaf grad").clone();
    let eps = 1e-2;
    for &i in coords {
        let i = i % x0.numel();
        let eval = |t: &Tensor| -> f32 {
            let mut tp = Tape::new();
            let xi = tp.leaf(t.clone());
            let y = forward(&mut tp, xi);
            tp.value(y).data().iter().sum()
        };
        let mut plus = x0.clone();
        plus.data_mut()[i] += eps;
        let mut minus = x0.clone();
        minus.data_mut()[i] -= eps;
        let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
        let a = analytic.data()[i];
        assert!(
            (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
            "coord {i}: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn conv_gradcheck_random_inputs() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1_01);
    for _ in 0..CASES {
        let x = tensor(&mut rng, [1, 2, 5, 5]);
        let w = tensor(&mut rng, [3, 2, 3, 3]);
        let cs = coords(&mut rng, 50, 4);
        gradcheck(
            &x,
            |t, xi| {
                let wv = t.input(w.clone());
                let b = t.input(Tensor::zeros([1, 3, 1, 1]));
                t.conv2d(xi, wv, b)
            },
            &cs,
            0.15,
        );
    }
}

#[test]
fn composite_network_gradcheck() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1_02);
    for _ in 0..CASES {
        let x0 = tensor(&mut rng, [1, 2, 4, 4]);
        let cs = coords(&mut rng, 32, 3);
        // ReLU and max-pool are non-differentiable at kinks; central
        // differences with eps = 1e-2 need inputs comfortably away
        // from zero and from pooling ties.
        let x = Tensor::from_vec(
            x0.shape(),
            x0.data()
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let pushed = if v.abs() < 0.1 {
                        v + 0.2 * (1.0 + v)
                    } else {
                        v
                    };
                    pushed + 1e-3 * (i as f32) // break pooling ties
                })
                .collect(),
        );
        gradcheck(
            &x,
            |t, xi| {
                let a = t.relu(xi);
                let p = t.max_pool2(a);
                let u = t.upsample2(p);
                let s = t.sigmoid(u);
                let m = t.channel_mean(s);
                t.mul_spatial(a, m)
            },
            &cs,
            0.2,
        );
    }
}

#[test]
fn mae_gradient_has_unit_scaled_signs() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1_03);
    for _ in 0..CASES {
        let pred = tensor(&mut rng, [1, 1, 3, 3]);
        let target = tensor(&mut rng, [1, 1, 3, 3]);
        let (l, g) = loss::mae(&pred, &target);
        assert!(l >= 0.0);
        let n = pred.numel() as f32;
        for ((p, t), gi) in pred.data().iter().zip(target.data()).zip(g.data()) {
            if (p - t).abs() > 1e-6 {
                assert!((gi.abs() - 1.0 / n).abs() < 1e-6);
                assert_eq!(gi.signum(), (p - t).signum());
            }
        }
    }
}

#[test]
fn concat_then_split_preserves_sums() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1_06);
    for _ in 0..CASES {
        let a = tensor(&mut rng, [1, 2, 3, 3]);
        let b = tensor(&mut rng, [1, 3, 3, 3]);
        let mut tape = Tape::new();
        let na = tape.input(a.clone());
        let nb = tape.input(b.clone());
        let cat = tape.concat_channels(na, nb);
        let sum_cat: f32 = tape.value(cat).data().iter().sum();
        let sum_parts: f32 = a.data().iter().sum::<f32>() + b.data().iter().sum::<f32>();
        assert!((sum_cat - sum_parts).abs() < 1e-3);
    }
}

#[test]
fn pool_upsample_shapes_compose() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xA1_07);
    for _ in 0..CASES {
        let x = tensor(&mut rng, [1, 3, 4, 4]);
        let mut tape = Tape::new();
        let n = tape.input(x);
        let p = tape.max_pool2(n);
        let u = tape.upsample2(p);
        assert_eq!(tape.value(u).shape(), [1, 3, 4, 4]);
        // max pooling then upsampling never increases the max.
        assert!(tape.value(u).max_abs() <= tape.value(n).max_abs() + 1e-6);
    }
}
