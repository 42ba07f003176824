//! Loss functions returning `(value, d loss / d pred)`.
//!
//! Losses live outside the tape: they consume the prediction tensor
//! and hand back the seed gradient for [`crate::Tape::backward`].

use crate::tensor::Tensor;

/// Mean absolute error and its gradient.
///
/// # Panics
///
/// Panics if shapes differ or tensors are empty.
#[must_use]
pub fn mae(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "mae: shape mismatch");
    let n = pred.numel() as f32;
    assert!(n > 0.0, "mae: empty tensors");
    let mut loss = 0.0;
    let grad = Tensor::from_vec(
        pred.shape(),
        pred.data()
            .iter()
            .zip(target.data())
            .map(|(&p, &t)| {
                let d = p - t;
                loss += d.abs();
                d.signum() / n
            })
            .collect(),
    );
    (loss / n, grad)
}

/// Kirchhoff-constraint loss in the spirit of IRPnet: penalizes the
/// mismatch between the discrete Laplacian of the predicted drop map
/// and the (scaled) current map, i.e. the image-level residual of
/// `G d = I`.
///
/// Returns `(alpha * mean(r^2), gradient)` where
/// `r = lap(pred) - alpha_scale * current` and `lap` is the 5-point
/// stencil with zero boundary. The Laplacian stencil is symmetric, so
/// the backward pass is a second application of the same stencil.
///
/// # Panics
///
/// Panics if shapes differ or tensors are empty.
#[must_use]
pub fn kirchhoff(pred: &Tensor, current: &Tensor, scale: f32, alpha: f32) -> (f32, Tensor) {
    assert_eq!(pred.shape(), current.shape(), "kirchhoff: shape mismatch");
    let [n, c, h, w] = pred.shape();
    let numel = pred.numel() as f32;
    assert!(numel > 0.0, "kirchhoff: empty tensors");
    // r = lap(pred) - scale * current
    let mut r = Tensor::zeros(pred.shape());
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let center = pred.at(ni, ci, hi, wi);
                    let mut lap = -4.0 * center;
                    if hi > 0 {
                        lap += pred.at(ni, ci, hi - 1, wi);
                    }
                    if hi + 1 < h {
                        lap += pred.at(ni, ci, hi + 1, wi);
                    }
                    if wi > 0 {
                        lap += pred.at(ni, ci, hi, wi - 1);
                    }
                    if wi + 1 < w {
                        lap += pred.at(ni, ci, hi, wi + 1);
                    }
                    r.set(ni, ci, hi, wi, lap - scale * current.at(ni, ci, hi, wi));
                }
            }
        }
    }
    let loss = alpha * r.data().iter().map(|v| v * v).sum::<f32>() / numel;
    // grad = (2 alpha / numel) * lap(r)  (stencil is self-adjoint).
    let mut grad = Tensor::zeros(pred.shape());
    let k = 2.0 * alpha / numel;
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let mut lap = -4.0 * r.at(ni, ci, hi, wi);
                    if hi > 0 {
                        lap += r.at(ni, ci, hi - 1, wi);
                    }
                    if hi + 1 < h {
                        lap += r.at(ni, ci, hi + 1, wi);
                    }
                    if wi > 0 {
                        lap += r.at(ni, ci, hi, wi - 1);
                    }
                    if wi + 1 < w {
                        lap += r.at(ni, ci, hi, wi + 1);
                    }
                    grad.set(ni, ci, hi, wi, k * lap);
                }
            }
        }
    }
    (loss, grad)
}

/// Sum of two `(loss, grad)` pairs, used to combine a data term with
/// the Kirchhoff constraint.
///
/// # Panics
///
/// Panics if gradient shapes differ.
#[must_use]
pub fn combine(a: (f32, Tensor), b: (f32, Tensor)) -> (f32, Tensor) {
    (a.0 + b.0, a.1.add(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec([1, 1, 1, n], v)
    }

    #[test]
    fn mae_value_and_grad() {
        let (l, g) = mae(&t(vec![1.0, 3.0]), &t(vec![0.0, 5.0]));
        assert!((l - 1.5).abs() < 1e-6);
        assert_eq!(g.data(), &[0.5, -0.5]);
    }

    #[test]
    fn perfect_prediction_has_zero_loss() {
        let p = t(vec![1.0, 2.0, 3.0]);
        assert_eq!(mae(&p, &p).0, 0.0);
    }

    #[test]
    fn kirchhoff_zero_for_consistent_fields() {
        // pred = 0 and current = 0 satisfy the constraint trivially.
        let p = Tensor::zeros([1, 1, 4, 4]);
        let (l, g) = kirchhoff(&p, &p, 1.0, 1.0);
        assert_eq!(l, 0.0);
        assert!(g.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn kirchhoff_gradient_matches_numeric() {
        let mut pred = Tensor::zeros([1, 1, 3, 3]);
        for (i, v) in pred.data_mut().iter_mut().enumerate() {
            *v = (i as f32 * 0.37).sin();
        }
        let mut cur = Tensor::zeros([1, 1, 3, 3]);
        for (i, v) in cur.data_mut().iter_mut().enumerate() {
            *v = (i as f32 * 0.11).cos();
        }
        let (_, g) = kirchhoff(&pred, &cur, 0.7, 0.5);
        let eps = 1e-3;
        for i in 0..pred.numel() {
            let mut plus = pred.clone();
            plus.data_mut()[i] += eps;
            let mut minus = pred.clone();
            minus.data_mut()[i] -= eps;
            let lp = kirchhoff(&plus, &cur, 0.7, 0.5).0;
            let lm = kirchhoff(&minus, &cur, 0.7, 0.5).0;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (g.data()[i] - num).abs() < 1e-2 * (1.0 + num.abs()),
                "at {i}: analytic {} numeric {num}",
                g.data()[i]
            );
        }
    }

    #[test]
    fn combine_adds_losses_and_grads() {
        let a = (1.0, t(vec![1.0, 2.0]));
        let b = (0.5, t(vec![0.5, -1.0]));
        let (l, g) = combine(a, b);
        assert_eq!(l, 1.5);
        assert_eq!(g.data(), &[1.5, 1.0]);
    }
}
