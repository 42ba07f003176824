//! The optimizer over a [`ParamStore`].

use crate::param::ParamStore;

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical floor.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with bias correction — the training pipeline's
/// optimizer.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    lr: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with standard betas `(0.9, 0.999)`.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update using the store's accumulated gradients,
    /// then zeroes them.
    pub fn step(&mut self, store: &mut ParamStore) {
        if self.m.len() != store.len() {
            self.m = (0..store.len())
                .map(|i| vec![0.0; store.value(crate::param::ParamId(i)).numel()])
                .collect();
            self.v = self.m.clone();
        }
        self.t += 1;
        let b1c = 1.0 - BETA1.powi(self.t as i32);
        let b2c = 1.0 - BETA2.powi(self.t as i32);
        for i in 0..store.len() {
            let id = crate::param::ParamId(i);
            let grad: Vec<f32> = store.grad(id).data().to_vec();
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            let value = store.value_mut(id);
            for (((p, g), mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(&grad)
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = BETA1 * *mi + (1.0 - BETA1) * g;
                *vi = BETA2 * *vi + (1.0 - BETA2) * g * g;
                let mhat = *mi / b1c;
                let vhat = *vi / b2c;
                *p -= self.lr * mhat / (vhat.sqrt() + EPS);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamStore;
    use crate::tensor::Tensor;

    /// Minimizes `f(w) = (w - 3)^2` whose gradient is `2 (w - 3)`.
    fn quadratic_grad(store: &ParamStore, id: crate::param::ParamId) -> Tensor {
        let w = store.value(id).data()[0];
        Tensor::from_vec([1, 1, 1, 1], vec![2.0 * (w - 3.0)])
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros([1, 1, 1, 1]));
        let mut opt = Adam::new(0.3);
        for _ in 0..200 {
            let g = quadratic_grad(&store, id);
            store.accumulate_grad(id, &g);
            opt.step(&mut store);
        }
        assert!((store.value(id).data()[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros([1, 1, 1, 1]));
        store.accumulate_grad(id, &Tensor::filled([1, 1, 1, 1], 1.0));
        let mut opt = Adam::new(0.1);
        opt.step(&mut store);
        assert_eq!(store.grad(id).data(), &[0.0]);
    }
}
