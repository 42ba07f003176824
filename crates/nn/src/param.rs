//! Trainable parameters shared across forward passes.

use crate::tensor::Tensor;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index into the store.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owns every trainable tensor of a model together with its
/// accumulated gradient.
///
/// A model's layers hold [`ParamId`]s; each forward pass reads the
/// current values through [`crate::Tape::param`], and
/// [`crate::Tape::backward`] accumulates gradients back into the store
/// for the optimizer to consume.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    names: Vec<String>,
}

impl ParamStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Registers a parameter with an initial value, returning its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.push(Tensor::zeros(value.shape()));
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no parameters are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count across all tensors.
    #[must_use]
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::numel).sum()
    }

    /// Current value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store.
    #[must_use]
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable value (used by optimizers and checkpoint loading).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Accumulated gradient of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store.
    #[must_use]
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.grads[id.0]
    }

    /// Adds `delta` into the gradient accumulator.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        let g = &mut self.grads[id.0];
        assert_eq!(g.shape(), delta.shape(), "gradient shape mismatch");
        for (gi, di) in g.data_mut().iter_mut().zip(delta.data()) {
            *gi += di;
        }
    }

    /// Zeroes all gradient accumulators (call between optimizer steps).
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.data_mut().iter_mut().for_each(|v| *v = 0.0);
        }
    }

    /// Name of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store.
    #[must_use]
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates `(id, name, value)` over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), self.names[i].as_str(), v))
    }

    /// Global gradient L2 norm, used for clipping and debugging.
    #[must_use]
    pub fn grad_norm(&self) -> f32 {
        self.grads
            .iter()
            .flat_map(|g| g.data())
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                g.data_mut().iter_mut().for_each(|v| *v *= s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::filled([1, 1, 2, 2], 1.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.num_scalars(), 4);
        assert_eq!(s.name(id), "w");
        assert_eq!(s.value(id).mean(), 1.0);
        assert_eq!(s.grad(id).mean(), 0.0);
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros([1, 1, 1, 2]));
        s.accumulate_grad(id, &Tensor::from_vec([1, 1, 1, 2], vec![1.0, 2.0]));
        s.accumulate_grad(id, &Tensor::from_vec([1, 1, 1, 2], vec![1.0, 2.0]));
        assert_eq!(s.grad(id).data(), &[2.0, 4.0]);
        s.zero_grads();
        assert_eq!(s.grad(id).data(), &[0.0, 0.0]);
    }

    #[test]
    fn clipping_bounds_global_norm() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros([1, 1, 1, 2]));
        s.accumulate_grad(id, &Tensor::from_vec([1, 1, 1, 2], vec![3.0, 4.0]));
        assert!((s.grad_norm() - 5.0).abs() < 1e-6);
        s.clip_grad_norm(1.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);
        // Clipping below the threshold is a no-op.
        s.clip_grad_norm(10.0);
        assert!((s.grad_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iter_walks_all_params() {
        let mut s = ParamStore::new();
        s.register("a", Tensor::zeros([1, 1, 1, 1]));
        s.register("b", Tensor::zeros([1, 1, 1, 1]));
        let names: Vec<_> = s.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
