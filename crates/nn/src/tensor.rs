//! Dense NCHW tensors.

use std::fmt;

/// A dense 4-D tensor in NCHW layout backed by a `Vec<f32>`.
///
/// All model activations and parameters use this one type; vectors and
/// matrices are represented with singleton trailing dimensions, e.g. a
/// linear-layer weight of shape `[out, in, 1, 1]`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: [usize; 4],
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor{:?} (numel {}, mean {:.4})",
            self.shape,
            self.numel(),
            self.mean()
        )
    }
}

impl Tensor {
    /// Creates a zero tensor of the given shape.
    #[must_use]
    pub fn zeros(shape: [usize; 4]) -> Self {
        Tensor {
            shape,
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates a tensor filled with `value`.
    #[must_use]
    pub fn filled(shape: [usize; 4], value: f32) -> Self {
        Tensor {
            shape,
            data: vec![value; shape.iter().product()],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer size does not match the shape.
    #[must_use]
    pub fn from_vec(shape: [usize; 4], data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "tensor buffer size mismatch for shape {shape:?}"
        );
        Tensor { shape, data }
    }

    /// The NCHW shape.
    #[must_use]
    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw buffer.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Flat index of `(n, c, h, w)`.
    #[inline]
    #[must_use]
    pub fn offset(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        let [_, cs, hs, ws] = self.shape;
        ((n * cs + c) * hs + h) * ws + w
    }

    /// Value at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    #[must_use]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let [ns, cs, hs, ws] = self.shape;
        assert!(
            n < ns && c < cs && h < hs && w < ws,
            "tensor index out of bounds"
        );
        self.data[self.offset(n, c, h, w)]
    }

    /// Sets the value at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let [ns, cs, hs, ws] = self.shape;
        assert!(
            n < ns && c < cs && h < hs && w < ws,
            "tensor index out of bounds"
        );
        let o = self.offset(n, c, h, w);
        self.data[o] = v;
    }

    /// Mean of all elements (`0.0` for empty tensors).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Maximum absolute element.
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Elementwise `self + other` into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "tensor add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape,
            data,
        }
    }

    /// `true` if every element is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Stacks tensors along the batch dimension: `k` inputs of shape
    /// `(n_i, C, H, W)` become one `(sum n_i, C, H, W)` tensor. Sample
    /// data is copied verbatim in input order, so element `b` of the
    /// result is bit-for-bit the corresponding input sample — the
    /// foundation of the batched-inference path.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the C/H/W dims disagree.
    #[must_use]
    pub fn concat_batch(parts: &[Tensor]) -> Tensor {
        let first = parts.first().expect("concat_batch needs >= 1 tensor");
        let [_, c, h, w] = first.shape;
        let n_total: usize = parts
            .iter()
            .map(|t| {
                assert_eq!(
                    (t.shape[1], t.shape[2], t.shape[3]),
                    (c, h, w),
                    "concat_batch: C/H/W mismatch"
                );
                t.shape[0]
            })
            .sum();
        let mut data = Vec::with_capacity(n_total * c * h * w);
        for t in parts {
            data.extend_from_slice(&t.data);
        }
        Tensor {
            shape: [n_total, c, h, w],
            data,
        }
    }

    /// Splits a `(N, C, H, W)` tensor into `N` tensors of shape
    /// `(1, C, H, W)` — the inverse of [`Tensor::concat_batch`] for
    /// single-sample inputs.
    #[must_use]
    pub fn split_batch(&self) -> Vec<Tensor> {
        let [n, c, h, w] = self.shape;
        let stride = c * h * w;
        (0..n)
            .map(|b| Tensor {
                shape: [1, c, h, w],
                data: self.data[b * stride..(b + 1) * stride].to_vec(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_split_batch_roundtrip() {
        let a = Tensor::from_vec([1, 2, 2, 2], (0..8).map(|i| i as f32 * 0.5).collect());
        let b = Tensor::from_vec([2, 2, 2, 2], (0..16).map(|i| -(i as f32)).collect());
        let stacked = Tensor::concat_batch(&[a.clone(), b.clone()]);
        assert_eq!(stacked.shape(), [3, 2, 2, 2]);
        let parts = stacked.split_batch();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1].data(), &b.data()[..8]);
        assert_eq!(parts[2].data(), &b.data()[8..]);
    }

    #[test]
    #[should_panic(expected = "concat_batch: C/H/W mismatch")]
    fn concat_batch_rejects_mismatched_shapes() {
        let a = Tensor::zeros([1, 2, 2, 2]);
        let b = Tensor::zeros([1, 3, 2, 2]);
        let _ = Tensor::concat_batch(&[a, b]);
    }

    #[test]
    fn zeros_and_filled() {
        let z = Tensor::zeros([1, 2, 3, 4]);
        assert_eq!(z.numel(), 24);
        assert_eq!(z.mean(), 0.0);
        let f = Tensor::filled([1, 1, 2, 2], 3.0);
        assert_eq!(f.mean(), 3.0);
    }

    #[test]
    fn indexing_is_row_major_nchw() {
        let mut t = Tensor::zeros([2, 3, 4, 5]);
        t.set(1, 2, 3, 4, 9.0);
        assert_eq!(t.at(1, 2, 3, 4), 9.0);
        assert_eq!(t.data()[t.offset(1, 2, 3, 4)], 9.0);
        assert_eq!(t.offset(0, 0, 0, 1), 1);
        assert_eq!(t.offset(0, 0, 1, 0), 5);
        assert_eq!(t.offset(0, 1, 0, 0), 20);
        assert_eq!(t.offset(1, 0, 0, 0), 60);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros([1, 1, 2, 2]);
        let _ = t.at(0, 0, 2, 0);
    }

    #[test]
    fn arithmetic_helpers() {
        let a = Tensor::from_vec([1, 1, 1, 2], vec![1.0, -2.0]);
        let b = Tensor::from_vec([1, 1, 1, 2], vec![0.5, 0.5]);
        assert_eq!(a.add(&b).data(), &[1.5, -1.5]);
        assert_eq!(a.max_abs(), 2.0);
        assert!(a.is_finite());
        let bad = Tensor::from_vec([1, 1, 1, 1], vec![f32::NAN]);
        assert!(!bad.is_finite());
    }
}
