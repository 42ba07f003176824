//! Reusable layers: thin structs holding [`ParamId`]s plus a
//! `forward` that records onto a [`Tape`].

use crate::init::{kaiming_uniform, xavier_uniform};
use crate::param::{ParamId, ParamStore};
use crate::tape::{NodeId, Tape};
use crate::tensor::Tensor;

/// A 2-D convolution layer (weight + bias) with [`Tape::conv2d`]'s
/// "same" padding: square kernels and Inception-B's factorized `1xN` /
/// `Nx1` ones alike keep the spatial size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2d {
    w: ParamId,
    b: ParamId,
}

impl Conv2d {
    /// Registers a `kh x kw` convolution from `cin` to `cout` channels
    /// with Kaiming init.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cin: usize,
        cout: usize,
        kh: usize,
        kw: usize,
        seed: u64,
    ) -> Self {
        let w = store.register(
            format!("{name}.w"),
            kaiming_uniform([cout, cin, kh, kw], seed),
        );
        let b = store.register(format!("{name}.b"), Tensor::zeros([1, cout, 1, 1]));
        Conv2d { w, b }
    }

    /// Records the convolution onto the tape.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.conv2d(x, w, b)
    }

    /// Bias parameter id.
    #[must_use]
    pub fn bias(&self) -> ParamId {
        self.b
    }
}

/// Instance normalization with affine parameters (the framework's
/// stand-in for batch norm; see [`Tape::instance_norm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Norm {
    gamma: ParamId,
    beta: ParamId,
}

impl Norm {
    /// Registers `gamma = 1`, `beta = 0` for `c` channels.
    pub fn new(store: &mut ParamStore, name: &str, c: usize) -> Self {
        let gamma = store.register(format!("{name}.gamma"), Tensor::filled([1, c, 1, 1], 1.0));
        let beta = store.register(format!("{name}.beta"), Tensor::zeros([1, c, 1, 1]));
        Norm { gamma, beta }
    }

    /// Records the normalization onto the tape.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let g = tape.param(store, self.gamma);
        let b = tape.param(store, self.beta);
        tape.instance_norm(x, g, b, 1e-5)
    }
}

/// A fully connected layer on `(N, C, 1, 1)` tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
}

impl Linear {
    /// Registers a linear layer with Xavier init (it usually feeds a
    /// sigmoid gate in this codebase).
    pub fn new(store: &mut ParamStore, name: &str, cin: usize, cout: usize, seed: u64) -> Self {
        let w = store.register(format!("{name}.w"), xavier_uniform([cout, cin, 1, 1], seed));
        let b = store.register(format!("{name}.b"), Tensor::zeros([1, cout, 1, 1]));
        Linear { w, b }
    }

    /// Records the layer onto the tape.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        tape.linear(x, w, b)
    }
}

/// Conv -> Norm -> ReLU, the standard U-Net building block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvBlock {
    conv: Conv2d,
    norm: Norm,
}

impl ConvBlock {
    /// Registers the block.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cin: usize,
        cout: usize,
        k: usize,
        seed: u64,
    ) -> Self {
        ConvBlock {
            conv: Conv2d::new(store, &format!("{name}.conv"), cin, cout, k, k, seed),
            norm: Norm::new(store, &format!("{name}.norm"), cout),
        }
    }

    /// Records conv + norm + ReLU.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let y = self.conv.forward(tape, store, x);
        let y = self.norm.forward(tape, store, y);
        tape.relu(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_layer_shapes() {
        let mut store = ParamStore::new();
        let conv = Conv2d::new(&mut store, "c", 3, 8, 3, 3, 1);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros([1, 3, 6, 6]));
        let y = conv.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 8, 6, 6]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn conv_block_activates() {
        let mut store = ParamStore::new();
        let block = ConvBlock::new(&mut store, "b", 2, 4, 3, 2);
        let mut tape = Tape::new();
        let x = tape.input(crate::init::uniform([1, 2, 4, 4], -1.0, 1.0, 3));
        let y = block.forward(&mut tape, &store, x);
        assert!(tape.value(y).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn linear_layer_shapes() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "fc", 8, 2, 4);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros([3, 8, 1, 1]));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [3, 2, 1, 1]);
    }

    #[test]
    fn rect_conv_preserves_shape() {
        let mut store = ParamStore::new();
        let c = Conv2d::new(&mut store, "r", 2, 3, 1, 5, 9);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros([1, 2, 6, 6]));
        let y = c.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 3, 6, 6]);
    }

    #[test]
    fn norm_names_parameters() {
        let mut store = ParamStore::new();
        let _ = Norm::new(&mut store, "enc1.norm", 4);
        let names: Vec<_> = store.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["enc1.norm.gamma", "enc1.norm.beta"]);
    }
}
