//! IREDGe (Chhabria et al., ASPDAC'21): the plain encoder-decoder
//! U-Net baseline.

use crate::blocks::{DoubleConv, RegressionHead, UpBlock};
use crate::Model;
use irf_nn::{NodeId, ParamStore, Tape};

/// The IREDGe EDGe network: three pooling stages, plain double-conv
/// blocks, skip connections, regression head.
#[derive(Debug, Clone)]
pub struct IrEdge {
    enc1: DoubleConv,
    enc2: DoubleConv,
    enc3: DoubleConv,
    bottleneck: DoubleConv,
    up3: UpBlock,
    up2: UpBlock,
    up1: UpBlock,
    head: RegressionHead,
}

impl IrEdge {
    /// Registers the model with `cin` input channels and base width
    /// `c`.
    pub fn new(store: &mut ParamStore, cin: usize, c: usize, seed: u64) -> Self {
        IrEdge {
            enc1: DoubleConv::new(store, "iredge.enc1", cin, c, seed),
            enc2: DoubleConv::new(store, "iredge.enc2", c, 2 * c, seed ^ 2),
            enc3: DoubleConv::new(store, "iredge.enc3", 2 * c, 4 * c, seed ^ 3),
            bottleneck: DoubleConv::new(store, "iredge.bottleneck", 4 * c, 8 * c, seed ^ 4),
            up3: UpBlock::new(store, "iredge.up3", 8 * c, 4 * c, 4 * c, seed ^ 5),
            up2: UpBlock::new(store, "iredge.up2", 4 * c, 2 * c, 2 * c, seed ^ 6),
            up1: UpBlock::new(store, "iredge.up1", 2 * c, c, c, seed ^ 7),
            head: RegressionHead::new(store, "iredge.head", c, seed ^ 8),
        }
    }
}

impl Model for IrEdge {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let s1 = self.enc1.forward(tape, store, x);
        let p1 = tape.max_pool2(s1);
        let s2 = self.enc2.forward(tape, store, p1);
        let p2 = tape.max_pool2(s2);
        let s3 = self.enc3.forward(tape, store, p2);
        let p3 = tape.max_pool2(s3);
        let b = self.bottleneck.forward(tape, store, p3);
        let d3 = self.up3.forward(tape, store, b, s3);
        let d2 = self.up2.forward(tape, store, d3, s2);
        let d1 = self.up1.forward(tape, store, d2, s1);
        self.head.forward(tape, store, d1)
    }

    fn name(&self) -> &str {
        "IREDGe"
    }

    fn set_linear_head(&mut self, linear: bool) {
        self.head.set_relu(!linear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_nn::{init, Tensor};

    #[test]
    fn forward_shape_and_nonnegativity() {
        let mut store = ParamStore::new();
        let m = IrEdge::new(&mut store, 5, 4, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 5, 16, 16], -1.0, 1.0, 2));
        let y = m.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 1, 16, 16]);
        assert!(tape.value(y).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn trains_end_to_end_one_step() {
        let mut store = ParamStore::new();
        let m = IrEdge::new(&mut store, 3, 4, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 3, 8, 8], 0.0, 1.0, 3));
        let y = m.forward(&mut tape, &store, x);
        let target = Tensor::filled([1, 1, 8, 8], 0.5);
        let (_, grad) = irf_nn::loss::mae(tape.value(y), &target);
        tape.backward(y, grad, &mut store);
        assert!(store.grad_norm() > 0.0);
    }
}
