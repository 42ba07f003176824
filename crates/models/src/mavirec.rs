//! MAVIREC (Chhabria et al., DATE'21): a 3-D U-Net for vectored IR
//! drop. The depth (time/vector) axis folds into input channels for
//! static analysis, so the reproduction models it as a U-Net preceded
//! by two channel-fusion convolutions (the collapsed 3-D stem).

use crate::blocks::{DoubleConv, RegressionHead, UpBlock};
use crate::Model;
use irf_nn::layers::ConvBlock;
use irf_nn::{NodeId, ParamStore, Tape};

/// The MAVIREC-style model: 3-D-stem fusion convs + U-Net.
#[derive(Debug, Clone)]
pub struct Mavirec {
    stem1: ConvBlock,
    stem2: ConvBlock,
    enc1: DoubleConv,
    enc2: DoubleConv,
    enc3: DoubleConv,
    bottleneck: DoubleConv,
    up3: UpBlock,
    up2: UpBlock,
    up1: UpBlock,
    head: RegressionHead,
}

impl Mavirec {
    /// Registers the model.
    pub fn new(store: &mut ParamStore, cin: usize, c: usize, seed: u64) -> Self {
        Mavirec {
            stem1: ConvBlock::new(store, "mavirec.stem1", cin, c, 3, seed),
            stem2: ConvBlock::new(store, "mavirec.stem2", c, c, 3, seed ^ 1),
            enc1: DoubleConv::new(store, "mavirec.enc1", c, c, seed ^ 2),
            enc2: DoubleConv::new(store, "mavirec.enc2", c, 2 * c, seed ^ 3),
            enc3: DoubleConv::new(store, "mavirec.enc3", 2 * c, 4 * c, seed ^ 4),
            bottleneck: DoubleConv::new(store, "mavirec.bottleneck", 4 * c, 8 * c, seed ^ 5),
            up3: UpBlock::new(store, "mavirec.up3", 8 * c, 4 * c, 4 * c, seed ^ 6),
            up2: UpBlock::new(store, "mavirec.up2", 4 * c, 2 * c, 2 * c, seed ^ 7),
            up1: UpBlock::new(store, "mavirec.up1", 2 * c, c, c, seed ^ 8),
            head: RegressionHead::new(store, "mavirec.head", c, seed ^ 9),
        }
    }
}

impl Model for Mavirec {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let f = self.stem1.forward(tape, store, x);
        let f = self.stem2.forward(tape, store, f);
        let s1 = self.enc1.forward(tape, store, f);
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
        "MAVIREC"
    }

    fn set_linear_head(&mut self, linear: bool) {
        self.head.set_relu(!linear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_nn::init;

    #[test]
    fn forward_shape() {
        let mut store = ParamStore::new();
        let m = Mavirec::new(&mut store, 7, 4, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 7, 16, 16], -1.0, 1.0, 2));
        let y = m.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 1, 16, 16]);
    }

    #[test]
    fn has_more_parameters_than_iredge() {
        let mut a = ParamStore::new();
        let _ = Mavirec::new(&mut a, 5, 4, 1);
        let mut b = ParamStore::new();
        let _ = crate::iredge::IrEdge::new(&mut b, 5, 4, 1);
        assert!(a.num_scalars() > b.num_scalars());
    }
}
