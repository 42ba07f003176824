//! IRPnet (Meng et al., DATE'24): a pyramid model capturing global
//! features, trained with a Kirchhoff's-law-constrained loss.

use crate::blocks::RegressionHead;
use crate::Model;
use irf_nn::layers::ConvBlock;
use irf_nn::{NodeId, ParamStore, Tape};

/// The IRPnet-style spatial pyramid: a stem plus three pooled context
/// levels, all upsampled back to full resolution and fused.
#[derive(Debug, Clone)]
pub struct IrpNet {
    stem: ConvBlock,
    level1: ConvBlock,
    level2: ConvBlock,
    level3: ConvBlock,
    fuse1: ConvBlock,
    fuse2: ConvBlock,
    head: RegressionHead,
}

impl IrpNet {
    /// Registers the model.
    pub fn new(store: &mut ParamStore, cin: usize, c: usize, seed: u64) -> Self {
        IrpNet {
            stem: ConvBlock::new(store, "irpnet.stem", cin, c, 3, seed),
            level1: ConvBlock::new(store, "irpnet.l1", c, c, 3, seed ^ 1),
            level2: ConvBlock::new(store, "irpnet.l2", c, c, 3, seed ^ 2),
            level3: ConvBlock::new(store, "irpnet.l3", c, c, 3, seed ^ 3),
            fuse1: ConvBlock::new(store, "irpnet.fuse1", 4 * c, 2 * c, 3, seed ^ 4),
            fuse2: ConvBlock::new(store, "irpnet.fuse2", 2 * c, c, 3, seed ^ 5),
            head: RegressionHead::new(store, "irpnet.head", c, seed ^ 6),
        }
    }
}

impl Model for IrpNet {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let f0 = self.stem.forward(tape, store, x);
        // Pyramid: progressively pooled context.
        let p1 = tape.avg_pool2(f0);
        let f1 = self.level1.forward(tape, store, p1);
        let p2 = tape.avg_pool2(f1);
        let f2 = self.level2.forward(tape, store, p2);
        let p3 = tape.avg_pool2(f2);
        let f3 = self.level3.forward(tape, store, p3);
        // Upsample every level back to full resolution.
        let u1 = tape.upsample2(f1);
        let mut u2 = tape.upsample2(f2);
        u2 = tape.upsample2(u2);
        let mut u3 = tape.upsample2(f3);
        u3 = tape.upsample2(u3);
        u3 = tape.upsample2(u3);
        let cat = tape.concat_channels(f0, u1);
        let cat = tape.concat_channels(cat, u2);
        let cat = tape.concat_channels(cat, u3);
        let f = self.fuse1.forward(tape, store, cat);
        let f = self.fuse2.forward(tape, store, f);
        self.head.forward(tape, store, f)
    }

    fn name(&self) -> &str {
        "IRPnet"
    }

    fn wants_kirchhoff_loss(&self) -> bool {
        true
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
        let m = IrpNet::new(&mut store, 5, 4, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 5, 16, 16], -1.0, 1.0, 2));
        let y = m.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 1, 16, 16]);
    }

    #[test]
    fn requests_kirchhoff_loss() {
        let mut store = ParamStore::new();
        let m = IrpNet::new(&mut store, 5, 4, 1);
        assert!(m.wants_kirchhoff_loss());
    }
}
