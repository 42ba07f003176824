//! ICCAD-2023 contest-winner-style baseline: a wide plain U-Net with
//! an input refinement stem (the winning entries were heavily tuned
//! U-Net variants without architectural novelties).

use crate::blocks::{DoubleConv, RegressionHead, UpBlock};
use crate::Model;
use irf_nn::layers::ConvBlock;
use irf_nn::{NodeId, ParamStore, Tape};

/// The contest-winner-style model: stem + U-Net at 1.5x width.
#[derive(Debug, Clone)]
pub struct ContestWinner {
    stem: ConvBlock,
    enc1: DoubleConv,
    enc2: DoubleConv,
    enc3: DoubleConv,
    bottleneck: DoubleConv,
    up3: UpBlock,
    up2: UpBlock,
    up1: UpBlock,
    head: RegressionHead,
}

impl ContestWinner {
    /// Registers the model (internally widened by 3/2).
    pub fn new(store: &mut ParamStore, cin: usize, c: usize, seed: u64) -> Self {
        let w = c + c / 2;
        ContestWinner {
            stem: ConvBlock::new(store, "contest.stem", cin, w, 3, seed),
            enc1: DoubleConv::new(store, "contest.enc1", w, w, seed ^ 2),
            enc2: DoubleConv::new(store, "contest.enc2", w, 2 * w, seed ^ 3),
            enc3: DoubleConv::new(store, "contest.enc3", 2 * w, 4 * w, seed ^ 4),
            bottleneck: DoubleConv::new(store, "contest.bottleneck", 4 * w, 8 * w, seed ^ 5),
            up3: UpBlock::new(store, "contest.up3", 8 * w, 4 * w, 4 * w, seed ^ 6),
            up2: UpBlock::new(store, "contest.up2", 4 * w, 2 * w, 2 * w, seed ^ 7),
            up1: UpBlock::new(store, "contest.up1", 2 * w, w, w, seed ^ 8),
            head: RegressionHead::new(store, "contest.head", w, seed ^ 9),
        }
    }
}

impl Model for ContestWinner {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let f = self.stem.forward(tape, store, x);
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
        "ContestWinner"
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
        let m = ContestWinner::new(&mut store, 5, 4, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 5, 16, 16], -1.0, 1.0, 2));
        let y = m.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 1, 16, 16]);
    }

    #[test]
    fn wider_than_iredge() {
        let mut a = ParamStore::new();
        let _ = ContestWinner::new(&mut a, 5, 4, 1);
        let mut b = ParamStore::new();
        let _ = crate::iredge::IrEdge::new(&mut b, 5, 4, 1);
        assert!(a.num_scalars() > b.num_scalars());
    }
}
