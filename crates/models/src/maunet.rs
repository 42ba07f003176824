//! MAUnet (Wang et al., DAC'24): multiscale attention U-Net — the
//! input image is re-injected (downsampled) at every encoder level
//! and the bottleneck is refined with CBAM.

use crate::blocks::{DoubleConv, RegressionHead, UpBlock};
use crate::cbam::Cbam;
use crate::Model;
use irf_nn::{NodeId, ParamStore, Tape};

/// MAUnet: multiscale input injection + CBAM bottleneck attention.
#[derive(Debug, Clone)]
pub struct MaUnet {
    cin: usize,
    enc1: DoubleConv,
    enc2: DoubleConv,
    enc3: DoubleConv,
    bottleneck: DoubleConv,
    cbam: Cbam,
    up3: UpBlock,
    up2: UpBlock,
    up1: UpBlock,
    head: RegressionHead,
}

impl MaUnet {
    /// Registers the model.
    pub fn new(store: &mut ParamStore, cin: usize, c: usize, seed: u64) -> Self {
        MaUnet {
            cin,
            enc1: DoubleConv::new(store, "maunet.enc1", cin, c, seed),
            // Levels 2 and 3 see features + a downsampled input copy.
            enc2: DoubleConv::new(store, "maunet.enc2", c + cin, 2 * c, seed ^ 2),
            enc3: DoubleConv::new(store, "maunet.enc3", 2 * c + cin, 4 * c, seed ^ 3),
            bottleneck: DoubleConv::new(store, "maunet.bottleneck", 4 * c, 8 * c, seed ^ 4),
            cbam: Cbam::new(store, "maunet.cbam", 8 * c, 4, seed ^ 5),
            up3: UpBlock::new(store, "maunet.up3", 8 * c, 4 * c, 4 * c, seed ^ 6),
            up2: UpBlock::new(store, "maunet.up2", 4 * c, 2 * c, 2 * c, seed ^ 7),
            up1: UpBlock::new(store, "maunet.up1", 2 * c, c, c, seed ^ 8),
            head: RegressionHead::new(store, "maunet.head", c, seed ^ 9),
        }
    }
}

impl Model for MaUnet {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        debug_assert_eq!(tape.value(x).shape()[1], self.cin, "input channel mismatch");
        // Multiscale copies of the raw input.
        let x_half = tape.avg_pool2(x);
        let x_quarter = tape.avg_pool2(x_half);
        let s1 = self.enc1.forward(tape, store, x);
        let p1 = tape.max_pool2(s1);
        let in2 = tape.concat_channels(p1, x_half);
        let s2 = self.enc2.forward(tape, store, in2);
        let p2 = tape.max_pool2(s2);
        let in3 = tape.concat_channels(p2, x_quarter);
        let s3 = self.enc3.forward(tape, store, in3);
        let p3 = tape.max_pool2(s3);
        let b = self.bottleneck.forward(tape, store, p3);
        let b = self.cbam.forward(tape, store, b);
        let d3 = self.up3.forward(tape, store, b, s3);
        let d2 = self.up2.forward(tape, store, d3, s2);
        let d1 = self.up1.forward(tape, store, d2, s1);
        self.head.forward(tape, store, d1)
    }

    fn name(&self) -> &str {
        "MAUnet"
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
        let m = MaUnet::new(&mut store, 5, 4, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 5, 16, 16], -1.0, 1.0, 2));
        let y = m.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 1, 16, 16]);
    }

    #[test]
    fn cbam_parameters_exist() {
        let mut store = ParamStore::new();
        let _ = MaUnet::new(&mut store, 5, 4, 1);
        assert!(store.iter().any(|(_, n, _)| n.contains("cbam")));
    }
}
