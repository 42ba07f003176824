//! The Inception Attention U-Net — the paper's model (Section III-D,
//! Fig. 4).
//!
//! Encoder: Inception-A at the finest scale, Inception-B at the middle
//! scale, Inception-C at the deepest scale ("this systematic ordering
//! aligns with established best practices and minimizes information
//! loss during downsampling"). Decoder: attention gates on the skip
//! connections plus CBAM refinement at every stage, ending in a
//! regression head.

use crate::attention_gate::AttentionGate;
use crate::blocks::{DoubleConv, RegressionHead};
use crate::cbam::Cbam;
use crate::inception::{Inception, InceptionKind};
use crate::Model;
use irf_nn::{NodeId, ParamStore, Tape};

/// Ablation switches for the Inception Attention U-Net. The full model
/// enables everything; each `false` reproduces one bar of Fig. 8. The
/// attention gates on the skip connections are always on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrFusionNetOptions {
    /// Use Inception encoder blocks (otherwise plain double convs).
    pub inception: bool,
    /// Apply CBAM in the decoder stages.
    pub cbam: bool,
}

impl Default for IrFusionNetOptions {
    fn default() -> Self {
        IrFusionNetOptions {
            inception: true,
            cbam: true,
        }
    }
}

#[derive(Debug, Clone)]
enum EncoderBlock {
    Inception(Inception),
    Plain(DoubleConv),
}

impl EncoderBlock {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        match self {
            EncoderBlock::Inception(b) => b.forward(tape, store, x),
            EncoderBlock::Plain(b) => b.forward(tape, store, x),
        }
    }
}

/// The Inception Attention U-Net.
#[derive(Debug, Clone)]
pub struct IrFusionNet {
    options: IrFusionNetOptions,
    enc1: EncoderBlock,
    enc2: EncoderBlock,
    enc3: EncoderBlock,
    bottleneck: DoubleConv,
    ag3: AttentionGate,
    ag2: AttentionGate,
    ag1: AttentionGate,
    dec3: DoubleConv,
    dec2: DoubleConv,
    dec1: DoubleConv,
    cbam3: Cbam,
    cbam2: Cbam,
    cbam1: Cbam,
    head: RegressionHead,
}

impl IrFusionNet {
    /// Registers the full model.
    pub fn new(store: &mut ParamStore, cin: usize, c: usize, seed: u64) -> Self {
        Self::with_options(store, cin, c, seed, IrFusionNetOptions::default())
    }

    /// Registers the model with ablation switches.
    pub fn with_options(
        store: &mut ParamStore,
        cin: usize,
        c: usize,
        seed: u64,
        options: IrFusionNetOptions,
    ) -> Self {
        let enc = |store: &mut ParamStore, name: &str, kind, cin, cout, seed| {
            if options.inception {
                EncoderBlock::Inception(Inception::new(store, name, kind, cin, cout, seed))
            } else {
                EncoderBlock::Plain(DoubleConv::new(store, name, cin, cout, seed))
            }
        };
        IrFusionNet {
            options,
            enc1: enc(store, "irfusion.enc1", InceptionKind::A, cin, c, seed),
            enc2: enc(store, "irfusion.enc2", InceptionKind::B, c, 2 * c, seed ^ 2),
            enc3: enc(
                store,
                "irfusion.enc3",
                InceptionKind::C,
                2 * c,
                4 * c,
                seed ^ 3,
            ),
            bottleneck: DoubleConv::new(store, "irfusion.bottleneck", 4 * c, 8 * c, seed ^ 4),
            ag3: AttentionGate::new(store, "irfusion.ag3", 4 * c, 8 * c, 2 * c, seed ^ 5),
            ag2: AttentionGate::new(store, "irfusion.ag2", 2 * c, 4 * c, c, seed ^ 6),
            ag1: AttentionGate::new(store, "irfusion.ag1", c, 2 * c, c, seed ^ 7),
            dec3: DoubleConv::new(store, "irfusion.dec3", 12 * c, 4 * c, seed ^ 8),
            dec2: DoubleConv::new(store, "irfusion.dec2", 6 * c, 2 * c, seed ^ 9),
            dec1: DoubleConv::new(store, "irfusion.dec1", 3 * c, c, seed ^ 10),
            cbam3: Cbam::new(store, "irfusion.cbam3", 4 * c, 4, seed ^ 11),
            cbam2: Cbam::new(store, "irfusion.cbam2", 2 * c, 4, seed ^ 12),
            cbam1: Cbam::new(store, "irfusion.cbam1", c, 4, seed ^ 13),
            head: RegressionHead::new(store, "irfusion.head", c, seed ^ 14),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn up_stage(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        coarse: NodeId,
        skip: NodeId,
        gate: &AttentionGate,
        conv: &DoubleConv,
        cbam: &Cbam,
    ) -> NodeId {
        let up = tape.upsample2(coarse);
        let skip = gate.forward(tape, store, skip, up);
        let cat = tape.concat_channels(up, skip);
        let mut out = conv.forward(tape, store, cat);
        if self.options.cbam {
            out = cbam.forward(tape, store, out);
        }
        out
    }
}

impl Model for IrFusionNet {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let s1 = self.enc1.forward(tape, store, x);
        let p1 = tape.max_pool2(s1);
        let s2 = self.enc2.forward(tape, store, p1);
        let p2 = tape.max_pool2(s2);
        let s3 = self.enc3.forward(tape, store, p2);
        let p3 = tape.max_pool2(s3);
        let b = self.bottleneck.forward(tape, store, p3);
        let d3 = self.up_stage(tape, store, b, s3, &self.ag3, &self.dec3, &self.cbam3);
        let d2 = self.up_stage(tape, store, d3, s2, &self.ag2, &self.dec2, &self.cbam2);
        let d1 = self.up_stage(tape, store, d2, s1, &self.ag1, &self.dec1, &self.cbam1);
        self.head.forward(tape, store, d1)
    }

    fn name(&self) -> &str {
        "IR-Fusion"
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
    fn forward_shape_full_model() {
        let mut store = ParamStore::new();
        let m = IrFusionNet::new(&mut store, 9, 6, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 9, 16, 16], -1.0, 1.0, 2));
        let y = m.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 1, 16, 16]);
        assert!(tape.value(y).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn ablations_change_parameterization_not_interface() {
        for options in [
            IrFusionNetOptions {
                inception: false,
                ..IrFusionNetOptions::default()
            },
            IrFusionNetOptions {
                cbam: false,
                ..IrFusionNetOptions::default()
            },
        ] {
            let mut store = ParamStore::new();
            let m = IrFusionNet::with_options(&mut store, 5, 6, 1, options);
            let mut tape = Tape::new();
            let x = tape.input(init::uniform([1, 5, 8, 8], -1.0, 1.0, 2));
            let y = m.forward(&mut tape, &store, x);
            assert_eq!(tape.value(y).shape(), [1, 1, 8, 8], "{options:?}");
        }
    }

    #[test]
    fn encoder_uses_inception_blocks_by_default() {
        let mut store = ParamStore::new();
        let _ = IrFusionNet::new(&mut store, 5, 6, 1);
        assert!(store.iter().any(|(_, n, _)| n.contains("enc2.b1")));
        assert!(store.iter().any(|(_, n, _)| n.contains("cbam")));
        assert!(store.iter().any(|(_, n, _)| n.contains("ag")));
    }

    #[test]
    fn one_training_step_moves_loss() {
        let mut store = ParamStore::new();
        let m = IrFusionNet::new(&mut store, 3, 6, 1);
        let xv = init::uniform([1, 3, 8, 8], 0.0, 1.0, 3);
        let target = irf_nn::Tensor::filled([1, 1, 8, 8], 0.3);
        let mut opt = irf_nn::optim::Adam::new(1e-2);
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for step in 0..8 {
            let mut tape = Tape::new();
            let x = tape.input(xv.clone());
            let y = m.forward(&mut tape, &store, x);
            let (loss, grad) = irf_nn::loss::mae(tape.value(y), &target);
            if step == 0 {
                first_loss = loss;
            }
            last_loss = loss;
            tape.backward(y, grad, &mut store);
            opt.step(&mut store);
        }
        assert!(
            last_loss < first_loss,
            "training should reduce loss: {first_loss} -> {last_loss}"
        );
    }
}
