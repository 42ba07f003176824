//! PGAU (Guo et al., GLSVLSI'24): attention U-Net — attention gates
//! filter every skip connection. The model IR-Fusion "improves based
//! on".

use crate::attention_gate::AttentionGate;
use crate::blocks::{DoubleConv, RegressionHead};
use crate::Model;
use irf_nn::{NodeId, ParamStore, Tape};

/// PGAU: U-Net whose skips pass through additive attention gates.
#[derive(Debug, Clone)]
pub struct Pgau {
    enc1: DoubleConv,
    enc2: DoubleConv,
    enc3: DoubleConv,
    bottleneck: DoubleConv,
    ag3: AttentionGate,
    ag2: AttentionGate,
    ag1: AttentionGate,
    dec3: DoubleConv,
    dec2: DoubleConv,
    dec1: DoubleConv,
    head: RegressionHead,
}

impl Pgau {
    /// Registers the model.
    pub fn new(store: &mut ParamStore, cin: usize, c: usize, seed: u64) -> Self {
        Pgau {
            enc1: DoubleConv::new(store, "pgau.enc1", cin, c, seed),
            enc2: DoubleConv::new(store, "pgau.enc2", c, 2 * c, seed ^ 2),
            enc3: DoubleConv::new(store, "pgau.enc3", 2 * c, 4 * c, seed ^ 3),
            bottleneck: DoubleConv::new(store, "pgau.bottleneck", 4 * c, 8 * c, seed ^ 4),
            ag3: AttentionGate::new(store, "pgau.ag3", 4 * c, 8 * c, 2 * c, seed ^ 5),
            ag2: AttentionGate::new(store, "pgau.ag2", 2 * c, 4 * c, c, seed ^ 6),
            ag1: AttentionGate::new(store, "pgau.ag1", c, 2 * c, c, seed ^ 7),
            dec3: DoubleConv::new(store, "pgau.dec3", 12 * c, 4 * c, seed ^ 8),
            dec2: DoubleConv::new(store, "pgau.dec2", 6 * c, 2 * c, seed ^ 9),
            dec1: DoubleConv::new(store, "pgau.dec1", 3 * c, c, seed ^ 10),
            head: RegressionHead::new(store, "pgau.head", c, seed ^ 11),
        }
    }

    fn up_gated(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        coarse: NodeId,
        skip: NodeId,
        gate: &AttentionGate,
        conv: &DoubleConv,
    ) -> NodeId {
        let up = tape.upsample2(coarse);
        let gated = gate.forward(tape, store, skip, up);
        let cat = tape.concat_channels(up, gated);
        conv.forward(tape, store, cat)
    }
}

impl Model for Pgau {
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let s1 = self.enc1.forward(tape, store, x);
        let p1 = tape.max_pool2(s1);
        let s2 = self.enc2.forward(tape, store, p1);
        let p2 = tape.max_pool2(s2);
        let s3 = self.enc3.forward(tape, store, p2);
        let p3 = tape.max_pool2(s3);
        let b = self.bottleneck.forward(tape, store, p3);
        let d3 = self.up_gated(tape, store, b, s3, &self.ag3, &self.dec3);
        let d2 = self.up_gated(tape, store, d3, s2, &self.ag2, &self.dec2);
        let d1 = self.up_gated(tape, store, d2, s1, &self.ag1, &self.dec1);
        self.head.forward(tape, store, d1)
    }

    fn name(&self) -> &str {
        "PGAU"
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
        let m = Pgau::new(&mut store, 6, 4, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 6, 16, 16], -1.0, 1.0, 2));
        let y = m.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 1, 16, 16]);
    }

    #[test]
    fn gates_receive_gradient() {
        let mut store = ParamStore::new();
        let m = Pgau::new(&mut store, 3, 4, 1);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 3, 8, 8], 0.0, 1.0, 3));
        let y = m.forward(&mut tape, &store, x);
        let target = irf_nn::Tensor::filled([1, 1, 8, 8], 0.1);
        let (_, g) = irf_nn::loss::mae(tape.value(y), &target);
        tape.backward(y, g, &mut store);
        let ag_grad: f32 = store
            .iter()
            .filter(|(_, n, _)| n.contains(".ag"))
            .map(|(id, _, _)| store.grad(id).data().iter().map(|v| v * v).sum::<f32>())
            .sum();
        assert!(ag_grad > 0.0, "attention gates trained");
    }
}
