//! Convolutional Block Attention Module (Woo et al., ECCV'18).
//!
//! CBAM refines a feature map with two sequential gates (paper
//! Eq. (6)): channel attention `M_c` (global view) followed by spatial
//! attention `M_s` (local view):
//!
//! ```text
//! m'  = M_c(m) ⊗ m
//! m'' = M_s(m') ⊗ m'
//! ```

use irf_nn::layers::{Conv2d, Linear};
use irf_nn::{NodeId, ParamStore, Tape};

/// The CBAM layer.
#[derive(Debug, Clone, Copy)]
pub struct Cbam {
    /// Shared MLP of the channel gate (applied to both pooled vectors).
    fc1: Linear,
    fc2: Linear,
    /// 7x7 convolution of the spatial gate over [mean; max] maps.
    spatial: Conv2d,
}

impl Cbam {
    /// Registers CBAM for `c` channels with reduction ratio `r`
    /// (clamped so the bottleneck keeps at least one unit).
    pub fn new(store: &mut ParamStore, name: &str, c: usize, r: usize, seed: u64) -> Self {
        let hidden = (c / r).max(1);
        Cbam {
            fc1: Linear::new(store, &format!("{name}.mc.fc1"), c, hidden, seed),
            fc2: Linear::new(store, &format!("{name}.mc.fc2"), hidden, c, seed ^ 0x1111),
            spatial: Conv2d::new(store, &format!("{name}.ms.conv"), 2, 1, 7, 7, seed ^ 0x2222),
        }
    }

    /// Records channel attention: `sigmoid(MLP(avg) + MLP(max))`.
    fn channel_gate(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let avg = tape.global_avg_pool(x);
        let max = tape.global_max_pool(x);
        let a = self.fc1.forward(tape, store, avg);
        let a = tape.relu(a);
        let a = self.fc2.forward(tape, store, a);
        let m = self.fc1.forward(tape, store, max);
        let m = tape.relu(m);
        let m = self.fc2.forward(tape, store, m);
        let s = tape.add(a, m);
        tape.sigmoid(s)
    }

    /// Records spatial attention: `sigmoid(conv7x7([mean_c; max_c]))`.
    fn spatial_gate(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let mean = tape.channel_mean(x);
        let max = tape.channel_max(x);
        let cat = tape.concat_channels(mean, max);
        let conv = self.spatial.forward(tape, store, cat);
        tape.sigmoid(conv)
    }

    /// Records the full CBAM refinement `m'' = M_s(M_c(m) ⊗ m) ⊗ ...`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let mc = self.channel_gate(tape, store, x);
        let xc = tape.mul_channel(x, mc);
        let ms = self.spatial_gate(tape, store, xc);
        tape.mul_spatial(xc, ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_nn::{init, Tensor};

    #[test]
    fn output_shape_matches_input() {
        let mut store = ParamStore::new();
        let cbam = Cbam::new(&mut store, "cbam", 8, 4, 3);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([2, 8, 6, 6], -1.0, 1.0, 1));
        let y = cbam.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [2, 8, 6, 6]);
    }

    #[test]
    fn attention_is_a_bounded_gate() {
        // With sigmoid gates, |output| <= |input| elementwise.
        let mut store = ParamStore::new();
        let cbam = Cbam::new(&mut store, "cbam", 4, 2, 5);
        let mut tape = Tape::new();
        let xv = init::uniform([1, 4, 5, 5], -2.0, 2.0, 9);
        let x = tape.input(xv.clone());
        let y = cbam.forward(&mut tape, &store, x);
        for (o, i) in tape.value(y).data().iter().zip(xv.data()) {
            assert!(o.abs() <= i.abs() + 1e-6);
        }
    }

    #[test]
    fn gradients_flow_through_cbam() {
        let mut store = ParamStore::new();
        let cbam = Cbam::new(&mut store, "cbam", 4, 2, 5);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 4, 4, 4], -1.0, 1.0, 9));
        let y = cbam.forward(&mut tape, &store, x);
        let seed = Tensor::filled(tape.value(y).shape(), 1.0);
        tape.backward(y, seed, &mut store);
        assert!(store.grad_norm() > 0.0, "parameters must receive gradient");
    }

    #[test]
    fn reduction_is_clamped() {
        // c=2, r=16 must not create a zero-width bottleneck.
        let mut store = ParamStore::new();
        let cbam = Cbam::new(&mut store, "cbam", 2, 16, 1);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros([1, 2, 4, 4]));
        let y = cbam.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), [1, 2, 4, 4]);
    }
}
