//! Inception modules A, B, and C (Szegedy et al., Inception-v3/v4).
//!
//! Multi-branch convolutions that see several kernel sizes at once.
//! Following the paper (and Inception-v4 best practice), the encoder
//! applies **A** at the earliest scale, **B** at moderate scale, and
//! **C** — optimized for high-dimensional features — at the deepest
//! scale.

use irf_nn::layers::{Conv2d, Norm};
use irf_nn::{NodeId, ParamStore, Tape};

/// Which Inception variant a block applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InceptionKind {
    /// 1x1 / 3x3 / double-3x3 branches (early layers).
    A,
    /// Factorized 1x7 + 7x1 branches (moderate-size features).
    B,
    /// Expanded 1x3 / 3x1 branches (high-dimensional features).
    C,
}

/// A branch's `(kh, kw)` conv kernels, in order.
type Kernels = &'static [(usize, usize)];

/// One Inception block: multi-branch convolution + norm + ReLU with
/// `cout` output channels split across three branches.
#[derive(Debug, Clone)]
pub struct Inception {
    // Branch 0: plain 1x1.
    b0: Conv2d,
    // Branch 1 and 2: chains whose composition depends on the kind.
    b1: Vec<Conv2d>,
    b2: Vec<Conv2d>,
    norm: Norm,
}

impl Inception {
    /// Registers an Inception block mapping `cin` to `cout` channels.
    ///
    /// # Panics
    ///
    /// Panics if `cout < 3` (each branch needs at least one channel).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        kind: InceptionKind,
        cin: usize,
        cout: usize,
        seed: u64,
    ) -> Self {
        assert!(cout >= 3, "inception needs at least 3 output channels");
        let c0 = cout - 2 * (cout / 3);
        let c1 = cout / 3;
        let c2 = cout / 3;
        let b0 = Conv2d::new(store, &format!("{name}.b0"), cin, c0, 1, 1, seed);
        // The `(kh, kw)` kernels of branches 1 and 2; each opens with a
        // 1x1 from `cin` to the branch width.
        let (k1, k2): (Kernels, Kernels) = match kind {
            // b1: 1x1 -> 3x3 ; b2: 1x1 -> 3x3 -> 3x3.
            InceptionKind::A => (&[(1, 1), (3, 3)], &[(1, 1), (3, 3), (3, 3)]),
            // Factorized 7x7: 1x1 -> 1x7 -> 7x1 (b1) and a longer
            // 1x1 -> 7x1 -> 1x7 chain (b2).
            InceptionKind::B => (&[(1, 1), (1, 7), (7, 1)], &[(1, 1), (7, 1), (1, 7)]),
            // Expanded small kernels: 1x1 -> 1x3 (b1) and
            // 1x1 -> 3x1 -> 1x3 (b2).
            InceptionKind::C => (&[(1, 1), (1, 3)], &[(1, 1), (3, 1), (1, 3)]),
        };
        // Branch convs take seeds `seed ^ 1`, `seed ^ 2`, ... in
        // registration order.
        let b1 = branch(store, &format!("{name}.b1"), cin, c1, k1, seed, 0);
        let salt = k1.len() as u64;
        let b2 = branch(store, &format!("{name}.b2"), cin, c2, k2, seed, salt);
        let norm = Norm::new(store, &format!("{name}.norm"), cout);
        Inception { b0, b1, b2, norm }
    }

    /// Records the block: branch concat + norm + ReLU.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId {
        let y0 = self.b0.forward(tape, store, x);
        let mut y1 = x;
        for c in &self.b1 {
            y1 = c.forward(tape, store, y1);
        }
        let mut y2 = x;
        for c in &self.b2 {
            y2 = c.forward(tape, store, y2);
        }
        let cat = tape.concat_channels(y0, y1);
        let cat = tape.concat_channels(cat, y2);
        let normed = self.norm.forward(tape, store, cat);
        tape.relu(normed)
    }
}

/// Registers one branch `{name}.0`, `{name}.1`, ...: a conv per `(kh,
/// kw)` kernel, the first from `cin` channels and every one to `width`,
/// seeded `seed ^ (salt + 1)`, `seed ^ (salt + 2)`, ... in turn.
fn branch(
    store: &mut ParamStore,
    name: &str,
    cin: usize,
    width: usize,
    kernels: &[(usize, usize)],
    seed: u64,
    salt: u64,
) -> Vec<Conv2d> {
    let salts = salt + 1..;
    let convs = kernels.iter().zip(salts).enumerate();
    convs
        .map(|(i, (&(kh, kw), salt))| {
            let from = if i == 0 { cin } else { width };
            Conv2d::new(
                store,
                &format!("{name}.{i}"),
                from,
                width,
                kh,
                kw,
                seed ^ salt,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_nn::{init, Tensor};

    #[test]
    fn all_kinds_preserve_spatial_size_and_hit_cout() {
        for kind in [InceptionKind::A, InceptionKind::B, InceptionKind::C] {
            let mut store = ParamStore::new();
            let inc = Inception::new(&mut store, "inc", kind, 5, 10, 42);
            let mut tape = Tape::new();
            let x = tape.input(Tensor::zeros([1, 5, 8, 8]));
            let y = inc.forward(&mut tape, &store, x);
            assert_eq!(tape.value(y).shape(), [1, 10, 8, 8], "{kind:?}");
        }
    }

    #[test]
    fn channel_split_covers_cout_exactly() {
        // cout = 10 -> branches 4 + 3 + 3.
        let mut store = ParamStore::new();
        let inc = Inception::new(&mut store, "inc", InceptionKind::A, 4, 10, 1);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros([1, 4, 4, 4]));
        let y = inc.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape()[1], 10);
    }

    #[test]
    fn gradients_flow_through_all_branches() {
        let mut store = ParamStore::new();
        let inc = Inception::new(&mut store, "inc", InceptionKind::B, 3, 6, 7);
        let mut tape = Tape::new();
        let x = tape.input(init::uniform([1, 3, 8, 8], -1.0, 1.0, 3));
        let y = inc.forward(&mut tape, &store, x);
        tape.backward(y, Tensor::filled([1, 6, 8, 8], 1.0), &mut store);
        // Every conv branch parameter should have nonzero gradient norm.
        let zero_grads = store
            .iter()
            .filter(|(id, name, _)| {
                name.contains(".b") && store.grad(*id).data().iter().all(|&g| g == 0.0)
            })
            .count();
        assert_eq!(zero_grads, 0, "some branches received no gradient");
    }

    #[test]
    #[should_panic(expected = "at least 3 output channels")]
    fn tiny_cout_is_rejected() {
        let mut store = ParamStore::new();
        let _ = Inception::new(&mut store, "inc", InceptionKind::A, 4, 2, 1);
    }
}
