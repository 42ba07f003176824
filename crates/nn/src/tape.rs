//! Define-by-run autograd tape.
//!
//! Every forward pass records operations onto a fresh [`Tape`]; calling
//! [`Tape::backward`] with a seed gradient (normally `dL/d pred` from a
//! [`crate::loss`] function) walks the tape in reverse and accumulates
//! parameter gradients into the [`ParamStore`].

use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node (an intermediate tensor) on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Recorded operation, with enough information for the backward pass.
#[derive(Debug, Clone)]
enum Op {
    /// External input; no gradient is propagated.
    Input,
    /// Parameter read from the store; gradient flows to `ParamId`.
    Param(ParamId),
    /// "Same" 2-D convolution (see [`Tape::conv2d`]).
    Conv2d {
        x: NodeId,
        w: NodeId,
        b: NodeId,
    },
    Relu {
        x: NodeId,
    },
    Sigmoid {
        x: NodeId,
    },
    Add {
        a: NodeId,
        b: NodeId,
    },
    /// Concatenate along the channel dimension.
    ConcatChannels {
        a: NodeId,
        b: NodeId,
    },
    /// 2x2 max pooling with stride 2; argmax saved for backward.
    MaxPool2 {
        x: NodeId,
        argmax: Vec<usize>,
    },
    /// 2x2 average pooling with stride 2.
    AvgPool2 {
        x: NodeId,
    },
    /// Nearest-neighbour 2x upsampling.
    Upsample2 {
        x: NodeId,
    },
    /// Global average pool to `(N, C, 1, 1)`.
    GlobalAvgPool {
        x: NodeId,
    },
    /// Global max pool to `(N, C, 1, 1)`; argmax saved.
    GlobalMaxPool {
        x: NodeId,
        argmax: Vec<usize>,
    },
    /// Broadcast-multiply by per-channel scales `(N, C, 1, 1)`.
    MulChannel {
        x: NodeId,
        s: NodeId,
    },
    /// Broadcast-multiply by a spatial mask `(N, 1, H, W)`.
    MulSpatial {
        x: NodeId,
        s: NodeId,
    },
    /// Mean over channels to `(N, 1, H, W)`.
    ChannelMean {
        x: NodeId,
    },
    /// Max over channels to `(N, 1, H, W)`; arg channel saved.
    ChannelMax {
        x: NodeId,
        argmax: Vec<usize>,
    },
    /// Fully connected on `(N, C, 1, 1)` inputs.
    Linear {
        x: NodeId,
        w: NodeId,
        b: NodeId,
    },
    /// Per-(n, c) normalization over H x W with affine parameters;
    /// saved statistics for backward.
    InstanceNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        mean: Vec<f32>,
        inv_std: Vec<f32>,
    },
}

/// The autograd tape. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct Tape {
    ops: Vec<Op>,
    values: Vec<Tensor>,
    grads: Vec<Option<Tensor>>,
    needs_grad: Vec<bool>,
}

impl Tape {
    /// Creates an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The value tensor of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this tape.
    #[must_use]
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.values[id.0]
    }

    /// The gradient of a node after [`Tape::backward`]; `None` if the
    /// node did not require gradients or backward has not run.
    #[must_use]
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads[id.0].as_ref()
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> NodeId {
        let id = NodeId(self.ops.len());
        self.ops.push(op);
        self.values.push(value);
        self.grads.push(None);
        self.needs_grad.push(needs_grad);
        id
    }

    fn ng(&self, id: NodeId) -> bool {
        self.needs_grad[id.0]
    }

    /// Records an external input (no gradient).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(Op::Input, value, false)
    }

    /// Records a differentiable leaf that is *not* a stored parameter
    /// (the input of a gradient check).
    pub fn leaf(&mut self, value: Tensor) -> NodeId {
        self.push(Op::Input, value, true)
    }

    /// Reads a parameter from the store onto the tape.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        self.push(Op::Param(id), store.value(id).clone(), true)
    }

    /// 2-D convolution `x (N,Ci,H,W) * w (Co,Ci,kh,kw) + b (1,Co,1,1)`
    /// at stride 1 with "same" zero padding read off the kernel: `kh /
    /// 2` rows above and below, `kw / 2` columns left and right, so an
    /// odd kernel (square or Inception's `1xN` / `Nx1`) keeps `H x W`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches or zero-sized outputs.
    pub fn conv2d(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        let value = conv2d_forward(self.value(x), self.value(w), self.value(b));
        let needs = self.ng(x) || self.ng(w) || self.ng(b);
        self.push(Op::Conv2d { x, w, b }, value, needs)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let value = Tensor::from_vec(
            self.value(x).shape(),
            self.value(x).data().iter().map(|v| v.max(0.0)).collect(),
        );
        let needs = self.ng(x);
        self.push(Op::Relu { x }, value, needs)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let value = Tensor::from_vec(
            self.value(x).shape(),
            self.value(x)
                .data()
                .iter()
                .map(|v| 1.0 / (1.0 + (-v).exp()))
                .collect(),
        );
        let needs = self.ng(x);
        self.push(Op::Sigmoid { x }, value, needs)
    }

    /// Elementwise addition of equal-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "add: shape mismatch"
        );
        let value = self.value(a).add(self.value(b));
        let needs = self.ng(a) || self.ng(b);
        self.push(Op::Add { a, b }, value, needs)
    }

    /// Concatenates along channels: `(N, Ca+Cb, H, W)`.
    ///
    /// # Panics
    ///
    /// Panics if N/H/W differ.
    pub fn concat_channels(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let [na, ca, ha, wa] = self.value(a).shape();
        let [nb, cb, hb, wb] = self.value(b).shape();
        assert_eq!((na, ha, wa), (nb, hb, wb), "concat: N/H/W mismatch");
        // Per sample, `a`'s channels then `b`'s: two contiguous copies.
        let (sa, sb) = (ca * ha * wa, cb * ha * wa);
        let (ad, bd) = (self.value(a).data(), self.value(b).data());
        let mut data = Vec::with_capacity(na * (sa + sb));
        for ni in 0..na {
            data.extend_from_slice(&ad[ni * sa..][..sa]);
            data.extend_from_slice(&bd[ni * sb..][..sb]);
        }
        let out = Tensor::from_vec([na, ca + cb, ha, wa], data);
        let needs = self.ng(a) || self.ng(b);
        self.push(Op::ConcatChannels { a, b }, out, needs)
    }

    /// 2x2 max pooling with stride 2 (requires even H and W).
    ///
    /// # Panics
    ///
    /// Panics on odd spatial dimensions.
    pub fn max_pool2(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let [n, c, h, w] = xv.shape();
        assert!(h % 2 == 0 && w % 2 == 0, "max_pool2 requires even H and W");
        let (ho, wo) = (h / 2, w / 2);
        let xd = xv.data();
        let mut out = Vec::with_capacity(n * c * ho * wo);
        let mut argmax = Vec::with_capacity(n * c * ho * wo);
        for plane in 0..n * c {
            for hi in 0..ho {
                // Flat offsets of the window's two input rows.
                let top = (plane * h + 2 * hi) * w;
                for wi in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_off = 0;
                    for off in [top, top + 1, top + w, top + w + 1] {
                        let v = xd[off + 2 * wi];
                        if v > best {
                            best = v;
                            best_off = off + 2 * wi;
                        }
                    }
                    out.push(best);
                    argmax.push(best_off);
                }
            }
        }
        let out = Tensor::from_vec([n, c, ho, wo], out);
        let needs = self.ng(x);
        self.push(Op::MaxPool2 { x, argmax }, out, needs)
    }

    /// 2x2 average pooling with stride 2 (requires even H and W).
    ///
    /// # Panics
    ///
    /// Panics on odd spatial dimensions.
    pub fn avg_pool2(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let [n, c, h, w] = xv.shape();
        assert!(h % 2 == 0 && w % 2 == 0, "avg_pool2 requires even H and W");
        let (ho, wo) = (h / 2, w / 2);
        let xd = xv.data();
        let mut out = Vec::with_capacity(n * c * ho * wo);
        for plane in 0..n * c {
            for hi in 0..ho {
                let top = &xd[(plane * h + 2 * hi) * w..][..w];
                let bottom = &xd[(plane * h + 2 * hi + 1) * w..][..w];
                for wi in 0..wo {
                    let mut s = 0.0;
                    s += top[2 * wi];
                    s += top[2 * wi + 1];
                    s += bottom[2 * wi];
                    s += bottom[2 * wi + 1];
                    out.push(s / 4.0);
                }
            }
        }
        let out = Tensor::from_vec([n, c, ho, wo], out);
        let needs = self.ng(x);
        self.push(Op::AvgPool2 { x }, out, needs)
    }

    /// Nearest-neighbour 2x upsampling.
    pub fn upsample2(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let [n, c, h, w] = xv.shape();
        let mut out = Vec::with_capacity(n * c * 4 * h * w);
        for row in xv.data().chunks_exact(w.max(1)) {
            // Each input row becomes two equal output rows.
            let start = out.len();
            for &v in row {
                out.push(v);
                out.push(v);
            }
            out.extend_from_within(start..);
        }
        let out = Tensor::from_vec([n, c, 2 * h, 2 * w], out);
        let needs = self.ng(x);
        self.push(Op::Upsample2 { x }, out, needs)
    }

    /// Global average pooling to `(N, C, 1, 1)`.
    pub fn global_avg_pool(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let [n, c, h, w] = xv.shape();
        let out = (0..n * c)
            .map(|plane| {
                let mut s = 0.0;
                for &v in &xv.data()[plane * h * w..][..h * w] {
                    s += v;
                }
                s / (h * w) as f32
            })
            .collect();
        let out = Tensor::from_vec([n, c, 1, 1], out);
        let needs = self.ng(x);
        self.push(Op::GlobalAvgPool { x }, out, needs)
    }

    /// Global max pooling to `(N, C, 1, 1)`.
    pub fn global_max_pool(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let [n, c, h, w] = xv.shape();
        let mut out = Vec::with_capacity(n * c);
        let mut argmax = Vec::with_capacity(n * c);
        for plane in 0..n * c {
            let mut best = f32::NEG_INFINITY;
            let mut best_off = 0;
            let base = plane * h * w;
            for (i, &v) in xv.data()[base..][..h * w].iter().enumerate() {
                if v > best {
                    best = v;
                    best_off = base + i;
                }
            }
            out.push(best);
            argmax.push(best_off);
        }
        let out = Tensor::from_vec([n, c, 1, 1], out);
        let needs = self.ng(x);
        self.push(Op::GlobalMaxPool { x, argmax }, out, needs)
    }

    /// Multiplies `x (N,C,H,W)` by per-channel scales `s (N,C,1,1)` —
    /// the channel-attention application of CBAM.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not `(N, C, 1, 1)` for `x`'s N and C.
    pub fn mul_channel(&mut self, x: NodeId, s: NodeId) -> NodeId {
        let [n, c, h, w] = self.value(x).shape();
        assert_eq!(
            self.value(s).shape(),
            [n, c, 1, 1],
            "mul_channel scale shape"
        );
        let (xd, sd) = (self.value(x).data(), self.value(s).data());
        let mut out = Vec::with_capacity(n * c * h * w);
        for (plane, &sc) in sd.iter().enumerate() {
            out.extend(xd[plane * h * w..][..h * w].iter().map(|&v| v * sc));
        }
        let out = Tensor::from_vec([n, c, h, w], out);
        let needs = self.ng(x) || self.ng(s);
        self.push(Op::MulChannel { x, s }, out, needs)
    }

    /// Multiplies `x (N,C,H,W)` by a spatial mask `s (N,1,H,W)` — the
    /// spatial-attention application of CBAM and of attention gates.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not `(N, 1, H, W)` for `x`'s N, H, W.
    pub fn mul_spatial(&mut self, x: NodeId, s: NodeId) -> NodeId {
        let [n, c, h, w] = self.value(x).shape();
        assert_eq!(
            self.value(s).shape(),
            [n, 1, h, w],
            "mul_spatial mask shape"
        );
        let (xd, sd) = (self.value(x).data(), self.value(s).data());
        let mut out = Vec::with_capacity(n * c * h * w);
        for plane in 0..n * c {
            let mask = &sd[plane / c * h * w..][..h * w];
            let xs = &xd[plane * h * w..][..h * w];
            out.extend(xs.iter().zip(mask).map(|(&v, &m)| v * m));
        }
        let out = Tensor::from_vec([n, c, h, w], out);
        let needs = self.ng(x) || self.ng(s);
        self.push(Op::MulSpatial { x, s }, out, needs)
    }

    /// Mean over channels to `(N, 1, H, W)`.
    pub fn channel_mean(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let [n, c, h, w] = xv.shape();
        let hw = h * w;
        let mut out = vec![0.0f32; n * hw];
        for (ni, sums) in out.chunks_exact_mut(hw.max(1)).enumerate() {
            // Every pixel sums its channels in ascending order.
            for ci in 0..c {
                let xs = &xv.data()[(ni * c + ci) * hw..][..hw];
                for (s, &v) in sums.iter_mut().zip(xs) {
                    *s += v;
                }
            }
            for s in sums.iter_mut() {
                *s /= c as f32;
            }
        }
        let out = Tensor::from_vec([n, 1, h, w], out);
        let needs = self.ng(x);
        self.push(Op::ChannelMean { x }, out, needs)
    }

    /// Max over channels to `(N, 1, H, W)`.
    pub fn channel_max(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let [n, c, h, w] = xv.shape();
        let hw = h * w;
        let mut out = Vec::with_capacity(n * hw);
        let mut argmax = Vec::with_capacity(n * hw);
        for ni in 0..n {
            let xs = &xv.data()[ni * c * hw..][..c * hw];
            for i in 0..hw {
                // Channels in ascending order; a later channel wins only
                // when strictly greater.
                let mut best = f32::NEG_INFINITY;
                let mut best_c = 0;
                for ci in 0..c {
                    let v = xs[ci * hw + i];
                    if v > best {
                        best = v;
                        best_c = ci;
                    }
                }
                out.push(best);
                argmax.push(best_c);
            }
        }
        let out = Tensor::from_vec([n, 1, h, w], out);
        let needs = self.ng(x);
        self.push(Op::ChannelMax { x, argmax }, out, needs)
    }

    /// Fully connected layer on `(N, C, 1, 1)`: `y = W x + b` with
    /// `w (O, C, 1, 1)` and `b (1, O, 1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn linear(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        let [_, c, h, ww] = self.value(x).shape();
        assert_eq!((h, ww), (1, 1), "linear expects (N, C, 1, 1) input");
        let [o, ci, _, _] = self.value(w).shape();
        assert_eq!(ci, c, "linear weight input-dim mismatch");
        assert_eq!(self.value(b).shape(), [1, o, 1, 1], "linear bias shape");
        let out = linear_forward(self.value(x), self.value(w), self.value(b));
        let needs = self.ng(x) || self.ng(w) || self.ng(b);
        self.push(Op::Linear { x, w, b }, out, needs)
    }

    /// Instance normalization over H x W per `(n, c)`, with affine
    /// scale `gamma (1, C, 1, 1)` and shift `beta (1, C, 1, 1)`.
    ///
    /// This plays the role of the batch norm in the paper's models;
    /// with the small batches CPU training affords, per-instance
    /// statistics are the standard stable substitute.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn instance_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        let xv = self.value(x);
        let [n, c, h, w] = xv.shape();
        assert_eq!(self.value(gamma).shape(), [1, c, 1, 1], "gamma shape");
        assert_eq!(self.value(beta).shape(), [1, c, 1, 1], "beta shape");
        let m = (h * w) as f32;
        let (gd, bd) = (self.value(gamma).data(), self.value(beta).data());
        let mut out = Vec::with_capacity(n * c * h * w);
        let mut means = Vec::with_capacity(n * c);
        let mut inv_stds = Vec::with_capacity(n * c);
        for plane in 0..n * c {
            let xs = &xv.data()[plane * h * w..][..h * w];
            // Both sums stay sequential over the plane: their order is
            // part of the output's bits.
            let mut s = 0.0;
            for &v in xs {
                s += v;
            }
            let mean = s / m;
            let mut var = 0.0;
            for &v in xs {
                let d = v - mean;
                var += d * d;
            }
            var /= m;
            let inv_std = 1.0 / (var + eps).sqrt();
            means.push(mean);
            inv_stds.push(inv_std);
            let (g, bta) = (gd[plane % c], bd[plane % c]);
            out.extend(xs.iter().map(|&v| g * ((v - mean) * inv_std) + bta));
        }
        let out = Tensor::from_vec([n, c, h, w], out);
        let needs = self.ng(x) || self.ng(gamma) || self.ng(beta);
        self.push(
            Op::InstanceNorm {
                x,
                gamma,
                beta,
                mean: means,
                inv_std: inv_stds,
            },
            out,
            needs,
        )
    }

    /// Runs reverse-mode differentiation from `output`, seeding its
    /// gradient with `seed` (normally `dL/d output`), and accumulates
    /// parameter gradients into `store`.
    ///
    /// # Panics
    ///
    /// Panics if `seed`'s shape differs from the output value's shape.
    pub fn backward(&mut self, output: NodeId, seed: Tensor, store: &mut ParamStore) {
        assert_eq!(
            seed.shape(),
            self.values[output.0].shape(),
            "backward seed shape mismatch"
        );
        self.grads[output.0] = Some(seed);
        for i in (0..self.ops.len()).rev() {
            if !self.needs_grad[i] {
                continue;
            }
            let Some(grad) = self.grads[i].take() else {
                continue;
            };
            self.step_backward(i, &grad, store);
            // Keep the gradient available for inspection.
            self.grads[i] = Some(grad);
        }
    }

    fn add_grad(&mut self, id: NodeId, delta: Tensor) {
        if !self.needs_grad[id.0] {
            return;
        }
        match &mut self.grads[id.0] {
            Some(g) => {
                for (gi, di) in g.data_mut().iter_mut().zip(delta.data()) {
                    *gi += di;
                }
            }
            slot @ None => *slot = Some(delta),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step_backward(&mut self, i: usize, grad: &Tensor, store: &mut ParamStore) {
        let op = self.ops[i].clone();
        match op {
            Op::Input => {}
            Op::Param(pid) => store.accumulate_grad(pid, grad),
            Op::Conv2d { x, w, b } => {
                let (dx, dw, db) = conv2d_backward(self.value(x), self.value(w), grad);
                self.add_grad(x, dx);
                self.add_grad(w, dw);
                self.add_grad(b, db);
            }
            Op::Relu { x } => {
                let dx = Tensor::from_vec(
                    grad.shape(),
                    self.value(x)
                        .data()
                        .iter()
                        .zip(grad.data())
                        .map(|(&xv, &g)| if xv > 0.0 { g } else { 0.0 })
                        .collect(),
                );
                self.add_grad(x, dx);
            }
            Op::Sigmoid { x } => {
                let y = &self.values[i];
                let dx = Tensor::from_vec(
                    grad.shape(),
                    y.data()
                        .iter()
                        .zip(grad.data())
                        .map(|(&yv, &g)| g * yv * (1.0 - yv))
                        .collect(),
                );
                self.add_grad(x, dx);
            }
            Op::Add { a, b } => {
                self.add_grad(a, grad.clone());
                self.add_grad(b, grad.clone());
            }
            Op::ConcatChannels { a, b } => {
                let [n, ca, h, w] = self.value(a).shape();
                let [_, cb, _, _] = self.value(b).shape();
                let mut da = Tensor::zeros([n, ca, h, w]);
                let mut db = Tensor::zeros([n, cb, h, w]);
                for ni in 0..n {
                    for c in 0..ca {
                        for hi in 0..h {
                            for wi in 0..w {
                                da.set(ni, c, hi, wi, grad.at(ni, c, hi, wi));
                            }
                        }
                    }
                    for c in 0..cb {
                        for hi in 0..h {
                            for wi in 0..w {
                                db.set(ni, c, hi, wi, grad.at(ni, ca + c, hi, wi));
                            }
                        }
                    }
                }
                self.add_grad(a, da);
                self.add_grad(b, db);
            }
            Op::MaxPool2 { x, argmax } => {
                let mut dx = Tensor::zeros(self.value(x).shape());
                for (k, &off) in argmax.iter().enumerate() {
                    dx.data_mut()[off] += grad.data()[k];
                }
                self.add_grad(x, dx);
            }
            Op::AvgPool2 { x } => {
                let [n, c, h, w] = self.value(x).shape();
                let mut dx = Tensor::zeros([n, c, h, w]);
                for ni in 0..n {
                    for ci in 0..c {
                        for hi in 0..h / 2 {
                            for wi in 0..w / 2 {
                                let g = grad.at(ni, ci, hi, wi) / 4.0;
                                for dy in 0..2 {
                                    for dx_ in 0..2 {
                                        dx.add_at(ni, ci, 2 * hi + dy, 2 * wi + dx_, g);
                                    }
                                }
                            }
                        }
                    }
                }
                self.add_grad(x, dx);
            }
            Op::Upsample2 { x } => {
                let [n, c, h, w] = self.value(x).shape();
                let mut dx = Tensor::zeros([n, c, h, w]);
                for ni in 0..n {
                    for ci in 0..c {
                        for hi in 0..h {
                            for wi in 0..w {
                                let mut s = 0.0;
                                for dy in 0..2 {
                                    for dx_ in 0..2 {
                                        s += grad.at(ni, ci, 2 * hi + dy, 2 * wi + dx_);
                                    }
                                }
                                dx.set(ni, ci, hi, wi, s);
                            }
                        }
                    }
                }
                self.add_grad(x, dx);
            }
            Op::GlobalAvgPool { x } => {
                let [n, c, h, w] = self.value(x).shape();
                let inv = 1.0 / (h * w) as f32;
                let mut dx = Tensor::zeros([n, c, h, w]);
                for ni in 0..n {
                    for ci in 0..c {
                        let g = grad.at(ni, ci, 0, 0) * inv;
                        for hi in 0..h {
                            for wi in 0..w {
                                dx.set(ni, ci, hi, wi, g);
                            }
                        }
                    }
                }
                self.add_grad(x, dx);
            }
            Op::GlobalMaxPool { x, argmax } => {
                let mut dx = Tensor::zeros(self.value(x).shape());
                let [_, c, _, _] = self.value(x).shape();
                for (k, &off) in argmax.iter().enumerate() {
                    let (ni, ci) = (k / c, k % c);
                    dx.data_mut()[off] += grad.at(ni, ci, 0, 0);
                }
                self.add_grad(x, dx);
            }
            Op::MulChannel { x, s } => {
                let [n, c, h, w] = self.value(x).shape();
                let mut dx = Tensor::zeros([n, c, h, w]);
                let mut ds = Tensor::zeros([n, c, 1, 1]);
                for ni in 0..n {
                    for ci in 0..c {
                        let sc = self.value(s).at(ni, ci, 0, 0);
                        let mut acc = 0.0;
                        for hi in 0..h {
                            for wi in 0..w {
                                let g = grad.at(ni, ci, hi, wi);
                                dx.set(ni, ci, hi, wi, g * sc);
                                acc += g * self.value(x).at(ni, ci, hi, wi);
                            }
                        }
                        ds.set(ni, ci, 0, 0, acc);
                    }
                }
                self.add_grad(x, dx);
                self.add_grad(s, ds);
            }
            Op::MulSpatial { x, s } => {
                let [n, c, h, w] = self.value(x).shape();
                let mut dx = Tensor::zeros([n, c, h, w]);
                let mut ds = Tensor::zeros([n, 1, h, w]);
                for ni in 0..n {
                    for hi in 0..h {
                        for wi in 0..w {
                            let sc = self.value(s).at(ni, 0, hi, wi);
                            let mut acc = 0.0;
                            for ci in 0..c {
                                let g = grad.at(ni, ci, hi, wi);
                                dx.set(ni, ci, hi, wi, g * sc);
                                acc += g * self.value(x).at(ni, ci, hi, wi);
                            }
                            ds.set(ni, 0, hi, wi, acc);
                        }
                    }
                }
                self.add_grad(x, dx);
                self.add_grad(s, ds);
            }
            Op::ChannelMean { x } => {
                let [n, c, h, w] = self.value(x).shape();
                let inv = 1.0 / c as f32;
                let mut dx = Tensor::zeros([n, c, h, w]);
                for ni in 0..n {
                    for ci in 0..c {
                        for hi in 0..h {
                            for wi in 0..w {
                                dx.set(ni, ci, hi, wi, grad.at(ni, 0, hi, wi) * inv);
                            }
                        }
                    }
                }
                self.add_grad(x, dx);
            }
            Op::ChannelMax { x, argmax } => {
                let [n, _c, h, w] = self.value(x).shape();
                let mut dx = Tensor::zeros(self.value(x).shape());
                for ni in 0..n {
                    for hi in 0..h {
                        for wi in 0..w {
                            let ci = argmax[(ni * h + hi) * w + wi];
                            dx.add_at(ni, ci, hi, wi, grad.at(ni, 0, hi, wi));
                        }
                    }
                }
                self.add_grad(x, dx);
            }
            Op::Linear { x, w, b } => {
                let [n, c, _, _] = self.value(x).shape();
                let [o, _, _, _] = self.value(w).shape();
                let mut dx = Tensor::zeros([n, c, 1, 1]);
                let mut dw = Tensor::zeros(self.value(w).shape());
                let mut db = Tensor::zeros([1, o, 1, 1]);
                for ni in 0..n {
                    for oi in 0..o {
                        let g = grad.at(ni, oi, 0, 0);
                        db.add_at(0, oi, 0, 0, g);
                        for cj in 0..c {
                            dx.add_at(ni, cj, 0, 0, g * self.value(w).at(oi, cj, 0, 0));
                            dw.add_at(oi, cj, 0, 0, g * self.value(x).at(ni, cj, 0, 0));
                        }
                    }
                }
                self.add_grad(x, dx);
                self.add_grad(w, dw);
                self.add_grad(b, db);
            }
            Op::InstanceNorm {
                x,
                gamma,
                beta,
                mean,
                inv_std,
            } => {
                let xv = self.value(x);
                let [n, c, h, w] = xv.shape();
                let m = (h * w) as f32;
                let mut dx = Tensor::zeros([n, c, h, w]);
                let mut dgamma = Tensor::zeros([1, c, 1, 1]);
                let mut dbeta = Tensor::zeros([1, c, 1, 1]);
                for ni in 0..n {
                    for ci in 0..c {
                        let mu = mean[ni * c + ci];
                        let istd = inv_std[ni * c + ci];
                        let g = self.value(gamma).at(0, ci, 0, 0);
                        // Accumulate the two reductions the BN backward needs.
                        let mut sum_dy = 0.0;
                        let mut sum_dy_xhat = 0.0;
                        for hi in 0..h {
                            for wi in 0..w {
                                let dy = grad.at(ni, ci, hi, wi);
                                let xhat = (xv.at(ni, ci, hi, wi) - mu) * istd;
                                sum_dy += dy;
                                sum_dy_xhat += dy * xhat;
                                dgamma.add_at(0, ci, 0, 0, dy * xhat);
                                dbeta.add_at(0, ci, 0, 0, dy);
                            }
                        }
                        for hi in 0..h {
                            for wi in 0..w {
                                let dy = grad.at(ni, ci, hi, wi);
                                let xhat = (xv.at(ni, ci, hi, wi) - mu) * istd;
                                let v = g * istd * (dy - sum_dy / m - xhat * sum_dy_xhat / m);
                                dx.set(ni, ci, hi, wi, v);
                            }
                        }
                    }
                }
                self.add_grad(x, dx);
                self.add_grad(gamma, dgamma);
                self.add_grad(beta, dbeta);
            }
        }
    }
}

impl Tensor {
    /// Adds `v` at an index (internal helper for backward kernels).
    #[inline]
    pub(crate) fn add_at(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let o = self.offset(n, c, h, w);
        self.data_mut()[o] += v;
    }
}

/// Dense linear forward `y = W x + b` on `(N, C, 1, 1)` input.
fn linear_forward(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let [n, c, _, _] = x.shape();
    let [o, _, _, _] = w.shape();
    let mut out = Tensor::zeros([n, o, 1, 1]);
    let xd = x.data();
    let wd = w.data();
    let bd = b.data();
    let od = out.data_mut();
    // Row-parallel: one output row (all O units of one sample)
    // per work unit, each produced by the same serial loop.
    irf_runtime::par_chunks_mut(od, o, |ni, orow| {
        let xrow = ni * c;
        for (oi, s) in orow.iter_mut().enumerate() {
            let mut acc = bd[oi];
            let wrow = oi * c;
            for cj in 0..c {
                acc += wd[wrow + cj] * xd[xrow + cj];
            }
            *s = acc;
        }
    });
    out
}

/// Shapes of one convolution, shared by its forward and backward
/// kernels.
#[derive(Clone, Copy)]
struct ConvDims {
    ci: usize,
    h: usize,
    ww: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    pad_h: usize,
    pad_w: usize,
}

/// The half-open range of output positions `o < out` whose input
/// position `o + k - pad` lies inside `[0, len)`.
fn valid_outputs(k: usize, pad: usize, len: usize, out: usize) -> (usize, usize) {
    let lo = pad.saturating_sub(k);
    let hi = match (len + pad).checked_sub(k + 1) {
        Some(last) => (last + 1).min(out),
        None => 0,
    };
    (lo, hi)
}

/// The contiguous runs one weight tap pairs up: run `r` is `len`
/// elements of a destination map from `dst_at + r * dst_pitch` against
/// `len` elements of a source map from `src_at + r * src_pitch`.
struct TapRuns {
    count: usize,
    len: usize,
    dst_at: usize,
    dst_pitch: usize,
    src_at: usize,
    src_pitch: usize,
}

impl TapRuns {
    /// The same runs with the maps' roles exchanged.
    fn flipped(self) -> TapRuns {
        TapRuns {
            dst_at: self.src_at,
            dst_pitch: self.src_pitch,
            src_at: self.dst_at,
            src_pitch: self.dst_pitch,
            ..self
        }
    }
}

impl ConvDims {
    /// The dimensions of input `x` through weights `w` with
    /// [`Tape::conv2d`]'s "same" padding.
    fn new(x: &Tensor, w: &Tensor) -> Self {
        let [_, ci, h, ww] = x.shape();
        let [_, _, kh, kw] = w.shape();
        let (pad_h, pad_w) = (kh / 2, kw / 2);
        ConvDims {
            ci,
            h,
            ww,
            kh,
            kw,
            ho: h + 2 * pad_h + 1 - kh,
            wo: ww + 2 * pad_w + 1 - kw,
            pad_h,
            pad_w,
        }
    }

    /// The runs of tap `(ky, kx)` with the output map as destination
    /// and the input map as source; `None` when the tap only ever sees
    /// padding. That is one run per valid output row — or a single run
    /// over all of them when it spans whole rows of both maps (every
    /// 1x1 and kx1 tap, and the centre column of any kernel). Runs
    /// ascend by row, so accumulating them in order visits elements in
    /// the order of the bounds-checked nests.
    fn tap_runs(&self, ky: usize, kx: usize) -> Option<TapRuns> {
        let (oh_lo, oh_hi) = valid_outputs(ky, self.pad_h, self.h, self.ho);
        let (lo, hi) = valid_outputs(kx, self.pad_w, self.ww, self.wo);
        if oh_lo >= oh_hi || lo >= hi {
            return None;
        }
        let (rows, len) = (oh_hi - oh_lo, hi - lo);
        let whole_rows = len == self.wo && len == self.ww;
        Some(TapRuns {
            count: if whole_rows { 1 } else { rows },
            len: if whole_rows { rows * len } else { len },
            dst_at: oh_lo * self.wo + lo,
            dst_pitch: self.wo,
            // Input coordinates under output `(oh_lo, lo)`.
            src_at: (oh_lo + ky - self.pad_h) * self.ww + (lo + kx - self.pad_w),
            src_pitch: self.ww,
        })
    }

    /// [`ConvDims::tap_runs`] of every tap, in `(ky, kx)` order — the
    /// order of one channel's `kh x kw` weights. The runs depend on the
    /// tap alone, so one table serves every channel pair.
    fn taps(&self) -> Vec<Option<TapRuns>> {
        (0..self.kh * self.kw)
            .map(|tap| self.tap_runs(tap / self.kw, tap % self.kw))
            .collect()
    }
}

/// `dst[i] += a * src[i]`: one rounded multiply and one rounded add per
/// element, so vectorizing across elements changes no bit.
///
/// LLVM vectorizes a plain loop eight lanes to the iteration and leaves
/// up to seven elements to a scalar remainder loop. The forward's runs
/// span whole padded maps, but the backward `dx` scatters row by row,
/// and a 7- or 15-long row at the 8x8 and 16x16 scales is mostly
/// remainder. So the plain loop only gets the multiple of eight, and
/// `n % 8` is spelled out as straight-line groups of four, two and one,
/// which compile to one (partial) vector operation each. Indexing is
/// plain `[]` throughout: iterator adapters measured 3x slower in the
/// unoptimized builds the test suite runs.
fn axpy(dst: &mut [f32], src: &[f32], a: f32) {
    let n = dst.len();
    let src = &src[..n];
    let mut i = 0;
    while i < n & !7 {
        dst[i] += a * src[i];
        i += 1;
    }
    if n & 4 != 0 {
        let (d4, s4) = (&mut dst[i..i + 4], &src[i..i + 4]);
        d4[0] += a * s4[0];
        d4[1] += a * s4[1];
        d4[2] += a * s4[2];
        d4[3] += a * s4[3];
        i += 4;
    }
    if n & 2 != 0 {
        let (d2, s2) = (&mut dst[i..i + 2], &src[i..i + 2]);
        d2[0] += a * s2[0];
        d2[1] += a * s2[1];
        i += 2;
    }
    if n & 1 != 0 {
        dst[i] += a * src[i];
    }
}

/// `K` [`axpy`] passes in one: `dst[i] += w[k] * src[i + k]` for `k` in
/// `0..K` in turn. Each element receives the same rounded multiplies and
/// adds in the same order as from `K` passes, but is loaded and stored
/// once instead of `K` times, which leaves the pass bound by arithmetic
/// rather than by loads and stores.
fn axpy_row<const K: usize>(dst: &mut [f32], src: &[f32], w: [f32; K]) {
    let n = dst.len();
    let src = &src[..n + K - 1];
    for i in 0..n {
        let mut a = dst[i];
        for k in 0..K {
            a += w[k] * src[i + k];
        }
        dst[i] = a;
    }
}

/// [`axpy`] over every run of `t`.
fn axpy_runs(dst: &mut [f32], src: &[f32], t: &TapRuns, a: f32) {
    let (mut dst_at, mut src_at) = (t.dst_at, t.src_at);
    for _ in 0..t.count {
        axpy(&mut dst[dst_at..][..t.len], &src[src_at..][..t.len], a);
        dst_at += t.dst_pitch;
        src_at += t.src_pitch;
    }
}

/// Direct 2-D convolution forward pass.
fn conv2d_forward(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    conv2d_forward_with(x, w, b, true)
}

/// [`Tape::conv2d`]'s forward pass through the bounds-checked loop nest
/// alone. Production code reaches that nest only for the channels the
/// padded-pitch kernel cannot take exactly; parity tests call this to
/// hold that kernel to it bit for bit.
///
/// # Panics
///
/// Panics on shape mismatches or zero-sized outputs.
#[doc(hidden)]
#[must_use]
pub fn conv2d_forward_reference(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    conv2d_forward_with(x, w, b, false)
}

fn conv2d_forward_with(x: &Tensor, w: &Tensor, b: &Tensor, padded_kernel: bool) -> Tensor {
    let [n, ci, h, ww] = x.shape();
    let [co, ci_w, kh, kw] = w.shape();
    assert_eq!(ci, ci_w, "conv2d: input channel mismatch");
    assert_eq!(b.shape(), [1, co, 1, 1], "conv2d: bias shape");
    let d = ConvDims::new(x, w);
    let (ho, wo) = (d.ho, d.wo);
    assert!(ho > 0 && wo > 0, "conv2d: empty output");
    let mut out = Tensor::zeros([n, co, ho, wo]);
    let xd = x.data();
    let wd = w.data();
    let bd = b.data();
    let od = out.data_mut();
    let padded = padded_kernel.then(|| PaddedInput::new(xd, n, &d));
    // Parallel over (sample, output channel) blocks: each `ho x wo`
    // output map is written by exactly one task running the same serial
    // inner loop, so results are bitwise identical at any thread count.
    irf_runtime::par_chunks_mut(od, ho * wo, |blk, omap| {
        let ni = blk / co;
        let oc = blk % co;
        // This sample's input maps and this channel's weights.
        let xs = &xd[ni * ci * h * ww..][..ci * h * ww];
        let ws = &wd[oc * ci * kh * kw..][..ci * kh * kw];
        match &padded {
            Some(p) if PaddedInput::is_exact_for(ws, bd[oc]) => p.accumulate(omap, ni, ws, bd[oc]),
            _ => {
                omap.fill(bd[oc]);
                conv2d_map_bounds_checked(omap, xs, ws, &d);
            }
        }
    });
    out
}

/// Accumulates one sample's input maps `xs` (`ci x h x ww`) through one
/// output channel's weights `ws` (`ci x kh x kw`) into that channel's
/// bias-filled output map: every input coordinate is tested against
/// the map bounds inside the innermost loop.
fn conv2d_map_bounds_checked(omap: &mut [f32], xs: &[f32], ws: &[f32], d: &ConvDims) {
    let ConvDims {
        ci,
        h,
        ww,
        kh,
        kw,
        ho,
        wo,
        pad_h,
        pad_w,
    } = *d;
    for ic in 0..ci {
        let xbase = ic * h * ww;
        let wbase = ic * kh * kw;
        for ky in 0..kh {
            for kx in 0..kw {
                let wv = ws[wbase + ky * kw + kx];
                if wv == 0.0 {
                    continue;
                }
                // Valid output rows: iy = oh + ky - pad_h in [0, h).
                for oh in 0..ho {
                    let iy = (oh + ky) as isize - pad_h as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let xrow = xbase + iy as usize * ww;
                    let orow = oh * wo;
                    for ow in 0..wo {
                        let ix = (ow + kx) as isize - pad_w as isize;
                        if ix < 0 || ix >= ww as isize {
                            continue;
                        }
                        omap[orow + ow] += wv * xs[xrow + ix as usize];
                    }
                }
            }
        }
    }
}

/// The forward's view of its input: every row of every map
/// widened to the pitch `p = wo + kw - 1` with `pad_w` zero columns on
/// each side, so that output `(oh, ow)` of tap `(ky, kx)` reads element
/// `(oh + ky - pad_h) * p + ow + kx` of its channel's map. A tap is then
/// one run over the valid output rows of its kernel row `ky` in a
/// pitch-`p` accumulator, the `kw - 1` columns past `wo` in each row
/// included; those columns are garbage and are dropped at the end. The
/// `kw` taps of a kernel row share that run and differ only in where
/// they start reading, so [`axpy_row`] applies them in one pass.
///
/// Against [`conv2d_map_bounds_checked`], each output element receives the
/// same multiply-then-add terms in the same `(ic, ky, kx)` order,
/// zero-weight skip included, plus a `w * 0.0` for every tap that
/// reaches into the padding. Such a term is exact when `w` is finite
/// and the accumulator is not `-0.0`: `acc + (±0.0)` is then `acc`. An
/// accumulator is `-0.0` only if it started at `-0.0` and every term
/// added so far was `-0.0` (in round-to-nearest a nonzero sum that
/// cancels is `+0.0`), so a bias that is not `-0.0` keeps it off
/// `-0.0` for good. [`PaddedInput::is_exact_for`] is that test; a
/// channel that fails it goes through the general nest.
struct PaddedInput<'a> {
    /// `n x ci x h x p`, or the input itself when `pad_w == 0`.
    maps: std::borrow::Cow<'a, [f32]>,
    pitch: usize,
    /// Per kernel row `ky`: where its run starts in the accumulator and
    /// (for tap `kx = 0`) in the channel's padded map, and its length;
    /// `None` when no output row sees the kernel row.
    rows: Vec<Option<(usize, usize, usize)>>,
    d: ConvDims,
}

impl<'a> PaddedInput<'a> {
    fn new(xd: &'a [f32], n: usize, d: &ConvDims) -> Self {
        let pitch = d.wo + d.kw - 1;
        let maps = if d.pad_w == 0 {
            // `pitch == ww`: the input already has it.
            std::borrow::Cow::Borrowed(xd)
        } else {
            let mut maps = vec![0.0; n * d.ci * d.h * pitch];
            for (row, prow) in xd.chunks_exact(d.ww).zip(maps.chunks_exact_mut(pitch)) {
                prow[d.pad_w..][..d.ww].copy_from_slice(row);
            }
            std::borrow::Cow::Owned(maps)
        };
        let rows = (0..d.kh)
            .map(|ky| {
                let (lo, hi) = valid_outputs(ky, d.pad_h, d.h, d.ho);
                (lo < hi).then(|| {
                    let src_at = (lo + ky - d.pad_h) * pitch;
                    (lo * pitch, src_at, (hi - lo - 1) * pitch + d.wo)
                })
            })
            .collect();
        PaddedInput {
            maps,
            pitch,
            rows,
            d: *d,
        }
    }

    /// Whether the padding's `w * 0.0` terms leave every bit of the
    /// channel with weights `ws` and bias `bias` alone: when the bias is
    /// not `-0.0` and every weight is finite.
    fn is_exact_for(ws: &[f32], bias: f32) -> bool {
        bias.to_bits() != (-0.0f32).to_bits() && ws.iter().all(|w| w.is_finite())
    }

    /// Sample `ni`'s output map for the channel with weights `ws` and
    /// bias `bias`, written to `omap`.
    fn accumulate(&self, omap: &mut [f32], ni: usize, ws: &[f32], bias: f32) {
        let ConvDims {
            ci,
            h,
            kh,
            kw,
            ho,
            wo,
            ..
        } = self.d;
        let map = h * self.pitch;
        let xs = &self.maps[ni * ci * map..][..ci * map];
        // A one-column kernel (`pitch == wo`) leaves no garbage columns:
        // the output map is the accumulator.
        let mut wide = Vec::new();
        let acc = if self.pitch == wo {
            omap.fill(bias);
            &mut *omap
        } else {
            wide.resize(ho * self.pitch, bias);
            &mut wide[..]
        };
        for (xmap, wk) in xs.chunks_exact(map).zip(ws.chunks_exact(kh * kw)) {
            for (wrow, row) in wk.chunks_exact(kw).zip(&self.rows) {
                let &Some((dst_at, src_at, len)) = row else {
                    continue;
                };
                let dst = &mut acc[dst_at..][..len];
                let src = &xmap[src_at..][..len + kw - 1];
                // The model's kernel widths, when no tap is skipped.
                if !wrow.contains(&0.0) {
                    match *wrow {
                        [a, b, c] => {
                            axpy_row(dst, src, [a, b, c]);
                            continue;
                        }
                        [a, b, c, d, e, f, g] => {
                            axpy_row(dst, src, [a, b, c, d, e, f, g]);
                            continue;
                        }
                        _ => {}
                    }
                }
                for (kx, &wv) in wrow.iter().enumerate() {
                    if wv != 0.0 {
                        axpy(dst, &src[kx..][..len], wv);
                    }
                }
            }
        }
        if self.pitch != wo {
            for (orow, arow) in omap.chunks_exact_mut(wo).zip(wide.chunks_exact(self.pitch)) {
                orow.copy_from_slice(&arow[..wo]);
            }
        }
    }
}

/// Direct 2-D convolution backward pass: returns `(dx, dw, db)`.
fn conv2d_backward(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
    let d = ConvDims::new(x, w);
    let ConvDims {
        ci,
        h,
        ww,
        kh,
        kw,
        ho,
        wo,
        pad_h,
        pad_w,
    } = d;
    let (n, co) = (x.shape()[0], w.shape()[0]);
    let mut dx = Tensor::zeros([n, ci, h, ww]);
    let mut dw = Tensor::zeros(w.shape());
    let mut db = Tensor::zeros([1, co, 1, 1]);
    let xd = x.data();
    let wd = w.data();
    let dyd = dy.data();
    // The three gradients are computed by separate "owner-computes"
    // kernels: every output element is accumulated by exactly one task,
    // visiting its contributions in the same order as the serial loop
    // nest (samples ascending, then kernel taps, then output pixels) —
    // so results are bitwise identical at any thread count.

    // db[oc]: parallel over output channels.
    let dbd = db.data_mut();
    irf_runtime::par_chunks_mut(dbd, 1, |oc, slot| {
        for ni in 0..n {
            let dybase = ((ni * co + oc) * ho) * wo;
            let mut bsum = 0.0;
            for v in &dyd[dybase..dybase + ho * wo] {
                bsum += v;
            }
            slot[0] += bsum;
        }
    });

    // dw[oc, ic, ky, kx]: parallel over output channels (each owns a
    // `ci x kh x kw` block of the weight gradient). `wgrad` is one
    // serial sum over the tap's valid output pixels, rows then columns
    // ascending; only the bounds are resolved outside the loops.
    let dwd = dw.data_mut();
    irf_runtime::par_chunks_mut(dwd, ci * kh * kw, |oc, dwoc| {
        for ni in 0..n {
            let dybase = ((ni * co + oc) * ho) * wo;
            for ic in 0..ci {
                let xbase = ((ni * ci + ic) * h) * ww;
                for ky in 0..kh {
                    let (oh_lo, oh_hi) = valid_outputs(ky, pad_h, h, ho);
                    for kx in 0..kw {
                        let (lo, hi) = valid_outputs(kx, pad_w, ww, wo);
                        let mut wgrad = 0.0;
                        for oh in oh_lo..oh_hi {
                            let xrow = xbase + (oh + ky - pad_h) * ww;
                            let dyrow = dybase + oh * wo;
                            for ow in lo..hi {
                                wgrad += dyd[dyrow + ow] * xd[xrow + ow + kx - pad_w];
                            }
                        }
                        dwoc[(ic * kh + ky) * kw + kx] += wgrad;
                    }
                }
            }
        }
    });

    // dx[ni, ic, :, :]: parallel over (sample, input channel) maps,
    // with output channels as the inner loop so each dx element sees
    // its contributions in the serial order.
    let dxd = dx.data_mut();
    // Each tap's contiguous runs, scattering instead of gathering; per
    // `dx` element the adds arrive in the bounds-checked nest's `(oc,
    // ky, kx)` order, so the two are bitwise identical.
    let taps = d.taps().into_iter().map(|t| t.map(TapRuns::flipped));
    let taps: Vec<_> = taps.collect();
    irf_runtime::par_chunks_mut(dxd, h * ww, |blk, dxmap| {
        let ni = blk / ci;
        let ic = blk % ci;
        for oc in 0..co {
            let dymap = &dyd[((ni * co + oc) * ho) * wo..][..ho * wo];
            let wtaps = &wd[((oc * ci + ic) * kh) * kw..][..kh * kw];
            for (&wv, runs) in wtaps.iter().zip(&taps) {
                if let Some(runs) = runs {
                    axpy_runs(dxmap, dymap, runs, wv);
                }
            }
        }
    });
    (dx, dw, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks `d loss / d leaf` where `loss = sum(output)`.
    fn numeric_grad_check<F>(input: Tensor, forward: F, tol: f32)
    where
        F: Fn(&mut Tape, NodeId) -> NodeId,
    {
        let mut store = ParamStore::new();
        // Analytic gradient.
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let y = forward(&mut tape, x);
        let seed = Tensor::filled(tape.value(y).shape(), 1.0);
        tape.backward(y, seed, &mut store);
        let analytic = tape.grad(x).expect("leaf grad").clone();
        // Numeric gradient by central differences.
        let eps = 1e-3;
        for i in 0..input.numel() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let fp: f32 = {
                let mut t = Tape::new();
                let xi = t.leaf(plus);
                let y = forward(&mut t, xi);
                t.value(y).data().iter().sum()
            };
            let fm: f32 = {
                let mut t = Tape::new();
                let xi = t.leaf(minus);
                let y = forward(&mut t, xi);
                t.value(y).data().iter().sum()
            };
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {i}: analytic {a}, numeric {numeric}"
            );
        }
    }

    fn seeded_input(shape: [usize; 4]) -> Tensor {
        let n = shape.iter().product();
        let data = (0..n)
            .map(|i| ((i as f32 * 0.73).sin() * 0.9) + 0.05)
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn conv2d_identity_kernel() {
        let mut tape = Tape::new();
        let x = tape.input(seeded_input([1, 1, 4, 4]));
        let mut w = Tensor::zeros([1, 1, 3, 3]);
        w.set(0, 0, 1, 1, 1.0);
        let w = tape.input(w);
        let b = tape.input(Tensor::zeros([1, 1, 1, 1]));
        let y = tape.conv2d(x, w, b);
        assert_eq!(tape.value(y), tape.value(x));
    }

    #[test]
    fn conv2d_shapes() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros([2, 3, 8, 8]));
        let w = tape.input(Tensor::zeros([5, 3, 3, 3]));
        let b = tape.input(Tensor::zeros([1, 5, 1, 1]));
        assert_eq!(tape.conv2d(x, w, b), NodeId(3));
        assert_eq!(tape.value(NodeId(3)).shape(), [2, 5, 8, 8]);
    }

    #[test]
    fn batched_conv2d_is_bitwise_identical_to_single_samples() {
        // One batched forward over (B, C, H, W) must reproduce each
        // single-sample forward bit for bit — the contract that lets
        // the serving layer chunk a request's stacks freely.
        let samples: Vec<Tensor> = (0..4)
            .map(|s| {
                let data = (0..2 * 6 * 6)
                    .map(|i| ((i as f32 + s as f32 * 17.0) * 0.37).sin())
                    .collect();
                Tensor::from_vec([1, 2, 6, 6], data)
            })
            .collect();
        let w = seeded_input([3, 2, 3, 3]);
        let b = seeded_input([1, 3, 1, 1]);
        let batched = {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::concat_batch(&samples));
            let wn = tape.input(w.clone());
            let bn = tape.input(b.clone());
            let y = tape.conv2d(x, wn, bn);
            tape.value(y).clone()
        };
        assert_eq!(batched.shape(), [4, 3, 6, 6]);
        for (s, part) in batched.split_batch().into_iter().enumerate() {
            let single = {
                let mut tape = Tape::new();
                let x = tape.input(samples[s].clone());
                let wn = tape.input(w.clone());
                let bn = tape.input(b.clone());
                let y = tape.conv2d(x, wn, bn);
                tape.value(y).clone()
            };
            let pb: Vec<u32> = part.data().iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u32> = single.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(pb, sb, "sample {s} differs in batch");
        }
    }

    /// `(dx, dw)` through the loop nests `conv2d_backward` ran before its
    /// bounds were hoisted: every coordinate tested inside the innermost
    /// loop, in the same accumulation order.
    fn conv2d_backward_reference(x: &Tensor, w: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
        let [n, ci, h, ww] = x.shape();
        let [co, _, kh, kw] = w.shape();
        let [_, _, ho, wo] = dy.shape();
        let (pad_h, pad_w) = (kh / 2, kw / 2);
        let mut dx = Tensor::zeros(x.shape());
        let mut dw = Tensor::zeros(w.shape());
        for ni in 0..n {
            for oc in 0..co {
                for ic in 0..ci {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let wv = w.at(oc, ic, ky, kx);
                            let mut wgrad = 0.0;
                            for oh in 0..ho {
                                let iy = (oh + ky) as isize - pad_h as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for ow in 0..wo {
                                    let ix = (ow + kx) as isize - pad_w as isize;
                                    if ix < 0 || ix >= ww as isize {
                                        continue;
                                    }
                                    let (iy, ix) = (iy as usize, ix as usize);
                                    let g = dy.at(ni, oc, oh, ow);
                                    wgrad += g * x.at(ni, ic, iy, ix);
                                    dx.add_at(ni, ic, iy, ix, g * wv);
                                }
                            }
                            dw.add_at(oc, ic, ky, kx, wgrad);
                        }
                    }
                }
            }
        }
        (dx, dw)
    }

    #[test]
    fn conv2d_backward_is_bitwise_identical_to_the_bounds_checked_nests() {
        // (x shape, co, kernel): the model's kernels on an odd map, and
        // a map narrower than the kernel.
        let cases = [
            ([2, 3, 9, 11], 4, (1, 1)),
            ([2, 3, 9, 11], 4, (3, 3)),
            ([1, 2, 9, 11], 2, (1, 7)),
            ([1, 2, 9, 11], 2, (7, 1)),
            ([1, 2, 2, 2], 2, (7, 7)),
        ];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for (shape, co, (kh, kw)) in cases {
            let [n, ci, h, ww] = shape;
            let what = format!("{shape:?} {kh}x{kw}");
            let x = seeded_input(shape);
            let w = seeded_input([co, ci, kh, kw]);
            let dy = seeded_input([n, co, h, ww]);
            let (dx, dw, _) = conv2d_backward(&x, &w, &dy);
            let (dx_ref, dw_ref) = conv2d_backward_reference(&x, &w, &dy);
            assert_eq!(bits(&dx), bits(&dx_ref), "dx of {what}");
            assert_eq!(bits(&dw), bits(&dw_ref), "dw of {what}");
        }
    }

    /// The forward ops as they were written before they became slice
    /// loops: one `at()` / `set()` per element. Each returns its output
    /// and whatever the op saves for backward.
    mod indexed {
        use super::Tensor;

        pub fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
            let [na, ca, ha, wa] = a.shape();
            let [_, cb, _, _] = b.shape();
            let mut out = Tensor::zeros([na, ca + cb, ha, wa]);
            for n in 0..na {
                for c in 0..ca {
                    for h in 0..ha {
                        for w in 0..wa {
                            out.set(n, c, h, w, a.at(n, c, h, w));
                        }
                    }
                }
                for c in 0..cb {
                    for h in 0..ha {
                        for w in 0..wa {
                            out.set(n, ca + c, h, w, b.at(n, c, h, w));
                        }
                    }
                }
            }
            out
        }

        pub fn max_pool2(xv: &Tensor) -> (Tensor, Vec<usize>) {
            let [n, c, h, w] = xv.shape();
            let (ho, wo) = (h / 2, w / 2);
            let mut out = Tensor::zeros([n, c, ho, wo]);
            let mut argmax = vec![0usize; n * c * ho * wo];
            let mut k = 0;
            for ni in 0..n {
                for ci in 0..c {
                    for hi in 0..ho {
                        for wi in 0..wo {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_off = 0;
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let off = xv.offset(ni, ci, 2 * hi + dy, 2 * wi + dx);
                                    let v = xv.data()[off];
                                    if v > best {
                                        best = v;
                                        best_off = off;
                                    }
                                }
                            }
                            out.set(ni, ci, hi, wi, best);
                            argmax[k] = best_off;
                            k += 1;
                        }
                    }
                }
            }
            (out, argmax)
        }

        pub fn avg_pool2(xv: &Tensor) -> Tensor {
            let [n, c, h, w] = xv.shape();
            let (ho, wo) = (h / 2, w / 2);
            let mut out = Tensor::zeros([n, c, ho, wo]);
            for ni in 0..n {
                for ci in 0..c {
                    for hi in 0..ho {
                        for wi in 0..wo {
                            let mut s = 0.0;
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    s += xv.at(ni, ci, 2 * hi + dy, 2 * wi + dx);
                                }
                            }
                            out.set(ni, ci, hi, wi, s / 4.0);
                        }
                    }
                }
            }
            out
        }

        pub fn upsample2(xv: &Tensor) -> Tensor {
            let [n, c, h, w] = xv.shape();
            let mut out = Tensor::zeros([n, c, 2 * h, 2 * w]);
            for ni in 0..n {
                for ci in 0..c {
                    for hi in 0..h {
                        for wi in 0..w {
                            let v = xv.at(ni, ci, hi, wi);
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    out.set(ni, ci, 2 * hi + dy, 2 * wi + dx, v);
                                }
                            }
                        }
                    }
                }
            }
            out
        }

        pub fn global_avg_pool(xv: &Tensor) -> Tensor {
            let [n, c, h, w] = xv.shape();
            let mut out = Tensor::zeros([n, c, 1, 1]);
            for ni in 0..n {
                for ci in 0..c {
                    let mut s = 0.0;
                    for hi in 0..h {
                        for wi in 0..w {
                            s += xv.at(ni, ci, hi, wi);
                        }
                    }
                    out.set(ni, ci, 0, 0, s / (h * w) as f32);
                }
            }
            out
        }

        pub fn global_max_pool(xv: &Tensor) -> (Tensor, Vec<usize>) {
            let [n, c, h, w] = xv.shape();
            let mut out = Tensor::zeros([n, c, 1, 1]);
            let mut argmax = vec![0usize; n * c];
            for ni in 0..n {
                for ci in 0..c {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_off = 0;
                    for hi in 0..h {
                        for wi in 0..w {
                            let off = xv.offset(ni, ci, hi, wi);
                            if xv.data()[off] > best {
                                best = xv.data()[off];
                                best_off = off;
                            }
                        }
                    }
                    out.set(ni, ci, 0, 0, best);
                    argmax[ni * c + ci] = best_off;
                }
            }
            (out, argmax)
        }

        pub fn mul_channel(x: &Tensor, s: &Tensor) -> Tensor {
            let [n, c, h, w] = x.shape();
            let mut out = Tensor::zeros([n, c, h, w]);
            for ni in 0..n {
                for ci in 0..c {
                    let sc = s.at(ni, ci, 0, 0);
                    for hi in 0..h {
                        for wi in 0..w {
                            out.set(ni, ci, hi, wi, x.at(ni, ci, hi, wi) * sc);
                        }
                    }
                }
            }
            out
        }

        pub fn mul_spatial(x: &Tensor, s: &Tensor) -> Tensor {
            let [n, c, h, w] = x.shape();
            let mut out = Tensor::zeros([n, c, h, w]);
            for ni in 0..n {
                for ci in 0..c {
                    for hi in 0..h {
                        for wi in 0..w {
                            let v = x.at(ni, ci, hi, wi) * s.at(ni, 0, hi, wi);
                            out.set(ni, ci, hi, wi, v);
                        }
                    }
                }
            }
            out
        }

        pub fn channel_mean(xv: &Tensor) -> Tensor {
            let [n, c, h, w] = xv.shape();
            let mut out = Tensor::zeros([n, 1, h, w]);
            for ni in 0..n {
                for hi in 0..h {
                    for wi in 0..w {
                        let mut s = 0.0;
                        for ci in 0..c {
                            s += xv.at(ni, ci, hi, wi);
                        }
                        out.set(ni, 0, hi, wi, s / c as f32);
                    }
                }
            }
            out
        }

        pub fn channel_max(xv: &Tensor) -> (Tensor, Vec<usize>) {
            let [n, c, h, w] = xv.shape();
            let mut out = Tensor::zeros([n, 1, h, w]);
            let mut argmax = vec![0usize; n * h * w];
            for ni in 0..n {
                for hi in 0..h {
                    for wi in 0..w {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_c = 0;
                        for ci in 0..c {
                            let v = xv.at(ni, ci, hi, wi);
                            if v > best {
                                best = v;
                                best_c = ci;
                            }
                        }
                        out.set(ni, 0, hi, wi, best);
                        argmax[(ni * h + hi) * w + wi] = best_c;
                    }
                }
            }
            (out, argmax)
        }

        pub fn instance_norm(
            xv: &Tensor,
            gamma: &Tensor,
            beta: &Tensor,
            eps: f32,
        ) -> (Tensor, Vec<f32>, Vec<f32>) {
            let [n, c, h, w] = xv.shape();
            let m = (h * w) as f32;
            let mut out = Tensor::zeros([n, c, h, w]);
            let mut means = vec![0.0f32; n * c];
            let mut inv_stds = vec![0.0f32; n * c];
            for ni in 0..n {
                for ci in 0..c {
                    let mut s = 0.0;
                    for hi in 0..h {
                        for wi in 0..w {
                            s += xv.at(ni, ci, hi, wi);
                        }
                    }
                    let mean = s / m;
                    let mut var = 0.0;
                    for hi in 0..h {
                        for wi in 0..w {
                            let d = xv.at(ni, ci, hi, wi) - mean;
                            var += d * d;
                        }
                    }
                    var /= m;
                    let inv_std = 1.0 / (var + eps).sqrt();
                    means[ni * c + ci] = mean;
                    inv_stds[ni * c + ci] = inv_std;
                    let g = gamma.at(0, ci, 0, 0);
                    let bta = beta.at(0, ci, 0, 0);
                    for hi in 0..h {
                        for wi in 0..w {
                            let xhat = (xv.at(ni, ci, hi, wi) - mean) * inv_std;
                            out.set(ni, ci, hi, wi, g * xhat + bta);
                        }
                    }
                }
            }
            (out, means, inv_stds)
        }
    }

    /// Values on a coarse grid (so maxima tie), with `-0.0`, `+0.0`,
    /// `-inf` and a NaN mixed in.
    fn awkward_input(shape: [usize; 4], salt: usize) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|i| match (i * 7 + salt) % 23 {
                0 => -0.0,
                1 => 0.0,
                2 if i % 3 == 0 => f32::NEG_INFINITY,
                3 if i == n / 2 => f32::NAN,
                _ => (((i + salt) as f32 * 0.71).sin() * 4.0).round() / 4.0,
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    fn value_bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn slice_forward_ops_keep_the_bits_of_their_indexed_loops() {
        // Odd and even shapes, one and several samples; pools need
        // even maps.
        for shape in [[1, 1, 2, 2], [2, 3, 4, 6], [3, 5, 6, 2]] {
            let [n, c, h, w] = shape;
            let x = awkward_input(shape, 0);
            let other = awkward_input([n, c + 1, h, w], 5);
            let scales = awkward_input([n, c, 1, 1], 9);
            let mask = awkward_input([n, 1, h, w], 13);
            let gamma = seeded_input([1, c, 1, 1]);
            let beta = awkward_input([1, c, 1, 1], 2);
            // Instance norm on finite planes, so its statistics are
            // numbers that can differ.
            let finite = seeded_input(shape);

            let mut tape = Tape::new();
            let xn = tape.input(x.clone());
            let on = tape.input(other.clone());
            let sn = tape.input(scales.clone());
            let mn = tape.input(mask.clone());
            let fn_ = tape.input(finite.clone());
            let gn = tape.input(gamma.clone());
            let bn = tape.input(beta.clone());
            let what = format!("{shape:?}");
            let check = |tape: &Tape, id: NodeId, want: &Tensor, op: &str| {
                assert_eq!(tape.value(id).shape(), want.shape(), "{op} {what}");
                assert_eq!(value_bits(tape.value(id)), value_bits(want), "{op} {what}");
            };

            let y = tape.concat_channels(xn, on);
            check(&tape, y, &indexed::concat_channels(&x, &other), "concat");
            let y = tape.avg_pool2(xn);
            check(&tape, y, &indexed::avg_pool2(&x), "avg_pool2");
            let y = tape.upsample2(xn);
            check(&tape, y, &indexed::upsample2(&x), "upsample2");
            let y = tape.global_avg_pool(xn);
            check(&tape, y, &indexed::global_avg_pool(&x), "global_avg_pool");
            let y = tape.mul_channel(xn, sn);
            check(&tape, y, &indexed::mul_channel(&x, &scales), "mul_channel");
            let y = tape.mul_spatial(xn, mn);
            check(&tape, y, &indexed::mul_spatial(&x, &mask), "mul_spatial");
            let y = tape.channel_mean(xn);
            check(&tape, y, &indexed::channel_mean(&x), "channel_mean");

            let saved = |tape: &Tape, id: NodeId| match &tape.ops[id.0] {
                Op::MaxPool2 { argmax, .. }
                | Op::GlobalMaxPool { argmax, .. }
                | Op::ChannelMax { argmax, .. } => argmax.clone(),
                _ => unreachable!("not an argmax op"),
            };
            let y = tape.max_pool2(xn);
            let (want, argmax) = indexed::max_pool2(&x);
            check(&tape, y, &want, "max_pool2");
            assert_eq!(saved(&tape, y), argmax, "max_pool2 argmax {what}");
            let y = tape.global_max_pool(xn);
            let (want, argmax) = indexed::global_max_pool(&x);
            check(&tape, y, &want, "global_max_pool");
            assert_eq!(saved(&tape, y), argmax, "global_max_pool argmax {what}");
            let y = tape.channel_max(xn);
            let (want, argmax) = indexed::channel_max(&x);
            check(&tape, y, &want, "channel_max");
            assert_eq!(saved(&tape, y), argmax, "channel_max argmax {what}");

            for (input, id) in [(&x, xn), (&finite, fn_)] {
                let y = tape.instance_norm(id, gn, bn, 1e-5);
                let (want, means, inv_stds) = indexed::instance_norm(input, &gamma, &beta, 1e-5);
                check(&tape, y, &want, "instance_norm");
                let Op::InstanceNorm { mean, inv_std, .. } = &tape.ops[y.0] else {
                    unreachable!("not an instance norm");
                };
                let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(mean), bits(&means), "instance_norm mean {what}");
                assert_eq!(
                    bits(inv_std),
                    bits(&inv_stds),
                    "instance_norm inv_std {what}"
                );
            }
        }
    }

    #[test]
    fn batched_instance_norm_matches_single_samples() {
        // Instance norm keeps per-sample statistics, so batching must
        // not leak information across samples.
        let samples: Vec<Tensor> = (0..3)
            .map(|s| {
                let data = (0..2 * 4 * 4)
                    .map(|i| ((i as f32 * 0.61) + s as f32).cos() * 2.0)
                    .collect();
                Tensor::from_vec([1, 2, 4, 4], data)
            })
            .collect();
        let g = Tensor::filled([1, 2, 1, 1], 1.4);
        let bta = Tensor::filled([1, 2, 1, 1], -0.3);
        let batched = {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::concat_batch(&samples));
            let gn = tape.input(g.clone());
            let bn = tape.input(bta.clone());
            let y = tape.instance_norm(x, gn, bn, 1e-5);
            tape.value(y).clone()
        };
        for (s, part) in batched.split_batch().into_iter().enumerate() {
            let single = {
                let mut tape = Tape::new();
                let x = tape.input(samples[s].clone());
                let gn = tape.input(g.clone());
                let bn = tape.input(bta.clone());
                let y = tape.instance_norm(x, gn, bn, 1e-5);
                tape.value(y).clone()
            };
            let pb: Vec<u32> = part.data().iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u32> = single.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(pb, sb, "sample {s} differs in batch");
        }
    }

    #[test]
    fn conv2d_gradcheck_input() {
        let input = seeded_input([1, 2, 5, 5]);
        numeric_grad_check(
            input,
            |t, x| {
                let w = t.input(seeded_input([3, 2, 3, 3]));
                let b = t.input(seeded_input([1, 3, 1, 1]));
                t.conv2d(x, w, b)
            },
            1e-2,
        );
    }

    #[test]
    fn conv2d_gradcheck_weights() {
        // Check dL/dw by making the weight the leaf.
        let winit = seeded_input([2, 1, 3, 3]);
        numeric_grad_check(
            winit,
            |t, w| {
                let x = t.input(seeded_input([1, 1, 4, 4]));
                let b = t.input(Tensor::zeros([1, 2, 1, 1]));
                t.conv2d(x, w, b)
            },
            1e-2,
        );
    }

    #[test]
    fn relu_and_sigmoid_gradcheck() {
        numeric_grad_check(seeded_input([1, 1, 3, 3]), |t, x| t.relu(x), 1e-2);
        numeric_grad_check(seeded_input([1, 1, 3, 3]), |t, x| t.sigmoid(x), 1e-2);
    }

    #[test]
    fn pooling_gradcheck() {
        numeric_grad_check(seeded_input([1, 2, 4, 4]), |t, x| t.max_pool2(x), 1e-2);
        numeric_grad_check(seeded_input([1, 2, 4, 4]), |t, x| t.avg_pool2(x), 1e-2);
        numeric_grad_check(seeded_input([1, 2, 2, 2]), |t, x| t.upsample2(x), 1e-2);
        numeric_grad_check(
            seeded_input([1, 3, 3, 3]),
            |t, x| t.global_avg_pool(x),
            1e-2,
        );
        numeric_grad_check(
            seeded_input([1, 3, 3, 3]),
            |t, x| t.global_max_pool(x),
            1e-2,
        );
    }

    #[test]
    fn attention_primitive_gradcheck() {
        numeric_grad_check(seeded_input([1, 3, 3, 3]), |t, x| t.channel_mean(x), 1e-2);
        numeric_grad_check(seeded_input([1, 3, 3, 3]), |t, x| t.channel_max(x), 1e-2);
        numeric_grad_check(
            seeded_input([1, 2, 3, 3]),
            |t, x| {
                let s = t.input(seeded_input([1, 2, 1, 1]));
                t.mul_channel(x, s)
            },
            1e-2,
        );
        numeric_grad_check(
            seeded_input([1, 2, 3, 3]),
            |t, x| {
                let s = t.input(seeded_input([1, 1, 3, 3]));
                t.mul_spatial(x, s)
            },
            1e-2,
        );
    }

    #[test]
    fn elementwise_and_concat_gradcheck() {
        numeric_grad_check(
            seeded_input([1, 2, 2, 2]),
            |t, x| {
                let o = t.input(seeded_input([1, 2, 2, 2]));
                let s = t.add(x, o);
                t.add(s, x)
            },
            1e-2,
        );
        numeric_grad_check(
            seeded_input([1, 2, 2, 2]),
            |t, x| {
                let o = t.input(seeded_input([1, 3, 2, 2]));
                t.concat_channels(x, o)
            },
            1e-2,
        );
    }

    #[test]
    fn linear_gradcheck() {
        numeric_grad_check(
            seeded_input([2, 3, 1, 1]),
            |t, x| {
                let w = t.input(seeded_input([4, 3, 1, 1]));
                let b = t.input(seeded_input([1, 4, 1, 1]));
                t.linear(x, w, b)
            },
            1e-2,
        );
    }

    #[test]
    fn instance_norm_gradcheck() {
        numeric_grad_check(
            seeded_input([1, 2, 3, 3]),
            |t, x| {
                let g = t.input(Tensor::filled([1, 2, 1, 1], 1.3));
                let b = t.input(Tensor::filled([1, 2, 1, 1], -0.2));
                t.instance_norm(x, g, b, 1e-5)
            },
            5e-2,
        );
    }

    #[test]
    fn instance_norm_output_is_normalized() {
        let mut tape = Tape::new();
        let x = tape.input(seeded_input([2, 3, 4, 4]));
        let g = tape.input(Tensor::filled([1, 3, 1, 1], 1.0));
        let b = tape.input(Tensor::zeros([1, 3, 1, 1]));
        let y = tape.instance_norm(x, g, b, 1e-6);
        let yv = tape.value(y);
        // Per (n, c) mean ~ 0, variance ~ 1.
        for n in 0..2 {
            for c in 0..3 {
                let mut mean = 0.0;
                for h in 0..4 {
                    for w in 0..4 {
                        mean += yv.at(n, c, h, w);
                    }
                }
                mean /= 16.0;
                assert!(mean.abs() < 1e-4, "mean {mean}");
            }
        }
    }

    #[test]
    fn param_gradients_reach_store() {
        let mut store = ParamStore::new();
        let pid = store.register("w", Tensor::filled([1, 1, 1, 1], 2.0));
        let mut tape = Tape::new();
        let x = tape.input(Tensor::filled([1, 1, 1, 1], 3.0));
        let w = tape.param(&store, pid);
        let y = tape.mul_channel(x, w);
        tape.backward(y, Tensor::filled([1, 1, 1, 1], 1.0), &mut store);
        // d(x*w)/dw = x = 3
        assert_eq!(store.grad(pid).data(), &[3.0]);
    }

    #[test]
    fn inputs_do_not_collect_gradients() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.input(Tensor::filled([1, 1, 1, 1], 3.0));
        let y = tape.relu(x);
        tape.backward(y, Tensor::filled([1, 1, 1, 1], 1.0), &mut store);
        assert!(tape.grad(x).is_none());
    }

    #[test]
    fn gradient_accumulates_across_fanout() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::filled([1, 1, 1, 1], 1.5));
        let y = tape.add(x, x); // dy/dx = 2
        tape.backward(y, Tensor::filled([1, 1, 1, 1], 1.0), &mut store);
        assert_eq!(tape.grad(x).unwrap().data(), &[2.0]);
    }
}
