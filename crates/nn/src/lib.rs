//! A small CPU deep-learning framework with tape-based automatic
//! differentiation.
//!
//! Rust has no mature GPU training stack, so the IR-Fusion
//! reproduction trains its convolutional models on this self-contained
//! framework (documented as a substitution in the repository's
//! DESIGN.md). It provides everything the paper's model zoo needs:
//!
//! - [`Tensor`]: dense NCHW `f32` tensors;
//! - [`Tape`]: a define-by-run autograd tape with "same"-padded 2-D
//!   convolution (square and `1xN` / `Nx1` kernels), pooling, nearest
//!   upsampling, channel/spatial attention primitives, concatenation,
//!   normalization and activations;
//! - [`ParamStore`]: named trainable parameters shared across forward
//!   passes, with [`init`] (Kaiming/Xavier), [`optim`] (Adam),
//!   [`loss`] (MAE + IRPnet's Kirchhoff residual loss), and
//!   [`serialize`] (self-contained binary checkpoints).
//!
//! # Example
//!
//! ```
//! use irf_nn::{ParamStore, Tape, Tensor};
//! use irf_nn::layers::Conv2d;
//!
//! let mut store = ParamStore::new();
//! // A 3x3 kernel: one zero row and column of padding on each side.
//! let conv = Conv2d::new(&mut store, "conv", 1, 4, 3, 3, 0x42);
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::zeros([2, 1, 8, 8]));
//! let y = conv.forward(&mut tape, &store, x);
//! assert_eq!(tape.value(y).shape(), [2, 4, 8, 8]);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod param;
pub mod serialize;
pub mod tape;
pub mod tensor;

pub use param::{ParamId, ParamStore};
pub use tape::{NodeId, Tape};
pub use tensor::Tensor;
