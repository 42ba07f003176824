//! The IR-drop model zoo: the paper's Inception Attention U-Net and
//! every ML baseline it compares against.
//!
//! All models share the [`Model`] trait (a tape-recorded forward pass
//! over an NCHW feature stack producing a 1-channel drop map) and are
//! instantiated through [`registry::ModelKind`]:
//!
//! | kind | paper baseline | distinguishing structure |
//! |------|----------------|--------------------------|
//! | `IrEdge` | IREDGe | plain encoder-decoder U-Net |
//! | `Mavirec` | MAVIREC | deeper U-Net with input fusion convs (3-D U-Net folded to multi-channel 2-D) |
//! | `IrpNet` | IRPnet | spatial pyramid with global context + Kirchhoff-constrained training |
//! | `Pgau` | PGAU | U-Net with attention gates on skip connections |
//! | `MaUnet` | MAUnet | multiscale inputs at every encoder level + CBAM |
//! | `ContestWinner` | ICCAD-2023 winner | wide plain U-Net |
//! | `IrFusion` | **ours** | Inception-A/B/C encoder + attention gates + CBAM decoder |
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention_gate;
pub mod blocks;
pub mod cbam;
pub mod contest;
pub mod inception;
pub mod ir_fusion_net;
pub mod iredge;
pub mod irpnet;
pub mod maunet;
pub mod mavirec;
pub mod pgau;
pub mod registry;

use irf_nn::{NodeId, ParamStore, Tape};

/// A drop-prediction model: records its forward pass on a [`Tape`].
///
/// Input is `(N, C_in, H, W)` with `H`, `W` divisible by 8 (three
/// pooling stages); output is `(N, 1, H, W)`, non-negative.
///
/// `Send + Sync` so trained models can move into (and be shared by)
/// serving threads; implementations are plain parameter-handle structs,
/// which satisfy both automatically.
pub trait Model: Send + Sync {
    /// Records the forward pass, returning the prediction node.
    fn forward(&self, tape: &mut Tape, store: &ParamStore, x: NodeId) -> NodeId;

    /// Display name matching the paper's tables.
    fn name(&self) -> &str;

    /// Whether training should add the Kirchhoff-constraint loss
    /// (IRPnet's distinguishing training signal).
    fn wants_kirchhoff_loss(&self) -> bool {
        false
    }

    /// Switches the output head between ReLU (absolute drop maps,
    /// non-negative) and linear (signed residual corrections for the
    /// fusion pipeline). Default: ReLU.
    fn set_linear_head(&mut self, linear: bool);
}

pub use registry::{build_model, ModelConfig, ModelKind};
