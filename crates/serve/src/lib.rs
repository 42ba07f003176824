//! `irf-serve`: a dependency-free inference server for IR-Fusion.
//!
//! The crate turns the [`ir_fusion`] pipeline into a long-running
//! HTTP/1.1 service on `std::net::TcpListener` — no async runtime, no
//! HTTP or JSON crates, in keeping with the repo's toolchain-only
//! build. Two ideas carry the design:
//!
//! - **One forward per request, on the request's thread**: a handler
//!   prepares its stacks and runs the model itself
//!   ([`ir_fusion::IrFusionPipeline::predict_batch`], in chunks of four
//!   for a sweep's many stacks), so the forward pass lands in the
//!   request's own span tree and the request finishes on the model it
//!   resolved, whatever a concurrent reload swaps in.
//! - **Stage-artifact caching** ([`ir_fusion::StageStore`]): every
//!   pipeline stage (assembled MNA system, AMG solver setup, rough
//!   solution, geometry and resistance feature maps, prepared stack)
//!   is cached under a content fingerprint of exactly the inputs that
//!   determine it, so repeated requests skip the dominant preparation
//!   cost and `POST /v1/whatif` re-analyzes a current edit while
//!   reusing the matrix and AMG hierarchy verbatim.
//!
//! The crate also holds the request layer of the observability stack
//! (the process layer — spans, request scope, metrics registry — is
//! `irf-trace`): [`recorder`] mints the `X-Irf-Request-Id` of every
//! request and keeps the flight recorder behind
//! `GET /v1/debug/requests`, [`log`] writes the JSON-lines access log,
//! and [`metrics`] holds the per-endpoint latency objectives next to
//! the `/v1/metrics` facade. Everything there *observes*: none of it
//! changes what the pipeline computes.
//!
//! ```no_run
//! use irf_serve::{Server, ServerConfig};
//! use ir_fusion::FusionConfig;
//!
//! let server = Server::start(
//!     &ServerConfig::default(),
//!     FusionConfig::tiny(),
//!     None, // or Some(trained_model)
//! )?;
//! println!("listening on http://{}", server.addr());
//! server.wait();
//! # Ok::<(), std::io::Error>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod handlers;
pub mod http;
pub mod json;
pub mod log;
pub mod metrics;
#[cfg(test)]
mod promlint;
pub mod recorder;
pub mod registry;
mod render;
pub mod server;

pub use json::Json;
pub use metrics::ServerMetrics;
pub use registry::{ModelInfo, ModelRegistry};
pub use server::{Server, ServerConfig};
