//! `irf-obs`: the request-scoped observability layer of the IR-Fusion
//! serving stack, built on top of `irf-trace`.
//!
//! Where `irf-trace` answers "what did the *process* do" (spans,
//! solver telemetry, a metrics registry), this crate answers "what did
//! *request* `3f9a…` do" — the unit operators actually debug:
//!
//! * [`id`] — [`RequestId`] minting: FNV-1a of
//!   connection id + a monotonic per-connection sequence, echoed to
//!   clients as the `X-Irf-Request-Id` response header.
//! * [`log`] — a std-only structured logger: JSON lines (or
//!   human-readable `pretty` lines when stderr is a TTY) to stderr,
//!   level-filtered via `IRF_LOG`, zero allocation on the disabled
//!   path.
//! * [`recorder`] — the always-on flight recorder: a fixed-capacity
//!   ring of completed [`RequestRecord`]s,
//!   with full span trees snapshotted for requests slower than a
//!   threshold, served under `GET /debug/requests`.
//! * [`slo`] — declared per-endpoint latency objectives driving the
//!   `irf_http_request_seconds` histograms and
//!   `irf_slo_breaches_total` burn-rate counters on `/metrics`.
//! * [`promlint`] — a Prometheus text-format (0.0.4) linter used by
//!   the metrics tests to keep `/metrics` parseable.
//!
//! Everything here *observes*: none of it changes what the pipeline
//! computes, and the combined logging + recorder overhead is held to
//! the same < 2 % budget as tracing (tracing's is `trace.overhead_pct`
//! in any `irf-benchmark --trace` run; `benchmark/README.md`).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod id;
pub mod log;
pub mod promlint;
pub mod recorder;
pub mod slo;

pub use id::{RequestId, RequestIdMinter};
pub use log::{debug, error, info, trace, warn, Level, Value};
pub use recorder::{FlightRecorder, RequestRecord, SpanNode};
pub use slo::SloPolicy;
