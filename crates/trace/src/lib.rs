//! `irf-trace`: the observability substrate of the IR-Fusion stack —
//! structured tracing, solver telemetry, and a unified metrics
//! registry, all on `std` alone.
//!
//! This is the process layer: everything here is called from more
//! than one crate. The per-request layer of the inference server
//! (request ids, access log, flight recorder, SLOs) lives in
//! `irf-serve`. Five pieces live here:
//!
//! * [`mod@span`] — scoped spans recorded into a per-thread buffer. Spans
//!   compile to a single relaxed atomic load when no [`Collector`] is
//!   installed, so leaving the instrumentation in hot paths is free.
//!   Buffers flush into a process-wide sink whenever a thread's span
//!   stack unwinds to depth zero; pool worker threads (which never
//!   exit) therefore deliver their events without any registration
//!   protocol. A finished [`Trace`] exports Chrome trace-event JSON
//!   (loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)),
//!   its span forest ([`span_forest`]) and a human-readable
//!   self-profile tree aggregated from that forest ([`profile`]).
//! * [`mod@registry`] — a [`MetricsRegistry`] of counters, gauges, and
//!   histograms with Prometheus text rendering. One process-global
//!   instance ([`registry()`]) is shared by the solver, the pipeline,
//!   the inference server, and the bench binaries, so `GET /metrics`
//!   sees pipeline internals (`irf_pcg_iterations`,
//!   `irf_stage_seconds_total{stage=...}`) next to server counters.
//! * [`request`] — thread-local request attribution: a scope guard
//!   installs a request id that every span opened under it carries
//!   ([`Event::request`]), and the stage store / PCG solver fold
//!   per-request cache and convergence counts into it.
//! * [`timer`] — [`timed`], the stopwatch behind the paper's Table I /
//!   Fig. 7 runtime columns.
//! * [`memory`] — [`resident_memory`], the process's current and peak
//!   resident set from `/proc/self/status`.
//!
//! # Tracing a region
//!
//! ```
//! use irf_trace::{span, Collector};
//!
//! let collector = Collector::install().expect("no collector active");
//! {
//!     let mut s = span("solve");
//!     s.attr("iterations", 2u64);
//!     // ... work ...
//! }
//! let trace = collector.finish();
//! assert_eq!(trace.events.len(), 1);
//! assert!(trace.to_chrome_json().contains("\"name\":\"solve\""));
//! ```
//!
//! # Determinism contract
//!
//! Tracing only *observes*: installing a collector never changes what
//! the instrumented code computes. Pipeline outputs are bitwise
//! identical with tracing enabled or disabled, at any thread count
//! (asserted by `tests/integration_trace.rs` in the `ir-fusion`
//! crate).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod memory;
pub mod profile;
pub mod registry;
pub mod request;
pub mod span;
pub mod timer;

pub use memory::{resident_memory, ResidentMemory};
pub use profile::{span_forest, SpanTree};
pub use registry::{registry, MetricKind, MetricsRegistry};
pub use request::{RequestScope, RequestStats};
pub use span::{set_thread_label, span, AttrValue, Collector, Event, Span, Trace};
pub use timer::timed;
