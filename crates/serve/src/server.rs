//! The HTTP server: a `std::net::TcpListener` accept loop and a small
//! pool of connection handlers. Each handler runs its request's model
//! forwards itself, so every forward sits in that request's span tree.
//!
//! The HTTP surface lives under `/v1/`; every route below is served
//! at `/v1/<route>` and nowhere else (anything else answers the 404
//! `unknown_route` envelope).
//!
//! Every error response uses one envelope shape:
//! `{"error": {"code": <machine-readable>, "message": <human>,
//! "details": {...}}}` — `details` carries the structured context a
//! caller can branch on (offending value, accepted range, loaded
//! model names, ...), and is `{}` when there is none. A panic while
//! answering is a 500 `internal`.
//!
//! This module is the transport and the route table. A request's path
//! through the rest: `decode` reads the body into typed inputs and
//! holds `ApiError`, the one error type (and the only writer of the
//! envelope); `handlers` runs the endpoint; `render` writes the answer.
//!
//! Routes:
//!
//! - `GET /v1/healthz` — liveness probe, plain `ok`.
//! - `GET /v1/metrics` — Prometheus text exposition.
//! - `GET /v1/debug/requests` — the flight recorder: the last N
//!   completed requests (ids, timings, per-request
//!   stage-cache and solver counts), most recent first.
//! - `GET /v1/debug/requests/{id}` — one recorded request in full,
//!   including its span tree when it ran at or over the configured
//!   slow-request threshold. This is the one place a request's spans
//!   can be fetched (for a Chrome/Perfetto export, run the design
//!   through `analyze_design --trace`).
//! - `GET /v1/models` — the model registry: every loaded model with
//!   its architecture, parameter count and reload count.
//! - `POST /v1/models/{name}/reload` — load a checkpoint
//!   (`{"model_path": ...}`) under `name`, hot-swapping an existing
//!   entry atomically (in-flight requests finish on the model they
//!   resolved) or creating a new named entry.
//! - `POST /v1/predict` — run one design through the pipeline.
//!   Optional `"model"` picks a registry entry (default `default`),
//!   validated with the error envelope. The forward pass is f32; a
//!   `"precision"` member naming anything else answers
//!   `400 invalid_precision`.
//! - `POST /v1/whatif` — incremental re-analysis: a base design
//!   fingerprint (as reported by `/v1/predict`) plus a list of deltas.
//!   Current deltas (`kind` omitted or `"current"`) ride the stage
//!   store's warm artifacts — the assembled MNA system, AMG hierarchy
//!   and feature maps are reused and only the rough solve, stack
//!   assembly and model forward run. Topology deltas (`"strap"`,
//!   `"via"`, `"segment"`) scale or set segment resistances; the
//!   parsed design and geometry maps stay warm, the MNA system is
//!   re-stamped into the base's and the AMG setup re-run on it.
//! - `POST /v1/sweep` — ranked candidate sweep: one base fingerprint
//!   plus N candidate delta plans. Every candidate is prepared
//!   through the warm stage graph, the model forwards run in chunks of
//!   four on the handler's thread, and the response ranks candidates by
//!   worst-drop improvement (then hotspot-count delta) against the
//!   base analysis, with per-candidate stage-cache hit statistics.
//!   `"warm_start": true` opts candidates into seeding their rough
//!   solves from the base solution.
//! - `POST /v1/optimize` — the closed-loop PDN optimizer: a base
//!   fingerprint, a worst-drop target and a metal budget. Candidates
//!   are generated from the base drop map, priced by the metal cost
//!   model, beam-searched through the warm stage graph, and the
//!   winning plan (registered for follow-up what-ifs) plus the full
//!   per-iteration trajectory come back.
//! - `POST /v1/shutdown` — graceful drain (see below).
//!
//! Connections are persistent (HTTP/1.1 keep-alive) and carry a
//! per-request read timeout: an idle connection is closed silently
//! when it expires, a half-sent request is answered with 408.
//!
//! Shutdown: the toolchain-only build has no way to trap SIGTERM /
//! ctrl-c (that needs `libc`/`signal-hook`, and this repo is
//! dependency-free by design), so graceful termination is exposed as
//! an explicit `POST /v1/shutdown` endpoint and the in-process
//! [`Server::shutdown`] handle instead. Both stop accepting, let
//! requests in flight finish, and join every thread.

use crate::decode::ApiError;
use crate::handlers;
use crate::http::{read_request, write_response, write_response_with_headers, HttpError, Request};
use crate::json::{obj, parse, Json};
use crate::log;
use crate::metrics::{objective_seconds, ServerMetrics};
use crate::recorder::{span_tree, FlightRecorder, RequestId, RequestIdMinter, RequestRecord};
use crate::registry::ModelRegistry;
use ir_fusion::{FusionConfig, IrFusionPipeline, StageStore, TrainedModel};
use irf_trace::request::RequestStats;
use std::any::Any;
use std::cell::RefCell;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral
    /// port).
    pub addr: String,
    /// Connection-handler threads.
    pub workers: usize,
    /// Stage-store capacity (artifacts per stage, roughly "designs
    /// kept warm").
    pub cache_capacity: usize,
    /// Per-request read timeout. An idle keep-alive connection is
    /// closed silently when it expires; a connection that timed out
    /// mid-request gets a 408 first.
    pub read_timeout: Duration,
    /// Requests at or above this duration snapshot their full span
    /// tree into the flight recorder (inspect via
    /// `GET /v1/debug/requests/{id}`). `Duration::ZERO` snapshots every
    /// request.
    pub slow_threshold: Duration,
    /// Completed requests retained by the flight recorder
    /// (`GET /v1/debug/requests`).
    pub recorder_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            cache_capacity: 32,
            read_timeout: Duration::from_secs(30),
            slow_threshold: Duration::from_millis(500),
            recorder_capacity: 256,
        }
    }
}

/// What every connection thread shares: the pipeline and its stage
/// store, the metrics, the model registry and the flight recorder.
pub(crate) struct State {
    pub(crate) pipeline: IrFusionPipeline,
    pub(crate) cache: Arc<StageStore>,
    pub(crate) metrics: Arc<ServerMetrics>,
    /// Named models; `None` when serving without a model (then reloads
    /// answer 409 and predicts fall back to the rough numerical map).
    pub(crate) registry: Option<Arc<ModelRegistry>>,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    read_timeout: Duration,
    /// Ring of completed request records (`GET /v1/debug/requests`).
    pub(crate) recorder: FlightRecorder,
    /// Requests at or above this duration snapshot their span tree.
    slow_threshold: Duration,
    /// Accept counter; each connection's request ids derive from it.
    connections: AtomicU64,
}

/// A running server; dropping the handle does NOT stop it — call
/// [`Server::shutdown`] (or POST `/v1/shutdown`) then [`Server::wait`].
pub struct Server {
    state: Arc<State>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving. `model` is optional: without one,
    /// `/v1/predict` answers with the rough numerical map only
    /// (`"source":"rough"`).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(
        config: &ServerConfig,
        fusion: FusionConfig,
        model: Option<TrainedModel>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = Arc::new(StageStore::new(config.cache_capacity));
        let metrics = Arc::new(ServerMetrics::new());
        // Zero-init the per-endpoint SLO series so `/metrics` exposes
        // every endpoint from the first scrape.
        metrics.init_http();
        let pipeline = IrFusionPipeline::new(fusion).with_cache(Arc::clone(&cache));
        let registry = model.map(|trained| Arc::new(ModelRegistry::new(trained)));
        metrics.set_registry_models(registry.as_ref().map_or(0, |r| r.len()));
        let state = Arc::new(State {
            pipeline,
            cache,
            metrics,
            registry,
            shutting_down: AtomicBool::new(false),
            addr,
            read_timeout: config.read_timeout,
            recorder: FlightRecorder::new(config.recorder_capacity),
            slow_threshold: config.slow_threshold,
            connections: AtomicU64::new(0),
        });

        // Accepted connections flow to the handler pool over a channel;
        // the accept thread owns the sender, so its exit hangs up the
        // workers.
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&conn_rx);
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("irf-serve-{i}"))
                    .spawn(move || worker_loop(&rx, &state))
                    .expect("spawn worker thread")
            })
            .collect();
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("irf-serve-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_state.shutting_down.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if conn_tx.send(stream).is_err() {
                        break;
                    }
                }
                // conn_tx drops here: workers finish queued connections
                // and exit.
            })
            .expect("spawn accept thread");
        Ok(Server {
            state,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The stage-artifact store (shared with the pipeline).
    #[must_use]
    pub fn cache(&self) -> &Arc<StageStore> {
        &self.state.cache
    }

    /// Starts a graceful shutdown: stop accepting, refuse new work with
    /// 503, let requests in flight finish. Idempotent.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.state);
    }

    /// Blocks until every thread has exited (after
    /// [`Server::shutdown`] or a `POST /v1/shutdown`).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Flags shutdown and pokes the listener so the accept loop observes
/// the flag even while blocked in `accept`.
fn initiate_shutdown(state: &State) {
    if state.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    // Self-connect unblocks the accept loop; the errors don't matter.
    let _ = TcpStream::connect(state.addr);
}

fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>, state: &Arc<State>) {
    loop {
        let stream = {
            let guard = rx.lock().expect("connection queue poisoned");
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(stream, state),
            Err(mpsc::RecvError) => return,
        }
    }
}

/// Serves one connection: requests are handled in a loop until the
/// client asks for `Connection: close`, hangs up, errors, or stays
/// idle past the read timeout. Every parsed request is minted a
/// request id, served under a thread-local `irf_trace::request` scope
/// (so spans, stage-cache events and solver telemetry recorded while
/// handling it carry the id), echoed back as `X-Irf-Request-Id`, and
/// lands one record in the flight recorder plus one access-log line.
///
/// A panic while answering (a handler's, or one deep in the pipeline)
/// is caught here: the request answers a 500 `internal` envelope, is
/// counted and recorded like any other, logs one `request_panic` line,
/// keeps the panic message in its flight-recorder record, and its
/// connection closes. The worker lives on.
fn handle_connection(stream: TcpStream, state: &Arc<State>) {
    let _ = stream.set_read_timeout(Some(state.read_timeout));
    // Responses are written whole; never hold one back for coalescing.
    let _ = stream.set_nodelay(true);
    let conn = state.connections.fetch_add(1, Ordering::Relaxed);
    let mut minter = RequestIdMinter::new(conn);
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            // Clean close between requests / idle timeout: nothing to
            // answer, nothing to count.
            Err(HttpError::Closed | HttpError::Timeout { mid_request: false }) => return,
            Err(error) => {
                let (status, code) = match error {
                    HttpError::TooLarge => (413, "body_too_large"),
                    HttpError::Timeout { mid_request: true } => (408, "request_timeout"),
                    _ => (400, "bad_request"),
                };
                let message = error.to_string();
                let body = ApiError::new(status, code, message.as_str()).render();
                let _ = write_response(
                    reader.get_mut(),
                    status,
                    "application/json",
                    body.as_bytes(),
                    false,
                );
                state.metrics.observe_request("other", status);
                log::warn(
                    "request_error",
                    &[
                        ("error", message.as_str().into()),
                        ("status", u64::from(status).into()),
                    ],
                );
                return;
            }
        };
        let id = minter.mint();
        let started = Instant::now();
        let start_unix_ms = unix_ms_now();
        let ctx = RequestCtx::new(id);
        // Don't hold connections open across a shutdown.
        let mut keep_alive = request.keep_alive && !state.shutting_down.load(Ordering::SeqCst);
        // Everything recorded on this thread until `finish` — spans,
        // stage-cache events, PCG telemetry — is tagged with this id.
        let scope = irf_trace::request::scope(id.as_u64());
        let (route, answer) = route(&request, state, &ctx);
        let answered = std::panic::catch_unwind(AssertUnwindSafe(answer));
        let stats = scope.finish();
        let id_text = id.to_string();
        let mut panicked = None;
        let (status, content_type, body) = match answered {
            Ok(Ok((content_type, body))) => (200, content_type, body),
            Ok(Err(error)) => (error.status, "application/json", error.render()),
            Err(panic) => {
                let message = panic_message(panic.as_ref());
                log::warn(
                    "request_panic",
                    &[
                        ("request", id_text.as_str().into()),
                        ("endpoint", route.into()),
                        ("error", message.into()),
                    ],
                );
                panicked = Some(message.to_string());
                keep_alive = false;
                let error = ApiError::new(500, "internal", "internal error while answering");
                (500, "application/json", error.render())
            }
        };
        let duration_seconds = started.elapsed().as_secs_f64();
        let written = write_response_with_headers(
            reader.get_mut(),
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
            &[("X-Irf-Request-Id", &id_text)],
        );
        finish_request(
            state,
            &ctx,
            route,
            status,
            start_unix_ms,
            duration_seconds,
            stats,
            panicked,
        );
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// Wall-clock milliseconds since the Unix epoch (0 before it).
pub(crate) fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// SLO accounting, flight-recorder entry and access-log line for one
/// finished request.
#[allow(clippy::too_many_arguments)]
fn finish_request(
    state: &State,
    ctx: &RequestCtx,
    route: &'static str,
    status: u16,
    start_unix_ms: u64,
    duration_seconds: f64,
    stats: RequestStats,
    panic: Option<String>,
) {
    state.metrics.observe_request(route, status);
    let objective = objective_seconds(route);
    let breached = duration_seconds > objective;
    state
        .metrics
        .observe_http(route, duration_seconds, breached);
    // Slow requests keep their full span tree; healthy ones keep the
    // ring cheap (the record alone).
    let spans = if duration_seconds >= state.slow_threshold.as_secs_f64() {
        ctx.trace
            .borrow()
            .as_ref()
            .map(|trace| span_tree(trace, ctx.id.as_u64()))
    } else {
        None
    };
    state.recorder.record(RequestRecord {
        id: ctx.id.as_u64(),
        seq: 0, // stamped by the recorder
        endpoint: route,
        status,
        start_unix_ms,
        duration_seconds,
        stats,
        slo_objective_seconds: objective,
        slo_breached: breached,
        spans,
        panic,
    });
    if log::enabled(log::Level::Info) {
        let id_text = ctx.id.to_string();
        log::info(
            "access",
            &[
                ("request", id_text.as_str().into()),
                ("endpoint", route.into()),
                ("status", u64::from(status).into()),
                ("duration_seconds", duration_seconds.into()),
                ("cache_hits", stats.cache_hits.into()),
                ("cache_misses", stats.cache_misses.into()),
                ("pcg_iterations", stats.pcg_iterations.into()),
                ("slo_breached", breached.into()),
            ],
        );
    }
}

/// The payload of a caught panic, as text.
fn panic_message(panic: &(dyn Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// A 200's content type and body, or the error that answers instead.
type Answer = Result<(&'static str, String), ApiError>;

/// A handler that takes the decoded JSON body.
type Handler = fn(&Json, &State) -> Result<Json, ApiError>;

/// A route label and the deferred call that answers the request.
type Route<'a> = (&'static str, Box<dyn FnOnce() -> Answer + 'a>);

/// The route table. Returns the route label (the name the request's
/// metrics, access-log line and flight-recorder record carry) and the
/// call that answers the request, deferred so the label is known even
/// when that call panics.
fn route<'a>(request: &'a Request, state: &'a State, ctx: &'a RequestCtx) -> Route<'a> {
    // Everything is served under `/v1`; any other target matches no
    // arm below and answers the `unknown_route` 404.
    let path = request.target.strip_prefix("/v1").unwrap_or("");
    let reload = path
        .strip_prefix("/models/")
        .and_then(|rest| rest.strip_suffix("/reload"));
    let traced = |route, span, handler: Handler| -> Route<'a> {
        let answer = move || json_endpoint(request, state, ctx, Some(span), |b| handler(b, state));
        (route, Box::new(answer))
    };
    match (request.method.as_str(), path, reload) {
        ("GET", "/healthz", _) => (
            "healthz",
            Box::new(|| Ok(("text/plain", "ok\n".to_string()))),
        ),
        ("GET", "/metrics", _) => (
            "metrics",
            Box::new(|| {
                state.metrics.observe_process_memory();
                let text = state.metrics.render(&state.cache);
                Ok(("text/plain; version=0.0.4", text))
            }),
        ),
        ("GET", path, _) if path == "/debug/requests" || path.starts_with("/debug/requests/") => (
            "debug",
            Box::new(move || handlers::debug_requests(path, state).map(json_reply)),
        ),
        ("GET", "/models", _) => (
            "models",
            Box::new(|| Ok(json_reply(handlers::models(state)))),
        ),
        ("POST", _, Some(name)) => (
            "reload",
            Box::new(move || {
                json_endpoint(request, state, ctx, None, |body| {
                    handlers::reload(name, body, state)
                })
            }),
        ),
        ("POST", "/predict", _) => traced("predict", "predict_request", handlers::predict),
        ("POST", "/whatif", _) => traced("whatif", "whatif_request", handlers::whatif),
        ("POST", "/sweep", _) => traced("sweep", "sweep_request", handlers::sweep),
        ("POST", "/optimize", _) => traced("optimize", "optimize_request", handlers::optimize),
        ("POST", "/shutdown", _) => (
            "shutdown",
            Box::new(|| {
                initiate_shutdown(state);
                Ok(json_reply(obj(vec![("shutting_down", Json::Bool(true))])))
            }),
        ),
        ("GET" | "POST", ..) => (
            "other",
            Box::new(|| {
                let message = "no such route; the API lives under /v1/";
                Err(ApiError::new(404, "unknown_route", message))
            }),
        ),
        _ => (
            "other",
            Box::new(|| {
                Err(ApiError::new(
                    405,
                    "method_not_allowed",
                    "method not allowed",
                ))
            }),
        ),
    }
}

/// A JSON document as a 200's content type and body.
fn json_reply(json: Json) -> (&'static str, String) {
    ("application/json", json.render())
}

/// Per-request accounting threaded through the handlers: the trace
/// scope deposits the finished trace, and the connection loop reads it
/// back when it builds the flight-recorder entry.
struct RequestCtx {
    /// The minted id, echoed as `X-Irf-Request-Id`.
    id: RequestId,
    /// The finished span trace (handlers that install the collector).
    trace: RefCell<Option<irf_trace::Trace>>,
}

impl RequestCtx {
    fn new(id: RequestId) -> RequestCtx {
        RequestCtx {
            id,
            trace: RefCell::new(None),
        }
    }
}

/// Collects the spans of one request and, when it drops (even on
/// early error returns), deposits the trace in the request's
/// [`RequestCtx`], from where a slow request's span tree is snapshot
/// into the flight recorder. The collector is a process singleton, so
/// `install` yields `None` while another request is already recording
/// — that request's trace wins.
struct TraceScope<'a> {
    collector: Option<irf_trace::Collector>,
    ctx: &'a RequestCtx,
}

impl Drop for TraceScope<'_> {
    fn drop(&mut self) {
        if let Some(collector) = self.collector.take() {
            *self.ctx.trace.borrow_mut() = Some(collector.finish());
        }
    }
}

/// The one way into a handler that takes a JSON body: refuses new work
/// during a drain, opens the request's trace scope and root span when
/// `span` names one, decodes the body, and runs `handler` on it.
fn json_endpoint(
    request: &Request,
    state: &State,
    ctx: &RequestCtx,
    span: Option<&'static str>,
    handler: impl FnOnce(&Json) -> Result<Json, ApiError>,
) -> Answer {
    if state.shutting_down.load(Ordering::SeqCst) {
        return Err(ApiError::new(503, "shutting_down", "shutting down"));
    }
    let _trace = span.map(|_| TraceScope {
        collector: irf_trace::Collector::install(),
        ctx,
    });
    // Dropped before `_trace` (reverse declaration order), so the
    // request-level span is flushed into the collector it belongs to.
    let _span = span.map(irf_trace::span);
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::new(400, "invalid_body", "body is not utf-8"))?;
    let body = parse(text).map_err(|e| ApiError::new(400, "invalid_json", e.to_string()))?;
    handler(&body).map(json_reply)
}
