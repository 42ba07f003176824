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
//! model names, ...), and is `{}` when there is none.
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

use crate::http::{read_request, write_response, write_response_with_headers, HttpError, Request};
use crate::json::{obj, parse, Json};
use crate::log;
use crate::metrics::{objective_seconds, ServerMetrics};
use crate::recorder::{
    parse_hex16, render_attr, span_tree, FlightRecorder, RequestId, RequestIdMinter, RequestRecord,
};
use crate::registry::{valid_model_name, ModelRegistry};
use ir_fusion::{
    EditError, FusionConfig, IrFusionPipeline, PreparedStack, StageStore, TopologyDelta,
    TrainedModel,
};
use irf_pg::{GridMap, IngestError, PowerGrid};
use irf_trace::request::RequestStats;
use irf_trace::{timed, SpanTree};
use std::cell::{Cell, RefCell};
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

struct State {
    pipeline: IrFusionPipeline,
    cache: Arc<StageStore>,
    metrics: Arc<ServerMetrics>,
    /// Named models; `None` when serving without a model (then reloads
    /// answer 409 and predicts fall back to the rough numerical map).
    registry: Option<Arc<ModelRegistry>>,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    read_timeout: Duration,
    /// Ring of completed request records (`GET /v1/debug/requests`).
    recorder: FlightRecorder,
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
            // The forward runs on this thread, so a panic in it drops
            // the connection but keeps the worker.
            Ok(stream) => {
                let serve = AssertUnwindSafe(|| handle_connection(stream, state));
                let _ = std::panic::catch_unwind(serve);
            }
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
                let body = envelope(code, &message);
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
        let keep_alive = request.keep_alive && !state.shutting_down.load(Ordering::SeqCst);
        // Everything recorded on this thread until `finish` — spans,
        // stage-cache events, PCG telemetry — is tagged with this id.
        let scope = irf_trace::request::scope(id.as_u64());
        let (route, status, content_type, body) = route_request(&request, state, &ctx);
        let stats = scope.finish();
        let duration_seconds = started.elapsed().as_secs_f64();
        let id_text = id.to_string();
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
fn finish_request(
    state: &State,
    ctx: &RequestCtx,
    route: &'static str,
    status: u16,
    start_unix_ms: u64,
    duration_seconds: f64,
    stats: RequestStats,
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

/// Renders the unified error envelope:
/// `{"error": {"code", "message", "details": {...}}}`.
fn envelope_with(code: &str, message: &str, details: Vec<(&'static str, Json)>) -> String {
    obj(vec![(
        "error",
        obj(vec![
            ("code", Json::Str(code.to_string())),
            ("message", Json::Str(message.to_string())),
            ("details", obj(details)),
        ]),
    )])
    .render()
}

/// The envelope with empty `details`.
fn envelope(code: &str, message: &str) -> String {
    envelope_with(code, message, Vec::new())
}

fn route_request(
    request: &Request,
    state: &Arc<State>,
    ctx: &RequestCtx,
) -> (&'static str, u16, &'static str, String) {
    // Everything is served under `/v1`; any other target matches no
    // arm below and answers the `unknown_route` 404.
    let path = request.target.strip_prefix("/v1").unwrap_or("");
    type Handler = fn(&Json, &Arc<State>) -> (u16, String);
    let traced = |route, span, handler: Handler| {
        let (status, body) =
            json_endpoint(request, state, ctx, Some(span), |body| handler(body, state));
        (route, status, "application/json", body)
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => ("healthz", 200, "text/plain", "ok\n".to_string()),
        ("GET", "/metrics") => {
            state.metrics.observe_process_memory();
            (
                "metrics",
                200,
                "text/plain; version=0.0.4",
                state.metrics.render(&state.cache),
            )
        }
        ("GET", path) if path == "/debug/requests" || path.starts_with("/debug/requests/") => {
            let (status, body) = handle_debug_requests(path, state);
            ("debug", status, "application/json", body)
        }
        ("GET", "/models") => {
            let (status, body) = handle_models_list(state);
            ("models", status, "application/json", body)
        }
        ("POST", path)
            if path
                .strip_prefix("/models/")
                .and_then(|rest| rest.strip_suffix("/reload"))
                .is_some() =>
        {
            let name = path
                .strip_prefix("/models/")
                .and_then(|rest| rest.strip_suffix("/reload"))
                .expect("guard matched");
            let (status, body) = json_endpoint(request, state, ctx, None, |body| {
                handle_model_reload(name, body, state)
            });
            ("reload", status, "application/json", body)
        }
        ("POST", "/predict") => traced("predict", "predict_request", handle_predict),
        ("POST", "/whatif") => traced("whatif", "whatif_request", handle_whatif),
        ("POST", "/sweep") => traced("sweep", "sweep_request", handle_sweep),
        ("POST", "/optimize") => traced("optimize", "optimize_request", handle_optimize),
        ("POST", "/shutdown") => {
            initiate_shutdown(state);
            (
                "shutdown",
                200,
                "application/json",
                obj(vec![("shutting_down", Json::Bool(true))]).render(),
            )
        }
        ("GET" | "POST", _) => (
            "other",
            404,
            "application/json",
            envelope("unknown_route", "no such route; the API lives under /v1/"),
        ),
        _ => (
            "other",
            405,
            "application/json",
            envelope("method_not_allowed", "method not allowed"),
        ),
    }
}

/// `GET /v1/models` — the registry listing: every loaded model with
/// its architecture, parameter count and reload count.
fn handle_models_list(state: &Arc<State>) -> (u16, String) {
    let models: Vec<Json> = state
        .registry
        .as_ref()
        .map(|registry| registry.list())
        .unwrap_or_default()
        .iter()
        .map(|info| {
            obj(vec![
                ("name", Json::Str(info.name.clone())),
                ("architecture", Json::Str(info.architecture.clone())),
                ("params", Json::Num(info.params as f64)),
                ("reloads", Json::Num(info.reloads as f64)),
            ])
        })
        .collect();
    (
        200,
        obj(vec![
            ("count", Json::Num(models.len() as f64)),
            ("models", Json::Arr(models)),
        ])
        .render(),
    )
}

/// Largest on-disk netlist a `netlist_path` request may reference.
/// Files up to this size stream through [`irf_pg::grid_from_spice_path`]
/// in bounded memory; anything larger is refused up front with a
/// structured `payload_too_large` envelope rather than silently
/// tying a worker to a multi-minute ingest.
const MAX_NETLIST_FILE_BYTES: u64 = 256 * 1024 * 1024;

/// Resolves the request body into a power grid: an inline `netlist`
/// (SPICE text) or a `netlist_path` on the server's filesystem, both
/// read through the card stream (a file is never materialized), or a
/// synthetic `spec` (`{"class":"fake"|"real","seed":N}`, an absent
/// member taking `"fake"` / `0`). Errors come back as a ready
/// `(status, envelope-body)` response.
fn resolve_grid(body: &Json) -> Result<PowerGrid, (u16, String)> {
    let invalid = |message: String| (400, envelope("invalid_design", &message));
    if let Some(text) = body.get("netlist").and_then(Json::as_str) {
        return irf_pg::grid_from_spice_reader(text.as_bytes()).map_err(|e| {
            invalid(match e {
                IngestError::Model(e) => format!("invalid power grid: {e}"),
                IngestError::Parse(_) | IngestError::Io(_) => format!("netlist parse error: {e}"),
            })
        });
    }
    if let Some(path) = body.get("netlist_path").and_then(Json::as_str) {
        let size = std::fs::metadata(path)
            .map_err(|e| invalid(format!("cannot read {path}: {e}")))?
            .len();
        if size > MAX_NETLIST_FILE_BYTES {
            return Err((
                413,
                envelope_with(
                    "payload_too_large",
                    &format!("netlist file {path} exceeds the ingest limit"),
                    vec![
                        ("limit_bytes", Json::Num(MAX_NETLIST_FILE_BYTES as f64)),
                        ("actual_bytes", Json::Num(size as f64)),
                    ],
                ),
            ));
        }
        return irf_pg::grid_from_spice_path(path)
            .map_err(|e| invalid(format!("cannot ingest {path}: {e}")));
    }
    let Some(spec) = body.get("spec") else {
        return Err(invalid(
            "request needs one of: netlist, netlist_path, spec".to_string(),
        ));
    };
    if !matches!(spec, Json::Obj(_)) {
        return Err(invalid("\"spec\" must be an object".to_string()));
    }
    // Only an absent member takes its default; a present one of the
    // wrong type is refused, never read as the default.
    let class = match spec.get("class") {
        None => "fake",
        Some(class) => class
            .as_str()
            .ok_or_else(|| invalid("spec member \"class\" must be a string".to_string()))?,
    };
    let seed = match spec.get("seed") {
        None => 0,
        Some(seed) => seed.as_u64().ok_or_else(|| {
            invalid("spec member \"seed\" must be a non-negative integer".to_string())
        })?,
    };
    match class {
        "fake" => Ok(irf_data::fake::generate(seed)),
        "real" => Ok(irf_data::real_like::generate(seed)),
        other => Err(invalid(format!("unknown design class {other:?}"))),
    }
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

/// `GET /v1/debug/requests` — the flight recorder's retained requests,
/// most recent first (summaries only). `GET /v1/debug/requests/{id}` —
/// one request in full, including its span tree when the request was
/// slow enough to snapshot one.
fn handle_debug_requests(path: &str, state: &Arc<State>) -> (u16, String) {
    match path.strip_prefix("/debug/requests/") {
        None => {
            let records: Vec<Json> = state
                .recorder
                .recent()
                .iter()
                .map(|record| render_request_record(record, false))
                .collect();
            (
                200,
                obj(vec![
                    ("capacity", Json::Num(state.recorder.capacity() as f64)),
                    ("count", Json::Num(records.len() as f64)),
                    ("requests", Json::Arr(records)),
                ])
                .render(),
            )
        }
        Some(id) => {
            let Some(id) = RequestId::parse(id) else {
                return (
                    400,
                    envelope("invalid_request_id", "request id must be 16 hex digits"),
                );
            };
            match state.recorder.find(id.as_u64()) {
                Some(record) => (200, render_request_record(&record, true).render()),
                None => (
                    404,
                    envelope("not_recorded", "request not recorded (or already evicted)"),
                ),
            }
        }
    }
}

fn render_request_record(record: &RequestRecord, include_spans: bool) -> Json {
    let mut members = vec![
        ("request", Json::Str(format!("{:016x}", record.id))),
        ("seq", Json::Num(record.seq as f64)),
        ("endpoint", Json::Str(record.endpoint.to_string())),
        ("status", Json::Num(f64::from(record.status))),
        ("start_unix_ms", Json::Num(record.start_unix_ms as f64)),
        ("duration_seconds", Json::Num(record.duration_seconds)),
        ("cache_hits", Json::Num(record.stats.cache_hits as f64)),
        ("cache_misses", Json::Num(record.stats.cache_misses as f64)),
        (
            "pcg_iterations",
            Json::Num(record.stats.pcg_iterations as f64),
        ),
        ("pcg_solves", Json::Num(record.stats.pcg_solves as f64)),
        (
            "slo_objective_seconds",
            Json::Num(record.slo_objective_seconds),
        ),
        ("slo_breached", Json::Bool(record.slo_breached)),
        ("has_spans", Json::Bool(record.spans.is_some())),
    ];
    if include_spans {
        if let Some(spans) = &record.spans {
            members.push((
                "spans",
                Json::Arr(spans.iter().map(render_span_node).collect()),
            ));
        }
    }
    obj(members)
}

fn render_span_node(node: &SpanTree) -> Json {
    let event = &node.event;
    obj(vec![
        ("name", Json::Str(event.name.to_string())),
        ("tid", Json::Num(event.tid as f64)),
        ("start_ns", Json::Num(event.start_ns as f64)),
        ("dur_ns", Json::Num(event.dur_ns as f64)),
        (
            "args",
            obj(event
                .args
                .iter()
                .map(|(k, v)| (*k, Json::Str(render_attr(v))))
                .collect()),
        ),
        (
            "children",
            Json::Arr(node.children.iter().map(render_span_node).collect()),
        ),
    ])
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
    handler: impl FnOnce(&Json) -> (u16, String),
) -> (u16, String) {
    if state.shutting_down.load(Ordering::SeqCst) {
        return (503, envelope("shutting_down", "shutting down"));
    }
    let _trace = span.map(|_| TraceScope {
        collector: irf_trace::Collector::install(),
        ctx,
    });
    // Dropped before `_trace` (reverse declaration order), so the
    // request-level span is flushed into the collector it belongs to.
    let _span = span.map(irf_trace::span);
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return (400, envelope("invalid_body", "body is not utf-8"));
    };
    match parse(text) {
        Ok(body) => handler(&body),
        Err(error) => (400, envelope("invalid_json", &error.to_string())),
    }
}

/// `POST /v1/models/{name}/reload` — loads a checkpoint from the
/// server's filesystem (`{"model_path": ...}`) under `name`: existing
/// entries are hot-swapped atomically (requests already resolved
/// finish on the model they got; no request is dropped), unknown
/// names become new registry entries.
fn handle_model_reload(name: &str, body: &Json, state: &Arc<State>) -> (u16, String) {
    let Some(registry) = &state.registry else {
        return (
            409,
            envelope(
                "no_model",
                "server is running without a model; reload has nothing to swap",
            ),
        );
    };
    if !valid_model_name(name) {
        return (
            400,
            envelope_with(
                "invalid_model_name",
                "model names are 1-64 characters of [A-Za-z0-9._-]",
                vec![("value", Json::Str(name.to_string()))],
            ),
        );
    }
    let Some(path) = body.get("model_path").and_then(Json::as_str) else {
        return (
            400,
            envelope("missing_model_path", "request needs model_path"),
        );
    };
    let (loaded, seconds) = timed(|| {
        std::fs::File::open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))
            .and_then(|file| {
                ir_fusion::load_model(BufReader::new(file))
                    .map_err(|e| format!("cannot load {path}: {e}"))
            })
    });
    let model = match loaded {
        Ok(model) => model,
        Err(message) => {
            return (
                422,
                envelope_with(
                    "checkpoint_error",
                    &message,
                    vec![("model_path", Json::Str(path.to_string()))],
                ),
            )
        }
    };
    let reloads = registry.reload(name, model);
    state.metrics.set_registry_models(registry.len());
    state.metrics.observe_reload();
    state.metrics.observe_stage("reload", seconds);
    (
        200,
        obj(vec![
            ("reloaded", Json::Bool(true)),
            ("model", Json::Str(name.to_string())),
            ("model_path", Json::Str(path.to_string())),
            ("reloads", Json::Num(reloads as f64)),
        ])
        .render(),
    )
}

/// A resolved predict target: the model to run on plus its name
/// echoed in the response.
type ResolvedModel = (Arc<TrainedModel>, String);

/// Resolves the optional `"model"` request member against the
/// registry: the model to run on plus its name for the response,
/// or a rendered envelope. `Ok(None)` means no model is loaded and the
/// rough map applies.
fn resolve_model(body: &Json, state: &Arc<State>) -> Result<Option<ResolvedModel>, (u16, String)> {
    let name = match body.get("model") {
        None => "default",
        Some(value) => match value.as_str() {
            Some(name) => name,
            None => {
                return Err((
                    400,
                    envelope("invalid_model_name", "model must be a string"),
                ))
            }
        },
    };
    // The forward pass has one numeric mode. A request that asks for
    // another is refused: answering it at f32 would misreport what ran.
    if let Some(value) = body.get("precision") {
        if value.as_str() != Some("f32") {
            return Err((
                400,
                envelope_with(
                    "invalid_precision",
                    "this server serves f32 only",
                    vec![("value", value.clone())],
                ),
            ));
        }
    }
    let Some(registry) = &state.registry else {
        if body.get("model").is_some() {
            // Serving without a model: an explicit model ask cannot be
            // honoured, and silently answering with the rough map
            // would misreport which model ran.
            return Err((
                409,
                envelope(
                    "no_model",
                    "server is running without a model; model selection is unavailable",
                ),
            ));
        }
        return Ok(None);
    };
    match registry.resolve(name) {
        Ok(model) => Ok(Some((model, name.to_string()))),
        Err(loaded) => Err((
            404,
            envelope_with(
                "unknown_model",
                &format!("no model named {name:?}"),
                vec![(
                    "loaded",
                    Json::Arr(loaded.into_iter().map(Json::Str).collect()),
                )],
            ),
        )),
    }
}

/// The `default` model — what the endpoints without model selection
/// (`/whatif`, `/sweep`, `/optimize`) run on. `None` when serving
/// without a model.
fn default_model(state: &Arc<State>) -> Option<Arc<TrainedModel>> {
    state
        .registry
        .as_ref()
        .and_then(|registry| registry.resolve("default").ok())
}

fn handle_predict(body: &Json, state: &Arc<State>) -> (u16, String) {
    let resolved = match resolve_model(body, state) {
        Ok(resolved) => resolved,
        Err(err) => return err,
    };
    let (grid, parse_seconds) = match timed(|| resolve_grid(body)) {
        (Ok(grid), seconds) => (grid, seconds),
        (Err((status, response)), _) => return (status, response),
    };
    state.metrics.observe_stage("parse", parse_seconds);
    let grid = Arc::new(grid);

    let (stack, prepare_seconds) = timed(|| state.pipeline.stack_builder().prepare(&grid));
    let stack = match stack {
        Ok(stack) => stack,
        Err(error) => {
            return (
                400,
                envelope(
                    "feature_error",
                    &format!("cannot prepare features: {error}"),
                ),
            )
        }
    };
    state.metrics.observe_stage("prepare", prepare_seconds);
    let model = resolved.as_ref().map(|(model, _)| model.as_ref());
    if let Err(err) = check_channels(model, stack.features.len()) {
        return err;
    }
    // Register the parsed grid under its reported fingerprint so a
    // later /whatif can start from it without re-sending the netlist.
    state
        .cache
        .insert_parsed(stack.fingerprint, Arc::clone(&grid));

    let (maps, source) = run_forwards(
        &state.pipeline,
        &state.metrics,
        std::slice::from_ref(&stack),
        model,
    );
    let map = &maps[0];
    let mut extra = Vec::new();
    if let Some((_, name)) = &resolved {
        extra.push(("model", Json::Str(name.clone())));
    }
    (
        200,
        render_prediction(&grid, stack.fingerprint, map, source, body, extra),
    )
}

/// `POST /v1/whatif` — incremental re-analysis of a previously predicted
/// design under a list of edits:
///
/// ```json
/// {"base": "<16-hex design fingerprint>",
///  "deltas": [{"node": 17, "amps": 0.002},
///             {"kind": "current", "name": "n1_m1_0_0", "amps": -1e-3},
///             {"kind": "strap", "layer": 1, "scale": 0.8},
///             {"kind": "via", "layers": [1, 2], "scale": 1.5},
///             {"kind": "segment", "segment": 42, "ohms": 0.35}]}
/// ```
///
/// The base grid is looked up in the stage store's parsed stage (404
/// when unknown — POST it to `/v1/predict` first). Current deltas reuse
/// every warm topology-keyed artifact; topology deltas reuse the
/// parsed design and geometry maps and rebuild the MNA system / AMG
/// hierarchy incrementally from the warm base artifacts. A delta that
/// references a layer / layer pair / segment the base does not have is
/// rejected with a structured 400 body (`{"error", "code", ...}`) and
/// nothing is applied.
fn handle_whatif(body: &Json, state: &Arc<State>) -> (u16, String) {
    let (fingerprint, grid) = match resolve_base(body, state) {
        Ok(ok) => ok,
        Err(err) => return err,
    };
    let edits = match parse_edits(body.get("deltas"), &grid) {
        Ok(edits) => edits,
        Err(message) => return (400, envelope("invalid_deltas", &message)),
    };

    let session = match build_session(&state.pipeline.session(grid), &edits) {
        Ok(session) => session,
        Err(error) => return (400, edit_error_body(&error)),
    };
    let (stack, prepare_seconds) = timed(|| session.prepare());
    let stack = match stack {
        Ok(stack) => stack,
        Err(error) => {
            return (
                400,
                envelope(
                    "feature_error",
                    &format!("cannot prepare features: {error}"),
                ),
            )
        }
    };
    state
        .metrics
        .observe_stage("whatif_prepare", prepare_seconds);
    let model = default_model(state);
    if let Err(err) = check_channels(model.as_deref(), stack.features.len()) {
        return err;
    }
    // The edited design is itself a valid base for further what-ifs.
    state
        .cache
        .insert_parsed(stack.fingerprint, Arc::clone(session.grid()));

    let (maps, source) = run_forwards(
        &state.pipeline,
        &state.metrics,
        std::slice::from_ref(&stack),
        model.as_deref(),
    );
    let extra = vec![
        ("base", Json::Str(format!("{fingerprint:016x}"))),
        ("deltas_applied", Json::Num(edits.len() as f64)),
        (
            "topology_deltas_applied",
            Json::Num(edits.topology.len() as f64),
        ),
    ];
    (
        200,
        render_prediction(
            session.grid(),
            stack.fingerprint,
            &maps[0],
            source,
            body,
            extra,
        ),
    )
}

/// One parsed `deltas` array, split by kind.
struct Edits {
    /// `(node, amps)` pairs, applied to the load vector.
    currents: Vec<(usize, f64)>,
    /// Strap / via / segment resistance edits, applied in order.
    topology: Vec<TopologyDelta>,
}

impl Edits {
    fn len(&self) -> usize {
        self.currents.len() + self.topology.len()
    }
}

/// Looks up the request's `base` fingerprint in the parsed stage.
fn resolve_base(body: &Json, state: &Arc<State>) -> Result<(u64, Arc<PowerGrid>), (u16, String)> {
    let Some(base) = body.get("base").and_then(Json::as_str) else {
        return Err((
            400,
            envelope(
                "missing_base",
                "request needs base (a /v1/predict design fingerprint)",
            ),
        ));
    };
    let Some(fingerprint) = parse_hex16(base) else {
        return Err((
            400,
            envelope_with(
                "invalid_base",
                "base must be a hex fingerprint",
                vec![("value", Json::Str(base.to_string()))],
            ),
        ));
    };
    let Some(grid) = state.cache.get_parsed(fingerprint) else {
        return Err((
            404,
            envelope(
                "unknown_base",
                "unknown base design; POST it to /v1/predict first",
            ),
        ));
    };
    Ok((fingerprint, grid))
}

/// A copy of the `base` session with `edits` applied: current deltas
/// first (they never move fingerprints the topology path depends on),
/// then topology deltas, which validate against the base grid
/// all-or-nothing. The copy carries the base's key plan, so a sweep
/// hashes its base design once, not once per candidate.
fn build_session<'p>(
    base: &ir_fusion::AnalysisSession<'p>,
    edits: &Edits,
) -> Result<ir_fusion::AnalysisSession<'p>, EditError> {
    let mut session = base.clone();
    if !edits.currents.is_empty() {
        session = session.with_current_deltas(&edits.currents);
    }
    if !edits.topology.is_empty() {
        session = session.with_topology_deltas(&edits.topology)?;
    }
    Ok(session)
}

/// Parses a `deltas` array into [`Edits`], resolving node names
/// against the base grid. Each item selects its flavour with `kind`
/// (default `"current"`):
///
/// - `{"kind": "current", "node": 17 | "name": "...", "amps": 2e-3}`
/// - `{"kind": "strap", "layer": 1, "scale": 0.8}`
/// - `{"kind": "via", "layers": [1, 2], "scale": 1.5}`
/// - `{"kind": "segment", "segment": 42, "ohms": 0.35}`
fn parse_edits(deltas: Option<&Json>, grid: &PowerGrid) -> Result<Edits, String> {
    let Some(Json::Arr(items)) = deltas else {
        return Err(
            "request needs deltas (an array of {kind?, node|name|layer|layers|segment, ...})"
                .to_string(),
        );
    };
    let mut edits = Edits {
        currents: Vec::new(),
        topology: Vec::new(),
    };
    for (i, item) in items.iter().enumerate() {
        let kind = item.get("kind").and_then(Json::as_str).unwrap_or("current");
        match kind {
            "current" => {
                let Some(amps) = item.get("amps").and_then(Json::as_f64) else {
                    return Err(format!("deltas[{i}] needs a numeric amps"));
                };
                if !amps.is_finite() {
                    return Err(format!("deltas[{i}]: amps must be finite, got {amps}"));
                }
                let node = if let Some(node) = item.get("node").and_then(Json::as_u64) {
                    let node = node as usize;
                    if node >= grid.nodes.len() {
                        return Err(format!(
                            "deltas[{i}]: node {node} out of range ({} nodes)",
                            grid.nodes.len()
                        ));
                    }
                    node
                } else if let Some(name) = item.get("name").and_then(Json::as_str) {
                    match grid.nodes.iter().position(|n| n.name == name) {
                        Some(node) => node,
                        None => return Err(format!("deltas[{i}]: no node named {name:?}")),
                    }
                } else {
                    return Err(format!("deltas[{i}] needs node (index) or name"));
                };
                edits.currents.push((node, amps));
            }
            "strap" => {
                let Some(layer) = item.get("layer").and_then(Json::as_u64) else {
                    return Err(format!("deltas[{i}] needs a numeric layer"));
                };
                let layer = layer_index(i, layer)?;
                let Some(scale) = item.get("scale").and_then(Json::as_f64) else {
                    return Err(format!("deltas[{i}] needs a numeric scale"));
                };
                edits.topology.push(TopologyDelta::Strap { layer, scale });
            }
            "via" => {
                let Some(Json::Arr(layers)) = item.get("layers") else {
                    return Err(format!("deltas[{i}] needs layers (an array of two layers)"));
                };
                let [a, b] = layers.as_slice() else {
                    return Err(format!(
                        "deltas[{i}]: layers must hold exactly two entries, got {}",
                        layers.len()
                    ));
                };
                let (Some(a), Some(b)) = (a.as_u64(), b.as_u64()) else {
                    return Err(format!("deltas[{i}]: layers entries must be numeric"));
                };
                let (a, b) = (layer_index(i, a)?, layer_index(i, b)?);
                let Some(scale) = item.get("scale").and_then(Json::as_f64) else {
                    return Err(format!("deltas[{i}] needs a numeric scale"));
                };
                edits.topology.push(TopologyDelta::Via {
                    lower: a.min(b),
                    upper: a.max(b),
                    scale,
                });
            }
            "segment" => {
                let Some(segment) = item.get("segment").and_then(Json::as_u64) else {
                    return Err(format!("deltas[{i}] needs a numeric segment index"));
                };
                let Some(ohms) = item.get("ohms").and_then(Json::as_f64) else {
                    return Err(format!("deltas[{i}] needs a numeric ohms"));
                };
                edits.topology.push(TopologyDelta::Segment {
                    segment: segment as usize,
                    ohms,
                });
            }
            other => {
                return Err(format!(
                    "deltas[{i}]: unknown kind {other:?} (expected current, strap, via or segment)"
                ))
            }
        }
    }
    Ok(edits)
}

/// A layer number of `deltas[i]`, refused when it does not fit a
/// layer id (a wrapped `2^32 + 1` would silently edit `m1`).
fn layer_index(i: usize, layer: u64) -> Result<u32, String> {
    u32::try_from(layer).map_err(|_| format!("deltas[{i}]: layer {layer} is out of range"))
}

/// The machine-readable `code` of an [`EditError`] envelope.
fn edit_error_code(error: &EditError) -> &'static str {
    match error {
        EditError::NoStrapSegments { .. } => "no_strap_segments",
        EditError::NoViaSegments { .. } => "no_via_segments",
        EditError::DegenerateVia { .. } => "degenerate_via",
        EditError::SegmentOutOfRange { .. } => "segment_out_of_range",
        EditError::InvalidValue { .. } => "invalid_value",
    }
}

/// Renders an [`EditError`] as the 400 envelope with its
/// machine-readable kind as the code.
fn edit_error_body(error: &EditError) -> String {
    envelope(edit_error_code(error), &error.to_string())
}

/// `POST /v1/sweep` — ranked what-if sweep over candidate edit plans:
///
/// ```json
/// {"base": "<16-hex design fingerprint>",
///  "hotspot_threshold": 0.0012,
///  "candidates": [
///    {"label": "thicken-m1", "deltas": [{"kind": "strap", "layer": 1, "scale": 0.8}]},
///    {"label": "more-load", "deltas": [{"node": 17, "amps": 2e-3}]}]}
/// ```
///
/// Every candidate is prepared serially through the warm stage graph
/// (so per-candidate cache statistics are attributable), the model
/// forwards run in chunks of four, and the response lists candidates
/// ranked best-first by worst-drop delta against the base analysis
/// (ties: hotspot-count delta, then submission order). Because every
/// prepared map is bitwise deterministic and the ranking key is total,
/// the ranking is identical at any thread count and any chunking of
/// the forwards.
fn handle_sweep(body: &Json, state: &Arc<State>) -> (u16, String) {
    let (fingerprint, grid) = match resolve_base(body, state) {
        Ok(ok) => ok,
        Err(err) => return err,
    };
    let Some(Json::Arr(items)) = body.get("candidates") else {
        return (
            400,
            envelope(
                "missing_candidates",
                "request needs candidates (an array of {label?, deltas})",
            ),
        );
    };
    const MAX_CANDIDATES: usize = 64;
    if items.is_empty() {
        return (
            400,
            envelope_with(
                "empty_candidates",
                "candidates must not be empty",
                vec![
                    ("count", Json::Num(0.0)),
                    ("limit", Json::Num(MAX_CANDIDATES as f64)),
                ],
            ),
        );
    }
    if items.len() > MAX_CANDIDATES {
        return (
            400,
            envelope_with(
                "too_many_candidates",
                &format!(
                    "too many candidates ({}, limit {MAX_CANDIDATES})",
                    items.len()
                ),
                vec![
                    ("count", Json::Num(items.len() as f64)),
                    ("limit", Json::Num(MAX_CANDIDATES as f64)),
                ],
            ),
        );
    }

    // The base analysis everything is ranked against (warm after the
    // original /predict; computed through the same stage graph
    // otherwise), and the session every candidate is an edit of.
    let base_session = state.pipeline.session(Arc::clone(&grid));

    // Parse and validate every candidate before solving anything, so a
    // malformed plan rejects the whole sweep without wasted work.
    let mut candidates = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let label = item
            .get("label")
            .and_then(Json::as_str)
            .map_or_else(|| format!("candidate-{i}"), str::to_string);
        let edits = match parse_edits(item.get("deltas"), &grid) {
            Ok(edits) => edits,
            Err(message) => {
                return (
                    400,
                    envelope_with(
                        "invalid_deltas",
                        &format!("candidates[{i}] ({label}): {message}"),
                        vec![
                            ("candidate", Json::Num(i as f64)),
                            ("label", Json::Str(label)),
                        ],
                    ),
                )
            }
        };
        let session = match build_session(&base_session, &edits) {
            Ok(session) => session,
            Err(error) => {
                return (
                    400,
                    envelope_with(
                        edit_error_code(&error),
                        &error.to_string(),
                        vec![
                            ("candidate", Json::Num(i as f64)),
                            ("label", Json::Str(label)),
                        ],
                    ),
                );
            }
        };
        candidates.push((label, session));
    }

    // `"warm_start": true` opts candidates into seeding their rough
    // solves from the base solution. Faster, and still deterministic
    // for a fixed base — but not bitwise identical to cold analyses,
    // so it is never the default.
    let warm_start = body
        .get("warm_start")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if warm_start {
        let seed = match base_session.rough_solution() {
            Ok(seed) => seed,
            Err(error) => {
                return (
                    400,
                    envelope(
                        "feature_error",
                        &format!("cannot prepare base features: {error}"),
                    ),
                )
            }
        };
        candidates = candidates
            .into_iter()
            .map(|(label, session)| (label, session.with_rough_warm_start(Arc::clone(&seed))))
            .collect();
    }

    let ((prepared, base_stack), prepare_seconds) = timed(|| {
        let base_stack = base_session.prepare();
        // Serial per-candidate prepares keep the store counters
        // attributable to one candidate at a time.
        let prepared: Vec<_> = candidates
            .iter()
            .map(|(label, session)| {
                let before = (state.cache.hits(), state.cache.misses());
                let stack = session.prepare();
                let after = (state.cache.hits(), state.cache.misses());
                (
                    label,
                    session,
                    stack,
                    after.0 - before.0,
                    after.1 - before.1,
                )
            })
            .collect();
        (prepared, base_stack)
    });
    state
        .metrics
        .observe_stage("sweep_prepare", prepare_seconds);
    let base_stack = match base_stack {
        Ok(stack) => stack,
        Err(error) => {
            return (
                400,
                envelope(
                    "feature_error",
                    &format!("cannot prepare base features: {error}"),
                ),
            )
        }
    };
    let mut stacks = vec![Arc::clone(&base_stack)];
    for (label, _, stack, ..) in &prepared {
        match stack {
            Ok(stack) => stacks.push(Arc::clone(stack)),
            Err(error) => {
                return (
                    400,
                    envelope(
                        "feature_error",
                        &format!("cannot prepare candidate {label}: {error}"),
                    ),
                )
            }
        }
    }

    let model = default_model(state);
    // Edits keep the base's layers, so every candidate has its count.
    if let Err(err) = check_channels(model.as_deref(), base_stack.features.len()) {
        return err;
    }
    let (maps, source) = run_forwards(&state.pipeline, &state.metrics, &stacks, model.as_deref());
    let base_map = &maps[0];
    let threshold = body
        .get("hotspot_threshold")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| f64::from(base_map.max()) * 0.9);
    let base_max = f64::from(base_map.max());
    let base_hotspots = hotspot_count(base_map, threshold);

    struct Row {
        index: usize,
        label: String,
        design: u64,
        max_drop: f64,
        delta_max_drop: f64,
        hotspot_count: usize,
        delta_hotspots: i64,
        deltas_applied: usize,
        topology_deltas: usize,
        cache_hits: u64,
        cache_misses: u64,
    }
    let mut rows: Vec<Row> = prepared
        .iter()
        .zip(&maps[1..])
        .enumerate()
        .map(|(index, ((label, session, stack, hits, misses), map))| {
            let stack = stack.as_ref().expect("prepare errors handled above");
            // Edited designs are themselves valid bases for follow-up
            // /whatif and /sweep calls. A warm-started stack lives
            // under a seed-tagged key, so also register the design's
            // own (untagged) fingerprint — the identity reported back.
            state
                .cache
                .insert_parsed(stack.fingerprint, Arc::clone(session.grid()));
            let design = session.fingerprint();
            if design != stack.fingerprint {
                state
                    .cache
                    .insert_parsed(design, Arc::clone(session.grid()));
            }
            let max_drop = f64::from(map.max());
            let hotspot_count = hotspot_count(map, threshold);
            let plan = session.edit_plan();
            Row {
                index,
                label: (*label).clone(),
                design,
                max_drop,
                delta_max_drop: max_drop - base_max,
                hotspot_count,
                delta_hotspots: hotspot_count as i64 - base_hotspots as i64,
                deltas_applied: plan.current_deltas().len() + plan.topology_deltas().len(),
                topology_deltas: plan.topology_deltas().len(),
                cache_hits: *hits,
                cache_misses: *misses,
            }
        })
        .collect();
    // Best first: the candidate that lowers the worst drop the most,
    // ties broken by hotspot improvement, then submission order — a
    // total order, so the ranking is deterministic.
    rows.sort_by(|a, b| {
        a.delta_max_drop
            .total_cmp(&b.delta_max_drop)
            .then(a.delta_hotspots.cmp(&b.delta_hotspots))
            .then(a.index.cmp(&b.index))
    });

    let ranked: Vec<Json> = rows
        .iter()
        .enumerate()
        .map(|(rank, row)| {
            obj(vec![
                ("rank", Json::Num((rank + 1) as f64)),
                ("candidate", Json::Num(row.index as f64)),
                ("label", Json::Str(row.label.clone())),
                ("design", Json::Str(format!("{:016x}", row.design))),
                ("max_drop", Json::Num(row.max_drop)),
                ("delta_max_drop", Json::Num(row.delta_max_drop)),
                ("hotspot_count", Json::Num(row.hotspot_count as f64)),
                ("delta_hotspot_count", Json::Num(row.delta_hotspots as f64)),
                ("deltas_applied", Json::Num(row.deltas_applied as f64)),
                (
                    "topology_deltas_applied",
                    Json::Num(row.topology_deltas as f64),
                ),
                (
                    "cache",
                    obj(vec![
                        ("hits", Json::Num(row.cache_hits as f64)),
                        ("misses", Json::Num(row.cache_misses as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    state.metrics.observe_sweep_candidates(rows.len());
    (
        200,
        obj(vec![
            ("base", Json::Str(format!("{fingerprint:016x}"))),
            ("source", Json::Str(source.to_string())),
            ("hotspot_threshold", Json::Num(threshold)),
            (
                "baseline",
                obj(vec![
                    ("max_drop", Json::Num(base_max)),
                    ("hotspot_count", Json::Num(base_hotspots as f64)),
                ]),
            ),
            ("candidates", Json::Arr(ranked)),
        ])
        .render(),
    )
}

/// One bounded integer tunable of `/optimize`: absent → `default`,
/// non-numeric or out of `[min, max]` → a rendered structured 400
/// body naming the offending value and the accepted range.
fn bounded_param(
    body: &Json,
    key: &'static str,
    default: usize,
    min: usize,
    max: usize,
) -> Result<usize, String> {
    let Some(value) = body.get(key) else {
        return Ok(default);
    };
    let invalid = |got: f64| {
        envelope_with(
            &format!("invalid_{key}"),
            &format!("{key} must be an integer in [{min}, {max}]"),
            vec![
                ("value", Json::Num(got)),
                ("min", Json::Num(min as f64)),
                ("max", Json::Num(max as f64)),
            ],
        )
    };
    let Some(v) = value.as_u64() else {
        return Err(invalid(value.as_f64().unwrap_or(f64::NAN)));
    };
    let v = v as usize;
    if (min..=max).contains(&v) {
        Ok(v)
    } else {
        Err(invalid(v as f64))
    }
}

/// A [`TopologyDelta`] rendered in the same shape `/whatif` and
/// `/sweep` accept as input, so an `/optimize` winner's plan can be
/// replayed verbatim.
fn render_topology_delta(delta: &TopologyDelta) -> Json {
    match *delta {
        TopologyDelta::Strap { layer, scale } => obj(vec![
            ("kind", Json::Str("strap".to_string())),
            ("layer", Json::Num(f64::from(layer))),
            ("scale", Json::Num(scale)),
        ]),
        TopologyDelta::Via {
            lower,
            upper,
            scale,
        } => obj(vec![
            ("kind", Json::Str("via".to_string())),
            (
                "layers",
                Json::Arr(vec![
                    Json::Num(f64::from(lower)),
                    Json::Num(f64::from(upper)),
                ]),
            ),
            ("scale", Json::Num(scale)),
        ]),
        TopologyDelta::Segment { segment, ohms } => obj(vec![
            ("kind", Json::Str("segment".to_string())),
            ("segment", Json::Num(segment as f64)),
            ("ohms", Json::Num(ohms)),
        ]),
    }
}

/// `POST /v1/optimize` — the closed-loop PDN optimizer:
///
/// ```json
/// {"base": "<16-hex design fingerprint>",
///  "target_max_drop": 0.0011,
///  "metal_budget": 250.0,
///  "beam": 2, "max_iterations": 8, "max_evaluations": 64,
///  "warm_start": true}
/// ```
///
/// Runs [`irf_opt::Optimizer`] from the registered base design:
/// candidates are generated from the rough drop map, priced under the
/// metal budget, batched through the warm stage graph (and the model
/// forward when a model is loaded), and beam-pruned until the
/// worst drop meets the target or a budget runs out. The winner is
/// registered under its design fingerprint for follow-up `/whatif` /
/// `/sweep` calls, and the full per-iteration trajectory is returned.
/// Deterministic for a fixed base and tunables at any thread count.
fn handle_optimize(body: &Json, state: &Arc<State>) -> (u16, String) {
    let (fingerprint, grid) = match resolve_base(body, state) {
        Ok(ok) => ok,
        Err(err) => return err,
    };
    let Some(target) = body.get("target_max_drop").and_then(Json::as_f64) else {
        return (
            400,
            envelope(
                "missing_target",
                "request needs a numeric target_max_drop (volts)",
            ),
        );
    };
    if !target.is_finite() || target < 0.0 {
        return (
            400,
            envelope_with(
                "invalid_target",
                "target_max_drop must be finite and non-negative",
                vec![("value", Json::Num(target))],
            ),
        );
    }
    let Some(budget) = body.get("metal_budget").and_then(Json::as_f64) else {
        return (
            400,
            envelope("missing_budget", "request needs a numeric metal_budget"),
        );
    };
    if !budget.is_finite() || budget <= 0.0 {
        return (
            400,
            envelope_with(
                "invalid_budget",
                "metal_budget must be finite and positive",
                vec![("value", Json::Num(budget))],
            ),
        );
    }
    let beam = match bounded_param(body, "beam", 2, 1, 8) {
        Ok(v) => v,
        Err(body) => return (400, body),
    };
    let max_iterations = match bounded_param(body, "max_iterations", 8, 1, 32) {
        Ok(v) => v,
        Err(body) => return (400, body),
    };
    let max_evaluations = match bounded_param(body, "max_evaluations", 64, 1, 256) {
        Ok(v) => v,
        Err(body) => return (400, body),
    };
    let candidates_per_state = match bounded_param(body, "candidates_per_state", 6, 1, 16) {
        Ok(v) => v,
        Err(body) => return (400, body),
    };
    let warm_start = body
        .get("warm_start")
        .and_then(Json::as_bool)
        .unwrap_or(true);

    // The optimizer's batch hook runs the same forwards as /sweep.
    let source: Cell<&'static str> = Cell::new("rough");
    let model = default_model(state);
    // Edits keep the base's layers, so every candidate has its count.
    let channels = state
        .pipeline
        .config()
        .feature_channels(grid.layers().len());
    if let Err(err) = check_channels(model.as_deref(), channels) {
        return err;
    }
    let predictor = |stacks: &[Arc<PreparedStack>]| {
        let (maps, src) = run_forwards(&state.pipeline, &state.metrics, stacks, model.as_deref());
        source.set(src);
        maps
    };
    let optimizer = irf_opt::Optimizer::new(
        &state.pipeline,
        irf_opt::OptimizerConfig {
            target_max_drop: target,
            metal_budget: budget,
            beam_width: beam,
            max_iterations,
            max_evaluations,
            candidates_per_state,
            warm_start,
        },
    )
    .with_predictor(&predictor);
    let (result, seconds) = timed(|| optimizer.run(Arc::clone(&grid)));
    state.metrics.observe_stage("optimize", seconds);
    let report = match result {
        Ok(report) => report,
        Err(irf_opt::OptimizeError::Edit(error)) => return (400, edit_error_body(&error)),
        Err(irf_opt::OptimizeError::Feature(error)) => {
            return (
                400,
                envelope(
                    "feature_error",
                    &format!("cannot prepare features: {error}"),
                ),
            )
        }
    };
    state
        .metrics
        .observe_optimize(report.trajectory.len(), report.evaluations);
    // The winner is itself a valid base for follow-up what-ifs.
    state
        .cache
        .insert_parsed(report.winner.fingerprint, Arc::clone(&report.winner.grid));

    let labels =
        |labels: &[String]| Json::Arr(labels.iter().map(|l| Json::Str(l.clone())).collect());
    let trajectory: Vec<Json> = report
        .trajectory
        .iter()
        .map(|r| {
            obj(vec![
                ("iteration", Json::Num(r.iteration as f64)),
                ("evaluated", Json::Num(r.evaluated as f64)),
                ("max_drop", Json::Num(r.best_max_drop)),
                ("metal_cost", Json::Num(r.best_cost)),
                ("design", Json::Str(format!("{:016x}", r.best_fingerprint))),
                ("labels", labels(&r.best_labels)),
            ])
        })
        .collect();
    (
        200,
        obj(vec![
            ("base", Json::Str(format!("{fingerprint:016x}"))),
            ("source", Json::Str(source.get().to_string())),
            ("target_max_drop", Json::Num(report.target_max_drop)),
            ("metal_budget", Json::Num(report.metal_budget)),
            (
                "stop_reason",
                Json::Str(report.stop_reason.label().to_string()),
            ),
            ("target_met", Json::Bool(report.target_met)),
            ("iterations", Json::Num(report.trajectory.len() as f64)),
            ("evaluations", Json::Num(report.evaluations as f64)),
            (
                "baseline",
                obj(vec![("max_drop", Json::Num(report.baseline_max_drop))]),
            ),
            (
                "winner",
                obj(vec![
                    (
                        "design",
                        Json::Str(format!("{:016x}", report.winner.fingerprint)),
                    ),
                    ("max_drop", Json::Num(report.winner.max_drop)),
                    ("metal_cost", Json::Num(report.winner.metal_cost)),
                    ("labels", labels(&report.winner.labels)),
                    (
                        "deltas",
                        Json::Arr(
                            report
                                .winner
                                .deltas
                                .iter()
                                .map(render_topology_delta)
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("trajectory", Json::Arr(trajectory)),
        ])
        .render(),
    )
}

/// Stacks per forward call: a sweep's (or an optimizer round's) many
/// stacks run in chunks of this many. The batched forward is bitwise
/// identical to serial forwards, so the chunk size moves no bits.
const FORWARD_CHUNK: usize = 4;

/// The one inference helper: runs `stacks` (a single predict's one
/// stack, a sweep's many) through `model` on the calling handler's
/// thread, in chunks of [`FORWARD_CHUNK`], so each forward's
/// `nn_forward` span lands in the request's own trace. Output order
/// matches input order. Without a model, falls back to the rough maps.
fn run_forwards(
    pipeline: &IrFusionPipeline,
    metrics: &ServerMetrics,
    stacks: &[Arc<PreparedStack>],
    model: Option<&TrainedModel>,
) -> (Vec<GridMap>, &'static str) {
    let Some(model) = model else {
        return (stacks.iter().map(|s| s.rough.clone()).collect(), "rough");
    };
    let started = Instant::now();
    let mut maps = Vec::with_capacity(stacks.len());
    for chunk in stacks.chunks(FORWARD_CHUNK) {
        let chunk: Vec<&PreparedStack> = chunk.iter().map(AsRef::as_ref).collect();
        let (forwarded, seconds) = timed(|| pipeline.predict_batch(model, &chunk));
        metrics.observe_stage("forward", seconds);
        maps.extend(forwarded);
    }
    metrics.observe_stage("infer", started.elapsed().as_secs_f64());
    (maps, "fused")
}

/// A 400 `invalid_design` unless a stack of `channels` feature maps
/// fits `model`'s input layer; without a model every stack fits (the
/// rough map needs no forward). A design with another layer count than
/// the model was trained on would otherwise panic inside the forward.
fn check_channels(model: Option<&TrainedModel>, channels: usize) -> Result<(), (u16, String)> {
    match model {
        Some(model) if model.in_channels != channels => Err((
            400,
            envelope(
                "invalid_design",
                &format!(
                    "the design gives {channels} feature channels; the model was built for {}",
                    model.in_channels
                ),
            ),
        )),
        _ => Ok(()),
    }
}

/// Pixels of `map` at or over `threshold` volts (and over zero).
fn hotspot_count(map: &GridMap, threshold: f64) -> usize {
    map.data()
        .iter()
        .filter(|&&v| f64::from(v) >= threshold && v > 0.0)
        .count()
}

/// Renders a `/v1/predict` / `/v1/whatif` answer. `fingerprint` is the
/// prepared stack's — the [`ir_fusion::design_fingerprint`] of `grid`,
/// already computed by the preparation and the key the grid was
/// registered under — so rendering does not hash the grid again.
fn render_prediction(
    grid: &PowerGrid,
    fingerprint: u64,
    map: &GridMap,
    source: &str,
    body: &Json,
    extra: Vec<(&'static str, Json)>,
) -> String {
    let include_map = body
        .get("include_map")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let threshold = body
        .get("hotspot_threshold")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| f64::from(map.max()) * 0.9);
    let hotspot_count = hotspot_count(map, threshold);
    let mut members = extra;
    members.extend(vec![
        ("design", Json::Str(format!("{fingerprint:016x}"))),
        ("source", Json::Str(source.to_string())),
        ("width", Json::Num(map.width() as f64)),
        ("height", Json::Num(map.height() as f64)),
        ("max_drop", Json::Num(f64::from(map.max()))),
        ("mean_drop", Json::Num(f64::from(map.mean()))),
        ("hotspot_threshold", Json::Num(threshold)),
        ("hotspot_count", Json::Num(hotspot_count as f64)),
        ("nodes", Json::Num(grid.nodes.len() as f64)),
    ]);
    if include_map {
        members.push((
            "map",
            Json::Arr(
                map.data()
                    .iter()
                    .map(|&v| Json::Num(f64::from(v)))
                    .collect(),
            ),
        ));
    }
    obj(members).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_fusion::design_fingerprint;
    use irf_data::{synthesize, Dataset, SynthSpec};
    use irf_models::ModelKind;
    use irf_trace::MetricsRegistry;

    /// A request's stacks run in forwards of at most four, in order,
    /// and each map equals that stack's lone forward bit for bit.
    #[test]
    fn a_requests_stacks_run_in_forwards_of_four() {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
        let pipeline = IrFusionPipeline::new(config);
        let stacks: Vec<Arc<PreparedStack>> = dataset
            .designs
            .iter()
            .cycle()
            .take(10)
            .map(|d| {
                pipeline
                    .stack_builder()
                    .bypass_cache()
                    .prepare(&d.grid)
                    .expect("grid has pads")
            })
            .collect();
        let metrics = ServerMetrics::with_registry(Box::leak(Box::new(MetricsRegistry::new())));
        let (maps, source) = run_forwards(&pipeline, &metrics, &stacks, Some(&trained));
        assert_eq!(source, "fused");
        assert_eq!(maps.len(), stacks.len());
        for (map, stack) in maps.iter().zip(&stacks) {
            assert_eq!(map, &pipeline.predict(&trained, stack));
        }
        // Ten stacks: forwards of 4, 4 and 2, inside one inference.
        let text = metrics.render(&StageStore::new(1));
        assert!(text.contains("irf_stage_requests_total{stage=\"forward\"} 3"));
        assert!(text.contains("irf_stage_requests_total{stage=\"infer\"} 1"));

        // Without a model the rough maps answer, and nothing runs.
        let (maps, source) = run_forwards(&pipeline, &metrics, &stacks[..1], None);
        assert_eq!((source, &maps[0]), ("rough", &stacks[0].rough));

        // The handlers' channel check: the stacks the model trained on
        // fit it, one channel short is a 400, and the rough map takes
        // any stack.
        let channels = stacks[0].features.len();
        assert_eq!(trained.in_channels, channels);
        assert!(check_channels(Some(&trained), channels).is_ok());
        let (status, body) = check_channels(Some(&trained), channels - 1).expect_err("short");
        assert_eq!(status, 400);
        assert!(body.contains("invalid_design"), "{body}");
        assert!(check_channels(None, 1).is_ok());
    }

    /// `handle_predict` and `handle_whatif` report the prepared stack's
    /// fingerprint as the design id instead of hashing the grid again;
    /// this is the one place that holds the two equal.
    #[test]
    fn a_prepared_stack_carries_its_grids_design_fingerprint() {
        let pipeline =
            IrFusionPipeline::new(FusionConfig::tiny()).with_cache(Arc::new(StageStore::new(8)));
        let grid = Arc::new(synthesize(&SynthSpec::default()));
        let stack = pipeline.stack_builder().prepare(&grid).expect("pads");
        assert_eq!(
            stack.fingerprint,
            design_fingerprint(&grid, pipeline.config())
        );

        // The what-if path: the fingerprint is the *edited* grid's.
        let session = pipeline
            .session(Arc::clone(&grid))
            .with_current_deltas(&[(1, 2e-3)])
            .with_topology_deltas(&[TopologyDelta::Strap {
                layer: 1,
                scale: 0.8,
            }])
            .expect("layer 1 has straps");
        let edited = session.prepare().expect("pads");
        assert_ne!(edited.fingerprint, stack.fingerprint);
        assert_eq!(
            edited.fingerprint,
            design_fingerprint(session.grid(), pipeline.config())
        );
    }
}
