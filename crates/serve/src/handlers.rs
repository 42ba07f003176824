//! The endpoint handlers. Each takes the decoded request body (the
//! routes that read none take only the server state), runs its work on
//! the calling connection thread — model forwards included, through
//! [`run_forwards`] — and returns the response document or the
//! [`ApiError`] that answers instead.

use crate::decode::{
    bounded_param, optional, parse_edits, resolve_base, resolve_grid, resolve_model, ApiError,
    Edits,
};
use crate::json::{obj, Json};
use crate::metrics::ServerMetrics;
use crate::recorder::RequestId;
use crate::registry::valid_model_name;
use crate::render::{
    hotspot_count, render_prediction, render_request_record, render_topology_delta,
};
use crate::server::State;
use ir_fusion::{AnalysisSession, EditError, IrFusionPipeline, PreparedStack, TrainedModel};
use irf_pg::GridMap;
use irf_trace::timed;
use std::cell::Cell;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

/// `GET /v1/models` — the registry listing: every loaded model with
/// its architecture, parameter count and reload count.
pub(crate) fn models(state: &State) -> Json {
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
    obj(vec![
        ("count", Json::Num(models.len() as f64)),
        ("models", Json::Arr(models)),
    ])
}

/// `GET /v1/debug/requests` — the flight recorder's retained requests,
/// most recent first (summaries only). `GET /v1/debug/requests/{id}` —
/// one request in full, including its span tree when the request was
/// slow enough to snapshot one.
pub(crate) fn debug_requests(path: &str, state: &State) -> Result<Json, ApiError> {
    let Some(id) = path.strip_prefix("/debug/requests/") else {
        let records: Vec<Json> = state
            .recorder
            .recent()
            .iter()
            .map(|record| render_request_record(record, false))
            .collect();
        return Ok(obj(vec![
            ("capacity", Json::Num(state.recorder.capacity() as f64)),
            ("count", Json::Num(records.len() as f64)),
            ("requests", Json::Arr(records)),
        ]));
    };
    let id = RequestId::parse(id).ok_or_else(|| {
        ApiError::new(
            400,
            "invalid_request_id",
            "request id must be 16 hex digits",
        )
    })?;
    let record = state.recorder.find(id.as_u64()).ok_or_else(|| {
        ApiError::new(
            404,
            "not_recorded",
            "request not recorded (or already evicted)",
        )
    })?;
    Ok(render_request_record(&record, true))
}

/// `POST /v1/models/{name}/reload` — loads a checkpoint from the
/// server's filesystem (`{"model_path": ...}`) under `name`: existing
/// entries are hot-swapped atomically (requests already resolved
/// finish on the model they got; no request is dropped), unknown
/// names become new registry entries.
pub(crate) fn reload(name: &str, body: &Json, state: &State) -> Result<Json, ApiError> {
    let Some(registry) = &state.registry else {
        return Err(ApiError::new(
            409,
            "no_model",
            "server is running without a model; reload has nothing to swap",
        ));
    };
    if !valid_model_name(name) {
        return Err(ApiError::new(
            400,
            "invalid_model_name",
            "model names are 1-64 characters of [A-Za-z0-9._-]",
        )
        .detail("value", Json::Str(name.to_string())));
    }
    let Some(path) = body.get("model_path").and_then(Json::as_str) else {
        return Err(ApiError::new(
            400,
            "missing_model_path",
            "request needs model_path",
        ));
    };
    let (loaded, seconds) = timed(|| {
        std::fs::File::open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))
            .and_then(|file| {
                ir_fusion::load_model(BufReader::new(file))
                    .map_err(|e| format!("cannot load {path}: {e}"))
            })
    });
    let model = loaded.map_err(|message| {
        ApiError::new(422, "checkpoint_error", message)
            .detail("model_path", Json::Str(path.to_string()))
    })?;
    let reloads = registry.reload(name, model);
    state.metrics.set_registry_models(registry.len());
    state.metrics.observe_reload();
    state.metrics.observe_stage("reload", seconds);
    Ok(obj(vec![
        ("reloaded", Json::Bool(true)),
        ("model", Json::Str(name.to_string())),
        ("model_path", Json::Str(path.to_string())),
        ("reloads", Json::Num(reloads as f64)),
    ]))
}

/// The `default` model — what the endpoints without model selection
/// (`/whatif`, `/sweep`, `/optimize`) run on. `None` when serving
/// without a model.
fn default_model(state: &State) -> Option<Arc<TrainedModel>> {
    state
        .registry
        .as_ref()
        .and_then(|registry| registry.resolve("default").ok())
}

/// `POST /v1/predict` — one design through the pipeline.
pub(crate) fn predict(body: &Json, state: &State) -> Result<Json, ApiError> {
    let resolved = resolve_model(body, state.registry.as_deref())?;
    let include_map = optional(body, "include_map", "a boolean", Json::as_bool)?.unwrap_or(false);
    let threshold = optional(body, "hotspot_threshold", "a number", Json::as_f64)?;
    let (grid, parse_seconds) = timed(|| resolve_grid(body));
    let grid = Arc::new(grid?);
    state.metrics.observe_stage("parse", parse_seconds);

    let (stack, prepare_seconds) = timed(|| state.pipeline.stack_builder().prepare(&grid));
    let stack = stack?;
    state.metrics.observe_stage("prepare", prepare_seconds);
    let model = resolved.as_ref().map(|(model, _)| model.as_ref());
    check_channels(model, stack.features.len())?;
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
    let extra = resolved
        .map(|(_, name)| ("model", Json::Str(name)))
        .into_iter()
        .collect();
    Ok(render_prediction(
        &grid,
        stack.fingerprint,
        &maps[0],
        source,
        include_map,
        threshold,
        extra,
    ))
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
/// rejected with a structured 400 envelope and nothing is applied.
pub(crate) fn whatif(body: &Json, state: &State) -> Result<Json, ApiError> {
    let (fingerprint, grid) = resolve_base(body, &state.cache)?;
    let edits = parse_edits(body.get("deltas"), &grid)?;
    let include_map = optional(body, "include_map", "a boolean", Json::as_bool)?.unwrap_or(false);
    let threshold = optional(body, "hotspot_threshold", "a number", Json::as_f64)?;

    let session = build_session(&state.pipeline.session(grid), &edits)?;
    let (stack, prepare_seconds) = timed(|| session.prepare());
    let stack = stack?;
    state
        .metrics
        .observe_stage("whatif_prepare", prepare_seconds);
    let model = default_model(state);
    check_channels(model.as_deref(), stack.features.len())?;
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
    Ok(render_prediction(
        session.grid(),
        stack.fingerprint,
        &maps[0],
        source,
        include_map,
        threshold,
        extra,
    ))
}

/// A copy of the `base` session with `edits` applied: current deltas
/// first (they never move fingerprints the topology path depends on),
/// then topology deltas, which validate against the base grid
/// all-or-nothing. The copy carries the base's key plan, so a sweep
/// hashes its base design once, not once per candidate.
fn build_session<'p>(
    base: &AnalysisSession<'p>,
    edits: &Edits,
) -> Result<AnalysisSession<'p>, EditError> {
    let mut session = base.clone();
    if !edits.currents.is_empty() {
        session = session.with_current_deltas(&edits.currents);
    }
    if !edits.topology.is_empty() {
        session = session.with_topology_deltas(&edits.topology)?;
    }
    Ok(session)
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
pub(crate) fn sweep(body: &Json, state: &State) -> Result<Json, ApiError> {
    let (fingerprint, grid) = resolve_base(body, &state.cache)?;
    let Some(Json::Arr(items)) = body.get("candidates") else {
        return Err(ApiError::new(
            400,
            "missing_candidates",
            "request needs candidates (an array of {label?, deltas})",
        ));
    };
    const MAX_CANDIDATES: usize = 64;
    if items.is_empty() || items.len() > MAX_CANDIDATES {
        let (code, message) = if items.is_empty() {
            (
                "empty_candidates",
                "candidates must not be empty".to_string(),
            )
        } else {
            let count = items.len();
            let message = format!("too many candidates ({count}, limit {MAX_CANDIDATES})");
            ("too_many_candidates", message)
        };
        return Err(ApiError::new(400, code, message)
            .detail("count", Json::Num(items.len() as f64))
            .detail("limit", Json::Num(MAX_CANDIDATES as f64)));
    }

    // The base analysis everything is ranked against (warm after the
    // original /predict; computed through the same stage graph
    // otherwise), and the session every candidate is an edit of.
    let base_session = state.pipeline.session(Arc::clone(&grid));

    // Parse and validate every candidate before solving anything, so a
    // malformed plan rejects the whole sweep without wasted work.
    let mut candidates = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let candidate = |error: ApiError| error.detail("candidate", Json::Num(i as f64));
        let label = optional(item, "label", "a string", Json::as_str)
            .map_err(|e| candidate(e.within(format_args!("candidates[{i}]"))))?
            .map_or_else(|| format!("candidate-{i}"), str::to_string);
        let labelled = |error: ApiError| candidate(error).detail("label", Json::Str(label.clone()));
        let edits = parse_edits(item.get("deltas"), &grid)
            .map_err(|e| labelled(e.within(format_args!("candidates[{i}] ({label})"))))?;
        let session = build_session(&base_session, &edits).map_err(|e| labelled(e.into()))?;
        candidates.push((label, session));
    }

    let threshold = optional(body, "hotspot_threshold", "a number", Json::as_f64)?;
    // `"warm_start": true` opts candidates into seeding their rough
    // solves from the base solution. Faster, and still deterministic
    // for a fixed base — but not bitwise identical to cold analyses,
    // so it is never the default.
    let warm_start = optional(body, "warm_start", "a boolean", Json::as_bool)?.unwrap_or(false);
    if warm_start {
        let seed = base_session
            .rough_solution()
            .map_err(|e| ApiError::feature("base features", &e))?;
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
    let base_stack = base_stack.map_err(|e| ApiError::feature("base features", &e))?;
    let mut stacks = vec![Arc::clone(&base_stack)];
    for (label, _, stack, ..) in &prepared {
        match stack {
            Ok(stack) => stacks.push(Arc::clone(stack)),
            Err(error) => return Err(ApiError::feature(format_args!("candidate {label}"), error)),
        }
    }

    let model = default_model(state);
    // Edits keep the base's layers, so every candidate has its count.
    check_channels(model.as_deref(), base_stack.features.len())?;
    let (maps, source) = run_forwards(&state.pipeline, &state.metrics, &stacks, model.as_deref());
    let base_map = &maps[0];
    let threshold = threshold.unwrap_or_else(|| f64::from(base_map.max()) * 0.9);
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
    Ok(obj(vec![
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
    ]))
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
pub(crate) fn optimize(body: &Json, state: &State) -> Result<Json, ApiError> {
    let (fingerprint, grid) = resolve_base(body, &state.cache)?;
    let Some(target) = body.get("target_max_drop").and_then(Json::as_f64) else {
        return Err(ApiError::new(
            400,
            "missing_target",
            "request needs a numeric target_max_drop (volts)",
        ));
    };
    if !target.is_finite() || target < 0.0 {
        return Err(ApiError::new(
            400,
            "invalid_target",
            "target_max_drop must be finite and non-negative",
        )
        .detail("value", Json::Num(target)));
    }
    let Some(budget) = body.get("metal_budget").and_then(Json::as_f64) else {
        return Err(ApiError::new(
            400,
            "missing_budget",
            "request needs a numeric metal_budget",
        ));
    };
    if !budget.is_finite() || budget <= 0.0 {
        return Err(ApiError::new(
            400,
            "invalid_budget",
            "metal_budget must be finite and positive",
        )
        .detail("value", Json::Num(budget)));
    }
    let beam = bounded_param(body, "beam", 2, 1, 8)?;
    let max_iterations = bounded_param(body, "max_iterations", 8, 1, 32)?;
    let max_evaluations = bounded_param(body, "max_evaluations", 64, 1, 256)?;
    let candidates_per_state = bounded_param(body, "candidates_per_state", 6, 1, 16)?;
    let warm_start = optional(body, "warm_start", "a boolean", Json::as_bool)?.unwrap_or(true);

    // The optimizer's batch hook runs the same forwards as /sweep.
    let source: Cell<&'static str> = Cell::new("rough");
    let model = default_model(state);
    // Edits keep the base's layers, so every candidate has its count.
    let channels = state
        .pipeline
        .config()
        .feature_channels(grid.layers().len());
    check_channels(model.as_deref(), channels)?;
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
    let report = result?;
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
    Ok(obj(vec![
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
    ]))
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
fn check_channels(model: Option<&TrainedModel>, channels: usize) -> Result<(), ApiError> {
    match model {
        Some(model) if model.in_channels != channels => Err(ApiError::invalid_design(format!(
            "the design gives {channels} feature channels; the model was built for {}",
            model.in_channels
        ))),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_fusion::{design_fingerprint, FusionConfig, StageStore, TopologyDelta};
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
        let error = check_channels(Some(&trained), channels - 1).expect_err("short");
        assert_eq!(error.status, 400);
        let body = error.render();
        assert!(body.contains("invalid_design"), "{body}");
        assert!(check_channels(None, 1).is_ok());
    }

    /// `predict` and `whatif` report the prepared stack's fingerprint
    /// as the design id instead of hashing the grid again; this is the
    /// one place that holds the two equal.
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
