//! Typed request decoding: [`ApiError`], the one error every handler
//! returns, and the decoders that read a request body into what a
//! handler runs on — a grid, a model, a base design, a list of edits, a
//! bounded or optional member. Every "which failure answers which
//! status, code and details" decision is made here or at an
//! `ApiError` construction; only [`ApiError::render`] writes the
//! `{"error": {"code", "message", "details"}}` envelope.

use crate::json::{obj, Json};
use crate::recorder::parse_hex16;
use crate::registry::ModelRegistry;
use ir_fusion::{EditError, FeatureError, StageStore, TopologyDelta, TrainedModel};
use irf_pg::{IngestError, PowerGrid};
use std::fmt::Display;
use std::sync::Arc;

/// A request that failed: the status it answers and the envelope's
/// machine-readable `code`, human `message` and structured `details`
/// (`{}` when there are none).
#[derive(Debug)]
pub(crate) struct ApiError {
    pub(crate) status: u16,
    code: String,
    message: String,
    details: Vec<(&'static str, Json)>,
}

impl ApiError {
    pub(crate) fn new(status: u16, code: impl Into<String>, message: impl Into<String>) -> Self {
        ApiError {
            status,
            code: code.into(),
            message: message.into(),
            details: Vec::new(),
        }
    }

    /// A 400 `invalid_design`: the body names no design, or one that
    /// cannot be read or served.
    pub(crate) fn invalid_design(message: impl Into<String>) -> Self {
        ApiError::new(400, "invalid_design", message)
    }

    /// A 400 `feature_error`: the pipeline could not prepare `what`.
    pub(crate) fn feature(what: impl Display, error: &FeatureError) -> Self {
        ApiError::new(
            400,
            "feature_error",
            format!("cannot prepare {what}: {error}"),
        )
    }

    /// Adds one member to `details`.
    pub(crate) fn detail(mut self, key: &'static str, value: Json) -> Self {
        self.details.push((key, value));
        self
    }

    /// Prefixes the message with where in the request the failure sits.
    pub(crate) fn within(mut self, place: impl Display) -> Self {
        self.message = format!("{place}: {}", self.message);
        self
    }

    /// The envelope body.
    pub(crate) fn render(self) -> String {
        obj(vec![(
            "error",
            obj(vec![
                ("code", Json::Str(self.code)),
                ("message", Json::Str(self.message)),
                ("details", obj(self.details)),
            ]),
        )])
        .render()
    }
}

impl From<FeatureError> for ApiError {
    fn from(error: FeatureError) -> Self {
        ApiError::feature("features", &error)
    }
}

/// An edit the base design cannot take: a 400 whose code names the
/// [`EditError`] variant.
impl From<EditError> for ApiError {
    fn from(error: EditError) -> Self {
        let code = match error {
            EditError::NoStrapSegments { .. } => "no_strap_segments",
            EditError::NoViaSegments { .. } => "no_via_segments",
            EditError::DegenerateVia { .. } => "degenerate_via",
            EditError::SegmentOutOfRange { .. } => "segment_out_of_range",
            EditError::InvalidValue { .. } => "invalid_value",
        };
        ApiError::new(400, code, error.to_string())
    }
}

impl From<irf_opt::OptimizeError> for ApiError {
    fn from(error: irf_opt::OptimizeError) -> Self {
        match error {
            irf_opt::OptimizeError::Edit(error) => error.into(),
            irf_opt::OptimizeError::Feature(error) => error.into(),
        }
    }
}

/// An optional member of `object`: `None` when absent, its value when
/// `read` accepts it, and a 400 `invalid_<key>` carrying the value as
/// sent when it is present with the wrong type — a mistyped member is
/// never read as its default.
pub(crate) fn optional<'a, T>(
    object: &'a Json,
    key: &'static str,
    expected: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, ApiError> {
    let Some(value) = object.get(key) else {
        return Ok(None);
    };
    read(value).map(Some).ok_or_else(|| {
        ApiError::new(
            400,
            format!("invalid_{key}"),
            format!("{key} must be {expected}"),
        )
        .detail("value", value.clone())
    })
}

/// One bounded integer tunable of `/optimize`: absent → `default`,
/// non-numeric or out of `[min, max]` → a 400 `invalid_<key>` naming
/// the offending value and the accepted range.
pub(crate) fn bounded_param(
    body: &Json,
    key: &'static str,
    default: usize,
    min: usize,
    max: usize,
) -> Result<usize, ApiError> {
    let Some(value) = body.get(key) else {
        return Ok(default);
    };
    let got = match value.as_u64() {
        Some(v) if (min..=max).contains(&(v as usize)) => return Ok(v as usize),
        Some(v) => v as f64,
        None => value.as_f64().unwrap_or(f64::NAN),
    };
    Err(ApiError::new(
        400,
        format!("invalid_{key}"),
        format!("{key} must be an integer in [{min}, {max}]"),
    )
    .detail("value", Json::Num(got))
    .detail("min", Json::Num(min as f64))
    .detail("max", Json::Num(max as f64)))
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
/// member taking `"fake"` / `0`).
pub(crate) fn resolve_grid(body: &Json) -> Result<PowerGrid, ApiError> {
    if let Some(text) = body.get("netlist").and_then(Json::as_str) {
        return irf_pg::grid_from_spice_reader(text.as_bytes()).map_err(|e| {
            ApiError::invalid_design(match e {
                IngestError::Model(e) => format!("invalid power grid: {e}"),
                IngestError::Parse(_) | IngestError::Io(_) => format!("netlist parse error: {e}"),
            })
        });
    }
    if let Some(path) = body.get("netlist_path").and_then(Json::as_str) {
        let size = std::fs::metadata(path)
            .map_err(|e| ApiError::invalid_design(format!("cannot read {path}: {e}")))?
            .len();
        if size > MAX_NETLIST_FILE_BYTES {
            return Err(ApiError::new(
                413,
                "payload_too_large",
                format!("netlist file {path} exceeds the ingest limit"),
            )
            .detail("limit_bytes", Json::Num(MAX_NETLIST_FILE_BYTES as f64))
            .detail("actual_bytes", Json::Num(size as f64)));
        }
        return irf_pg::grid_from_spice_path(path)
            .map_err(|e| ApiError::invalid_design(format!("cannot ingest {path}: {e}")));
    }
    let Some(spec) = body.get("spec") else {
        return Err(ApiError::invalid_design(
            "request needs one of: netlist, netlist_path, spec",
        ));
    };
    if !matches!(spec, Json::Obj(_)) {
        return Err(ApiError::invalid_design("\"spec\" must be an object"));
    }
    // Only an absent member takes its default; a present one of the
    // wrong type is refused, never read as the default.
    let class = match spec.get("class") {
        None => "fake",
        Some(class) => class
            .as_str()
            .ok_or_else(|| ApiError::invalid_design("spec member \"class\" must be a string"))?,
    };
    let seed = match spec.get("seed") {
        None => 0,
        Some(seed) => seed.as_u64().ok_or_else(|| {
            ApiError::invalid_design("spec member \"seed\" must be a non-negative integer")
        })?,
    };
    match class {
        "fake" => Ok(irf_data::fake::generate(seed)),
        "real" => Ok(irf_data::real_like::generate(seed)),
        other => Err(ApiError::invalid_design(format!(
            "unknown design class {other:?}"
        ))),
    }
}

/// A resolved predict target: the model to run on plus its name
/// echoed in the response.
pub(crate) type ResolvedModel = (Arc<TrainedModel>, String);

/// Resolves the optional `"model"` request member against the
/// registry: the model to run on plus its name for the response.
/// `Ok(None)` means no model is loaded and the rough map applies.
pub(crate) fn resolve_model(
    body: &Json,
    registry: Option<&ModelRegistry>,
) -> Result<Option<ResolvedModel>, ApiError> {
    let name = match body.get("model") {
        None => "default",
        Some(value) => value
            .as_str()
            .ok_or_else(|| ApiError::new(400, "invalid_model_name", "model must be a string"))?,
    };
    // The forward pass has one numeric mode. A request that asks for
    // another is refused: answering it at f32 would misreport what ran.
    if let Some(value) = body.get("precision") {
        if value.as_str() != Some("f32") {
            return Err(
                ApiError::new(400, "invalid_precision", "this server serves f32 only")
                    .detail("value", value.clone()),
            );
        }
    }
    let Some(registry) = registry else {
        if body.get("model").is_some() {
            // Serving without a model: an explicit model ask cannot be
            // honoured, and silently answering with the rough map
            // would misreport which model ran.
            return Err(ApiError::new(
                409,
                "no_model",
                "server is running without a model; model selection is unavailable",
            ));
        }
        return Ok(None);
    };
    match registry.resolve(name) {
        Ok(model) => Ok(Some((model, name.to_string()))),
        Err(loaded) => Err(
            ApiError::new(404, "unknown_model", format!("no model named {name:?}")).detail(
                "loaded",
                Json::Arr(loaded.into_iter().map(Json::Str).collect()),
            ),
        ),
    }
}

/// Looks up the request's `base` fingerprint in the parsed stage.
pub(crate) fn resolve_base(
    body: &Json,
    cache: &StageStore,
) -> Result<(u64, Arc<PowerGrid>), ApiError> {
    let Some(base) = body.get("base").and_then(Json::as_str) else {
        return Err(ApiError::new(
            400,
            "missing_base",
            "request needs base (a /v1/predict design fingerprint)",
        ));
    };
    let Some(fingerprint) = parse_hex16(base) else {
        return Err(
            ApiError::new(400, "invalid_base", "base must be a hex fingerprint")
                .detail("value", Json::Str(base.to_string())),
        );
    };
    let Some(grid) = cache.get_parsed(fingerprint) else {
        return Err(ApiError::new(
            404,
            "unknown_base",
            "unknown base design; POST it to /v1/predict first",
        ));
    };
    Ok((fingerprint, grid))
}

/// One parsed `deltas` array, split by kind.
pub(crate) struct Edits {
    /// `(node, amps)` pairs, applied to the load vector.
    pub(crate) currents: Vec<(usize, f64)>,
    /// Strap / via / segment resistance edits, applied in order.
    pub(crate) topology: Vec<TopologyDelta>,
}

impl Edits {
    pub(crate) fn len(&self) -> usize {
        self.currents.len() + self.topology.len()
    }
}

/// Parses a `deltas` array into [`Edits`], resolving node names
/// against the base grid. Each item selects its flavour with `kind`
/// (default `"current"`):
///
/// - `{"kind": "current", "node": 17 | "name": "...", "amps": 2e-3}`
/// - `{"kind": "strap", "layer": 1, "scale": 0.8}`
/// - `{"kind": "via", "layers": [1, 2], "scale": 1.5}`
/// - `{"kind": "segment", "segment": 42, "ohms": 0.35}`
///
/// A malformed item is a 400 `invalid_deltas`; a `kind` that is not a
/// string is a 400 `invalid_kind`.
pub(crate) fn parse_edits(deltas: Option<&Json>, grid: &PowerGrid) -> Result<Edits, ApiError> {
    let invalid = |message: String| ApiError::new(400, "invalid_deltas", message);
    let Some(Json::Arr(items)) = deltas else {
        return Err(invalid(
            "request needs deltas (an array of {kind?, node|name|layer|layers|segment, ...})"
                .to_string(),
        ));
    };
    let mut edits = Edits {
        currents: Vec::new(),
        topology: Vec::new(),
    };
    for (i, item) in items.iter().enumerate() {
        let kind = optional(item, "kind", "a string", Json::as_str)
            .map_err(|e| e.within(format_args!("deltas[{i}]")))?;
        parse_delta(i, kind.unwrap_or("current"), item, grid, &mut edits).map_err(invalid)?;
    }
    Ok(edits)
}

/// Appends `deltas[i]` (of `kind`) to `edits`, or says what is wrong
/// with it.
fn parse_delta(
    i: usize,
    kind: &str,
    item: &Json,
    grid: &PowerGrid,
    edits: &mut Edits,
) -> Result<(), String> {
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
    Ok(())
}

/// A layer number of `deltas[i]`, refused when it does not fit a
/// layer id (a wrapped `2^32 + 1` would silently edit `m1`).
fn layer_index(i: usize, layer: u64) -> Result<u32, String> {
    u32::try_from(layer).map_err(|_| format!("deltas[{i}]: layer {layer} is out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No request reaches a `FeatureError` (every grid that ingests has
    /// a pad), so its envelope is pinned here rather than in the
    /// error-corpus golden.
    #[test]
    fn a_feature_error_answers_its_pinned_envelope() {
        let error = ApiError::from(FeatureError::NoPads);
        assert_eq!(error.status, 400);
        assert_eq!(
            error.render(),
            r#"{"error":{"code":"feature_error","message":"cannot prepare features: grid has no power pads; pad-relative features are undefined","details":{}}}"#
        );
        assert_eq!(
            ApiError::feature("candidate x", &FeatureError::NoPads).render(),
            r#"{"error":{"code":"feature_error","message":"cannot prepare candidate x: grid has no power pads; pad-relative features are undefined","details":{}}}"#
        );
    }

    /// A present member of the wrong type is refused with its value; an
    /// absent one is `None`.
    #[test]
    fn a_mistyped_optional_member_is_refused_not_defaulted() {
        let body = crate::json::parse(r#"{"include_map":"yes","warm_start":false}"#).unwrap();
        assert_eq!(
            optional(&body, "warm_start", "a boolean", Json::as_bool).unwrap(),
            Some(false)
        );
        assert_eq!(
            optional(&body, "hotspot_threshold", "a number", Json::as_f64).unwrap(),
            None
        );
        let error = optional(&body, "include_map", "a boolean", Json::as_bool).unwrap_err();
        assert_eq!(error.status, 400);
        assert_eq!(
            error.render(),
            r#"{"error":{"code":"invalid_include_map","message":"include_map must be a boolean","details":{"value":"yes"}}}"#
        );
    }
}
