//! Response renderers: a prediction, a topology delta in the shape the
//! what-if endpoints accept, and a flight-recorder record with its span
//! tree.

use crate::json::{obj, Json};
use crate::recorder::{render_attr, RequestRecord};
use ir_fusion::TopologyDelta;
use irf_pg::{GridMap, PowerGrid};
use irf_trace::SpanTree;

/// Pixels of `map` at or over `threshold` volts (and over zero).
pub(crate) fn hotspot_count(map: &GridMap, threshold: f64) -> usize {
    map.data()
        .iter()
        .filter(|&&v| f64::from(v) >= threshold && v > 0.0)
        .count()
}

/// Renders a `/v1/predict` / `/v1/whatif` answer after the `extra`
/// members. `fingerprint` is the prepared stack's — the
/// [`ir_fusion::design_fingerprint`] of `grid`, already computed by the
/// preparation and the key the grid was registered under — so
/// rendering does not hash the grid again. `threshold` defaults to the
/// paper's 90 %-of-max rule.
pub(crate) fn render_prediction(
    grid: &PowerGrid,
    fingerprint: u64,
    map: &GridMap,
    source: &str,
    include_map: bool,
    threshold: Option<f64>,
    extra: Vec<(&'static str, Json)>,
) -> Json {
    let threshold = threshold.unwrap_or_else(|| f64::from(map.max()) * 0.9);
    let mut members = extra;
    members.extend(vec![
        ("design", Json::Str(format!("{fingerprint:016x}"))),
        ("source", Json::Str(source.to_string())),
        ("width", Json::Num(map.width() as f64)),
        ("height", Json::Num(map.height() as f64)),
        ("max_drop", Json::Num(f64::from(map.max()))),
        ("mean_drop", Json::Num(f64::from(map.mean()))),
        ("hotspot_threshold", Json::Num(threshold)),
        (
            "hotspot_count",
            Json::Num(hotspot_count(map, threshold) as f64),
        ),
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
    obj(members)
}

/// A [`TopologyDelta`] rendered in the same shape `/whatif` and
/// `/sweep` accept as input, so an `/optimize` winner's plan can be
/// replayed verbatim.
pub(crate) fn render_topology_delta(delta: &TopologyDelta) -> Json {
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

/// One flight-recorder record. The full record (`full`) adds the span
/// tree, when the request was slow enough to keep one, and the panic
/// message of a request that answered 500 `internal`.
pub(crate) fn render_request_record(record: &RequestRecord, full: bool) -> Json {
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
    if full {
        if let Some(spans) = &record.spans {
            members.push((
                "spans",
                Json::Arr(spans.iter().map(render_span_node).collect()),
            ));
        }
        if let Some(message) = &record.panic {
            members.push(("panic", Json::Str(message.clone())));
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
