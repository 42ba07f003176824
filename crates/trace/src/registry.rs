//! The unified metrics registry: counters, gauges, and histograms with
//! Prometheus text rendering.
//!
//! One process-global instance ([`registry()`]) is shared by every
//! layer of the stack — the sparse solver publishes
//! `irf_pcg_iterations` and `irf_amg_levels`, the pipeline publishes
//! `irf_stage_seconds_total{stage=...}`, and the inference server adds
//! its request/batch/cache series — so a single `GET /metrics` (or a
//! bench binary's `--metrics` dump) shows the whole pipeline.
//!
//! Metrics are identified by name plus an ordered label list. All
//! methods are thread-safe behind one mutex; observation rates in this
//! stack (per solve / per request, never per iteration of an inner
//! loop) are far below the contention regime where that would matter.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// What a metric family is, for the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing value.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative bucket histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Upper bucket bounds for histograms (exclusive of `+Inf`).
    buckets: Vec<f64>,
}

#[derive(Debug, Clone)]
enum Value {
    Scalar(f64),
    Histogram {
        /// One count per configured bucket bound.
        counts: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

type LabelSet = Vec<(String, String)>;

#[derive(Debug, Default)]
struct Inner {
    families: BTreeMap<String, Family>,
    values: BTreeMap<(String, LabelSet), Value>,
}

/// A registry of named metrics. Most code uses the process-global
/// [`registry()`]; tests that need isolation can construct their own.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

fn own_labels(labels: &[(&str, &str)]) -> LabelSet {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect()
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers help text and a type for a family. Optional — unseen
    /// families default to an empty help string and the kind implied
    /// by the first mutation — but described families render stable
    /// `# HELP` / `# TYPE` headers.
    pub fn describe(&self, name: &str, kind: MetricKind, help: &str) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.families.insert(
            name.to_string(),
            Family {
                kind,
                help: help.to_string(),
                buckets: Vec::new(),
            },
        );
    }

    /// Registers a histogram family with its upper bucket bounds
    /// (ascending; `+Inf` is implicit).
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty or not strictly ascending.
    pub fn describe_histogram(&self, name: &str, help: &str, buckets: &[f64]) {
        assert!(!buckets.is_empty(), "histogram needs at least one bucket");
        assert!(
            buckets.windows(2).all(|w| w[0] < w[1]),
            "histogram buckets must be strictly ascending"
        );
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.families.insert(
            name.to_string(),
            Family {
                kind: MetricKind::Histogram,
                help: help.to_string(),
                buckets: buckets.to_vec(),
            },
        );
    }

    fn scalar_op(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        default_kind: MetricKind,
        f: impl FnOnce(&mut f64),
    ) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if !inner.families.contains_key(name) {
            inner.families.insert(
                name.to_string(),
                Family {
                    kind: default_kind,
                    help: String::new(),
                    buckets: Vec::new(),
                },
            );
        }
        let key = (name.to_string(), own_labels(labels));
        let value = inner.values.entry(key).or_insert(Value::Scalar(0.0));
        if let Value::Scalar(v) = value {
            f(v);
        }
    }

    /// Adds `delta` to a counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: f64) {
        self.scalar_op(name, labels, MetricKind::Counter, |v| *v += delta);
    }

    /// Increments a counter by one — sugar for the common
    /// event-counting case (`irf_model_reloads_total`, ...).
    pub fn counter_inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.counter_add(name, labels, 1.0);
    }

    /// Sets a counter to an externally accumulated monotonic value
    /// (e.g. re-exporting an `AtomicU64` another subsystem owns).
    pub fn counter_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.scalar_op(name, labels, MetricKind::Counter, |v| *v = value);
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.scalar_op(name, labels, MetricKind::Gauge, |v| *v = value);
    }

    /// Records one observation into a histogram. The family should be
    /// registered with [`MetricsRegistry::describe_histogram`] first;
    /// otherwise a single-bucket histogram with bound `1.0` is
    /// created.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if !inner.families.contains_key(name) {
            inner.families.insert(
                name.to_string(),
                Family {
                    kind: MetricKind::Histogram,
                    help: String::new(),
                    buckets: vec![1.0],
                },
            );
        }
        let n_buckets = inner.families[name].buckets.len();
        let bucket = inner.families[name]
            .buckets
            .iter()
            .position(|&bound| value <= bound);
        let key = (name.to_string(), own_labels(labels));
        let entry = inner.values.entry(key).or_insert(Value::Histogram {
            counts: vec![0; n_buckets],
            sum: 0.0,
            count: 0,
        });
        if let Value::Histogram { counts, sum, count } = entry {
            if let Some(i) = bucket {
                counts[i] += 1;
            }
            *sum += value;
            *count += 1;
        }
    }

    /// Creates an empty series for a described histogram family so the
    /// exposition shows its zeroed buckets before the first
    /// observation (the histogram counterpart of
    /// `counter_add(..., 0.0)` zero-initialization). No-op if the
    /// series already exists or the family was never described.
    pub fn touch_histogram(&self, name: &str, labels: &[(&str, &str)]) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let Some(family) = inner.families.get(name) else {
            return;
        };
        if family.kind != MetricKind::Histogram {
            return;
        }
        let n_buckets = family.buckets.len();
        let key = (name.to_string(), own_labels(labels));
        inner.values.entry(key).or_insert(Value::Histogram {
            counts: vec![0; n_buckets],
            sum: 0.0,
            count: 0,
        });
    }

    /// Reads back a scalar (counter or gauge) value, or a histogram's
    /// total count. `None` when the series does not exist.
    #[must_use]
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let key = (name.to_string(), own_labels(labels));
        inner.values.get(&key).map(|v| match v {
            Value::Scalar(v) => *v,
            Value::Histogram { count, .. } => *count as f64,
        })
    }

    /// Renders the Prometheus text exposition format (version 0.0.4).
    /// Families and series render in lexicographic order, so output is
    /// deterministic for a given state.
    #[must_use]
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        let mut last_family = "";
        for ((name, labels), value) in &inner.values {
            let family = inner.families.get(name);
            if name != last_family {
                if let Some(f) = family {
                    if !f.help.is_empty() {
                        let _ = writeln!(out, "# HELP {name} {}", f.help);
                    }
                    let _ = writeln!(out, "# TYPE {name} {}", f.kind.as_str());
                }
                last_family = name;
            }
            match value {
                Value::Scalar(v) => {
                    let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                }
                Value::Histogram { counts, sum, count } => {
                    let bounds = family.map(|f| f.buckets.as_slice()).unwrap_or_default();
                    let mut cumulative = 0u64;
                    for (bound, n) in bounds.iter().zip(counts) {
                        cumulative += n;
                        let le = format!("{bound}");
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            render_labels(labels, Some(&le))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {count}",
                        render_labels(labels, Some("+Inf"))
                    );
                    let _ = writeln!(out, "{name}_sum{} {sum}", render_labels(labels, None));
                    let _ = writeln!(out, "{name}_count{} {count}", render_labels(labels, None));
                }
            }
        }
        out
    }
}

fn render_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// The process-global registry every subsystem publishes into.
#[must_use]
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let r = MetricsRegistry::new();
        r.describe(
            "irf_pcg_iterations_total",
            MetricKind::Counter,
            "Total PCG iterations.",
        );
        r.counter_add("irf_pcg_iterations_total", &[], 2.0);
        r.counter_add("irf_pcg_iterations_total", &[], 3.0);
        assert_eq!(r.get("irf_pcg_iterations_total", &[]), Some(5.0));
        let text = r.render();
        assert!(text.contains("# HELP irf_pcg_iterations_total Total PCG iterations."));
        assert!(text.contains("# TYPE irf_pcg_iterations_total counter"));
        assert!(text.contains("irf_pcg_iterations_total 5"));
    }

    #[test]
    fn labelled_series_are_independent_and_sorted() {
        let r = MetricsRegistry::new();
        r.counter_add("irf_stage_seconds_total", &[("stage", "solve")], 0.5);
        r.counter_add("irf_stage_seconds_total", &[("stage", "features")], 0.25);
        r.counter_add("irf_stage_seconds_total", &[("stage", "solve")], 0.25);
        let text = r.render();
        let features_at = text
            .find("irf_stage_seconds_total{stage=\"features\"} 0.25")
            .expect("features series");
        let solve_at = text
            .find("irf_stage_seconds_total{stage=\"solve\"} 0.75")
            .expect("solve series");
        assert!(features_at < solve_at, "series must render sorted");
    }

    #[test]
    fn gauges_overwrite() {
        let r = MetricsRegistry::new();
        r.gauge_set("irf_amg_levels", &[], 4.0);
        r.gauge_set("irf_amg_levels", &[], 3.0);
        assert_eq!(r.get("irf_amg_levels", &[]), Some(3.0));
        assert!(r.render().contains("irf_amg_levels 3"));
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let r = MetricsRegistry::new();
        r.describe_histogram("irf_chunk_size", "Batch sizes.", &[1.0, 2.0, 4.0]);
        r.observe("irf_chunk_size", &[], 1.0);
        r.observe("irf_chunk_size", &[], 2.0);
        r.observe("irf_chunk_size", &[], 9.0); // beyond last bound -> +Inf only
        let text = r.render();
        assert!(text.contains("irf_chunk_size_bucket{le=\"1\"} 1"));
        assert!(text.contains("irf_chunk_size_bucket{le=\"2\"} 2"));
        assert!(text.contains("irf_chunk_size_bucket{le=\"4\"} 2"));
        assert!(text.contains("irf_chunk_size_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("irf_chunk_size_sum 12"));
        assert!(text.contains("irf_chunk_size_count 3"));
        assert_eq!(r.get("irf_chunk_size", &[]), Some(3.0));
    }

    #[test]
    fn touch_histogram_exposes_zeroed_series() {
        let r = MetricsRegistry::new();
        r.describe_histogram("irf_http_request_seconds", "Latency.", &[0.1, 1.0]);
        r.touch_histogram("irf_http_request_seconds", &[("endpoint", "predict")]);
        // Undeclared family: silently ignored rather than inventing
        // bucketless garbage.
        r.touch_histogram("irf_undeclared_seconds", &[]);
        let text = r.render();
        assert!(text.contains("irf_http_request_seconds_bucket{endpoint=\"predict\",le=\"0.1\"} 0"));
        assert!(
            text.contains("irf_http_request_seconds_bucket{endpoint=\"predict\",le=\"+Inf\"} 0")
        );
        assert!(text.contains("irf_http_request_seconds_count{endpoint=\"predict\"} 0"));
        assert!(!text.contains("irf_undeclared_seconds"));
        // Observations after the touch land in the same series.
        r.observe("irf_http_request_seconds", &[("endpoint", "predict")], 0.05);
        assert!(r
            .render()
            .contains("irf_http_request_seconds_count{endpoint=\"predict\"} 1"));
    }

    #[test]
    fn counter_set_reexports_external_values() {
        let r = MetricsRegistry::new();
        r.counter_set("irf_cache_hits_total", &[], 7.0);
        r.counter_set("irf_cache_hits_total", &[], 9.0);
        assert_eq!(r.get("irf_cache_hits_total", &[]), Some(9.0));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.counter_add("irf_requests_total", &[("route", "a\"b\\c")], 1.0);
        assert!(r.render().contains("route=\"a\\\"b\\\\c\""));
    }

    #[test]
    fn global_registry_is_shared() {
        registry().counter_add("irf_registry_smoke_total", &[], 1.0);
        assert!(registry().get("irf_registry_smoke_total", &[]).is_some());
    }
}
