//! Server observability: a facade over the unified
//! [`irf_trace::MetricsRegistry`], and the per-endpoint latency
//! objectives it accounts requests against.
//!
//! The server publishes its request/stage series into the same
//! process-global registry the solver and pipeline publish into, so a
//! single `GET /v1/metrics` exposes the whole stack: request counts by
//! route and status, per-stage latency
//! accumulators, the feature-cache counters, *and* pipeline internals
//! (`irf_pcg_iterations`, `irf_amg_levels`,
//! `irf_stage_seconds_total{stage="pcg_solve"}`, ...).
//!
//! Each endpoint carries one fixed objective — "a request should
//! finish within N seconds" (`ENDPOINTS`) — and every request lands
//! in the `irf_http_request_seconds{endpoint=...}` histogram, while
//! requests over their objective bump
//! `irf_slo_breaches_total{endpoint=...}`. Burn rate is then a PromQL
//! one-liner: `rate(irf_slo_breaches_total[5m]) /
//! rate(irf_http_request_seconds_count[5m])`.

use ir_fusion::{Stage, StageStore};
use irf_trace::{MetricKind, MetricsRegistry};

/// Every endpoint label the server reports, with its latency objective
/// in seconds. The objectives reflect each endpoint's work (a
/// `/healthz` probe has no business taking 10 ms; an `/optimize` beam
/// search legitimately takes seconds). `other` (unknown routes) gets
/// the probe budget — a 404 should be instant.
pub(crate) const ENDPOINTS: &[(&str, f64)] = &[
    ("healthz", 0.010),
    ("metrics", 0.050),
    ("debug", 0.050),
    ("predict", 0.500),
    ("whatif", 0.500),
    ("sweep", 2.000),
    ("optimize", 10.000),
    ("reload", 1.000),
    ("models", 0.050),
    ("shutdown", 0.050),
    ("other", 0.010),
];

/// Latency histogram bucket bounds (seconds) shared by every
/// `irf_http_request_seconds` series: log-spaced from 1 ms to 30 s so
/// both a `/healthz` probe and an `/optimize` run resolve.
const LATENCY_BUCKETS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
];

/// The objective for `endpoint` in seconds (unknown endpoints get the
/// `other` objective).
#[must_use]
pub(crate) fn objective_seconds(endpoint: &str) -> f64 {
    let lookup = |name: &str| ENDPOINTS.iter().find(|(e, _)| *e == name).map(|(_, o)| *o);
    lookup(endpoint)
        .or_else(|| lookup("other"))
        .expect("`other` is in ENDPOINTS")
}

/// Server metrics facade. All methods are thread-safe; request rates
/// are far below the contention regime where the registry's mutex
/// would matter.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: &'static MetricsRegistry,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Creates a facade over the process-global registry.
    #[must_use]
    pub fn new() -> Self {
        ServerMetrics::with_registry(irf_trace::registry())
    }

    /// Creates a facade over `registry` — the process-global one in
    /// production; tests that must not observe series published by
    /// other servers in the process pass an isolated (leaked) one.
    #[must_use]
    pub fn with_registry(registry: &'static MetricsRegistry) -> Self {
        let m = ServerMetrics { registry };
        m.describe_families();
        m
    }

    fn describe_families(&self) {
        let r = self.registry;
        r.describe(
            "irf_requests_total",
            MetricKind::Counter,
            "Finished HTTP requests by route and status.",
        );
        r.describe(
            "irf_stage_seconds_total",
            MetricKind::Counter,
            "Cumulative latency per pipeline stage.",
        );
        r.describe(
            "irf_stage_requests_total",
            MetricKind::Counter,
            "Observations per pipeline stage.",
        );
        r.describe(
            "irf_cache_hits_total",
            MetricKind::Counter,
            "Stage-store hits across all stages.",
        );
        r.describe(
            "irf_cache_misses_total",
            MetricKind::Counter,
            "Stage-store misses across all stages.",
        );
        r.describe(
            "irf_cache_singleflight_total",
            MetricKind::Counter,
            "Stage computations saved by single-flighting concurrent misses.",
        );
        r.describe(
            "irf_cache_hit_rate",
            MetricKind::Gauge,
            "Stage-store hit fraction across all stages.",
        );
        r.describe(
            "irf_cache_entries",
            MetricKind::Gauge,
            "Cached stage artifacts.",
        );
        r.describe(
            "irf_stage_cache_events_total",
            MetricKind::Counter,
            "Stage-store events (hit/miss/coalesced/eviction) by pipeline stage.",
        );
        r.describe(
            "irf_process_resident_bytes",
            MetricKind::Gauge,
            "Resident set size of the server process (VmRSS), read at scrape time.",
        );
        r.describe(
            "irf_process_peak_resident_bytes",
            MetricKind::Gauge,
            "Peak resident set size of the server process (VmHWM), read at scrape time.",
        );
        r.describe(
            "irf_model_reloads_total",
            MetricKind::Counter,
            "Successful checkpoint reloads via POST /v1/models/{name}/reload.",
        );
        // Zero-initialize so the series is scrapeable before the first
        // reload (and CI can grep for it unconditionally).
        r.counter_add("irf_model_reloads_total", &[], 0.0);
        r.describe(
            "irf_sweep_candidates_total",
            MetricKind::Counter,
            "Candidate plans evaluated across all POST /v1/sweep calls.",
        );
        r.counter_add("irf_sweep_candidates_total", &[], 0.0);
        r.describe(
            "irf_opt_iterations_total",
            MetricKind::Counter,
            "Optimizer loop iterations across all POST /v1/optimize calls.",
        );
        r.counter_add("irf_opt_iterations_total", &[], 0.0);
        r.describe(
            "irf_opt_evaluations_total",
            MetricKind::Counter,
            "Candidate analyses evaluated across all POST /v1/optimize calls.",
        );
        r.counter_add("irf_opt_evaluations_total", &[], 0.0);
        r.describe(
            "irf_model_registry_models",
            MetricKind::Gauge,
            "Models currently loaded in the registry.",
        );
        r.gauge_set("irf_model_registry_models", &[], 0.0);
        r.describe_histogram(
            "irf_http_request_seconds",
            "End-to-end request latency by endpoint.",
            LATENCY_BUCKETS,
        );
        r.describe(
            "irf_slo_breaches_total",
            MetricKind::Counter,
            "Requests that finished over their endpoint's latency objective.",
        );
        r.describe(
            "irf_slo_objective_seconds",
            MetricKind::Gauge,
            "Declared latency objective per endpoint.",
        );
        r.describe(
            "irf_pcg_iterations",
            MetricKind::Gauge,
            "PCG iterations of the most recent solve.",
        );
        r.describe(
            "irf_pcg_iterations_total",
            MetricKind::Counter,
            "Total PCG iterations across all solves.",
        );
        r.describe(
            "irf_amg_levels",
            MetricKind::Gauge,
            "AMG hierarchy levels of the most recent setup.",
        );
        r.describe(
            "irf_tile_tables_built_total",
            MetricKind::Counter,
            "Per-design rasterization tables built (tile table, conductance shares).",
        );
        r.describe(
            "irf_amg_operator_complexity",
            MetricKind::Gauge,
            "AMG operator complexity of the most recent setup.",
        );
    }

    /// Zero-initializes the per-endpoint SLO series so every endpoint
    /// is scrapeable (with zeroed buckets and breach counters) from
    /// the first `/v1/metrics` render, and publishes each objective as
    /// a gauge.
    pub fn init_http(&self) {
        let r = self.registry;
        for (endpoint, objective) in ENDPOINTS {
            let labels = [("endpoint", *endpoint)];
            r.touch_histogram("irf_http_request_seconds", &labels);
            r.counter_add("irf_slo_breaches_total", &labels, 0.0);
            r.gauge_set("irf_slo_objective_seconds", &labels, *objective);
        }
    }

    /// Records one finished request's end-to-end latency against its
    /// endpoint's SLO.
    pub fn observe_http(&self, endpoint: &'static str, seconds: f64, breached: bool) {
        let r = self.registry;
        let labels = [("endpoint", endpoint)];
        r.observe("irf_http_request_seconds", &labels, seconds);
        if breached {
            r.counter_inc("irf_slo_breaches_total", &labels);
        }
    }

    /// Counts one finished request.
    pub fn observe_request(&self, route: &str, status: u16) {
        self.registry.counter_add(
            "irf_requests_total",
            &[("route", route), ("status", &status.to_string())],
            1.0,
        );
    }

    /// Counts one successful model reload.
    pub fn observe_reload(&self) {
        self.registry.counter_inc("irf_model_reloads_total", &[]);
    }

    /// Publishes the number of models loaded in the registry.
    pub fn set_registry_models(&self, count: usize) {
        self.registry
            .gauge_set("irf_model_registry_models", &[], count as f64);
    }

    /// Counts the candidate plans of one finished `/sweep`.
    pub fn observe_sweep_candidates(&self, count: usize) {
        self.registry
            .counter_add("irf_sweep_candidates_total", &[], count as f64);
    }

    /// Counts one finished `/optimize` run's loop work.
    pub fn observe_optimize(&self, iterations: usize, evaluations: usize) {
        let r = self.registry;
        r.counter_add("irf_opt_iterations_total", &[], iterations as f64);
        r.counter_add("irf_opt_evaluations_total", &[], evaluations as f64);
    }

    /// Sets the process's resident and peak resident bytes from
    /// `/proc/self/status`; the `/v1/metrics` handler calls it before
    /// each render, so the two gauges are read at scrape time. Where
    /// the file is absent the gauges are left out.
    pub fn observe_process_memory(&self) {
        if let Some(memory) = irf_trace::resident_memory() {
            let r = self.registry;
            r.gauge_set(
                "irf_process_resident_bytes",
                &[],
                memory.resident_bytes as f64,
            );
            r.gauge_set(
                "irf_process_peak_resident_bytes",
                &[],
                memory.peak_resident_bytes as f64,
            );
        }
    }

    /// Accumulates `seconds` of latency under a stage label
    /// (`parse`, `prepare`, `infer`, `forward`, ...).
    pub fn observe_stage(&self, stage: &'static str, seconds: f64) {
        let r = self.registry;
        r.counter_add("irf_stage_seconds_total", &[("stage", stage)], seconds);
        r.counter_add("irf_stage_requests_total", &[("stage", stage)], 1.0);
    }

    /// Renders the Prometheus text exposition, folding in the stage
    /// store's counters — both the aggregate `irf_cache_*` series and
    /// the per-stage `irf_stage_cache_events_total` breakdown that
    /// makes warm what-if reuse visible (assembled / solver-setup /
    /// structural hits climbing while rough / stack miss). Because
    /// every subsystem shares the registry, the output also carries
    /// solver telemetry published outside the server (PCG iterations,
    /// AMG hierarchy stats, per-stage solver seconds).
    #[must_use]
    pub fn render(&self, cache: &StageStore) -> String {
        let r = self.registry;
        r.counter_set("irf_cache_hits_total", &[], cache.hits() as f64);
        r.counter_set("irf_cache_misses_total", &[], cache.misses() as f64);
        r.counter_set(
            "irf_cache_singleflight_total",
            &[],
            cache.coalesced() as f64,
        );
        r.gauge_set("irf_cache_hit_rate", &[], cache.hit_rate());
        r.gauge_set("irf_cache_entries", &[], cache.len() as f64);
        for stage in Stage::ALL {
            let c = cache.stage_counters(stage);
            for (event, value) in [
                ("hit", c.hits),
                ("miss", c.misses),
                ("coalesced", c.coalesced),
                ("eviction", c.evictions),
            ] {
                r.counter_set(
                    "irf_stage_cache_events_total",
                    &[("stage", stage.label()), ("event", event)],
                    value as f64,
                );
            }
        }
        r.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isolated() -> ServerMetrics {
        ServerMetrics::with_registry(Box::leak(Box::new(MetricsRegistry::new())))
    }

    #[test]
    fn defaults_cover_every_endpoint() {
        assert_eq!(objective_seconds("predict"), 0.5);
        assert_eq!(objective_seconds("optimize"), 10.0);
        // Unknown endpoints fall back to the `other` objective.
        assert_eq!(objective_seconds("nonexistent"), objective_seconds("other"));
    }

    #[test]
    fn buckets_are_strictly_ascending() {
        assert!(LATENCY_BUCKETS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let m = isolated();
        m.observe_request("predict", 200);
        m.observe_request("predict", 200);
        m.observe_request("healthz", 200);
        m.observe_request("predict", 404);
        m.observe_stage("prepare", 0.5);
        m.observe_stage("prepare", 0.25);
        let cache = StageStore::new(4);
        assert!(cache.get(Stage::Stack, 1).is_none()); // one recorded miss
        let text = m.render(&cache);
        assert!(text.contains("irf_requests_total{route=\"predict\",status=\"200\"} 2"));
        assert!(text.contains("irf_stage_cache_events_total{stage=\"stack\",event=\"miss\"} 1"));
        assert!(
            text.contains("irf_stage_cache_events_total{stage=\"solver_setup\",event=\"hit\"} 0")
        );
        assert!(text.contains("irf_cache_misses_total 1"));
        assert!(text.contains("irf_requests_total{route=\"predict\",status=\"404\"} 1"));
        assert!(text.contains("irf_stage_seconds_total{stage=\"prepare\"} 0.75"));
        assert!(text.contains("irf_stage_requests_total{stage=\"prepare\"} 2"));
        assert!(text.contains("irf_cache_hits_total 0"));
        assert!(text.contains("irf_cache_singleflight_total 0"));
        assert_eq!(text, m.render(&cache), "render must be stable");
    }

    #[test]
    fn reload_counter_starts_at_zero_and_increments() {
        let m = isolated();
        let cache = StageStore::new(1);
        assert!(m.render(&cache).contains("irf_model_reloads_total 0"));
        m.observe_reload();
        m.observe_reload();
        assert!(m.render(&cache).contains("irf_model_reloads_total 2"));
    }

    #[test]
    fn instance_registries_are_isolated() {
        let a = isolated();
        let b = isolated();
        a.observe_request("predict", 200);
        let cache = StageStore::new(1);
        assert!(a.render(&cache).contains("irf_requests_total"));
        assert!(!b.render(&cache).contains("route=\"predict\""));
    }

    #[test]
    fn http_slo_series_start_zeroed_and_accumulate() {
        let m = isolated();
        m.init_http();
        let cache = StageStore::new(1);
        let text = m.render(&cache);
        assert!(
            text.contains("irf_http_request_seconds_bucket{endpoint=\"predict\",le=\"+Inf\"} 0"),
            "every endpoint must be scrapeable before traffic"
        );
        assert!(text.contains("irf_slo_breaches_total{endpoint=\"predict\"} 0"));
        assert!(text.contains("irf_slo_breaches_total{endpoint=\"healthz\"} 0"));
        assert!(text.contains("irf_slo_objective_seconds{endpoint=\"predict\"} 0.5"));
        m.observe_http("predict", 0.3, false);
        m.observe_http("predict", 0.7, true);
        let text = m.render(&cache);
        assert!(text.contains("irf_http_request_seconds_count{endpoint=\"predict\"} 2"));
        assert!(text.contains("irf_slo_breaches_total{endpoint=\"predict\"} 1"));
    }

    #[test]
    fn new_series_start_zeroed_and_accumulate() {
        let m = isolated();
        let cache = StageStore::new(1);
        let text = m.render(&cache);
        assert!(text.contains("irf_model_registry_models 0"));
        m.set_registry_models(2);
        let text = m.render(&cache);
        assert!(text.contains("irf_model_registry_models 2"));
    }

    #[test]
    fn rendered_exposition_passes_promlint() {
        let m = isolated();
        m.init_http();
        m.observe_request("predict", 200);
        m.observe_request("healthz", 200);
        m.observe_stage("prepare", 0.5);
        m.observe_http("predict", 0.3, false);
        m.observe_http("optimize", 11.0, true);
        let cache = StageStore::new(4);
        assert!(cache.get(Stage::Stack, 1).is_none());
        let problems = crate::promlint::lint(&m.render(&cache));
        assert!(problems.is_empty(), "promlint: {problems:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn process_memory_gauges_are_read_at_scrape_time() {
        let m = isolated();
        let cache = StageStore::new(1);
        assert!(!m.render(&cache).contains("irf_process_resident_bytes "));
        m.observe_process_memory();
        let text = m.render(&cache);
        for name in [
            "irf_process_resident_bytes",
            "irf_process_peak_resident_bytes",
        ] {
            assert!(text.contains(&format!("# TYPE {name} gauge")), "{name}");
            let value: f64 = text
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name} ")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} has no sample"));
            assert!(value > 0.0, "{name} = {value}");
        }
        let problems = crate::promlint::lint(&text);
        assert!(problems.is_empty(), "promlint: {problems:?}");
    }

    #[test]
    fn global_facade_sees_solver_series() {
        // ServerMetrics::new publishes into the process-global
        // registry, which is where the sparse solver publishes its
        // telemetry — the families must at least be describable
        // side by side.
        let m = ServerMetrics::new();
        irf_trace::registry().gauge_set("irf_pcg_iterations", &[], 3.0);
        let cache = StageStore::new(1);
        let text = m.render(&cache);
        assert!(text.contains("irf_pcg_iterations 3"));
    }
}
