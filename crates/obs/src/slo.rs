//! Declared per-endpoint latency objectives.
//!
//! Each serving endpoint carries one objective — "a request should
//! finish within N seconds" — and the server turns that into SLO
//! accounting on `/metrics`: every request lands in the
//! `irf_http_request_seconds{endpoint=...}` histogram, and requests
//! over their objective bump
//! `irf_slo_breaches_total{endpoint=...}`. Burn rate is then a PromQL
//! one-liner: `rate(irf_slo_breaches_total[5m]) /
//! rate(irf_http_request_seconds_count[5m])`.
//!
//! Defaults reflect each endpoint's work (a `/healthz` probe has no
//! business taking 10 ms; an `/optimize` beam search legitimately
//! takes seconds) and can be overridden per endpoint with
//! `IRF_SLO_MS_<ENDPOINT>` (e.g. `IRF_SLO_MS_PREDICT=250`).

/// Every endpoint label the server reports, with its default
/// objective in seconds. `other` (unknown routes) gets the probe
/// budget — a 404 should be instant.
pub const ENDPOINTS: &[(&str, f64)] = &[
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
pub const LATENCY_BUCKETS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
];

/// The per-endpoint objectives in force.
#[derive(Debug, Clone)]
pub struct SloPolicy {
    objectives: Vec<(&'static str, f64)>,
}

impl SloPolicy {
    /// The built-in defaults from [`ENDPOINTS`].
    #[must_use]
    pub fn new() -> SloPolicy {
        SloPolicy {
            objectives: ENDPOINTS.to_vec(),
        }
    }

    /// Defaults with `IRF_SLO_MS_<ENDPOINT>` environment overrides
    /// applied (values in milliseconds; unparseable or non-positive
    /// values are ignored).
    #[must_use]
    pub fn from_env() -> SloPolicy {
        let mut policy = SloPolicy::new();
        for (endpoint, objective) in &mut policy.objectives {
            let var = format!("IRF_SLO_MS_{}", endpoint.to_ascii_uppercase());
            if let Some(ms) = std::env::var(var).ok().and_then(|s| s.parse::<f64>().ok()) {
                if ms.is_finite() && ms > 0.0 {
                    *objective = ms / 1000.0;
                }
            }
        }
        policy
    }

    /// The objective for `endpoint` in seconds (unknown endpoints get
    /// the `other` objective).
    #[must_use]
    pub fn objective_seconds(&self, endpoint: &str) -> f64 {
        self.objectives
            .iter()
            .find(|(e, _)| *e == endpoint)
            .or_else(|| self.objectives.iter().find(|(e, _)| *e == "other"))
            .map_or(1.0, |(_, o)| *o)
    }

    /// Every `(endpoint, objective_seconds)` pair, for zero-init and
    /// docs.
    #[must_use]
    pub fn endpoints(&self) -> &[(&'static str, f64)] {
        &self.objectives
    }
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_every_endpoint() {
        let policy = SloPolicy::new();
        assert_eq!(policy.objective_seconds("predict"), 0.5);
        assert_eq!(policy.objective_seconds("optimize"), 10.0);
        // Unknown endpoints fall back to the `other` objective.
        assert_eq!(
            policy.objective_seconds("nonexistent"),
            policy.objective_seconds("other")
        );
    }

    #[test]
    fn buckets_are_strictly_ascending() {
        assert!(LATENCY_BUCKETS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn env_override_applies() {
        // Process-wide env mutation: keep it scoped to a var no other
        // test reads, and restore after.
        std::env::set_var("IRF_SLO_MS_PREDICT", "250");
        std::env::set_var("IRF_SLO_MS_SWEEP", "garbage");
        let policy = SloPolicy::from_env();
        std::env::remove_var("IRF_SLO_MS_PREDICT");
        std::env::remove_var("IRF_SLO_MS_SWEEP");
        assert_eq!(policy.objective_seconds("predict"), 0.25);
        assert_eq!(policy.objective_seconds("sweep"), 2.0, "bad value ignored");
    }
}
