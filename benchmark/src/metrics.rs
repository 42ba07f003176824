//! Every metric the benchmark reports, by name, with its unit and the
//! direction that counts as better. `BENCHMARK.json` lists the same
//! names; a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub type Spec = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The end-to-end metrics `BENCHMARK.json` holds a bound on; reported
/// by untraced runs.
pub const END_TO_END: [Spec; 4] = [
    ("setup_s", "s", Lower),
    ("op_cheap_min_s", "s", Lower),
    ("op_costly_min_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
];

/// What a user of the system sees, reported by untraced runs beside
/// the bounded metrics and not listed in `BENCHMARK.json`: on the
/// machine the bounds were measured on these move further between
/// runs of identical code than any bound a benchmark may carry.
pub const UNBOUNDED: [Spec; 3] = [
    ("op_p50_s", "s", Lower),
    ("op_tail_s", "s", Lower),
    ("ops_per_s", "1/s", Higher),
];

/// Single layers, measured from outside; reported by traced runs.
pub const PER_LAYER: [Spec; 56] = [
    ("spice.bytes", "B", Lower),
    ("spice.visit_s", "s", Lower),
    ("spice.mb_per_s", "MB/s", Higher),
    ("pg.nodes", "count", Lower),
    ("pg.nnz", "count", Lower),
    ("pg.ingest_s", "s", Lower),
    ("pg.assemble_s", "s", Lower),
    ("pg.rhs_s", "s", Lower),
    ("pg.restamp_s", "s", Lower),
    ("pg.restamp_ok_share", "share", Higher),
    ("sparse.amg_setup_s", "s", Lower),
    ("sparse.solve_s", "s", Lower),
    ("sparse.pcg_iterations", "count", Lower),
    ("sparse.solve_s_per_iter", "s", Lower),
    ("sparse.amg_levels", "count", Lower),
    ("sparse.operator_complexity", "ratio", Lower),
    ("sparse.rel_residual", "ratio", Lower),
    ("sparse.spmv_gbs", "GB/s", Higher),
    ("sparse.spmv_share_of_triad", "share", Higher),
    ("sparse.amg_rebuild_s", "s", Lower),
    ("features.geometry_s", "s", Lower),
    ("features.resistance_s", "s", Lower),
    ("features.stack_s", "s", Lower),
    ("nn.forward_s", "s", Lower),
    ("nn.forward_b4_s_per_sample", "s", Lower),
    ("nn.params", "count", Lower),
    ("core.fingerprint_s", "s", Lower),
    ("core.session_s", "s", Lower),
    ("core.store_hit_s", "s", Lower),
    ("core.stage_hits", "count", Higher),
    ("core.stage_misses", "count", Lower),
    ("core.stage_evictions", "count", Lower),
    ("core.unattributed_s", "s", Lower),
    ("serve.request_bytes", "B", Lower),
    ("serve.response_bytes", "B", Lower),
    ("serve.json_parse_s", "s", Lower),
    ("serve.healthz_s", "s", Lower),
    ("serve.hit_s", "s", Lower),
    ("serve.miss_s", "s", Lower),
    ("serve.whatif_s", "s", Lower),
    ("serve.overhead_s", "s", Lower),
    ("serve.batch_size_mean", "count", Higher),
    ("serve.queue_wait_s", "s", Lower),
    ("serve.cache_hit_share", "share", Higher),
    ("serve.rejected_429", "count", Lower),
    ("runtime.t2_op_s", "s", Lower),
    ("runtime.t2_speedup", "x", Higher),
    ("machine.triad_gbs", "GB/s", Higher),
    ("mem.rss_after_ingest_mb", "MB", Lower),
    ("mem.rss_after_assemble_mb", "MB", Lower),
    ("mem.rss_after_amg_setup_mb", "MB", Lower),
    ("mem.rss_after_solve_mb", "MB", Lower),
    ("mem.rss_after_features_mb", "MB", Lower),
    ("trace.spans", "count", Lower),
    ("trace.op_wall_s", "s", Lower),
    ("trace.overhead_pct", "%", Lower),
];

pub const WORKLOADS: [&str; 4] = ["cold_file", "whatif_edits", "solve_k24", "serve_predict"];

pub fn spec_of(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(&UNBOUNDED)
        .chain(&PER_LAYER)
        .find(|spec| spec.0 == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn listed(manifest: &Value, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<_> = table
                .iter()
                .map(|(n, u, b)| {
                    let better = if *b == Lower { "lower" } else { "higher" };
                    (n.to_string(), u.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed(&manifest, key), want, "{key}");
        }
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
