//! Benchmark harness regenerating every table and figure of the
//! IR-Fusion paper.
//!
//! Binaries (run with `--release`):
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `table1` | Table I — main results across all models |
//! | `fig6`   | Fig. 6 — golden / MAUnet / IR-Fusion drop maps (PGM + ASCII) |
//! | `fig7`   | Fig. 7 — accuracy-vs-iterations trade-off vs PowerRush |
//! | `fig8`   | Fig. 8 — ablation study |
//! | `scaling` | `--large N`: the prepare path from a file at 10^5–10^6 nodes under bounded memory, 1/2/4/8 threads |
//!
//! Every other performance number — per-workload end-to-end times and
//! the per-layer metrics behind Table I's runtime column — is recorded
//! by the repository's benchmark, `irf-benchmark` (`BENCHMARK.json`,
//! `benchmark/README.md`); `scaling` reports its per-thread timings in
//! that benchmark's metric names.

use irf_metrics::MetricReport;

/// Formats one Table-I-style row.
#[must_use]
pub fn format_row(name: &str, r: &MetricReport) -> String {
    format!(
        "{name:<16} | {:>8.3} | {:>6.3} | {:>9.4} | {:>8.3}",
        r.mae_e4(),
        r.f1,
        r.runtime_seconds,
        r.mirde_e4()
    )
}

/// Header matching [`format_row`].
#[must_use]
pub fn table_header() -> String {
    format!(
        "{:<16} | {:>8} | {:>6} | {:>9} | {:>8}\n{}",
        "Method",
        "MAE e-4",
        "F1",
        "Runtime s",
        "MIRDE e-4",
        "-".repeat(60)
    )
}

/// Parses the experiment scale from CLI args: `--tiny` selects the
/// smoke scale, anything else the paper-shaped scale.
#[must_use]
pub fn scale_from_args() -> ir_fusion::experiment::ExperimentScale {
    if std::env::args().any(|a| a == "--tiny") {
        ir_fusion::experiment::ExperimentScale::tiny()
    } else {
        ir_fusion::experiment::ExperimentScale::paper()
    }
}

/// The directory benchmark binaries write their artifacts (PGM / CSV /
/// JSON reports) into: `target/bench-out/`, created on first use so
/// outputs never land in the repository root.
///
/// # Panics
///
/// Panics when the directory cannot be created.
#[must_use]
pub fn bench_out(file: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("bench-out");
    std::fs::create_dir_all(&dir).expect("create target/bench-out");
    dir.join(file)
}

/// Peak resident set size of the current process in bytes — `VmHWM`,
/// through [`irf_trace::resident_memory`] — or `None` off Linux or when
/// procfs is unavailable. The kernel's high-water mark is monotone over
/// the process lifetime, so a phase that should demonstrate a memory
/// *bound* must be measured before any phase with a larger working
/// set runs.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    irf_trace::resident_memory().map(|m| m.peak_resident_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes().expect("procfs available");
        assert!(rss > 1024 * 1024, "implausible peak RSS: {rss} bytes");
    }

    #[test]
    fn row_formatting_is_stable() {
        let r = MetricReport {
            mae_volts: 0.72e-4,
            f1: 0.71,
            mirde_volts: 3.05e-4,
            cc: 0.9,
            runtime_seconds: 6.98,
        };
        let row = format_row("IR-Fusion", &r);
        assert!(row.contains("IR-Fusion"));
        assert!(row.contains("0.720"));
        assert!(row.contains("0.710"));
    }

    #[test]
    fn header_aligns_with_rows() {
        let header_cols = table_header().lines().next().unwrap().matches('|').count();
        let r = MetricReport::default();
        assert_eq!(header_cols, format_row("x", &r).matches('|').count());
    }
}
