//! Bounded-memory large-grid leg: the whole prepare path on a scaled
//! synthetic design, from a file on disk, at 1, 2, 4, and 8 threads.
//!
//! ```bash
//! cargo run -p irf-bench --bin scaling --release -- --large [NODES] [--json PATH]
//! ```
//!
//! A design of roughly `NODES` nodes (10^6 when the value is omitted)
//! is streamed to disk ([`irf_data::synthesize_to_path`]), then for
//! each thread count the full prepare path runs from the file —
//! streaming ingest ([`irf_pg::grid_from_spice_path`]), two-pass MNA
//! assembly, AMG setup, and a truncated rough solve — with `VmHWM`
//! peak-RSS recorded after each pass (the high-water mark is monotone,
//! so the last row is the whole sweep's peak). Matrix and solution
//! checksums must be bitwise identical across thread counts.
//!
//! Per-thread timings carry the benchmark's metric names
//! (`pg.ingest_s`, `pg.assemble_s`, `sparse.amg_setup_s`,
//! `sparse.solve_s`, `sparse.pcg_iterations`), so this report and an
//! `irf-benchmark --trace` run read alike. Kernel thread scaling is
//! not measured here: it is `runtime.t2_speedup` and `sparse.spmv_gbs`
//! in the benchmark, and the kernels' bitwise thread-count checks are
//! in `tests/integration_determinism.rs`.
//!
//! Flags are parsed strictly: `--large` is required, a value that is
//! not a node count of at least 8, a `--json` without a path, or any
//! other argument prints a usage line and exits 2.

use irf_sparse::{CsrMatrix, Solver, SolverKind};
use std::time::Instant;

const USAGE: &str = "usage: scaling --large [NODES] [--json PATH]  (NODES >= 8, default 1000000)";

/// The node count a bare `--large` asks for.
const DEFAULT_NODES: usize = 1_000_000;

#[derive(Debug, PartialEq)]
struct Args {
    target_nodes: usize,
    json_path: Option<String>,
}

/// Parses the arguments after the program name, or says what is wrong
/// with them.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut target_nodes = None;
    let mut json_path = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        // A flag's value is the next argument unless that is a flag.
        let mut value = || it.next_if(|v| !v.starts_with("--"));
        match flag.as_str() {
            "--large" => {
                target_nodes = Some(match value() {
                    None => DEFAULT_NODES,
                    Some(v) => match v.parse::<usize>() {
                        Ok(n) if n >= 8 => n,
                        _ => return Err(format!("--large wants a node count >= 8, got {v:?}")),
                    },
                });
            }
            "--json" => {
                json_path = Some(value().ok_or("--json wants a path")?.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        target_nodes: target_nodes.ok_or("--large is required")?,
        json_path,
    })
}

fn bits_checksum<'a>(vals: impl Iterator<Item = &'a f64>) -> u64 {
    vals.fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits())
}

fn matrix_checksum(a: &CsrMatrix) -> u64 {
    let structure = a
        .row_ptr()
        .iter()
        .chain(a.col_idx())
        .fold(0u64, |h, &v| h.rotate_left(7) ^ v as u64);
    structure.rotate_left(13) ^ bits_checksum(a.values().iter())
}

struct LargeRun {
    threads: usize,
    ingest_s: f64,
    assemble_s: f64,
    amg_setup_s: f64,
    solve_s: f64,
    pcg_iterations: usize,
    matrix_checksum: u64,
    solution_checksum: u64,
    peak_rss_mb: f64,
    grid_nodes: usize,
    unknowns: usize,
    nnz: usize,
}

/// One streaming end-to-end pass at a fixed thread count: file →
/// grid → reduced system → AMG setup → truncated rough solve.
fn large_pass(path: &std::path::Path, threads: usize) -> LargeRun {
    irf_runtime::set_num_threads(threads);
    let start = Instant::now();
    let grid = irf_pg::grid_from_spice_path(path).expect("streaming ingest");
    let ingest_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let system = irf_pg::PgSystem::try_build(&grid).expect("assembly");
    let assemble_s = start.elapsed().as_secs_f64();
    let grid_nodes = grid.nodes.len();
    drop(grid);

    let start = Instant::now();
    let setup = Solver::new(SolverKind::AmgPcg).prepare(&system.matrix);
    let amg_setup_s = start.elapsed().as_secs_f64();

    // Rough solve: the fusion pipeline's "early truncation" regime.
    let report = setup
        .with_stopping(1e-3, 24)
        .solve(&system.matrix, &system.rhs);
    let peak = irf_bench::peak_rss_bytes().unwrap_or(0);
    LargeRun {
        threads,
        ingest_s,
        assemble_s,
        amg_setup_s,
        solve_s: report.solve_seconds,
        pcg_iterations: report.iterations,
        matrix_checksum: matrix_checksum(&system.matrix),
        solution_checksum: bits_checksum(report.x.iter()),
        peak_rss_mb: peak as f64 / (1024.0 * 1024.0),
        grid_nodes,
        unknowns: system.matrix.rows(),
        nnz: system.matrix.nnz(),
    }
}

fn run_large(target_nodes: usize, json_path: Option<String>) {
    let spec = irf_data::SynthSpec::scaled_to_nodes(target_nodes, 42);
    let approx = irf_data::approx_node_count(&spec);
    let path = irf_bench::bench_out("large_grid.sp");
    println!("large-grid: target {target_nodes} nodes (approx {approx}), streaming to {path:?}");

    let start = Instant::now();
    irf_data::synthesize_to_path(&spec, &path).expect("synthesize to file");
    let synth_seconds = start.elapsed().as_secs_f64();
    let netlist_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    println!(
        "synthesized {:.1} MiB in {synth_seconds:.2}s",
        netlist_bytes as f64 / (1024.0 * 1024.0)
    );

    println!(
        "{:>7} | {:>8} | {:>8} | {:>8} | {:>8} | {:>4} | {:>16} | {:>9}",
        "threads", "ingest_s", "asm_s", "amg_s", "solve_s", "it", "solution", "peakRSS"
    );
    println!("{}", "-".repeat(88));
    let mut runs = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let run = large_pass(&path, threads);
        println!(
            "{:>7} | {:>8.2} | {:>8.2} | {:>8.2} | {:>8.2} | {:>4} | {:016x} | {:>7.1}MB",
            run.threads,
            run.ingest_s,
            run.assemble_s,
            run.amg_setup_s,
            run.solve_s,
            run.pcg_iterations,
            run.solution_checksum,
            run.peak_rss_mb
        );
        runs.push(run);
    }
    assert!(
        runs.windows(2)
            .all(|w| w[0].matrix_checksum == w[1].matrix_checksum
                && w[0].solution_checksum == w[1].solution_checksum),
        "large-grid results are not deterministic across thread counts"
    );
    let streaming_peak_mb = runs.last().map_or(0.0, |r| r.peak_rss_mb);

    irf_runtime::set_num_threads(0);
    let mut out = String::from("{\n  \"benchmark\": \"large-grid-scaling\",\n");
    out.push_str(&format!(
        "  \"target_nodes\": {target_nodes},\n  \"grid_nodes\": {},\n  \"unknowns\": {},\n  \
         \"nnz\": {},\n  \"netlist_bytes\": {netlist_bytes},\n  \
         \"synth_seconds\": {synth_seconds:.3},\n  \"results\": [\n",
        runs[0].grid_nodes, runs[0].unknowns, runs[0].nnz,
    ));
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"pg.ingest_s\": {:.3}, \"pg.assemble_s\": {:.3}, \
             \"sparse.amg_setup_s\": {:.3}, \"sparse.solve_s\": {:.3}, \
             \"sparse.pcg_iterations\": {}, \
             \"matrix_checksum\": \"{:016x}\", \"solution_checksum\": \"{:016x}\", \
             \"peak_rss_mb\": {:.1}}}{}\n",
            r.threads,
            r.ingest_s,
            r.assemble_s,
            r.amg_setup_s,
            r.solve_s,
            r.pcg_iterations,
            r.matrix_checksum,
            r.solution_checksum,
            r.peak_rss_mb,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"streaming_peak_rss_mb\": {streaming_peak_mb:.1}\n}}\n"
    ));
    if let Some(path) = json_path {
        std::fs::write(&path, &out).expect("write JSON report");
        println!("\nwrote {path}");
    } else {
        println!("\n{out}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(args) => run_large(args.target_nodes, args.json_path),
        Err(why) => {
            eprintln!("scaling: {why}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| (*a).to_string()).collect::<Vec<_>>())
    }

    fn args(target_nodes: usize, json_path: Option<&str>) -> Args {
        Args {
            target_nodes,
            json_path: json_path.map(str::to_string),
        }
    }

    #[test]
    fn a_node_count_and_a_path_are_taken_as_given() {
        assert_eq!(parse(&["--large", "150000"]), Ok(args(150_000, None)));
        assert_eq!(
            parse(&["--large", "150000", "--json", "r.json"]),
            Ok(args(150_000, Some("r.json")))
        );
        assert_eq!(
            parse(&["--json", "r.json", "--large", "8"]),
            Ok(args(8, Some("r.json")))
        );
    }

    #[test]
    fn a_bare_large_means_a_million_nodes() {
        assert_eq!(parse(&["--large"]), Ok(args(DEFAULT_NODES, None)));
        assert_eq!(
            parse(&["--large", "--json", "r.json"]),
            Ok(args(DEFAULT_NODES, Some("r.json")))
        );
    }

    #[test]
    fn garbage_is_refused_not_defaulted() {
        for bad in [
            &["--large", "2e5"][..],
            &["--large", "150k"],
            &["--large", "-5"],
            &["--large", "7"],
            &["--large", "150000", "--json"],
            &["--json", "--large", "150000"],
            &["--large", "150000", "--tiny"],
            &["--large", "150000", "extra"],
            &["--json", "r.json"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
