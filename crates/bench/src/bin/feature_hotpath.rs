//! Thread-scaling benchmark for the two trace-identified hot paths of
//! feature preparation: per-pad shortest-path effective resistance and
//! the chunked SPICE parse, each measured at 1, 2, 4, and 8 threads.
//!
//! ```bash
//! cargo run -p irf-bench --bin feature_hotpath --release -- [--tiny] [--json PATH]
//! ```
//!
//! Emits a human-readable table on stdout and, with `--json PATH`, a
//! machine-readable report (suitable for `BENCH_feature_hotpath.json`).
//! Both kernels are deterministic by construction — the shortest-path
//! fan-out folds per-pad partials in chunk order, the parallel parser
//! merges chunk results serially — so the checksum column must be
//! identical across thread counts and the benchmark fails otherwise.
//! Speedups are only meaningful on multi-core machines; on a single
//! core the checksum equality is still asserted.

use irf_data::synth::{synthesize, SynthSpec};
use irf_features::shortest_path::shortest_path_resistance_per_node;
use irf_pg::PowerGrid;
use std::time::Instant;

struct Measurement {
    kernel: &'static str,
    threads: usize,
    reps: usize,
    seconds: f64,
    throughput: f64, // kernel-specific unit per second
    checksum: u64,
}

fn checksum64(values: impl Iterator<Item = u64>) -> u64 {
    values.fold(0u64, |h, v| h.rotate_left(7) ^ v)
}

/// A many-pad synthetic grid: enough pads that the per-pad Dijkstra
/// fan-out spans several chunks, enough stripes that each pass is
/// non-trivial.
fn bench_spec(tiny: bool) -> SynthSpec {
    SynthSpec {
        m1_stripes: if tiny { 32 } else { 96 },
        m2_stripes: if tiny { 32 } else { 96 },
        m4_stripes: if tiny { 6 } else { 12 },
        pads: if tiny { 9 } else { 24 },
        stripe_jitter: 0.05,
        seed: 0xF0,
        ..SynthSpec::default()
    }
}

fn bench_shortest_path(grid: &PowerGrid, threads: usize, reps: usize) -> Measurement {
    irf_runtime::set_num_threads(threads);
    let mut values = shortest_path_resistance_per_node(grid).expect("grid has pads"); // warm up
    let start = Instant::now();
    for _ in 0..reps {
        values = shortest_path_resistance_per_node(grid).expect("grid has pads");
    }
    let seconds = start.elapsed().as_secs_f64();
    Measurement {
        kernel: "shortest_path",
        threads,
        reps,
        seconds,
        // pad-sourced Dijkstra passes per second.
        throughput: (grid.pads.len() * reps) as f64 / seconds,
        checksum: checksum64(values.iter().map(|v| v.to_bits())),
    }
}

fn bench_spice_parse(text: &str, threads: usize, reps: usize) -> Measurement {
    irf_runtime::set_num_threads(threads);
    let parse = || irf_spice::parse(text).expect("netlist parses");
    let mut netlist = parse(); // warm up
    let start = Instant::now();
    for _ in 0..reps {
        netlist = parse();
    }
    let seconds = start.elapsed().as_secs_f64();
    let checksum = checksum64(
        netlist
            .resistors()
            .iter()
            .map(|r| u64::from(r.a.0) ^ (u64::from(r.b.0) << 20) ^ r.ohms.to_bits())
            .chain(
                netlist
                    .current_sources()
                    .iter()
                    .map(|i| u64::from(i.from.0) ^ i.amps.to_bits()),
            ),
    );
    Measurement {
        kernel: "spice_parse",
        threads,
        reps,
        seconds,
        // source bytes parsed per second.
        throughput: (text.len() * reps) as f64 / seconds,
        checksum,
    }
}

fn json_report(rows: &[Measurement], nodes: usize, pads: usize, source_bytes: usize) -> String {
    let mut out = String::from("{\n  \"benchmark\": \"feature-hotpath\",\n");
    out.push_str(&format!(
        "  \"grid_nodes\": {nodes},\n  \"pads\": {pads},\n  \"source_bytes\": {source_bytes},\n  \"results\": [\n"
    ));
    for (i, m) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"threads\": {}, \"reps\": {}, \
             \"seconds\": {:.6}, \"throughput_per_s\": {:.1}, \"checksum\": \"{:016x}\"}}{}\n",
            m.kernel,
            m.threads,
            m.reps,
            m.seconds,
            m.throughput,
            m.checksum,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let json_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--json")
            .and_then(|i| args.get(i + 1).cloned())
    };

    let spec = bench_spec(tiny);
    let netlist = synthesize(&spec);
    let text = irf_spice::write(&netlist);
    let grid = PowerGrid::from_netlist(&netlist).expect("valid grid");
    let (sp_reps, parse_reps) = if tiny { (3, 10) } else { (5, 20) };
    println!(
        "feature-hotpath: shortest_path on {} nodes / {} pads, spice_parse on {} KiB",
        grid.nodes.len(),
        grid.pads.len(),
        text.len() / 1024
    );
    println!(
        "{:>14} | {:>7} | {:>9} | {:>14} | {:>8} | {:>16}",
        "kernel", "threads", "seconds", "throughput/s", "speedup", "checksum"
    );
    println!("{}", "-".repeat(84));

    let mut rows = Vec::new();
    let mut base = 0.0;
    for &threads in &[1usize, 2, 4, 8] {
        let m = bench_shortest_path(&grid, threads, sp_reps);
        if threads == 1 {
            base = m.throughput;
        }
        println!(
            "{:>14} | {:>7} | {:>9.4} | {:>14.1} | {:>7.2}x | {:016x}",
            m.kernel,
            m.threads,
            m.seconds,
            m.throughput,
            m.throughput / base,
            m.checksum
        );
        rows.push(m);
    }
    let sp_checksums: Vec<u64> = rows.iter().map(|m| m.checksum).collect();
    assert!(
        sp_checksums.windows(2).all(|w| w[0] == w[1]),
        "shortest-path results are not deterministic across thread counts"
    );

    for &threads in &[1usize, 2, 4, 8] {
        let m = bench_spice_parse(&text, threads, parse_reps);
        if threads == 1 {
            base = m.throughput;
        }
        println!(
            "{:>14} | {:>7} | {:>9.4} | {:>14.1} | {:>7.2}x | {:016x}",
            m.kernel,
            m.threads,
            m.seconds,
            m.throughput,
            m.throughput / base,
            m.checksum
        );
        rows.push(m);
    }
    let parse_checksums: Vec<u64> = rows[4..].iter().map(|m| m.checksum).collect();
    assert!(
        parse_checksums.windows(2).all(|w| w[0] == w[1]),
        "spice-parse results are not deterministic across thread counts"
    );

    irf_runtime::set_num_threads(0);
    let report = json_report(&rows, grid.nodes.len(), grid.pads.len(), text.len());
    if let Some(path) = json_path {
        std::fs::write(&path, &report).expect("write JSON report");
        println!("\nwrote {path}");
    } else {
        println!("\n{report}");
    }
}
