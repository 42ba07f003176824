//! Analyze a SPICE power-grid netlist from disk (or a built-in demo
//! design) and write the IR-drop maps as PGM images.
//!
//! ```bash
//! cargo run --example analyze_design --release -- path/to/design.sp
//! # with a Chrome/Perfetto trace of the whole analysis:
//! cargo run --example analyze_design --release -- --trace trace.json
//! ```
//!
//! `--trace OUT.json` records every pipeline span (SPICE parse, MNA
//! assembly, AMG setup, PCG solve, feature rasterization) into a
//! Chrome trace-event file loadable at <https://ui.perfetto.dev>, and
//! prints the aggregated self-profile tree.

use ir_fusion::{FusionConfig, IrFusionPipeline};
use irf_data::{synthesize_to_string, SynthSpec};
use irf_pg::{grid_from_spice_path, grid_from_spice_reader};
use std::fs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_out: Option<String> = None;
    let mut netlist_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => {
                trace_out = Some(args.next().ok_or("--trace needs an output path")?);
            }
            _ => netlist_path = Some(arg),
        }
    }
    let collector = if trace_out.is_some() {
        Some(
            irf_trace::Collector::install()
                .ok_or("another trace collector is already installed")?,
        )
    } else {
        None
    };
    let grid = match netlist_path {
        Some(path) => {
            println!("parsing {path}");
            grid_from_spice_path(&path)?
        }
        None => {
            println!("no netlist given; using a synthesized demo design");
            let text = synthesize_to_string(&SynthSpec {
                seed: 7,
                hotspot_clusters: 2,
                hotspot_fraction: 0.5,
                ..SynthSpec::default()
            });
            grid_from_spice_reader(text.as_bytes())?
        }
    };
    println!(
        "{} nodes, {} segments, {} loads, {} pads, layers {:?}",
        grid.nodes.len(),
        grid.segments.len(),
        grid.loads.len(),
        grid.pads.len(),
        grid.layers()
    );
    if !grid.is_connected_to_pads() {
        eprintln!("warning: some nodes cannot reach a pad; the solve may fail");
    }

    let mut config = FusionConfig::default();
    config.feature.width = 64;
    config.feature.height = 64;
    config.solver_iterations = 2;
    let pipeline = IrFusionPipeline::new(config);

    let analysis = pipeline.stack_builder().analyze(&grid, None)?;
    let golden = pipeline.golden_map(&grid);

    fs::write("ir_drop_rough.pgm", analysis.rough_map.to_pgm())?;
    fs::write("ir_drop_golden.pgm", golden.to_pgm())?;
    println!("wrote ir_drop_rough.pgm and ir_drop_golden.pgm");
    println!(
        "golden worst drop {:.3} mV | rough worst drop {:.3} mV | runtime {:.1} ms",
        golden.max() * 1e3,
        analysis.rough_map.max() * 1e3,
        analysis.runtime_seconds * 1e3
    );

    // A quick ASCII rendering of the golden hotspots: each character
    // covers a block of pixels and shows the block's *worst* drop, so
    // single-pixel hotspots stay visible.
    println!("golden hotspot sketch (# > 90 %, + > 70 % of peak):");
    let (bx, by) = (golden.width().div_ceil(32), golden.height().div_ceil(16));
    for y0 in (0..golden.height()).step_by(by) {
        let mut line = String::new();
        for x0 in (0..golden.width()).step_by(bx) {
            let mut worst = 0.0f32;
            for y in y0..(y0 + by).min(golden.height()) {
                for x in x0..(x0 + bx).min(golden.width()) {
                    worst = worst.max(golden.get(x, y));
                }
            }
            line.push(if worst > golden.max() * 0.9 {
                '#'
            } else if worst > golden.max() * 0.7 {
                '+'
            } else {
                '.'
            });
        }
        println!("  {line}");
    }

    if let (Some(collector), Some(path)) = (collector, trace_out) {
        let trace = collector.finish();
        fs::write(&path, trace.to_chrome_json())?;
        println!(
            "wrote {path} ({} events) — open it at https://ui.perfetto.dev",
            trace.len()
        );
        println!("self-profile:\n{}", trace.profile_tree());
    }
    Ok(())
}
