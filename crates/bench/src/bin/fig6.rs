//! Regenerates **Fig. 6** — qualitative IR-drop maps: golden label vs
//! the SOTA baseline (MAUnet) vs IR-Fusion on one held-out design.
//! Writes PGM images and prints ASCII hotspot sketches.
//!
//! ```bash
//! cargo run -p irf-bench --bin fig6 --release -- [--tiny]
//! ```

use ir_fusion::{train, IrFusionPipeline};
use irf_bench::scale_from_args;
use irf_metrics::{f1_score, mae};
use irf_models::ModelKind;
use irf_pg::GridMap;
use std::fs;

fn sketch(map: &GridMap, label: &str) {
    println!("{label}: worst drop {:.3} mV", map.max() * 1e3);
    let thr9 = map.max() * 0.9;
    let thr7 = map.max() * 0.7;
    for y in (0..map.height()).step_by(map.height().div_ceil(12)) {
        let mut line = String::from("  ");
        for x in (0..map.width()).step_by(map.width().div_ceil(24)) {
            let v = map.get(x, y);
            line.push(if v > thr9 {
                '#'
            } else if v > thr7 {
                '+'
            } else {
                '.'
            });
        }
        println!("{line}");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_args();
    let dataset = scale.dataset();
    let config = scale.config();
    let pipeline = IrFusionPipeline::new(config);

    println!(
        "training MAUnet and IR-Fusion ({} epochs each)...",
        scale.epochs
    );
    let maunet = train(ModelKind::MaUnet, &dataset, &config);
    let fusion = train(ModelKind::IrFusion, &dataset, &config);

    let design = dataset.test().next().expect("held-out design exists");
    println!("design under test: {}", design.name);
    let golden = pipeline.label_map(&design.grid, &design.golden);
    let pred = |t: &ir_fusion::TrainedModel| {
        pipeline
            .stack_builder()
            .analyze(&design.grid, Some(t))
            .expect("design grid has pads")
            .fused_map
            .expect("model supplied")
    };
    let maunet_map = pred(&maunet);
    let fusion_map = pred(&fusion);

    fs::write(irf_bench::bench_out("fig6_golden.pgm"), golden.to_pgm())?;
    fs::write(irf_bench::bench_out("fig6_maunet.pgm"), maunet_map.to_pgm())?;
    fs::write(
        irf_bench::bench_out("fig6_irfusion.pgm"),
        fusion_map.to_pgm(),
    )?;
    fs::write(irf_bench::bench_out("fig6_golden.csv"), golden.to_csv())?;
    fs::write(irf_bench::bench_out("fig6_maunet.csv"), maunet_map.to_csv())?;
    fs::write(
        irf_bench::bench_out("fig6_irfusion.csv"),
        fusion_map.to_csv(),
    )?;
    println!("wrote target/bench-out/fig6_{{golden,maunet,irfusion}}.{{pgm,csv}}");
    println!();

    sketch(&golden, "(a) Golden");
    sketch(&maunet_map, "(b) MAUnet");
    sketch(&fusion_map, "(c) IR-Fusion (ours)");

    println!();
    println!(
        "MAUnet    : MAE {:.3e} V, F1 {:.3}",
        mae(maunet_map.data(), golden.data()),
        f1_score(maunet_map.data(), golden.data())
    );
    println!(
        "IR-Fusion : MAE {:.3e} V, F1 {:.3}",
        mae(fusion_map.data(), golden.data()),
        f1_score(fusion_map.data(), golden.data())
    );
    Ok(())
}
