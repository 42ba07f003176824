//! Quickstart: synthesize a power grid, run the IR-Fusion pipeline,
//! and compare the rough numerical map against the golden solve.
//!
//! ```bash
//! cargo run --example quickstart --release
//! ```

use ir_fusion::{FusionConfig, IrFusionPipeline};
use irf_data::{synthesize, SynthSpec};
use irf_metrics::{f1_score, mae};
use irf_pg::DesignStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthesize a BeGAN-style power grid and show its statistics.
    let grid = synthesize(&SynthSpec::default());
    println!("design: {}", DesignStats::from_grid(&grid));

    // 2. Run the fusion pipeline front end: a 2-iteration AMG-PCG
    //    rough solve plus rasterization.
    let mut config = FusionConfig::default();
    config.feature.width = 32;
    config.feature.height = 32;
    let pipeline = IrFusionPipeline::new(config);
    let analysis = pipeline.stack_builder().analyze(&grid, None)?;
    println!(
        "rough solve: {} iterations, relative residual {:.3e}, {:.1} ms",
        analysis.solve_report.iterations,
        analysis.solve_report.residual,
        analysis.runtime_seconds * 1e3
    );

    // 3. Compare against the exact (golden) solution.
    let golden = pipeline.golden_map(&grid);
    println!(
        "worst-case IR drop: golden {:.3} mV, rough {:.3} mV",
        golden.max() * 1e3,
        analysis.rough_map.max() * 1e3
    );
    println!(
        "rough-vs-golden: MAE {:.3e} V, hotspot F1 {:.3}",
        mae(analysis.rough_map.data(), golden.data()),
        f1_score(analysis.rough_map.data(), golden.data())
    );

    // 4. Sign-off check against a 10 % of VDD drop budget.
    let budget = (grid.vdd() * 0.1) as f32;
    print!("{}", analysis.signoff(budget));
    println!("(train a model with `cargo run --example train_fusion --release` to fuse)");
    Ok(())
}
