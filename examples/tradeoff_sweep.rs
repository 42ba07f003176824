//! A miniature of the paper's Fig. 7 trade-off study: how the raw
//! numerical solution improves with PCG iterations, versus the golden
//! reference.
//!
//! ```bash
//! cargo run --example tradeoff_sweep --release
//! ```

use ir_fusion::{FusionConfig, IrFusionPipeline};
use irf_data::Design;
use irf_metrics::{f1_score, mae};

fn main() {
    let design = Design::real_like(11);
    println!(
        "design {}: {} nodes, worst drop {:.3} mV",
        design.name,
        design.grid.nodes.len(),
        design.worst_drop() * 1e3
    );
    println!(
        "{:>4} | {:>12} | {:>8} | {:>10}",
        "k", "MAE (V)", "F1", "time (ms)"
    );
    println!("{}", "-".repeat(46));
    for k in 1..=10 {
        let mut config = FusionConfig::default();
        config.feature.width = 32;
        config.feature.height = 32;
        config.solver_iterations = k;
        let pipeline = IrFusionPipeline::new(config);
        let analysis = pipeline
            .stack_builder()
            .analyze(&design.grid, None)
            .expect("synthetic designs have pads");
        let golden = pipeline.label_map(&design.grid, &design.golden);
        println!(
            "{k:>4} | {:>12.4e} | {:>8.3} | {:>10.2}",
            mae(analysis.rough_map.data(), golden.data()),
            f1_score(analysis.rough_map.data(), golden.data()),
            analysis.runtime_seconds * 1e3
        );
    }
    println!("\nThe fused flow reaches a given accuracy with fewer solver iterations");
    println!("once the ML refinement is trained; the measured crossover is printed by");
    println!("`cargo run -p irf-bench --bin fig7 --release`.");
}
