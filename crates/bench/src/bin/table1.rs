//! Regenerates **Table I** — main results: MAE / F1 / runtime / MIRDE
//! for every model on held-out real-like designs.
//!
//! ```bash
//! cargo run -p irf-bench --bin table1 --release            # paper-shaped scale
//! cargo run -p irf-bench --bin table1 --release -- --tiny  # smoke scale
//! ```

use ir_fusion::experiment::table1;
use irf_bench::{format_row, scale_from_args, table_header};

fn main() {
    let scale = scale_from_args();
    println!(
        "Table I reproduction: {} fake + {} real-like designs, {} held out, {} epochs, {}x{} maps",
        scale.n_fake, scale.n_real, scale.n_test, scale.epochs, scale.resolution, scale.resolution
    );
    println!("(paper reference: IR-Fusion MAE 0.72, F1 0.71, runtime 6.98 s, MIRDE 3.05)");
    println!();
    println!("{}", table_header());
    let rows = table1(&scale);
    for row in &rows {
        println!("{}", format_row(&row.name, &row.report));
    }
    // Shape check mirrored in EXPERIMENTS.md: IR-Fusion should lead on
    // the accuracy metrics while paying runtime for the solver.
    if let (Some(ours), Some(best_baseline)) = (
        rows.iter().find(|r| r.name == "IR-Fusion"),
        rows.iter()
            .filter(|r| r.name != "IR-Fusion")
            .min_by(|a, b| a.report.mae_volts.total_cmp(&b.report.mae_volts)),
    ) {
        println!();
        println!(
            "IR-Fusion vs best baseline ({}): MAE {:+.1}%, F1 {:+.1}%",
            best_baseline.name,
            (ours.report.mae_volts / best_baseline.report.mae_volts - 1.0) * 100.0,
            (ours.report.f1 - best_baseline.report.f1) * 100.0,
        );
    }
}
