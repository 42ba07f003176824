//! ECO-style incremental re-analysis: after a small engineering
//! change order (one macro's load current shifts), warm-start the
//! AMG-PCG solve from the previous solution and measure how many
//! iterations the warm start saves — the workflow early IR-drop
//! tools exist to accelerate.
//!
//! ```bash
//! cargo run --example eco_reanalysis --release
//! ```

use irf_data::{synthesize, SynthSpec};
use irf_sparse::{Solver, SolverKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Baseline design and its full-accuracy solution.
    let spec = SynthSpec {
        seed: 21,
        hotspot_clusters: 2,
        hotspot_fraction: 0.5,
        ..SynthSpec::default()
    };
    let grid = synthesize(&spec);
    let system = grid.build_system();
    let solver = Solver::new(SolverKind::AmgPcg).with_tolerance(1e-10);
    let base = solver.solve(&system.matrix, &system.rhs);
    println!(
        "baseline solve: {} unknowns, {} iterations to 1e-10",
        system.dim(),
        base.iterations
    );

    // ECO: one region's load current grows by 10 % — same topology,
    // same matrix, perturbed right-hand side.
    let mut eco_rhs = system.rhs.clone();
    let bump_from = eco_rhs.len() / 3;
    let bump_to = eco_rhs.len() / 2;
    for v in &mut eco_rhs[bump_from..bump_to] {
        *v *= 1.10;
    }

    let cold = solver.solve(&system.matrix, &eco_rhs);
    let warm = solver.solve_with_guess(&system.matrix, &eco_rhs, base.x.clone());
    println!(
        "ECO re-solve:   cold start {} iterations, warm start {} iterations",
        cold.iterations, warm.iterations
    );
    assert!(warm.converged && cold.converged);

    // The two solutions agree, and the warm start is never slower.
    let worst: f64 = cold
        .x
        .iter()
        .zip(&warm.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("max disagreement between cold and warm solutions: {worst:.3e} V");
    println!(
        "warm start saved {} of {} iterations ({:.0} %)",
        cold.iterations.saturating_sub(warm.iterations),
        cold.iterations,
        100.0 * cold.iterations.saturating_sub(warm.iterations) as f64
            / cold.iterations.max(1) as f64
    );

    // Worst-case drop movement caused by the ECO.
    let before = base.x.iter().cloned().fold(0.0, f64::max);
    let after = cold.x.iter().cloned().fold(0.0, f64::max);
    println!(
        "worst-case IR drop: {:.3} mV -> {:.3} mV after the ECO",
        before * 1e3,
        after * 1e3
    );
    Ok(())
}
