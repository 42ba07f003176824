//! Compare how each solver's *true error* (vs the exact Cholesky
//! solution) decays with iteration count on a real-like design — the
//! numerical backbone of the paper's Fig. 7 regime.
//!
//! ```bash
//! cargo run -p irf-bench --release --example solver_convergence
//! ```

use irf_data::golden::golden_drops;
use irf_data::real_like::real_like_spec;
use irf_data::synthesize;
use irf_sparse::amg::AmgParams;
use irf_sparse::smoother::SmootherKind;
use irf_sparse::{Solver, SolverKind};

fn main() {
    let spec = real_like_spec(3);
    let grid = synthesize(&spec);
    let sys = grid.build_system();
    let golden = golden_drops(&grid);
    println!(
        "design: {} unknowns, worst drop {:.2} mV",
        sys.dim(),
        golden.iter().cloned().fold(0.0, f64::max) * 1e3
    );
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "solver", "k=1", "k=2", "k=5", "k=10"
    );
    let sgs = AmgParams {
        smoother: SmootherKind::SymmetricGaussSeidel,
        ..AmgParams::default()
    };
    for (label, kind, params) in [
        ("CG", SolverKind::Cg, AmgParams::default()),
        ("Jacobi-PCG", SolverKind::JacobiPcg, AmgParams::default()),
        (
            "AMG-PCG V-cycle/Jacobi",
            SolverKind::AmgPcgVCycle,
            AmgParams::default(),
        ),
        ("AMG-PCG V-cycle/SGS", SolverKind::AmgPcgVCycle, sgs),
        ("AMG-PCG K-cycle/SGS", SolverKind::AmgPcg, sgs),
    ] {
        print!("{label:<26}");
        for k in [1usize, 2, 5, 10] {
            let r = Solver::new(kind)
                .with_amg_params(params)
                .with_tolerance(1e-14)
                .with_max_iterations(k)
                .solve(&sys.matrix, &sys.rhs);
            let x = sys.expand_solution(&r.x);
            let mae: f64 = x
                .iter()
                .zip(&golden)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / golden.len() as f64;
            print!(" {mae:>9.2e}");
        }
        println!();
    }
    println!();
    println!("The IR-Fusion pipeline's truncated solve uses the V-cycle/Jacobi");
    println!("operating point (rough at small k); the K-cycle is the production");
    println!("solver for full-accuracy signoff runs.");
}
