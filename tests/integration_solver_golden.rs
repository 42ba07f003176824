//! Cross-crate integration: every solver agrees with the direct
//! factorization on realistic synthesized grids.

use irf_data::{synthesize, SynthSpec};
use irf_pg::PowerGrid;
use irf_sparse::{Solver, SolverKind};

fn system() -> (irf_pg::PgSystem, PowerGrid) {
    let grid = synthesize(&SynthSpec::default());
    (grid.build_system(), grid)
}

#[test]
fn iterative_solvers_match_cholesky_on_a_real_grid() {
    let (sys, _) = system();
    let golden = Solver::new(SolverKind::Cholesky).solve(&sys.matrix, &sys.rhs);
    for kind in [SolverKind::Cg, SolverKind::JacobiPcg, SolverKind::AmgPcg] {
        let r = Solver::new(kind)
            .with_tolerance(1e-11)
            .with_max_iterations(5000)
            .solve(&sys.matrix, &sys.rhs);
        assert!(r.converged, "{kind:?} failed to converge");
        let worst =
            r.x.iter()
                .zip(&golden.x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
        assert!(worst < 1e-8, "{kind:?} deviates by {worst:e}");
    }
}

#[test]
fn amg_pcg_converges_much_faster_than_cg_on_pg_systems() {
    let (sys, _) = system();
    let cg = Solver::new(SolverKind::Cg)
        .with_tolerance(1e-8)
        .with_max_iterations(20_000)
        .solve(&sys.matrix, &sys.rhs);
    let amg = Solver::new(SolverKind::AmgPcg)
        .with_tolerance(1e-8)
        .solve(&sys.matrix, &sys.rhs);
    assert!(cg.converged && amg.converged);
    assert!(
        amg.iterations * 3 < cg.iterations,
        "AMG-PCG {} vs CG {} iterations",
        amg.iterations,
        cg.iterations
    );
}

#[test]
fn drop_coordinates_keep_solutions_nonnegative() {
    for seed in [1u64, 5, 9] {
        let spec = SynthSpec {
            seed,
            hotspot_clusters: 2,
            hotspot_fraction: 0.5,
            stripe_jitter: 0.2,
            blockages: 1,
            ..SynthSpec::default()
        };
        let grid = synthesize(&spec);
        let sys = grid.build_system();
        let r = Solver::new(SolverKind::Cholesky).solve(&sys.matrix, &sys.rhs);
        assert!(
            r.x.iter().all(|&d| d >= -1e-12),
            "seed {seed}: negative drop found"
        );
    }
}
