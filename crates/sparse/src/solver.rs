//! Unified solver facade with timing and convergence reporting.

use crate::amg::aggregation::{Refusal, SetupWorkspace};
use crate::amg::hierarchy::Rebuild;
use crate::amg::{AmgCore, AmgHierarchy, AmgParams, AmgPreconditioner, CycleKind};
use crate::cg::{conjugate_gradient, ConvergenceTrace};
use crate::cholesky::CholeskyFactor;
use crate::csr::CsrMatrix;
use crate::pcg::{pcg_with_guess, JacobiPreconditioner};
use crate::vector::norm2;
use std::sync::Arc;
use std::time::Instant;

/// Which algorithm [`Solver`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Plain conjugate gradient.
    Cg,
    /// Jacobi-preconditioned CG.
    JacobiPcg,
    /// AMG(K-cycle)-preconditioned CG — the PowerRush solver the paper
    /// builds on.
    #[default]
    AmgPcg,
    /// AMG with a V-cycle preconditioner.
    AmgPcgVCycle,
    /// Sparse Cholesky direct solve (golden reference).
    Cholesky,
}

impl SolverKind {
    /// Human-readable label used by reports and benches.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Cg => "CG",
            SolverKind::JacobiPcg => "Jacobi-PCG",
            SolverKind::AmgPcg => "AMG-PCG (K-cycle)",
            SolverKind::AmgPcgVCycle => "AMG-PCG (V-cycle)",
            SolverKind::Cholesky => "Cholesky",
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Approximate (or exact, for direct) solution vector.
    pub x: Vec<f64>,
    /// `true` if the requested tolerance was met (always true for a
    /// successful direct solve).
    pub converged: bool,
    /// Iteration count (0 for direct solves).
    pub iterations: usize,
    /// Final relative residual `||b - A x|| / ||b||`.
    pub residual: f64,
    /// Wall-clock setup time (AMG hierarchy / factorization), seconds.
    pub setup_seconds: f64,
    /// Wall-clock solve time, seconds.
    pub solve_seconds: f64,
    /// Per-iteration residual history (empty for direct solves).
    pub trace: ConvergenceTrace,
}

/// A [`SolveReport`] without its solution vector: what a caller keeps
/// once it has moved the vector elsewhere (the rough-solve stage keeps
/// it expanded to node space, and nothing else).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveSummary {
    /// See [`SolveReport::converged`].
    pub converged: bool,
    /// See [`SolveReport::iterations`].
    pub iterations: usize,
    /// See [`SolveReport::residual`].
    pub residual: f64,
    /// See [`SolveReport::setup_seconds`].
    pub setup_seconds: f64,
    /// See [`SolveReport::solve_seconds`].
    pub solve_seconds: f64,
    /// See [`SolveReport::trace`].
    pub trace: ConvergenceTrace,
}

impl SolveReport {
    /// Splits the report into its solution vector and everything else.
    #[must_use]
    pub fn into_parts(self) -> (Vec<f64>, SolveSummary) {
        let summary = SolveSummary {
            converged: self.converged,
            iterations: self.iterations,
            residual: self.residual,
            setup_seconds: self.setup_seconds,
            solve_seconds: self.solve_seconds,
            trace: self.trace,
        };
        (self.x, summary)
    }
}

/// Configurable entry point over all solver kinds.
///
/// # Example
///
/// ```
/// use irf_sparse::{TripletMatrix, Solver, SolverKind};
///
/// let mut t = TripletMatrix::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 2.0);
/// }
/// let report = Solver::new(SolverKind::Cholesky).solve(&t.to_csr(), &[2.0, 4.0, 6.0]);
/// assert!(report.converged);
/// for (xi, want) in report.x.iter().zip([1.0, 2.0, 3.0]) {
///     assert!((xi - want).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Solver {
    kind: SolverKind,
    tol: f64,
    max_iter: usize,
    amg_params: AmgParams,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new(SolverKind::default())
    }
}

impl Solver {
    /// Creates a solver with default tolerance `1e-8` and a budget of
    /// 1000 iterations.
    #[must_use]
    pub fn new(kind: SolverKind) -> Self {
        Solver {
            kind,
            tol: 1e-8,
            max_iter: 1000,
            amg_params: AmgParams::default(),
        }
    }

    /// Sets the relative-residual tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the iteration budget. For the IR-Fusion rough-solution
    /// phase this is the small `k` (1-10) of the paper's Fig. 7.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Overrides the AMG setup parameters.
    #[must_use]
    pub fn with_amg_params(mut self, params: AmgParams) -> Self {
        self.amg_params = params;
        self
    }

    /// The configured algorithm.
    #[must_use]
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// Solves `A x = b` from a zero initial guess.
    ///
    /// # Panics
    ///
    /// Panics if `A` is not square, `b` has the wrong length, or (for
    /// the direct path) the matrix is not positive definite.
    #[must_use]
    pub fn solve(&self, a: &CsrMatrix, b: &[f64]) -> SolveReport {
        self.solve_with_guess(a, b, vec![0.0; b.len()])
    }

    /// Solves `A x = b` starting from `x0` (iterative kinds only; the
    /// direct kind ignores the guess).
    ///
    /// Internally routes through [`Solver::prepare`] followed by
    /// [`SolverSetup::solve_with_guess`], so a cold solve and a solve
    /// against a cached [`SolverSetup`] execute the exact same code and
    /// produce bitwise-identical solutions. The setup needs a shared
    /// matrix, so this wraps a copy of `a` once; callers that already
    /// hold an `Arc` go through [`Solver::prepare`] and copy nothing.
    ///
    /// # Panics
    ///
    /// See [`Solver::solve`].
    #[must_use]
    pub fn solve_with_guess(&self, a: &CsrMatrix, b: &[f64], x0: Vec<f64>) -> SolveReport {
        let a = Arc::new(a.clone());
        self.prepare(&a).solve_with_guess(&a, b, x0)
    }

    /// Runs the setup phase only — AMG hierarchy construction (plus
    /// smoother diagonals), the Cholesky factorization, or the
    /// Jacobi diagonal — and returns a reusable [`SolverSetup`] handle
    /// that can serve any number of right-hand sides against the same
    /// matrix. This is the stage-graph `SolverSetup` artifact: for
    /// re-analyses where only the current vector changed, the handle is
    /// cached and the hierarchy is reused verbatim. An AMG setup keeps
    /// `a` as its finest operator by reference, so the handle holds no
    /// copy of the matrix it was prepared against.
    ///
    /// Emits the `amg_setup` trace span and solver telemetry for the
    /// AMG kinds, exactly as the one-shot [`Solver::solve`] path does.
    ///
    /// # Panics
    ///
    /// Panics if `A` is not square or (for factorizing kinds) not
    /// positive definite.
    #[must_use]
    pub fn prepare(&self, a: &Arc<CsrMatrix>) -> SolverSetup {
        self.setup(a, None)
    }

    /// [`Solver::prepare`] of a matrix that replaces the one `base` was
    /// prepared against, reusing what of `base`'s AMG hierarchy a cold
    /// setup of `a` would reproduce. The result is bitwise equal to
    /// [`Solver::prepare`]`(a)`: every level operator, aggregation,
    /// smoother diagonal, the coarse factor and so every solve.
    ///
    /// When `a` has `base`'s finest sparsity pattern (a re-stamped
    /// resistance edit), the setup walks down from the rows whose
    /// values changed. At each level it proves that both pairings of
    /// the base still hold on the changed rows, re-sums only the
    /// coarse rows they fall in, and passes the coarse rows whose bits
    /// changed to the next level. Once none did, the remaining levels
    /// and the coarse factor are `base`'s, shared behind their `Arc`s.
    /// From the first level whose proof fails, and outright for another
    /// pattern, other [`AmgParams`] or cycle, or a base of another
    /// kind, it is the cold setup. The `amg_setup` span says which:
    /// `rebuilt`, `reused_levels`, and `fallback_level` / `fallback`
    /// (`degree`, `choice`, `pattern` or `shape`) when a check refused.
    /// The non-AMG kinds have nothing to reuse and prepare cold.
    ///
    /// # Panics
    ///
    /// Same as [`Solver::prepare`].
    #[must_use]
    pub fn rebuild_from(&self, base: &SolverSetup, a: &Arc<CsrMatrix>) -> SolverSetup {
        self.setup(a, Some(base))
    }

    fn setup(&self, a: &Arc<CsrMatrix>, base: Option<&SolverSetup>) -> SolverSetup {
        let t0 = Instant::now();
        let inner = match self.kind {
            SolverKind::Cg => Prepared::Bare,
            SolverKind::JacobiPcg => Prepared::Jacobi(JacobiPreconditioner::new(a)),
            SolverKind::AmgPcg | SolverKind::AmgPcgVCycle => {
                Prepared::Amg(Arc::new(self.amg_core(a, base)))
            }
            SolverKind::Cholesky => Prepared::Cholesky(Arc::new(
                CholeskyFactor::factor(a).expect("matrix must be SPD for Cholesky"),
            )),
        };
        SolverSetup {
            kind: self.kind,
            tol: self.tol,
            max_iter: self.max_iter,
            dim: a.rows(),
            setup_seconds: t0.elapsed().as_secs_f64(),
            inner,
        }
    }

    /// The AMG setup of `a` under the `amg_setup` span: rebuilt from
    /// `base`'s hierarchy when `base` is an AMG setup of this solver's
    /// parameters and cycle, cold otherwise.
    fn amg_core(&self, a: &Arc<CsrMatrix>, base: Option<&SolverSetup>) -> AmgCore {
        let t0 = Instant::now();
        let cycle = if self.kind == SolverKind::AmgPcg {
            CycleKind::KCycle
        } else {
            CycleKind::VCycle
        };
        let mut setup_span = irf_trace::span("amg_setup");
        let mut ws = SetupWorkspace::default();
        let reusable = base
            .and_then(SolverSetup::amg_core)
            .filter(|core| core.cycle() == cycle && *core.hierarchy().params() == self.amg_params);
        let (core, rebuild) = match reusable {
            Some(base) => {
                let (h, rebuild) = AmgHierarchy::rebuild_in(base.hierarchy(), a, &mut ws);
                (
                    AmgCore::rebuilt(base, h, &rebuild.dirty_rows),
                    Some(rebuild),
                )
            }
            None => {
                let h = AmgHierarchy::build_in(a, self.amg_params, &mut ws);
                let refused = || Rebuild::fallback(0, Refusal::Shape, Vec::new());
                (AmgCore::new(h, cycle), base.map(|_| refused()))
            }
        };
        record_amg_telemetry(core.hierarchy(), &ws, &mut setup_span);
        if let Some(rebuild) = &rebuild {
            record_rebuild(rebuild, &mut setup_span);
        }
        drop(setup_span);
        irf_trace::registry().counter_add(
            "irf_stage_seconds_total",
            &[("stage", "amg_setup")],
            t0.elapsed().as_secs_f64(),
        );
        core
    }
}

/// The prepared state a [`SolverSetup`] carries per solver kind.
#[derive(Debug, Clone)]
enum Prepared {
    /// Plain CG needs no setup.
    Bare,
    Jacobi(JacobiPreconditioner),
    Amg(Arc<AmgCore>),
    Cholesky(Arc<CholeskyFactor>),
}

/// A reusable, thread-safe solver handle produced by
/// [`Solver::prepare`]: the setup artifacts (AMG hierarchy + smoother
/// diagonals, factorizations, diagonals) bound to one matrix, ready to
/// solve any number of right-hand sides without repeating setup. An
/// AMG hierarchy's finest level is that matrix's `Arc`, shared with
/// whoever assembled it, so the handle adds the coarse levels, the
/// aggregations and the smoother diagonals, not a second fine
/// operator.
///
/// Cloning is cheap (the heavy state is behind `Arc`s), and the handle
/// is `Send + Sync`, so it can live in a shared stage-artifact cache.
/// Solutions are bitwise identical to one-shot [`Solver::solve`] calls
/// because that path routes through this type.
#[derive(Debug, Clone)]
pub struct SolverSetup {
    kind: SolverKind,
    tol: f64,
    max_iter: usize,
    dim: usize,
    setup_seconds: f64,
    inner: Prepared,
}

impl SolverSetup {
    /// The solver kind this setup was prepared for.
    #[must_use]
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// Dimension of the matrix this setup was prepared against.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Wall-clock seconds the setup phase took when it originally ran.
    #[must_use]
    pub fn setup_seconds(&self) -> f64 {
        self.setup_seconds
    }

    /// Relative-residual tolerance this setup stops at.
    #[must_use]
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Iteration cap this setup stops at.
    #[must_use]
    pub fn max_iterations(&self) -> usize {
        self.max_iter
    }

    /// The multigrid hierarchy of an AMG setup; `None` for the other
    /// kinds.
    #[must_use]
    pub fn amg_hierarchy(&self) -> Option<&AmgHierarchy> {
        self.amg_core().map(|core| core.hierarchy())
    }

    /// The hierarchy and smoother diagonals of an AMG setup.
    pub(crate) fn amg_core(&self) -> Option<&AmgCore> {
        match &self.inner {
            Prepared::Amg(core) => Some(core),
            _ => None,
        }
    }

    /// Returns a copy of this setup with an overridden stopping rule
    /// (tolerance + iteration cap). The prepared artifacts are shared,
    /// so the copy is cheap and solves remain bitwise reproducible for
    /// a given stopping rule.
    #[must_use]
    pub fn with_stopping(&self, tol: f64, max_iter: usize) -> SolverSetup {
        SolverSetup {
            tol,
            max_iter,
            ..self.clone()
        }
    }

    /// Solves `A x = b` from a zero initial guess. `a` must be the
    /// same matrix this setup was prepared against.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions of `a` or `b` disagree with the
    /// prepared dimension.
    #[must_use]
    pub fn solve(&self, a: &CsrMatrix, b: &[f64]) -> SolveReport {
        self.solve_with_guess(a, b, vec![0.0; b.len()])
    }

    /// Solves `A x = b` starting from `x0` (iterative kinds only; the
    /// direct kind ignores the guess). The reported `setup_seconds` is
    /// the original preparation time, not time spent in this call.
    ///
    /// # Panics
    ///
    /// See [`SolverSetup::solve`].
    #[must_use]
    pub fn solve_with_guess(&self, a: &CsrMatrix, b: &[f64], x0: Vec<f64>) -> SolveReport {
        assert_eq!(
            a.rows(),
            self.dim,
            "SolverSetup was prepared for a {}-dim system",
            self.dim
        );
        assert_eq!(b.len(), self.dim, "rhs length mismatch");
        match &self.inner {
            Prepared::Bare => {
                let t0 = Instant::now();
                let res = conjugate_gradient(a, b, x0, self.tol, self.max_iter);
                finish_iterative(res, self.setup_seconds, t0.elapsed().as_secs_f64())
            }
            Prepared::Jacobi(m) => {
                let t0 = Instant::now();
                let res = pcg_with_guess(a, b, m, x0, self.tol, self.max_iter);
                finish_iterative(res, self.setup_seconds, t0.elapsed().as_secs_f64())
            }
            Prepared::Amg(core) => {
                let m = AmgPreconditioner::from_core(Arc::clone(core));
                let t1 = Instant::now();
                let mut solve_span = irf_trace::span("pcg_solve");
                let res = pcg_with_guess(a, b, &m, x0, self.tol, self.max_iter);
                record_pcg_telemetry(&res, &mut solve_span);
                record_cycle_counts(&m, res.trace.iterations(), &mut solve_span);
                drop(solve_span);
                let solve = t1.elapsed().as_secs_f64();
                irf_trace::registry().counter_add(
                    "irf_stage_seconds_total",
                    &[("stage", "pcg_solve")],
                    solve,
                );
                finish_iterative(res, self.setup_seconds, solve)
            }
            Prepared::Cholesky(f) => {
                let t1 = Instant::now();
                let x = f.solve(b);
                let solve_seconds = t1.elapsed().as_secs_f64();
                let mut r = vec![0.0; b.len()];
                a.residual_into(b, &x, &mut r);
                let bn = norm2(b);
                let residual = if bn == 0.0 { 0.0 } else { norm2(&r) / bn };
                SolveReport {
                    x,
                    converged: true,
                    iterations: 0,
                    residual,
                    setup_seconds: self.setup_seconds,
                    solve_seconds,
                    trace: ConvergenceTrace::default(),
                }
            }
        }
    }
}

/// Publishes AMG hierarchy statistics as span attributes and registry
/// gauges: level count, per-level rows and nnz, operator complexity,
/// and the seconds the build spent pairing and forming products.
fn record_amg_telemetry(h: &AmgHierarchy, ws: &SetupWorkspace, span: &mut irf_trace::Span) {
    let levels = h.num_levels();
    let complexity = h.operator_complexity();
    if span.is_recording() {
        span.attr("levels", levels);
        span.attr(
            "level_nnz",
            h.levels()
                .iter()
                .map(|l| l.a.nnz() as f64)
                .collect::<Vec<_>>(),
        );
        span.attr(
            "level_rows",
            h.levels()
                .iter()
                .map(|l| l.a.rows() as f64)
                .collect::<Vec<_>>(),
        );
        span.attr("operator_complexity", complexity);
        span.attr("pairing_s", ws.pairing_s);
        span.attr("galerkin_s", ws.galerkin_s);
    }
    let registry = irf_trace::registry();
    registry.gauge_set("irf_amg_levels", &[], levels as f64);
    registry.gauge_set("irf_amg_operator_complexity", &[], complexity);
}

/// Publishes what a rebuild carried over from its base: the levels it
/// reused, and where and why it ran the cold loop, if it did.
fn record_rebuild(rebuild: &Rebuild, span: &mut irf_trace::Span) {
    span.attr("rebuilt", true);
    span.attr("reused_levels", rebuild.reused_levels);
    if let Some((level, refusal)) = rebuild.fallback {
        span.attr("fallback_level", level);
        span.attr("fallback", refusal.label());
    }
}

/// Publishes PCG convergence telemetry: iteration count, convergence
/// flag, and the per-iteration residual history.
fn record_pcg_telemetry(res: &crate::cg::CgResult, span: &mut irf_trace::Span) {
    let iterations = res.trace.iterations();
    irf_trace::request::note_pcg(iterations as u64);
    if span.is_recording() {
        span.attr("iterations", iterations);
        span.attr("converged", res.converged);
        span.attr("final_residual", res.trace.final_residual());
        span.attr("residual_history", res.trace.history.as_slice());
    }
    let registry = irf_trace::registry();
    registry.gauge_set("irf_pcg_iterations", &[], iterations as f64);
    registry.counter_add("irf_pcg_iterations_total", &[], iterations as f64);
    registry.counter_add("irf_pcg_solves_total", &[], 1.0);
    if res.converged {
        registry.counter_add("irf_pcg_converged_total", &[], 1.0);
    }
}

/// Publishes what the preconditioner's cycles did during one solve:
/// applications (the fine level's visits), visits per level and passes
/// over each level's matrix.
/// PCG multiplies by the fine matrix once per iteration itself; that
/// pass is added to level 0, so the fine level reads like every other
/// (a K-cycle counts its own SpMV on the level it runs on).
fn record_cycle_counts(m: &AmgPreconditioner, iterations: usize, span: &mut irf_trace::Span) {
    if !span.is_recording() {
        return;
    }
    let counts = m.counts();
    let mut passes = counts.level_matrix_passes;
    passes[0] += iterations as u64;
    let as_f64 = |v: Vec<u64>| v.into_iter().map(|c| c as f64).collect::<Vec<_>>();
    span.attr("cycle_applications", counts.level_visits[0]);
    span.attr("level_visits", as_f64(counts.level_visits));
    span.attr("level_matrix_passes", as_f64(passes));
}

fn finish_iterative(res: crate::cg::CgResult, setup: f64, solve: f64) -> SolveReport {
    SolveReport {
        converged: res.converged,
        iterations: res.trace.iterations(),
        residual: res.trace.final_residual(),
        setup_seconds: setup,
        solve_seconds: solve,
        x: res.x,
        trace: res.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn grid(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..ny {
                if i + 1 < nx {
                    t.stamp_conductance(idx(i, j), idx(i + 1, j), 1.0);
                }
                if j + 1 < ny {
                    t.stamp_conductance(idx(i, j), idx(i, j + 1), 1.0);
                }
            }
        }
        // Pads at the four corners keep the system SPD.
        for &(i, j) in &[(0, 0), (0, ny - 1), (nx - 1, 0), (nx - 1, ny - 1)] {
            t.stamp_grounded_conductance(idx(i, j), 10.0);
        }
        t.to_csr()
    }

    #[test]
    fn all_solvers_agree() {
        let a = grid(10, 10);
        let b = vec![0.01; 100];
        let golden = Solver::new(SolverKind::Cholesky).solve(&a, &b);
        for kind in [
            SolverKind::Cg,
            SolverKind::JacobiPcg,
            SolverKind::AmgPcg,
            SolverKind::AmgPcgVCycle,
        ] {
            let r = Solver::new(kind).with_tolerance(1e-10).solve(&a, &b);
            assert!(r.converged, "{kind:?} did not converge");
            for (p, q) in r.x.iter().zip(&golden.x) {
                assert!((p - q).abs() < 1e-6, "{kind:?} disagrees with Cholesky");
            }
        }
    }

    #[test]
    fn amg_pcg_uses_fewest_iterations() {
        let a = grid(24, 24);
        let b = vec![0.01; a.rows()];
        let cg = Solver::new(SolverKind::Cg).solve(&a, &b);
        let amg = Solver::new(SolverKind::AmgPcg).solve(&a, &b);
        assert!(amg.iterations < cg.iterations);
    }

    #[test]
    fn iteration_budget_caps_work() {
        let a = grid(24, 24);
        let b = vec![0.01; a.rows()];
        // The bound below holds for symmetric Gauss-Seidel; under the
        // Jacobi default the 2-norm at k = 2 is still above 1.
        let r = Solver::new(SolverKind::AmgPcg)
            .with_amg_params(AmgParams {
                smoother: crate::smoother::SmootherKind::SymmetricGaussSeidel,
                ..AmgParams::default()
            })
            .with_tolerance(1e-14)
            .with_max_iterations(2)
            .solve(&a, &b);
        assert_eq!(r.iterations, 2);
        assert!(!r.converged);
        // A rough solution is already below the initial residual (the
        // 2-norm may transiently rise at k=1; PCG minimises the A-norm).
        assert!(r.residual < 1.0);
    }

    #[test]
    fn with_stopping_overrides_only_the_stopping_rule() {
        let a = grid(10, 10);
        let b = vec![0.01; 100];
        let setup = Solver::new(SolverKind::AmgPcg)
            .with_tolerance(1e-12)
            .with_max_iterations(50)
            .prepare(&Arc::new(a.clone()));
        let loose = setup.with_stopping(1e-3, 7);
        assert_eq!(loose.tolerance(), 1e-3);
        assert_eq!(loose.max_iterations(), 7);
        assert_eq!(loose.kind(), setup.kind());
        assert_eq!(loose.dim(), setup.dim());
        // Warm-started under the loose rule, a converged solution
        // should exit immediately; the strict setup keeps iterating.
        let cold = setup.solve(&a, &b);
        let warm = loose.solve_with_guess(&a, &b, cold.x.clone());
        assert!(warm.iterations <= 1);
        assert!(warm.iterations < cold.iterations);
    }

    #[test]
    fn warm_start_is_accepted() {
        let a = grid(8, 8);
        let b = vec![0.02; 64];
        let cold = Solver::new(SolverKind::AmgPcg)
            .with_tolerance(1e-11)
            .solve(&a, &b);
        let warm = Solver::new(SolverKind::AmgPcg)
            .with_tolerance(1e-10)
            .solve_with_guess(&a, &b, cold.x.clone());
        assert!(warm.iterations <= 1);
    }

    #[test]
    fn cg_honours_its_initial_guess() {
        let a = grid(8, 8);
        let b = vec![0.02; 64];
        let cg = Solver::new(SolverKind::Cg).with_tolerance(1e-10);
        let cold = cg.solve(&a, &b);
        assert!(cold.converged && cold.iterations > 0);
        let warm = cg.solve_with_guess(&a, &b, cold.x.clone());
        assert_eq!(warm.iterations, 0);
        assert_eq!(warm.x, cold.x);
    }

    #[test]
    fn report_carries_timings() {
        let a = grid(8, 8);
        let b = vec![0.02; 64];
        let r = Solver::new(SolverKind::AmgPcg).solve(&a, &b);
        assert!(r.setup_seconds >= 0.0 && r.solve_seconds >= 0.0);
        assert!(!r.trace.history.is_empty());
    }

    #[test]
    fn amg_pcg_publishes_solver_telemetry() {
        let a = grid(10, 10);
        let b = vec![0.01; 100];
        let collector = irf_trace::Collector::install();
        let r = Solver::new(SolverKind::AmgPcg).solve(&a, &b);
        if let Some(collector) = collector {
            // Other tests in this binary may run concurrently and add
            // their own solver spans; look for one matching *this*
            // solve's iteration count.
            let trace = collector.finish();
            let pcg = trace
                .events
                .iter()
                .find(|e| {
                    e.name == "pcg_solve"
                        && e.args.contains(&(
                            "iterations",
                            irf_trace::AttrValue::U64(r.iterations as u64),
                        ))
                })
                .expect("pcg_solve span with matching iteration count");
            assert!(pcg.args.iter().any(|(k, v)| *k == "residual_history"
                && matches!(v, irf_trace::AttrValue::F64List(h) if h.len() == r.iterations + 1)));
            let setup = trace
                .events
                .iter()
                .find(|e| e.name == "amg_setup")
                .expect("amg_setup span");
            assert!(setup.args.iter().any(|(k, _)| *k == "levels"));
            assert!(setup.args.iter().any(|(k, _)| *k == "operator_complexity"));
        }
        let registry = irf_trace::registry();
        assert!(registry.get("irf_pcg_iterations", &[]).is_some());
        assert!(registry.get("irf_amg_levels", &[]).is_some());
        assert!(
            registry.get("irf_pcg_iterations_total", &[]).unwrap_or(0.0) >= r.iterations as f64
        );
    }

    #[test]
    fn prepared_setup_reused_across_rhs_is_bitwise_identical() {
        let a = grid(16, 16);
        let b1 = vec![0.01; a.rows()];
        let b2: Vec<f64> = (0..a.rows())
            .map(|i| 0.01 + (i % 7) as f64 * 1e-4)
            .collect();
        for kind in [
            SolverKind::Cg,
            SolverKind::JacobiPcg,
            SolverKind::AmgPcg,
            SolverKind::AmgPcgVCycle,
            SolverKind::Cholesky,
        ] {
            let solver = Solver::new(kind)
                .with_tolerance(1e-12)
                .with_max_iterations(8);
            let setup = solver.prepare(&Arc::new(a.clone()));
            assert_eq!(setup.kind(), kind);
            assert_eq!(setup.dim(), a.rows());
            // Same prepared handle serves two different right-hand
            // sides, each bitwise identical to a one-shot cold solve.
            for b in [&b1, &b2] {
                let warm = setup.solve(&a, b);
                let cold = solver.solve(&a, b);
                assert_eq!(warm.x, cold.x, "{kind:?} warm != cold");
                assert_eq!(warm.iterations, cold.iterations);
            }
        }
    }

    #[test]
    fn rebuild_from_solves_bitwise_identical_to_cold_prepare() {
        let a = grid(16, 16);
        // Same-pattern conductance edit: re-stamp one interior strap at
        // a different resistance.
        let edited = {
            let n = a.rows();
            let mut t: Vec<(usize, usize, f64)> = a.iter().collect();
            for e in t.iter_mut() {
                if (e.0, e.1) == (5, 6) || (e.0, e.1) == (6, 5) {
                    e.2 *= 0.5; // off-diagonals: weaker coupling
                } else if e.0 == e.1 && (e.0 == 5 || e.0 == 6) {
                    e.2 -= 0.5; // diagonals keep the zero-row-sum stamp
                }
            }
            CsrMatrix::from_triplets(n, n, &t)
        };
        assert!(a.same_pattern(&edited));
        let b = vec![0.01; a.rows()];
        for kind in [
            SolverKind::AmgPcg,
            SolverKind::AmgPcgVCycle,
            SolverKind::Cholesky,
        ] {
            let solver = Solver::new(kind)
                .with_tolerance(1e-12)
                .with_max_iterations(8);
            let base = solver.prepare(&Arc::new(a.clone()));
            let warm = solver.rebuild_from(&base, &Arc::new(edited.clone()));
            let cold = solver.prepare(&Arc::new(edited.clone()));
            let wx = warm.solve(&edited, &b);
            let cx = cold.solve(&edited, &b);
            assert_eq!(wx.x, cx.x, "{kind:?} rebuilt warm != cold");
            assert_eq!(wx.iterations, cx.iterations);
        }
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            SolverKind::Cg,
            SolverKind::JacobiPcg,
            SolverKind::AmgPcg,
            SolverKind::AmgPcgVCycle,
            SolverKind::Cholesky,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
