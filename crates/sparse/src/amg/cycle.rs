//! Multigrid cycling: V-cycle and Notay's K-cycle, wrapped as a PCG
//! preconditioner.

use crate::amg::hierarchy::{prolongate_add, restrict_into, AmgHierarchy, Level};
use crate::csr::CsrMatrix;
use crate::pcg::Preconditioner;
use crate::smoother::{
    assert_nonzero_diagonal, l1_diagonal, l1_diagonal_entry, smooth, sweep_from_zero,
    sweeps_on_checked_diagonal, SmootherKind,
};
use crate::vector::dot;
use std::cell::RefCell;
use std::sync::Arc;

/// Which multigrid cycling strategy the preconditioner applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CycleKind {
    /// Classic V-cycle: one recursive coarse correction per level.
    VCycle,
    /// Notay's K-cycle: the coarse problem is solved by up to two
    /// steps of flexible CG preconditioned by the next level's cycle.
    /// This is the scheme PowerRush (and hence IR-Fusion) uses: it
    /// "efficiently balances convergence speed and computational cost".
    #[default]
    KCycle,
}

/// An [`AmgHierarchy`] applied as the `M^{-1}` of PCG via a multigrid
/// cycle — the "AMG" in AMG-PCG.
///
/// # Example
///
/// ```
/// use irf_sparse::{TripletMatrix, pcg::pcg};
/// use irf_sparse::amg::{AmgHierarchy, AmgParams, AmgPreconditioner, CycleKind};
/// use std::sync::Arc;
///
/// let n = 200;
/// let mut t = TripletMatrix::new(n, n);
/// for i in 0..n {
///     t.push(i, i, 2.0);
///     if i + 1 < n {
///         t.push(i, i + 1, -1.0);
///         t.push(i + 1, i, -1.0);
///     }
/// }
/// let a = Arc::new(t.to_csr());
/// let h = AmgHierarchy::build(&a, AmgParams::default());
/// let m = AmgPreconditioner::new(h, CycleKind::KCycle);
/// let res = pcg(&a, &vec![1.0; n], &m, 1e-10, 100);
/// assert!(res.converged);
/// ```
#[derive(Debug, Clone)]
pub struct AmgPreconditioner {
    core: Arc<AmgCore>,
    /// Per-level scratch for [`run_cycle`](Self::run_cycle), taken and
    /// restored around each level's work so repeated `apply` calls (one
    /// per PCG iteration) allocate nothing after warm-up.
    v_scratch: RefCell<Vec<VScratch>>,
    /// Per-level scratch for the K-cycle inner Krylov iterations (kept
    /// separate from `v_scratch` because the K-cycle holds its buffers
    /// across a nested `run_cycle` at the same level).
    k_scratch: RefCell<Vec<KScratch>>,
    /// What the cycles have done since construction.
    counts: RefCell<CycleCounts>,
}

/// Work counters of one [`AmgPreconditioner`]: how often each level
/// was visited and how many passes over each level's matrix those
/// visits made. Plain additions beside the scratch, no clock — with
/// the per-level non-zero counts of the `amg_setup` span they give the
/// work per level without a profiler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleCounts {
    /// Cycle entries per level, finest first; the first entry is the
    /// number of [`Preconditioner::apply`] calls.
    pub level_visits: Vec<u64>,
    /// Passes over each level's matrix (smoother sweeps that read it,
    /// the residual, the K-cycle's own SpMV), finest first. The
    /// coarsest level's direct solve reads its dense factor instead,
    /// so only a K-cycle's SpMV counts there.
    pub level_matrix_passes: Vec<u64>,
}

/// The immutable, thread-safe part of an [`AmgPreconditioner`]: the
/// hierarchy, the cycle choice, and the precomputed per-level smoother
/// diagonals. An `Arc<AmgCore>` can be cached across solves and
/// rewrapped per solve with [`AmgPreconditioner::from_core`], which
/// only allocates fresh (empty) scratch pools — the expensive setup is
/// shared verbatim, so warm solves are bitwise identical to cold ones.
#[derive(Debug, Clone)]
pub struct AmgCore {
    hierarchy: AmgHierarchy,
    cycle: CycleKind,
    /// Per-level smoothing diagonals, precomputed once for the
    /// Jacobi-family smoothers (empty for Gauss-Seidel variants).
    smoother_diag: Vec<Vec<f64>>,
}

impl AmgCore {
    /// Precomputes the smoother diagonals for a built hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if a Jacobi-family smoothing diagonal has a zero entry
    /// on any level: the sweeps divide by it, and checking here, once,
    /// keeps the check out of every sweep.
    #[must_use]
    pub fn new(hierarchy: AmgHierarchy, cycle: CycleKind) -> Self {
        Self::with_diagonals(hierarchy, cycle, |_, _, _| None)
    }

    /// [`AmgCore::new`] for a hierarchy rebuilt from `base`'s. A level
    /// whose operator is the base level's own `Arc` takes a copy of
    /// that level's diagonal; one that differs from it only in the
    /// rows `dirty_rows[level]` recomputes just those entries.
    pub(crate) fn rebuilt(
        base: &AmgCore,
        hierarchy: AmgHierarchy,
        dirty_rows: &[Vec<usize>],
    ) -> Self {
        let base_levels = base.hierarchy.levels();
        Self::with_diagonals(hierarchy, base.cycle, |l, level, entry| {
            let shared = Arc::ptr_eq(&base_levels.get(l)?.a, &level.a);
            let rows = if shared { &[][..] } else { dirty_rows.get(l)? };
            let mut diag = base.smoother_diag[l].clone();
            for &r in rows {
                diag[r] = entry(&level.a, r);
            }
            Some(diag)
        })
    }

    /// The smoother diagonals of every level, `known` first; `known`
    /// gets the level's index, the level and the per-row entry.
    fn with_diagonals(
        hierarchy: AmgHierarchy,
        cycle: CycleKind,
        known: impl Fn(usize, &Level, DiagonalEntry) -> Option<Vec<f64>>,
    ) -> Self {
        let (diagonal, entry): (fn(&CsrMatrix) -> Vec<f64>, DiagonalEntry) =
            match hierarchy.params().smoother {
                SmootherKind::Jacobi => (CsrMatrix::diagonal, |a, r| a.get(r, r)),
                SmootherKind::L1Jacobi => (l1_diagonal, l1_diagonal_entry),
                _ => {
                    return AmgCore {
                        hierarchy,
                        cycle,
                        smoother_diag: Vec::new(),
                    }
                }
            };
        let smoother_diag: Vec<Vec<f64>> = hierarchy
            .levels()
            .iter()
            .enumerate()
            .map(|(l, level)| known(l, level, entry).unwrap_or_else(|| diagonal(&level.a)))
            .collect();
        for diag in &smoother_diag {
            assert_nonzero_diagonal(diag);
        }
        AmgCore {
            hierarchy,
            cycle,
            smoother_diag,
        }
    }

    /// The wrapped hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &AmgHierarchy {
        &self.hierarchy
    }

    /// The cycling strategy.
    #[must_use]
    pub fn cycle(&self) -> CycleKind {
        self.cycle
    }

    /// The per-level smoother diagonals (empty for Gauss-Seidel).
    #[cfg(test)]
    pub(crate) fn smoother_diagonals(&self) -> &[Vec<f64>] {
        &self.smoother_diag
    }
}

/// One row's entry of a smoothing diagonal.
type DiagonalEntry = fn(&CsrMatrix, usize) -> f64;

/// Scratch vectors for one level of a V-/K-cycle descent.
#[derive(Debug, Clone, Default)]
struct VScratch {
    /// Fine-level residual.
    r: Vec<f64>,
    /// Restricted residual (next-coarser dimension).
    rc: Vec<f64>,
    /// Coarse correction (next-coarser dimension).
    xc: Vec<f64>,
    /// Residual buffer lent to Jacobi-family smoother sweeps.
    smooth_r: Vec<f64>,
}

/// Scratch vectors for one level of the K-cycle inner CG.
#[derive(Debug, Clone, Default)]
struct KScratch {
    z1: Vec<f64>,
    az1: Vec<f64>,
    r: Vec<f64>,
    z2: Vec<f64>,
    az2: Vec<f64>,
    p2: Vec<f64>,
    ap2: Vec<f64>,
}

impl AmgPreconditioner {
    /// Wraps a built hierarchy with the chosen cycle.
    #[must_use]
    pub fn new(hierarchy: AmgHierarchy, cycle: CycleKind) -> Self {
        Self::from_core(Arc::new(AmgCore::new(hierarchy, cycle)))
    }

    /// Wraps a shared, already-built core with fresh scratch pools.
    /// This is the warm path: a cached `Arc<AmgCore>` turns into a
    /// ready preconditioner without redoing any setup work.
    #[must_use]
    pub fn from_core(core: Arc<AmgCore>) -> Self {
        let n_levels = core.hierarchy.num_levels();
        AmgPreconditioner {
            core,
            v_scratch: RefCell::new(vec![VScratch::default(); n_levels]),
            k_scratch: RefCell::new(vec![KScratch::default(); n_levels]),
            counts: RefCell::new(CycleCounts {
                level_visits: vec![0; n_levels],
                level_matrix_passes: vec![0; n_levels],
            }),
        }
    }

    /// What this preconditioner's cycles have done since it was built.
    #[must_use]
    pub fn counts(&self) -> CycleCounts {
        self.counts.borrow().clone()
    }

    /// Applies this level's smoother, reusing the precomputed diagonal
    /// and the provided residual scratch for the Jacobi family. With
    /// `from_zero` the sweeps start from the zero vector whatever `x`
    /// holds, and overwrite it (the pre-smoother of a cycle). Returns
    /// the passes it made over the level's matrix.
    fn smooth_level(
        &self,
        level: usize,
        b: &[f64],
        x: &mut [f64],
        smooth_r: &mut Vec<f64>,
        from_zero: bool,
    ) -> u64 {
        let lvl = &self.core.hierarchy.levels()[level];
        let params = self.core.hierarchy.params();
        let mut sweeps = params.smoothing_sweeps;
        match params.smoother {
            SmootherKind::Jacobi | SmootherKind::L1Jacobi => {
                let omega = if params.smoother == SmootherKind::Jacobi {
                    2.0 / 3.0
                } else {
                    1.0
                };
                let diag = &self.core.smoother_diag[level];
                if from_zero && sweeps > 0 {
                    // The first sweep from zero needs no residual.
                    sweep_from_zero(b, x, omega, diag);
                    sweeps -= 1;
                } else if from_zero {
                    x.fill(0.0);
                }
                smooth_r.resize(b.len(), 0.0);
                sweeps_on_checked_diagonal(&lvl.a, b, x, omega, sweeps, diag, smooth_r);
                sweeps as u64
            }
            kind => {
                if from_zero {
                    x.fill(0.0);
                }
                smooth(kind, &lvl.a, b, x, sweeps);
                let directions = if kind == SmootherKind::SymmetricGaussSeidel {
                    2
                } else {
                    1
                };
                (directions * sweeps) as u64
            }
        }
    }

    /// The wrapped hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &AmgHierarchy {
        self.core.hierarchy()
    }

    /// The cycling strategy.
    #[must_use]
    pub fn cycle(&self) -> CycleKind {
        self.core.cycle
    }

    /// The shared core (hierarchy + smoother diagonals).
    #[must_use]
    pub fn core(&self) -> &Arc<AmgCore> {
        &self.core
    }

    /// Runs one cycle on `A_level x = b` from the zero guess and
    /// overwrites `x` with the result; the incoming `x` is not read, so
    /// no caller zero-fills it. The zero guess is what lets the
    /// pre-smoother skip its first residual
    /// ([`sweep_from_zero`]).
    fn run_cycle(&self, level: usize, b: &[f64], x: &mut [f64]) {
        let levels = self.core.hierarchy.levels();
        let lvl = &levels[level];
        let Some(agg) = lvl.agg.as_ref() else {
            // Coarsest level: exact solve.
            self.counts.borrow_mut().level_visits[level] += 1;
            self.core.hierarchy.coarse_solve(b, x);
            return;
        };
        // Borrow this level's scratch for the duration; the RefCell
        // borrow is released before recursing to the next level.
        let mut s = std::mem::take(&mut self.v_scratch.borrow_mut()[level]);
        // Pre-smoothing.
        let mut passes = self.smooth_level(level, b, x, &mut s.smooth_r, true);
        // Coarse-grid correction on the residual.
        s.r.resize(b.len(), 0.0);
        lvl.a.residual_into(b, x, &mut s.r);
        s.rc.resize(agg.n_coarse, 0.0);
        restrict_into(agg, &s.r, &mut s.rc);
        s.xc.resize(agg.n_coarse, 0.0);
        match self.core.cycle {
            CycleKind::VCycle => self.run_cycle(level + 1, &s.rc, &mut s.xc),
            CycleKind::KCycle => self.kcycle_coarse_solve(level + 1, &s.rc, &mut s.xc),
        }
        prolongate_add(agg, &s.xc, x);
        // Post-smoothing.
        passes += 1 + self.smooth_level(level, b, x, &mut s.smooth_r, false);
        self.v_scratch.borrow_mut()[level] = s;
        let mut counts = self.counts.borrow_mut();
        counts.level_visits[level] += 1;
        counts.level_matrix_passes[level] += passes;
    }

    /// Solves the coarse problem with at most two steps of flexible CG,
    /// each preconditioned by the next level's cycle (Notay's K-cycle).
    /// Overwrites `x`, like [`run_cycle`](Self::run_cycle).
    fn kcycle_coarse_solve(&self, level: usize, b: &[f64], x: &mut [f64]) {
        let a = &self.core.hierarchy.levels()[level].a;
        let n = b.len();
        // This level's K-cycle scratch; held across the nested
        // `run_cycle` calls, which use the separate `v_scratch` pool.
        let mut s = std::mem::take(&mut self.k_scratch.borrow_mut()[level]);
        // --- First inner iteration ---
        // z1 = cycle(b); the Krylov step decides how far to go along it.
        s.z1.resize(n, 0.0);
        self.run_cycle(level, b, &mut s.z1);
        s.az1.resize(n, 0.0);
        a.spmv_into(&s.z1, &mut s.az1);
        self.counts.borrow_mut().level_matrix_passes[level] += 1;
        let d1 = dot(&s.z1, &s.az1);
        if d1 <= 0.0 || !d1.is_finite() {
            x.copy_from_slice(&s.z1);
            self.k_scratch.borrow_mut()[level] = s;
            return;
        }
        let rho1 = dot(&s.z1, b);
        let alpha1 = rho1 / d1;
        // Residual after the first step.
        s.r.resize(n, 0.0);
        for ((ri, bi), azi) in s.r.iter_mut().zip(b).zip(&s.az1) {
            *ri = bi - alpha1 * azi;
        }
        let rnorm2: f64 = dot(&s.r, &s.r);
        let bnorm2: f64 = dot(b, b);
        // Cheap skip: if the first step already reduced the residual a
        // lot, a second inner iteration buys little.
        if rnorm2 <= 0.04 * bnorm2 {
            for (xi, z1i) in x.iter_mut().zip(&s.z1) {
                *xi = alpha1 * z1i;
            }
            self.k_scratch.borrow_mut()[level] = s;
            return;
        }
        // --- Second inner iteration (flexible CG step) ---
        s.z2.resize(n, 0.0);
        self.run_cycle(level, &s.r, &mut s.z2);
        s.az2.resize(n, 0.0);
        a.spmv_into(&s.z2, &mut s.az2);
        self.counts.borrow_mut().level_matrix_passes[level] += 1;
        // Orthogonalise z2 against z1 in the A-inner product.
        let beta = dot(&s.z2, &s.az1) / d1;
        s.p2.resize(n, 0.0);
        for ((pi, zi), z1i) in s.p2.iter_mut().zip(&s.z2).zip(&s.z1) {
            *pi = zi - beta * z1i;
        }
        s.ap2.resize(n, 0.0);
        for ((api, a2), a1) in s.ap2.iter_mut().zip(&s.az2).zip(&s.az1) {
            *api = a2 - beta * a1;
        }
        let d2 = dot(&s.p2, &s.ap2);
        if d2 <= 0.0 || !d2.is_finite() {
            for (xi, z1i) in x.iter_mut().zip(&s.z1) {
                *xi = alpha1 * z1i;
            }
            self.k_scratch.borrow_mut()[level] = s;
            return;
        }
        let alpha2 = dot(&s.p2, &s.r) / d2;
        for ((xi, z1i), p2i) in x.iter_mut().zip(&s.z1).zip(&s.p2) {
            *xi = alpha1 * z1i + alpha2 * p2i;
        }
        self.k_scratch.borrow_mut()[level] = s;
    }
}

impl Preconditioner for AmgPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.run_cycle(0, r, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amg::hierarchy::AmgParams;
    use crate::csr::CsrMatrix;
    use crate::pcg::pcg;
    use crate::vector::norm2;

    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut t = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                let mut deg = 0.0;
                if i + 1 < nx {
                    t.push((idx(i, j), idx(i + 1, j), -1.0));
                    t.push((idx(i + 1, j), idx(i, j), -1.0));
                    deg += 1.0;
                }
                if i > 0 {
                    deg += 1.0;
                }
                if j + 1 < ny {
                    t.push((idx(i, j), idx(i, j + 1), -1.0));
                    t.push((idx(i, j + 1), idx(i, j), -1.0));
                    deg += 1.0;
                }
                if j > 0 {
                    deg += 1.0;
                }
                // Small shift keeps the Neumann-like operator SPD.
                t.push((idx(i, j), idx(i, j), deg + 0.01));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn vcycle_preconditioned_pcg_converges() {
        let a = laplacian_2d(24, 24);
        let h = AmgHierarchy::build(&Arc::new(a.clone()), AmgParams::default());
        let m = AmgPreconditioner::new(h, CycleKind::VCycle);
        let b = vec![1.0; a.rows()];
        let res = pcg(&a, &b, &m, 1e-10, 100);
        assert!(res.converged, "final {:e}", res.trace.final_residual());
    }

    #[test]
    fn kcycle_preconditioned_pcg_converges() {
        let a = laplacian_2d(24, 24);
        let h = AmgHierarchy::build(&Arc::new(a.clone()), AmgParams::default());
        let m = AmgPreconditioner::new(h, CycleKind::KCycle);
        let b = vec![1.0; a.rows()];
        let res = pcg(&a, &b, &m, 1e-10, 100);
        assert!(res.converged);
        let mut r = vec![0.0; b.len()];
        a.residual_into(&b, &res.x, &mut r);
        assert!(norm2(&r) / norm2(&b) < 1e-9);
    }

    #[test]
    fn amg_pcg_beats_jacobi_pcg_in_iterations() {
        let a = laplacian_2d(32, 32);
        let b = vec![1.0; a.rows()];
        let h = AmgHierarchy::build(&Arc::new(a.clone()), AmgParams::default());
        let amg = AmgPreconditioner::new(h, CycleKind::KCycle);
        let jac = crate::pcg::JacobiPreconditioner::new(&a);
        let res_amg = pcg(&a, &b, &amg, 1e-8, 500);
        let res_jac = pcg(&a, &b, &jac, 1e-8, 500);
        assert!(res_amg.converged && res_jac.converged);
        assert!(
            res_amg.trace.iterations() < res_jac.trace.iterations(),
            "amg {} vs jacobi {}",
            res_amg.trace.iterations(),
            res_jac.trace.iterations()
        );
    }

    #[test]
    fn single_cycle_reduces_error() {
        let a = laplacian_2d(16, 16);
        let h = AmgHierarchy::build(&Arc::new(a.clone()), AmgParams::default());
        let m = AmgPreconditioner::new(h, CycleKind::VCycle);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| ((i * 7) % 13) as f64).collect();
        let b = a.spmv(&x_true);
        let mut z = vec![0.0; b.len()];
        m.apply(&b, &mut z);
        let err0 = norm2(&x_true);
        let err1: f64 = x_true
            .iter()
            .zip(&z)
            .map(|(t, zi)| (t - zi) * (t - zi))
            .sum::<f64>()
            .sqrt();
        assert!(err1 < err0, "one cycle should reduce the error norm");
    }
}
