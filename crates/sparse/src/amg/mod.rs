//! Aggregation-based algebraic multigrid (AMG).
//!
//! This module implements the solver core of PowerRush as described in
//! the IR-Fusion paper (Section III-B):
//!
//! 1. **Setup stage** — recursively group strongly connected nodes into
//!    aggregates, producing progressively coarser Galerkin operators
//!    `A_{l+1} = P^T A_l P` with piecewise-constant prolongation
//!    ([`aggregation`], [`hierarchy`]). A level costs a few linear
//!    sweeps over its CSR arrays, all through one workspace per build.
//!    An edited matrix on the same pattern is set up from its base's
//!    hierarchy ([`crate::Solver::rebuild_from`]): each level proves
//!    its pairings still hold on the rows that changed and re-sums only
//!    the coarse rows they fall in, bit for bit what a cold build
//!    gives.
//! 2. **Preconditioning phase** — a multigrid cycle (V-cycle or Notay's
//!    K-cycle) applied as the implicit preconditioner `M^{-1}`
//!    ([`cycle`], [`AmgPreconditioner`]).
//! 3. **CG method** — the cycle is plugged into flexible PCG
//!    ([`crate::pcg::pcg`]) giving the **AMG-PCG** solver.

pub mod aggregation;
pub mod cycle;
pub mod hierarchy;

pub use aggregation::{aggregate_pairwise, Aggregation};
pub use cycle::{AmgCore, AmgPreconditioner, CycleCounts, CycleKind};
pub use hierarchy::{AmgHierarchy, AmgParams};

#[cfg(test)]
mod parity;
#[cfg(test)]
mod rebuild_parity;
