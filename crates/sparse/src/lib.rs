//! Sparse linear algebra and iterative solvers for power-grid analysis.
//!
//! This crate is the numerical substrate of the IR-Fusion reproduction.
//! It provides:
//!
//! - [`CsrAssembler`] / [`CsrMatrix`]: two-pass assembly and compressed
//!   storage for the symmetric positive-definite (SPD) conductance
//!   systems that modified nodal analysis produces for power grids;
//!   [`PatternScatter`] re-stamps new values into a matrix's pattern.
//!   [`TripletMatrix`] is the simple reference assembler tests and
//!   examples build with.
//! - Classic iterative methods: [`cg::conjugate_gradient`] and the
//!   preconditioned variant [`pcg::pcg`] with pluggable
//!   [`Preconditioner`]s.
//! - An aggregation-based algebraic multigrid ([`amg::AmgHierarchy`])
//!   usable either as a standalone solver (V-cycle iteration) or as a
//!   K-cycle preconditioner inside PCG — the **AMG-PCG** solver of
//!   PowerRush that the IR-Fusion paper uses for its rough numerical
//!   solutions.
//! - A sparse Cholesky direct solver ([`cholesky`]) used to produce
//!   golden reference solutions.
//!
//! # Example
//!
//! ```
//! use irf_sparse::{TripletMatrix, solver::{Solver, SolverKind}};
//!
//! // 1-D resistor chain with Dirichlet ends folded in: tridiag(-1, 2, -1).
//! let n = 50;
//! let mut t = TripletMatrix::new(n, n);
//! for i in 0..n {
//!     t.push(i, i, 2.0);
//!     if i + 1 < n {
//!         t.push(i, i + 1, -1.0);
//!         t.push(i + 1, i, -1.0);
//!     }
//! }
//! let a = t.to_csr();
//! let b = vec![1.0; n];
//! let report = Solver::new(SolverKind::AmgPcg).solve(&a, &b);
//! assert!(report.converged);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amg;
pub mod builder;
pub mod cg;
pub mod cholesky;
pub mod csr;
pub mod error;
pub mod pcg;
pub mod smoother;
pub mod solver;
pub mod triplet;
pub mod vector;

pub use builder::{CsrAssembler, PatternScatter};
pub use csr::CsrMatrix;
pub use error::SolveError;
pub use pcg::{IdentityPreconditioner, JacobiPreconditioner, Preconditioner};
pub use solver::{SolveReport, SolveSummary, Solver, SolverKind, SolverSetup};
pub use triplet::TripletMatrix;
