//! The IR-Fusion execution runtime: a dependency-free parallel
//! substrate shared by every hot path in the workspace.
//!
//! Two things live here:
//!
//! * [`pool`] — a scoped thread pool built on `std::thread` + channels,
//!   exposing deterministic data-parallel primitives
//!   ([`par_for`], [`par_chunks_mut`], [`par_reduce`], [`par_map`]).
//!   Results are **bitwise identical** at any thread count: work is
//!   partitioned by fixed rules that do not depend on how many threads
//!   execute it, and reductions combine partials in a fixed order.
//! * [`rng`] — a small deterministic PRNG family (SplitMix64 seeding,
//!   Xoshiro256++ stream) replacing the external `rand` crate so the
//!   workspace builds hermetically offline.
//!
//! # Thread count
//!
//! The pool sizes itself from, in priority order:
//!
//! 1. [`set_num_threads`] (wired to `FusionConfig::num_threads` by the
//!    `ir-fusion` crate),
//! 2. the `IRF_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `num_threads == 1` executes every primitive inline on the calling
//! thread with no pool interaction at all. Nested parallel calls (a
//! parallel region started from inside a pool worker) also run inline,
//! which keeps the pool deadlock-free without oversubscription.

pub mod pool;
pub mod rng;
pub mod sched;

pub use pool::{
    configured_threads, num_threads, par_chunks_mut, par_for, par_map, par_ragged_chunks_mut,
    par_reduce, set_num_threads,
};
pub use rng::{SplitMix64, Xoshiro256pp};
pub use sched::{autotuned_chunk_cost, cost_balanced_bounds};

/// Resolves the default thread count: `IRF_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("IRF_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
