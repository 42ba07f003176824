//! Deterministic chunk autotuning for ragged data-parallel loops.
//!
//! The sparse kernels partition rows into cost-balanced chunks once at
//! matrix-build time and reuse that partition for every SpMV, smoother
//! sweep, and strength-graph pass. The original partitioner used a
//! fixed cost threshold per chunk (`SPMV_CHUNK_COST = 8192`), which is
//! a good fit for the bench-sized grids it was tuned on but loses at
//! both extremes of the million-node refactor:
//!
//! * **Huge matrices** (10^6+ rows, ~5 nnz/row) shatter into hundreds
//!   of thousands of tiny chunks. Every chunk is a unit of scheduling
//!   work — a pop from the pool's shared queue plus closure dispatch —
//!   so per-chunk overhead starts to rival the arithmetic.
//! * **Tiny matrices** (coarse AMG levels) collapse to one or two
//!   chunks, starving the pool even when rows are ragged.
//!
//! [`autotuned_chunk_cost`] picks the per-chunk cost budget from the
//! *total* work in the loop instead: aim for a fixed number of chunks
//! ([`TARGET_CHUNKS`]) so the pool's shared-queue pickup — which is
//! dynamic, idle workers grab the next unclaimed chunk — can balance
//! ragged rows, while clamping to `[MIN_CHUNK_COST, MAX_CHUNK_COST]`
//! so chunks never get small enough for scheduling overhead to win nor
//! large enough to serialize the loop.
//!
//! # Determinism
//!
//! The returned budget is a pure function of the total cost — a
//! property of the *problem*, never of the thread count or the
//! machine. The chunk boundaries it induces are therefore identical on
//! every run and every host, which is what keeps reductions (fixed
//! combine order over chunk partials) bitwise reproducible at any
//! thread count.

/// How many chunks the autotuner aims to split a loop into.
///
/// Large enough that the pool's dynamic pickup can smooth out ragged
/// rows (a worker that drew an expensive chunk simply claims fewer),
/// small enough that per-chunk scheduling overhead stays negligible.
pub const TARGET_CHUNKS: usize = 256;

/// Lower clamp on the per-chunk cost budget. Below this the fixed
/// per-chunk dispatch overhead (queue pop + closure call) is no longer
/// negligible next to the chunk's arithmetic.
pub const MIN_CHUNK_COST: usize = 1024;

/// Upper clamp on the per-chunk cost budget. Above this a handful of
/// chunks serialize the loop tail even on modest core counts.
pub const MAX_CHUNK_COST: usize = 65536;

/// Picks a per-chunk cost budget for a loop with `total_cost` units of
/// work, targeting [`TARGET_CHUNKS`] chunks clamped to
/// `[`[`MIN_CHUNK_COST`]`, `[`MAX_CHUNK_COST`]`]`.
///
/// Deterministic: depends only on `total_cost` (problem structure),
/// never on thread count, so the partitions it induces are bitwise
/// stable across runs and hosts.
///
/// ```
/// use irf_runtime::sched::{autotuned_chunk_cost, MIN_CHUNK_COST, MAX_CHUNK_COST};
///
/// // Small problems clamp low: one chunk, run inline.
/// assert_eq!(autotuned_chunk_cost(100), MIN_CHUNK_COST);
/// // Mid-range problems target ~256 chunks.
/// assert_eq!(autotuned_chunk_cost(5_000_000), 5_000_000 / 256);
/// // Multi-million-node grids clamp high: ~300 chunks, not thousands.
/// assert_eq!(autotuned_chunk_cost(20_000_000), MAX_CHUNK_COST);
/// ```
#[must_use]
pub fn autotuned_chunk_cost(total_cost: usize) -> usize {
    (total_cost / TARGET_CHUNKS).clamp(MIN_CHUNK_COST, MAX_CHUNK_COST)
}

/// Partitions `costs` (one entry per item, in order) into contiguous
/// chunk bounds where each chunk's summed cost stays at or under
/// `chunk_cost` — except that a single item whose cost exceeds the
/// budget gets a chunk of its own rather than being split.
///
/// Returns half-open `(start, end)` index ranges covering all items.
/// Deterministic: a pure function of `costs` and `chunk_cost`.
#[must_use]
pub fn cost_balanced_bounds(costs: &[usize], chunk_cost: usize) -> Vec<(usize, usize)> {
    let budget = chunk_cost.max(1);
    let mut bounds = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, &c) in costs.iter().enumerate() {
        if acc > 0 && acc + c > budget {
            bounds.push((start, i));
            start = i;
            acc = 0;
        }
        acc += c;
    }
    if start < costs.len() {
        bounds.push((start, costs.len()));
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_low_and_high() {
        assert_eq!(autotuned_chunk_cost(0), MIN_CHUNK_COST);
        assert_eq!(
            autotuned_chunk_cost(MIN_CHUNK_COST * TARGET_CHUNKS / 2),
            MIN_CHUNK_COST
        );
        assert_eq!(autotuned_chunk_cost(usize::MAX / 2), MAX_CHUNK_COST);
    }

    #[test]
    fn midrange_targets_chunk_count() {
        let total = 10_000 * TARGET_CHUNKS; // 2.56M units
        assert_eq!(autotuned_chunk_cost(total), 10_000);
    }

    #[test]
    fn bounds_cover_all_items_in_order() {
        let costs = vec![3usize, 1, 4, 1, 5, 9, 2, 6];
        let bounds = cost_balanced_bounds(&costs, 6);
        // Every item appears exactly once, in order.
        let mut covered = Vec::new();
        for &(s, e) in &bounds {
            assert!(s < e);
            covered.extend(s..e);
        }
        assert_eq!(covered, (0..costs.len()).collect::<Vec<_>>());
        // No chunk except oversized singletons exceeds the budget.
        for &(s, e) in &bounds {
            let sum: usize = costs[s..e].iter().sum();
            assert!(sum <= 6 || e - s == 1);
        }
    }

    #[test]
    fn oversized_item_gets_own_chunk() {
        let costs = vec![2usize, 100, 2];
        let bounds = cost_balanced_bounds(&costs, 5);
        assert_eq!(bounds, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_costs_yield_no_bounds() {
        assert!(cost_balanced_bounds(&[], 8).is_empty());
    }
}
