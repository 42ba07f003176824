//! Strength-of-connection and greedy pairwise aggregation.
//!
//! Power-grid conductance matrices are symmetric M-matrices (positive
//! diagonal, non-positive off-diagonals), so the classic negative-
//! coupling strength measure applies: node `j` is strongly connected to
//! `i` when `-a_ij >= theta * max_k(-a_ik)`.

use std::time::Instant;

use crate::csr::CsrMatrix;

/// A fine-to-coarse aggregate assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregation {
    /// `assign[i]` is the coarse aggregate index of fine node `i`.
    pub assign: Vec<usize>,
    /// Number of aggregates (coarse dimension).
    pub n_coarse: usize,
}

impl Aggregation {
    /// Sizes of each aggregate.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn aggregate_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_coarse];
        for &a in &self.assign {
            sizes[a] += 1;
        }
        sizes
    }
}

/// Scratch and phase timers of one hierarchy build, shared by both
/// pairings and both Galerkin products of every level. Each buffer
/// grows to what the finest level needs on first use and is reused,
/// never shrunk, on the coarser ones.
#[derive(Debug, Default)]
pub(crate) struct SetupWorkspace {
    /// Per-row strength threshold `theta * max_k(-a_ik)`.
    threshold: Vec<f64>,
    /// Per-row count of strong neighbours.
    degree: Vec<usize>,
    /// [`bucket_rows`] output: bucket offsets and the rows they list.
    pub(super) bucket_ptr: Vec<usize>,
    pub(super) bucket_list: Vec<usize>,
    /// `acc[c]` belongs to the coarse row being summed iff
    /// `stamp[c] == epoch`.
    pub(super) stamp: Vec<usize>,
    pub(super) epoch: usize,
    pub(super) acc: Vec<f64>,
    /// Distinct coarse columns of the row being summed (a prefix).
    pub(super) touched: Vec<usize>,
    /// Seconds spent pairing / forming products so far.
    pub(crate) pairing_s: f64,
    pub(crate) galerkin_s: f64,
}

/// Stable counting sort of rows `0..n` by `key(row) < n_keys`: afterwards
/// `rows[ptr[k]..ptr[k + 1]]` lists the rows of key `k` in ascending
/// order.
pub(super) fn bucket_rows(
    n: usize,
    n_keys: usize,
    key: impl Fn(usize) -> usize,
    ptr: &mut Vec<usize>,
    rows: &mut Vec<usize>,
) {
    ptr.clear();
    ptr.resize(n_keys + 2, 0);
    for r in 0..n {
        ptr[key(r) + 2] += 1;
    }
    for k in 2..n_keys + 2 {
        ptr[k] += ptr[k - 1];
    }
    // `ptr[k + 1]` is bucket k's write cursor, and its end once filled.
    if rows.len() < n {
        rows.resize(n, 0);
    }
    for r in 0..n {
        let slot = &mut ptr[key(r) + 1];
        rows[*slot] = r;
        *slot += 1;
    }
}

impl SetupWorkspace {
    /// [`aggregate_pairwise`] on this workspace: three linear sweeps
    /// over the CSR arrays, no per-row list and no comparison sort.
    pub(crate) fn pairwise(&mut self, a: &CsrMatrix, theta: f64) -> Aggregation {
        assert_eq!(a.rows(), a.cols(), "aggregation needs a square matrix");
        let t0 = Instant::now();
        let n = a.rows();
        // Sweep 1: per row, the strength threshold and how many
        // off-diagonals pass it (`strong`).
        if self.threshold.len() < n {
            self.threshold.resize(n, 0.0);
            self.degree.resize(n, 0);
        }
        let (threshold, degree) = (&mut self.threshold[..n], &mut self.degree[..n]);
        let strong = |i: usize, c: usize, v: f64, t: f64| c != i && -v >= t && v < 0.0;
        let mut max_degree = 0;
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let max_neg = cols
                .iter()
                .zip(vals)
                .filter(|&(&c, _)| c != i)
                .map(|(_, &v)| -v)
                .fold(0.0_f64, f64::max);
            let t = theta * max_neg;
            let strong_entries = cols.iter().zip(vals).filter(|&(&c, &v)| strong(i, c, v, t));
            threshold[i] = t;
            degree[i] = strong_entries.count();
            max_degree = max_degree.max(degree[i]);
        }
        // Sweep 2: visit low-degree nodes first (they have the fewest
        // pairing options), ties in index order.
        bucket_rows(
            n,
            max_degree + 1,
            |i| degree[i],
            &mut self.bucket_ptr,
            &mut self.bucket_list,
        );
        // Sweep 3: pair each still-free node with its strongest
        // still-free strong neighbour. Strict `>` keeps the first column
        // among equal couplings, and every strong coupling exceeds the
        // initial 0.
        const UNASSIGNED: usize = usize::MAX;
        let mut assign = vec![UNASSIGNED; n];
        let mut n_coarse = 0;
        for &i in &self.bucket_list[..n] {
            if assign[i] != UNASSIGNED {
                continue;
            }
            let (cols, vals) = a.row(i);
            let (mut partner, mut best) = (UNASSIGNED, 0.0);
            for (&c, &v) in cols.iter().zip(vals) {
                if strong(i, c, v, threshold[i]) && -v > best && assign[c] == UNASSIGNED {
                    (partner, best) = (c, -v);
                }
            }
            assign[i] = n_coarse;
            if partner != UNASSIGNED {
                assign[partner] = n_coarse;
            }
            n_coarse += 1;
        }
        self.pairing_s += t0.elapsed().as_secs_f64();
        Aggregation { assign, n_coarse }
    }

    /// Two rounds of pairwise aggregation composed, giving aggregates
    /// of up to four fine nodes (coarsening ratio approaching 4).
    pub(crate) fn double_pairwise(&mut self, a: &CsrMatrix, theta: f64) -> Aggregation {
        let first = self.pairwise(a, theta);
        let coarse = self.galerkin(a, &first);
        let second = self.pairwise(&coarse, theta);
        let assign = first.assign.iter().map(|&mid| second.assign[mid]).collect();
        Aggregation {
            assign,
            n_coarse: second.n_coarse,
        }
    }
}

/// Greedy pairwise aggregation on the strong couplings of `a`: `j` is
/// a strong neighbour of `i` when `a_ij < 0` and
/// `-a_ij >= theta * max_k(-a_ik)`. `theta` in `[0, 1]`: `0.0` keeps
/// every negative coupling, larger values only the strongest.
///
/// Visits unaggregated nodes in order of ascending strong degree (ties
/// in index order) and pairs each with its strongest unaggregated
/// strong neighbour (ties to the lowest column); leftover nodes form
/// singletons. Applying this twice (as every hierarchy level does)
/// yields aggregates of up to 4 nodes — the setup used by
/// aggregation-based AMG solvers such as AGMG and PowerRush.
///
/// # Panics
///
/// Panics if `a` is not square.
#[must_use]
pub fn aggregate_pairwise(a: &CsrMatrix, theta: f64) -> Aggregation {
    SetupWorkspace::default().pairwise(a, theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amg::parity::strength_graph;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn strength_graph_of_chain() {
        let a = laplacian_1d(4);
        let g = strength_graph(&a, 0.5);
        assert_eq!(g[0].len(), 1);
        assert_eq!(g[1].len(), 2);
        assert_eq!(g[0][0].0, 1);
    }

    #[test]
    fn pairwise_covers_every_node() {
        let a = laplacian_1d(11);
        let agg = aggregate_pairwise(&a, 0.25);
        assert_eq!(agg.assign.len(), 11);
        assert!(agg.assign.iter().all(|&x| x < agg.n_coarse));
        // Every aggregate index is used.
        let sizes = agg.aggregate_sizes();
        assert!(sizes.iter().all(|&s| (1..=2).contains(&s)));
    }

    #[test]
    fn pairwise_roughly_halves() {
        let a = laplacian_1d(100);
        let agg = aggregate_pairwise(&a, 0.25);
        assert!(
            agg.n_coarse <= 60,
            "expected ~50 aggregates, got {}",
            agg.n_coarse
        );
    }

    #[test]
    fn double_pairwise_coarsens_harder() {
        let a = laplacian_1d(100);
        let agg = SetupWorkspace::default().double_pairwise(&a, 0.25);
        assert!(
            agg.n_coarse <= 35,
            "expected ~25 aggregates, got {}",
            agg.n_coarse
        );
        let sizes = agg.aggregate_sizes();
        assert!(sizes.iter().all(|&s| (1..=4).contains(&s)));
    }

    #[test]
    fn singleton_matrix_aggregates_to_one() {
        let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]);
        let agg = aggregate_pairwise(&a, 0.25);
        assert_eq!(agg.n_coarse, 1);
        assert_eq!(agg.assign, vec![0]);
    }
}
