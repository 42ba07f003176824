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
    /// The coarse row being summed.
    pub(super) sums: RowSums,
    /// Seconds spent pairing / forming products so far.
    pub(crate) pairing_s: f64,
    pub(crate) galerkin_s: f64,
}

/// Scratch of one Galerkin product's row sums: `acc[c]` belongs to the
/// coarse row being summed iff `stamp[c] == epoch`, and `touched`
/// lists (as a prefix) the distinct coarse columns that row reached.
#[derive(Debug, Default)]
pub(crate) struct RowSums {
    pub(super) stamp: Vec<usize>,
    pub(super) epoch: usize,
    pub(super) acc: Vec<f64>,
    pub(super) touched: Vec<usize>,
}

/// Marks a row no aggregate holds yet, and a row without a partner.
const UNASSIGNED: usize = usize::MAX;

/// `c` is a strong neighbour of row `i` under threshold `t`.
#[inline]
fn is_strong(i: usize, c: usize, v: f64, t: f64) -> bool {
    c != i && -v >= t && v < 0.0
}

/// Row `i`'s strength threshold `theta * max_k(-a_ik)` and how many of
/// its off-diagonals pass it (its strong degree).
#[inline]
pub(crate) fn strength(i: usize, cols: &[usize], vals: &[f64], theta: f64) -> (f64, usize) {
    let max_neg = cols
        .iter()
        .zip(vals)
        .filter(|&(&c, _)| c != i)
        .map(|(_, &v)| -v)
        .fold(0.0_f64, f64::max);
    let t = theta * max_neg;
    let strong_entries = cols
        .iter()
        .zip(vals)
        .filter(|&(&c, &v)| is_strong(i, c, v, t));
    (t, strong_entries.count())
}

/// The pairing sweep's pick for row `i` under threshold `t`: its
/// strongest strong neighbour that `free` admits, or [`UNASSIGNED`].
/// Strict `>` keeps the first column among equal couplings, and every
/// strong coupling exceeds the initial 0.
#[inline]
pub(crate) fn choose(
    i: usize,
    cols: &[usize],
    vals: &[f64],
    t: f64,
    free: impl Fn(usize) -> bool,
) -> usize {
    let (mut partner, mut best) = (UNASSIGNED, 0.0);
    for (&c, &v) in cols.iter().zip(vals) {
        if is_strong(i, c, v, t) && -v > best && free(c) {
            (partner, best) = (c, -v);
        }
    }
    partner
}

/// Why a rebuild stopped carrying its base's levels over and ran the
/// cold setup loop from some level on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// A dirty row's strong degree changed, and with it the order the
    /// pairing sweep visits rows in.
    Degree,
    /// A dirty row that leads its pair would now pick another partner.
    Choice,
    /// A re-summed coarse row lost or gained a column (a sum came out
    /// exactly zero, or stopped doing so).
    Pattern,
    /// The edited matrix is not the base's shape: another sparsity
    /// pattern, other setup parameters or cycle, or a level where the
    /// base's own descent stalled.
    Shape,
}

impl Refusal {
    /// The name the `amg_setup` span's `fallback` attribute carries.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Refusal::Degree => "degree",
            Refusal::Choice => "choice",
            Refusal::Pattern => "pattern",
            Refusal::Shape => "shape",
        }
    }
}

/// One dirty row's half of the proof that a pairing of a base matrix,
/// its aggregates numbered in creation order (`assign`), is also the
/// pairing of an edited matrix that differs from the base only in
/// dirty rows. `row` is row `i` of the edited matrix, `base_degree`
/// its strong degree on the base, and `partner` its partner in the
/// pairing with that partner's strong degree (`None` for a singleton).
///
/// The sweep visits rows by (strong degree, index) and a row reads
/// only its own values and which rows are still free. So if every
/// dirty row (a) keeps its degree, the visiting order is the base's,
/// and if (b) every dirty row that leads its pair (a singleton, or
/// first of the two in that order) still picks its partner, each step
/// of the edited sweep repeats the base's, by induction over the
/// order. When the sweep reaches `i`, the rows already taken are
/// exactly those of the aggregates created before `i`'s, so a column
/// `c` is free iff `assign(c) >= assign(i)`.
pub(crate) fn keeps_its_pair(
    i: usize,
    (cols, vals): (&[usize], &[f64]),
    base_degree: usize,
    partner: Option<(usize, usize)>,
    assign: impl Fn(usize) -> usize,
    theta: f64,
) -> Result<(), Refusal> {
    let (t, degree) = strength(i, cols, vals, theta);
    if degree != base_degree {
        return Err(Refusal::Degree);
    }
    let leads = partner.is_none_or(|(p, p_degree)| (degree, i) < (p_degree, p));
    let own = assign(i);
    let wanted = partner.map_or(UNASSIGNED, |(p, _)| p);
    if leads && choose(i, cols, vals, t, |c| assign(c) >= own) != wanted {
        return Err(Refusal::Choice);
    }
    Ok(())
}

/// A level's first pairing, aggregates numbered in creation order: a
/// hierarchy keeps it (4 B a row) so a rebuild can prove it still
/// holds. The composed aggregation alone does not say which two of an
/// aggregate's rows were paired first.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Pairing {
    pub(crate) assign: Box<[u32]>,
    pub(crate) n_pairs: usize,
}

impl Pairing {
    /// The pair (intermediate node) row `r` belongs to.
    #[inline]
    pub(crate) fn of(&self, r: usize) -> usize {
        self.assign[r] as usize
    }
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
        // off-diagonals pass it.
        if self.threshold.len() < n {
            self.threshold.resize(n, 0.0);
            self.degree.resize(n, 0);
        }
        let (threshold, degree) = (&mut self.threshold[..n], &mut self.degree[..n]);
        let mut max_degree = 0;
        for i in 0..n {
            let (cols, vals) = a.row(i);
            (threshold[i], degree[i]) = strength(i, cols, vals, theta);
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
        // still-free strong neighbour.
        let mut assign = vec![UNASSIGNED; n];
        let mut n_coarse = 0;
        for &i in &self.bucket_list[..n] {
            if assign[i] != UNASSIGNED {
                continue;
            }
            let (cols, vals) = a.row(i);
            let partner = choose(i, cols, vals, threshold[i], |c| assign[c] == UNASSIGNED);
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
    /// of up to four fine nodes (coarsening ratio approaching 4), and
    /// the first of the two pairings.
    pub(crate) fn double_pairwise(&mut self, a: &CsrMatrix, theta: f64) -> (Aggregation, Pairing) {
        let first = self.pairwise(a, theta);
        let coarse = self.galerkin(a, &first);
        let second = self.pairwise(&coarse, theta);
        let assign = first.assign.iter().map(|&mid| second.assign[mid]).collect();
        let pairing = Pairing {
            assign: first.assign.iter().map(|&mid| to_u32(mid)).collect(),
            n_pairs: first.n_coarse,
        };
        let agg = Aggregation {
            assign,
            n_coarse: second.n_coarse,
        };
        (agg, pairing)
    }
}

fn to_u32(mid: usize) -> u32 {
    u32::try_from(mid).expect("a level of at most 2^32 pairs")
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
        let (agg, _) = SetupWorkspace::default().double_pairwise(&a, 0.25);
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
