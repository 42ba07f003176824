//! Coordinate-format (COO) assembly matrix.
//!
//! Modified nodal analysis stamps each circuit element independently, so
//! the natural assembly format is a bag of `(row, col, value)` triplets
//! with duplicates summed. [`TripletMatrix::to_csr`] compresses the bag
//! into a [`CsrMatrix`] for the solvers.

use crate::csr::CsrMatrix;

/// A growable coordinate-format sparse matrix used for assembly.
///
/// Duplicate entries are allowed and are summed during conversion to
/// CSR, matching the semantics of MNA stamping.
///
/// # Example
///
/// ```
/// use irf_sparse::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicate: summed
/// t.push(1, 1, 4.0);
/// let a = t.to_csr();
/// assert_eq!(a.get(0, 0), 3.0);
/// assert_eq!(a.get(1, 1), 4.0);
/// assert_eq!(a.get(0, 1), 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows x cols` assembly matrix.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with room for `cap` entries.
    #[must_use]
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of raw (possibly duplicate) entries pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends one `(row, col, value)` entry.
    ///
    /// Zero values are kept (they may cancel later duplicates), but
    /// entries that sum to exactly zero are dropped by [`to_csr`].
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    ///
    /// [`to_csr`]: TripletMatrix::to_csr
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Stamps a two-terminal conductance `g` between nodes `a` and `b`
    /// (the classic MNA resistor stamp): adds `g` to the two diagonal
    /// entries and `-g` to the two off-diagonals.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of bounds, or if the matrix is not
    /// square.
    pub fn stamp_conductance(&mut self, a: usize, b: usize, g: f64) {
        assert_eq!(
            self.rows, self.cols,
            "conductance stamp needs a square matrix"
        );
        self.push(a, a, g);
        self.push(b, b, g);
        self.push(a, b, -g);
        self.push(b, a, -g);
    }

    /// Adds `g` to the diagonal entry of node `a` — the stamp for a
    /// conductance from `a` to a Dirichlet (eliminated) node such as a
    /// voltage pad.
    pub fn stamp_grounded_conductance(&mut self, a: usize, g: f64) {
        self.push(a, a, g);
    }

    /// Compresses into CSR, summing duplicates and dropping entries
    /// whose sum is exactly zero.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_triplets(self.rows, self.cols, &self.entries)
    }

    /// Iterates over the raw entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(usize, usize, f64)> {
        self.entries.iter()
    }
}

impl Extend<(usize, usize, f64)> for TripletMatrix {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternScatter;

    #[test]
    fn new_is_empty() {
        let t = TripletMatrix::new(3, 3);
        assert!(t.is_empty());
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 0, 1.5);
        t.push(0, 0, 2.5);
        assert_eq!(t.to_csr().get(0, 0), 4.0);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(0, 1, -1.0);
        t.push(0, 0, 1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn conductance_stamp_is_symmetric_and_zero_row_sum() {
        let mut t = TripletMatrix::new(3, 3);
        t.stamp_conductance(0, 2, 4.0);
        let a = t.to_csr();
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(2, 2), 4.0);
        assert_eq!(a.get(0, 2), -4.0);
        assert_eq!(a.get(2, 0), -4.0);
        // Row sums are zero for a floating resistor network.
        for r in 0..3 {
            let sum: f64 = (0..3).map(|c| a.get(r, c)).sum();
            assert!(sum.abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn extend_collects_triplets() {
        let mut t = TripletMatrix::new(2, 2);
        t.extend([(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pattern_assembly_matches_full_assembly() {
        let mut base = TripletMatrix::new(3, 3);
        base.stamp_conductance(0, 1, 2.0);
        base.stamp_conductance(1, 2, 3.0);
        base.stamp_grounded_conductance(0, 5.0);
        let pattern = base.to_csr();

        let mut edited = TripletMatrix::new(3, 3);
        edited.stamp_conductance(0, 1, 2.0);
        edited.stamp_conductance(1, 2, 4.5); // resistance edit
        edited.stamp_grounded_conductance(0, 5.0);
        let scatter = |t: &TripletMatrix| {
            let mut scatter = PatternScatter::new(&pattern);
            for &(r, c, v) in t.iter() {
                scatter.add(r, c, v);
            }
            scatter.finish()
        };
        let fast = scatter(&edited).expect("same pattern");
        assert_eq!(fast, edited.to_csr());

        // A new connection is outside the pattern: decline.
        let mut rewired = TripletMatrix::new(3, 3);
        rewired.stamp_conductance(0, 2, 1.0);
        assert!(scatter(&rewired).is_none());
    }
}
