//! Two-pass, memory-lean CSR assembly.
//!
//! [`crate::TripletMatrix`] buffers every contribution as a
//! `(usize, usize, f64)` triplet — 24 bytes per entry — before
//! converting to CSR, which at million-node scale means hundreds of
//! megabytes of scratch that exists only to be bucket-sorted and
//! thrown away. [`CsrAssembler`] removes the triplet buffer with the
//! classic two-pass scheme:
//!
//! 1. **Count pass** — walk the stamp sources once, incrementing
//!    per-row entry counts (no values stored).
//! 2. **Fill pass** — prefix-sum the counts into bucket offsets,
//!    allocate one exactly-sized `(col, value)` array (16 bytes per
//!    entry, no row index), and walk the sources a second time
//!    writing each contribution directly into its row bucket.
//!
//! The bucketed array then finishes through the same
//! parallel-sort + serial-merge back half as
//! [`CsrMatrix::from_triplets`] (`CsrMatrix::from_bucketed`), so a
//! two-pass assembly is **bitwise identical** to the triplet path
//! whenever the fill pass pushes contributions in the same order the
//! triplet path would have: bucket sort preserves per-row insertion
//! order, and per-row insertion order is all the stable column sort
//! and duplicate merge can observe.
//!
//! MNA assembly in `irf-pg` walks its stamps twice — once into
//! [`CsrAssembler::count_entry`], once into [`CsrAssembler::push`].

use crate::csr::CsrMatrix;

/// Incremental two-pass CSR builder; see the [module docs](self).
///
/// # Example
///
/// ```
/// use irf_sparse::{CsrAssembler, CsrMatrix};
///
/// let entries = [(0, 0, 2.0), (1, 1, 2.0), (0, 1, -2.0), (1, 0, -2.0)];
/// let mut asm = CsrAssembler::new(2, 2);
/// for &(r, _, _) in &entries {
///     asm.count_entry(r);
/// }
/// asm.begin_fill();
/// for &(r, c, v) in &entries {
///     asm.push(r, c, v);
/// }
/// assert_eq!(asm.finish(), CsrMatrix::from_triplets(2, 2, &entries));
/// ```
#[derive(Debug, Clone)]
pub struct CsrAssembler {
    rows: usize,
    cols: usize,
    /// During the count pass: `offsets[r + 1]` accumulates row `r`'s
    /// entry count. After [`CsrAssembler::begin_fill`]: the prefix-sum
    /// bucket offsets (`rows + 1` entries).
    offsets: Vec<usize>,
    /// Per-row write cursors for the fill pass (empty until
    /// `begin_fill`).
    cursor: Vec<usize>,
    /// Row-bucketed `(col, value)` entries (empty until `begin_fill`).
    entries: Vec<(usize, f64)>,
    filling: bool,
}

impl CsrAssembler {
    /// Starts a two-pass assembly of a `rows x cols` matrix in the
    /// count pass.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        CsrAssembler {
            rows,
            cols,
            offsets: vec![0usize; rows + 1],
            cursor: Vec::new(),
            entries: Vec::new(),
            filling: false,
        }
    }

    /// Count pass: one future entry in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds or the fill pass has begun.
    pub fn count_entry(&mut self, r: usize) {
        assert!(!self.filling, "count_entry after begin_fill");
        assert!(r < self.rows, "row {r} out of bounds");
        self.offsets[r + 1] += 1;
    }

    /// Ends the count pass: prefix-sums the counts into bucket
    /// offsets and allocates the exactly-sized entry array. Stamp
    /// calls are accepted after this.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn begin_fill(&mut self) {
        assert!(!self.filling, "begin_fill called twice");
        for i in 0..self.rows {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.cursor = self.offsets[..self.rows].to_vec();
        self.entries = vec![(0usize, 0.0f64); self.offsets[self.rows]];
        self.filling = true;
    }

    /// Fill pass: writes one `(r, c, v)` contribution into row `r`'s
    /// bucket. Duplicates accumulate at [`CsrAssembler::finish`] in
    /// push order, exactly like [`crate::TripletMatrix::push`].
    ///
    /// # Panics
    ///
    /// Panics if out of bounds, before `begin_fill`, or when row `r`
    /// receives more entries than were counted for it.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(self.filling, "push before begin_fill");
        assert!(
            r < self.rows && c < self.cols,
            "entry ({r},{c}) out of bounds"
        );
        let k = self.cursor[r];
        assert!(
            k < self.offsets[r + 1],
            "row {r} overflows its counted entries"
        );
        self.entries[k] = (c, v);
        self.cursor[r] = k + 1;
    }

    /// Finishes assembly: every row must have received exactly the
    /// entries it counted. Sorting, duplicate merging and exact-zero
    /// dropping run through `CsrMatrix::from_bucketed`, the same
    /// back half as [`CsrMatrix::from_triplets`].
    ///
    /// # Panics
    ///
    /// Panics if `begin_fill` was never called or some row is
    /// underfilled.
    #[must_use]
    pub fn finish(self) -> CsrMatrix {
        assert!(self.filling, "finish before begin_fill");
        for r in 0..self.rows {
            assert!(
                self.cursor[r] == self.offsets[r + 1],
                "row {r} underfilled: {} of {} counted entries",
                self.cursor[r] - self.offsets[r],
                self.offsets[r + 1] - self.offsets[r],
            );
        }
        CsrMatrix::from_bucketed(self.rows, self.cols, &self.offsets, self.entries)
    }

    /// Number of rows of the matrix under assembly.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the matrix under assembly.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entries counted so far (count pass) or allocated (fill pass).
    #[must_use]
    pub fn counted(&self) -> usize {
        if self.filling {
            self.offsets[self.rows]
        } else {
            self.offsets.iter().sum()
        }
    }
}

/// Value-only re-assembly into the sparsity pattern of an existing
/// matrix: contributions are scatter-added straight into the
/// pattern's value slots as they are produced — no sort, and no
/// buffer of them.
///
/// This is the incremental fast path for when only values changed
/// (e.g. a strap/via resistance edit re-stamps the same circuit
/// topology). The result is **bitwise identical** to a full assembly
/// of the same contribution sequence: duplicates accumulate in the
/// order they are added, the order the stable column sort of the full
/// path preserves.
#[derive(Debug, Clone)]
pub struct PatternScatter<'a> {
    pattern: &'a CsrMatrix,
    values: Vec<f64>,
    /// Set once a contribution landed outside the pattern.
    missed: bool,
}

impl<'a> PatternScatter<'a> {
    /// Starts from all-zero values in `pattern`'s structure.
    #[must_use]
    pub fn new(pattern: &'a CsrMatrix) -> Self {
        PatternScatter {
            pattern,
            values: vec![0.0; pattern.nnz()],
            missed: false,
        }
    }

    /// Adds `v` at `(r, c)`. A position outside the pattern is
    /// remembered and makes [`PatternScatter::finish`] decline.
    ///
    /// # Panics
    ///
    /// Panics if `(r, c)` is out of bounds for the pattern's shape.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.pattern.rows() && c < self.pattern.cols(),
            "entry ({r},{c}) out of bounds"
        );
        let (s, e) = (self.pattern.row_ptr()[r], self.pattern.row_ptr()[r + 1]);
        match self.pattern.col_idx()[s..e].binary_search(&c) {
            Ok(k) => self.values[s + k] += v,
            Err(_) => self.missed = true,
        }
    }

    /// The matrix, or `None` when the pattern cannot represent the
    /// contributions exactly: one landed outside it, or an accumulated
    /// value is exactly `0.0` (which a full assembly would have
    /// dropped, changing the pattern). Callers fall back to a full
    /// assembly.
    #[must_use]
    pub fn finish(self) -> Option<CsrMatrix> {
        if self.missed {
            return None;
        }
        CsrMatrix::with_pattern_values(self.pattern, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    /// Pseudo-random but deterministic segment list exercising
    /// duplicates (parallel segments) and grounded stamps.
    fn segments(n: usize, count: usize) -> Vec<(usize, usize, f64)> {
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (s >> 33) as usize % n;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (s >> 33) as usize % n;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let g = 0.25 + ((s >> 40) as f64) / 65536.0;
            out.push((a, b, g));
        }
        out
    }

    #[test]
    fn matches_triplet_path_bitwise() {
        let n = 200;
        let segs = segments(n, 1500);
        let mut t = TripletMatrix::with_capacity(n, n, 4 * segs.len());
        for &(a, b, g) in &segs {
            if a == b {
                t.stamp_grounded_conductance(a, g);
            } else {
                t.stamp_conductance(a, b, g);
            }
        }
        let mut asm = CsrAssembler::new(n, n);
        for &(r, _, _) in t.iter() {
            asm.count_entry(r);
        }
        asm.begin_fill();
        for &(r, c, v) in t.iter() {
            asm.push(r, c, v);
        }
        let via_triplets = t.to_csr();
        let via_assembler = asm.finish();
        assert_eq!(via_triplets, via_assembler);
        // Bitwise, not just approximately: compare raw value bits.
        let bits_t: Vec<u64> = via_triplets.values().iter().map(|v| v.to_bits()).collect();
        let bits_a: Vec<u64> = via_assembler.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_t, bits_a);
    }

    #[test]
    fn duplicate_cancellation_drops_entries_like_from_triplets() {
        let mut asm = CsrAssembler::new(2, 2);
        asm.count_entry(0);
        asm.count_entry(0);
        asm.count_entry(1);
        asm.begin_fill();
        asm.push(0, 1, 3.0);
        asm.push(0, 1, -3.0); // sums to exact zero -> dropped
        asm.push(1, 1, 2.0);
        let a = asm.finish();
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 1, 3.0), (0, 1, -3.0), (1, 1, 2.0)]);
        assert_eq!(a, b);
        assert_eq!(a.nnz(), 1);
    }

    #[test]
    fn empty_assembly_produces_empty_matrix() {
        let mut asm = CsrAssembler::new(3, 3);
        asm.begin_fill();
        let a = asm.finish();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "underfilled")]
    fn underfill_is_caught() {
        let mut asm = CsrAssembler::new(2, 2);
        asm.count_entry(0);
        asm.begin_fill();
        let _ = asm.finish();
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overfill_is_caught() {
        let mut asm = CsrAssembler::new(2, 2);
        asm.count_entry(0);
        asm.begin_fill();
        asm.push(0, 0, 1.0);
        asm.push(0, 1, 1.0);
    }
}
