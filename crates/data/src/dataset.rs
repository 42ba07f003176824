//! Designs, datasets, and the contest-style split.

use crate::fake;
use crate::golden::golden_drops;
use crate::real_like;
use irf_pg::PowerGrid;

/// Difficulty class of a design (the curriculum's difficulty measurer
/// is *predefined* on exactly this label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignClass {
    /// Artificially generated, regular — "easier".
    Fake,
    /// Real(-like), irregular — "harder".
    Real,
}

/// One labelled power-grid design.
#[derive(Debug, Clone)]
pub struct Design {
    /// Human-readable name.
    pub name: String,
    /// Difficulty class.
    pub class: DesignClass,
    /// The circuit model.
    pub grid: PowerGrid,
    /// Exact per-node IR drops (golden).
    pub golden: Vec<f64>,
}

impl Design {
    /// Builds a labelled fake design from a seed.
    #[must_use]
    pub fn fake(seed: u64) -> Self {
        let grid = fake::generate(seed);
        let golden = golden_drops(&grid);
        Design {
            name: format!("fake_{seed:03}"),
            class: DesignClass::Fake,
            grid,
            golden,
        }
    }

    /// Builds a labelled real-like design from a seed.
    #[must_use]
    pub fn real_like(seed: u64) -> Self {
        let grid = real_like::generate(seed);
        let golden = golden_drops(&grid);
        Design {
            name: format!("real_{seed:03}"),
            class: DesignClass::Real,
            grid,
            golden,
        }
    }

    /// Worst-case golden IR drop of the design.
    #[must_use]
    pub fn worst_drop(&self) -> f64 {
        self.golden.iter().copied().fold(0.0, f64::max)
    }
}

/// A corpus of designs with the contest-style split: some real designs
/// held out for testing, everything else (fake + remaining real) for
/// training.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// All designs.
    pub designs: Vec<Design>,
    /// Indices of the held-out test designs.
    pub test_indices: Vec<usize>,
}

impl Dataset {
    /// Generates the corpus: `n_fake` fake + `n_real` real-like
    /// designs, holding out `n_test` of the real designs for testing
    /// (the ICCAD-2023 setup holds out 10 of 20 real designs).
    ///
    /// # Panics
    ///
    /// Panics if `n_test > n_real`.
    #[must_use]
    pub fn generate(n_fake: usize, n_real: usize, n_test: usize, seed: u64) -> Self {
        assert!(
            n_test <= n_real,
            "cannot hold out more real designs than exist"
        );
        let mut designs = Vec::with_capacity(n_fake + n_real);
        for i in 0..n_fake {
            designs.push(Design::fake(seed.wrapping_add(i as u64)));
        }
        for i in 0..n_real {
            designs.push(Design::real_like(seed.wrapping_add(1000 + i as u64)));
        }
        // Hold out the last n_test real designs.
        let test_indices = (n_fake + n_real - n_test..n_fake + n_real).collect();
        Dataset {
            designs,
            test_indices,
        }
    }

    /// Indices of the training designs.
    #[must_use]
    pub fn train_indices(&self) -> Vec<usize> {
        (0..self.designs.len())
            .filter(|i| !self.test_indices.contains(i))
            .collect()
    }

    /// The training designs.
    pub fn train(&self) -> impl Iterator<Item = &Design> {
        self.train_indices().into_iter().map(|i| &self.designs[i])
    }

    /// The held-out test designs.
    pub fn test(&self) -> impl Iterator<Item = &Design> + '_ {
        self.test_indices.iter().map(|&i| &self.designs[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_respects_counts_and_split() {
        let ds = Dataset::generate(4, 3, 2, 42);
        assert_eq!(ds.designs.len(), 7);
        assert_eq!(ds.test_indices, vec![5, 6]);
        assert_eq!(ds.train_indices().len(), 5);
        // Test designs are all real.
        assert!(ds.test().all(|d| d.class == DesignClass::Real));
        // Training mixes fake and the remaining real.
        assert!(ds.train().any(|d| d.class == DesignClass::Fake));
        assert!(ds.train().any(|d| d.class == DesignClass::Real));
    }

    #[test]
    fn designs_carry_golden_labels() {
        let d = Design::fake(7);
        assert_eq!(d.golden.len(), d.grid.nodes.len());
        assert!(d.worst_drop() > 0.0);
    }

    #[test]
    fn real_designs_have_worse_hotspots_relative_to_mean() {
        // Hotspot clustering concentrates drop: peak/mean should be
        // higher for the real-like class on average.
        let ratio = |d: &Design| {
            let mean = d.golden.iter().sum::<f64>() / d.golden.len() as f64;
            d.worst_drop() / mean.max(1e-12)
        };
        let fake_avg: f64 = (0..3).map(|s| ratio(&Design::fake(s))).sum::<f64>() / 3.0;
        let real_avg: f64 = (0..3).map(|s| ratio(&Design::real_like(s))).sum::<f64>() / 3.0;
        assert!(
            real_avg > fake_avg,
            "real-like designs should be peakier: {real_avg:.2} vs {fake_avg:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot hold out")]
    fn oversized_test_split_panics() {
        let _ = Dataset::generate(1, 1, 2, 0);
    }
}
