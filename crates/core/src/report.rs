//! Sign-off style reporting on an [`Analysis`].
//!
//! Downstream users of an IR-drop tool want a verdict, not a map:
//! does the design meet its drop budget, where are the violations,
//! and how bad is the worst one. This module renders that from any
//! drop map the pipeline produces (rough, fused, or golden).

use crate::pipeline::Analysis;
use irf_pg::GridMap;
use std::fmt;

/// One violating tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Violation {
    /// Tile x coordinate.
    pub x: usize,
    /// Tile y coordinate.
    pub y: usize,
    /// Drop at the tile, volts.
    pub drop_volts: f32,
}

/// A drop-budget check over one map.
#[derive(Debug, Clone, PartialEq)]
pub struct SignoffReport {
    /// The budget checked against, volts.
    pub budget_volts: f32,
    /// Worst drop found, volts.
    pub worst_volts: f32,
    /// Tile of the worst drop.
    pub worst_at: (usize, usize),
    /// All violating tiles, worst first (capped at
    /// [`SignoffReport::MAX_LISTED`]).
    pub violations: Vec<Violation>,
    /// Total number of violating tiles (may exceed `violations.len()`).
    pub violation_count: usize,
}

impl SignoffReport {
    /// Cap on the individually listed violations.
    pub const MAX_LISTED: usize = 32;

    /// Checks `map` against a drop budget in volts.
    ///
    /// # Panics
    ///
    /// Panics if `budget_volts` is not positive.
    #[must_use]
    pub fn check(map: &GridMap, budget_volts: f32) -> Self {
        assert!(budget_volts > 0.0, "budget must be positive");
        let mut worst = 0.0f32;
        let mut worst_at = (0usize, 0usize);
        let mut violations = Vec::new();
        for y in 0..map.height() {
            for x in 0..map.width() {
                let v = map.get(x, y);
                if v > worst {
                    worst = v;
                    worst_at = (x, y);
                }
                if v > budget_volts {
                    violations.push(Violation {
                        x,
                        y,
                        drop_volts: v,
                    });
                }
            }
        }
        violations.sort_by(|a, b| b.drop_volts.total_cmp(&a.drop_volts));
        let violation_count = violations.len();
        violations.truncate(Self::MAX_LISTED);
        SignoffReport {
            budget_volts,
            worst_volts: worst,
            worst_at,
            violations,
            violation_count,
        }
    }

    /// `true` when the design meets its budget.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.violation_count == 0
    }

    /// Margin to the budget, volts (negative when failing).
    #[must_use]
    pub fn margin_volts(&self) -> f32 {
        self.budget_volts - self.worst_volts
    }
}

impl fmt::Display for SignoffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "IR-drop signoff: {} (budget {:.3} mV)",
            if self.passes() { "PASS" } else { "FAIL" },
            self.budget_volts * 1e3
        )?;
        writeln!(
            f,
            "  worst drop {:.3} mV at tile ({}, {}), margin {:+.3} mV",
            self.worst_volts * 1e3,
            self.worst_at.0,
            self.worst_at.1,
            self.margin_volts() * 1e3
        )?;
        if !self.passes() {
            writeln!(
                f,
                "  {} violating tiles; worst offenders:",
                self.violation_count
            )?;
            for v in self.violations.iter().take(5) {
                writeln!(f, "    ({}, {}) {:.3} mV", v.x, v.y, v.drop_volts * 1e3)?;
            }
        }
        Ok(())
    }
}

impl Analysis {
    /// Runs the sign-off check on the best available map (the fused
    /// prediction when a model ran, otherwise the rough numerical
    /// map).
    ///
    /// # Panics
    ///
    /// Panics if `budget_volts` is not positive.
    #[must_use]
    pub fn signoff(&self, budget_volts: f32) -> SignoffReport {
        let map = self.fused_map.as_ref().unwrap_or(&self.rough_map);
        SignoffReport::check(map, budget_volts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> GridMap {
        GridMap::from_vec(2, 2, vec![0.001, 0.004, 0.002, 0.009])
    }

    #[test]
    fn passing_budget() {
        let r = SignoffReport::check(&map(), 0.010);
        assert!(r.passes());
        assert_eq!(r.worst_volts, 0.009);
        assert_eq!(r.worst_at, (1, 1));
        assert!(r.margin_volts() > 0.0);
        assert!(r.to_string().contains("PASS"));
    }

    #[test]
    fn failing_budget_lists_worst_first() {
        let r = SignoffReport::check(&map(), 0.003);
        assert!(!r.passes());
        assert_eq!(r.violation_count, 2);
        assert_eq!(r.violations[0].drop_volts, 0.009);
        assert_eq!(r.violations[1].drop_volts, 0.004);
        let text = r.to_string();
        assert!(text.contains("FAIL") && text.contains("2 violating"));
    }

    #[test]
    fn listing_is_capped_but_count_is_exact() {
        let n = 100;
        let m = GridMap::from_vec(n, 1, (0..n).map(|i| 0.01 + i as f32 * 1e-5).collect());
        let r = SignoffReport::check(&m, 0.001);
        assert_eq!(r.violation_count, n);
        assert_eq!(r.violations.len(), SignoffReport::MAX_LISTED);
    }

    #[test]
    fn analysis_signoff_prefers_fused_map() {
        use crate::pipeline::IrFusionPipeline;
        use crate::FusionConfig;
        let grid = irf_pg::grid_from_spice_reader(&b"V1 p 0 1.0\nR1 p a 1.0\nI1 a 0 1m\n"[..])
            .expect("valid");
        let pipeline = IrFusionPipeline::new(FusionConfig::tiny());
        let analysis = pipeline.stack_builder().analyze(&grid, None).expect("pads");
        let report = analysis.signoff(0.1);
        assert!(report.passes());
    }
}
