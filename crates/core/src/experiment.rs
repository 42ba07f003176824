//! Experiment drivers that regenerate the paper's tables and figures.
//!
//! Each driver is sized by an [`ExperimentScale`] so the same code
//! serves smoke tests (`tiny`) and the bench harness (`paper`).

use crate::config::FusionConfig;
use crate::evaluate::{evaluate_model, evaluate_numerical};
use crate::pipeline::IrFusionPipeline;
use crate::train::train;
use irf_data::Dataset;
use irf_metrics::MetricReport;
use irf_models::ModelKind;

/// Sizing of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Fake designs in the corpus.
    pub n_fake: usize,
    /// Real-like designs in the corpus.
    pub n_real: usize,
    /// Real designs held out for testing.
    pub n_test: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Feature/label resolution (square).
    pub resolution: usize,
    /// Model base channel width.
    pub base_channels: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Smoke-test scale: a handful of designs at 16x16.
    #[must_use]
    pub fn tiny() -> Self {
        ExperimentScale {
            n_fake: 3,
            n_real: 3,
            n_test: 2,
            epochs: 3,
            resolution: 16,
            base_channels: 6,
            seed: 42,
        }
    }

    /// Bench scale: the shape of the contest setup scaled to CPU
    /// training (the paper uses 100 fake + 20 real at 256x256).
    #[must_use]
    pub fn paper() -> Self {
        ExperimentScale {
            n_fake: 16,
            n_real: 10,
            n_test: 5,
            epochs: 14,
            resolution: 32,
            base_channels: 6,
            seed: 2023,
        }
    }

    /// The fusion configuration this scale implies.
    #[must_use]
    pub fn config(&self) -> FusionConfig {
        let mut cfg = FusionConfig::default();
        cfg.feature.width = self.resolution;
        cfg.feature.height = self.resolution;
        cfg.model.base_channels = self.base_channels;
        cfg.train.epochs = self.epochs;
        cfg
    }

    /// Generates the dataset this scale implies.
    #[must_use]
    pub fn dataset(&self) -> Dataset {
        Dataset::generate(self.n_fake, self.n_real, self.n_test, self.seed)
    }
}

/// One Table I row: model name and averaged metrics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model display name.
    pub name: String,
    /// Metrics averaged over the test designs.
    pub report: MetricReport,
}

/// Regenerates **Table I**: trains every model on the same augmented
/// corpus ("all baselines adopt the data after augmentation") and
/// evaluates on the held-out real designs.
#[must_use]
pub fn table1(scale: &ExperimentScale) -> Vec<Table1Row> {
    let dataset = scale.dataset();
    let config = scale.config();
    ModelKind::TABLE1
        .iter()
        .map(|&kind| {
            let mut cfg = config;
            if kind != ModelKind::IrFusion {
                // Baselines consume the flat (non-hierarchical,
                // non-numerical) inputs, exactly like the original
                // models that see only current / distance / density.
                cfg.feature.numerical = false;
                cfg.feature.hierarchical = false;
            }
            let trained = train(kind, &dataset, &cfg);
            let reports = evaluate_model(&trained, &dataset, &IrFusionPipeline::new(cfg));
            Table1Row {
                name: trained.model.name().to_string(),
                report: MetricReport::mean(&reports),
            }
        })
        .collect()
}

/// One Fig. 7 point: iteration count, numerical-only metrics, fused
/// metrics.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// PCG iterations `k`.
    pub iterations: usize,
    /// PowerRush-style raw numerical result at `k`.
    pub numerical: MetricReport,
    /// IR-Fusion result at `k`.
    pub fused: MetricReport,
}

/// Regenerates **Fig. 7**: sweeps the solver budget `k = 1..=k_max`,
/// comparing the raw numerical solution with the fused prediction.
/// The model is trained once per `k` (its numerical input channels
/// depend on the budget).
#[must_use]
pub fn fig7(scale: &ExperimentScale, k_max: usize) -> Vec<Fig7Point> {
    let dataset = scale.dataset();
    (1..=k_max)
        .map(|k| {
            let mut cfg = scale.config();
            cfg.solver_iterations = k;
            let pipeline = IrFusionPipeline::new(cfg);
            let numerical = MetricReport::mean(&evaluate_numerical(&dataset, &pipeline));
            let trained = train(ModelKind::IrFusion, &dataset, &cfg);
            let fused = MetricReport::mean(&evaluate_model(&trained, &dataset, &pipeline));
            Fig7Point {
                iterations: k,
                numerical,
                fused,
            }
        })
        .collect()
}

/// One Fig. 8 bar: ablation label plus the metric changes relative to
/// the full model (positive `mae_increase_pct` = worse MAE, positive
/// `f1_decrease_pct` = worse F1 — matching the paper's plot).
#[derive(Debug, Clone)]
pub struct Fig8Bar {
    /// Ablation label.
    pub label: String,
    /// MAE increase in percent vs the full model.
    pub mae_increase_pct: f64,
    /// F1 decrease in percent vs the full model.
    pub f1_decrease_pct: f64,
}

/// Regenerates **Fig. 8**: retrains IR-Fusion with one technique
/// removed at a time and reports the metric deltas.
#[must_use]
pub fn fig8(scale: &ExperimentScale) -> Vec<Fig8Bar> {
    let dataset = scale.dataset();
    let base_cfg = scale.config();

    let run = |kind: ModelKind, cfg: &FusionConfig| -> MetricReport {
        let trained = train(kind, &dataset, cfg);
        MetricReport::mean(&evaluate_model(
            &trained,
            &dataset,
            &IrFusionPipeline::new(*cfg),
        ))
    };
    let full = run(ModelKind::IrFusion, &base_cfg);

    let mut bars = Vec::new();
    let mut push = |label: &str, ablated: MetricReport| {
        let mae_increase_pct = if full.mae_volts > 0.0 {
            (ablated.mae_volts - full.mae_volts) / full.mae_volts * 100.0
        } else {
            0.0
        };
        let f1_decrease_pct = if full.f1 > 0.0 {
            (full.f1 - ablated.f1) / full.f1 * 100.0
        } else {
            0.0
        };
        bars.push(Fig8Bar {
            label: label.to_string(),
            mae_increase_pct,
            f1_decrease_pct,
        });
    };

    // w/o numerical solution: drop the rough-solution channels.
    let mut cfg = base_cfg;
    cfg.feature.numerical = false;
    push("w/o Num. Solu.", run(ModelKind::IrFusion, &cfg));

    // w/o hierarchical features: drop the per-layer channels.
    let mut cfg = base_cfg;
    cfg.feature.hierarchical = false;
    push("w/o Hierarchical", run(ModelKind::IrFusion, &cfg));

    // w/o Inception: plain double-conv encoder.
    push(
        "w/o Inception",
        run(ModelKind::IrFusionNoInception, &base_cfg),
    );

    // w/o CBAM.
    push("w/o CBAM", run(ModelKind::IrFusionNoCbam, &base_cfg));

    // w/o data augmentation (rotations off).
    let mut cfg = base_cfg;
    cfg.train.rotations = false;
    push("w/o Data Aug.", run(ModelKind::IrFusion, &cfg));

    // w/o curriculum learning.
    let mut cfg = base_cfg;
    cfg.train.curriculum = None;
    push("w/o Curr. Lear.", run(ModelKind::IrFusion, &cfg));

    bars
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_builds_config_and_dataset() {
        let s = ExperimentScale::tiny();
        let cfg = s.config();
        assert_eq!(cfg.feature.width, 16);
        let ds = s.dataset();
        assert_eq!(ds.designs.len(), 6);
        assert_eq!(ds.test_indices.len(), 2);
    }

    #[test]
    fn fig7_points_are_ordered() {
        // Smallest possible sweep to keep the test fast.
        let mut s = ExperimentScale::tiny();
        s.n_fake = 1;
        s.n_real = 1;
        s.n_test = 1;
        s.epochs = 1;
        let points = fig7(&s, 2);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].iterations, 1);
        assert!(points[1].numerical.mae_volts <= points[0].numerical.mae_volts);
    }
}
