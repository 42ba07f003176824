//! Configuration of the end-to-end fusion pipeline.

use irf_data::curriculum::CurriculumScheduler;
use irf_features::FeatureConfig;
use irf_models::ModelConfig;
use irf_sparse::amg::AmgParams;
use irf_sparse::SolverKind;

/// Training settings: what the paper's ablations and the experiment
/// scales change. The optimizer's constants live with the trainer
/// (`crate::train`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Apply the paper's 90/180/270 rotation augmentation (`false` is
    /// the "w/o Data Aug." ablation; class oversampling stays).
    pub rotations: bool,
    /// Curriculum scheduler; `None` trains on everything from epoch 0
    /// (the "w/o Curr. Lear." ablation).
    pub curriculum: Option<CurriculumScheduler>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            rotations: true,
            curriculum: Some(CurriculumScheduler::default()),
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionConfig {
    /// PCG iterations for the rough numerical solution (the paper's
    /// Fig. 7 sweeps this from 1 to 10; 2 is the sweet spot).
    pub solver_iterations: usize,
    /// Which solver produces the rough solution. The default is the
    /// V-cycle AMG-PCG operating point: on laptop-scale grids the full
    /// K-cycle nearly converges within a couple of iterations, which
    /// would leave Fig. 7 with no trade-off to study; the lighter
    /// cycle reproduces the paper's still-rough-at-k-iterations regime
    /// (see EXPERIMENTS.md).
    pub solver_kind: SolverKind,
    /// AMG setup parameters.
    pub amg: AmgParams,
    /// Feature extraction settings (resolution, hierarchy toggles).
    pub feature: FeatureConfig,
    /// Model instantiation settings.
    pub model: ModelConfig,
    /// Training settings.
    pub train: TrainConfig,
    /// Worker threads for the parallel runtime. `0` means "auto":
    /// `IRF_THREADS` when set, otherwise the machine's available
    /// parallelism. `1` runs everything serially on the calling thread.
    /// Results are bitwise identical at any setting.
    pub num_threads: usize,
}

impl Default for FusionConfig {
    fn default() -> Self {
        let feature = FeatureConfig::default();
        FusionConfig {
            solver_iterations: 2,
            solver_kind: SolverKind::AmgPcgVCycle,
            amg: AmgParams::default(),
            feature,
            model: ModelConfig::default(),
            train: TrainConfig::default(),
            num_threads: 0,
        }
    }
}

impl FusionConfig {
    /// A configuration sized for fast tests: tiny maps, one epoch.
    #[must_use]
    pub fn tiny() -> Self {
        let mut cfg = FusionConfig::default();
        cfg.feature.width = 16;
        cfg.feature.height = 16;
        cfg.model.base_channels = 6;
        cfg.train.epochs = 1;
        cfg
    }

    /// Number of feature channels the configured extractor produces
    /// for a grid with `n_layers` metal layers.
    #[must_use]
    pub fn feature_channels(&self, n_layers: usize) -> usize {
        let mut c = 5; // shared structural maps
        if self.feature.hierarchical {
            c += n_layers; // per-layer current
        }
        if self.feature.numerical {
            c += n_layers; // per-layer rough solution
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = FusionConfig::default();
        assert_eq!(cfg.solver_iterations, 2);
        assert!(cfg.train.rotations);
        assert!(cfg.train.curriculum.is_some());
    }

    #[test]
    fn channel_count_tracks_toggles() {
        let mut cfg = FusionConfig::default();
        assert_eq!(cfg.feature_channels(3), 11);
        cfg.feature.numerical = false;
        assert_eq!(cfg.feature_channels(3), 8);
        cfg.feature.hierarchical = false;
        assert_eq!(cfg.feature_channels(3), 5);
    }

    #[test]
    fn tiny_config_shrinks_everything() {
        let t = FusionConfig::tiny();
        assert!(t.feature.width <= 16 && t.train.epochs <= 1);
    }
}
