//! Training with augmented curriculum learning (paper Section III-E).

use crate::config::FusionConfig;
use crate::pipeline::{IrFusionPipeline, PreparedSample};
use irf_data::augment::{augmentation_plan, no_rotation_plan, AugmentedSample};
use irf_data::{Dataset, DesignClass};
use irf_models::{build_model, Model, ModelKind};
use irf_nn::optim::Adam;
use irf_nn::{loss, ParamStore, Tape};

/// Adam's learning rate.
const LEARNING_RATE: f32 = 2e-3;
/// Weight of the Kirchhoff-constraint loss for the models that request
/// it (IRPnet).
const KIRCHHOFF_ALPHA: f32 = 1e-3;
/// Gradient-norm clip applied before each optimizer step.
const GRAD_CLIP: f32 = 5.0;

/// A trained model bundle: the network, its parameters, and the label
/// scale used during training (labels are volts scaled into a range
/// the f32 losses handle well; predictions divide it back out).
pub struct TrainedModel {
    /// The network.
    pub model: Box<dyn Model>,
    /// Trained parameters.
    pub store: ParamStore,
    /// Label scale factor.
    pub label_scale: f32,
    /// `true` when the model was trained to predict the signed
    /// *residual* on top of the rough numerical map (the fusion
    /// default); `false` for absolute drop prediction (baselines and
    /// the "w/o Num. Solu." ablation).
    pub residual: bool,
    /// Feature channels the network was built for: a stack with any
    /// other count cannot run through it.
    pub in_channels: usize,
    /// Mean training loss per epoch.
    pub loss_history: Vec<f32>,
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TrainedModel({}, {} params, scale {})",
            self.model.name(),
            self.store.num_scalars(),
            self.label_scale
        )
    }
}

/// Trains `kind` on the dataset's training split with the configured
/// augmentation + curriculum, returning the trained bundle.
///
/// # Panics
///
/// Panics if the dataset has no training designs.
#[must_use]
pub fn train(kind: ModelKind, dataset: &Dataset, config: &FusionConfig) -> TrainedModel {
    let pipeline = IrFusionPipeline::new(*config);
    let train_indices = dataset.train_indices();
    assert!(!train_indices.is_empty(), "dataset has no training designs");

    // Prepare every training design once (features + label), one
    // parallel task per design; order follows `train_indices`.
    let samples: Vec<(PreparedSample, DesignClass)> = irf_runtime::par_map(
        train_indices
            .iter()
            .map(|&i| {
                let d = &dataset.designs[i];
                let pipeline = &pipeline;
                move || (pipeline.prepare(d), d.class)
            })
            .collect(),
    );

    // Labels use the same fixed volt scale as the numerical-solution
    // feature channels, so the model's task is a near-identity
    // correction of the rough solve (the fusion premise).
    let label_scale = irf_features::stack::VOLT_SCALE;

    // Channel count must match the first sample.
    let n_channels = samples
        .first()
        .map(|(s, _)| s.features.maps().len())
        .expect("non-empty training set");
    // Residual fusion: when the numerical solution is part of the
    // inputs, the model predicts a signed correction on top of the
    // rough map (linear head); otherwise it predicts the absolute
    // drop map (ReLU head) like the original baselines.
    let residual = config.feature.numerical;
    let mut model_config = config.model;
    model_config.in_channels = n_channels;
    model_config.linear_head = residual;
    let (model, mut store) = build_model(kind, model_config);

    // Augmentation plan over local sample indices.
    let local: Vec<(usize, DesignClass)> = samples
        .iter()
        .enumerate()
        .map(|(i, (_, c))| (i, *c))
        .collect();
    let plan: Vec<AugmentedSample> = if config.train.rotations {
        augmentation_plan(&local)
    } else {
        no_rotation_plan(&local)
    };
    let plan_classes: Vec<DesignClass> = plan.iter().map(|s| samples[s.design].1).collect();

    let mut optimizer = Adam::new(LEARNING_RATE);
    let mut loss_history = Vec::with_capacity(config.train.epochs);
    let use_kirchhoff = model.wants_kirchhoff_loss();

    for epoch in 0..config.train.epochs {
        let subset: Vec<AugmentedSample> = match &config.train.curriculum {
            Some(sched) => sched.subset(&plan, &plan_classes, epoch),
            None => plan.clone(),
        };
        let mut epoch_loss = 0.0f32;
        let mut count = 0usize;
        for item in &subset {
            let (base, _) = &samples[item.design];
            let sample = if item.quarters == 0 {
                base.clone()
            } else {
                base.rotated(item.quarters)
            };
            let x_t = sample.feature_tensor();
            let y_t = if residual {
                sample.residual_tensor(label_scale)
            } else {
                sample.label_tensor(label_scale)
            };
            // Channel 0 of the stack is the total current map, which
            // only the Kirchhoff term reads once the tape owns the stack.
            let current = use_kirchhoff.then(|| {
                let [_, _, h, w] = x_t.shape();
                irf_nn::Tensor::from_vec([1, 1, h, w], x_t.data()[..h * w].to_vec())
            });
            let mut tape = Tape::new();
            let x = tape.input(x_t);
            let y = model.forward(&mut tape, &store, x);
            let data_term = loss::mae(tape.value(y), &y_t);
            let (loss_value, grad) = match &current {
                Some(current) => {
                    let k = loss::kirchhoff(tape.value(y), current, 1.0, KIRCHHOFF_ALPHA);
                    loss::combine(data_term, k)
                }
                None => data_term,
            };
            tape.backward(y, grad, &mut store);
            store.clip_grad_norm(GRAD_CLIP);
            optimizer.step(&mut store);
            epoch_loss += loss_value;
            count += 1;
        }
        loss_history.push(if count > 0 {
            epoch_loss / count as f32
        } else {
            0.0
        });
    }

    TrainedModel {
        model,
        store,
        label_scale,
        residual,
        in_channels: n_channels,
        loss_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        Dataset::generate(2, 2, 1, 7)
    }

    #[test]
    fn training_runs_and_tracks_loss() {
        let ds = tiny_dataset();
        let mut cfg = FusionConfig::tiny();
        cfg.train.epochs = 2;
        let trained = train(ModelKind::IrEdge, &ds, &cfg);
        assert_eq!(trained.loss_history.len(), 2);
        assert!(trained.label_scale > 0.0);
        assert!(trained.loss_history.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = tiny_dataset();
        let mut cfg = FusionConfig::tiny();
        cfg.train.epochs = 6;
        cfg.train.curriculum = None; // fixed set so the loss is comparable
        let trained = train(ModelKind::IrEdge, &ds, &cfg);
        let first = trained.loss_history[0];
        let last = *trained.loss_history.last().unwrap();
        assert!(
            last < first,
            "loss should decrease: {first} -> {last} ({:?})",
            trained.loss_history
        );
    }

    #[test]
    fn irpnet_trains_with_kirchhoff_term() {
        let ds = tiny_dataset();
        let mut cfg = FusionConfig::tiny();
        cfg.train.epochs = 1;
        let trained = train(ModelKind::IrpNet, &ds, &cfg);
        assert!(trained.loss_history[0].is_finite());
    }

    #[test]
    fn residual_mode_follows_numerical_toggle() {
        let ds = tiny_dataset();
        let mut cfg = FusionConfig::tiny();
        cfg.train.epochs = 0;
        let fused = train(ModelKind::IrFusion, &ds, &cfg);
        assert!(fused.residual, "numerical features imply residual fusion");
        cfg.feature.numerical = false;
        let ablated = train(ModelKind::IrFusion, &ds, &cfg);
        assert!(!ablated.residual, "w/o Num. Solu. predicts absolute drops");
    }

    #[test]
    fn residual_predictions_are_clamped_nonnegative() {
        let ds = tiny_dataset();
        let mut cfg = FusionConfig::tiny();
        cfg.train.epochs = 1;
        let trained = train(ModelKind::IrFusion, &ds, &cfg);
        let pipeline = IrFusionPipeline::new(cfg);
        let design = &ds.designs[0];
        let analysis = pipeline
            .stack_builder()
            .analyze(&design.grid, Some(&trained))
            .expect("grid has pads");
        let fused = analysis.fused_map.expect("model supplied");
        assert!(fused.min() >= 0.0, "clamp must hold");
        // The correction actually changes the rough map somewhere.
        assert_ne!(fused, analysis.rough_map);
    }

    #[test]
    fn curriculum_starts_with_fewer_samples() {
        // With the default scheduler, epoch 0 excludes hard samples;
        // this is observable through the plan subset logic already
        // unit-tested in irf-data, so here we just confirm training
        // with a curriculum completes.
        let ds = tiny_dataset();
        let mut cfg = FusionConfig::tiny();
        cfg.train.epochs = 2;
        let trained = train(ModelKind::IrEdge, &ds, &cfg);
        assert_eq!(trained.loss_history.len(), 2);
    }
}
