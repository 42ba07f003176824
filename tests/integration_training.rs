//! Cross-crate integration: the training loop improves over the raw
//! numerical baseline's weaknesses and checkpoints round-trip.

use ir_fusion::{evaluate_model, train, FusionConfig, IrFusionPipeline, TrainedModel};
use irf_data::Dataset;
use irf_metrics::MetricReport;
use irf_models::ModelKind;

fn tiny_cfg(epochs: usize) -> FusionConfig {
    let mut cfg = FusionConfig::tiny();
    cfg.train.epochs = epochs;
    cfg
}

#[test]
fn training_beats_an_untrained_model() {
    // Fitting capability: on a design the model *trained on*, the
    // trained weights must beat the random initialization. (Held-out
    // generalization at this smoke scale is too noisy to assert on;
    // the bench harness measures it at the paper-shaped scale.)
    let ds = Dataset::generate(3, 2, 1, 17);
    let mut cfg = tiny_cfg(8);
    cfg.train.curriculum = None;
    let untrained = train(ModelKind::IrFusion, &ds, &tiny_cfg(0));
    let trained = train(ModelKind::IrFusion, &ds, &cfg);
    // Evaluate both on training design 0 by re-pointing the split.
    let mut eval_ds = ds.clone();
    eval_ds.test_indices = vec![0];
    let pipeline = IrFusionPipeline::new(cfg);
    let before = MetricReport::mean(&evaluate_model(&untrained, &eval_ds, &pipeline));
    let after = MetricReport::mean(&evaluate_model(&trained, &eval_ds, &pipeline));
    assert!(
        after.mae_volts < before.mae_volts,
        "training should reduce MAE on a training design: {:.3e} -> {:.3e}",
        before.mae_volts,
        after.mae_volts
    );
}

#[test]
fn checkpoint_roundtrip_preserves_predictions() {
    let ds = Dataset::generate(2, 2, 1, 23);
    let cfg = tiny_cfg(2);
    let trained = train(ModelKind::IrEdge, &ds, &cfg);
    let pipeline = IrFusionPipeline::new(cfg);
    let before = evaluate_model(&trained, &ds, &pipeline);

    // Save, then reload into a second bundle of the same architecture
    // (trained for zero epochs, so its weights differ until loaded).
    let mut buf = Vec::new();
    irf_nn::serialize::save(&trained.store, &mut buf).expect("save");
    let mut reloaded = train(ModelKind::IrEdge, &ds, &tiny_cfg(0));
    irf_nn::serialize::load(&mut reloaded.store, buf.as_slice()).expect("load");
    reloaded.label_scale = trained.label_scale;
    let after = evaluate_model(&reloaded, &ds, &pipeline);
    for (a, b) in before.iter().zip(&after) {
        assert!((a.mae_volts - b.mae_volts).abs() < 1e-9, "prediction drift");
    }
}

/// FNV-1a over 64-bit words.
fn fnv64(h: u64, words: impl Iterator<Item = u64>) -> u64 {
    words.fold(h, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Folds everything a training run leaves behind — the per-epoch loss,
/// every parameter in store order and the held-out MAE of each test
/// design — into one hash, so a moved bit anywhere in the forward,
/// backward, optimizer step, augmentation plan or evaluation shows.
fn training_hash(trained: &TrainedModel, ds: &Dataset, cfg: &FusionConfig) -> u64 {
    let h = 0xcbf2_9ce4_8422_2325;
    let losses = trained.loss_history.iter();
    let h = fnv64(h, losses.map(|l| u64::from(l.to_bits())));
    let params = trained.store.iter().flat_map(|(_, _, t)| t.data());
    let h = fnv64(h, params.map(|v| u64::from(v.to_bits())));
    let reports = evaluate_model(trained, ds, &IrFusionPipeline::new(*cfg));
    fnv64(h, reports.iter().map(|r| r.mae_volts.to_bits()))
}

#[test]
fn all_table1_models_survive_a_training_step() {
    // One epoch of every model kind, hashed at the last commit before
    // the learning half lost its unused paths and settings.
    const GOLDEN: [(ModelKind, u64); 9] = [
        (ModelKind::IrEdge, 0x2e8a_e875_5928_860e),
        (ModelKind::Mavirec, 0xe665_c0b2_7a2f_a137),
        (ModelKind::IrpNet, 0x6a4c_ca7c_10ce_3f63),
        (ModelKind::Pgau, 0xd097_c173_a520_ecff),
        (ModelKind::MaUnet, 0x4c61_4e23_3a5d_b136),
        (ModelKind::ContestWinner, 0xadee_f3ca_c12a_c1ef),
        (ModelKind::IrFusion, 0x1517_9d8a_b6a1_9149),
        (ModelKind::IrFusionNoInception, 0x2681_625e_4f09_60e6),
        (ModelKind::IrFusionNoCbam, 0x355c_9b72_3a99_250d),
    ];
    let ds = Dataset::generate(1, 1, 1, 31);
    let cfg = tiny_cfg(1);
    let kinds = ModelKind::TABLE1.into_iter();
    let kinds = kinds.chain([ModelKind::IrFusionNoInception, ModelKind::IrFusionNoCbam]);
    let mut got = Vec::new();
    for kind in kinds {
        let trained = train(kind, &ds, &cfg);
        assert!(
            trained.loss_history[0].is_finite(),
            "{:?} produced a non-finite loss",
            kind
        );
        let reports = evaluate_model(&trained, &ds, &IrFusionPipeline::new(cfg));
        assert!(reports[0].mae_volts.is_finite());
        got.push((kind, training_hash(&trained, &ds, &cfg)));
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn ablated_feature_configs_train_end_to_end() {
    // (run, hash): the two feature ablations, then the "w/o Data Aug." +
    // "w/o Curr. Lear." run that trains on the unrotated plan.
    const GOLDEN: [(&str, u64); 3] = [
        ("w/o numerical", 0x17a8_8355_f16a_21d5),
        ("w/o numerical, hierarchical", 0xdb64_c10c_8606_c2d1),
        ("w/o rotations, curriculum", 0x0731_a615_dc77_edbd),
    ];
    let ds = Dataset::generate(1, 1, 1, 37);
    let mut cfg = tiny_cfg(1);
    let mut got = Vec::new();
    cfg.feature.numerical = false;
    let t = train(ModelKind::IrFusion, &ds, &cfg);
    assert!(t.loss_history[0].is_finite());
    got.push((GOLDEN[0].0, training_hash(&t, &ds, &cfg)));
    cfg.feature.hierarchical = false;
    let t = train(ModelKind::IrFusion, &ds, &cfg);
    assert!(t.loss_history[0].is_finite());
    got.push((GOLDEN[1].0, training_hash(&t, &ds, &cfg)));
    let mut cfg = tiny_cfg(1);
    cfg.train.rotations = false;
    cfg.train.curriculum = None;
    let t = train(ModelKind::IrFusion, &ds, &cfg);
    assert!(t.loss_history[0].is_finite());
    got.push((GOLDEN[2].0, training_hash(&t, &ds, &cfg)));
    assert_eq!(got, GOLDEN);
}
