//! Evaluation on held-out designs (Table I / Fig. 7 measurements).

use crate::pipeline::IrFusionPipeline;
use crate::train::TrainedModel;
use irf_data::Dataset;
use irf_metrics::MetricReport;

/// Evaluates a trained model on the dataset's test split, returning
/// one report per design. Runtime covers solve + features + inference.
///
/// # Panics
///
/// Panics if the dataset has no test designs.
#[must_use]
pub fn evaluate_model(
    trained: &TrainedModel,
    dataset: &Dataset,
    pipeline: &IrFusionPipeline,
) -> Vec<MetricReport> {
    let mut span = irf_trace::span("evaluate_model");
    let mut reports = Vec::new();
    for design in dataset.test() {
        let analysis = pipeline
            .stack_builder()
            .analyze(&design.grid, Some(trained))
            .expect("test designs have pads");
        let golden = pipeline.label_map(&design.grid, &design.golden);
        let pred = analysis.fused_map.expect("model supplied");
        reports.push(MetricReport::evaluate(
            pred.data(),
            golden.data(),
            analysis.runtime_seconds,
        ));
    }
    assert!(!reports.is_empty(), "dataset has no test designs");
    span.attr("designs", reports.len() as u64);
    reports
}

/// Evaluates the *raw numerical* solution at the pipeline's iteration
/// budget (PowerRush at `k` iterations — the Fig. 7 baseline).
///
/// # Panics
///
/// Panics if the dataset has no test designs.
#[must_use]
pub fn evaluate_numerical(dataset: &Dataset, pipeline: &IrFusionPipeline) -> Vec<MetricReport> {
    let _span = irf_trace::span("evaluate_numerical");
    let mut reports = Vec::new();
    for design in dataset.test() {
        let analysis = pipeline
            .stack_builder()
            .analyze(&design.grid, None)
            .expect("test designs have pads");
        let golden = pipeline.label_map(&design.grid, &design.golden);
        reports.push(MetricReport::evaluate(
            analysis.rough_map.data(),
            golden.data(),
            analysis.runtime_seconds,
        ));
    }
    assert!(!reports.is_empty(), "dataset has no test designs");
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FusionConfig;
    use crate::train::train;
    use irf_models::ModelKind;

    #[test]
    fn numerical_evaluation_improves_with_iterations() {
        let ds = Dataset::generate(1, 2, 2, 3);
        let mut cfg = FusionConfig::tiny();
        cfg.solver_iterations = 1;
        let rough = evaluate_numerical(&ds, &IrFusionPipeline::new(cfg));
        cfg.solver_iterations = 10;
        let fine = evaluate_numerical(&ds, &IrFusionPipeline::new(cfg));
        let mean_rough = MetricReport::mean(&rough).mae_volts;
        let mean_fine = MetricReport::mean(&fine).mae_volts;
        assert!(
            mean_fine < mean_rough,
            "k=10 MAE {mean_fine:e} should beat k=1 {mean_rough:e}"
        );
    }

    #[test]
    fn model_evaluation_produces_reports() {
        let ds = Dataset::generate(2, 2, 1, 5);
        let mut cfg = FusionConfig::tiny();
        cfg.train.epochs = 2;
        let trained = train(ModelKind::IrEdge, &ds, &cfg);
        let reports = evaluate_model(&trained, &ds, &IrFusionPipeline::new(cfg));
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(r.mae_volts.is_finite() && r.mae_volts >= 0.0);
        assert!((0.0..=1.0).contains(&r.f1));
        assert!(r.runtime_seconds > 0.0);
    }
}
