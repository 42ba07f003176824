//! Cross-crate integration: SPICE text -> parser -> circuit model ->
//! solver -> features -> analysis.

use ir_fusion::{FusionConfig, IrFusionPipeline};
use irf_data::{synthesize, synthesize_to_string, SynthSpec};
use irf_pg::grid_from_spice_reader;

fn tiny_pipeline() -> IrFusionPipeline {
    IrFusionPipeline::new(FusionConfig::tiny())
}

#[test]
fn netlist_text_flows_through_the_whole_stack() {
    // Synthesize netlist text and push the *text* through the same
    // front door a user's SPICE file would take.
    let text = synthesize_to_string(&SynthSpec::default());
    let grid = grid_from_spice_reader(text.as_bytes()).expect("valid design");
    let analysis = tiny_pipeline()
        .stack_builder()
        .analyze(&grid, None)
        .expect("grid has pads");
    assert!(analysis.rough_map.max() > 0.0);
    assert!(analysis.fused_map.is_none());
}

#[test]
fn rough_and_golden_maps_share_hotspot_structure() {
    let spec = SynthSpec {
        hotspot_clusters: 2,
        hotspot_fraction: 0.5,
        seed: 3,
        ..SynthSpec::default()
    };
    let grid = synthesize(&spec);
    let pipeline = tiny_pipeline();
    let analysis = pipeline.stack_builder().analyze(&grid, None).expect("pads");
    let golden = pipeline.golden_map(&grid);
    // Even the 2-iteration rough map must broadly agree in rank with
    // the golden map for the fusion premise to hold.
    let cc = irf_metrics::correlation(analysis.rough_map.data(), golden.data());
    assert!(cc > 0.5, "rough/golden correlation too weak: {cc}");
}

#[test]
fn feature_channels_match_config_prediction() {
    let grid = synthesize(&SynthSpec::default());
    let pipeline = tiny_pipeline();
    let (drops, _) = pipeline.rough_solution(&grid);
    let extractor = irf_features::FeatureExtractor::new(pipeline.config().feature);
    let stack = extractor.extract(&grid, &drops).expect("grid has pads");
    assert_eq!(
        stack.len(),
        pipeline.config().feature_channels(grid.layers().len())
    );
}

#[test]
fn analysis_runtime_accounts_for_work() {
    let grid = synthesize(&SynthSpec::default());
    let pipeline = tiny_pipeline();
    let analysis = pipeline.stack_builder().analyze(&grid, None).expect("pads");
    assert!(analysis.runtime_seconds > 0.0);
    assert_eq!(
        analysis.solve_report.iterations,
        pipeline.config().solver_iterations
    );
}

#[test]
fn disconnected_designs_are_caught_before_the_solver() {
    let src = "V1 p 0 1.0\nR1 p a 1.0\nR2 x y 1.0\nI1 a 0 1m\nI2 x 0 1m\n";
    let grid = grid_from_spice_reader(src.as_bytes()).expect("builds");
    assert!(!grid.is_connected_to_pads());
}
