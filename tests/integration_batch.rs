//! Batched inference correctness: `predict_batch(B samples)` must be
//! bitwise identical to B sequential `predict` calls, at one thread and
//! at many. This is the contract that lets the serving layer run a
//! request's many stacks (a sweep's candidates) in chunks with zero
//! accuracy consequences.

use ir_fusion::{train, FusionConfig, IrFusionPipeline, PreparedStack, StageStore};
use irf_data::Dataset;
use irf_models::ModelKind;
use std::sync::{Arc, Mutex};

/// The global thread count is process-wide state; hold this lock while
/// flipping it (same pattern as `integration_determinism.rs`).
static THREAD_CONFIG: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREAD_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    irf_runtime::set_num_threads(n);
    let result = f();
    irf_runtime::set_num_threads(0);
    result
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn predict_batch_is_bitwise_identical_to_sequential_predicts() {
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(2, 2, 1, 7);
    let trained = train(ModelKind::IrFusion, &dataset, &config);
    let pipeline = IrFusionPipeline::new(config);

    let stacks: Vec<Arc<PreparedStack>> = dataset
        .designs
        .iter()
        .map(|d| {
            pipeline
                .stack_builder()
                .bypass_cache()
                .prepare(&d.grid)
                .expect("grid has pads")
        })
        .collect();
    let refs: Vec<&PreparedStack> = stacks.iter().map(AsRef::as_ref).collect();

    // Reference: sequential single-sample predicts at one thread.
    let sequential = with_threads(1, || {
        refs.iter()
            .map(|s| pipeline.predict(&trained, s))
            .collect::<Vec<_>>()
    });

    for threads in [1, 4, 8] {
        let batched = with_threads(threads, || pipeline.predict_batch(&trained, &refs));
        assert_eq!(batched.len(), sequential.len());
        for (i, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            assert_eq!(
                bits32(b.data()),
                bits32(s.data()),
                "design {i} differs from sequential predict at {threads} threads"
            );
        }
        // And sequential predicts themselves are thread-count invariant.
        let solo = with_threads(threads, || {
            refs.iter()
                .map(|s| pipeline.predict(&trained, s))
                .collect::<Vec<_>>()
        });
        for (i, (a, s)) in solo.iter().zip(&sequential).enumerate() {
            assert_eq!(
                bits32(a.data()),
                bits32(s.data()),
                "solo predict of design {i} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn cached_stacks_feed_identical_predictions() {
    // A stack served from the cache must yield the same prediction as
    // a freshly prepared one, and the builder's analyze must hit the
    // cache on repeated designs.
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(1, 1, 0, 13);
    let trained = train(ModelKind::IrEdge, &dataset, &config);
    let grid = &dataset.designs[0].grid;

    let cache = Arc::new(StageStore::new(4));
    let cached_pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&cache));
    let plain_pipeline = IrFusionPipeline::new(config);

    let analyze = |p: &IrFusionPipeline| {
        p.stack_builder()
            .analyze(grid, Some(&trained))
            .expect("grid has pads")
    };
    let first = analyze(&cached_pipeline);
    let second = analyze(&cached_pipeline);
    let fresh = analyze(&plain_pipeline);
    // Cold walk computes all six stage artifacts (assembled, setup,
    // rough, structural, resistance, stack); the warm repeat
    // short-circuits on the stack.
    assert_eq!(cache.misses(), 6, "first analyze fills every stage");
    assert_eq!(cache.hits(), 1, "second analyze hits the stack artifact");

    let a = first.fused_map.expect("fused");
    let b = second.fused_map.expect("fused");
    let c = fresh.fused_map.expect("fused");
    assert_eq!(bits32(a.data()), bits32(b.data()), "hit == miss");
    assert_eq!(bits32(a.data()), bits32(c.data()), "cached == uncached");
}
