//! Determinism contract of the closed loop, plus the edit-validation
//! edge cases an optimizer can plausibly generate.

use ir_fusion::{EditError, FusionConfig, IrFusionPipeline, StageStore, TopologyDelta};
use irf_data::{synthesize, SynthSpec};
use irf_opt::{CandidateGenerator, CostModel, Optimizer, OptimizerConfig, StopReason};
use irf_pg::PowerGrid;
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

fn grid() -> Arc<PowerGrid> {
    let spec = SynthSpec {
        seed: 9,
        ..SynthSpec::default()
    };
    Arc::new(synthesize(&spec))
}

fn config(target: f64) -> OptimizerConfig {
    OptimizerConfig {
        target_max_drop: target,
        metal_budget: 1e9,
        beam_width: 2,
        max_iterations: 3,
        max_evaluations: 24,
        candidates_per_state: 4,
        warm_start: true,
    }
}

fn run_once(pipeline: &IrFusionPipeline, target_scale: f64) -> (u64, Vec<String>, usize) {
    let base = grid();
    let baseline = f64::from(
        pipeline
            .session(Arc::clone(&base))
            .prepare()
            .expect("pads")
            .rough
            .max(),
    );
    let report = Optimizer::new(pipeline, config(baseline * target_scale))
        .run(base)
        .expect("run succeeds");
    (
        report.checksum(),
        report.winner.labels.clone(),
        report.evaluations,
    )
}

/// `Optimizer::run` trajectories are byte-identical across 1/2/4/8
/// threads (fresh store each run) and across two runs against the
/// same warm base (shared store, second run all-hits).
#[test]
fn trajectories_are_identical_across_threads_and_warm_reruns() {
    let fusion = FusionConfig::tiny();
    let reference = with_threads(1, || {
        let pipeline = IrFusionPipeline::new(fusion).with_cache(Arc::new(StageStore::new(128)));
        run_once(&pipeline, 0.9)
    });
    assert!(!reference.1.is_empty(), "optimizer must apply some edit");

    for threads in [2, 4, 8] {
        let result = with_threads(threads, || {
            let pipeline = IrFusionPipeline::new(fusion).with_cache(Arc::new(StageStore::new(128)));
            run_once(&pipeline, 0.9)
        });
        assert_eq!(reference, result, "trajectory differs at {threads} threads");
    }

    // Two runs against the same warm base: the second run reuses the
    // first's artifacts and must still produce identical bytes.
    let (first, second) = with_threads(2, || {
        let pipeline = IrFusionPipeline::new(fusion).with_cache(Arc::new(StageStore::new(128)));
        (run_once(&pipeline, 0.9), run_once(&pipeline, 0.9))
    });
    assert_eq!(first, second, "rerun against warm base differs");
    assert_eq!(reference, first, "warm run differs from fresh run");
}

/// The brute-force plan: every strap layer widened and every via pair
/// upsized 2x at once, layers and pairs in first-seen segment order.
fn widen_everything(grid: &PowerGrid) -> Vec<TopologyDelta> {
    let mut straps = Vec::new();
    let mut vias = Vec::new();
    for s in &grid.segments {
        let (a, b) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
        if a == b {
            if !straps.contains(&a) {
                straps.push(a);
            }
        } else if !vias.contains(&(a.min(b), a.max(b))) {
            vias.push((a.min(b), a.max(b)));
        }
    }
    straps
        .into_iter()
        .map(|layer| TopologyDelta::Strap { layer, scale: 0.5 })
        .chain(vias.into_iter().map(|(lower, upper)| TopologyDelta::Via {
            lower,
            upper,
            scale: 0.5,
        }))
        .collect()
}

/// The loop closes on a modest (10%-better) target within its
/// evaluation budget, spending real metal to get there — and strictly
/// less of it than widening everything at once.
#[test]
fn loop_meets_a_modest_target() {
    let pipeline =
        IrFusionPipeline::new(FusionConfig::tiny()).with_cache(Arc::new(StageStore::new(128)));
    let base = grid();
    let baseline = f64::from(
        pipeline
            .session(Arc::clone(&base))
            .prepare()
            .expect("pads")
            .rough
            .max(),
    );
    let widen_cost = CostModel.plan_cost(&base, &widen_everything(&base));
    let report = Optimizer::new(&pipeline, config(baseline * 0.9))
        .run(base)
        .expect("run succeeds");
    assert_eq!(report.stop_reason, StopReason::TargetMet);
    assert!(report.target_met);
    assert!(report.winner.max_drop <= baseline * 0.9);
    assert!(report.winner.metal_cost > 0.0);
    assert!(
        report.winner.metal_cost < widen_cost,
        "winner must be strictly cheaper than widen-everything ({} vs {widen_cost})",
        report.winner.metal_cost
    );
    assert!(!report.trajectory.is_empty());
    assert!(report.evaluations <= 24);
}

/// An unreachable target under a tiny metal budget stops the loop on
/// budget exhaustion (never an error, never an infinite loop).
#[test]
fn tiny_budget_stops_on_budget_exhausted() {
    let pipeline =
        IrFusionPipeline::new(FusionConfig::tiny()).with_cache(Arc::new(StageStore::new(64)));
    let base = grid();
    let mut cfg = config(0.0); // unreachable target
    cfg.metal_budget = 1e-12;
    let report = Optimizer::new(&pipeline, cfg).run(base).expect("runs");
    assert_eq!(report.stop_reason, StopReason::BudgetExhausted);
    assert!(!report.target_met);
    assert!(report.winner.deltas.is_empty(), "nothing affordable");
}

/// Candidate generation is deterministic and priced: same inputs give
/// the same ordered labels, and every candidate costs > 0.
#[test]
fn candidate_generation_is_deterministic_and_priced() {
    let pipeline = IrFusionPipeline::new(FusionConfig::tiny());
    let base = grid();
    let rough = pipeline
        .session(Arc::clone(&base))
        .rough_solution()
        .expect("pads");
    let model = CostModel;
    let generator = CandidateGenerator;
    let a = generator.generate(&base, &rough.drops, &model);
    let b = generator.generate(&base, &rough.drops, &model);
    assert!(!a.is_empty());
    let labels: Vec<&str> = a.iter().map(|c| c.label.as_str()).collect();
    let again: Vec<&str> = b.iter().map(|c| c.label.as_str()).collect();
    assert_eq!(labels, again);
    for c in &a {
        assert!(c.cost > 0.0, "{} has no metal cost", c.label);
        assert!(c.predicted_delta >= 0.0);
        assert!(c.deltas.iter().all(|d| match *d {
            TopologyDelta::Strap { scale, .. } | TopologyDelta::Via { scale, .. } => scale < 1.0,
            TopologyDelta::Segment { ohms, .. } => ohms > 0.0,
        }));
    }
    // Sorted by predicted benefit first.
    for w in a.windows(2) {
        assert!(w[0].predicted_delta >= w[1].predicted_delta);
    }
}

/// Edit-validation edge cases the optimizer (or a buggy generator)
/// can produce. Duplicate strap edits on one layer are *legal* — they
/// compose multiplicatively — while non-positive scales and vias to
/// absent layers must be rejected atomically.
#[test]
fn edit_error_edge_cases() {
    let pipeline = IrFusionPipeline::new(FusionConfig::tiny());
    let base = grid();
    let strap_layer = base
        .segments
        .iter()
        .find_map(|s| {
            let (a, b) = (base.nodes[s.a].layer, base.nodes[s.b].layer);
            (a == b).then_some(a)
        })
        .expect("synth grid has straps");

    // Duplicate strap ids: two edits of the same layer compose.
    let doubled = pipeline
        .session(Arc::clone(&base))
        .with_topology_deltas(&[
            TopologyDelta::Strap {
                layer: strap_layer,
                scale: 0.5,
            },
            TopologyDelta::Strap {
                layer: strap_layer,
                scale: 0.5,
            },
        ])
        .expect("duplicate strap edits compose");
    let quartered = pipeline
        .session(Arc::clone(&base))
        .with_topology_deltas(&[TopologyDelta::Strap {
            layer: strap_layer,
            scale: 0.25,
        }])
        .expect("valid");
    assert_eq!(doubled.fingerprint(), quartered.fingerprint());

    // Zero and negative widths are invalid values.
    for bad in [0.0, -0.5] {
        let err = pipeline
            .session(Arc::clone(&base))
            .with_topology_deltas(&[TopologyDelta::Strap {
                layer: strap_layer,
                scale: bad,
            }])
            .expect_err("non-positive scale must be rejected");
        assert!(matches!(err, EditError::InvalidValue { what: "scale", .. }));
    }

    // A via to a nonexistent layer matches nothing.
    let absent = base.nodes.iter().map(|n| n.layer).max().unwrap_or(0) + 7;
    let err = pipeline
        .session(Arc::clone(&base))
        .with_topology_deltas(&[TopologyDelta::Via {
            lower: 1,
            upper: absent,
            scale: 0.5,
        }])
        .expect_err("via to absent layer must be rejected");
    assert_eq!(
        err,
        EditError::NoViaSegments {
            lower: 1,
            upper: absent
        }
    );

    // Rejection is atomic: a bad trailing delta leaves the session
    // grid untouched (the builder consumed on error).
    let err = pipeline
        .session(Arc::clone(&base))
        .with_topology_deltas(&[
            TopologyDelta::Strap {
                layer: strap_layer,
                scale: 0.5,
            },
            TopologyDelta::Segment {
                segment: base.segments.len(),
                ohms: 1.0,
            },
        ])
        .expect_err("out-of-range segment must reject the whole batch");
    assert!(matches!(err, EditError::SegmentOutOfRange { .. }));
}

/// The optimizer's bits, pinned: a fixed base and config scored by
/// rough maps, with and without warm starts, must keep its report
/// checksum, and the widen-everything plan its metal cost, to the bit.
/// The cost model and candidate generator are constants; this is what
/// says they did not move.
#[test]
fn optimizer_reports_and_plan_costs_keep_their_pinned_bits() {
    const WARM_CHECKSUM: u64 = 0x7114_9db4_7819_f2eb;
    const COLD_CHECKSUM: u64 = 0xfd6e_851a_1217_30c0;
    const WIDEN_COST_BITS: u64 = 0x40a0_47ff_ffff_ffec;

    let base = grid();
    let widen_cost = CostModel.plan_cost(&base, &widen_everything(&base));
    let checksums: Vec<u64> = [true, false]
        .into_iter()
        .map(|warm_start| {
            let pipeline = IrFusionPipeline::new(FusionConfig::tiny())
                .with_cache(Arc::new(StageStore::new(128)));
            let cfg = OptimizerConfig {
                warm_start,
                ..config(0.0)
            };
            Optimizer::new(&pipeline, cfg)
                .run(Arc::clone(&base))
                .expect("run succeeds")
                .checksum()
        })
        .collect();
    assert_eq!(checksums, [WARM_CHECKSUM, COLD_CHECKSUM]);
    assert_eq!(widen_cost.to_bits(), WIDEN_COST_BITS);
}
