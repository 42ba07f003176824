//! Incremental what-if contract: stage fingerprints invalidate exactly
//! what an edit touches, warm artifacts never leak across designs, and
//! the incremental path is bitwise identical to a cold analysis at any
//! thread count.

use ir_fusion::{
    design_fingerprint, train, CachePolicy, FusionConfig, IrFusionPipeline, Stage, StagePlan,
    StageStore,
};
use irf_data::{synthesize, Dataset, SynthSpec};
use irf_models::ModelKind;
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

fn grid(seed: u64) -> PowerGrid {
    let spec = SynthSpec {
        seed,
        ..SynthSpec::default()
    };
    synthesize(&spec)
}

/// A grid whose stripe count — and therefore topology — differs from
/// [`grid`]'s, not just its load vector.
fn restriped_grid(seed: u64) -> PowerGrid {
    let spec = SynthSpec {
        seed,
        m1_stripes: SynthSpec::default().m1_stripes + 2,
        ..SynthSpec::default()
    };
    synthesize(&spec)
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn current_edits_invalidate_only_the_current_dependent_stages() {
    let config = FusionConfig::tiny();
    let base = grid(5);
    let base_plan = StagePlan::for_design(&base, &config);

    // A load edit keeps every current-independent key ...
    let mut edited = base.clone();
    edited.loads[0].amps += 1e-3;
    let edited_plan = StagePlan::for_design(&edited, &config);
    assert_eq!(edited_plan.assembled, base_plan.assembled);
    assert_eq!(edited_plan.solver_setup, base_plan.solver_setup);
    assert_eq!(edited_plan.structural, base_plan.structural);
    assert_eq!(edited_plan.resistance, base_plan.resistance);
    // ... and changes every current-dependent one.
    assert_ne!(edited_plan.rough, base_plan.rough);
    assert_ne!(edited_plan.stack, base_plan.stack);
    assert_ne!(
        design_fingerprint(&edited, &config),
        design_fingerprint(&base, &config)
    );

    // A resistance edit invalidates the assembled system and the
    // ohms-dependent feature maps, but the *geometry* maps (pad
    // distance, PDN density) key only off node/segment placement and
    // stay warm.
    let mut rewired = base.clone();
    rewired.segments[0].ohms *= 1.5;
    let rewired_plan = StagePlan::for_design(&rewired, &config);
    assert_ne!(rewired_plan.assembled, base_plan.assembled);
    assert_ne!(rewired_plan.solver_setup, base_plan.solver_setup);
    assert_ne!(rewired_plan.rough, base_plan.rough);
    assert_eq!(
        rewired_plan.structural, base_plan.structural,
        "geometry maps survive a resistance-only edit"
    );
    assert_ne!(rewired_plan.resistance, base_plan.resistance);
    assert_ne!(rewired_plan.stack, base_plan.stack);

    // Moving a segment endpoint is a geometry edit: *everything*
    // structural goes, including the geometry maps.
    let mut moved = base.clone();
    let endpoint = moved.segments[0].a;
    Arc::make_mut(&mut moved.nodes)[endpoint].x += 1;
    let moved_plan = StagePlan::for_design(&moved, &config);
    assert_ne!(moved_plan.assembled, base_plan.assembled);
    assert_ne!(moved_plan.structural, base_plan.structural);
    assert_ne!(moved_plan.resistance, base_plan.resistance);

    // A pad-voltage edit is a topology edit too: it changes the
    // boundary conditions baked into the assembled system.
    let mut repadded = base.clone();
    repadded.pads[0].volts += 0.05;
    let repadded_plan = StagePlan::for_design(&repadded, &config);
    assert_ne!(repadded_plan.assembled, base_plan.assembled);
    assert_ne!(repadded_plan.stack, base_plan.stack);
}

#[test]
fn warm_current_edit_skips_assembly_and_setup_in_the_store() {
    let config = FusionConfig::tiny();
    let store = Arc::new(StageStore::new(8));
    let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
    let base = Arc::new(grid(5));

    // Cold walk computes all six stage artifacts.
    pipeline.session(Arc::clone(&base)).prepare().expect("pads");
    assert_eq!(store.misses(), 6, "cold walk computes every stage");
    assert_eq!(store.hits(), 0);

    // Warm current edit: assembled / solver-setup / structural /
    // resistance are served from the store; only rough + stack
    // recompute.
    pipeline
        .session(Arc::clone(&base))
        .with_current_deltas(&[(1, 2e-3)])
        .prepare()
        .expect("pads");
    for stage in [
        Stage::Assembled,
        Stage::SolverSetup,
        Stage::Structural,
        Stage::Resistance,
    ] {
        let c = store.stage_counters(stage);
        assert_eq!(
            (c.hits, c.misses),
            (1, 1),
            "{} must be reused, not recomputed",
            stage.label()
        );
    }
    assert_eq!(store.stage_counters(Stage::Rough).misses, 2);
    assert_eq!(store.stage_counters(Stage::Stack).misses, 2);

    // A resistance edit must NOT ride the warm assembled system or the
    // warm ohms-dependent feature maps — but the geometry maps stay.
    let mut rewired = (*base).clone();
    rewired.segments[0].ohms *= 2.0;
    pipeline.session(Arc::new(rewired)).prepare().expect("pads");
    assert_eq!(
        store.stage_counters(Stage::Assembled).misses,
        2,
        "resistance edit reassembles the system"
    );
    assert_eq!(store.stage_counters(Stage::SolverSetup).misses, 2);
    assert_eq!(store.stage_counters(Stage::Resistance).misses, 2);
    assert_eq!(
        store.stage_counters(Stage::Structural).hits,
        2,
        "geometry maps are reused across a resistance edit"
    );
}

#[test]
fn warm_topology_edit_rebuilds_incrementally_and_stays_bitwise() {
    use ir_fusion::TopologyDelta;
    let config = FusionConfig::tiny();

    // Discover an on-layer strap and a cross-layer via pair so the
    // deltas are valid for the synthesized grid.
    let probe = grid(5);
    let strap_layer = probe
        .segments
        .iter()
        .find_map(|s| {
            let (a, b) = (probe.nodes[s.a].layer, probe.nodes[s.b].layer);
            (a == b).then_some(a)
        })
        .expect("synth grid has straps");
    let (lower, upper) = probe
        .segments
        .iter()
        .find_map(|s| {
            let (a, b) = (probe.nodes[s.a].layer, probe.nodes[s.b].layer);
            (a != b).then_some((a.min(b), a.max(b)))
        })
        .expect("synth grid has vias");
    let deltas = [
        TopologyDelta::Strap {
            layer: strap_layer,
            scale: 0.8,
        },
        TopologyDelta::Via {
            lower,
            upper,
            scale: 1.25,
        },
    ];
    // A plan mixing a current delta with topology deltas in one
    // session: a load change riding a strap scale and a one-segment
    // edit — the only place such a plan is checked warm == bypass.
    let mixed_currents = [(2, 5e-4)];
    let mixed_topology = [
        TopologyDelta::Strap {
            layer: strap_layer,
            scale: 0.8,
        },
        TopologyDelta::Segment {
            segment: 0,
            ohms: probe.segments[0].ohms * 0.9,
        },
    ];
    type Plan<'a> = (&'a [(usize, f64)], &'a [TopologyDelta]);
    let plans: [Plan; 2] = [(&[], &deltas), (&mixed_currents, &mixed_topology)];

    // One cold + topology-warm walk of a plan at a given thread count.
    let run = |threads: usize, (currents, topology): Plan| {
        with_threads(threads, || {
            let store = Arc::new(StageStore::new(8));
            let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
            let base = Arc::new(grid(5));
            pipeline.session(Arc::clone(&base)).prepare().expect("pads");
            let mut session = pipeline.session(base);
            if !currents.is_empty() {
                session = session.with_current_deltas(currents);
            }
            let session = session
                .with_topology_deltas(topology)
                .expect("valid deltas");
            let stack = session.prepare().expect("pads");

            // The geometry maps were reused from the warm store; the
            // assembled system and solver setup were rebuilt (as new
            // keys) from the recorded base artifacts.
            let structural = store.stage_counters(Stage::Structural);
            assert_eq!(
                (structural.hits, structural.misses),
                (1, 1),
                "geometry maps must be reused across a topology edit"
            );
            assert_eq!(store.stage_counters(Stage::Resistance).misses, 2);
            assert_eq!(store.stage_counters(Stage::Assembled).misses, 2);
            assert_eq!(store.stage_counters(Stage::SolverSetup).misses, 2);

            // And the incremental result equals a cold bypass analysis
            // of the same edited grid, bit for bit.
            let cold = session
                .clone()
                .cache_policy(CachePolicy::Bypass)
                .prepare()
                .expect("pads");
            assert_eq!(stack.fingerprint, cold.fingerprint);
            assert_eq!(
                bits32(stack.rough.data()),
                bits32(cold.rough.data()),
                "incremental rough solve != cold rough solve"
            );
            assert_eq!(
                bits32(&stack.features.to_nchw().3),
                bits32(&cold.features.to_nchw().3),
                "incremental features != cold features"
            );
            (stack.fingerprint, bits32(stack.rough.data()))
        })
    };

    let fingerprints = plans.map(|plan| {
        let reference = run(1, plan);
        for threads in [2, 4, 8] {
            assert_eq!(
                reference,
                run(threads, plan),
                "topology-delta path differs at {threads} threads ({plan:?})"
            );
        }
        reference.0
    });
    assert_ne!(
        fingerprints[0], fingerprints[1],
        "the mixed plan is a different design from the topology-only one"
    );
}

#[test]
fn distinct_designs_never_collide_on_warm_artifacts() {
    let config = FusionConfig::tiny();
    let store = Arc::new(StageStore::new(8));
    let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
    let bypass = IrFusionPipeline::new(config);

    for (label, g) in [("base", grid(3)), ("restriped", restriped_grid(9))] {
        let g = Arc::new(g);
        // Through the shared (now possibly warm) store ...
        let cached = pipeline.session(Arc::clone(&g)).prepare().expect("pads");
        // ... versus a guaranteed-cold preparation of the same grid.
        let fresh = bypass
            .session(Arc::clone(&g))
            .cache_policy(CachePolicy::Bypass)
            .prepare()
            .expect("pads");
        assert_eq!(cached.fingerprint, fresh.fingerprint, "{label}");
        assert_eq!(
            bits32(cached.rough.data()),
            bits32(fresh.rough.data()),
            "{label}: rough map must come from this design's own solve"
        );
    }
    // Two designs were prepared; no artifact was shared between them.
    assert_eq!(store.hits(), 0, "different designs share no artifacts");
    assert_eq!(store.misses(), 12);
}

#[test]
fn incremental_path_is_bitwise_deterministic_across_thread_counts() {
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(1, 1, 0, 11);
    let trained = train(ModelKind::IrEdge, &dataset, &config);

    // One full cold + warm-edit walk at a given thread count, through
    // a fresh store each time so every run does the same work.
    let run = |threads: usize| {
        with_threads(threads, || {
            let store = Arc::new(StageStore::new(8));
            let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
            let base = Arc::new(grid(5));
            pipeline.session(Arc::clone(&base)).prepare().expect("pads");
            let session = pipeline
                .session(base)
                .with_current_deltas(&[(1, 2e-3), (4, -5e-4)]);
            let stack = session.prepare().expect("pads");
            let prediction = session.predict(&trained).expect("pads");
            let (_, _, _, features) = stack.features.to_nchw();
            (
                stack.fingerprint,
                bits32(stack.rough.data()),
                bits32(&features),
                bits32(prediction.map.data()),
            )
        })
    };

    let reference = run(1);
    for threads in [2, 4, 8] {
        let result = run(threads);
        assert_eq!(
            reference.0, result.0,
            "fingerprint differs at {threads} threads"
        );
        assert_eq!(
            reference.1, result.1,
            "warm rough solve differs at {threads} threads"
        );
        assert_eq!(
            reference.2, result.2,
            "warm feature stack differs at {threads} threads"
        );
        assert_eq!(
            reference.3, result.3,
            "warm prediction differs at {threads} threads"
        );
    }

    // And the warm path equals a cold bypass analysis of the edited
    // grid, bit for bit.
    let (fingerprint, rough, features, map) = run(1);
    let cold = with_threads(1, || {
        let pipeline = IrFusionPipeline::new(config);
        let base = Arc::new(grid(5));
        let session = pipeline
            .session(base)
            .with_current_deltas(&[(1, 2e-3), (4, -5e-4)])
            .cache_policy(CachePolicy::Bypass);
        let stack = session.prepare().expect("pads");
        let prediction = session.predict(&trained).expect("pads");
        let (_, _, _, feats) = stack.features.to_nchw();
        (
            stack.fingerprint,
            bits32(stack.rough.data()),
            bits32(&feats),
            bits32(prediction.map.data()),
        )
    });
    assert_eq!(fingerprint, cold.0);
    assert_eq!(rough, cold.1, "warm rough != cold rough");
    assert_eq!(features, cold.2, "warm features != cold features");
    assert_eq!(map, cold.3, "warm prediction != cold prediction");
}

/// Warm-starting the rough solve is an explicit opt-in: the seeded
/// walk lives under seed-tagged stage keys, is a pure function of
/// (grid, config, seed) regardless of cache state or thread count,
/// converges in fewer iterations than the cold truncated solve, and
/// never perturbs the default path's bitwise cold contract.
#[test]
fn warm_started_rough_solve_is_opt_in_tagged_and_deterministic() {
    use ir_fusion::{warm_stage_fingerprint, TopologyDelta};
    let config = FusionConfig::tiny();
    let probe = grid(5);
    let strap_layer = probe
        .segments
        .iter()
        .find_map(|s| {
            let (a, b) = (probe.nodes[s.a].layer, probe.nodes[s.b].layer);
            (a == b).then_some(a)
        })
        .expect("synth grid has straps");
    let deltas = [TopologyDelta::Strap {
        layer: strap_layer,
        scale: 0.98,
    }];

    // One base + warm-started-edit walk at a given thread count.
    let run = |threads: usize, policy: CachePolicy| {
        with_threads(threads, || {
            let store = Arc::new(StageStore::new(8));
            let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
            let base = Arc::new(grid(5));
            let seed = pipeline
                .session(Arc::clone(&base))
                .rough_solution()
                .expect("pads");
            let warm = pipeline
                .session(base)
                .with_topology_deltas(&deltas)
                .expect("valid deltas")
                .with_rough_warm_start(Arc::clone(&seed))
                .cache_policy(policy)
                .prepare()
                .expect("pads");
            let (_, _, _, features) = warm.features.to_nchw();
            (
                seed.fingerprint,
                warm.fingerprint,
                warm.solve_report.iterations,
                bits32(warm.rough.data()),
                bits32(&features),
            )
        })
    };

    let reference = run(1, CachePolicy::Shared);

    // Cache-state independence: bypassing the store entirely gives the
    // same bits, so a warm-started result never depends on what
    // happens to be cached.
    assert_eq!(
        reference,
        run(1, CachePolicy::Bypass),
        "warm-started walk depends on cache state"
    );
    // Thread-count invariance.
    for threads in [2, 4, 8] {
        assert_eq!(
            reference,
            run(threads, CachePolicy::Shared),
            "warm-started walk differs at {threads} threads"
        );
    }

    // The cold analysis of the same edited design, for comparison.
    let pipeline = IrFusionPipeline::new(config);
    let cold_session = pipeline
        .session(Arc::new(grid(5)))
        .with_topology_deltas(&deltas)
        .expect("valid deltas")
        .cache_policy(CachePolicy::Bypass);
    let cold = cold_session.prepare().expect("pads");

    let (seed_fp, warm_fp, warm_iters, _, _) = (
        reference.0,
        reference.1,
        reference.2,
        &reference.3,
        &reference.4,
    );
    // The warm stack lives under the seed-tagged key, never the cold
    // one, and the session's design fingerprint stays untagged.
    assert_eq!(warm_fp, warm_stage_fingerprint(cold.fingerprint, seed_fp));
    assert_ne!(warm_fp, cold.fingerprint);
    assert_eq!(cold_session.fingerprint(), cold.fingerprint);
    // The seeded solve exits early: the cold truncated solve spends
    // its whole iteration budget, the warm one at most one sweep.
    assert!(
        warm_iters < cold.solve_report.iterations,
        "warm solve ({warm_iters} iters) not faster than cold ({})",
        cold.solve_report.iterations
    );
    assert!(warm_iters <= 1);
}

/// A seed from a different geometry (mismatched reduced dimension) is
/// ignored: the tagged artifact is computed cold, bit-for-bit equal to
/// the untagged cold walk of the same design.
#[test]
fn warm_start_falls_back_to_cold_on_geometry_mismatch() {
    let config = FusionConfig::tiny();
    let pipeline = IrFusionPipeline::new(config);
    let foreign_seed = pipeline
        .session(Arc::new(restriped_grid(5)))
        .rough_solution()
        .expect("pads");
    let base = Arc::new(grid(5));
    let warm = pipeline
        .session(Arc::clone(&base))
        .with_rough_warm_start(foreign_seed)
        .prepare()
        .expect("pads");
    let cold = pipeline.session(base).prepare().expect("pads");
    assert_ne!(warm.fingerprint, cold.fingerprint, "keys must stay tagged");
    assert_eq!(
        bits32(warm.rough.data()),
        bits32(cold.rough.data()),
        "mismatched seed must be ignored, not applied"
    );
    assert_eq!(warm.solve_report.iterations, cold.solve_report.iterations);
}

/// A seed from a grid with the same node list but one more pad has a
/// reduced system one row smaller, while its per-node drops have the
/// base's length: the seed is still ignored, and the tagged walk is the
/// cold one bit for bit.
#[test]
fn warm_start_falls_back_to_cold_on_a_pad_set_mismatch() {
    let config = FusionConfig::tiny();
    let pipeline = IrFusionPipeline::new(config);
    let base = Arc::new(grid(5));
    let mut repadded = grid(5);
    let node = repadded
        .nodes
        .iter()
        .position(|n| !n.is_pad)
        .expect("a non-pad node");
    Arc::make_mut(&mut repadded.nodes)[node].is_pad = true;
    let volts = repadded.pads[0].volts;
    repadded.pads.push(irf_pg::Pad { node, volts });
    let seed = pipeline
        .session(Arc::new(repadded))
        .rough_solution()
        .expect("pads");
    assert_eq!(seed.drops.len(), base.nodes.len());
    let warm = pipeline
        .session(Arc::clone(&base))
        .with_rough_warm_start(seed)
        .prepare()
        .expect("pads");
    let cold = pipeline.session(base).prepare().expect("pads");
    assert_ne!(warm.fingerprint, cold.fingerprint, "keys must stay tagged");
    assert_eq!(bits32(warm.rough.data()), bits32(cold.rough.data()));
    assert_eq!(warm.solve_report.iterations, cold.solve_report.iterations);
}

/// FNV-1a over the drop bits of each rough solution, then its
/// iteration count.
fn rough_hash(roughs: &[&ir_fusion::RoughSolution]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for rough in roughs {
        for d in &rough.drops {
            eat(d.to_bits());
        }
        eat(rough.report.iterations as u64);
    }
    h
}

/// The warm-started rough solutions of a current edit and of a strap
/// edit, pinned as one hash of their drop bits and iteration counts: a
/// change to how the warm start rebuilds its initial guess from the
/// seed must not move a bit.
#[test]
fn warm_started_rough_solutions_keep_their_pinned_bits() {
    use ir_fusion::TopologyDelta;
    let config = FusionConfig::tiny();
    let store = Arc::new(roomy_store());
    let pipeline = IrFusionPipeline::new(config).with_cache(store);
    let base = Arc::new(grid(5));
    let seed = pipeline
        .session(Arc::clone(&base))
        .rough_solution()
        .expect("pads");
    let strap_layer = base
        .segments
        .iter()
        .find_map(|s| {
            let (a, b) = (base.nodes[s.a].layer, base.nodes[s.b].layer);
            (a == b).then_some(a)
        })
        .expect("synth grid has straps");
    let current = pipeline
        .session(Arc::clone(&base))
        .with_current_deltas(&[(base.loads[0].node, 1.25e-3), (base.loads[3].node, -2e-4)])
        .with_rough_warm_start(Arc::clone(&seed))
        .rough_solution()
        .expect("pads");
    let strap = pipeline
        .session(base)
        .with_topology_deltas(&[TopologyDelta::Strap {
            layer: strap_layer,
            scale: 0.9,
        }])
        .expect("valid deltas")
        .with_rough_warm_start(seed)
        .rough_solution()
        .expect("pads");
    assert_eq!(
        rough_hash(&[&current, &strap]),
        WARM_ROUGH_GOLDEN,
        "warm-started rough bits moved"
    );
}

/// [`warm_started_rough_solutions_keep_their_pinned_bits`]' hash,
/// taken when the seed still carried its reduced solution vector.
const WARM_ROUGH_GOLDEN: u64 = 0x92af_de11_7373_29c8;

/// A store no test below fills: one shard, so nothing is evicted
/// before its sixteenth artifact of a stage (a sharded store evicts
/// per shard, well before its nominal capacity).
fn roomy_store() -> StageStore {
    StageStore::with_shards(16, 1)
}

/// Misses of the four stages a topology edit can touch.
fn topology_misses(store: &StageStore) -> [u64; 4] {
    [
        Stage::Assembled,
        Stage::SolverSetup,
        Stage::Structural,
        Stage::Resistance,
    ]
    .map(|stage| store.stage_counters(stage).misses)
}

/// One via and one top-layer strap of `grid`, as `Segment` deltas that
/// halve the first and double the second — both sit on shortest paths
/// to the pads, so unlike an m1 strap they move distances.
fn via_and_top_strap_deltas(grid: &PowerGrid) -> [ir_fusion::TopologyDelta; 2] {
    let top = grid.layers().last().copied().expect("layers");
    let layers = |i: usize| {
        let s = &grid.segments[i];
        (grid.nodes[s.a].layer, grid.nodes[s.b].layer)
    };
    let segments = 0..grid.segments.len();
    let via = segments
        .clone()
        .find(|&i| layers(i).0 != layers(i).1)
        .expect("via");
    let strap = segments
        .rev()
        .find(|&i| layers(i) == (top, top))
        .expect("top-layer strap");
    [
        ir_fusion::TopologyDelta::Segment {
            segment: via,
            ohms: grid.segments[via].ohms * 0.5,
        },
        ir_fusion::TopologyDelta::Segment {
            segment: strap,
            ohms: grid.segments[strap].ohms * 2.0,
        },
    ]
}

fn assert_same_stack(got: &ir_fusion::PreparedStack, want: &ir_fusion::PreparedStack, label: &str) {
    assert_eq!(got.fingerprint, want.fingerprint, "{label}");
    assert_eq!(
        bits32(got.rough.data()),
        bits32(want.rough.data()),
        "{label}: rough map"
    );
    assert_eq!(
        bits32(&got.features.to_nchw().3),
        bits32(&want.features.to_nchw().3),
        "{label}: features"
    );
}

#[test]
fn segment_edits_that_move_distances_refresh_and_stay_bitwise() {
    let config = FusionConfig::tiny();
    let run = |threads: usize| {
        with_threads(threads, || {
            let store = Arc::new(roomy_store());
            let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
            let base = Arc::new(grid(5));
            let deltas = via_and_top_strap_deltas(&base);
            pipeline.session(Arc::clone(&base)).prepare().expect("pads");
            let base_plan = StagePlan::for_design(&base, &config);
            let mut outputs = Vec::new();
            // Each delta alone, then both in one batch.
            for batch in [&deltas[..1], &deltas[1..], &deltas[..]] {
                let before = topology_misses(&store);
                let session = pipeline
                    .session(Arc::clone(&base))
                    .with_topology_deltas(batch)
                    .expect("valid deltas");
                let warm = session.prepare().expect("pads");
                let missed: Vec<u64> = topology_misses(&store)
                    .iter()
                    .zip(before)
                    .map(|(after, before)| after - before)
                    .collect();
                assert_eq!(missed, [1, 1, 0, 1], "{batch:?}");
                let cold = session
                    .clone()
                    .cache_policy(CachePolicy::Bypass)
                    .prepare()
                    .expect("pads");
                assert_same_stack(&warm, &cold, &format!("{batch:?} @ {threads} threads"));
                assert_ne!(
                    bits32(&warm.features.to_nchw().3),
                    bits32(
                        &pipeline
                            .session(Arc::clone(&base))
                            .prepare()
                            .expect("pads")
                            .features
                            .to_nchw()
                            .3
                    ),
                    "{batch:?} changed the features"
                );
                // The refreshed maps keep no arrays; the base grew its
                // own on the first of these edits.
                let edited = store
                    .peek_resistance(session.stage_plan().resistance)
                    .expect("edited maps stored");
                assert!(!edited.holds_pad_distances(), "{batch:?}");
                outputs.push((warm.fingerprint, bits32(&warm.features.to_nchw().3)));
            }
            let base_maps = store
                .peek_resistance(base_plan.resistance)
                .expect("base maps stored");
            assert!(base_maps.holds_pad_distances());
            outputs
        })
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(reference, run(threads), "differs at {threads} threads");
    }
}

#[test]
fn edits_of_one_base_never_write_through_its_distance_arrays() {
    use ir_fusion::StageArtifact;
    let config = FusionConfig::tiny();
    let store = Arc::new(roomy_store());
    let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
    let base = Arc::new(grid(5));
    let [a, b] = via_and_top_strap_deltas(&base);
    pipeline.session(Arc::clone(&base)).prepare().expect("pads");
    let edit = |pipeline: &IrFusionPipeline, delta| {
        pipeline
            .session(Arc::clone(&base))
            .with_topology_deltas(&[delta])
            .expect("valid")
            .prepare()
            .expect("pads")
    };
    let first_a = edit(&pipeline, a);
    let first_b = edit(&pipeline, b);
    assert_ne!(first_a.fingerprint, first_b.fingerprint);

    // Edit A again, in a store that holds nothing but the very maps —
    // and arrays — that A and then B refreshed from.
    let base_key = StagePlan::for_design(&base, &config).resistance;
    let base_maps = store.peek_resistance(base_key).expect("base maps stored");
    assert!(base_maps.holds_pad_distances());
    let second_store = Arc::new(roomy_store());
    second_store.insert(
        Stage::Resistance,
        base_key,
        StageArtifact::Resistance(base_maps),
    );
    let second = IrFusionPipeline::new(config).with_cache(Arc::clone(&second_store));
    let again_a = edit(&second, a);
    assert_eq!(second_store.stage_counters(Stage::Resistance).misses, 1);
    assert_same_stack(&again_a, &first_a, "edit A after edit B");
}

#[test]
fn a_store_too_small_to_keep_the_base_falls_back_to_the_full_compute() {
    let config = FusionConfig::tiny();
    // One artifact per stage: analysing any other design evicts the
    // base's.
    let store = Arc::new(StageStore::with_shards(1, 1));
    let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
    let base = Arc::new(grid(5));
    let deltas = via_and_top_strap_deltas(&base);
    pipeline.session(Arc::clone(&base)).prepare().expect("pads");
    pipeline
        .session(Arc::new(restriped_grid(5)))
        .prepare()
        .expect("pads");
    let base_key = StagePlan::for_design(&base, &config).resistance;
    assert!(store.peek_resistance(base_key).is_none(), "base evicted");

    let session = pipeline
        .session(Arc::clone(&base))
        .with_topology_deltas(&deltas)
        .expect("valid deltas");
    assert_eq!(session.edit_plan().base_resistance(), Some(base_key));
    let warm = session.prepare().expect("pads");
    let cold = session
        .clone()
        .cache_policy(CachePolicy::Bypass)
        .prepare()
        .expect("pads");
    assert_same_stack(&warm, &cold, "edit without its base");
}

#[test]
fn only_a_base_that_saw_a_topology_edit_holds_distance_arrays() {
    let config = FusionConfig::tiny();
    let store = Arc::new(roomy_store());
    let pipeline = IrFusionPipeline::new(config).with_cache(Arc::clone(&store));
    let base = Arc::new(grid(5));
    let base_key = StagePlan::for_design(&base, &config).resistance;
    let holds = |key: u64| {
        store
            .peek_resistance(key)
            .expect("maps stored")
            .holds_pad_distances()
    };

    // A cold analysis and a current edit: maps only.
    pipeline.session(Arc::clone(&base)).prepare().expect("pads");
    assert!(!holds(base_key), "a cold analysis keeps no arrays");
    pipeline
        .session(Arc::clone(&base))
        .with_current_deltas(&[(1, 2e-3)])
        .prepare()
        .expect("pads");
    assert!(!holds(base_key), "a current edit asks for none");

    // The first topology edit materialises them, in the base.
    let [a, b] = via_and_top_strap_deltas(&base);
    let edited_a = pipeline
        .session(Arc::clone(&base))
        .with_topology_deltas(&[a])
        .expect("valid");
    edited_a.prepare().expect("pads");
    assert!(holds(base_key));
    let a_key = edited_a.stage_plan().resistance;
    assert!(!holds(a_key), "an edited design stores maps only");

    // A chained edit anchors on the first base, not on the design the
    // chain passed through: A's maps are never asked for arrays.
    let before = topology_misses(&store);
    let chained = edited_a.clone().with_topology_deltas(&[b]).expect("valid");
    assert_eq!(chained.edit_plan().base_resistance(), Some(base_key));
    let warm = chained.prepare().expect("pads");
    let missed: Vec<u64> = topology_misses(&store)
        .iter()
        .zip(before)
        .map(|(after, before)| after - before)
        .collect();
    assert_eq!(missed, [1, 1, 0, 1]);
    assert!(!holds(a_key), "the chain anchored on the first base");
    assert!(!holds(chained.stage_plan().resistance));
    let cold = chained
        .clone()
        .cache_policy(CachePolicy::Bypass)
        .prepare()
        .expect("pads");
    assert_same_stack(&warm, &cold, "chained edit");

    // A session opened on an edited design makes *that* design a base.
    let reopened = pipeline
        .session(Arc::clone(edited_a.grid()))
        .with_topology_deltas(&[b])
        .expect("valid");
    assert_eq!(reopened.edit_plan().base_resistance(), Some(a_key));
    assert_eq!(reopened.fingerprint(), chained.fingerprint());
}
