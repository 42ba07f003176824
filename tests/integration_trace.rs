//! The tracing determinism contract: installing a [`Collector`] only
//! *observes* the pipeline — every output is bitwise identical with
//! tracing enabled or disabled, at any thread count — and the captured
//! trace covers every major stage (SPICE parse, MNA assembly, AMG
//! setup, PCG solve, feature extraction, NN forward).

use ir_fusion::config::FusionConfig;
use ir_fusion::pipeline::IrFusionPipeline;
use ir_fusion::TrainedModel;
use irf_data::synth::{synthesize, synthesize_to_string, SynthSpec};
use irf_data::Dataset;
use irf_models::ModelKind;
use irf_pg::{grid_from_spice_reader, GridMap};
use irf_trace::{AttrValue, Collector};
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The global thread count, the trace collector and the metrics
/// registry are process-wide state; runs that touch any hold this lock.
static PROCESS_STATE: Mutex<()> = Mutex::new(());

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One full end-to-end run: SPICE text -> grid -> rough solve +
/// features -> NN forward. Returns everything float-valued.
fn run_pipeline(
    pipeline: &IrFusionPipeline,
    trained: &TrainedModel,
    spice_text: &str,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let grid = grid_from_spice_reader(spice_text.as_bytes()).expect("valid grid");
    let stack = pipeline
        .stack_builder()
        .bypass_cache()
        .prepare(&grid)
        .expect("grid has pads");
    let fused: GridMap = pipeline.predict(trained, &stack);
    let feature_bits: Vec<u32> = stack
        .features
        .maps()
        .iter()
        .flat_map(|m| m.data().iter().map(|x| x.to_bits()))
        .collect();
    (
        feature_bits,
        bits32(stack.rough.data()),
        bits32(fused.data()),
    )
}

#[test]
fn tracing_is_zero_overhead_and_covers_every_stage() {
    // Training prepares stacks, and so moves the process-wide table
    // counter another test reads: it runs under the lock too.
    let guard = PROCESS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(2, 2, 1, 7);
    let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
    let pipeline = IrFusionPipeline::new(config);
    let spice_text = synthesize_to_string(&SynthSpec {
        seed: 3,
        ..SynthSpec::default()
    });

    let baseline = {
        irf_runtime::set_num_threads(1);
        let out = run_pipeline(&pipeline, &trained, &spice_text);
        irf_runtime::set_num_threads(0);
        out
    };

    for threads in [1, 4, 8] {
        irf_runtime::set_num_threads(threads);

        // Without a collector: the relaxed-load fast path.
        let silent = run_pipeline(&pipeline, &trained, &spice_text);

        // With a collector: identical numbers, plus a trace.
        let collector = Collector::install().expect("no competing collector");
        let recorded = run_pipeline(&pipeline, &trained, &spice_text);
        let trace = collector.finish();

        irf_runtime::set_num_threads(0);

        assert_eq!(
            baseline, silent,
            "untraced outputs differ at {threads} threads"
        );
        assert_eq!(
            baseline, recorded,
            "traced outputs differ at {threads} threads"
        );

        let names: Vec<&str> = trace.events.iter().map(|e| e.name).collect();
        for stage in [
            "spice_parse",
            "mna_assembly",
            "rough_solve",
            "amg_setup",
            "pcg_solve",
            "feature_stack",
            "nn_forward",
        ] {
            assert!(
                names.contains(&stage),
                "stage {stage} missing from trace at {threads} threads: {names:?}"
            );
        }

        // The solver spans carry their telemetry as attributes.
        let pcg = trace
            .events
            .iter()
            .find(|e| e.name == "pcg_solve")
            .expect("pcg span");
        assert!(pcg.args.iter().any(|(k, _)| *k == "iterations"));
        assert!(pcg.args.iter().any(|(k, _)| *k == "residual_history"));
        let amg = trace
            .events
            .iter()
            .find(|e| e.name == "amg_setup")
            .expect("amg span");
        assert!(amg.args.iter().any(|(k, _)| *k == "operator_complexity"));
        // ... and says where its time went: how fast the levels shrank,
        // and how the span splits into pairing and Galerkin products.
        let attr = |key: &str| {
            let found = amg.args.iter().find(|(k, _)| *k == key);
            found
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("amg_setup has no {key}"))
        };
        let (AttrValue::U64(levels), AttrValue::F64List(level_rows)) =
            (attr("levels"), attr("level_rows"))
        else {
            panic!("levels / level_rows have the wrong type");
        };
        assert_eq!(level_rows.len() as u64, *levels);
        assert!(level_rows.windows(2).all(|w| w[1] < w[0]), "{level_rows:?}");
        let (AttrValue::F64(pairing_s), AttrValue::F64(galerkin_s)) =
            (attr("pairing_s"), attr("galerkin_s"))
        else {
            panic!("pairing_s / galerkin_s have the wrong type");
        };
        assert!(*pairing_s >= 0.0 && *galerkin_s >= 0.0);
        assert!(pairing_s + galerkin_s <= amg.dur_ns as f64 * 1e-9);

        // The parse span says how much text it read, so a slow first
        // sight reads as MB/s.
        let parse = trace
            .events
            .iter()
            .find(|e| e.name == "spice_parse")
            .expect("spice_parse span");
        let attr = |key: &str| parse.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        assert_eq!(
            attr("bytes"),
            Some(&AttrValue::U64(spice_text.len() as u64))
        );
        assert_eq!(
            attr("lines"),
            Some(&AttrValue::U64(spice_text.lines().count() as u64))
        );

        // The export round-trips into non-empty Chrome JSON and a
        // profile tree mentioning the solve.
        let json = trace.to_chrome_json();
        assert!(json.contains("\"name\":\"pcg_solve\""));
        assert!(trace.profile_tree().contains("rough_solve"));
    }
    drop(guard);
}

/// The call paths of a span forest, root first.
fn forest_paths(
    trees: &[irf_trace::SpanTree],
    prefix: &mut Vec<&'static str>,
    out: &mut BTreeSet<Vec<&'static str>>,
) {
    for tree in trees {
        prefix.push(tree.event.name);
        out.insert(prefix.clone());
        forest_paths(&tree.children, prefix, out);
        prefix.pop();
    }
}

/// The call paths of a rendered profile tree: one row per path, its
/// depth in the indentation (two spaces a level), its name first.
fn profile_paths(text: &str) -> BTreeSet<Vec<&str>> {
    let mut out = BTreeSet::new();
    let mut path = Vec::new();
    for row in text.lines().skip(1) {
        let name = row.split_whitespace().next().expect("a named row");
        let depth = (row.len() - row.trim_start().len()) / 2;
        path.truncate(depth);
        path.push(name);
        out.insert(path.clone());
    }
    out
}

/// One trace, two views: the flight recorder's snapshot of a request
/// (its span forest, what `/v1/debug/requests/{id}` renders) and the
/// self-profile tree (what `analyze_design --trace` prints) name the
/// same call paths.
#[test]
fn the_request_forest_and_the_profile_tree_show_the_same_spans() {
    let pipeline = IrFusionPipeline::new(FusionConfig::tiny());
    let grid = synthesize(&SynthSpec {
        seed: 3,
        ..SynthSpec::default()
    });
    let request = 0x5eed_1e55;

    let guard = PROCESS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    // One thread: every span opens under the request scope (pool
    // workers do not inherit it).
    irf_runtime::set_num_threads(1);
    let collector = Collector::install().expect("no competing collector");
    let scope = irf_trace::request::scope(request);
    pipeline
        .stack_builder()
        .analyze(&grid, None)
        .expect("grid has pads");
    drop(scope);
    let trace = collector.finish();
    irf_runtime::set_num_threads(0);
    drop(guard);

    let mut from_forest = BTreeSet::new();
    let forest = irf_trace::span_forest(&trace, |e| e.request == request);
    forest_paths(&forest, &mut Vec::new(), &mut from_forest);
    // Tests running beside this one may trace spans of their own into
    // the same collector; the profile is of this request's events.
    let profile = irf_trace::Trace {
        events: trace
            .events
            .into_iter()
            .filter(|e| e.request == request)
            .collect(),
        thread_labels: trace.thread_labels,
    }
    .profile_tree();
    let from_profile = profile_paths(&profile);
    assert!(from_forest.contains(&vec!["analyze_grid", "rough_solve", "pcg_solve"]));
    assert_eq!(from_forest, from_profile);
}

/// The `feature/shortest_path_resistance` span says why a topology
/// what-if was cheap: the first edit of a base materialises the base's
/// per-pad arrays (one full pass per pad), every later one refreshes
/// from them and runs none.
#[test]
fn the_shortest_path_span_says_whether_an_edit_was_refreshed() {
    use ir_fusion::{StageStore, TopologyDelta};
    use std::sync::Arc;

    let config = FusionConfig::tiny();
    let store = Arc::new(StageStore::with_shards(16, 1));
    let pipeline = IrFusionPipeline::new(config).with_cache(store);
    let base = Arc::new(synthesize(&SynthSpec {
        seed: 3,
        ..SynthSpec::default()
    }));
    let pads = base.pads.len() as u64;
    // Two m1 straps: on nobody's shortest path, like the benchmark's.
    let m1_straps: Vec<usize> = (0..base.segments.len())
        .filter(|&i| {
            let s = &base.segments[i];
            base.nodes[s.a].layer == 1 && base.nodes[s.b].layer == 1
        })
        .take(2)
        .collect();

    let guard = PROCESS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Collector::install().expect("no competing collector");
    pipeline.session(Arc::clone(&base)).prepare().expect("pads");
    for &segment in &m1_straps {
        pipeline
            .session(Arc::clone(&base))
            .with_topology_deltas(&[TopologyDelta::Segment {
                segment,
                ohms: base.segments[segment].ohms * 0.5,
            }])
            .expect("valid delta")
            .prepare()
            .expect("pads");
    }
    let trace = collector.finish();
    drop(guard);

    let mut spans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "feature/shortest_path_resistance")
        .collect();
    spans.sort_by_key(|e| e.start_ns);
    let attr = |event: &irf_trace::Event, key: &str| {
        event
            .args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let [cold, first, second] = spans.as_slice() else {
        panic!("one span per analysis, got {}", spans.len());
    };
    assert_eq!(attr(cold, "refreshed"), Some(AttrValue::Bool(false)));
    assert_eq!(attr(cold, "full_passes"), None);
    for (edit, full_passes) in [(first, pads), (second, 0)] {
        assert_eq!(attr(edit, "refreshed"), Some(AttrValue::Bool(true)));
        assert_eq!(attr(edit, "changed_segments"), Some(AttrValue::U64(1)));
        assert_eq!(attr(edit, "settled"), Some(AttrValue::U64(0)));
        assert_eq!(attr(edit, "full_passes"), Some(AttrValue::U64(full_passes)));
    }
}

/// The `amg_setup` span says what a topology edit's setup reused of its
/// base's hierarchy: a cold setup carries no `rebuilt`; an edit whose
/// pairings all hold reuses every level; an edit that moves a strong
/// coupling below the strength threshold refuses at level 0 and names
/// the check.
#[test]
fn the_amg_setup_span_says_what_a_rebuild_reused() {
    use ir_fusion::{StageStore, TopologyDelta};
    use std::sync::Arc;

    let config = FusionConfig::tiny();
    let store = Arc::new(StageStore::with_shards(16, 1));
    let pipeline = IrFusionPipeline::new(config).with_cache(store);
    let base = Arc::new(synthesize(&SynthSpec {
        seed: 3,
        ..SynthSpec::default()
    }));
    let m1_strap = (0..base.segments.len())
        .find(|&i| {
            let s = &base.segments[i];
            base.nodes[s.a].layer == 1 && base.nodes[s.b].layer == 1
        })
        .expect("an m1 strap");
    let ohms = base.segments[m1_strap].ohms;

    let guard = PROCESS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Collector::install().expect("no competing collector");
    pipeline.session(Arc::clone(&base)).prepare().expect("pads");
    for scale in [0.5, 1e3] {
        pipeline
            .session(Arc::clone(&base))
            .with_topology_deltas(&[TopologyDelta::Segment {
                segment: m1_strap,
                ohms: ohms * scale,
            }])
            .expect("valid delta")
            .prepare()
            .expect("pads");
    }
    let trace = collector.finish();
    drop(guard);

    let mut spans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "amg_setup")
        .collect();
    spans.sort_by_key(|e| e.start_ns);
    let attr = |event: &irf_trace::Event, key: &str| {
        event
            .args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let [cold, kept, refused] = spans.as_slice() else {
        panic!("one span per analysis, got {}", spans.len());
    };
    let Some(AttrValue::U64(levels)) = attr(cold, "levels") else {
        panic!("amg_setup has no levels");
    };
    for key in ["rebuilt", "reused_levels", "fallback_level", "fallback"] {
        assert_eq!(attr(cold, key), None, "a cold setup carries no {key}");
    }
    assert_eq!(attr(kept, "rebuilt"), Some(AttrValue::Bool(true)));
    assert_eq!(attr(kept, "reused_levels"), Some(AttrValue::U64(levels)));
    assert_eq!(attr(kept, "fallback_level"), None);
    assert_eq!(attr(kept, "fallback"), None);
    assert_eq!(attr(refused, "rebuilt"), Some(AttrValue::Bool(true)));
    assert_eq!(attr(refused, "reused_levels"), Some(AttrValue::U64(0)));
    assert_eq!(attr(refused, "fallback_level"), Some(AttrValue::U64(0)));
    assert_eq!(
        attr(refused, "fallback"),
        Some(AttrValue::Str("degree".into()))
    );
}

/// The `feature_stack` span says which analysis paid for the per-design
/// rasterization tables, and `irf_tile_tables_built_total` counts them:
/// a cold analysis builds one tile table and one set of conductance
/// shares, a current edit of a primed base reads both warm, a strap
/// edit keeps the tile table (geometry is untouched) and rebuilds the
/// shares once.
#[test]
fn the_feature_stack_span_says_which_tables_an_analysis_built() {
    use ir_fusion::{CachePolicy, StageStore, TopologyDelta};
    use std::sync::Arc;

    let config = FusionConfig::tiny();
    let store = Arc::new(StageStore::with_shards(16, 1));
    let pipeline = IrFusionPipeline::new(config).with_cache(store);
    let base = Arc::new(synthesize(&SynthSpec {
        seed: 3,
        ..SynthSpec::default()
    }));
    let m1_strap = (0..base.segments.len())
        .find(|&i| {
            let s = &base.segments[i];
            base.nodes[s.a].layer == 1 && base.nodes[s.b].layer == 1
        })
        .expect("an m1 strap");
    let load = base.loads[0].node;
    let built = |table: &str| {
        irf_trace::registry()
            .get("irf_tile_tables_built_total", &[("table", table)])
            .unwrap_or(0.0)
    };

    let guard = PROCESS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Collector::install().expect("no competing collector");
    // One request id per analysis: the spans of each are told apart by
    // it, whatever else the process is tracing.
    let mut counts = Vec::new();
    let mut analysis = |request: u64, run: &dyn Fn()| {
        let before = (built("tile"), built("share"));
        let scope = irf_trace::request::scope(request);
        run();
        drop(scope);
        counts.push((built("tile") - before.0, built("share") - before.1));
    };
    analysis(1, &|| {
        pipeline.session(Arc::clone(&base)).prepare().expect("pads");
    });
    analysis(2, &|| {
        pipeline
            .session(Arc::clone(&base))
            .with_current_deltas(&[(load, 1e-4)])
            .prepare()
            .expect("pads");
    });
    analysis(3, &|| {
        pipeline
            .session(Arc::clone(&base))
            .with_topology_deltas(&[TopologyDelta::Segment {
                segment: m1_strap,
                ohms: base.segments[m1_strap].ohms * 0.5,
            }])
            .expect("valid delta")
            .prepare()
            .expect("pads");
    });
    analysis(4, &|| {
        pipeline
            .session(Arc::clone(&base))
            .cache_policy(CachePolicy::Bypass)
            .prepare()
            .expect("pads");
    });
    let trace = collector.finish();
    drop(guard);

    let said = |request: u64| {
        let stacks: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.name == "feature_stack" && e.request == request)
            .collect();
        let [stack] = stacks.as_slice() else {
            panic!("request {request}: {} feature_stack spans", stacks.len());
        };
        let attr = |key: &str| match stack.args.iter().find(|(k, _)| *k == key) {
            Some((_, AttrValue::Str(s))) => s.to_string(),
            other => panic!("request {request}: {key} is {other:?}"),
        };
        (attr("tile_table"), attr("share_tables"))
    };
    let pair = |tile: &str, share: &str| (tile.to_string(), share.to_string());
    // (tile tables, share tables) built, and what the span said.
    assert_eq!((counts[0], said(1)), ((1.0, 1.0), pair("built", "built")));
    assert_eq!((counts[1], said(2)), ((0.0, 0.0), pair("warm", "warm")));
    assert_eq!((counts[2], said(3)), ((0.0, 1.0), pair("warm", "built")));
    assert_eq!((counts[3], said(4)), ((1.0, 1.0), pair("built", "built")));
}

/// The `pcg_solve` span counts what the cycles did, so work per level
/// reads off a trace (with `level_nnz` on `amg_setup`) without a
/// profiler: one cycle per iteration — none after the last — and three
/// passes over a level's matrix per visit under one Jacobi sweep (the
/// residual, the post-smoother's, and the K-cycle's or PCG's own
/// SpMV; the pre-smoother's first sweep starts from zero and needs
/// none).
#[test]
fn the_pcg_span_counts_cycles_visits_and_matrix_passes_per_level() {
    use irf_sparse::amg::AmgParams;
    use irf_sparse::smoother::SmootherKind;
    use irf_sparse::{Solver, SolverKind};
    use irf_trace::AttrValue;

    let grid = synthesize(&SynthSpec::scaled_to_nodes(3000, 5));
    let structure = irf_pg::PgStructure::build(&grid);
    let rhs = structure.rhs(&grid.loads);
    let setup = Solver::new(SolverKind::AmgPcg)
        .with_amg_params(AmgParams {
            smoother: SmootherKind::Jacobi,
            smoothing_sweeps: 1,
            ..AmgParams::default()
        })
        .with_tolerance(1e-30)
        .with_max_iterations(6)
        .prepare(&structure.matrix);

    let guard = PROCESS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let collector = Collector::install().expect("no competing collector");
    let report = setup.solve(&structure.matrix, &rhs);
    let trace = collector.finish();
    drop(guard);
    assert_eq!(report.iterations, 6);

    let pcg = trace
        .events
        .iter()
        .find(|e| e.name == "pcg_solve")
        .expect("pcg span");
    let attr = |key: &str| {
        pcg.args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("pcg_solve span has no {key}"))
    };
    assert_eq!(attr("cycle_applications"), AttrValue::U64(6));
    let (AttrValue::F64List(visits), AttrValue::F64List(passes)) =
        (attr("level_visits"), attr("level_matrix_passes"))
    else {
        panic!("per-level counts are lists");
    };
    assert!(visits.len() >= 3, "{} levels", visits.len());
    assert_eq!(visits.len(), passes.len());
    assert_eq!(visits[0], 6.0, "one fine-level visit per application");
    for level in 0..visits.len() - 1 {
        assert_eq!(
            passes[level],
            3.0 * visits[level],
            "level {level}: {passes:?} passes over {visits:?} visits"
        );
    }
    assert!(
        visits.windows(2).all(|w| w[0] <= w[1]),
        "a K-cycle visits a coarser level at least as often: {visits:?}"
    );
}
