//! `whatif_edits`: the interactive flow. One base design is primed in
//! a stage store; cheap ops edit eight cell currents (reading the warm
//! matrix and AMG hierarchy), costly ops edit eight m1 strap
//! resistances (rewriting both). Every edit is a new design, so no op
//! is answered from an earlier op's stack.

use crate::inputs::{fusion_config, load_model, Rng};
use crate::layers::{
    cold_walk_of_grid, forward_walk, layer_suite, m1_straps, release, same_f32, solve_walk, solver,
    stack_walk, walked_same, ColdWalk, Program, Replays, SuiteInputs, EDITS_PER_OP,
};
use crate::measure::{run_untraced, set_metric, timed, Class, Ops, RunReport, REPLAY_PLAN, ROUNDS};
use crate::trace::Tracer;
use crate::{serve_predict, Ctx};
use ir_fusion::{
    design_fingerprint, AnalysisSession, CachePolicy, Prediction, Stage, StageStore, TopologyDelta,
};
use irf_features::FeatureExtractor;
use irf_pg::{grid_from_spice_path, PowerGrid};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// Far more artifacts per stage than a run creates: the sharded store
/// evicts per shard, well before its nominal capacity.
const STORE_CAPACITY: usize = 4096;

/// The seeded edit lists, one per op, all distinct.
struct Edits {
    current: Vec<Vec<(usize, f64)>>,
    topology: Vec<Vec<TopologyDelta>>,
}

impl Edits {
    fn generate(seed: u64, base: &PowerGrid, per_class: usize) -> Result<Edits, String> {
        let straps = m1_straps(base);
        if base.loads.len() < EDITS_PER_OP || straps.len() < per_class * EDITS_PER_OP {
            return Err("base design too small for the edit lists".into());
        }
        let mut rng = Rng::new(seed, 0xed17);
        // The amps grow with the op index, so two current edits never
        // describe the same design even if they pick the same cells.
        let current = (0..per_class)
            .map(|op| {
                rng.distinct(EDITS_PER_OP, base.loads.len())
                    .into_iter()
                    .map(|i| (base.loads[i].node, 1e-5 * (op + 1) as f64))
                    .collect()
            })
            .collect();
        // One draw without replacement over the m1 straps, cut into
        // disjoint sets: same population, same cost, all distinct.
        let topology = rng
            .distinct(per_class * EDITS_PER_OP, straps.len())
            .chunks(EDITS_PER_OP)
            .map(|set| {
                set.iter()
                    .map(|&i| TopologyDelta::Segment {
                        segment: straps[i],
                        ohms: base.segments[straps[i]].ohms * 0.5,
                    })
                    .collect()
            })
            .collect();
        Ok(Edits { current, topology })
    }
}

/// The program as the set-up leaves it: store, pipeline, model, base
/// design ingested and primed.
struct Primed {
    program: Program,
    store: Arc<StageStore>,
    base: Arc<PowerGrid>,
}

fn prime(base_file: &Path, model_file: &Path) -> Result<Primed, String> {
    let store = Arc::new(StageStore::new(STORE_CAPACITY));
    let mut program = Program::new(fusion_config(), load_model(model_file)?);
    program.pipeline = program.pipeline.with_cache(Arc::clone(&store));
    let base = Arc::new(grid_from_spice_path(base_file).map_err(|e| e.to_string())?);
    program
        .pipeline
        .session(Arc::clone(&base))
        .predict(&program.model)
        .map_err(|e| e.to_string())?;
    Ok(Primed {
        program,
        store,
        base,
    })
}

fn session<'p>(
    primed: &'p Primed,
    edits: &Edits,
    class: Class,
    index: usize,
) -> Result<AnalysisSession<'p>, String> {
    let session = primed.program.pipeline.session(Arc::clone(&primed.base));
    match class {
        Class::Cheap => Ok(session.with_current_deltas(&edits.current[index])),
        Class::Costly => session
            .with_topology_deltas(&edits.topology[index])
            .map_err(|e| e.to_string()),
    }
}

fn edit_op(
    primed: &Primed,
    edits: &Edits,
    class: Class,
    index: usize,
) -> Result<Prediction, String> {
    session(primed, edits, class, index)?
        .predict(&primed.program.model)
        .map_err(|e| e.to_string())
}

/// Misses per stage, to tell which artifacts an op found warm.
fn misses(store: &StageStore) -> [u64; 4] {
    [
        Stage::Assembled,
        Stage::SolverSetup,
        Stage::Structural,
        Stage::Resistance,
    ]
    .map(|stage| store.stage_counters(stage).misses)
}

struct EditOps<'a> {
    primed: Primed,
    edits: &'a Edits,
    /// The last costly index of the window: its output is checked
    /// against a from-scratch analysis, like the first op of each
    /// class.
    last_costly: usize,
    misses_before: [u64; 4],
    seen: HashSet<u64>,
    warm_current_edits: u64,
    current_edits: u64,
}

impl Ops for EditOps<'_> {
    type Output = Prediction;

    fn op(&mut self, class: Class, index: usize) -> Result<Prediction, String> {
        edit_op(&self.primed, self.edits, class, index)
    }

    fn check(&mut self, class: Class, index: usize, prediction: Prediction) -> Result<(), String> {
        let before = std::mem::replace(&mut self.misses_before, misses(&self.primed.store));
        let missed: Vec<u64> = self
            .misses_before
            .iter()
            .zip(before)
            .map(|(a, b)| a - b)
            .collect();
        if !self.seen.insert(prediction.fingerprint) {
            return Err("edit repeated an earlier design".into());
        }
        if prediction.map.data().iter().any(|v| !v.is_finite()) {
            return Err("fused map is not finite".into());
        }
        match class {
            // A current edit reads every topology-keyed artifact warm.
            Class::Cheap => {
                self.current_edits += 1;
                if missed != [0, 0, 0, 0] {
                    return Err(format!("current edit missed warm artifacts: {missed:?}"));
                }
                self.warm_current_edits += 1;
            }
            // A topology edit rewrites the matrix, the hierarchy and
            // the resistance maps, and keeps the geometry maps.
            Class::Costly => {
                if missed != [1, 1, 0, 1] {
                    return Err(format!(
                        "topology edit stage misses {missed:?}, want [1, 1, 0, 1]"
                    ));
                }
            }
        }
        if index == 1 || (class == Class::Costly && index == self.last_costly) {
            let edited = session(&self.primed, self.edits, class, index)?;
            let scratch = edited
                .cache_policy(CachePolicy::Bypass)
                .predict(&self.primed.program.model)
                .map_err(|e| e.to_string())?;
            if !same_f32(scratch.map.data(), prediction.map.data()) {
                return Err("warm result differs from a from-scratch analysis".into());
            }
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<RunReport, String> {
    let base_file = ctx
        .inputs
        .netlist_file("base.sp", ctx.inputs.sizes.whatif_base, 300)?;
    let model_file = ctx.inputs.model_file()?;
    let base = grid_from_spice_path(&base_file).map_err(|e| e.to_string())?;
    let per_class = 2 * ROUNDS + 1 + REPLAY_PLAN.len();
    let edits = Edits::generate(ctx.inputs.seed, &base, per_class)?;
    drop(base);
    if ctx.trace {
        return run_traced(ctx, &base_file, &model_file, &edits);
    }

    // Set-up: a new store and pipeline, the checkpoint, the base
    // design ingested and analysed once.
    let setup = || prime(&base_file, &model_file);
    let (ops, window) = run_untraced(setup, drop, |primed| EditOps {
        misses_before: misses(&primed.store),
        primed,
        edits: &edits,
        last_costly: ROUNDS,
        seen: HashSet::new(),
        warm_current_edits: 0,
        current_edits: 0,
    })?;
    let evictions = ops.primed.store.evictions();
    let note = format!(
        "base of {} nodes; {}/{} current edits found every warm artifact (warm-up included); {evictions} evictions",
        ops.primed.base.nodes.len(),
        ops.warm_current_edits,
        ops.current_edits
    );
    Ok(RunReport::untraced(window, evictions == 0, vec![note]))
}

fn run_traced(
    ctx: &Ctx,
    base_file: &Path,
    model_file: &Path,
    edits: &Edits,
) -> Result<RunReport, String> {
    let mut tr = Tracer::new();
    let config = fusion_config();
    let suite_program = Program::new(config, load_model(model_file)?);
    let mut metrics = layer_suite(
        &mut tr,
        &SuiteInputs {
            program: &suite_program,
            file: base_file,
            ctx,
        },
    )?;
    metrics.extend(serve_predict::probe(ctx, model_file)?);
    drop(suite_program);

    let primed = prime(base_file, model_file)?;
    // The warm artifacts as the benchmark's own walk builds them; the
    // replays read them the way the program reads its store.
    let warm: ColdWalk = cold_walk_of_grid(&mut Tracer::new(), &config, Arc::clone(&primed.base))?;
    let extractor = FeatureExtractor::new(config.feature);
    let program = &primed.program;
    let mut replays = Replays::default();
    for (class, index) in REPLAY_PLAN {
        let (untraced, untraced_s) = timed(|| edit_op(&primed, edits, class, index));
        let prediction = untraced?;
        let prepared = session(&primed, edits, class, index)?
            .prepare()
            .map_err(|e| e.to_string())?;

        let span = tr.begin_op(match class {
            Class::Cheap => "whatif_edits.current_edit",
            Class::Costly => "whatif_edits.topology_edit",
        });
        let opened = tr.time("core.session", || session(&primed, edits, class, index))?;
        let edited = Arc::clone(opened.grid());
        tr.time("core.fingerprint", || design_fingerprint(&edited, &config));
        let stack = match class {
            Class::Cheap => {
                let (_, drops) =
                    solve_walk(&mut tr, &warm.rough.structure, &warm.rough.setup, &edited);
                stack_walk(
                    &mut tr,
                    &config,
                    &edited,
                    &drops,
                    &warm.geometry,
                    &warm.resistance,
                )?
            }
            Class::Costly => {
                let restamped = tr
                    .time("pg.restamp", || warm.rough.structure.restamped(&edited))
                    .ok_or("restamp declined a resistance-only edit")?;
                let rebuilt = tr.time("sparse.amg_rebuild", || {
                    solver(&config).rebuild_from(&warm.rough.setup, &restamped.matrix)
                });
                let (_, drops) = solve_walk(&mut tr, &restamped, &rebuilt, &edited);
                let resistance = tr
                    .time("features.resistance", || extractor.resistance_maps(&edited))
                    .map_err(|e| e.to_string())?;
                stack_walk(
                    &mut tr,
                    &config,
                    &edited,
                    &drops,
                    &warm.geometry,
                    &resistance,
                )?
            }
        };
        let walked_map = forward_walk(&mut tr, program, &prepared);
        release(&mut tr, (opened, edited));
        tr.end(span);

        let same = stack.same_as(&prepared) && same_f32(walked_map.data(), prediction.map.data());
        replays.record((class, index), span, untraced_s, walked_same(same));
    }
    let store = &primed.store;
    set_metric(&mut metrics, "core.stage_hits", store.hits() as f64);
    set_metric(&mut metrics, "core.stage_misses", store.misses() as f64);
    set_metric(
        &mut metrics,
        "core.stage_evictions",
        store.evictions() as f64,
    );
    replays.finish(ctx, &tr, metrics, store.evictions() == 0)
}
