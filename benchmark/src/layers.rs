//! The stages of one analysis walked from outside through each
//! layer's public functions, one span per call. The workloads replay
//! their ops through these walks in a traced run, and the layer suite
//! derives the per-layer metrics from the same spans.

use crate::inputs::Rng;
use crate::measure::{fastest, median, timed, Class, Metric, RunReport};
use crate::trace::Tracer;
use crate::Ctx;
use ir_fusion::{
    design_fingerprint, FusionConfig, IrFusionPipeline, PreparedStack, StageStore, TrainedModel,
};
use irf_features::{FeatureExtractor, FeatureStack, GeometryMaps, ResistanceMaps};
use irf_pg::{grid_from_spice_path, GridMap, PgStructure, PowerGrid};
use irf_sparse::amg::AmgHierarchy;
use irf_sparse::{CsrMatrix, SolveReport, Solver, SolverSetup};
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

/// Edits per what-if op, and per restamp / session probe.
pub const EDITS_PER_OP: usize = 8;

/// Times the layer suite makes each call; a layer's time is the
/// fastest of them.
const CALLS: usize = 3;

/// The program as a workload holds it: one pipeline and the loaded
/// model.
pub struct Program {
    pub config: FusionConfig,
    pub pipeline: IrFusionPipeline,
    pub model: TrainedModel,
}

impl Program {
    pub fn new(config: FusionConfig, model: TrainedModel) -> Self {
        Program {
            config,
            pipeline: IrFusionPipeline::new(config),
            model,
        }
    }
}

/// The solver the pipeline configures for its rough solve: the
/// iteration budget is the only stop.
pub fn solver(config: &FusionConfig) -> Solver {
    Solver::new(config.solver_kind)
        .with_amg_params(config.amg)
        .with_tolerance(1e-12)
        .with_max_iterations(config.solver_iterations)
}

pub fn same_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn same_f64(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Assembly through the truncated solve.
pub struct RoughWalk {
    pub structure: PgStructure,
    pub setup: SolverSetup,
    pub report: SolveReport,
    pub drops: Vec<f64>,
}

pub fn rough_walk(tr: &mut Tracer, config: &FusionConfig, grid: &PowerGrid) -> RoughWalk {
    let structure = tr.time("pg.assemble", || PgStructure::build(grid));
    let setup = tr.time("sparse.amg_setup", || {
        solver(config).prepare(&structure.matrix)
    });
    let (report, drops) = solve_walk(tr, &structure, &setup, grid);
    RoughWalk {
        structure,
        setup,
        report,
        drops,
    }
}

/// Right-hand side, truncated solve, expansion to node space.
pub fn solve_walk(
    tr: &mut Tracer,
    structure: &PgStructure,
    setup: &SolverSetup,
    grid: &PowerGrid,
) -> (SolveReport, Vec<f64>) {
    let rhs = tr.time("pg.rhs", || structure.rhs(&grid.loads));
    let report = tr.time("sparse.solve", || setup.solve(&structure.matrix, &rhs));
    let drops = tr.time("pg.expand", || structure.expand_solution(&report.x));
    (report, drops)
}

/// The feature stack and rough map a prepared stack carries.
pub struct StackParts {
    pub features: FeatureStack,
    pub rough: GridMap,
}

impl StackParts {
    /// Bit-for-bit equality with what the program prepared.
    pub fn same_as(&self, prepared: &PreparedStack) -> bool {
        same_f32(&self.features.to_nchw().3, &prepared.features.to_nchw().3)
            && same_f32(self.rough.data(), prepared.rough.data())
    }
}

pub fn stack_walk(
    tr: &mut Tracer,
    config: &FusionConfig,
    grid: &PowerGrid,
    drops: &[f64],
    geometry: &GeometryMaps,
    resistance: &ResistanceMaps,
) -> Result<StackParts, String> {
    let extractor = FeatureExtractor::new(config.feature);
    tr.time("features.stack", || {
        let features = extractor
            .extract_with_parts(grid, drops, geometry, resistance)
            .map_err(|e| e.to_string())?;
        let raster = extractor.rasterizer(grid);
        let rough = irf_features::solution::bottom_layer_solution_map(grid, drops, &raster);
        Ok(StackParts { features, rough })
    })
}

/// Everything a cold analysis builds before the model runs.
pub struct ColdWalk {
    pub grid: Arc<PowerGrid>,
    pub rough: RoughWalk,
    pub geometry: GeometryMaps,
    pub resistance: ResistanceMaps,
    pub stack: StackParts,
}

pub fn cold_walk(tr: &mut Tracer, config: &FusionConfig, file: &Path) -> Result<ColdWalk, String> {
    let grid = tr
        .time("pg.ingest", || grid_from_spice_path(file))
        .map_err(|e| e.to_string())?;
    // The program keys every stage by content before it computes one.
    tr.time("core.fingerprint", || {
        black_box(design_fingerprint(&grid, config))
    });
    cold_walk_of_grid(tr, config, Arc::new(grid))
}

pub fn cold_walk_of_grid(
    tr: &mut Tracer,
    config: &FusionConfig,
    grid: Arc<PowerGrid>,
) -> Result<ColdWalk, String> {
    let rough = rough_walk(tr, config, &grid);
    let extractor = FeatureExtractor::new(config.feature);
    let geometry = tr
        .time("features.geometry", || extractor.geometry(&grid))
        .map_err(|e| e.to_string())?;
    let resistance = tr
        .time("features.resistance", || extractor.resistance_maps(&grid))
        .map_err(|e| e.to_string())?;
    let stack = stack_walk(tr, config, &grid, &rough.drops, &geometry, &resistance)?;
    Ok(ColdWalk {
        grid,
        rough,
        geometry,
        resistance,
        stack,
    })
}

/// Frees what a walk built, inside the op span: the program's own op
/// releases its grid, matrix and hierarchy before it returns, too.
pub fn release<T>(tr: &mut Tracer, built: T) {
    tr.time("core.release", || drop(built));
}

pub fn forward_walk(tr: &mut Tracer, program: &Program, stack: &PreparedStack) -> GridMap {
    tr.time("nn.forward", || {
        program.pipeline.predict(&program.model, stack)
    })
}

/// Indices of the m1 strap segments: both ends on layer 1. Topology
/// edits draw from this one population so they cost the same.
pub fn m1_straps(grid: &PowerGrid) -> Vec<usize> {
    grid.segments
        .iter()
        .enumerate()
        .filter(|(_, s)| grid.nodes[s.a].layer == 1 && grid.nodes[s.b].layer == 1)
        .map(|(i, _)| i)
        .collect()
}

/// `||b - A x|| / ||b||` by the benchmark's own loop over the CSR.
pub fn relative_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
    let mut rr = 0.0;
    let mut bb = 0.0;
    for row in 0..a.rows() {
        let mut ax = 0.0;
        for k in row_ptr[row]..row_ptr[row + 1] {
            ax += values[k] * x[col_idx[k]];
        }
        rr += (b[row] - ax) * (b[row] - ax);
        bb += b[row] * b[row];
    }
    if bb == 0.0 {
        0.0
    } else {
        (rr / bb).sqrt()
    }
}

/// What the layer suite needs besides the probe design.
pub struct SuiteInputs<'a> {
    pub program: &'a Program,
    /// The workload's cheap-class design; every layer is walked on it.
    pub file: &'a Path,
    pub ctx: &'a Ctx,
}

fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// Walks every layer on the suite design three times and adds the
/// calls no cold analysis makes (restamp, rebuild, session, batched
/// forward, a second thread). It runs first in a traced run, so the
/// resident set after each stage is that of a fresh process. Returns
/// every per-layer metric but the `serve.*` ones
/// ([`crate::serve_predict::probe`]) and the `trace.*` ones and
/// `core.unattributed_s`, which come from the workload's own replayed
/// ops.
pub fn layer_suite(tr: &mut Tracer, inputs: &SuiteInputs<'_>) -> Result<Vec<Metric>, String> {
    let program = inputs.program;
    let config = &program.config;
    let first_span = tr.spans().len();
    let suite = tr.begin_op("suite");
    let mut walk = None;
    for _ in 0..CALLS {
        // One walk's artifacts at a time, so the resident set after
        // each stage is that of a single analysis.
        drop(walk.take());
        let walk_span = tr.begin("suite.cold_walk");
        walk = Some(cold_walk(tr, config, inputs.file)?);
        tr.end(walk_span);
    }
    let walk = walk.expect("the walks ran");
    let grid = &walk.grid;
    let structure = &walk.rough.structure;
    let setup = &walk.rough.setup;
    let report = &walk.rough.report;
    // Resident set after each stage of the first walk, before any
    // probe below has grown the heap.
    let rss_after = |name: &str| {
        tr.spans()[first_span..]
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| s.rss_after_mb)
    };
    let mem = [
        metric("mem.rss_after_ingest_mb", rss_after("pg.ingest")),
        metric("mem.rss_after_assemble_mb", rss_after("pg.assemble")),
        metric("mem.rss_after_amg_setup_mb", rss_after("sparse.amg_setup")),
        metric("mem.rss_after_solve_mb", rss_after("sparse.solve")),
        metric("mem.rss_after_features_mb", rss_after("features.stack")),
    ];

    let prepared = program
        .pipeline
        .stack_builder()
        .bypass_cache()
        .prepare(grid)
        .map_err(|e| e.to_string())?;
    if !walk.stack.same_as(&prepared) {
        return Err("suite walk differs from the program's prepared stack".into());
    }
    for _ in 0..CALLS {
        black_box(forward_walk(tr, program, &prepared));
    }
    let batch = [&*prepared; 4];
    for _ in 0..CALLS {
        tr.time("nn.forward_b4", || {
            black_box(program.pipeline.predict_batch(&program.model, &batch))
        });
    }

    let bytes = std::fs::metadata(inputs.file)
        .map_err(|e| e.to_string())?
        .len() as f64;
    for _ in 0..CALLS {
        let file = File::open(inputs.file).map_err(|e| e.to_string())?;
        let mut cards = 0u64;
        tr.time("spice.visit", || {
            irf_spice::visit_cards(BufReader::new(file), |_| {
                cards += 1;
                Ok(())
            })
        })
        .map_err(|e| e.to_string())?;
        black_box(cards);
    }

    // The calls only an edit makes: restamp into the warm pattern,
    // rebuild the hierarchy against the warm setup, open a session.
    let straps = m1_straps(grid);
    let mut rng = Rng::new(inputs.ctx.inputs.seed, 0x5117e);
    let mut restamp_ok = 0usize;
    let mut restamped = None;
    for _ in 0..CALLS {
        let mut edited = (**grid).clone();
        for i in rng.distinct(EDITS_PER_OP.min(straps.len()), straps.len()) {
            edited.segments[straps[i]].ohms *= 0.5;
        }
        if let Some(s) = tr.time("pg.restamp", || structure.restamped(&edited)) {
            restamp_ok += 1;
            restamped = Some(s);
        }
    }
    let restamped = restamped.ok_or("restamp declined every edit")?;
    for _ in 0..CALLS {
        tr.time("sparse.amg_rebuild", || {
            black_box(solver(config).rebuild_from(setup, &restamped.matrix))
        });
    }
    let deltas: Vec<(usize, f64)> = rng
        .distinct(EDITS_PER_OP, grid.nodes.len())
        .into_iter()
        .map(|node| (node, 1e-4))
        .collect();
    for _ in 0..CALLS {
        tr.time("core.session", || {
            black_box(
                program
                    .pipeline
                    .session(Arc::clone(grid))
                    .with_current_deltas(&deltas),
            )
        });
    }
    let store = Arc::new(StageStore::new(64));
    let cached = program.pipeline.clone().with_cache(Arc::clone(&store));
    cached
        .stack_builder()
        .prepare(grid)
        .map_err(|e| e.to_string())?;
    for _ in 0..CALLS {
        tr.time("core.store_hit", || {
            black_box(cached.stack_builder().prepare(grid))
        })
        .map_err(|e| e.to_string())?;
    }
    // The workloads that attach a store of their own replace these
    // three with its counts.
    let store_counts = [store.hits(), store.misses(), store.evictions()];

    let hierarchy = AmgHierarchy::build(&structure.matrix, config.amg);
    let rhs = structure.rhs(&grid.loads);
    let rel_residual = relative_residual(&structure.matrix, &report.x, &rhs);

    // Bandwidth: spmv on the fine operator against a triad over arrays
    // far larger than the private caches, both on computed bytes.
    let a = &structure.matrix;
    let x = vec![1.0; a.cols()];
    let mut y = vec![0.0; a.rows()];
    let spmv_bytes = (a.nnz() * 16 + a.rows() * 16 + a.cols() * 8) as f64;
    let reps = (2e8 / spmv_bytes).ceil().max(3.0) as usize;
    a.spmv_into(&x, &mut y);
    let ((), spmv_s) = tr.time("sparse.spmv", || {
        timed(|| {
            for _ in 0..reps {
                a.spmv_into(black_box(&x), black_box(&mut y));
            }
        })
    });
    let spmv_gbs = spmv_bytes * reps as f64 / spmv_s / 1e9;
    let triad_gbs = tr.time("machine.triad", || {
        triad_gbs(inputs.ctx.inputs.sizes.triad_len)
    });

    // The cold op at one thread and at two.
    let cold_op = |threads: usize| {
        timed(|| {
            let stack = program
                .pipeline
                .stack_builder()
                .bypass_cache()
                .threads(threads)
                .prepare_spice_path(inputs.file)?;
            Ok::<_, ir_fusion::StreamPrepareError>(program.pipeline.predict(&program.model, &stack))
        })
    };
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    for _ in 0..CALLS {
        for (threads, seconds) in [(1, &mut t1), (2, &mut t2)] {
            let (map, s) = tr.time("runtime.cold_op", || cold_op(threads));
            black_box(map.map_err(|e| e.to_string())?);
            seconds.push(s);
        }
    }
    tr.end(suite);

    // A layer's time is the fastest of its calls.
    let fast = |name: &str| fastest(&tr.durations(name));
    let visit_s = fast("spice.visit");
    let solve_s = fast("sparse.solve");
    let mut metrics = vec![
        metric("spice.bytes", bytes),
        metric("spice.visit_s", visit_s),
        metric("spice.mb_per_s", bytes / 1e6 / visit_s),
        metric("pg.nodes", grid.nodes.len() as f64),
        metric("pg.nnz", a.nnz() as f64),
        metric("pg.ingest_s", fast("pg.ingest") - visit_s),
        metric("pg.assemble_s", fast("pg.assemble")),
        metric("pg.rhs_s", fast("pg.rhs")),
        metric("pg.restamp_s", fast("pg.restamp")),
        metric("pg.restamp_ok_share", restamp_ok as f64 / CALLS as f64),
        metric("sparse.amg_setup_s", fast("sparse.amg_setup")),
        metric("sparse.solve_s", solve_s),
        metric("sparse.pcg_iterations", report.iterations as f64),
        metric(
            "sparse.solve_s_per_iter",
            solve_s / report.iterations.max(1) as f64,
        ),
        metric("sparse.amg_levels", hierarchy.num_levels() as f64),
        metric(
            "sparse.operator_complexity",
            hierarchy.operator_complexity(),
        ),
        metric("sparse.rel_residual", rel_residual),
        metric("sparse.spmv_gbs", spmv_gbs),
        metric("sparse.spmv_share_of_triad", spmv_gbs / triad_gbs),
        metric("sparse.amg_rebuild_s", fast("sparse.amg_rebuild")),
        metric("features.geometry_s", fast("features.geometry")),
        metric("features.resistance_s", fast("features.resistance")),
        metric("features.stack_s", fast("features.stack")),
        metric("nn.forward_s", fast("nn.forward")),
        metric("nn.forward_b4_s_per_sample", fast("nn.forward_b4") / 4.0),
        metric("nn.params", program.model.store.num_scalars() as f64),
        metric("core.fingerprint_s", fast("core.fingerprint")),
        metric("core.session_s", fast("core.session")),
        metric("core.store_hit_s", fast("core.store_hit")),
        metric("core.stage_hits", store_counts[0] as f64),
        metric("core.stage_misses", store_counts[1] as f64),
        metric("core.stage_evictions", store_counts[2] as f64),
        metric("runtime.t2_op_s", fastest(&t2)),
        metric("runtime.t2_speedup", fastest(&t1) / fastest(&t2)),
        metric("machine.triad_gbs", triad_gbs),
    ];
    metrics.extend(mem);
    Ok(metrics)
}

/// STREAM triad `a = b + s * c` on three arrays of `len` doubles:
/// best of five passes, 24 computed bytes per element.
fn triad_gbs(len: usize) -> f64 {
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let ((), seconds) = timed(|| {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = *b + 3.0 * *c;
            }
            black_box(&mut a);
        });
        best = best.min(seconds);
    }
    (len * 24) as f64 / best / 1e9
}

/// The replayed ops of a traced run: each was first run untraced
/// through the program's front door, then walked stage by stage under
/// one op span.
#[derive(Default)]
pub struct Replays {
    /// Op span and untraced wall time of each cheap-class replay; the
    /// suite walked the cheap design, so its layer times are shares of
    /// these ops.
    cheap: Vec<(usize, f64)>,
    failed: u64,
}

impl Replays {
    /// Records one replay; `outcome` says whether the walked output
    /// equalled the untraced op's bit for bit.
    pub fn record(
        &mut self,
        (class, index): (Class, usize),
        span: usize,
        untraced_s: f64,
        outcome: Result<(), String>,
    ) {
        if let Err(error) = outcome {
            self.failed += 1;
            eprintln!("{class:?} replay {index}: {error}");
        }
        if class == Class::Cheap {
            self.cheap.push((span, untraced_s));
        }
    }

    /// Adds the three `trace.*` metrics and `core.unattributed_s`,
    /// writes the trace, and reports the run. Unattributed is the part
    /// of the program's own op that none of the walked calls accounts
    /// for: its untraced wall time minus the walked stages.
    pub fn finish(
        self,
        ctx: &Ctx,
        tr: &Tracer,
        mut metrics: Vec<Metric>,
        sound: bool,
    ) -> Result<RunReport, String> {
        let traced: Vec<f64> = self
            .cheap
            .iter()
            .map(|&(span, _)| tr.spans()[span].seconds())
            .collect();
        let untraced: Vec<f64> = self.cheap.iter().map(|&(_, s)| s).collect();
        let unattributed: Vec<f64> = self
            .cheap
            .iter()
            .map(|&(span, s)| s - (tr.spans()[span].seconds() - tr.self_seconds(span)))
            .collect();
        metrics.extend([
            metric("core.unattributed_s", median(&unattributed)),
            metric("trace.spans", tr.spans().len() as f64),
            metric("trace.op_wall_s", fastest(&traced)),
            metric(
                "trace.overhead_pct",
                100.0 * (fastest(&traced) / fastest(&untraced) - 1.0),
            ),
        ]);
        ctx.write_trace(tr)?;
        Ok(RunReport::traced(metrics, self.failed, sound))
    }
}

/// The verdict of comparing a walked output with the untraced op's.
pub fn walked_same(same: bool) -> Result<(), String> {
    same.then_some(())
        .ok_or_else(|| "walked layers differ from the op's output".to_string())
}
