//! `solve_k24`: the numerical substrate alone. Each op assembles an
//! in-memory grid, builds the AMG hierarchy and runs 24 K-cycle PCG
//! iterations; no features, no model, no store.

use crate::inputs::{fusion_config, load_model};
use crate::layers::{
    layer_suite, relative_residual, release, rough_walk, same_f64, walked_same, Program, Replays,
    RoughWalk, SuiteInputs,
};
use crate::measure::{run_untraced, timed, Class, Ops, RunReport, REPLAY_PLAN};
use crate::trace::Tracer;
use crate::{serve_predict, Ctx};
use ir_fusion::{FusionConfig, IrFusionPipeline};
use irf_pg::{grid_from_spice_path, PgStructure, PowerGrid};
use irf_sparse::{SolveReport, SolverKind};
use std::path::PathBuf;

const GRIDS_PER_CLASS: usize = 2;
const ITERATIONS: usize = 24;

/// The truncated solve must at least reach this relative residual in
/// its 24 iterations. The seed commit reaches 3.5e-5 on a 20k-node
/// grid and 4.4e-4 on a 50k-node one, so this catches a solver that
/// stops converging, not one that converges a little slower.
const RESIDUAL_LIMIT: f64 = 1e-2;

pub fn config() -> FusionConfig {
    FusionConfig {
        solver_kind: SolverKind::AmgPcg,
        solver_iterations: ITERATIONS,
        ..fusion_config()
    }
}

/// One in-memory grid with the benchmark's own assembly of it, which
/// the residual check multiplies against.
struct Case {
    grid: PowerGrid,
    structure: PgStructure,
    rhs: Vec<f64>,
    first_drops: Option<Vec<f64>>,
}

impl Case {
    fn load(file: &PathBuf) -> Result<Case, String> {
        let grid = grid_from_spice_path(file).map_err(|e| e.to_string())?;
        let structure = PgStructure::build(&grid);
        let rhs = structure.rhs(&grid.loads);
        Ok(Case {
            grid,
            structure,
            rhs,
            first_drops: None,
        })
    }

    fn check(&mut self, drops: Vec<f64>, report: &SolveReport) -> Result<(), String> {
        if report.iterations > ITERATIONS {
            return Err(format!(
                "{} iterations, budget {ITERATIONS}",
                report.iterations
            ));
        }
        let residual = relative_residual(&self.structure.matrix, &report.x, &self.rhs);
        if residual.is_nan() || residual > RESIDUAL_LIMIT {
            return Err(format!(
                "relative residual {residual:e} above {RESIDUAL_LIMIT:e}"
            ));
        }
        if (residual - report.residual).abs() > 1e-6 * residual.max(1e-300) + 1e-14 {
            return Err(format!(
                "reported residual {:e}, recomputed {residual:e}",
                report.residual
            ));
        }
        if !same_f64(&drops, &self.structure.expand_solution(&report.x)) {
            return Err("drops are not the expanded solution".into());
        }
        match &self.first_drops {
            Some(first) if !same_f64(first, &drops) => {
                Err("drops differ from the first solve of this grid".into())
            }
            Some(_) => Ok(()),
            None => {
                self.first_drops = Some(drops);
                Ok(())
            }
        }
    }
}

struct SolveOps {
    pipeline: IrFusionPipeline,
    /// The grids of each class, indexed by `Class as usize`.
    cases: [Vec<Case>; 2],
}

impl Ops for SolveOps {
    type Output = (Vec<f64>, SolveReport);

    fn op(&mut self, class: Class, index: usize) -> Result<Self::Output, String> {
        let cases = &self.cases[class as usize];
        Ok(self
            .pipeline
            .rough_solution(&cases[index % cases.len()].grid))
    }

    fn check(
        &mut self,
        class: Class,
        index: usize,
        (drops, report): Self::Output,
    ) -> Result<(), String> {
        let cases = &mut self.cases[class as usize];
        let count = cases.len();
        cases[index % count].check(drops, &report)
    }
}

pub fn run(ctx: &Ctx) -> Result<RunReport, String> {
    let sizes = ctx.inputs.sizes;
    let write = |class: &str, nodes: usize, stream: u64| {
        (0..GRIDS_PER_CLASS)
            .map(|i| {
                ctx.inputs
                    .netlist_file(&format!("{class}{i}.sp"), nodes, stream + i as u64)
            })
            .collect::<Result<Vec<_>, _>>()
    };
    // Indexed by `Class as usize`.
    let files = [
        write("cheap", sizes.solve_cheap, 500)?,
        write("costly", sizes.solve_costly, 600)?,
    ];
    if ctx.trace {
        return run_traced(ctx, &files);
    }

    // Set-up: a new pipeline, the costly file ingested, its first
    // solve.
    let setup = || {
        let pipeline = IrFusionPipeline::new(config());
        let grid =
            grid_from_spice_path(&files[Class::Costly as usize][0]).map_err(|e| e.to_string())?;
        std::hint::black_box(pipeline.rough_solution(&grid));
        Ok(pipeline)
    };
    let load = |files: &[PathBuf]| files.iter().map(Case::load).collect::<Result<Vec<_>, _>>();
    let cases = [load(&files[0])?, load(&files[1])?];
    let note = format!(
        "{GRIDS_PER_CLASS} cheap grids of {} nodes, {GRIDS_PER_CLASS} costly of {}",
        cases[0][0].grid.nodes.len(),
        cases[1][0].grid.nodes.len()
    );
    let (_, window) = run_untraced(setup, drop, |pipeline| SolveOps { pipeline, cases })?;
    Ok(RunReport::untraced(window, true, vec![note]))
}

fn run_traced(ctx: &Ctx, files: &[Vec<PathBuf>; 2]) -> Result<RunReport, String> {
    let model_file = ctx.inputs.model_file()?;
    let program = Program::new(config(), load_model(&model_file)?);
    let mut tr = Tracer::new();
    let mut metrics = layer_suite(
        &mut tr,
        &SuiteInputs {
            program: &program,
            file: &files[Class::Cheap as usize][0],
            ctx,
        },
    )?;
    metrics.extend(serve_predict::probe(ctx, &model_file)?);

    let mut replays = Replays::default();
    for (class, index) in REPLAY_PLAN {
        let files = &files[class as usize];
        let mut case = Case::load(&files[index % files.len()])?;
        let ((drops, report), untraced_s) = timed(|| program.pipeline.rough_solution(&case.grid));
        let span = tr.begin_op("solve_k24.op");
        let RoughWalk {
            drops: walked_drops,
            structure,
            setup,
            report: walked_report,
        } = rough_walk(&mut tr, &program.config, &case.grid);
        release(&mut tr, (structure, setup, walked_report));
        tr.end(span);
        let same = walked_same(same_f64(&walked_drops, &drops));
        let outcome = case.check(drops, &report).and(same);
        replays.record((class, index), span, untraced_s, outcome);
    }
    replays.finish(ctx, &tr, metrics, true)
}
