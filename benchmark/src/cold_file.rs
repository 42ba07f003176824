//! `cold_file`: the one-shot CLI path. Each op streams a SPICE file
//! from disk through the whole cold analysis and the model, with no
//! store attached, so nothing is reused between ops.

use crate::inputs::{fusion_config, load_model};
use crate::layers::{
    cold_walk, forward_walk, layer_suite, release, same_f32, walked_same, ColdWalk, Program,
    Replays, StackParts, SuiteInputs,
};
use crate::measure::{run_untraced, timed, Class, Ops, RunReport, REPLAY_PLAN};
use crate::trace::Tracer;
use crate::{serve_predict, Ctx};
use ir_fusion::PreparedStack;
use irf_pg::GridMap;
use std::path::PathBuf;
use std::sync::Arc;

const CHEAP_FILES: usize = 4;
const COSTLY_FILES: usize = 2;

struct Files {
    /// The files of each class, indexed by `Class as usize`.
    by_class: [Vec<PathBuf>; 2],
    model: PathBuf,
}

impl Files {
    fn generate(ctx: &Ctx) -> Result<Files, String> {
        let sizes = ctx.inputs.sizes;
        let write = |class: &str, count: usize, nodes: usize, stream: u64| {
            (0..count)
                .map(|i| {
                    ctx.inputs
                        .netlist_file(&format!("{class}{i}.sp"), nodes, stream + i as u64)
                })
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(Files {
            by_class: [
                write("cheap", CHEAP_FILES, sizes.cold_cheap, 100)?,
                write("costly", COSTLY_FILES, sizes.cold_costly, 200)?,
            ],
            model: ctx.inputs.model_file()?,
        })
    }

    fn of(&self, class: Class, index: usize) -> &PathBuf {
        let files = &self.by_class[class as usize];
        &files[index % files.len()]
    }
}

/// The op: what `irf analyze <file>` does.
fn cold_op(program: &Program, file: &PathBuf) -> Result<(Arc<PreparedStack>, GridMap), String> {
    let stack = program
        .pipeline
        .stack_builder()
        .bypass_cache()
        .prepare_spice_path(file)
        .map_err(|e| e.to_string())?;
    let map = program.pipeline.predict(&program.model, &stack);
    Ok((stack, map))
}

/// What each file's op must return: the stack an independent walk of
/// the layers built, and the map the first op on that file produced.
struct Reference {
    stack: StackParts,
    map: Option<GridMap>,
}

struct ColdOps<'a> {
    program: Program,
    files: &'a Files,
    /// One reference per file, laid out like [`Files::by_class`].
    references: [Vec<Reference>; 2],
}

impl Ops for ColdOps<'_> {
    type Output = (Arc<PreparedStack>, GridMap);

    fn op(&mut self, class: Class, index: usize) -> Result<Self::Output, String> {
        cold_op(&self.program, self.files.of(class, index))
    }

    fn check(
        &mut self,
        class: Class,
        index: usize,
        (stack, map): Self::Output,
    ) -> Result<(), String> {
        let references = &mut self.references[class as usize];
        let count = references.len();
        let reference = &mut references[index % count];
        if !reference.stack.same_as(&stack) {
            return Err("prepared stack differs from the walked layers".into());
        }
        match &reference.map {
            Some(first) if !same_f32(first.data(), map.data()) => {
                Err("fused map differs from the first op on this file".into())
            }
            Some(_) => Ok(()),
            None => {
                if map.data().iter().any(|v| !v.is_finite()) {
                    return Err("fused map is not finite".into());
                }
                reference.map = Some(map);
                Ok(())
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<RunReport, String> {
    let files = Files::generate(ctx)?;
    let config = fusion_config();
    if ctx.trace {
        return run_traced(ctx, &files);
    }
    let references = |paths: &[PathBuf]| {
        paths
            .iter()
            .map(|file| {
                cold_walk(&mut Tracer::new(), &config, file).map(|walk| Reference {
                    stack: walk.stack,
                    map: None,
                })
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let references = [
        references(&files.by_class[0])?,
        references(&files.by_class[1])?,
    ];

    // Set-up: a new pipeline, the checkpoint, and the first op of
    // each class.
    let setup = || {
        let program = Program::new(config, load_model(&files.model)?);
        cold_op(&program, files.of(Class::Cheap, 0))?;
        cold_op(&program, files.of(Class::Costly, 0))?;
        Ok(program)
    };
    let (_, window) = run_untraced(setup, drop, |program| ColdOps {
        program,
        files: &files,
        references,
    })?;
    let note = format!(
        "{CHEAP_FILES} cheap files of ~{} nodes, {COSTLY_FILES} costly of ~{}",
        ctx.inputs.sizes.cold_cheap, ctx.inputs.sizes.cold_costly
    );
    Ok(RunReport::untraced(window, true, vec![note]))
}

fn run_traced(ctx: &Ctx, files: &Files) -> Result<RunReport, String> {
    let program = Program::new(fusion_config(), load_model(&files.model)?);
    let mut tr = Tracer::new();
    let mut metrics = layer_suite(
        &mut tr,
        &SuiteInputs {
            program: &program,
            file: files.of(Class::Cheap, 0),
            ctx,
        },
    )?;
    metrics.extend(serve_predict::probe(ctx, &files.model)?);

    let mut replays = Replays::default();
    for (class, index) in REPLAY_PLAN {
        let file = files.of(class, index);
        let (untraced, untraced_s) = timed(|| cold_op(&program, file));
        let (stack, map) = untraced?;
        let span = tr.begin_op("cold_file.op");
        let ColdWalk {
            stack: walked_stack,
            grid,
            rough,
            geometry,
            resistance,
        } = cold_walk(&mut tr, &program.config, file)?;
        let walked_map = forward_walk(&mut tr, &program, &stack);
        release(&mut tr, (grid, rough, geometry, resistance));
        tr.end(span);
        let same = walked_stack.same_as(&stack) && same_f32(walked_map.data(), map.data());
        replays.record((class, index), span, untraced_s, walked_same(same));
    }
    replays.finish(ctx, &tr, metrics, true)
}
