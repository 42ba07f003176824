//! The bounded-memory prepare path end to end: streaming SPICE parse
//! and grid ingest must be indistinguishable — bit for bit — from the
//! materialize-everything path, and the downstream assembly + AMG +
//! rough solve must stay bitwise identical at any thread count.

use ir_fusion::config::FusionConfig;
use ir_fusion::pipeline::IrFusionPipeline;
use irf_data::synth::{synthesize_to_path, synthesize_to_string, SynthSpec};
use irf_pg::{PgSystem, PowerGrid};
use irf_sparse::{CsrMatrix, Solver, SolverKind};
use std::io::{BufReader, Cursor};
use std::path::PathBuf;
use std::sync::Mutex;

/// The global thread count is process-wide state; tests in this binary
/// run concurrently, so every comparison holds this lock while it
/// flips between serial and parallel execution.
static THREAD_CONFIG: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREAD_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    irf_runtime::set_num_threads(n);
    let result = f();
    irf_runtime::set_num_threads(0);
    result
}

fn medium_spec() -> SynthSpec {
    SynthSpec {
        m1_stripes: 96,
        m2_stripes: 96,
        m4_stripes: 8,
        blockages: 2,
        stripe_jitter: 0.1,
        hotspot_clusters: 3,
        hotspot_fraction: 0.4,
        seed: 23,
        ..SynthSpec::default()
    }
}

fn temp_netlist(name: &str, spec: &SynthSpec) -> PathBuf {
    let dir = std::env::temp_dir().join("irf_integration_streaming");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    synthesize_to_path(spec, &path).expect("stream netlist to file");
    path
}

type MatrixBits = (Vec<usize>, Vec<usize>, Vec<u64>);

fn matrix_bits(a: &CsrMatrix) -> MatrixBits {
    (
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.values().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn streaming_parse_matches_materialized_parse() {
    let spec = medium_spec();
    let src = synthesize_to_string(&spec);
    let materialized = irf_spice::parse(&src).expect("materialized parse");
    let streamed = irf_spice::parse_reader(Cursor::new(src.as_bytes())).expect("streamed parse");
    assert_eq!(materialized, streamed, "netlists must be identical");
    assert_eq!(materialized.content_hash(), streamed.content_hash());

    let path = temp_netlist("parse_parity.sp", &spec);
    let file = std::fs::File::open(&path).expect("open netlist file");
    let from_file = irf_spice::parse_reader(BufReader::new(file)).expect("parse from file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(materialized.content_hash(), from_file.content_hash());
}

#[test]
fn streaming_grid_ingest_matches_materialized_path() {
    let spec = medium_spec();
    let path = temp_netlist("ingest_parity.sp", &spec);
    let streamed = irf_pg::grid_from_spice_path(&path).expect("streaming ingest");

    let src = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    let netlist = irf_spice::parse(&src).expect("parse");
    let materialized = PowerGrid::from_netlist(&netlist).expect("model grid");
    assert_eq!(streamed, materialized, "grids must be identical");

    let sys_streamed = PgSystem::try_build(&streamed).expect("assemble streamed");
    let sys_materialized = PgSystem::try_build(&materialized).expect("assemble materialized");
    assert_eq!(
        matrix_bits(&sys_streamed.matrix),
        matrix_bits(&sys_materialized.matrix),
        "assembled systems must be bitwise identical"
    );
    assert_eq!(sys_streamed.rhs, sys_materialized.rhs);
}

#[test]
fn large_grid_assembly_and_solve_are_thread_invariant() {
    let spec = SynthSpec::scaled_to_nodes(60_000, 5);
    let path = temp_netlist("thread_parity.sp", &spec);

    let mut reference: Option<(MatrixBits, Vec<u64>)> = None;
    for &threads in &[1usize, 2, 4, 8] {
        let (bits, solution) = with_threads(threads, || {
            let grid = irf_pg::grid_from_spice_path(&path).expect("streaming ingest");
            let system = PgSystem::try_build(&grid).expect("assemble");
            let setup = Solver::new(SolverKind::AmgPcg).prepare(&system.matrix);
            let report = setup
                .with_stopping(1e-3, 16)
                .solve(&system.matrix, &system.rhs);
            let solution: Vec<u64> = report.x.iter().map(|v| v.to_bits()).collect();
            (matrix_bits(&system.matrix), solution)
        });
        match &reference {
            None => reference = Some((bits, solution)),
            Some((ref_bits, ref_solution)) => {
                assert_eq!(ref_bits, &bits, "matrix differs at {threads} threads");
                assert_eq!(
                    ref_solution, &solution,
                    "rough solve differs at {threads} threads"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn prepare_spice_path_matches_in_memory_prepare() {
    let spec = SynthSpec::default();
    let path = temp_netlist("prepare_parity.sp", &spec);

    let pipeline = IrFusionPipeline::new(FusionConfig::tiny());
    let from_path = pipeline
        .stack_builder()
        .bypass_cache()
        .prepare_spice_path(&path)
        .expect("streaming prepare");

    let src = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    let grid = PowerGrid::from_netlist(&irf_spice::parse(&src).expect("parse")).expect("grid");
    let in_memory = pipeline
        .stack_builder()
        .bypass_cache()
        .prepare(&grid)
        .expect("in-memory prepare");

    assert_eq!(from_path.fingerprint, in_memory.fingerprint);
    let (_, _, _, path_data) = from_path.features.to_nchw();
    let (_, _, _, memory_data) = in_memory.features.to_nchw();
    let path_bits: Vec<u32> = path_data.iter().map(|v| v.to_bits()).collect();
    let memory_bits: Vec<u32> = memory_data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(
        path_bits, memory_bits,
        "feature stacks must be bitwise identical"
    );
    let rough_path: Vec<u32> = from_path.rough.data().iter().map(|v| v.to_bits()).collect();
    let rough_memory: Vec<u32> = in_memory.rough.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(rough_path, rough_memory, "rough maps must match bitwise");
}
