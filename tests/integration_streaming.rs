//! The bounded-memory prepare path end to end: streaming a file must be
//! indistinguishable — bit for bit — from reading the same bytes whole
//! into memory, the grids must keep the fingerprints pinned before the
//! stream became the only way in, and the downstream assembly + AMG +
//! rough solve must stay bitwise identical at any thread count.

use ir_fusion::config::FusionConfig;
use ir_fusion::pipeline::IrFusionPipeline;
use ir_fusion::stages::design_fingerprint;
use irf_data::synth::{synthesize, synthesize_to_path, synthesize_to_string, SynthSpec};
use irf_data::Dataset;
use irf_pg::{PgSystem, PowerGrid};
use irf_sparse::{CsrMatrix, Solver, SolverKind};
use irf_spice::StreamedCard;
use std::io::{BufRead, BufReader, Cursor};
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

type Card = (String, String, String, u64);

fn owned(card: &StreamedCard<'_>) -> Card {
    let text = |s: &str| s.to_string();
    (
        text(card.name),
        text(card.a),
        text(card.b),
        card.value.to_bits(),
    )
}

/// Every card [`irf_spice::visit_cards`] hands out for `reader`.
fn cards(reader: impl BufRead) -> Vec<Card> {
    let mut cards = Vec::new();
    irf_spice::visit_cards(reader, |card| {
        cards.push(owned(card));
        Ok(())
    })
    .expect("parses");
    cards
}

#[test]
fn streaming_parse_matches_materialized_parse() {
    let spec = medium_spec();
    let src = synthesize_to_string(&spec);
    // The whole source as one chunk: the serial reading.
    let mut materialized = Vec::new();
    irf_spice::stream::visit_cards_chunked(src.as_bytes(), usize::MAX, 1, |card| {
        materialized.push(owned(card));
        Ok(())
    })
    .expect("materialized parse");
    assert!(materialized.len() > 10_000);
    let streamed = cards(Cursor::new(src.as_bytes()));
    assert_eq!(materialized, streamed, "card sequences must be identical");

    let path = temp_netlist("parse_parity.sp", &spec);
    let file = std::fs::File::open(&path).expect("open netlist file");
    let from_file = cards(BufReader::new(file));
    let _ = std::fs::remove_file(&path);
    assert_eq!(materialized, from_file);
}

#[test]
fn streaming_grid_ingest_matches_materialized_path() {
    let spec = medium_spec();
    let path = temp_netlist("ingest_parity.sp", &spec);
    let streamed = irf_pg::grid_from_spice_path(&path).expect("streaming ingest");

    // The same bytes read whole into memory first.
    let src = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    let materialized = irf_pg::grid_from_spice_reader(src.as_bytes()).expect("in-memory ingest");
    assert_eq!(streamed, materialized, "grids must be identical");
    assert_eq!(streamed, synthesize(&spec));

    let sys_streamed = PgSystem::try_build(&streamed).expect("assemble streamed");
    let sys_materialized = PgSystem::try_build(&materialized).expect("assemble materialized");
    assert_eq!(
        matrix_bits(&sys_streamed.matrix),
        matrix_bits(&sys_materialized.matrix),
        "assembled systems must be bitwise identical"
    );
    assert_eq!(sys_streamed.rhs, sys_materialized.rhs);
}

/// A seeded ~40 000-node source whose names collide in every way but
/// equality (the name-index stress source of `irf-pg`'s builder tests).
fn many_names_source() -> String {
    let mut rng = irf_runtime::Xoshiro256pp::seed_from_u64(0x2023);
    let mut below = |n: u64| rng.random_range(0..n);
    let name = |i: u64| match i % 5 {
        0 => format!("n{}", i / 5),
        1 => format!("N{}", i / 5),
        2 => format!("n{}a", i / 5),
        3 => format!("n{}b", i / 5),
        _ => format!("n{}é", i / 5),
    };
    let mut src = String::from("* many names\nV1 pad_only 0 1.0\nI1 load_only 0 1m\n");
    for i in 0..40_000u64 {
        src.push_str(&format!("R{i} {} {} 0.5\n", name(i), name(i + 1)));
        if i % 3 == 0 {
            src.push_str(&format!("Rx{i} {} {} 1.5\n", name(below(i + 1)), name(i)));
        }
        if i % 7 == 0 {
            src.push_str(&format!("I{i} {} 0 1m\n", name(below(i + 1))));
        }
        if i % 9_000 == 0 {
            src.push_str(&format!("V{i} {} 0 1.0\n", name(i)));
        }
        if i % 11 == 0 {
            src.push_str(&format!("Rg{i} {} 0 50\n", name(i)));
        }
    }
    src
}

/// `design_fingerprint`s (node names, coordinates, segments, loads and
/// pads, bit for bit) taken when designs were still built by parsing
/// the whole netlist first and then modelling it; the stream must keep
/// reproducing them.
const DEFAULT_SPEC_FINGERPRINT: u64 = 0xefca_9d61_aa1a_4b17;
const SCALED_3000_5_FINGERPRINT: u64 = 0x0967_bc2a_5b32_e52a;
const DATASET_2_2_0_7_FINGERPRINTS: [u64; 4] = [
    0xb34f_8d81_fdc0_bd65,
    0x4178_a17b_dfb4_cf06,
    0x0674_4a1b_d672_9fe3,
    0x310f_831d_b9ab_df0a,
];
const MANY_NAMES_FINGERPRINT: u64 = 0x085b_c3c8_e328_6477;

#[test]
fn pinned_design_fingerprints_hold_through_the_stream() {
    let config = FusionConfig::default();
    let fingerprint = |grid: &PowerGrid| design_fingerprint(grid, &config);
    let read = |text: &str| irf_pg::grid_from_spice_reader(text.as_bytes()).expect("valid grid");

    let default_spec = read(&synthesize_to_string(&SynthSpec::default()));
    assert_eq!(fingerprint(&default_spec), DEFAULT_SPEC_FINGERPRINT);
    assert_eq!(default_spec.nodes.len(), 2432);
    let scaled = read(&synthesize_to_string(&SynthSpec::scaled_to_nodes(3000, 5)));
    assert_eq!(fingerprint(&scaled), SCALED_3000_5_FINGERPRINT);
    assert_eq!(scaled.nodes.len(), 3198);
    let dataset = Dataset::generate(2, 2, 0, 7);
    let got: Vec<u64> = dataset
        .designs
        .iter()
        .map(|d| fingerprint(&d.grid))
        .collect();
    assert_eq!(got, DATASET_2_2_0_7_FINGERPRINTS);
    let many = read(&many_names_source());
    assert_eq!(fingerprint(&many), MANY_NAMES_FINGERPRINT);
    assert_eq!(many.nodes.len(), 40_003);
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
    let grid = irf_pg::grid_from_spice_reader(src.as_bytes()).expect("grid");
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
