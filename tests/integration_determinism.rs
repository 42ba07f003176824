//! Bitwise determinism of the parallel hot paths: every result must be
//! identical — bit for bit — whether the runtime uses one thread or
//! many. The kernels in `irf-runtime` guarantee this by fixing the
//! partition and reduction order independently of the thread count.

use ir_fusion::config::FusionConfig;
use ir_fusion::pipeline::{IrFusionPipeline, PreparedSample};
use irf_data::synth::{synthesize, synthesize_to_string, SynthSpec};
use irf_data::Dataset;
use irf_features::{FeatureConfig, FeatureExtractor};
use irf_nn::{ParamStore, Tape, Tensor};
use irf_runtime::Xoshiro256pp;
use irf_sparse::{CsrMatrix, TripletMatrix};
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

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A 2-D grid Laplacian with grounded corners — large enough that the
/// parallel kernels split it across several chunks.
fn grid_laplacian(side: usize) -> CsrMatrix {
    let n = side * side;
    let mut t = TripletMatrix::new(n, n);
    let mut rng = Xoshiro256pp::seed_from_u64(0xDE_7E);
    for r in 0..side {
        for c in 0..side {
            let i = r * side + c;
            if c + 1 < side {
                t.stamp_conductance(i, i + 1, rng.random_range(0.5f64..2.0));
            }
            if r + 1 < side {
                t.stamp_conductance(i, i + side, rng.random_range(0.5f64..2.0));
            }
        }
    }
    t.stamp_grounded_conductance(0, 1.0);
    t.stamp_grounded_conductance(n - 1, 1.0);
    t.to_csr()
}

#[test]
fn spmv_and_residual_are_bitwise_identical_across_thread_counts() {
    let a = grid_laplacian(80); // 6400 rows -> several 2048-row chunks
    let n = a.rows();
    let mut rng = Xoshiro256pp::seed_from_u64(0xDE_01);
    let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0f64..1.0)).collect();
    let b: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0f64..1.0)).collect();

    let (y1, r1) = with_threads(1, || {
        let mut y = vec![0.0; n];
        let mut r = vec![0.0; n];
        a.spmv_into(&x, &mut y);
        a.residual_into(&b, &x, &mut r);
        (y, r)
    });
    for threads in [2, 4, 8] {
        let (yn, rn) = with_threads(threads, || {
            let mut y = vec![0.0; n];
            let mut r = vec![0.0; n];
            a.spmv_into(&x, &mut y);
            a.residual_into(&b, &x, &mut r);
            (y, r)
        });
        assert_eq!(
            bits64(&y1),
            bits64(&yn),
            "spmv differs at {threads} threads"
        );
        assert_eq!(
            bits64(&r1),
            bits64(&rn),
            "residual differs at {threads} threads"
        );
    }
}

#[test]
fn dot_product_is_bitwise_identical_across_thread_counts() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDE_02);
    let n = 50_000; // spans several reduction chunks
    let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0f64..1.0)).collect();
    let y: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0f64..1.0)).collect();
    let d1 = with_threads(1, || irf_sparse::vector::dot(&x, &y));
    for threads in [2, 4, 8] {
        let dn = with_threads(threads, || irf_sparse::vector::dot(&x, &y));
        assert_eq!(
            d1.to_bits(),
            dn.to_bits(),
            "dot differs at {threads} threads"
        );
    }
}

/// Runs one conv2d forward + backward pass and returns the output and
/// all three gradients.
fn conv_pass(x0: &Tensor, w0: &Tensor, b0: &Tensor) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut store = ParamStore::new();
    let mut tape = Tape::new();
    let x = tape.leaf(x0.clone());
    let w = tape.leaf(w0.clone());
    let b = tape.leaf(b0.clone());
    let y = tape.conv2d(x, w, b);
    let out = tape.value(y).data().to_vec();
    let seed = Tensor::filled(tape.value(y).shape(), 1.0);
    tape.backward(y, seed, &mut store);
    let dx = tape.grad(x).expect("dx").data().to_vec();
    let dw = tape.grad(w).expect("dw").data().to_vec();
    let db = tape.grad(b).expect("db").data().to_vec();
    (out, dx, dw, db)
}

#[test]
fn conv2d_forward_and_backward_are_bitwise_identical_across_thread_counts() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDE_03);
    let mut tensor = |shape: [usize; 4]| {
        let n: usize = shape.iter().product();
        let data: Vec<f32> = (0..n).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        Tensor::from_vec(shape, data)
    };
    let x = tensor([2, 3, 16, 16]);
    let w = tensor([4, 3, 3, 3]);
    let b = tensor([1, 4, 1, 1]);

    let serial = with_threads(1, || conv_pass(&x, &w, &b));
    for threads in [2, 4, 8] {
        let par = with_threads(threads, || conv_pass(&x, &w, &b));
        assert_eq!(
            bits32(&serial.0),
            bits32(&par.0),
            "conv output at {threads}"
        );
        assert_eq!(bits32(&serial.1), bits32(&par.1), "conv dx at {threads}");
        assert_eq!(bits32(&serial.2), bits32(&par.2), "conv dw at {threads}");
        assert_eq!(bits32(&serial.3), bits32(&par.3), "conv db at {threads}");
    }
}

/// FNV-1a over the output words of one IR-Fusion forward of `x` at
/// `threads` threads.
fn ir_fusion_forward_hash(
    model: &dyn irf_models::Model,
    store: &ParamStore,
    x: &Tensor,
    threads: usize,
) -> u64 {
    with_threads(threads, || {
        let mut tape = Tape::new();
        let xn = tape.input(x.clone());
        let y = model.forward(&mut tape, store, xn);
        tape.value(y)
            .data()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
            })
    })
}

/// An 11-channel IR-Fusion net (the served feature stack's width) and a
/// fixed-seed `[n, 11, side, side]` input.
fn ir_fusion_forward_case(
    n: usize,
    side: usize,
) -> (Box<dyn irf_models::Model>, ParamStore, Tensor) {
    let (model, store) = irf_models::build_model(
        irf_models::ModelKind::IrFusion,
        irf_models::ModelConfig {
            in_channels: 11,
            ..irf_models::ModelConfig::default()
        },
    );
    let mut rng = Xoshiro256pp::seed_from_u64(0xDE_17);
    let data: Vec<f32> = (0..n * 11 * side * side)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    (model, store, Tensor::from_vec([n, 11, side, side], data))
}

/// The fixed-seed IR-Fusion forward below, run at the commit before
/// conv2d got its stride-1 kernel (every convolution through the
/// general bounds-checked nest), hashed to `GOLDEN`. The kernel's
/// contract is that no output bit moves, at any thread count.
#[test]
fn ir_fusion_forward_keeps_the_bits_of_the_general_conv_loop() {
    const GOLDEN: u64 = 0xee5f_8c9e_edd3_770b;
    let (model, store, x) = ir_fusion_forward_case(2, 32);
    for threads in [1, 2, 4, 8] {
        let hash = ir_fusion_forward_hash(model.as_ref(), &store, &x, threads);
        assert_eq!(hash, GOLDEN, "{hash:#018x} at {threads} threads");
    }
}

/// The same net at the served shape, one 64x64 sample, hashed at the
/// commit before the forward ops became slice loops and the stride-1
/// conv2d a padded-pitch accumulation. Neither may move a bit.
#[test]
fn ir_fusion_forward_keeps_the_bits_at_the_served_shape() {
    const GOLDEN_64: u64 = 0xf2ab_60a1_c06c_3f5e;
    let (model, store, x) = ir_fusion_forward_case(1, 64);
    for threads in [1, 2, 4, 8] {
        let hash = ir_fusion_forward_hash(model.as_ref(), &store, &x, threads);
        assert_eq!(hash, GOLDEN_64, "{hash:#018x} at {threads} threads");
    }
}

#[test]
fn feature_stack_is_bitwise_identical_across_thread_counts() {
    let grid = synthesize(&SynthSpec::default());
    let mut rng = Xoshiro256pp::seed_from_u64(0xDE_04);
    let drops: Vec<f64> = (0..grid.nodes.len())
        .map(|_| rng.random_range(0.0f64..2e-3))
        .collect();
    let extractor = FeatureExtractor::new(FeatureConfig::default());

    let serial = with_threads(1, || extractor.extract(&grid, &drops)).expect("grid has pads");
    for threads in [2, 4, 8] {
        let par =
            with_threads(threads, || extractor.extract(&grid, &drops)).expect("grid has pads");
        assert_eq!(serial.names(), par.names(), "channel order at {threads}");
        for ((a, b), name) in serial.maps().iter().zip(par.maps()).zip(serial.names()) {
            assert_eq!(
                bits32(a.data()),
                bits32(b.data()),
                "channel {name} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn shortest_path_fanout_is_bitwise_identical_across_thread_counts() {
    // Many pads -> several per-pad Dijkstra chunks; the in-order fold
    // must make the averaged resistances thread-count invariant.
    let spec = SynthSpec {
        pads: 9,
        seed: 21,
        ..SynthSpec::default()
    };
    let grid = synthesize(&spec);
    assert!(grid.pads.len() > 4, "need multiple Dijkstra chunks");

    let serial = with_threads(1, || {
        irf_features::shortest_path::shortest_path_resistance_per_node(&grid)
    })
    .expect("grid has pads");
    for threads in [2, 4, 8] {
        let par = with_threads(threads, || {
            irf_features::shortest_path::shortest_path_resistance_per_node(&grid)
        })
        .expect("grid has pads");
        assert_eq!(
            bits64(&serial),
            bits64(&par),
            "per-node resistance differs at {threads} threads"
        );
    }
}

#[test]
fn chunked_spice_parse_is_identical_across_thread_counts() {
    // The parallel parser feeding the grid builder must produce the
    // same grid — same node order, same segments, loads and pads — as
    // a serial single-chunk ingest, at any thread count and chunk
    // granularity.
    let text = synthesize_to_string(&SynthSpec {
        seed: 22,
        ..SynthSpec::default()
    });
    // The sized entry: `cards_per_chunk` cards per parallel chunk,
    // four chunks per batch.
    let ingest = |cards_per_chunk: usize| {
        irf_pg::streaming::grid_from_spice_reader_chunked(text.as_bytes(), cards_per_chunk, 4)
            .expect("synthesized netlists are valid grids")
    };
    let reference = with_threads(1, || ingest(usize::MAX));
    assert_eq!(
        reference,
        synthesize(&SynthSpec {
            seed: 22,
            ..SynthSpec::default()
        })
    );
    for threads in [1, 2, 4, 8] {
        for cards_per_chunk in [7, 64, 1024] {
            let grid = with_threads(threads, || ingest(cards_per_chunk));
            assert_eq!(
                grid, reference,
                "grid differs at {threads} threads, {cards_per_chunk} cards/chunk"
            );
        }
    }
}

fn assert_samples_bitwise_equal(a: &PreparedSample, b: &PreparedSample, what: &str) {
    assert_eq!(
        a.features.names(),
        b.features.names(),
        "{what}: channel order"
    );
    for ((ma, mb), name) in a
        .features
        .maps()
        .iter()
        .zip(b.features.maps())
        .zip(a.features.names())
    {
        assert_eq!(
            bits32(ma.data()),
            bits32(mb.data()),
            "{what}: channel {name}"
        );
    }
    assert_eq!(
        bits32(a.label.data()),
        bits32(b.label.data()),
        "{what}: label"
    );
    assert_eq!(
        bits32(a.rough.data()),
        bits32(b.rough.data()),
        "{what}: rough map"
    );
}

#[test]
fn pipeline_prepare_is_bitwise_identical_across_thread_counts() {
    let dataset = Dataset::generate(1, 1, 0, 11);
    let design = &dataset.designs[0];

    let mut cfg = FusionConfig::tiny();
    cfg.num_threads = 1;
    let serial = {
        let _guard = THREAD_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
        let sample = IrFusionPipeline::new(cfg).prepare(design);
        irf_runtime::set_num_threads(0);
        sample
    };
    for threads in [4, 8] {
        cfg.num_threads = threads;
        let par = {
            let _guard = THREAD_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
            let sample = IrFusionPipeline::new(cfg).prepare(design);
            irf_runtime::set_num_threads(0);
            sample
        };
        assert_samples_bitwise_equal(&serial, &par, &format!("{threads} threads"));
        // Rotation augmentation is parallel too and must agree.
        let (r1, rn) = (
            with_threads(1, || serial.rotated(1)),
            with_threads(threads, || serial.rotated(1)),
        );
        assert_samples_bitwise_equal(&r1, &rn, &format!("rot90 at {threads} threads"));
    }
}

/// FNV-1a over 64-bit words.
fn fnv64(h: u64, words: impl Iterator<Item = u64>) -> u64 {
    words.fold(h, |h, w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds everything a caller can read off a solve — `x`, the residual
/// history (whose length is `iterations + 1` and whose last entry is
/// `residual`) and `converged` — into `h`.
fn fold_report(h: u64, report: &irf_sparse::SolveReport) -> u64 {
    let h = fnv64(h, report.x.iter().map(|v| v.to_bits()));
    let h = fnv64(h, report.trace.history.iter().map(|v| v.to_bits()));
    fnv64(h, std::iter::once(u64::from(report.converged)))
}

/// Every solve below, hashed at the commit before the solve phase
/// stopped doing work its answer does not depend on (the pre-smoother's
/// residual of a zero guess, the cycle after the last iteration, the
/// one-row-at-a-time SpMV). That change's contract is that no bit of
/// any `SolveReport` moves, for any cycle, smoother, sweep count,
/// budget, guess or thread count.
#[test]
fn truncated_solves_keep_the_bits_of_the_full_work_solver() {
    use irf_sparse::amg::AmgParams;
    use irf_sparse::smoother::SmootherKind;
    use irf_sparse::{Solver, SolverKind};

    // (label, hash) — AMG rows fold budgets 0, 1, 2 and 24 of one
    // prepared hierarchy.
    const GOLDEN: [(&str, u64); 21] = [
        ("K/Jacobi/1", 0xf506_9b6e_4d28_9b12),
        ("K/Jacobi/2", 0x8d3b_3a1e_b069_f8e3),
        ("K/L1Jacobi/1", 0x5151_73f7_cc2b_d8fa),
        ("K/L1Jacobi/2", 0x0d80_ce34_7c45_a6c1),
        ("K/GaussSeidel/1", 0x6648_577d_5280_5ef3),
        ("K/GaussSeidel/2", 0xca74_62f5_872a_aae2),
        ("K/SymmetricGaussSeidel/1", 0x46a4_b330_fc08_eacb),
        ("K/SymmetricGaussSeidel/2", 0x5733_4708_2892_7d3d),
        ("V/Jacobi/1", 0x9bd8_a6da_0c22_0c45),
        ("V/Jacobi/2", 0xd105_74db_4e36_5234),
        ("V/L1Jacobi/1", 0x324b_6ca4_a669_56db),
        ("V/L1Jacobi/2", 0x576c_c2ac_1464_2b7c),
        ("V/GaussSeidel/1", 0x2b74_8bd2_66a5_41d3),
        ("V/GaussSeidel/2", 0xe1bc_92a7_0ccf_93dd),
        ("V/SymmetricGaussSeidel/1", 0x10e9_92c0_5c47_8e44),
        ("V/SymmetricGaussSeidel/2", 0x11f9_3540_0a99_72eb),
        ("K/Jacobi/1 to 1e-6", 0xa692_1d80_1055_95b0),
        ("Jacobi-PCG", 0xa673_1e11_a6c8_1fe2),
        ("CG", 0x3ae7_f337_f4dd_1d96),
        ("K/Jacobi/1 from a non-zero guess", 0x2394_2e4b_1eb2_42ec),
        ("V/Jacobi/1 from a guess meeting tol", 0x4fe6_1783_cebd_fe6c),
    ];

    let grid = synthesize(&SynthSpec::scaled_to_nodes(2500, 0xDE_20));
    let structure = irf_pg::PgStructure::build(&grid);
    let a = &structure.matrix;
    let b = structure.rhs(&grid.loads);
    assert!((2000..5000).contains(&a.rows()), "{} rows", a.rows());

    let solve_all = || {
        let mut out: Vec<(String, u64)> = Vec::new();
        for (kind, cycle) in [(SolverKind::AmgPcg, 'K'), (SolverKind::AmgPcgVCycle, 'V')] {
            for smoother in [
                SmootherKind::Jacobi,
                SmootherKind::L1Jacobi,
                SmootherKind::GaussSeidel,
                SmootherKind::SymmetricGaussSeidel,
            ] {
                for smoothing_sweeps in [1, 2] {
                    let setup = Solver::new(kind)
                        .with_amg_params(AmgParams {
                            smoother,
                            smoothing_sweeps,
                            ..AmgParams::default()
                        })
                        .prepare(a);
                    // Tolerance out of reach: the budget ends the solve.
                    let hash = [0, 1, 2, 24].iter().fold(FNV_SEED, |h, &budget| {
                        let report = setup.with_stopping(1e-30, budget).solve(a, &b);
                        assert_eq!(report.iterations, budget);
                        fold_report(h, &report)
                    });
                    out.push((format!("{cycle}/{smoother:?}/{smoothing_sweeps}"), hash));
                }
            }
        }
        let jacobi = AmgParams {
            smoother: SmootherKind::Jacobi,
            ..AmgParams::default()
        };
        let one = |label: &str, report: irf_sparse::SolveReport| {
            (label.to_string(), fold_report(FNV_SEED, &report))
        };
        let k_setup = Solver::new(SolverKind::AmgPcg)
            .with_amg_params(jacobi)
            .prepare(a);
        let converged = k_setup.with_stopping(1e-6, 200).solve(a, &b);
        assert!(converged.converged && converged.iterations < 200);
        out.push(one("K/Jacobi/1 to 1e-6", converged.clone()));
        out.push(one(
            "Jacobi-PCG",
            Solver::new(SolverKind::JacobiPcg)
                .with_tolerance(1e-30)
                .with_max_iterations(50)
                .solve(a, &b),
        ));
        out.push(one(
            "CG",
            Solver::new(SolverKind::Cg)
                .with_tolerance(1e-30)
                .with_max_iterations(50)
                .solve(a, &b),
        ));
        let guess: Vec<f64> = (0..a.rows()).map(|i| 1e-4 * (i % 11) as f64).collect();
        out.push(one(
            "K/Jacobi/1 from a non-zero guess",
            k_setup
                .with_stopping(1e-30, 5)
                .solve_with_guess(a, &b, guess),
        ));
        let warm = Solver::new(SolverKind::AmgPcgVCycle)
            .with_amg_params(jacobi)
            .with_tolerance(1e-4)
            .solve_with_guess(a, &b, converged.x);
        assert_eq!(warm.iterations, 0);
        out.push(one("V/Jacobi/1 from a guess meeting tol", warm));
        out
    };

    for threads in [1, 2, 4, 8] {
        let hashes = with_threads(threads, solve_all);
        assert_eq!(hashes.len(), GOLDEN.len());
        for ((label, hash), (want_label, want)) in hashes.iter().zip(GOLDEN) {
            assert_eq!(label, want_label);
            assert_eq!(
                *hash, want,
                "{label}: {hash:#018x} at {threads} threads, pinned {want:#018x}"
            );
        }
    }
}

/// Folds a whole hierarchy — every level's `row_ptr`, `col_idx`, value
/// bits and aggregate map, then the coarse solve of a fixed vector —
/// into one hash.
fn hierarchy_hash(h: &irf_sparse::amg::AmgHierarchy) -> u64 {
    let mut hash = FNV_SEED;
    for level in h.levels() {
        hash = fnv64(hash, level.a.row_ptr().iter().map(|&p| p as u64));
        hash = fnv64(hash, level.a.col_idx().iter().map(|&c| c as u64));
        hash = fnv64(hash, level.a.values().iter().map(|v| v.to_bits()));
        if let Some(agg) = &level.agg {
            hash = fnv64(hash, std::iter::once(agg.n_coarse as u64));
            hash = fnv64(hash, agg.assign.iter().map(|&a| a as u64));
        }
    }
    let n = h.levels().last().expect("a level").a.rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let mut x = vec![0.0; n];
    h.coarse_solve(&b, &mut x);
    fnv64(hash, x.iter().map(|v| v.to_bits()))
}

/// Golden hashes of whole AMG hierarchies, harvested at the commit
/// before the setup stopped materialising a strength graph and sorting
/// its Galerkin products (when `Solver::rebuild_from` also still
/// scattered into the base's coarse patterns). The pinned solves above
/// would notice a changed hierarchy only through a changed answer;
/// this pins every level operator, every aggregate map and the coarse
/// factor themselves, for a design and for its eight-segment edit.
#[test]
fn amg_hierarchies_keep_the_bits_of_the_sorted_setup() {
    use irf_sparse::amg::{AmgHierarchy, AmgParams};
    use irf_sparse::{Solver, SolverKind};

    // (nodes asked for, rows, levels, hash, hash after the edit)
    const GOLDEN: [(usize, usize, usize, u64, u64); 3] = [
        (1500, 1562, 4, 0xef9f_71a3_641b_abe8, 0xa579_7162_afdf_e5f2),
        (4000, 4226, 5, 0xee96_1783_51c7_1155, 0x00f0_6af1_6e3f_2061),
        (
            20000,
            20394,
            6,
            0x4d60_cd61_5b98_dd1b,
            0x963e_077f_877a_b723,
        ),
    ];
    for (nodes, rows, levels, want_base, want_edited) in GOLDEN {
        let grid = synthesize(&SynthSpec::scaled_to_nodes(nodes, 0xA3_22));
        let structure = irf_pg::PgStructure::build(&grid);
        assert_eq!(structure.matrix.rows(), rows);
        // Halve eight segments spread over the segment list.
        let mut edited_grid = grid.clone();
        let stride = grid.segments.len() / 8;
        for k in 0..8 {
            edited_grid.segments[k * stride + stride / 2].ohms *= 0.5;
        }
        let edited = structure.restamped(&edited_grid).expect("same pattern");

        let solver = Solver::new(SolverKind::AmgPcg);
        let hash_of = |setup: &irf_sparse::SolverSetup| {
            hierarchy_hash(setup.amg_hierarchy().expect("an AMG setup"))
        };
        for threads in [1, 2, 4, 8] {
            with_threads(threads, || {
                let what = format!("{nodes} nodes at {threads} threads");
                let built = AmgHierarchy::build(&structure.matrix, AmgParams::default());
                assert_eq!(built.num_levels(), levels, "{what}");
                assert_eq!(hierarchy_hash(&built), want_base, "{what}: build");
                let base = solver.prepare(&structure.matrix);
                assert_eq!(hash_of(&base), want_base, "{what}: prepare");
                let warm = solver.rebuild_from(&base, &edited.matrix);
                assert_eq!(hash_of(&warm), want_edited, "{what}: rebuild_from");
                let cold = solver.prepare(&edited.matrix);
                assert_eq!(hash_of(&cold), want_edited, "{what}: cold prepare");
            });
        }
    }
}
