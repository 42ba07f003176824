//! `Solver::rebuild_from` against `Solver::prepare` on synthesized
//! power grids: every edit of a design — eight halved m1 straps (the
//! benchmark's strap edit), a scaled layer, scaled vias, and chains of
//! them rebuilt from the previous rebuild — must give the setup a cold
//! build gives, bit for bit: every level operator and aggregation, the
//! coarse solve and a truncated PCG solve. The optimized run
//! (`cargo test --release -p ir-fusion --test amg_rebuild_differential`)
//! takes 64 edits of a 20 k-node design; the dev-profile run is smaller.

use ir_fusion::stages::apply_topology_deltas;
use ir_fusion::TopologyDelta;
use irf_data::synth::{synthesize, SynthSpec};
use irf_pg::{PgStructure, PowerGrid};
use irf_runtime::Xoshiro256pp;
use irf_sparse::{CsrMatrix, Solver, SolverKind, SolverSetup};

/// (nodes, edits) of the optimized run and of the dev-profile run.
const SIZE: (usize, usize) = if cfg!(debug_assertions) {
    (3_000, 12)
} else {
    (20_000, 64)
};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_setup(got: &SolverSetup, want: &SolverSetup, a: &CsrMatrix, what: &str) {
    let (g, w) = (got.amg_hierarchy().unwrap(), want.amg_hierarchy().unwrap());
    assert_eq!(g.num_levels(), w.num_levels(), "{what}: levels");
    for (l, (gl, wl)) in g.levels().iter().zip(w.levels()).enumerate() {
        assert_eq!(gl.a.row_ptr(), wl.a.row_ptr(), "{what}, level {l}: row_ptr");
        assert_eq!(gl.a.col_idx(), wl.a.col_idx(), "{what}, level {l}: col_idx");
        assert_eq!(
            bits(gl.a.values()),
            bits(wl.a.values()),
            "{what}, level {l}"
        );
        assert_eq!(gl.agg, wl.agg, "{what}, level {l}: aggregation");
    }
    let n = w.levels().last().unwrap().a.rows();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let (mut gx, mut wx) = (vec![0.0; n], vec![0.0; n]);
    g.coarse_solve(&b, &mut gx);
    w.coarse_solve(&b, &mut wx);
    assert_eq!(bits(&gx), bits(&wx), "{what}: coarse solve");
    let b = vec![1e-3; a.rows()];
    let (gs, ws) = (got.solve(a, &b), want.solve(a, &b));
    assert_eq!(bits(&gs.x), bits(&ws.x), "{what}: solve");
}

/// One seeded edit of `grid`: usually eight m1 straps halved, now and
/// then a whole layer or one layer pair's vias scaled.
fn random_edit(grid: &PowerGrid, straps: &[usize], rng: &mut Xoshiro256pp) -> Vec<TopologyDelta> {
    match rng.random_range(0..8usize) {
        0 => vec![TopologyDelta::Strap {
            layer: [1, 2, 4][rng.random_range(0..3usize)],
            scale: 0.8,
        }],
        1 => vec![TopologyDelta::Via {
            lower: 1,
            upper: 2,
            scale: 1.25,
        }],
        _ => (0..8)
            .map(|_| {
                let segment = straps[rng.random_range(0..straps.len())];
                TopologyDelta::Segment {
                    segment,
                    ohms: grid.segments[segment].ohms * 0.5,
                }
            })
            .collect(),
    }
}

#[test]
fn rebuilt_setups_of_edited_designs_are_their_cold_setups() {
    let (nodes, edits) = SIZE;
    let base_grid = synthesize(&SynthSpec::scaled_to_nodes(nodes, 0xA3_22));
    let structure = PgStructure::build(&base_grid);
    let straps: Vec<usize> = (0..base_grid.segments.len())
        .filter(|&s| {
            let seg = &base_grid.segments[s];
            base_grid.nodes[seg.a].layer == 1 && base_grid.nodes[seg.b].layer == 1
        })
        .collect();
    let solver = Solver::new(SolverKind::AmgPcgVCycle)
        .with_tolerance(1e-10)
        .with_max_iterations(4);
    let base = solver.prepare(&structure.matrix);
    let mut rng = Xoshiro256pp::seed_from_u64(64);
    // Every fourth edit lands on the previous one and is rebuilt from
    // its rebuilt setup.
    let (mut chained_grid, mut chained) = (base_grid.clone(), base.clone());
    for k in 0..edits {
        let chain = k % 4 == 3;
        let mut grid = if chain {
            chained_grid.clone()
        } else {
            base_grid.clone()
        };
        apply_topology_deltas(&mut grid, &random_edit(&base_grid, &straps, &mut rng)).unwrap();
        let edited = structure.restamped(&grid).expect("a resistance-only edit");
        let from = if chain { chained.clone() } else { base.clone() };
        let cold = solver.prepare(&edited.matrix);
        for threads in [1, 4] {
            irf_runtime::set_num_threads(threads);
            let rebuilt = solver.rebuild_from(&from, &edited.matrix);
            irf_runtime::set_num_threads(0);
            let what = format!("edit {k} (chained: {chain}), {threads} threads");
            assert_same_setup(&rebuilt, &cold, &edited.matrix, &what);
            chained = rebuilt;
        }
        chained_grid = grid;
    }
}
