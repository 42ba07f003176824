//! Randomized-but-deterministic property tests for the dataset
//! substrate: every design the generators can emit must be physically
//! well-formed (fixed seeds, exact reproduction on failure).

use irf_data::export::to_netlist;
use irf_data::golden::golden_drops;
use irf_data::synth::{synthesize, SynthSpec};
use irf_data::{fake, real_like};
use irf_pg::grid_from_spice_reader;
use irf_runtime::Xoshiro256pp;

const CASES: u64 = 24;

fn small_spec(rng: &mut Xoshiro256pp) -> SynthSpec {
    let clusters = rng.random_range(0usize..=3);
    SynthSpec {
        m1_stripes: rng.random_range(6usize..=12),
        m2_stripes: rng.random_range(6usize..=12),
        m4_stripes: rng.random_range(2usize..=4),
        pads: rng.random_range(1usize..=4),
        total_current: rng.random_range(0.01f64..0.1),
        stripe_jitter: rng.random_range(0.0f64..0.3),
        blockages: rng.random_range(0usize..=2),
        hotspot_clusters: clusters,
        hotspot_fraction: if clusters > 0 { 0.5 } else { 0.0 },
        seed: rng.random_range(0u64..1000),
        ..SynthSpec::default()
    }
}

#[test]
fn every_synthesized_design_is_well_formed() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDA_01);
    for _ in 0..CASES {
        let spec = small_spec(&mut rng);
        let grid = synthesize(&spec);
        assert!(grid.is_connected_to_pads(), "floating nodes");
        assert_eq!(grid.pads.len(), spec.pads);
        assert!(!grid.loads.is_empty());
        // Current conservation (netlist stores 7 significant digits).
        assert!(
            (grid.total_load_current() - spec.total_current).abs()
                < 1e-4 * spec.total_current.max(1e-6)
        );
    }
}

#[test]
fn golden_solutions_are_physical() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDA_02);
    for _ in 0..CASES {
        let spec = small_spec(&mut rng);
        let grid = synthesize(&spec);
        let drops = golden_drops(&grid);
        // Drops are non-negative and below the supply.
        assert!(drops.iter().all(|&d| (-1e-12..grid.vdd()).contains(&d)));
        // Pads sit at exactly zero drop.
        for p in &grid.pads {
            assert_eq!(drops[p.node], 0.0);
        }
        // Maximum principle: the worst drop is at a load-bearing or
        // interior node, never at a pad.
        let worst = drops.iter().cloned().fold(0.0, f64::max);
        assert!(worst > 0.0);
    }
}

#[test]
fn class_generators_are_deterministic() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDA_03);
    for _ in 0..CASES {
        let seed = rng.random_range(0u64..500);
        assert_eq!(fake::generate(seed), fake::generate(seed));
        assert_eq!(real_like::generate(seed), real_like::generate(seed));
    }
}

#[test]
fn netlists_roundtrip_via_spice_text() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDA_04);
    for _ in 0..CASES {
        let spec = small_spec(&mut rng);
        let grid = synthesize(&spec);
        let text = to_netlist(&grid);
        let again = grid_from_spice_reader(text.as_bytes()).expect("round-trips");
        // The rebuilt grid is the same, bit for bit.
        assert_eq!(grid, again);
        assert_eq!(to_netlist(&again), text);
    }
}
