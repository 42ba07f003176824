//! Randomized-but-deterministic property tests for feature extraction
//! on generated grids (fixed seeds, exact reproduction on failure).

use irf_data::synth::{synthesize, SynthSpec};
use irf_features::{FeatureConfig, FeatureExtractor};
use irf_pg::PowerGrid;
use irf_runtime::Xoshiro256pp;

const CASES: u64 = 16;

fn random_grid(rng: &mut Xoshiro256pp) -> PowerGrid {
    let spec = SynthSpec {
        m1_stripes: rng.random_range(6usize..=10),
        m2_stripes: rng.random_range(6usize..=10),
        m4_stripes: 2,
        pads: rng.random_range(1usize..=3),
        seed: rng.random_range(0u64..200),
        ..SynthSpec::default()
    };
    synthesize(&spec)
}

#[test]
fn stack_is_finite_and_consistently_sized() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xF0_01);
    for _ in 0..CASES {
        let grid = random_grid(&mut rng);
        let res = [8usize, 16, 24][rng.random_range(0usize..3)];
        let ex = FeatureExtractor::new(FeatureConfig {
            width: res,
            height: res,
            ..FeatureConfig::default()
        });
        let drops = vec![1e-3; grid.nodes.len()];
        let stack = ex.extract(&grid, &drops).expect("grid has pads");
        assert_eq!(stack.len(), 5 + 2 * grid.layers().len());
        for (m, name) in stack.maps().iter().zip(stack.names()) {
            assert_eq!(m.width(), res);
            assert_eq!(m.height(), res);
            assert!(m.data().iter().all(|v| v.is_finite()), "{name} has NaN/inf");
        }
    }
}

#[test]
fn rotation_commutes_with_extraction_channel_count() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xF0_02);
    for _ in 0..CASES {
        let grid = random_grid(&mut rng);
        let quarters = rng.random_range(0u32..4);
        let ex = FeatureExtractor::new(FeatureConfig {
            width: 8,
            height: 8,
            ..FeatureConfig::default()
        });
        let drops = vec![0.0; grid.nodes.len()];
        let stack = ex.extract(&grid, &drops).expect("grid has pads");
        let rot = stack.rotated(quarters);
        assert_eq!(rot.len(), stack.len());
        // Rotation preserves every channel's value distribution.
        for (a, b) in stack.maps().iter().zip(rot.maps()) {
            assert_eq!(a.max(), b.max());
            let sa: f32 = a.data().iter().sum();
            let sb: f32 = b.data().iter().sum();
            assert!((sa - sb).abs() < 1e-3 * (1.0 + sa.abs()));
        }
    }
}

#[test]
fn solution_channels_scale_linearly_with_drops() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xF0_03);
    for _ in 0..CASES {
        let grid = random_grid(&mut rng);
        let alpha = rng.random_range(0.5f64..4.0);
        let ex = FeatureExtractor::new(FeatureConfig {
            width: 8,
            height: 8,
            ..FeatureConfig::default()
        });
        let drops: Vec<f64> = (0..grid.nodes.len())
            .map(|i| 1e-3 * (1.0 + (i % 5) as f64))
            .collect();
        let scaled: Vec<f64> = drops.iter().map(|d| alpha * d).collect();
        let a = ex.extract(&grid, &drops).expect("grid has pads");
        let b = ex.extract(&grid, &scaled).expect("grid has pads");
        for ((ma, mb), name) in a.maps().iter().zip(b.maps()).zip(a.names()) {
            if name.starts_with("solution/") {
                for (va, vb) in ma.data().iter().zip(mb.data()) {
                    assert!(
                        (vb - alpha as f32 * va).abs() < 1e-4 * (1.0 + va.abs()),
                        "{name} not linear in the solution"
                    );
                }
            } else {
                // Structure features must be unaffected by the solve.
                assert_eq!(ma, mb, "{name} depends on the solution");
            }
        }
    }
}
