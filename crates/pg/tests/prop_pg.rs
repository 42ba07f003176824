//! Randomized-but-deterministic property tests for the circuit model
//! and rasterization (fixed seeds, exact reproduction on failure).

use irf_pg::grid_from_spice_reader;
use irf_pg::{GridMap, Rasterizer};
use irf_runtime::Xoshiro256pp;

const CASES: u64 = 64;

#[test]
fn rasterizer_always_lands_inside() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x96_01);
    for _ in 0..CASES {
        let bbox_w = rng.random_range(1i64..1_000_000);
        let bbox_h = rng.random_range(1i64..1_000_000);
        let w = rng.random_range(1usize..300);
        let h = rng.random_range(1usize..300);
        let x = rng.random_range(-2_000_000i64..2_000_000);
        let y = rng.random_range(-2_000_000i64..2_000_000);
        let r = Rasterizer::new((0, 0, bbox_w, bbox_h), w, h);
        let (px, py) = r.pixel(x, y);
        assert!(px < w && py < h);
    }
}

#[test]
fn rasterizer_is_monotone_along_axes() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x96_02);
    for _ in 0..CASES {
        let w = rng.random_range(2usize..64);
        let len = rng.random_range(2usize..10);
        let mut sorted: Vec<i64> = (0..len).map(|_| rng.random_range(0i64..10_000)).collect();
        sorted.sort_unstable();
        let r = Rasterizer::new((0, 0, 10_000, 10_000), w, w);
        let pixels: Vec<usize> = sorted.iter().map(|&x| r.pixel(x, 0).0).collect();
        for pair in pixels.windows(2) {
            assert!(pair[0] <= pair[1], "pixel mapping must be monotone");
        }
    }
}

#[test]
fn splat_sum_conserves_mass() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x96_03);
    for _ in 0..CASES {
        let len = rng.random_range(0usize..100);
        let samples: Vec<(i64, i64, f64)> = (0..len)
            .map(|_| {
                (
                    rng.random_range(0i64..1000),
                    rng.random_range(0i64..1000),
                    rng.random_range(-5.0f64..5.0),
                )
            })
            .collect();
        let w = rng.random_range(1usize..32);
        let h = rng.random_range(1usize..32);
        let r = Rasterizer::new((0, 0, 1000, 1000), w, h);
        let m = r.splat_sum(samples.clone());
        let total: f64 = m.data().iter().map(|&v| f64::from(v)).sum();
        let expect: f64 = samples.iter().map(|&(_, _, v)| v).sum();
        assert!((total - expect).abs() < 1e-3 * (1.0 + expect.abs()));
    }
}

#[test]
fn rotation_is_a_group_of_order_four() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x96_04);
    for _ in 0..CASES {
        let data: Vec<f32> = (0..36).map(|_| rng.random_range(-10.0f32..10.0)).collect();
        let quarters = rng.random_range(0u32..8);
        let m = GridMap::from_vec(6, 6, data);
        // r^(q) == r^(q mod 4); four quarter turns are the identity.
        assert_eq!(m.rotated(quarters), m.rotated(quarters % 4));
        assert_eq!(m.rotated(4), m.clone());
        // Rotation preserves the multiset of values (sum and max).
        let r = m.rotated(1);
        let sum_a: f32 = m.data().iter().sum();
        let sum_b: f32 = r.data().iter().sum();
        assert!((sum_a - sum_b).abs() < 1e-3);
        assert_eq!(m.max(), r.max());
    }
}

#[test]
fn mna_diagonal_dominance() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x96_05);
    for _ in 0..CASES {
        // A chain with one pad: the reduced matrix is diagonally
        // dominant with strict dominance at the pad neighbour.
        let len = rng.random_range(3usize..10);
        let res: Vec<f64> = (0..len).map(|_| rng.random_range(0.1f64..100.0)).collect();
        let mut src = String::from("V1 p 0 1.0\n");
        let mut prev = "p".to_string();
        for (i, r) in res.iter().enumerate() {
            let cur = format!("n{i}");
            src.push_str(&format!("R{i} {prev} {cur} {r}\n"));
            prev = cur;
        }
        src.push_str(&format!("I1 {prev} 0 1m\n"));
        let g = grid_from_spice_reader(src.as_bytes()).unwrap();
        let sys = g.build_system();
        for i in 0..sys.dim() {
            let (cols, vals) = sys.matrix.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag >= off - 1e-9, "row {i} not diagonally dominant");
        }
    }
}

#[test]
fn grid_map_normalized_is_idempotent() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x96_06);
    for _ in 0..CASES {
        let data: Vec<f32> = (0..16)
            .map(|_| rng.random_range(-100.0f32..100.0))
            .collect();
        let m = GridMap::from_vec(4, 4, data);
        let n1 = m.normalized();
        let n2 = n1.normalized();
        for (a, b) in n1.data().iter().zip(n2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(n1.data().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }
}
