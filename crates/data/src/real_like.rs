//! "Real-like" designs — the hard curriculum class.
//!
//! Real tape-out power grids differ from synthetic ones in exactly the
//! ways the generator can emulate: irregular stripe pitches (routing
//! constraints), macro blockages that break the mesh, and load current
//! concentrated in a few hot macros instead of spread smoothly.

use crate::synth::{synthesize, SynthSpec};
use irf_pg::PowerGrid;
use irf_runtime::Xoshiro256pp;

/// Generates the spec of one real-like design.
#[must_use]
pub fn real_like_spec(seed: u64) -> SynthSpec {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x4EA1);
    SynthSpec {
        m1_stripes: rng.random_range(24..=40),
        m2_stripes: rng.random_range(24..=40),
        m4_stripes: rng.random_range(3..=6),
        pads: rng.random_range(2..=5),
        total_current: rng.random_range(0.06..0.15),
        stripe_jitter: rng.random_range(0.15..0.35),
        blockages: rng.random_range(1..=3),
        hotspot_clusters: rng.random_range(2..=4),
        hotspot_fraction: rng.random_range(0.4..0.7),
        seed,
        ..SynthSpec::default()
    }
}

/// Synthesizes one real-like design.
#[must_use]
pub fn generate(seed: u64) -> PowerGrid {
    synthesize(&real_like_spec(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_like_specs_are_irregular() {
        let spec = real_like_spec(3);
        assert!(spec.stripe_jitter > 0.0);
        assert!(spec.blockages >= 1);
        assert!(spec.hotspot_clusters >= 2);
        assert!(spec.hotspot_fraction > 0.0);
    }

    #[test]
    fn generated_design_is_well_formed() {
        for seed in 0..3 {
            let g = generate(seed);
            assert!(g.is_connected_to_pads(), "seed {seed} disconnected");
            assert!(!g.loads.is_empty());
        }
    }

    #[test]
    fn real_like_differs_from_fake() {
        let r = generate(9);
        let f = crate::fake::generate(9);
        assert_ne!(r, f);
    }
}
