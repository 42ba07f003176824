//! "Fake" (BeGAN-style artificially generated) designs — the easy
//! curriculum class.

use crate::synth::{synthesize, SynthSpec};
use irf_pg::PowerGrid;
use irf_runtime::Xoshiro256pp;

/// Generates the spec of one fake design: perfectly regular stripes,
/// smooth current, no blockages — mirroring the BeGAN generator's
/// clean synthetic grids.
#[must_use]
pub fn fake_spec(seed: u64) -> SynthSpec {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xFA4E);
    SynthSpec {
        m1_stripes: rng.random_range(24..=36),
        m2_stripes: rng.random_range(24..=36),
        m4_stripes: rng.random_range(4..=7),
        pads: rng.random_range(3..=6),
        total_current: rng.random_range(0.05..0.12),
        stripe_jitter: 0.0,
        blockages: 0,
        hotspot_clusters: 0,
        hotspot_fraction: 0.0,
        seed,
        ..SynthSpec::default()
    }
}

/// Synthesizes one fake design.
#[must_use]
pub fn generate(seed: u64) -> PowerGrid {
    synthesize(&fake_spec(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_designs_are_regular() {
        let spec = fake_spec(3);
        assert_eq!(spec.stripe_jitter, 0.0);
        assert_eq!(spec.blockages, 0);
        assert_eq!(spec.hotspot_clusters, 0);
    }

    #[test]
    fn fake_designs_vary_with_seed() {
        assert_ne!(fake_spec(1), fake_spec(2));
    }

    #[test]
    fn generated_design_is_well_formed() {
        let g = generate(5);
        assert!(g.is_connected_to_pads());
    }
}
