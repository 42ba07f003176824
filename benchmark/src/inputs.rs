//! Everything a run feeds the program, generated from `--seed` before
//! any clock starts: netlist files, the model checkpoint, edit lists.

use ir_fusion::{FusionConfig, TrainedModel};
use irf_data::synth::{synthesize_to_string, SynthSpec};
use irf_data::Dataset;
use irf_models::ModelKind;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// SplitMix64: a few lines, so the benchmark's inputs do not depend on
/// the program's own generator staying as it is.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` distinct values below `n`.
    pub fn distinct(&mut self, count: usize, n: usize) -> Vec<usize> {
        assert!(count <= n, "cannot draw {count} distinct values below {n}");
        let mut picked = Vec::with_capacity(count);
        while picked.len() < count {
            let v = self.below(n);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        picked
    }
}

/// Node counts of the two op classes of each workload. The full sizes
/// put one `cheap cheap costly` round at about half a second on the
/// machine the bounds were measured on (cheap ~0.1 s, costly ~0.3 s);
/// the smoke sizes finish in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub cold_cheap: usize,
    pub cold_costly: usize,
    pub whatif_base: usize,
    pub solve_cheap: usize,
    pub solve_costly: usize,
    /// The registered designs `serve_predict` re-sends inline.
    pub serve_design: usize,
    /// The designs `serve_predict` sends once each, by path.
    pub serve_first_sight: usize,
    /// Elements of each triad array in the bandwidth probe.
    pub triad_len: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        cold_cheap: 24_000,
        cold_costly: 70_000,
        whatif_base: 90_000,
        solve_cheap: 28_000,
        solve_costly: 72_000,
        serve_design: 900,
        serve_first_sight: 50_000,
        triad_len: 16 << 20,
    };

    pub const SMOKE: Sizes = Sizes {
        cold_cheap: 1_500,
        cold_costly: 4_000,
        whatif_base: 4_000,
        solve_cheap: 1_500,
        solve_costly: 4_000,
        serve_design: 300,
        serve_first_sight: 1_500,
        triad_len: 1 << 20,
    };
}

/// The configuration every workload runs: the defaults (64x64 maps,
/// IR-Fusion net, two V-cycle PCG iterations) on one thread.
pub fn fusion_config() -> FusionConfig {
    FusionConfig {
        num_threads: 1,
        ..FusionConfig::default()
    }
}

/// The per-run scratch directory and the generators that fill it.
pub struct Inputs {
    pub dir: PathBuf,
    pub seed: u64,
    pub sizes: Sizes,
}

impl Inputs {
    pub fn new(dir: PathBuf, seed: u64, sizes: Sizes) -> Result<Self, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Inputs { dir, seed, sizes })
    }

    /// The SPICE text of a ~`nodes`-node design. Its topology (stripe
    /// jitter, segment resistances, pads) is a function of `role`
    /// alone, because an op's cost depends on the topology and must
    /// not depend on the run seed; the seed draws every load current,
    /// so each seed still gives a different design with different
    /// drops.
    pub fn netlist_text(&self, nodes: usize, role: u64) -> String {
        let topology = synthesize_to_string(&SynthSpec::scaled_to_nodes(nodes, role));
        let mut rng = Rng::new(self.seed, role);
        let mut text = String::with_capacity(topology.len() + 1024);
        for line in topology.lines() {
            match line.rsplit_once(' ') {
                Some((card, amps)) if line.starts_with('I') => {
                    let amps: f64 = amps.parse().expect("synthesized current card ends in amps");
                    let factor = 0.5 + rng.next_u64() as f64 / u64::MAX as f64;
                    text.push_str(&format!("{card} {:.6e}\n", amps * factor));
                }
                _ => {
                    text.push_str(line);
                    text.push('\n');
                }
            }
        }
        text
    }

    /// Writes [`Inputs::netlist_text`] to a file of the run's
    /// directory.
    pub fn netlist_file(&self, name: &str, nodes: usize, role: u64) -> Result<PathBuf, String> {
        let path = self.dir.join(name);
        std::fs::write(&path, self.netlist_text(nodes, role))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }

    /// Trains the IR-Fusion net for one epoch on a seeded five-design
    /// corpus and saves the checkpoint the workloads load.
    pub fn model_file(&self) -> Result<PathBuf, String> {
        let mut config = fusion_config();
        config.train.epochs = 1;
        let dataset = Dataset::generate(2, 2, 1, self.seed);
        let trained = ir_fusion::train(ModelKind::IrFusion, &dataset, &config);
        let mut model_config = config.model;
        model_config.in_channels = config.feature_channels(3);
        model_config.linear_head = trained.residual;
        let path = self.dir.join("model.bin");
        let file = File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut writer = BufWriter::new(file);
        ir_fusion::save_model(&trained, ModelKind::IrFusion, model_config, &mut writer)
            .map_err(|e| format!("save model: {e}"))?;
        writer.flush().map_err(|e| format!("flush model: {e}"))?;
        Ok(path)
    }
}

pub fn load_model(path: &Path) -> Result<TrainedModel, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    ir_fusion::load_model(BufReader::new(file)).map_err(|e| format!("load model: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_draws_distinct_values() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut picked = Rng::new(3, 0).distinct(8, 9);
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 8);
    }

    #[test]
    fn the_seed_draws_the_currents_and_the_role_the_topology() {
        let inputs = |seed| Inputs {
            dir: PathBuf::new(),
            seed,
            sizes: Sizes::SMOKE,
        };
        let (a, b) = (
            inputs(1).netlist_text(300, 9),
            inputs(2).netlist_text(300, 9),
        );
        assert_eq!(a, inputs(1).netlist_text(300, 9), "same seed, same bytes");
        let split = |text: &str| -> (Vec<String>, Vec<String>) {
            text.lines()
                .map(str::to_string)
                .partition(|l| l.starts_with('I'))
        };
        let ((currents_a, rest_a), (currents_b, rest_b)) = (split(&a), split(&b));
        assert_eq!(rest_a, rest_b, "topology must not depend on the seed");
        assert_eq!(currents_a.len(), currents_b.len());
        assert!(currents_a.iter().zip(&currents_b).all(|(x, y)| x != y));
        assert_ne!(
            rest_a,
            split(&inputs(1).netlist_text(300, 10)).1,
            "roles differ"
        );
    }
}
