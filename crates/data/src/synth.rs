//! Parametric multi-layer power-grid synthesis.
//!
//! Both design classes share one generator: a three-layer
//! stripe-and-via topology (m1 horizontal, m2 vertical, m4 horizontal
//! coarse), pads on m4, and cell loads on m1. The
//! [`SynthSpec`] knobs — stripe jitter, blockages, hotspot clustering
//! — are what separate "fake" (regular) from "real-like" (irregular)
//! designs.

use irf_pg::PowerGrid;
use irf_runtime::Xoshiro256pp;
use std::io;
use std::path::Path;

/// Specification of one synthetic design.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Die width in database units.
    pub die_w: i64,
    /// Die height in database units.
    pub die_h: i64,
    /// Number of m1 (horizontal) stripes.
    pub m1_stripes: usize,
    /// Number of m2 (vertical) stripes.
    pub m2_stripes: usize,
    /// Number of m4 (horizontal, coarse) stripes.
    pub m4_stripes: usize,
    /// Sheet resistance per database unit for (m1, m2, m4).
    pub r_per_dbu: (f64, f64, f64),
    /// Via resistance for m1-m2 and m2-m4 connections.
    pub via_r: (f64, f64),
    /// Number of power pads placed on m4 stripe crossings.
    pub pads: usize,
    /// Supply voltage.
    pub vdd: f64,
    /// Total load current (amperes), split over the cell loads.
    pub total_current: f64,
    /// Relative jitter of stripe positions (0 = perfectly regular).
    pub stripe_jitter: f64,
    /// Number of rectangular macro blockages (no loads inside, m1
    /// stripes broken).
    pub blockages: usize,
    /// Number of Gaussian hotspot clusters added on top of the smooth
    /// base current field.
    pub hotspot_clusters: usize,
    /// Fraction of total current concentrated in hotspot clusters.
    pub hotspot_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            die_w: 12_800,
            die_h: 12_800,
            m1_stripes: 32,
            m2_stripes: 32,
            m4_stripes: 6,
            // Strong m1/m4 anisotropy: thin cell-layer wires over a
            // low-resistance top grid, the regime where truncated
            // AMG-PCG still has visible error at k = 10 (paper Fig. 7).
            r_per_dbu: (8e-3, 8e-4, 6e-5),
            via_r: (4.0, 1.5),
            pads: 4,
            vdd: 1.1,
            total_current: 0.08,
            stripe_jitter: 0.0,
            blockages: 0,
            hotspot_clusters: 0,
            hotspot_fraction: 0.0,
            seed: 1,
        }
    }
}

/// Synthesizes the spec's power grid: its SPICE text
/// ([`synthesize_to_string`]) read through
/// [`irf_pg::grid_from_spice_reader`], the one door every design comes
/// in by. The text uses the ICCAD-2023 node naming convention, so the
/// grid has full layer/coordinate structure.
///
/// # Panics
///
/// Panics if the spec is degenerate (fewer than 2 stripes on any
/// layer, or zero pads).
#[must_use]
pub fn synthesize(spec: &SynthSpec) -> PowerGrid {
    let src = synthesize_to_string(spec);
    irf_pg::grid_from_spice_reader(src.as_bytes()).expect("synthesized netlists are valid grids")
}

/// Synthesizes the SPICE text for the spec without reading it — the
/// same bytes [`synthesize`] reads.
///
/// # Panics
///
/// See [`synthesize`].
#[must_use]
pub fn synthesize_to_string(spec: &SynthSpec) -> String {
    let mut src = String::new();
    emit_netlist(spec, &mut src).expect("writing to a String cannot fail");
    src
}

/// Streams the spec's SPICE text into an [`io::Write`] sink —
/// writer-side generation with no in-memory netlist or source string,
/// the million-node front half of the bounded-memory pipeline. The
/// bytes are identical to [`synthesize_to_string`] for the same spec.
///
/// # Errors
///
/// Propagates the sink's I/O errors.
///
/// # Panics
///
/// See [`synthesize`].
pub fn synthesize_to_writer<W: io::Write>(spec: &SynthSpec, out: W) -> io::Result<()> {
    struct IoFmt<W: io::Write> {
        out: W,
        err: Option<io::Error>,
    }
    impl<W: io::Write> std::fmt::Write for IoFmt<W> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.out.write_all(s.as_bytes()).map_err(|e| {
                self.err = Some(e);
                std::fmt::Error
            })
        }
    }
    let mut sink = IoFmt { out, err: None };
    match emit_netlist(spec, &mut sink) {
        Ok(()) => Ok(()),
        Err(_) => Err(sink
            .err
            .unwrap_or_else(|| io::Error::other("formatting failed"))),
    }
}

/// Streams the spec's SPICE text into a freshly created file at
/// `path` behind a large write buffer.
///
/// # Errors
///
/// Propagates file-creation and write errors.
///
/// # Panics
///
/// See [`synthesize`].
pub fn synthesize_to_path(spec: &SynthSpec, path: impl AsRef<Path>) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut writer = io::BufWriter::with_capacity(1 << 20, file);
    synthesize_to_writer(spec, &mut writer)?;
    io::Write::flush(&mut writer)
}

/// Rough node count the spec will synthesize: crossings on m1, m2 and
/// m4 (each m1×m2 crossing exists on both layers, plus the coarse m4
/// grid). Blockages reduce the real count; use this to size specs,
/// not to allocate exactly.
#[must_use]
pub fn approx_node_count(spec: &SynthSpec) -> usize {
    let m1 = spec.m1_stripes;
    let m2 = spec.m2_stripes;
    let m4 = spec.m4_stripes;
    m1 * m2 + m2 * (m1 + m4) + m2 * m4
}

impl SynthSpec {
    /// A spec sized so [`approx_node_count`] lands near
    /// `target_nodes`: square m1/m2 stripe counts, a proportionally
    /// coarse m4 grid, pads scaled with the perimeter, and mild
    /// irregularity (jitter + hotspots) so the grid is "real-like"
    /// rather than perfectly regular. The die grows with the stripe
    /// count so segment resistances stay in a realistic range.
    ///
    /// # Panics
    ///
    /// Panics if `target_nodes < 8`.
    #[must_use]
    pub fn scaled_to_nodes(target_nodes: usize, seed: u64) -> SynthSpec {
        assert!(target_nodes >= 8, "target too small to form a grid");
        // approx_node_count ≈ 2·s² for s = m1 = m2 (m4 term is minor).
        let s = (((target_nodes as f64) / 2.0).sqrt().round() as usize).max(2);
        let m4 = (s / 64).clamp(2, 64);
        let pads = (s / 16).clamp(4, 256);
        SynthSpec {
            die_w: 400 * s as i64,
            die_h: 400 * s as i64,
            m1_stripes: s,
            m2_stripes: s,
            m4_stripes: m4,
            pads,
            total_current: 0.08 * (s as f64 / 32.0),
            stripe_jitter: 0.05,
            hotspot_clusters: 4,
            hotspot_fraction: 0.3,
            seed,
            ..SynthSpec::default()
        }
    }
}

/// The single generator behind every `synthesize*` front door: emits
/// the spec's SPICE text card by card into `out`. All randomness
/// flows through one seeded RNG in a fixed consumption order, so the
/// emitted bytes depend only on the spec — never on the sink type.
fn emit_netlist<W: std::fmt::Write>(spec: &SynthSpec, out: &mut W) -> std::fmt::Result {
    assert!(
        spec.m1_stripes >= 2 && spec.m2_stripes >= 2 && spec.m4_stripes >= 1,
        "spec needs at least 2x2 stripes and one m4 stripe"
    );
    assert!(spec.pads >= 1, "spec needs at least one pad");
    let mut rng = Xoshiro256pp::seed_from_u64(spec.seed);
    let src = out;
    writeln!(src, "* synthetic PG design (seed {})", spec.seed)?;

    // Stripe coordinates with optional jitter.
    let m1_ys = stripe_positions(spec.die_h, spec.m1_stripes, spec.stripe_jitter, &mut rng);
    let m2_xs = stripe_positions(spec.die_w, spec.m2_stripes, spec.stripe_jitter, &mut rng);
    let m4_ys = stripe_positions(spec.die_h, spec.m4_stripes, spec.stripe_jitter, &mut rng);

    // Blockages: rectangles in which m1 has no nodes/loads.
    let blocks: Vec<(i64, i64, i64, i64)> = (0..spec.blockages)
        .map(|_| {
            let bw = spec.die_w / 5 + rng.random_range(0..spec.die_w / 5);
            let bh = spec.die_h / 5 + rng.random_range(0..spec.die_h / 5);
            let x0 = rng.random_range(0..(spec.die_w - bw).max(1));
            let y0 = rng.random_range(0..(spec.die_h - bh).max(1));
            (x0, y0, x0 + bw, y0 + bh)
        })
        .collect();
    let blocked = |x: i64, y: i64| {
        blocks
            .iter()
            .any(|&(x0, y0, x1, y1)| x >= x0 && x <= x1 && y >= y0 && y <= y1)
    };

    let name = |layer: u32, x: i64, y: i64| format!("n1_m{layer}_{x}_{y}");
    let mut r_id = 0usize;
    let mut emit_r = |src: &mut W, a: &str, b: &str, ohms: f64| -> std::fmt::Result {
        r_id += 1;
        writeln!(src, "R{r_id} {a} {b} {ohms:.6e}")
    };

    // m1 horizontal stripes: nodes at crossings with m2, broken by blockages.
    for &y in &m1_ys {
        let mut prev: Option<i64> = None;
        for &x in &m2_xs {
            if blocked(x, y) {
                prev = None;
                continue;
            }
            if let Some(px) = prev {
                let ohms = (x - px) as f64 * spec.r_per_dbu.0;
                emit_r(&mut *src, &name(1, px, y), &name(1, x, y), ohms.max(1e-6))?;
            }
            prev = Some(x);
        }
    }
    // m2 vertical stripes: nodes at crossings with m1 and m4.
    for &x in &m2_xs {
        let mut ys: Vec<(i64, u32)> = m1_ys.iter().map(|&y| (y, 1u32)).collect();
        ys.extend(m4_ys.iter().map(|&y| (y, 4u32)));
        ys.sort_unstable();
        ys.dedup_by_key(|&mut (y, _)| y);
        let mut prev: Option<i64> = None;
        for &(y, _) in &ys {
            if let Some(py) = prev {
                let ohms = (y - py) as f64 * spec.r_per_dbu.1;
                emit_r(&mut *src, &name(2, x, py), &name(2, x, y), ohms.max(1e-6))?;
            }
            prev = Some(y);
        }
        // Vias m1-m2 at m1 crossings (skip blocked), m2-m4 at m4 crossings.
        for &y in &m1_ys {
            if !blocked(x, y) {
                emit_r(&mut *src, &name(1, x, y), &name(2, x, y), spec.via_r.0)?;
            }
        }
        for &y in &m4_ys {
            emit_r(&mut *src, &name(2, x, y), &name(4, x, y), spec.via_r.1)?;
        }
    }
    // m4 horizontal coarse stripes.
    for &y in &m4_ys {
        for pair in m2_xs.windows(2) {
            let ohms = (pair[1] - pair[0]) as f64 * spec.r_per_dbu.2;
            emit_r(
                &mut *src,
                &name(4, pair[0], y),
                &name(4, pair[1], y),
                ohms.max(1e-6),
            )?;
        }
    }

    // Pads: evenly spread over m4 crossings.
    let mut pad_sites: Vec<(i64, i64)> = Vec::new();
    for &y in &m4_ys {
        for &x in &m2_xs {
            pad_sites.push((x, y));
        }
    }
    let step = (pad_sites.len() / spec.pads).max(1);
    let mut pad_count = 0;
    for (i, &(x, y)) in pad_sites.iter().enumerate() {
        if i % step == 0 && pad_count < spec.pads {
            pad_count += 1;
            writeln!(src, "V{pad_count} {} 0 {}", name(4, x, y), spec.vdd)?;
        }
    }

    // Load currents on m1 nodes: smooth base field + optional hotspots.
    let sites: Vec<(i64, i64)> = m1_ys
        .iter()
        .flat_map(|&y| m2_xs.iter().map(move |&x| (x, y)))
        .filter(|&(x, y)| !blocked(x, y))
        .collect();
    let base_total = spec.total_current * (1.0 - spec.hotspot_fraction);
    // Smooth base: low-frequency sinusoidal field with random phase.
    let (phx, phy): (f64, f64) = (
        rng.random_range(0.0..std::f64::consts::TAU),
        rng.random_range(0.0..std::f64::consts::TAU),
    );
    let mut weights: Vec<f64> = sites
        .iter()
        .map(|&(x, y)| {
            let fx = x as f64 / spec.die_w as f64;
            let fy = y as f64 / spec.die_h as f64;
            1.0 + 0.5 * (std::f64::consts::TAU * fx + phx).sin()
                + 0.5 * (std::f64::consts::TAU * fy + phy).cos()
        })
        .collect();
    let wsum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w = *w / wsum * base_total;
    }
    // Hotspot clusters: Gaussian blobs of concentrated current.
    if spec.hotspot_clusters > 0 && spec.hotspot_fraction > 0.0 {
        let per_cluster = spec.total_current * spec.hotspot_fraction / spec.hotspot_clusters as f64;
        for _ in 0..spec.hotspot_clusters {
            let cx = rng.random_range(0..spec.die_w) as f64;
            let cy = rng.random_range(0..spec.die_h) as f64;
            let sigma = spec.die_w as f64 / rng.random_range(8.0_f64..16.0);
            let mut blob: Vec<f64> = sites
                .iter()
                .map(|&(x, y)| {
                    let dx = x as f64 - cx;
                    let dy = y as f64 - cy;
                    (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
                })
                .collect();
            let bsum: f64 = blob.iter().sum();
            if bsum > 0.0 {
                for (w, b) in weights.iter_mut().zip(&blob) {
                    *w += b / bsum * per_cluster;
                }
            }
            blob.clear();
        }
    }
    for (i, (&(x, y), w)) in sites.iter().zip(&weights).enumerate() {
        if *w > 0.0 {
            writeln!(src, "I{} {} 0 {:.6e}", i + 1, name(1, x, y), w)?;
        }
    }
    writeln!(src, ".end")
}

/// Evenly spaced stripe coordinates with optional relative jitter,
/// strictly increasing and inside `[0, extent]`.
fn stripe_positions(extent: i64, count: usize, jitter: f64, rng: &mut Xoshiro256pp) -> Vec<i64> {
    let pitch = extent as f64 / count as f64;
    let mut out: Vec<i64> = (0..count)
        .map(|i| {
            let base = (i as f64 + 0.5) * pitch;
            let j = if jitter > 0.0 {
                rng.random_range(-jitter..jitter) * pitch
            } else {
                0.0
            };
            (base + j).round().clamp(0.0, extent as f64) as i64
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    // Guard against jitter collapsing stripes together.
    while out.len() < count {
        let extra = rng.random_range(0..=extent);
        if !out.contains(&extra) {
            out.push(extra);
            out.sort_unstable();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_synthesizes_valid_grid() {
        let g = synthesize(&SynthSpec::default());
        assert!(g.nodes.len() > 200);
        assert_eq!(g.pads.len(), 4);
        assert_eq!(g.layers(), vec![1, 2, 4]);
        assert!(g.is_connected_to_pads());
        // Synthesized values are written with 7 significant digits.
        assert!((g.total_load_current() - 0.08).abs() < 1e-5);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let spec = SynthSpec::default();
        assert_eq!(synthesize(&spec), synthesize(&spec));
        let other = SynthSpec {
            seed: 2,
            ..SynthSpec::default()
        };
        assert_ne!(synthesize(&spec), synthesize(&other));
    }

    #[test]
    fn jitter_produces_irregular_stripes() {
        let spec = SynthSpec {
            stripe_jitter: 0.3,
            seed: 7,
            ..SynthSpec::default()
        };
        let g = synthesize(&spec);
        // Check that m1 y-coordinates are not evenly spaced.
        let mut ys: Vec<i64> = g
            .nodes
            .iter()
            .filter(|nd| nd.layer == 1)
            .map(|nd| nd.y)
            .collect();
        ys.sort_unstable();
        ys.dedup();
        let gaps: Vec<i64> = ys.windows(2).map(|w| w[1] - w[0]).collect();
        let min = gaps.iter().min().copied().unwrap_or(0);
        let max = gaps.iter().max().copied().unwrap_or(0);
        assert!(max > min, "jittered stripes should have uneven pitch");
    }

    #[test]
    fn blockages_remove_loads_locally() {
        let with = SynthSpec {
            blockages: 3,
            seed: 11,
            ..SynthSpec::default()
        };
        let without = SynthSpec {
            seed: 11,
            ..SynthSpec::default()
        };
        let gw = synthesize(&with);
        let go = synthesize(&without);
        assert!(gw.loads.len() < go.loads.len());
        assert!(gw.is_connected_to_pads());
    }

    #[test]
    fn hotspots_concentrate_current() {
        let spec = SynthSpec {
            hotspot_clusters: 2,
            hotspot_fraction: 0.6,
            seed: 13,
            ..SynthSpec::default()
        };
        let g = synthesize(&spec);
        // Synthesized values are written with 7 significant digits.
        assert!((g.total_load_current() - 0.08).abs() < 1e-5);
        // The largest single load should be far above the mean.
        let max = g.loads.iter().map(|l| l.amps).fold(0.0, f64::max);
        let mean = g.total_load_current() / g.loads.len() as f64;
        assert!(max > 3.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn roundtrips_through_spice_writer() {
        let g = synthesize(&SynthSpec::default());
        let text = crate::export::to_netlist(&g);
        let again = irf_pg::grid_from_spice_reader(text.as_bytes()).expect("reads back");
        assert_eq!(g, again);
    }

    #[test]
    fn string_and_writer_sinks_emit_identical_bytes() {
        let spec = SynthSpec {
            blockages: 2,
            stripe_jitter: 0.1,
            seed: 17,
            ..SynthSpec::default()
        };
        let text = synthesize_to_string(&spec);
        let mut bytes: Vec<u8> = Vec::new();
        synthesize_to_writer(&spec, &mut bytes).expect("vec sink");
        assert_eq!(text.as_bytes(), &bytes[..]);
        // And those bytes are the grid `synthesize` reads.
        let read = irf_pg::grid_from_spice_reader(&bytes[..]).expect("reads");
        assert_eq!(read, synthesize(&spec));
    }

    #[test]
    fn path_sink_matches_string_sink() {
        let spec = SynthSpec::default();
        let dir = std::env::temp_dir().join("irf_synth_path_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("synth.sp");
        synthesize_to_path(&spec, &path).expect("write file");
        let from_file = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        assert_eq!(from_file, synthesize_to_string(&spec));
    }

    #[test]
    fn scaled_spec_lands_near_target() {
        for &target in &[50_000usize, 250_000] {
            let spec = SynthSpec::scaled_to_nodes(target, 3);
            let approx = approx_node_count(&spec);
            let ratio = approx as f64 / target as f64;
            assert!(
                (0.7..1.4).contains(&ratio),
                "target {target}: approx {approx} off by {ratio:.2}x"
            );
        }
        // Small scaled specs must still synthesize a valid grid.
        let spec = SynthSpec::scaled_to_nodes(5_000, 9);
        let g = synthesize(&spec);
        assert!(g.is_connected_to_pads());
        let lo = approx_node_count(&spec) / 2;
        assert!(g.nodes.len() > lo, "{} nodes vs approx {lo}", g.nodes.len());
    }
}
