//! Differential contract of the shortest-path refresh: whatever a
//! topology edit does to the segment resistances, the per-pad distance
//! arrays refreshed from the base's, their per-node average and both
//! normalized maps have the bits of a from-scratch computation on the
//! edited grid — at any thread count. Fixed seeds, dev-profile sizes.

use irf_data::synth::{synthesize_to_string, SynthSpec};
use irf_features::shortest_path::{
    resistance_distances, shortest_path_resistance_per_node, PadDistances, RefreshStats,
};
use irf_features::{FeatureConfig, FeatureExtractor, ResistanceMaps};
use irf_pg::{grid_from_spice_reader, PowerGrid};
use irf_runtime::Xoshiro256pp;
use std::io::Cursor;
use std::sync::Mutex;

/// The global thread count is process-wide state; hold this lock while
/// flipping it (same pattern as `tests/integration_determinism.rs`).
static THREAD_CONFIG: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREAD_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    irf_runtime::set_num_threads(n);
    let result = f();
    irf_runtime::set_num_threads(0);
    result
}

/// ~2.9k nodes: 36 x 36 crossings on m1 and m2, four m4 stripes.
fn spec(pads: usize, jitter: f64, seed: u64) -> SynthSpec {
    SynthSpec {
        m1_stripes: 36,
        m2_stripes: 36,
        m4_stripes: 4,
        pads,
        stripe_jitter: jitter,
        seed,
        ..SynthSpec::default()
    }
}

fn grid_of(text: &str) -> PowerGrid {
    grid_from_spice_reader(Cursor::new(text)).expect("valid grid")
}

fn grid(pads: usize, jitter: f64, seed: u64) -> PowerGrid {
    grid_of(&synthesize_to_string(&spec(pads, jitter, seed)))
}

fn extractor() -> FeatureExtractor {
    FeatureExtractor::new(FeatureConfig {
        width: 16,
        height: 16,
        ..FeatureConfig::default()
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Population {
    M1Straps,
    M2Straps,
    TopStraps,
    Vias,
    Any,
}

const POPULATIONS: [Population; 5] = [
    Population::M1Straps,
    Population::M2Straps,
    Population::TopStraps,
    Population::Vias,
    Population::Any,
];

fn members(grid: &PowerGrid, population: Population) -> Vec<usize> {
    let top = grid.layers().last().copied().expect("layers");
    (0..grid.segments.len())
        .filter(|&i| {
            let s = &grid.segments[i];
            let (a, b) = (grid.nodes[s.a].layer, grid.nodes[s.b].layer);
            match population {
                Population::M1Straps => (a, b) == (1, 1),
                Population::M2Straps => (a, b) == (2, 2),
                Population::TopStraps => (a, b) == (top, top),
                Population::Vias => a != b,
                Population::Any => true,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Factor {
    Halve,
    Double,
    Mixed,
}

const FACTORS: [Factor; 3] = [Factor::Halve, Factor::Double, Factor::Mixed];

/// `count` segments of `population`, each scaled by the factor (mixed:
/// alternately halved and doubled within the one batch).
fn edit_batch(
    grid: &PowerGrid,
    rng: &mut Xoshiro256pp,
    population: Population,
    factor: Factor,
    count: usize,
) -> PowerGrid {
    let members = members(grid, population);
    let mut edited = grid.clone();
    for k in 0..count {
        let i = members[rng.random_range(0usize..members.len())];
        edited.segments[i].ohms *= match factor {
            Factor::Halve => 0.5,
            Factor::Double => 2.0,
            Factor::Mixed if k % 2 == 0 => 0.5,
            Factor::Mixed => 2.0,
        };
    }
    edited
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_maps(got: &ResistanceMaps, want: &ResistanceMaps, label: &str) {
    assert_eq!(
        bits32(got.shortest_path.data()),
        bits32(want.shortest_path.data()),
        "{label}: shortest-path map"
    );
    assert_eq!(
        bits32(got.resistance.data()),
        bits32(want.resistance.data()),
        "{label}: resistance map"
    );
}

/// The full passes over `grid`, one per pad or the one multi-source
/// pass, by the public single-pass entry point.
fn full_passes(grid: &PowerGrid) -> Vec<Vec<f64>> {
    let pads: Vec<usize> = grid.pads.iter().map(|p| p.node).collect();
    if pads.len() > 32 {
        vec![resistance_distances(grid, &pads).expect("pads")]
    } else {
        pads.iter()
            .map(|&p| resistance_distances(grid, &[p]).expect("pads"))
            .collect()
    }
}

/// A base design as an edit sees it: the grid, its per-pad arrays, and
/// its maps (which grow their own copy of the arrays on first use).
struct Base {
    grid: PowerGrid,
    distances: PadDistances,
    maps: ResistanceMaps,
}

impl Base {
    fn of(grid: PowerGrid) -> Base {
        let distances = PadDistances::compute(&grid).expect("pads");
        let maps = extractor().resistance_maps(&grid).expect("pads");
        assert!(
            !maps.holds_pad_distances(),
            "a cold analysis keeps no per-pad arrays"
        );
        Base {
            grid,
            distances,
            maps,
        }
    }
}

/// What one checked edit did: the refresh's own account, and the share
/// of (pad, node) distances whose bits differ from the base's.
struct Checked {
    stats: RefreshStats,
    moved_share: f64,
    refreshed: PadDistances,
}

/// Refreshes `edited` from `base` at 1/2/4/8 threads and compares
/// every output with the from-scratch computation.
fn check_edit(base: &Base, edited: &PowerGrid, label: &str) -> Checked {
    let want_passes = full_passes(edited);
    let want_per_node = shortest_path_resistance_per_node(edited).expect("pads");
    let ex = extractor();
    let want_maps = ex.resistance_maps(edited).expect("pads");
    let mut last = None;
    for threads in [1, 2, 4, 8] {
        let label = format!("{label} @ {threads} threads");
        let (refreshed, stats, maps) = with_threads(threads, || {
            let (refreshed, stats) = base
                .distances
                .refreshed(&base.grid, edited)
                .expect("an ohms-only edit refreshes");
            let maps = ex
                .resistance_maps_from_base(edited, &base.grid, &base.maps)
                .expect("pads");
            (refreshed, stats, maps)
        });
        assert_eq!(refreshed.passes().len(), want_passes.len(), "{label}");
        for (pad, (got, want)) in refreshed.passes().zip(&want_passes).enumerate() {
            assert_eq!(bits(got), bits(want), "{label}: pad {pad}");
        }
        assert_eq!(
            bits(&refreshed.per_node()),
            bits(&want_per_node),
            "{label}: per-node average"
        );
        assert_same_maps(&maps, &want_maps, &label);
        assert!(!maps.holds_pad_distances(), "{label}: edits keep maps only");
        last = Some((refreshed, stats));
    }
    assert!(
        base.maps.holds_pad_distances(),
        "{label}: base materialised"
    );
    let (refreshed, stats) = last.expect("four thread counts ran");
    let moved: usize = base
        .distances
        .passes()
        .zip(&want_passes)
        .map(|(b, w)| {
            b.iter()
                .zip(w)
                .filter(|(x, y)| x.to_bits() != y.to_bits())
                .count()
        })
        .sum();
    let total = want_passes.len() * edited.nodes.len();
    Checked {
        stats,
        moved_share: moved as f64 / total as f64,
        refreshed,
    }
}

#[test]
fn refresh_equals_full_recompute_over_populations_factors_and_pad_counts() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5eed_0019);
    let mut cases = 0;
    let mut moving_cases = 0;
    let mut relaxed_cases = 0;
    // 1..=13 pads: one, two and four fold chunks; 33: the multi-source
    // branch (one array).
    for pads in [1, 3, 4, 5, 9, 13, 33] {
        let base = Base::of(grid(pads, 0.05, 40 + pads as u64));
        assert_eq!(base.grid.pads.len(), pads);
        assert_eq!(
            base.distances.passes().len(),
            if pads > 32 { 1 } else { pads }
        );
        for population in POPULATIONS {
            for factor in FACTORS {
                let edited = edit_batch(&base.grid, &mut rng, population, factor, 6);
                let label = format!("{pads} pads, {population:?} {factor:?}");
                let checked = check_edit(&base, &edited, &label);
                cases += 1;
                if checked.moved_share > 0.01 {
                    moving_cases += 1;
                }
                if checked.stats.settled > 0 {
                    relaxed_cases += 1;
                }
                if population == Population::M1Straps {
                    // m1 straps sit on nobody's shortest path: nothing
                    // moves, every array is shared with the base.
                    assert_eq!(checked.moved_share, 0.0, "{label}");
                    assert!(
                        checked.refreshed.shares_every_pass_with(&base.distances),
                        "{label}"
                    );
                }
            }
        }
    }
    // A suite of m1 edits would pass with a broken relaxation: most of
    // these cases must really move distances, and really relax.
    assert!(
        3 * moving_cases >= cases,
        "{moving_cases} of {cases} cases moved > 1 % of the distances"
    );
    assert!(
        3 * relaxed_cases >= cases,
        "{relaxed_cases} of {cases} cases went through the heap loop"
    );
}

#[test]
fn ties_on_a_regular_grid_do_not_confuse_the_tightness_test() {
    // No jitter: equal stripe pitches, so many nodes have several
    // shortest paths with bit-equal sums and every one of them is
    // tight. Invalidation must follow all of them.
    let mut rng = Xoshiro256pp::seed_from_u64(0x71e5);
    let mut moved = 0.0;
    for pads in [1, 4, 13] {
        let base = Base::of(grid(pads, 0.0, 3));
        for population in [
            Population::M2Straps,
            Population::TopStraps,
            Population::Vias,
            Population::Any,
        ] {
            for factor in FACTORS {
                let edited = edit_batch(&base.grid, &mut rng, population, factor, 4);
                let label = format!("regular, {pads} pads, {population:?} {factor:?}");
                moved += check_edit(&base, &edited, &label).moved_share;
            }
        }
    }
    assert!(moved > 0.0, "the regular-grid edits moved distances");
}

#[test]
fn a_floating_island_stays_infinite() {
    let mut text = synthesize_to_string(&spec(4, 0.05, 9));
    text.push_str("Risl1 isl_a isl_b 1.0\nRisl2 isl_b isl_c 2.0\n");
    let base = Base::of(grid_of(&text));
    assert!(!base.grid.is_connected_to_pads());
    let island: Vec<usize> = (0..base.grid.nodes.len())
        .filter(|&i| base.grid.nodes[i].name.starts_with("isl_"))
        .collect();
    assert_eq!(island.len(), 3);
    let island_segment = base
        .grid
        .segments
        .iter()
        .position(|s| island.contains(&s.a))
        .expect("island segment");
    let mut rng = Xoshiro256pp::seed_from_u64(0x151e);
    for factor in [0.5, 2.0] {
        // An island segment and a few on the die, in one batch.
        let mut edited = edit_batch(&base.grid, &mut rng, Population::M2Straps, Factor::Mixed, 4);
        edited.segments[island_segment].ohms *= factor;
        let label = format!("island x{factor}");
        let checked = check_edit(&base, &edited, &label);
        for pass in checked.refreshed.passes() {
            for &i in &island {
                assert_eq!(pass[i], f64::INFINITY, "{label}: node {i}");
            }
        }
        let per_node = checked.refreshed.per_node();
        for &i in &island {
            assert_eq!(per_node[i], f64::INFINITY, "{label}: node {i}");
        }
    }
}

#[test]
fn an_increase_reroutes_a_whole_subtree_without_disconnecting_it() {
    // p -1- a -3- b -3- p: `a` and `b` each hang off the pad directly.
    // Below `a` a 30-node spine with a leaf on every node; below `b` a
    // long tail that keeps the invalidated share under the fall-back
    // rule. Raising p-a to 10 ohms makes p-b-a the way in: `a` and
    // everything below it reroute through `b`, 5 ohms farther out.
    let mut src = String::from("V1 p 0 1.0\nRpa p a 1.0\nRab a b 3.0\nRpb p b 3.0\n");
    let mut prev = "a".to_string();
    for i in 0..30 {
        src.push_str(&format!("Rs{i} {prev} s{i} 1.0\nRt{i} s{i} t{i} 0.5\n"));
        prev = format!("s{i}");
    }
    let mut prev = "b".to_string();
    for i in 0..260 {
        src.push_str(&format!("Ru{i} {prev} u{i} 1.0\n"));
        prev = format!("u{i}");
    }
    src.push_str("I1 s29 0 1m\n");
    let base = Base::of(grid_of(&src));
    let mut edited = base.grid.clone();
    assert_eq!((edited.segments[0].a, edited.segments[0].b), (0, 1));
    edited.segments[0].ohms = 10.0;
    let checked = check_edit(&base, &edited, "reroute");
    assert_eq!(
        checked.stats.full_passes, 0,
        "61 of 323 nodes: refreshed, not re-run"
    );
    assert!(
        checked.stats.settled >= 61,
        "settled {}",
        checked.stats.settled
    );
    let name = |i: usize| base.grid.nodes[i].name.as_str();
    let (old, new) = (
        base.distances.passes().next().expect("one pad"),
        checked.refreshed.passes().next().expect("one pad"),
    );
    for i in 0..base.grid.nodes.len() {
        let below_a = name(i) == "a" || name(i).starts_with('s') || name(i).starts_with('t');
        let want = if below_a { old[i] + 5.0 } else { old[i] };
        assert_eq!(new[i], want, "{}", name(i));
    }
}

#[test]
fn die_wide_scales_match_and_exercise_the_fall_back() {
    let base = Base::of(grid(13, 0.05, 21));
    let top = base.grid.layers().last().copied().expect("layers");
    let scaled = |population: Population, scale: f64| {
        let mut edited = base.grid.clone();
        for i in members(&base.grid, population) {
            edited.segments[i].ohms *= scale;
        }
        edited
    };
    let mut fell_back = 0;
    for (population, scale) in [
        (Population::TopStraps, 2.0),
        (Population::TopStraps, 0.5),
        (Population::Vias, 2.0),
        (Population::Vias, 0.5),
        (Population::M2Straps, 2.0),
        (Population::M2Straps, 0.5),
        (Population::M1Straps, 2.0),
        (Population::Any, 0.5),
    ] {
        let label = format!("die-wide {population:?} (top m{top}) x{scale}");
        let checked = check_edit(&base, &scaled(population, scale), &label);
        fell_back += checked.stats.full_passes;
        if population == Population::M1Straps {
            assert_eq!(checked.stats.full_passes, 0, "{label}: nothing to re-run");
        }
        if (population, scale) == (Population::TopStraps, 2.0) {
            assert_eq!(
                checked.stats.full_passes,
                base.grid.pads.len(),
                "{label}: every pad's paths start on the top layer"
            );
        }
    }
    assert!(fell_back > 0);
}

#[test]
fn chained_batches_stay_exact_and_a_round_trip_restores_the_base() {
    let start = Base::of(grid(5, 0.05, 77));
    let mut rng = Xoshiro256pp::seed_from_u64(0xc4a1);

    // Rolling: each batch refreshes from the arrays the previous
    // refresh produced, so an error anywhere would compound.
    let mut base = Base::of(start.grid.clone());
    for step in 0..10 {
        let population = POPULATIONS[1 + step % 4];
        let factor = FACTORS[step % 3];
        let edited = edit_batch(&base.grid, &mut rng, population, factor, 5);
        let label = format!("rolling step {step}: {population:?} {factor:?}");
        let checked = check_edit(&base, &edited, &label);
        base = Base {
            maps: extractor().resistance_maps(&edited).expect("pads"),
            grid: edited,
            distances: checked.refreshed,
        };
    }

    // ... and all the way back: the first base's bits return.
    let (home, _) = base
        .distances
        .refreshed(&base.grid, &start.grid)
        .expect("same geometry");
    for (pad, (got, want)) in home.passes().zip(start.distances.passes()).enumerate() {
        assert_eq!(bits(got), bits(want), "round trip, pad {pad}");
    }

    // Anchored: every design of a chain refreshes from the *first*
    // base, whose arrays are never written through.
    let anchor_bits: Vec<Vec<u64>> = start.distances.passes().map(bits).collect();
    let mut edited = start.grid.clone();
    for step in 0..8 {
        let population = POPULATIONS[1 + (step + 1) % 4];
        edited = edit_batch(&edited, &mut rng, population, FACTORS[step % 3], 4);
        check_edit(&start, &edited, &format!("anchored step {step}"));
    }
    let after: Vec<Vec<u64>> = start.distances.passes().map(bits).collect();
    assert_eq!(anchor_bits, after, "the base's arrays were written through");
}

#[test]
fn only_an_ohms_edit_of_the_same_geometry_refreshes() {
    let Base {
        grid: base,
        distances,
        maps: base_maps,
    } = Base::of(grid(4, 0.05, 5));
    let ex = extractor();

    // A rewired endpoint, a moved pad, another design altogether:
    // nothing to refresh from, and the maps are the from-scratch ones.
    let mut rewired = base.clone();
    rewired.segments[3].b = rewired.segments[4].b;
    let mut repadded = base.clone();
    repadded.pads[0].node = repadded.pads[1].node + 1;
    let other = grid(4, 0.05, 6);
    for (label, edited) in [
        ("rewired", &rewired),
        ("repadded", &repadded),
        ("other", &other),
    ] {
        assert!(distances.refreshed(&base, edited).is_none(), "{label}");
        let maps = ex
            .resistance_maps_from_base(edited, &base, &base_maps)
            .expect("pads");
        assert_same_maps(&maps, &ex.resistance_maps(edited).expect("pads"), label);
    }

    // An identical grid refreshes to the very same arrays.
    let (same, stats) = distances.refreshed(&base, &base.clone()).expect("same");
    assert_eq!(stats, RefreshStats::default());
    assert!(same.shares_every_pass_with(&distances));
}
