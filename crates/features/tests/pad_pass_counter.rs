//! `irf_sp_pad_passes_total` counts the full shortest-path passes actually run.
//! One test in a process of its own: the counter is process-wide.

use irf_data::synth::{synthesize, SynthSpec};
use irf_features::shortest_path::{shortest_path_resistance_per_node, PadDistances};
use irf_pg::PowerGrid;

fn grid(pads: usize) -> PowerGrid {
    let spec = SynthSpec {
        m1_stripes: 12,
        m2_stripes: 12,
        m4_stripes: 4,
        pads,
        ..SynthSpec::default()
    };
    synthesize(&spec)
}

#[test]
fn the_pass_counter_counts_passes_run_not_pads() {
    let passes = || {
        irf_trace::registry()
            .get("irf_sp_pad_passes_total", &[])
            .unwrap_or(0.0)
    };
    // Five pads, five passes.
    let five = grid(5);
    let before = passes();
    shortest_path_resistance_per_node(&five).expect("pads");
    assert_eq!(passes() - before, 5.0);

    // Thirty-three pads take the multi-source branch: one pass.
    let many = grid(33);
    assert_eq!(many.pads.len(), 33);
    let before = passes();
    shortest_path_resistance_per_node(&many).expect("pads");
    assert_eq!(passes() - before, 1.0);

    // Materialising a base's arrays runs its passes; a refresh that no
    // pad falls back from runs none.
    let before = passes();
    let distances = PadDistances::compute(&five).expect("pads");
    assert_eq!(passes() - before, 5.0);
    let mut edited = five.clone();
    let m1_strap = (0..five.segments.len())
        .find(|&i| {
            let s = &five.segments[i];
            five.nodes[s.a].layer == 1 && five.nodes[s.b].layer == 1
        })
        .expect("m1 strap");
    edited.segments[m1_strap].ohms *= 0.5;
    let before = passes();
    let (_, stats) = distances.refreshed(&five, &edited).expect("refreshes");
    assert_eq!(stats.full_passes, 0);
    assert_eq!(passes() - before, 0.0);
}
