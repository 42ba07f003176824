//! Write a grid back out as SPICE text.

use irf_pg::PowerGrid;
use irf_spice::value::format_spice_number;
use std::fmt::Write as _;

/// The grid as SPICE text (a generated grid keeps no netlist text): a
/// header, one `R` card per segment, one `I` card per load and one `V`
/// card per pad, in grid order, with values printed by
/// [`format_spice_number`] so the file reads back to the same grid bit
/// for bit.
#[must_use]
pub fn to_netlist(grid: &PowerGrid) -> String {
    let name = |node: usize| grid.nodes[node].name.as_str();
    let mut out = String::from("* power-grid netlist written by irf-spice\n");
    for (i, s) in grid.segments.iter().enumerate() {
        let ohms = format_spice_number(s.ohms);
        let _ = writeln!(out, "R{i} {} {} {ohms}", name(s.a), name(s.b));
    }
    for (i, l) in grid.loads.iter().enumerate() {
        let amps = format_spice_number(l.amps);
        let _ = writeln!(out, "I{i} {} 0 {amps}", name(l.node));
    }
    for (i, p) in grid.pads.iter().enumerate() {
        let volts = format_spice_number(p.volts);
        let _ = writeln!(out, "V{i} {} 0 {volts}", name(p.node));
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_netlist_writes_header_cards_in_grid_order_and_end() {
        let src = "V1 p 0 1.1\nR1 p a 0.5\nR2 a b 2e-3\nI1 0 b 1m\nI2 a 0 3e-6\n";
        let grid = irf_pg::grid_from_spice_reader(src.as_bytes()).expect("valid");
        let text = to_netlist(&grid);
        assert_eq!(
            text,
            "* power-grid netlist written by irf-spice\n\
             R0 p a 0.5\nR1 a b 0.002\nI0 b 0 -0.001\nI1 a 0 3e-6\nV0 p 0 1.1\n.end\n"
        );
        let again = irf_pg::grid_from_spice_reader(text.as_bytes()).expect("reads back");
        assert_eq!(again, grid);
    }
}
