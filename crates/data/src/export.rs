//! Export a generated corpus to disk in the contest's layout.
//!
//! Each design gets a directory containing its SPICE netlist plus the
//! image-based CSVs (`current_map.csv`, `eff_dist_map.csv`,
//! `pdn_density.csv`, `ir_drop_map.csv`) — the exact shape of the
//! ICCAD-2023 release, so external tools (or the original contest
//! scoring scripts) can consume the synthetic corpus directly.

use crate::dataset::{Dataset, Design};
use irf_features::solution::bottom_layer_solution_map;
use irf_features::{current, density, distance};
use irf_pg::{PowerGrid, Rasterizer};
use irf_spice::value::format_spice_number;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Writes one design's bundle into `dir` (created if absent) with the
/// given map resolution.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_design(design: &Design, dir: &Path, resolution: usize) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let grid = &design.grid;
    fs::write(dir.join("netlist.sp"), to_netlist(grid))?;
    let raster = Rasterizer::new(grid.bounding_box(), resolution, resolution);
    fs::write(
        dir.join("current_map.csv"),
        current::total_current_map(grid, &raster).to_csv(),
    )?;
    fs::write(
        dir.join("eff_dist_map.csv"),
        distance::effective_distance_map(grid, &raster).to_csv(),
    )?;
    fs::write(
        dir.join("pdn_density.csv"),
        density::pdn_density_map(grid, &raster).to_csv(),
    )?;
    fs::write(
        dir.join("ir_drop_map.csv"),
        bottom_layer_solution_map(grid, &design.golden, &raster).to_csv(),
    )?;
    Ok(())
}

/// Exports a whole dataset: one subdirectory per design (named after
/// the design) plus a `MANIFEST.csv` listing name, class and split.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn export_dataset(dataset: &Dataset, root: &Path, resolution: usize) -> io::Result<()> {
    fs::create_dir_all(root)?;
    let mut manifest = String::from("name,class,split\n");
    for (i, design) in dataset.designs.iter().enumerate() {
        export_design(design, &root.join(&design.name), resolution)?;
        let split = if dataset.test_indices.contains(&i) {
            "test"
        } else {
            "train"
        };
        manifest.push_str(&format!("{},{:?},{split}\n", design.name, design.class));
    }
    fs::write(root.join("MANIFEST.csv"), manifest)
}

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
    use crate::csv::parse_map_csv;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("irf_export_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn export_design_writes_all_files() {
        let design = Design::fake(4);
        let dir = scratch_dir("one");
        export_design(&design, &dir, 16).expect("writes");
        for f in [
            "netlist.sp",
            "current_map.csv",
            "eff_dist_map.csv",
            "pdn_density.csv",
            "ir_drop_map.csv",
        ] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        // The exported netlist reads back to the same grid.
        let grid = irf_pg::grid_from_spice_path(dir.join("netlist.sp")).expect("valid grid");
        assert_eq!(grid, design.grid);
        // The golden CSV parses back to a 16x16 map with the same peak.
        let m = parse_map_csv(&fs::read_to_string(dir.join("ir_drop_map.csv")).unwrap())
            .expect("valid csv");
        assert_eq!((m.width(), m.height()), (16, 16));
        assert!(m.max() > 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_dataset_writes_manifest() {
        let ds = Dataset::generate(1, 1, 1, 5);
        let dir = scratch_dir("set");
        export_dataset(&ds, &dir, 8).expect("writes");
        let manifest = fs::read_to_string(dir.join("MANIFEST.csv")).expect("manifest");
        assert!(manifest.lines().count() == 3); // header + 2 designs
        assert!(manifest.contains("train"));
        assert!(manifest.contains("test"));
        let _ = fs::remove_dir_all(&dir);
    }

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
