//! Resistance map: local resistive mass per tile.

use irf_pg::{GridMap, PowerGrid, TileTable};

/// The paper's resistance map "distributes the resistance of each
/// resistor across overlapping grids": half of every segment's
/// resistance is credited to the tile of each endpoint.
///
/// # Panics
///
/// Panics if `tiles` was not built from `grid`'s nodes.
#[must_use]
pub fn resistance_map(grid: &PowerGrid, tiles: &TileTable) -> GridMap {
    let tile = tiles.tiles();
    assert_eq!(tile.len(), grid.nodes.len(), "tile table of another grid");
    let raster = tiles.raster();
    let mut sum = GridMap::new(raster.width(), raster.height());
    let data = sum.data_mut();
    for s in &grid.segments {
        let half = (s.ohms / 2.0) as f32;
        data[tile[s.a] as usize] += half;
        data[tile[s.b] as usize] += half;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_pg::grid_from_spice_reader;

    fn grid() -> PowerGrid {
        let src = "\
V1 n1_m4_0_0 0 1.0
R1 n1_m4_0_0 n1_m1_0_0 0.4
R2 n1_m1_0_0 n1_m1_1000_0 1.0
I1 n1_m1_1000_0 0 1m
";
        grid_from_spice_reader(src.as_bytes()).unwrap()
    }

    #[test]
    fn total_resistive_mass_is_conserved() {
        let g = grid();
        let m = resistance_map(&g, &TileTable::new(&g, 2, 1));
        let total: f32 = m.data().iter().sum();
        assert!((f64::from(total) - 1.4).abs() < 1e-6);
    }

    #[test]
    fn endpoints_share_segments() {
        let g = grid();
        let m = resistance_map(&g, &TileTable::new(&g, 2, 1));
        // Left tile: R1 (0.4 whole, both ends at x=0) + half of R2.
        assert!((f64::from(m.get(0, 0)) - 0.9).abs() < 1e-6);
        assert!((f64::from(m.get(1, 0)) - 0.5).abs() < 1e-6);
    }
}
