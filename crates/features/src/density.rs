//! PDN density map.

use irf_pg::{GridMap, TileTable};

/// The PDN density map: how much power-grid structure each tile
/// contains. The paper derives it "from the average PDN pitch within
/// each grid"; density is the natural reciprocal formulation — we
/// count grid nodes per tile (every stripe crossing and via landing
/// contributes a node), normalized by the densest tile so the map is
/// in `[0, 1]`.
///
/// The map is that of the design `tiles` was built from.
#[must_use]
pub fn pdn_density_map_tiled(tiles: &TileTable) -> GridMap {
    let raster = tiles.raster();
    let mut counts = GridMap::new(raster.width(), raster.height());
    let data = counts.data_mut();
    for &tile in tiles.tiles() {
        data[tile as usize] += 1.0;
    }
    counts.normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_pg::{grid_from_spice_reader, PowerGrid, Rasterizer};

    fn grid() -> PowerGrid {
        let src = "\
V1 n1_m4_0_0 0 1.0
R1 n1_m4_0_0 n1_m1_0_0 0.1
R2 n1_m1_0_0 n1_m1_100_0 0.5
R3 n1_m1_100_0 n1_m1_200_0 0.5
R4 n1_m1_200_0 n1_m1_1000_0 0.5
I1 n1_m1_1000_0 0 1m
";
        grid_from_spice_reader(src.as_bytes()).unwrap()
    }

    #[test]
    fn density_is_normalized() {
        let g = grid();
        let raster = Rasterizer::new(g.bounding_box(), 4, 1);
        let m = pdn_density_map_tiled(&TileTable::with_raster(&g, raster));
        assert!((m.max() - 1.0).abs() < 1e-6);
        assert!(m.min() >= 0.0);
    }

    #[test]
    fn denser_tiles_score_higher() {
        let g = grid();
        let raster = Rasterizer::new(g.bounding_box(), 4, 1);
        let m = pdn_density_map_tiled(&TileTable::with_raster(&g, raster));
        // Tile 0 holds 4 nodes (0, 100, 200 + the pad node), tile 3 one.
        assert!(m.get(0, 0) > m.get(3, 0));
    }
}
