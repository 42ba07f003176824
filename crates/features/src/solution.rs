//! Per-layer rasterization of the (rough) numerical solution.

use irf_pg::raster::divide_by_counts;
use irf_pg::{GridMap, PowerGrid, Rasterizer, TileTable};

/// Rasterizes a per-node IR-drop vector into one map per metal layer
/// (ascending layer order) — the paper's *hierarchical numerical
/// features*: per tile, the mean drop of the layer's nodes there.
/// Pixels with no node on that layer stay zero.
///
/// All layers fill in one pass over the nodes; each layer's tiles still
/// receive that layer's nodes in node order.
///
/// # Panics
///
/// Panics if `drops.len()` is not the node count `tiles` was built
/// from.
#[must_use]
pub fn layer_solution_maps(drops: &[f64], tiles: &TileTable) -> Vec<(u32, GridMap)> {
    let (tile, slot) = (tiles.tiles(), tiles.slots());
    assert_eq!(
        drops.len(),
        tile.len(),
        "solution length must match node count"
    );
    let n = tiles.tile_count();
    let layers = tiles.layers();
    let mut sum = vec![0f32; layers.len() * n];
    let mut count = vec![0f32; layers.len() * n];
    for ((&t, &s), &d) in tile.iter().zip(slot).zip(drops) {
        let idx = s as usize * n + t as usize;
        sum[idx] += d as f32;
        count[idx] += 1.0;
    }
    divide_by_counts(&mut sum, &count);
    let raster = tiles.raster();
    layers
        .iter()
        .zip(sum.chunks_exact(n))
        .map(|(&layer, mean)| {
            let map = GridMap::from_vec(raster.width(), raster.height(), mean.to_vec());
            (layer, map)
        })
        .collect()
}

/// Rasterizes the solution restricted to the bottom (cell) layer —
/// the prediction target of the paper ("focusing on the IR drop of
/// the cell at the bottom layer"). Tiles take the worst (maximum)
/// drop among their bottom-layer nodes.
///
/// # Panics
///
/// Panics if `drops.len() != grid.nodes.len()`.
#[must_use]
pub fn bottom_layer_solution_map(grid: &PowerGrid, drops: &[f64], raster: &Rasterizer) -> GridMap {
    bottom_layer_solution_map_tiled(drops, &TileTable::with_raster(grid, *raster))
}

/// [`bottom_layer_solution_map`] of the design `tiles` was built from.
///
/// # Panics
///
/// Panics if `drops.len()` is not the node count `tiles` was built
/// from.
#[must_use]
pub fn bottom_layer_solution_map_tiled(drops: &[f64], tiles: &TileTable) -> GridMap {
    let (tile, slot) = (tiles.tiles(), tiles.slots());
    assert_eq!(
        drops.len(),
        tile.len(),
        "solution length must match node count"
    );
    let raster = tiles.raster();
    let mut out = GridMap::new(raster.width(), raster.height());
    let data = out.data_mut();
    let mut seen = vec![false; data.len()];
    // The bottom layer is the first of the ascending list: slot 0.
    for ((&t, &s), &d) in tile.iter().zip(slot).zip(drops) {
        if s != 0 {
            continue;
        }
        let (idx, v) = (t as usize, d as f32);
        if !seen[idx] || data[idx] < v {
            data[idx] = v;
            seen[idx] = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_pg::grid_from_spice_reader;

    fn two_layer_grid() -> PowerGrid {
        let src = "\
V1 n1_m4_0_0 0 1.0
R1 n1_m4_0_0 n1_m1_0_0 0.1
R2 n1_m1_0_0 n1_m1_1000_0 0.5
R3 n1_m4_0_0 n1_m4_1000_0 0.2
R4 n1_m4_1000_0 n1_m1_1000_0 0.1
I1 n1_m1_1000_0 0 1m
";
        grid_from_spice_reader(src.as_bytes()).unwrap()
    }

    #[test]
    fn one_map_per_layer() {
        let g = two_layer_grid();
        let drops = vec![0.0, 0.001, 0.002, 0.0005];
        let maps = layer_solution_maps(&drops, &TileTable::new(&g, 4, 4));
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].0, 1);
        assert_eq!(maps[1].0, 4);
        for (_, m) in &maps {
            assert_eq!(m.width(), 4);
        }
    }

    #[test]
    fn layer_maps_separate_values() {
        let g = two_layer_grid();
        // nodes order: m4_0_0(pad), m1_0_0, m1_1000_0, m4_1000_0
        let drops = vec![0.0, 0.010, 0.020, 0.005];
        let maps = layer_solution_maps(&drops, &TileTable::new(&g, 2, 2));
        let m1 = &maps[0].1;
        let m4 = &maps[1].1;
        // Bottom-layer left tile holds node m1_0_0 = 0.010.
        assert!((m1.get(0, 0) - 0.010).abs() < 1e-6);
        // Top-layer left tile holds the pad, drop 0.
        assert_eq!(m4.get(0, 0), 0.0);
        assert!((m4.get(1, 0) - 0.005).abs() < 1e-6);
    }

    #[test]
    fn bottom_map_ignores_upper_layers() {
        let g = two_layer_grid();
        let raster = Rasterizer::new(g.bounding_box(), 1, 1);
        // Give the top layer a larger fake drop; bottom map must not see it.
        let drops = vec![0.9, 0.010, 0.020, 0.9];
        let m = bottom_layer_solution_map(&g, &drops, &raster);
        assert!((m.get(0, 0) - 0.020).abs() < 1e-6);
    }
}
