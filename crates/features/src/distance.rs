//! Effective distance to the voltage sources.

use irf_pg::{GridMap, PowerGrid, Rasterizer};

/// The paper's effective-distance map: for each pixel, the
/// "reciprocal of the sum of the reciprocals of Euclidean distances"
/// to every pad — a harmonic combination that is small near any pad
/// and grows in pad deserts.
///
/// Distances are measured in pixels; a pixel containing a pad gets
/// distance `0`.
///
/// # Panics
///
/// Panics if the grid has no pads.
#[must_use]
pub fn effective_distance_map(grid: &PowerGrid, raster: &Rasterizer) -> GridMap {
    assert!(!grid.pads.is_empty(), "effective distance needs pads");
    let pad_pixels: Vec<(usize, usize)> = grid
        .pads
        .iter()
        .map(|p| {
            let n = &grid.nodes[p.node];
            raster.pixel(n.x, n.y)
        })
        .collect();
    let (w, h) = (raster.width(), raster.height());
    let mut out = GridMap::new(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut inv_sum = 0.0f64;
            let mut on_pad = false;
            for &(px, py) in &pad_pixels {
                let dx = px as f64 - x as f64;
                let dy = py as f64 - y as f64;
                let d = (dx * dx + dy * dy).sqrt();
                if d == 0.0 {
                    on_pad = true;
                    break;
                }
                inv_sum += 1.0 / d;
            }
            let v = if on_pad { 0.0 } else { 1.0 / inv_sum };
            out.set(x, y, v as f32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_pg::grid_from_spice_reader;

    fn grid_with_corner_pad() -> PowerGrid {
        let src = "\
V1 n1_m4_0_0 0 1.0
R1 n1_m4_0_0 n1_m1_1000_1000 0.1
I1 n1_m1_1000_1000 0 1m
";
        grid_from_spice_reader(src.as_bytes()).unwrap()
    }

    #[test]
    fn pad_pixel_has_zero_distance() {
        let g = grid_with_corner_pad();
        let raster = Rasterizer::new(g.bounding_box(), 8, 8);
        let m = effective_distance_map(&g, &raster);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn distance_grows_away_from_pad() {
        let g = grid_with_corner_pad();
        let raster = Rasterizer::new(g.bounding_box(), 8, 8);
        let m = effective_distance_map(&g, &raster);
        assert!(m.get(7, 7) > m.get(1, 1));
        assert!(m.get(1, 1) > 0.0);
    }

    #[test]
    fn two_pads_reduce_effective_distance() {
        let one = grid_with_corner_pad();
        let raster = Rasterizer::new(one.bounding_box(), 8, 8);
        let m1 = effective_distance_map(&one, &raster);
        let src = "\
V1 n1_m4_0_0 0 1.0
V2 n1_m4_1000_1000 0 1.0
R1 n1_m4_0_0 n1_m1_1000_1000 0.1
R2 n1_m4_1000_1000 n1_m1_1000_1000 0.1
I1 n1_m1_1000_1000 0 1m
";
        let two = grid_from_spice_reader(src.as_bytes()).unwrap();
        let m2 = effective_distance_map(&two, &Rasterizer::new(two.bounding_box(), 8, 8));
        // With a second pad every non-pad pixel is effectively closer.
        assert!(m2.get(4, 4) < m1.get(4, 4));
    }

    #[test]
    fn harmonic_combination_value() {
        // One pad at pixel (0,0): value at (3,4) is exactly 5.
        let g = grid_with_corner_pad();
        let raster = Rasterizer::new((0, 0, 8, 8), 9, 9);
        let m = effective_distance_map(&g, &raster);
        assert!((m.get(3, 4) - 5.0).abs() < 1e-6);
    }
}
