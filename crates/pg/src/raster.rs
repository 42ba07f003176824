//! 2-D maps and node-to-pixel rasterization.
//!
//! The paper represents each PG design as a stack of fixed-size images
//! ("each node is planted into the 256 x 256 grid" via `x = x_n / w`,
//! `y = y_n / l`). [`Rasterizer`] implements that mapping for an
//! arbitrary target resolution, and [`GridMap`] is the dense f32 image
//! the features and the ML models operate on. [`TileTable`] is that
//! mapping taken once per design: every feature map of a design splats
//! the same nodes through the same rasterizer, so each node's tile is
//! looked up, not recomputed, per sample.

use crate::grid::{sorted_distinct, PowerGrid};

/// A dense row-major 2-D map of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct GridMap {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GridMap {
    /// Creates a zero-filled `width x height` map.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        GridMap {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates a map filled with `value`.
    #[must_use]
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        GridMap {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    #[must_use]
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "grid map buffer size mismatch");
        GridMap {
            width,
            height,
            data,
        }
    }

    /// Map width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Map height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw buffer, row-major.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw buffer, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the map, returning the buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets the value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = v;
    }

    /// Adds `v` at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn add(&mut self, x: usize, y: usize, v: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] += v;
    }

    /// Maximum value (`0.0` for an all-zero map; `NEG_INFINITY` never
    /// escapes because maps are never empty).
    #[must_use]
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum value.
    #[must_use]
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Mean value.
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Returns a copy scaled so the maximum absolute value is 1
    /// (all-zero maps stay zero).
    #[must_use]
    pub fn normalized(&self) -> GridMap {
        let m = self.data.iter().fold(0.0_f32, |acc, v| acc.max(v.abs()));
        if m == 0.0 {
            return self.clone();
        }
        let data = self.data.iter().map(|v| v / m).collect();
        GridMap {
            width: self.width,
            height: self.height,
            data,
        }
    }

    /// Rotates the map 90 degrees clockwise `quarters` times — the
    /// augmentation the paper applies (90/180/270).
    #[must_use]
    pub fn rotated(&self, quarters: u32) -> GridMap {
        let mut cur = self.clone();
        for _ in 0..(quarters % 4) {
            let (w, h) = (cur.width, cur.height);
            let mut out = GridMap::new(h, w);
            for y in 0..h {
                for x in 0..w {
                    // clockwise: (x, y) -> (h - 1 - y, x)
                    out.set(h - 1 - y, x, cur.get(x, y));
                }
            }
            cur = out;
        }
        cur
    }

    /// Serializes the map as CSV (`y` rows by `x` columns) for
    /// plotting the paper's figures with external tools.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for y in 0..self.height {
            for x in 0..self.width {
                if x > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}", self.get(x, y)));
            }
            out.push('\n');
        }
        out
    }

    /// Writes the map as a binary PGM image (for Fig. 6-style dumps),
    /// linearly scaled to 0..=255.
    #[must_use]
    pub fn to_pgm(&self) -> Vec<u8> {
        let (lo, hi) = (self.min(), self.max());
        let span = if hi > lo { hi - lo } else { 1.0 };
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend(
            self.data
                .iter()
                .map(|v| (((v - lo) / span) * 255.0).round().clamp(0.0, 255.0) as u8),
        );
        out
    }
}

/// `a - b` as an `f64`. Coordinates are outside input (parsed from node
/// names), so the difference of two of them need not fit an `i64`;
/// wherever it does, this is `(a - b) as f64` to the bit.
fn diff_f64(a: i64, b: i64) -> f64 {
    let magnitude = a.abs_diff(b) as f64;
    if a >= b {
        magnitude
    } else {
        -magnitude
    }
}

/// The last step of a per-tile mean: divides each sum by the number of
/// samples that landed on its tile, leaving tiles nothing landed on at
/// zero.
pub fn divide_by_counts(sums: &mut [f32], counts: &[f32]) {
    for (s, c) in sums.iter_mut().zip(counts) {
        if *c > 0.0 {
            *s /= c;
        }
    }
}

/// Maps database-unit node coordinates onto a fixed pixel grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rasterizer {
    x0: i64,
    y0: i64,
    /// Tile size in database units per pixel along x.
    tile_w: f64,
    /// Tile size along y.
    tile_h: f64,
    width: usize,
    height: usize,
}

impl Rasterizer {
    /// Builds a rasterizer covering `bbox = (x0, y0, x1, y1)` with a
    /// `width x height` pixel grid.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    #[must_use]
    pub fn new(bbox: (i64, i64, i64, i64), width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "raster must have positive size");
        let (x0, y0, x1, y1) = bbox;
        let span_x = diff_f64(x1, x0).max(1.0);
        let span_y = diff_f64(y1, y0).max(1.0);
        Rasterizer {
            x0,
            y0,
            tile_w: span_x / width as f64,
            tile_h: span_y / height as f64,
            width,
            height,
        }
    }

    /// Output width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Output height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel for a node coordinate (clamped to the grid).
    #[must_use]
    pub fn pixel(&self, x: i64, y: i64) -> (usize, usize) {
        // The cast truncates toward zero where `floor` rounded down:
        // they part only below zero, and all of that clamps to 0.
        let px = (diff_f64(x, self.x0) / self.tile_w) as isize;
        let py = (diff_f64(y, self.y0) / self.tile_h) as isize;
        (
            px.clamp(0, self.width as isize - 1) as usize,
            py.clamp(0, self.height as isize - 1) as usize,
        )
    }

    /// Splats `(x, y, value)` samples, averaging values that land on
    /// the same pixel (the paper's per-tile mean).
    #[must_use]
    pub fn splat_mean(&self, samples: impl IntoIterator<Item = (i64, i64, f64)>) -> GridMap {
        let mut sum = GridMap::new(self.width, self.height);
        let mut count = GridMap::new(self.width, self.height);
        for (x, y, v) in samples {
            let (px, py) = self.pixel(x, y);
            sum.add(px, py, v as f32);
            count.add(px, py, 1.0);
        }
        divide_by_counts(sum.data_mut(), count.data());
        sum
    }

    /// Splats samples, summing values per pixel (used for current
    /// maps, where tile totals are physically meaningful).
    #[must_use]
    pub fn splat_sum(&self, samples: impl IntoIterator<Item = (i64, i64, f64)>) -> GridMap {
        let mut sum = GridMap::new(self.width, self.height);
        for (x, y, v) in samples {
            let (px, py) = self.pixel(x, y);
            sum.add(px, py, v as f32);
        }
        sum
    }

    /// Splats samples keeping the per-pixel maximum (used for the
    /// golden IR-drop label, where the worst drop in a tile matters).
    #[must_use]
    pub fn splat_max(&self, samples: impl IntoIterator<Item = (i64, i64, f64)>) -> GridMap {
        let mut out = GridMap::new(self.width, self.height);
        let mut seen = vec![false; self.width * self.height];
        for (x, y, v) in samples {
            let (px, py) = self.pixel(x, y);
            let idx = py * self.width + px;
            if !seen[idx] || out.data()[idx] < v as f32 {
                out.data_mut()[idx] = v as f32;
                seen[idx] = true;
            }
        }
        out
    }
}

/// Where every node of one design lands under one [`Rasterizer`]: its
/// flat tile index (`y * width + x` of [`Rasterizer::pixel`], so the
/// clamp is the rasterizer's) and the dense slot of its metal layer in
/// the design's ascending layer list. Eight bytes a node; coordinates
/// are not copied.
///
/// Every feature map of a design is a splat of its nodes, its segment
/// endpoints or its loads through the same rasterizer. With the table
/// built once, each of those samples is an index and an add.
#[derive(Debug, Clone, PartialEq)]
pub struct TileTable {
    raster: Rasterizer,
    layers: Vec<u32>,
    tiles: Vec<u32>,
    slots: Vec<u32>,
}

impl TileTable {
    /// The table of `grid` under the `width x height` rasterizer over
    /// its bounding box.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero, or if the raster has more
    /// than `u32::MAX` tiles.
    #[must_use]
    pub fn new(grid: &PowerGrid, width: usize, height: usize) -> Self {
        Self::with_raster(grid, Rasterizer::new(grid.bounding_box(), width, height))
    }

    /// The table of `grid` under `raster`, which need not cover the
    /// grid: a node outside it clamps to an edge tile, as
    /// [`Rasterizer::pixel`] has it.
    ///
    /// # Panics
    ///
    /// Panics if the raster has more than `u32::MAX` tiles.
    #[must_use]
    pub fn with_raster(grid: &PowerGrid, raster: Rasterizer) -> Self {
        let width = raster.width();
        assert!(
            width
                .checked_mul(raster.height())
                .is_some_and(|tiles| u32::try_from(tiles).is_ok()),
            "a tile index must fit 32 bits"
        );
        // One pass over the node table: a node's slot starts out as its
        // layer and becomes the layer's rank once every layer is known.
        let mut tiles = Vec::with_capacity(grid.nodes.len());
        let mut slots = Vec::with_capacity(grid.nodes.len());
        for node in grid.nodes.iter() {
            let (px, py) = raster.pixel(node.x, node.y);
            tiles.push((py * width + px) as u32);
            slots.push(node.layer);
        }
        let layers = sorted_distinct(slots.iter().copied());
        for slot in &mut slots {
            // The layer count is outside input, and up to 2^32 distinct
            // `u32` layers rank as 0..=u32::MAX: a slot never truncates.
            let rank = layers.binary_search(slot).expect("every layer was kept");
            *slot = rank as u32;
        }
        irf_trace::registry().counter_inc("irf_tile_tables_built_total", &[("table", "tile")]);
        TileTable {
            raster,
            layers,
            tiles,
            slots,
        }
    }

    /// The rasterizer the tiles were taken from.
    #[must_use]
    pub fn raster(&self) -> &Rasterizer {
        &self.raster
    }

    /// The metal layers of the design, ascending; a node's
    /// [slot](TileTable::slots) indexes this list.
    #[must_use]
    pub fn layers(&self) -> &[u32] {
        &self.layers
    }

    /// Per node, the flat index `y * width + x` of its tile.
    #[must_use]
    pub fn tiles(&self) -> &[u32] {
        &self.tiles
    }

    /// Per node, the index of its layer in [`TileTable::layers`].
    #[must_use]
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Tiles in the raster (`width * height`).
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.raster.width() * self.raster.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut m = GridMap::new(4, 3);
        m.set(3, 2, 7.5);
        assert_eq!(m.get(3, 2), 7.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn stats_are_correct() {
        let m = GridMap::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.mean(), 2.5);
    }

    #[test]
    fn normalized_caps_at_one() {
        let m = GridMap::from_vec(1, 3, vec![-4.0, 2.0, 1.0]).normalized();
        assert_eq!(m.data(), &[-1.0, 0.5, 0.25]);
        // all-zero stays zero
        let z = GridMap::new(2, 2).normalized();
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rotation_quarter_turns() {
        let m = GridMap::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        // clockwise 90: (0,0)=1 goes to (1,0)
        let r = m.rotated(1);
        assert_eq!(r.get(1, 0), 1.0);
        assert_eq!(r.get(0, 0), 3.0);
        // four quarter turns restore the original
        assert_eq!(m.rotated(4), m);
        // 180 = two 90s
        assert_eq!(m.rotated(2), m.rotated(1).rotated(1));
    }

    #[test]
    fn rasterizer_corners_map_to_corner_pixels() {
        let r = Rasterizer::new((0, 0, 1000, 1000), 10, 10);
        assert_eq!(r.pixel(0, 0), (0, 0));
        assert_eq!(r.pixel(999, 999), (9, 9));
        assert_eq!(r.pixel(1000, 1000), (9, 9)); // clamped
        assert_eq!(r.pixel(-5, -5), (0, 0)); // clamped
    }

    #[test]
    fn splat_mean_averages() {
        let r = Rasterizer::new((0, 0, 100, 100), 2, 2);
        let m = r.splat_mean([(10, 10, 1.0), (20, 20, 3.0), (90, 90, 5.0)]);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn splat_sum_totals() {
        let r = Rasterizer::new((0, 0, 100, 100), 2, 2);
        let m = r.splat_sum([(10, 10, 1.0), (20, 20, 3.0)]);
        assert_eq!(m.get(0, 0), 4.0);
    }

    #[test]
    fn splat_max_keeps_worst() {
        let r = Rasterizer::new((0, 0, 100, 100), 2, 2);
        let m = r.splat_max([(10, 10, 1.0), (20, 20, 3.0), (15, 15, 2.0)]);
        assert_eq!(m.get(0, 0), 3.0);
    }

    #[test]
    fn csv_rows_match_layout() {
        let m = GridMap::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.to_csv(), "1,2\n3,4\n");
    }

    #[test]
    fn pgm_has_header_and_payload() {
        let m = GridMap::from_vec(2, 2, vec![0.0, 0.5, 0.75, 1.0]);
        let pgm = m.to_pgm();
        assert!(pgm.starts_with(b"P5\n2 2\n255\n"));
        assert_eq!(pgm.len(), "P5\n2 2\n255\n".len() + 4);
        assert_eq!(*pgm.last().unwrap(), 255);
    }

    #[test]
    fn a_box_wider_than_i64_neither_overflows_nor_wraps() {
        // Coordinates come from node names: the span of this box and
        // the offset of its far nodes do not fit an `i64`.
        let (lo, hi) = (i64::MIN + 10, i64::MAX - 10);
        let r = Rasterizer::new((lo, lo, hi, hi), 64, 64);
        assert_eq!(r.pixel(lo, lo), (0, 0));
        assert_eq!(r.pixel(0, 0), (32, 32));
        assert_eq!(r.pixel(hi, hi), (63, 63));
        assert_eq!(r.pixel(i64::MIN, i64::MAX), (0, 63));
    }

    #[test]
    fn the_truncating_cast_lands_where_floor_did() {
        // `pixel` was `floor` then clamp; the cast differs from `floor`
        // only for negative fractions, which clamp to 0 either way.
        let r = Rasterizer::new((-700, 40, 2300, 1040), 7, 3);
        for x in (-2000..4000).step_by(13) {
            for y in [-500, 39, 40, 41, 373, 374, 1039, 1040, 9000] {
                let px = (((x + 700) as f64) / r.tile_w).floor() as isize;
                let py = (((y - 40) as f64) / r.tile_h).floor() as isize;
                let want = (px.clamp(0, 6) as usize, py.clamp(0, 2) as usize);
                assert_eq!(r.pixel(x, y), want, "({x}, {y})");
            }
        }
    }

    #[test]
    fn differences_that_fit_an_i64_keep_their_bits() {
        for (a, b) in [
            (0i64, 0i64),
            (5, 7),
            (-3, 1 << 53),
            ((1 << 53) + 1, -1),
            (i64::MAX, 1),
            (-1, i64::MAX),
            (i64::MIN + 1, 0),
            (123_456_789_012_345_678, -9_876_543_210_987_654),
        ] {
            let want = ((a - b) as f64).to_bits();
            assert_eq!(diff_f64(a, b).to_bits(), want, "{a} - {b}");
        }
    }

    #[test]
    fn the_tile_table_is_the_rasterizers_pixel_per_node() {
        let nodes: Vec<crate::PgNode> = [(4, 0, 0), (1, 999, 10), (2, 1000, 1000), (1, -5, 400)]
            .iter()
            .map(|&(layer, x, y)| crate::PgNode {
                name: format!("n1_m{layer}_{x}_{y}"),
                layer,
                x,
                y,
                is_pad: false,
            })
            .collect();
        let grid = PowerGrid {
            nodes: nodes.into(),
            ..PowerGrid::default()
        };
        let raster = Rasterizer::new((0, 0, 1000, 1000), 10, 5);
        let table = TileTable::with_raster(&grid, raster);
        assert_eq!(table.layers(), &[1, 2, 4]);
        assert_eq!(table.slots(), &[2, 0, 1, 0]);
        // (0,0) -> 0; (9,0) -> 9; (9,4) -> 49; x = -5 clamps to (0,2) -> 20.
        assert_eq!(table.tiles(), &[0, 9, 49, 20]);
        assert_eq!(table.tile_count(), 50);
        assert_eq!(TileTable::new(&grid, 10, 5).raster().pixel(-5, 0), (0, 0));
    }

    #[test]
    fn degenerate_bbox_is_handled() {
        let r = Rasterizer::new((5, 5, 5, 5), 4, 4);
        assert_eq!(r.pixel(5, 5), (0, 0));
    }
}
