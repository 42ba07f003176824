//! Feature normalization policies.

use irf_pg::GridMap;

/// How a feature map is scaled before entering the model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Normalization {
    /// Divide by the maximum absolute value (maps land in `[-1, 1]`).
    #[default]
    MaxAbs,
    /// Multiply by a fixed constant. Unlike per-map normalization this
    /// preserves amplitude information *across* designs — essential
    /// for the numerical-solution channels, whose absolute values are
    /// the fusion's head start.
    Fixed(f32),
}

/// Applies the chosen normalization, returning a new map. An all-zero
/// map is returned unchanged rather than producing NaNs.
#[must_use]
pub fn normalize(map: &GridMap, policy: Normalization) -> GridMap {
    match policy {
        Normalization::MaxAbs => map.normalized(),
        Normalization::Fixed(scale) => {
            let data = map.data().iter().map(|v| v * scale).collect();
            GridMap::from_vec(map.width(), map.height(), data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_caps_at_one() {
        let m = GridMap::from_vec(1, 3, vec![2.0, -4.0, 1.0]);
        let n = normalize(&m, Normalization::MaxAbs);
        assert_eq!(n.data(), &[0.5, -1.0, 0.25]);
    }

    #[test]
    fn degenerate_maps_pass_through() {
        let zero = GridMap::new(2, 2);
        assert_eq!(normalize(&zero, Normalization::MaxAbs), zero);
    }

    #[test]
    fn fixed_scale_preserves_ratios_across_maps() {
        let a = GridMap::from_vec(1, 2, vec![0.001, 0.002]);
        let b = GridMap::from_vec(1, 2, vec![0.01, 0.02]);
        let na = normalize(&a, Normalization::Fixed(100.0));
        let nb = normalize(&b, Normalization::Fixed(100.0));
        // Unlike MaxAbs, the 10x amplitude difference survives.
        assert!((nb.max() / na.max() - 10.0).abs() < 1e-5);
        assert!((na.data()[0] - 0.1).abs() < 1e-7);
    }
}
