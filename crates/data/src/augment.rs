//! Rotation augmentation and class oversampling (paper Section III-E
//! and IV-A).

use crate::dataset::DesignClass;

/// One training sample reference after augmentation planning: which
/// design, rotated by how many quarter turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugmentedSample {
    /// Index into the dataset's design list.
    pub design: usize,
    /// Clockwise quarter turns applied to every feature map and the
    /// label (0..=3).
    pub quarters: u32,
}

/// The paper's class oversampling: fake designs are doubled and real
/// ones quintupled.
fn copies(class: DesignClass) -> usize {
    match class {
        DesignClass::Fake => 2,
        DesignClass::Real => 5,
    }
}

/// Expands design indices into the paper's augmentation plan: every
/// design's oversampled copies (fake x2, real x5), each rotated by 0°,
/// 90°, 180° and 270°.
#[must_use]
pub fn augmentation_plan(designs: &[(usize, DesignClass)]) -> Vec<AugmentedSample> {
    let mut plan = Vec::new();
    for &(design, class) in designs {
        for _ in 0..copies(class) {
            plan.extend((0..4).map(|quarters| AugmentedSample { design, quarters }));
        }
    }
    plan
}

/// Plan without rotations (the "w/o Data Aug." ablation), keeping the
/// oversampling so class balance stays comparable.
#[must_use]
pub fn no_rotation_plan(designs: &[(usize, DesignClass)]) -> Vec<AugmentedSample> {
    let mut plan = Vec::new();
    for &(design, class) in designs {
        let copy = AugmentedSample {
            design,
            quarters: 0,
        };
        plan.extend(std::iter::repeat_n(copy, copies(class)));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourfold_rotation_of_every_copy() {
        let plan = augmentation_plan(&[(0, DesignClass::Fake)]);
        let quarters: Vec<u32> = plan.iter().map(|s| s.quarters).collect();
        assert_eq!(quarters, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn oversampling_weights_classes() {
        let plan = augmentation_plan(&[(0, DesignClass::Fake), (1, DesignClass::Real)]);
        let fake = plan.iter().filter(|s| s.design == 0).count();
        let real = plan.iter().filter(|s| s.design == 1).count();
        assert_eq!(fake, 2 * 4);
        assert_eq!(real, 5 * 4);
    }

    #[test]
    fn no_rotation_plan_keeps_copies_only() {
        let plan = no_rotation_plan(&[(3, DesignClass::Real)]);
        assert_eq!(plan.len(), 5);
        assert!(plan.iter().all(|s| s.quarters == 0));
    }
}
