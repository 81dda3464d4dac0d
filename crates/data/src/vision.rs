//! Synthetic multi-class vision dataset — the ImageNet stand-in.
//!
//! The paper's §IV result (a two-layer binarized classifier on top of real
//! MobileNet V1 features matches the real classifier, while full
//! binarization degrades) is a property of the *classifier/feature split*,
//! not of ImageNet itself. This module provides a 16-class structured image
//! task that exercises the same topology family at laptop scale: classes
//! are combinations of grating orientation, spatial frequency and color
//! tint, degraded by phase/position jitter and additive noise so the task
//! is non-trivial and top-5 accuracy is meaningful.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_tensor::Tensor;

use crate::Dataset;

/// Configuration of the synthetic vision generator.
#[derive(Debug, Clone)]
pub struct VisionConfig {
    /// Number of classes (default 16 = 4 orientations × 2 frequencies × 2
    /// tints; must be ≤ 16 and ≥ 2).
    pub classes: usize,
    /// Samples per class.
    pub per_class: usize,
    /// Square image side length.
    pub size: usize,
    /// Additive noise standard deviation.
    pub noise: f32,
    /// Master seed.
    pub seed: u64,
}

impl VisionConfig {
    /// Default 16-class, 32×32 configuration.
    pub fn reduced() -> Self {
        Self {
            classes: 16,
            per_class: 40,
            size: 32,
            noise: 0.35,
            seed: 0x1336,
        }
    }

    /// Total sample count.
    pub fn total(&self) -> usize {
        self.classes * self.per_class
    }
}

/// Class-defining parameters: orientation, spatial frequency and RGB tint.
fn class_params(class: usize) -> (f32, f32, [f32; 3]) {
    let orient = (class % 4) as f32 * std::f32::consts::PI / 4.0;
    let freq = if (class / 4).is_multiple_of(2) {
        2.0
    } else {
        4.0
    };
    let tint = if class / 8 == 0 {
        [1.0, 0.6, 0.3]
    } else {
        [0.3, 0.6, 1.0]
    };
    (orient, freq, tint)
}

/// Generates the dataset with samples of shape `[3, size, size]`, roughly
/// zero-mean and unit-scale.
///
/// # Panics
///
/// Panics unless `2 ≤ classes ≤ 16`.
pub fn generate(cfg: &VisionConfig) -> Dataset {
    assert!((2..=16).contains(&cfg.classes), "classes must be in 2..=16");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.total();
    let s = cfg.size;
    let mut x = Tensor::zeros([n, 3, s, s]);
    let mut y = Vec::with_capacity(n);

    let mut i = 0usize;
    for class in 0..cfg.classes {
        let (orient, freq, tint) = class_params(class);
        for _ in 0..cfg.per_class {
            // Bounded phase jitter: full-circle phase would decorrelate
            // same-class images entirely (E[cos Δφ] = 0), leaving class
            // structure indistinguishable from noise in pixel space.
            let phase = rng.gen_range(-0.7..0.7);
            let jitter = rng.gen_range(-0.3..0.3);
            let (dx, dy) = ((orient + jitter).cos(), (orient + jitter).sin());
            let contrast = rng.gen_range(0.7..1.3);
            let base = i * 3 * s * s;
            let xs = x.as_mut_slice();
            for py in 0..s {
                for px in 0..s {
                    let u = px as f32 / s as f32 - 0.5;
                    let v = py as f32 / s as f32 - 0.5;
                    let wave = (std::f32::consts::TAU * freq * (u * dx + v * dy) + phase).sin();
                    for (c, &t) in tint.iter().enumerate() {
                        let noise = cfg.noise * (rng.gen::<f32>() - 0.5) * 2.0;
                        xs[base + c * s * s + py * s + px] = contrast * wave * t + noise;
                    }
                }
            }
            y.push(class);
            i += 1;
        }
    }
    Dataset::new(x, y, cfg.classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> VisionConfig {
        VisionConfig {
            classes: 8,
            per_class: 4,
            size: 16,
            noise: 0.1,
            seed: 3,
        }
    }

    #[test]
    fn shapes_and_balance() {
        let ds = generate(&tiny_cfg());
        assert_eq!(ds.len(), 32);
        assert_eq!(ds.sample_shape(), vec![3, 16, 16]);
        assert_eq!(ds.class_counts(), vec![4; 8]);
        assert_eq!(ds.classes(), 8);
    }

    #[test]
    fn determinism() {
        assert_eq!(generate(&tiny_cfg()), generate(&tiny_cfg()));
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean inter-class distance should exceed mean intra-class distance.
        let cfg = VisionConfig {
            noise: 0.05,
            ..tiny_cfg()
        };
        let ds = generate(&cfg);
        let sample = |i: usize| ds.samples().index_axis0(i);
        let dist = |a: &Tensor, b: &Tensor| (a - b).norm_sq();
        // Class means as crude prototypes.
        let mut intra = 0.0f32;
        let mut inter = 0.0f32;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for i in 0..ds.len() {
            for j in (i + 1)..ds.len() {
                let d = dist(&sample(i), &sample(j));
                if ds.labels()[i] == ds.labels()[j] {
                    intra += d;
                    n_intra += 1;
                } else {
                    inter += d;
                    n_inter += 1;
                }
            }
        }
        // Random phase makes same-class images differ, but orientation/
        // frequency/tint structure must still dominate on average.
        assert!(
            inter / n_inter as f32 > intra / n_intra as f32,
            "inter-class distance should exceed intra-class"
        );
    }

    #[test]
    fn tints_differ_between_color_groups() {
        let cfg = VisionConfig {
            classes: 16,
            per_class: 2,
            size: 8,
            noise: 0.0,
            seed: 1,
        };
        let ds = generate(&cfg);
        // Class 0 (warm tint): red channel power > blue; class 8 (cool): opposite.
        let energy = |i: usize, c: usize| {
            let s = ds.samples().index_axis0(i);
            let plane = 64;
            s.as_slice()[c * plane..(c + 1) * plane]
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
        };
        let warm = 0;
        let cool = 16; // first sample of class 8
        assert!(energy(warm, 0) > energy(warm, 2));
        assert!(energy(cool, 2) > energy(cool, 0));
    }

    #[test]
    #[should_panic(expected = "classes must be")]
    fn rejects_too_many_classes() {
        let cfg = VisionConfig {
            classes: 20,
            ..tiny_cfg()
        };
        let _ = generate(&cfg);
    }
}
