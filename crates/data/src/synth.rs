//! Synthetic vision-like dataset generators and per-paper-dataset presets.
//!
//! Each class has a fixed Gaussian prototype; a sample is the prototype
//! plus isotropic noise, with an optional label-flip rate that caps the
//! attainable accuracy (standing in for the irreducible error of the real
//! benchmark). Image-mode presets generate spatially-smooth prototypes
//! (low-resolution patterns upsampled 2×) so convolutional models have
//! genuine spatial structure to exploit.
//!
//! The class-separation parameter is specified in noise-σ units and is
//! converted to a prototype scale analytically, which keeps the difficulty
//! comparable across feature dimensionalities.

use crate::dataset::Dataset;
use fedwcm_stats::dist::Normal;
use fedwcm_stats::rng::{stream, Rng, Xoshiro256pp};
use fedwcm_tensor::Tensor;

/// Feature layout of a synthetic dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureShape {
    /// Flat feature vector of the given dimensionality (MLP presets).
    Flat(usize),
    /// Image `[channels, height, width]` (CNN presets).
    Image(usize, usize, usize),
}

impl FeatureShape {
    /// Total feature count.
    pub fn dim(&self) -> usize {
        match *self {
            FeatureShape::Flat(d) => d,
            FeatureShape::Image(c, h, w) => c * h * w,
        }
    }
}

/// Full specification of a synthetic dataset family.
#[derive(Clone, Debug)]
pub struct SyntheticSpec {
    /// Human-readable name (matches the paper dataset it stands in for).
    pub name: &'static str,
    /// Number of classes.
    pub classes: usize,
    /// Feature layout.
    pub shape: FeatureShape,
    /// Class separation in units of noise σ (larger = easier).
    pub separation: f64,
    /// Per-sample isotropic noise std.
    pub noise_std: f64,
    /// Probability that a training label is flipped to a random class.
    pub label_flip: f64,
    /// Default training-set size used by experiment presets.
    pub default_train_total: usize,
    /// Balanced test samples per class.
    pub test_per_class: usize,
}

/// Which paper dataset a preset substitutes for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// Fashion-MNIST stand-in (flat features, MLP model).
    FashionMnist,
    /// SVHN stand-in (easier image preset).
    Svhn,
    /// CIFAR-10 stand-in (primary evaluation dataset).
    Cifar10,
    /// CIFAR-100 stand-in (100 classes, harder).
    Cifar100,
    /// ImageNet stand-in (100 classes, hardest).
    ImageNetLite,
}

impl DatasetPreset {
    /// All presets in the paper's table order.
    pub fn all() -> [DatasetPreset; 5] {
        [
            DatasetPreset::FashionMnist,
            DatasetPreset::Svhn,
            DatasetPreset::Cifar10,
            DatasetPreset::Cifar100,
            DatasetPreset::ImageNetLite,
        ]
    }

    /// The synthetic specification for this preset.
    pub fn spec(self) -> SyntheticSpec {
        match self {
            DatasetPreset::FashionMnist => SyntheticSpec {
                name: "fashion-mnist",
                classes: 10,
                shape: FeatureShape::Flat(64),
                separation: 2.6,
                noise_std: 1.0,
                label_flip: 0.04,
                default_train_total: 4_000,
                test_per_class: 60,
            },
            DatasetPreset::Svhn => SyntheticSpec {
                name: "svhn",
                classes: 10,
                shape: FeatureShape::Image(3, 8, 8),
                separation: 3.0,
                noise_std: 1.0,
                label_flip: 0.02,
                default_train_total: 4_000,
                test_per_class: 60,
            },
            DatasetPreset::Cifar10 => SyntheticSpec {
                name: "cifar-10",
                classes: 10,
                shape: FeatureShape::Image(3, 8, 8),
                separation: 2.2,
                noise_std: 1.0,
                label_flip: 0.08,
                default_train_total: 4_000,
                test_per_class: 60,
            },
            DatasetPreset::Cifar100 => SyntheticSpec {
                name: "cifar-100",
                classes: 100,
                shape: FeatureShape::Image(3, 8, 8),
                separation: 2.0,
                noise_std: 1.0,
                label_flip: 0.15,
                default_train_total: 8_000,
                test_per_class: 10,
            },
            DatasetPreset::ImageNetLite => SyntheticSpec {
                name: "imagenet-lite",
                classes: 100,
                shape: FeatureShape::Image(3, 8, 8),
                separation: 1.7,
                noise_std: 1.0,
                label_flip: 0.25,
                default_train_total: 8_000,
                test_per_class: 10,
            },
        }
    }
}

impl SyntheticSpec {
    /// Prototype scale that realises `separation` in σ units: two random
    /// prototypes with i.i.d. `N(0, s²)` coordinates sit `s·√(2d)` apart in
    /// expectation, so `s = separation · 2σ / √(2d)` gives a pairwise
    /// margin of `separation` noise-σ's between class means.
    pub fn prototype_scale(&self) -> f64 {
        let d = self.shape.dim() as f64;
        self.separation * 2.0 * self.noise_std / (2.0 * d).sqrt()
    }

    /// Deterministic class prototypes `[classes, dim]` for a dataset seed.
    pub fn prototypes(&self, seed: u64) -> Tensor {
        let mut rng = Xoshiro256pp::stream(seed, &[stream::DATA_PROTO]);
        let d = self.shape.dim();
        let s = self.prototype_scale() as f32;
        let mut protos = Tensor::zeros(&[self.classes, d]);
        match self.shape {
            FeatureShape::Flat(_) => {
                let mut normal = Normal::new(0.0, s as f64);
                normal.fill_f32(&mut rng, protos.as_mut_slice());
            }
            FeatureShape::Image(c, h, w) => {
                // Low-res pattern upsampled 2× (nearest) per channel →
                // spatially smooth prototypes that convolutions can exploit.
                assert!(h % 2 == 0 && w % 2 == 0, "image dims must be even");
                let (lh, lw) = (h / 2, w / 2);
                // Upsampling duplicates each low-res value into a 2×2
                // block; per-pixel std `s` keeps the total vector-norm
                // calibration identical to the flat case.
                let mut normal = Normal::new(0.0, s as f64);
                let mut low = vec![0.0f32; lh * lw];
                for cls in 0..self.classes {
                    let row = protos.row_mut(cls);
                    for ch in 0..c {
                        for v in low.iter_mut() {
                            *v = normal.sample(&mut rng) as f32;
                        }
                        let chan = &mut row[ch * h * w..(ch + 1) * h * w];
                        for y in 0..h {
                            for x in 0..w {
                                chan[y * w + x] = low[(y / 2) * lw + (x / 2)];
                            }
                        }
                    }
                }
            }
        }
        protos
    }

    /// Materialise a training set with the given per-class counts.
    ///
    /// Samples are laid out class-by-class then shuffled; labels are
    /// flipped to a uniformly random *other* class with probability
    /// `label_flip`.
    pub fn generate_train(&self, counts: &[usize], seed: u64) -> Dataset {
        assert_eq!(counts.len(), self.classes, "counts/classes mismatch");
        self.generate(
            counts,
            Xoshiro256pp::stream(seed, &[stream::DATA_TRAIN]),
            self.label_flip,
            seed,
        )
    }

    /// Materialise the balanced test set (no label noise).
    pub fn generate_test(&self, seed: u64) -> Dataset {
        let counts = vec![self.test_per_class; self.classes];
        self.generate(
            &counts,
            Xoshiro256pp::stream(seed, &[stream::DATA_TEST]),
            0.0,
            seed,
        )
    }

    fn generate(&self, counts: &[usize], mut rng: Xoshiro256pp, flip: f64, seed: u64) -> Dataset {
        let protos = self.prototypes(seed);
        let d = self.shape.dim();
        let total: usize = counts.iter().sum();
        let mut features = Vec::with_capacity(total * d);
        let mut labels = Vec::with_capacity(total);
        let mut noise = Normal::new(0.0, self.noise_std);
        for (c, &n) in counts.iter().enumerate() {
            let proto = protos.row(c);
            for _ in 0..n {
                for &p in proto {
                    features.push(p + noise.sample(&mut rng) as f32);
                }
                let label = if flip > 0.0 && rng.bernoulli(flip) {
                    // Uniform over the other classes.
                    let mut other = rng.index(self.classes - 1);
                    if other >= c {
                        other += 1;
                    }
                    other
                } else {
                    c
                };
                labels.push(label);
            }
        }
        // Shuffle samples so index order carries no class information.
        let mut order: Vec<usize> = (0..total).collect();
        rng.shuffle(&mut order);
        let mut shuffled = Vec::with_capacity(total * d);
        let mut shuffled_labels = Vec::with_capacity(total);
        for &i in &order {
            shuffled.extend_from_slice(&features[i * d..(i + 1) * d]);
            shuffled_labels.push(labels[i]);
        }
        Dataset::new(
            Tensor::from_vec(shuffled, &[total, d]),
            shuffled_labels,
            self.classes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::longtail::longtail_counts;

    #[test]
    fn presets_have_consistent_dims() {
        for p in DatasetPreset::all() {
            let spec = p.spec();
            assert!(spec.classes >= 10);
            assert!(spec.shape.dim() >= 64);
            assert!(spec.separation > 0.0);
        }
    }

    #[test]
    fn prototypes_deterministic_per_seed() {
        let spec = DatasetPreset::Cifar10.spec();
        let a = spec.prototypes(7);
        let b = spec.prototypes(7);
        let c = spec.prototypes(8);
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn prototype_separation_close_to_target() {
        let spec = DatasetPreset::Cifar10.spec();
        let protos = spec.prototypes(3);
        // Mean pairwise distance should be ≈ separation · 2σ.
        let mut total = 0.0f64;
        let mut pairs = 0usize;
        for i in 0..spec.classes {
            for j in (i + 1)..spec.classes {
                let d2: f32 = protos
                    .row(i)
                    .iter()
                    .zip(protos.row(j))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                total += (d2 as f64).sqrt();
                pairs += 1;
            }
        }
        let mean_dist = total / pairs as f64;
        let target = spec.separation * 2.0 * spec.noise_std;
        assert!(
            (mean_dist - target).abs() / target < 0.25,
            "mean pairwise {mean_dist} vs target {target}"
        );
    }

    #[test]
    fn image_prototypes_are_spatially_smooth() {
        let spec = DatasetPreset::Svhn.spec();
        let protos = spec.prototypes(1);
        // Nearest-neighbour 2× upsampling ⇒ 2×2 blocks are constant.
        let row = protos.row(0);
        let (h, w) = (8usize, 8usize);
        for ch in 0..3 {
            let chan = &row[ch * 64..(ch + 1) * 64];
            for y in (0..h).step_by(2) {
                for x in (0..w).step_by(2) {
                    let v = chan[y * w + x];
                    assert_eq!(chan[y * w + x + 1], v);
                    assert_eq!(chan[(y + 1) * w + x], v);
                    assert_eq!(chan[(y + 1) * w + x + 1], v);
                }
            }
        }
    }

    #[test]
    fn train_counts_respected_up_to_flips() {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 200, 0.1);
        let ds = spec.generate_train(&counts, 42);
        assert_eq!(ds.len(), counts.iter().sum::<usize>());
        // Flips move ~4% of labels; class counts stay close to the target.
        let got = ds.class_counts();
        for (g, c) in got.iter().zip(&counts) {
            let drift = (*g as f64 - *c as f64).abs();
            assert!(drift <= 0.05 * ds.len() as f64 + 5.0, "class drift {drift}");
        }
    }

    #[test]
    fn test_set_balanced_and_clean() {
        let spec = DatasetPreset::Cifar10.spec();
        let ds = spec.generate_test(42);
        assert_eq!(ds.len(), 10 * spec.test_per_class);
        assert!(ds.class_counts().iter().all(|&n| n == spec.test_per_class));
    }

    #[test]
    fn dataset_is_learnable_by_nearest_prototype() {
        // The generator must produce a dataset where the Bayes-ish
        // nearest-prototype rule clearly beats chance.
        let spec = DatasetPreset::Cifar10.spec();
        let protos = spec.prototypes(9);
        let test = spec.generate_test(9);
        let mut correct = 0usize;
        for i in 0..test.len() {
            let x = test.feature_row(i);
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..spec.classes {
                let d: f32 = protos
                    .row(c)
                    .iter()
                    .zip(x)
                    .map(|(p, v)| (p - v) * (p - v))
                    .sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if best == test.label(i) {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.55, "nearest-prototype accuracy {acc}");
    }

    #[test]
    fn different_seeds_give_different_data() {
        let spec = DatasetPreset::FashionMnist.spec();
        let a = spec.generate_train(&[10; 10], 1);
        let b = spec.generate_train(&[10; 10], 2);
        assert_ne!(a.feature_row(0), b.feature_row(0));
    }
}
