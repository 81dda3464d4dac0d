//! Labelled dataset container with splitting, normalization and k-fold
//! cross-validation — the evaluation protocol of the paper (§III: five-fold
//! cross-validation, per-channel normalization, noise augmentation).

use rand::seq::SliceRandom;
use rand::Rng;

use rbnn_tensor::Tensor;

/// An in-memory labelled dataset: samples stacked on the leading axis and
/// one integer class label per sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Tensor,
    y: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Bundles samples and labels.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the leading dimension of `x`, or a
    /// label is `>= classes`.
    pub fn new(x: Tensor, y: Vec<usize>, classes: usize) -> Self {
        assert_eq!(x.dim(0), y.len(), "sample/label count mismatch");
        assert!(y.iter().all(|&l| l < classes), "label out of range");
        Self { x, y, classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The stacked samples `[N, …]`.
    pub fn samples(&self) -> &Tensor {
        &self.x
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.y
    }

    /// Per-sample shape (without the batch axis).
    pub fn sample_shape(&self) -> Vec<usize> {
        self.x.dims()[1..].to_vec()
    }

    /// Returns a dataset containing the given indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let items: Vec<Tensor> = indices.iter().map(|&i| self.x.index_axis0(i)).collect();
        let y = indices.iter().map(|&i| self.y[i]).collect();
        Dataset {
            x: Tensor::stack(&items),
            y,
            classes: self.classes,
        }
    }

    /// Returns a copy with samples in random order.
    pub fn shuffled(&self, rng: &mut impl Rng) -> Dataset {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        self.subset(&idx)
    }

    /// Splits into `(first, second)` with `first` holding `fraction` of the
    /// samples (rounded down, at least 1 if non-empty).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    pub fn split(&self, fraction: f32) -> (Dataset, Dataset) {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        let cut = ((self.len() as f32 * fraction) as usize).clamp(1, self.len() - 1);
        let first: Vec<usize> = (0..cut).collect();
        let second: Vec<usize> = (cut..self.len()).collect();
        (self.subset(&first), self.subset(&second))
    }

    /// The index sets of `k` contiguous, non-overlapping validation folds
    /// covering every sample exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > len`.
    pub fn fold_indices(&self, k: usize) -> Vec<Vec<usize>> {
        assert!(k >= 2, "need at least 2 folds");
        assert!(k <= self.len(), "more folds than samples");
        let n = self.len();
        let mut folds = Vec::with_capacity(k);
        for f in 0..k {
            let start = f * n / k;
            let end = (f + 1) * n / k;
            folds.push((start..end).collect());
        }
        folds
    }

    /// Builds the `(train, validation)` pair for fold `fold` of `k`
    /// (the paper's five-fold cross-validation protocol with
    /// non-overlapping validation subsets).
    ///
    /// # Panics
    ///
    /// Panics if `fold >= k` or `k` is invalid for this dataset.
    pub fn cv_fold(&self, k: usize, fold: usize) -> (Dataset, Dataset) {
        assert!(fold < k, "fold index out of range");
        let folds = self.fold_indices(k);
        let val_idx = &folds[fold];
        let mut train_idx = Vec::with_capacity(self.len() - val_idx.len());
        for (f, idxs) in folds.iter().enumerate() {
            if f != fold {
                train_idx.extend_from_slice(idxs);
            }
        }
        (self.subset(&train_idx), self.subset(val_idx))
    }

    /// Per-channel z-score normalization, treating axis 1 as the channel
    /// axis: each channel is shifted/scaled by statistics computed over all
    /// samples and positions (the paper's "per-channel normalization by
    /// subtracting the mean and dividing by variance").
    ///
    /// Returns the `(mean, std)` per channel so a validation set can be
    /// normalized with training statistics via
    /// [`apply_normalization`](Self::apply_normalization).
    pub fn normalize_per_channel(&mut self) -> (Vec<f32>, Vec<f32>) {
        let dims = self.x.dims().to_vec();
        assert!(dims.len() >= 2, "need a channel axis to normalize");
        let (n, c) = (dims[0], dims[1]);
        let s: usize = dims[2..].iter().product::<usize>().max(1);
        let xs = self.x.as_mut_slice();
        let mut means = vec![0.0f32; c];
        let mut stds = vec![0.0f32; c];
        let count = (n * s) as f32;
        for ch in 0..c {
            let mut mean = 0.0f32;
            for i in 0..n {
                let base = (i * c + ch) * s;
                mean += xs[base..base + s].iter().sum::<f32>();
            }
            mean /= count;
            let mut var = 0.0f32;
            for i in 0..n {
                let base = (i * c + ch) * s;
                var += xs[base..base + s]
                    .iter()
                    .map(|&v| (v - mean) * (v - mean))
                    .sum::<f32>();
            }
            var /= count;
            let std = var.sqrt().max(1e-8);
            for i in 0..n {
                let base = (i * c + ch) * s;
                for v in &mut xs[base..base + s] {
                    *v = (*v - mean) / std;
                }
            }
            means[ch] = mean;
            stds[ch] = std;
        }
        (means, stds)
    }

    /// Applies externally computed per-channel statistics (from a training
    /// split) to this dataset.
    ///
    /// # Panics
    ///
    /// Panics if the statistics length differs from the channel count.
    pub fn apply_normalization(&mut self, means: &[f32], stds: &[f32]) {
        let dims = self.x.dims().to_vec();
        let (n, c) = (dims[0], dims[1]);
        assert_eq!(means.len(), c, "mean count mismatch");
        assert_eq!(stds.len(), c, "std count mismatch");
        let s: usize = dims[2..].iter().product::<usize>().max(1);
        let xs = self.x.as_mut_slice();
        for ch in 0..c {
            let inv = 1.0 / stds[ch].max(1e-8);
            for i in 0..n {
                let base = (i * c + ch) * s;
                for v in &mut xs[base..base + s] {
                    *v = (*v - means[ch]) * inv;
                }
            }
        }
    }

    /// Adds i.i.d. Gaussian noise of the given standard deviation to every
    /// sample in place — the paper's data augmentation for the small EEG set
    /// ("we added small amplitude noise to each training sample").
    pub fn augment_noise(&mut self, std: f32, rng: &mut impl Rng) {
        let noise = Tensor::randn(self.x.shape().clone(), std, rng);
        self.x += &noise;
    }

    /// Counts samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes];
        for &l in &self.y {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy(n: usize) -> Dataset {
        let x = Tensor::from_fn([n, 2, 3], |i| i as f32);
        let y = (0..n).map(|i| i % 2).collect();
        Dataset::new(x, y, 2)
    }

    #[test]
    fn subset_and_shapes() {
        let d = toy(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d.sample_shape(), vec![2, 3]);
        let s = d.subset(&[3, 7]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[1, 1]);
        assert_eq!(s.samples().index_axis0(0), d.samples().index_axis0(3));
    }

    #[test]
    fn cv_folds_partition_everything() {
        let d = toy(23);
        let folds = d.fold_indices(5);
        let total: usize = folds.iter().map(|f| f.len()).sum();
        assert_eq!(total, 23);
        // Folds are disjoint.
        let mut seen = [false; 23];
        for f in &folds {
            for &i in f {
                assert!(!seen[i], "index {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // Train+val of any fold is the whole set.
        let (tr, va) = d.cv_fold(5, 2);
        assert_eq!(tr.len() + va.len(), 23);
    }

    #[test]
    fn split_fractions() {
        let d = toy(10);
        let (a, b) = d.split(0.7);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn normalization_zeroes_channel_stats() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = &Tensor::randn([100, 3, 20], 4.0, &mut rng) + 7.0;
        let mut d = Dataset::new(x, vec![0; 100], 1);
        let (means, stds) = d.normalize_per_channel();
        assert!(
            means.iter().all(|m| (m - 7.0).abs() < 0.5),
            "means {means:?}"
        );
        assert!(stds.iter().all(|s| (s - 4.0).abs() < 0.5), "stds {stds:?}");
        // After normalization: mean ~0, var ~1 overall.
        assert!(d.samples().mean().abs() < 1e-4);
        assert!((d.samples().variance() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn apply_normalization_uses_given_stats() {
        let x = Tensor::full([2, 1, 2], 10.0);
        let mut d = Dataset::new(x, vec![0, 0], 1);
        d.apply_normalization(&[8.0], &[2.0]);
        assert!(d
            .samples()
            .as_slice()
            .iter()
            .all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn shuffle_preserves_pairs() {
        let d = toy(8);
        let mut rng = StdRng::seed_from_u64(1);
        let s = d.shuffled(&mut rng);
        assert_eq!(s.len(), 8);
        // Every sample keeps its label: sample values encode their original
        // index, whose parity is the label.
        for i in 0..8 {
            let first = s.samples().index_axis0(i).as_slice()[0];
            let orig = (first as usize) / 6;
            assert_eq!(orig % 2, s.labels()[i]);
        }
    }

    #[test]
    fn noise_augmentation_changes_data_slightly() {
        let mut d = toy(4);
        let before = d.samples().clone();
        let mut rng = StdRng::seed_from_u64(2);
        d.augment_noise(0.1, &mut rng);
        let diff = (d.samples() - &before).norm_sq();
        assert!(diff > 0.0 && diff < 4.0 * 6.0 * 0.1);
    }

    #[test]
    fn class_counts() {
        let d = toy(9);
        assert_eq!(d.class_counts(), vec![5, 4]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_labels_rejected() {
        let _ = Dataset::new(Tensor::zeros([2, 1]), vec![0, 5], 2);
    }
}
