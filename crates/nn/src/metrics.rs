//! Classification metrics: accuracy, top-k accuracy, confusion matrices.

use rbnn_tensor::Tensor;

/// Fraction of samples whose argmax logit equals the label.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    top_k_accuracy(logits, labels, 1)
}

/// Fraction of samples whose label is among the `k` highest logits
/// (the paper reports Top-1 and Top-5 for ImageNet/MobileNet).
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or `k == 0`.
pub fn top_k_accuracy(logits: &Tensor, labels: &[usize], k: usize) -> f32 {
    assert!(k >= 1, "k must be at least 1");
    assert_eq!(logits.shape().ndim(), 2, "expected [batch, classes] logits");
    let (n, c) = (logits.dim(0), logits.dim(1));
    assert_eq!(labels.len(), n, "label count mismatch");
    if n == 0 {
        return 0.0;
    }
    let ls = logits.as_slice();
    let mut hits = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &ls[i * c..(i + 1) * c];
        let target = row[y];
        // Rank = number of classes with a strictly larger logit.
        let rank = row.iter().filter(|&&v| v > target).count();
        if rank < k {
            hits += 1;
        }
    }
    hits as f32 / n as f32
}

/// A square confusion matrix accumulated over predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix for `classes` classes.
    pub fn new(classes: usize) -> Self {
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Records one `(true label, predicted label)` pair.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(
            truth < self.classes && predicted < self.classes,
            "class out of range"
        );
        self.counts[truth * self.classes + predicted] += 1;
    }

    /// Records a whole batch from logits.
    pub fn record_logits(&mut self, logits: &Tensor, labels: &[usize]) {
        let (n, c) = (logits.dim(0), logits.dim(1));
        assert_eq!(labels.len(), n);
        let ls = logits.as_slice();
        for (i, &y) in labels.iter().enumerate() {
            let row = &ls[i * c..(i + 1) * c];
            let mut best = 0;
            for j in 1..c {
                if row[j] > row[best] {
                    best = j;
                }
            }
            self.record(y, best);
        }
    }

    /// Count at `(truth, predicted)`.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.classes + predicted]
    }

    /// Total recorded samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (diagonal mass / total), 0 when empty.
    pub fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.classes).map(|i| self.count(i, i)).sum();
        diag as f32 / total as f32
    }
}

/// Mean and sample standard deviation of a slice (used to report the
/// cross-validated accuracies of Table III with error bars).
pub fn mean_std(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f32>() / values.len() as f32;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var =
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / (values.len() - 1) as f32;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], [3, 2]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
    }

    #[test]
    fn top_k_is_monotone_in_k() {
        let logits = Tensor::from_vec(vec![3.0, 2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 3.0], [2, 4]);
        let labels = [2usize, 0];
        let a1 = top_k_accuracy(&logits, &labels, 1);
        let a2 = top_k_accuracy(&logits, &labels, 2);
        let a4 = top_k_accuracy(&logits, &labels, 4);
        assert!(a1 <= a2 && a2 <= a4);
        assert_eq!(a4, 1.0);
        assert_eq!(a1, 0.0);
        // label 2 in row 0 has rank 2 → counted at k=3; label 0 in row 1 has
        // rank 3 → only at k=4.
        assert_eq!(top_k_accuracy(&logits, &labels, 3), 0.5);
    }

    #[test]
    fn confusion_matrix_accumulates() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(0, 1);
        cm.record(1, 1);
        assert_eq!(cm.total(), 3);
        assert_eq!(cm.count(0, 1), 1);
        assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn confusion_from_logits() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        let mut cm = ConfusionMatrix::new(2);
        cm.record_logits(&logits, &[0, 0]);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(0, 1), 1);
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-6);
        assert!((s - 2.138).abs() < 0.01);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.0]), (3.0, 0.0));
    }
}
