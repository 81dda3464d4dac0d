//! Loss functions.

use rbnn_tensor::Tensor;

/// Numerically stable softmax over the trailing axis of a `[N, C]` tensor.
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().ndim(), 2, "softmax expects [batch, classes]");
    let (n, c) = (logits.dim(0), logits.dim(1));
    let mut out = Tensor::zeros([n, c]);
    let ls = logits.as_slice();
    let os = out.as_mut_slice();
    for i in 0..n {
        let row = &ls[i * c..(i + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (j, &v) in row.iter().enumerate() {
            let e = (v - m).exp();
            os[i * c + j] = e;
            z += e;
        }
        for j in 0..c {
            os[i * c + j] /= z;
        }
    }
    out
}

/// Mean softmax cross-entropy loss and its gradient with respect to the
/// logits.
///
/// Returns `(loss, grad)` where `grad[i, j] = (softmax(l)[i, j] − 1{j = yᵢ}) / N`
/// — ready to feed into `Layer::backward` of the last layer.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or a label is out of
/// range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().ndim(), 2, "expected [batch, classes] logits");
    let (n, c) = (logits.dim(0), logits.dim(1));
    assert_eq!(
        labels.len(),
        n,
        "label count {} != batch size {n}",
        labels.len()
    );

    let probs = softmax(logits);
    let ps = probs.as_slice();
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    let gs = grad.as_mut_slice();
    let inv_n = 1.0 / n as f32;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range for {c} classes");
        loss -= (ps[i * c + y].max(1e-12)).ln();
        gs[i * c + y] -= 1.0;
    }
    for g in gs.iter_mut() {
        *g *= inv_n;
    }
    (loss * inv_n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Tensor::randn([7, 5], 3.0, &mut rng);
        let p = softmax(&l);
        for i in 0..7 {
            let s: f32 = p.as_slice()[i * 5..(i + 1) * 5].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(p.min() >= 0.0);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let l = Tensor::from_vec(vec![1000.0, 1001.0], [1, 2]);
        let p = softmax(&l);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        let l2 = Tensor::from_vec(vec![0.0, 1.0], [1, 2]);
        assert!(p.allclose(&softmax(&l2), 1e-5));
    }

    #[test]
    fn uniform_logits_give_ln_c_loss() {
        let l = Tensor::zeros([4, 3]);
        let (loss, _) = softmax_cross_entropy(&l, &[0, 1, 2, 0]);
        assert!((loss - 3.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_gives_near_zero_loss() {
        let mut l = Tensor::zeros([2, 2]);
        *l.at_mut(&[0, 0]) = 50.0;
        *l.at_mut(&[1, 1]) = 50.0;
        let (loss, grad) = softmax_cross_entropy(&l, &[0, 1]);
        assert!(loss < 1e-4);
        assert!(grad.norm_sq() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Tensor::randn([3, 4], 1.0, &mut rng);
        let labels = [1usize, 3, 0];
        let (_, grad) = softmax_cross_entropy(&l, &labels);
        let eps = 1e-2f32;
        for idx in 0..l.numel() {
            let mut lp = l.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = l.clone();
            lm.as_mut_slice()[idx] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = grad.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let l = Tensor::zeros([1, 2]);
        let _ = softmax_cross_entropy(&l, &[5]);
    }
}
