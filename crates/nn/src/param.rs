//! Learnable parameters.

use rbnn_tensor::Tensor;

/// A learnable tensor together with its gradient accumulator and
/// optimizer-relevant metadata.
///
/// `Param` is a passive data holder (fields are public by design): layers own
/// their `Param`s, the backward pass accumulates into [`grad`](Param::grad),
/// and optimizers read/update [`value`](Param::value).
///
/// For binarized layers the *latent* real-valued weights live here while the
/// forward pass sees their sign; [`clamp`](Param::clamp) keeps latent weights
/// in `[−1, 1]` after each optimizer step, as in Courbariaux et al.'s BNN
/// training scheme that the paper builds on.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
    /// Post-step clamp range for latent binarized weights.
    pub clamp: Option<(f32, f32)>,
    /// Whether weight decay applies (disabled for biases and BatchNorm).
    pub decay: bool,
}

impl Param {
    /// Accumulates `grad_eff` into [`grad`](Param::grad) through the
    /// straight-through estimator: positions where the latent weight has
    /// saturated (`|w| > 1`) receive no gradient (Courbariaux et al.).
    /// One fused pass shared by every binarized layer.
    ///
    /// # Panics
    ///
    /// Panics if `grad_eff`'s element count differs from the parameter's.
    pub fn accumulate_ste_masked(&mut self, grad_eff: &Tensor) {
        assert_eq!(
            grad_eff.numel(),
            self.value.numel(),
            "accumulate_ste_masked: gradient size mismatch"
        );
        for ((acc, &g), &w) in self
            .grad
            .as_mut_slice()
            .iter_mut()
            .zip(grad_eff.as_slice())
            .zip(self.value.as_slice())
        {
            if w.abs() <= 1.0 {
                *acc += g;
            }
        }
    }

    /// Wraps a value tensor as a trainable parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Self {
            value,
            grad,
            clamp: None,
            decay: true,
        }
    }

    /// Builder-style: marks this parameter as exempt from weight decay.
    pub fn no_decay(mut self) -> Self {
        self.decay = false;
        self
    }

    /// Builder-style: clamps the value into `[lo, hi]` after optimizer steps
    /// (used for BNN latent weights with `(−1, 1)`).
    pub fn with_clamp(mut self, lo: f32, hi: f32) -> Self {
        self.clamp = Some((lo, hi));
        self
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Applies the clamp (if configured) to the current value.
    pub fn apply_clamp(&mut self) {
        if let Some((lo, hi)) = self.clamp {
            self.value.map_in_place(|x| x.clamp(lo, hi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones([3, 2]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.numel(), 6);
        assert!(p.decay);
        assert!(p.clamp.is_none());
    }

    #[test]
    fn clamp_applies_bounds() {
        let mut p = Param::new(Tensor::from_vec(vec![-2.0, 0.5, 3.0], [3])).with_clamp(-1.0, 1.0);
        p.apply_clamp();
        assert_eq!(p.value.as_slice(), &[-1.0, 0.5, 1.0]);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::ones([2]));
        p.grad = Tensor::ones([2]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn no_decay_builder() {
        let p = Param::new(Tensor::ones([1])).no_decay();
        assert!(!p.decay);
    }
}
