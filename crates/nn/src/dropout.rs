//! Inverted dropout regularization.
//!
//! The paper's ECG model uses dropout with keep probability 0.95 in the
//! convolutional layers and 0.85 in the classifier (§III-B).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_tensor::{Scratch, Tensor};

use crate::{Layer, Phase};

/// Inverted dropout: each activation survives with probability `keep` and is
/// scaled by `1/keep` during training; evaluation is the identity.
#[derive(Debug)]
pub struct Dropout {
    keep: f32,
    rng: StdRng,
    mask: Tensor,
    mask_valid: bool,
}

impl Dropout {
    /// Creates a dropout layer with the given keep probability and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep ≤ 1`.
    pub fn new(keep: f32, seed: u64) -> Self {
        assert!(
            keep > 0.0 && keep <= 1.0,
            "keep probability must be in (0, 1], got {keep}"
        );
        Self {
            keep,
            rng: StdRng::seed_from_u64(seed),
            mask: Tensor::default(),
            mask_valid: false,
        }
    }

    /// The keep probability.
    pub fn keep(&self) -> f32 {
        self.keep
    }
}

impl Layer for Dropout {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        let mut y = scratch.tensor_for_overwrite(x.shape().clone());
        if !phase.is_train() || self.keep >= 1.0 {
            y.as_mut_slice().copy_from_slice(x.as_slice());
            return y;
        }
        let inv = 1.0 / self.keep;
        self.mask.resize_for_overwrite(x.shape().clone());
        for (m, (d, &v)) in self
            .mask
            .as_mut_slice()
            .iter_mut()
            .zip(y.as_mut_slice().iter_mut().zip(x.as_slice()))
        {
            *m = if self.rng.gen::<f32>() < self.keep {
                inv
            } else {
                0.0
            };
            *d = v * *m;
        }
        self.mask_valid = true;
        y
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        let mut gx = scratch.tensor_for_overwrite(grad_out.shape().clone());
        if self.mask_valid {
            self.mask_valid = false;
            for ((d, &g), &m) in gx
                .as_mut_slice()
                .iter_mut()
                .zip(grad_out.as_slice())
                .zip(self.mask.as_slice())
            {
                *d = g * m;
            }
        } else {
            // keep == 1.0 in train phase: identity.
            gx.as_mut_slice().copy_from_slice(grad_out.as_slice());
        }
        gx
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        in_shape.to_vec()
    }

    fn name(&self) -> String {
        format!("Dropout(keep={})", self.keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let y = d.forward(&x, Phase::Eval);
        assert_eq!(y, x);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut d = Dropout::new(0.8, 42);
        let x = Tensor::ones([1, 20_000]);
        let y = d.forward(&x, Phase::Train);
        // E[y] = 1 under inverted dropout.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Survivors carry 1/keep.
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 1.25).abs() < 1e-6));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 7);
        let x = Tensor::ones([1, 100]);
        let y = d.forward(&x, Phase::Train);
        let g = d.backward(&Tensor::ones([1, 100]));
        // Gradient flows exactly where the activation survived.
        for (yv, gv) in y.as_slice().iter().zip(g.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn keep_one_is_identity_both_ways() {
        let mut d = Dropout::new(1.0, 0);
        let x = Tensor::from_vec(vec![5.0, -3.0], [1, 2]);
        assert_eq!(d.forward(&x, Phase::Train), x);
        let g = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        assert_eq!(d.backward(&g), g);
    }

    #[test]
    #[should_panic(expected = "keep probability")]
    fn zero_keep_rejected() {
        let _ = Dropout::new(0.0, 0);
    }
}
