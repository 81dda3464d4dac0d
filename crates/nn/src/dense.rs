//! Fully-connected (dense) layer, real or binarized.

use rand::Rng;

use rbnn_tensor::{Scratch, Tensor};

use crate::{init, Layer, Param, Phase, WeightMode};

/// A fully-connected layer `y = x·Wᵀ + b`.
///
/// In [`WeightMode::Binary`] the forward pass uses `sign(W)` and gradients
/// flow back through the straight-through estimator: the latent weight
/// gradient is masked where `|w| > 1` and the latent weights are clamped to
/// `[−1, 1]` after every optimizer step. This is the training-time
/// counterpart of the 2T2R-stored classifier weights of the paper.
///
/// ```
/// use rbnn_nn::{Dense, Layer, Phase, WeightMode};
/// use rbnn_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut fc = Dense::new(2520, 80, WeightMode::Binary, &mut rng);
/// let y = fc.forward(&Tensor::zeros([4, 2520]), Phase::Eval);
/// assert_eq!(y.dims(), &[4, 80]);
/// ```
#[derive(Debug)]
pub struct Dense {
    weight: Param,
    bias: Option<Param>,
    in_features: usize,
    out_features: usize,
    mode: WeightMode,
    // Persistent buffers, refreshed in place each batch (no allocation in
    // the steady state): the effective weight seen by the forward pass and
    // the input/weight caches the backward pass consumes.
    eff_w: Tensor,
    cached_input: Tensor,
    cached_eff_w: Tensor,
    cache_valid: bool,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights and zero bias.
    pub fn new(
        in_features: usize,
        out_features: usize,
        mode: WeightMode,
        rng: &mut impl Rng,
    ) -> Self {
        let weight_value = init::he_normal(&[out_features, in_features], in_features, rng);
        let mut weight = Param::new(weight_value);
        if mode.is_binary() {
            weight = weight.with_clamp(-1.0, 1.0);
        }
        let bias = Some(Param::new(Tensor::zeros([out_features])).no_decay());
        Self {
            weight,
            bias,
            in_features,
            out_features,
            mode,
            eff_w: Tensor::default(),
            cached_input: Tensor::default(),
            cached_eff_w: Tensor::default(),
            cache_valid: false,
        }
    }

    /// Removes the bias term (builder style). Useful when the layer is
    /// followed by BatchNorm, which subsumes the bias.
    pub fn without_bias(mut self) -> Self {
        self.bias = None;
        self
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight mode (real or binary).
    pub fn mode(&self) -> WeightMode {
        self.mode
    }

    /// The weights seen by the forward pass: `sign(W)` in binary mode, `W`
    /// otherwise. This is what gets programmed into RRAM arrays.
    pub fn effective_weight(&self) -> Tensor {
        match self.mode {
            WeightMode::Real => self.weight.value.clone(),
            WeightMode::Binary => self.weight.value.signum_binary(),
        }
    }

    /// The bias vector, if present.
    pub fn bias_value(&self) -> Option<&Tensor> {
        self.bias.as_ref().map(|b| &b.value)
    }

    /// Shared backward body; `need_dx` false skips the input-gradient
    /// GEMM (root of the backward pass).
    fn backward_impl(&mut self, grad_out: &Tensor, scratch: &mut Scratch, need_dx: bool) -> Tensor {
        assert!(
            self.cache_valid,
            "Dense::backward called without forward(Phase::Train)"
        );
        self.cache_valid = false;

        // dW_eff[o, i] = Σ_n g[n, o] · x[n, i]
        let mut grad_w = scratch.tensor_for_overwrite(self.weight.value.shape().clone());
        grad_out.matmul_tn_into(&self.cached_input, &mut grad_w);
        if self.mode.is_binary() {
            self.weight.accumulate_ste_masked(&grad_w);
        } else {
            self.weight.grad += &grad_w;
        }
        scratch.recycle(grad_w);

        if let Some(b) = &mut self.bias {
            let n = grad_out.dim(0);
            let o = self.out_features;
            let gs = grad_out.as_slice();
            let gb = b.grad.as_mut_slice();
            for row in 0..n {
                for (j, g) in gb.iter_mut().enumerate() {
                    *g += gs[row * o + j];
                }
            }
        }

        // dx[n, i] = Σ_o g[n, o] · w[o, i]  (skipped entirely at the root
        // of the backward pass, where nothing consumes it)
        if !need_dx {
            return Tensor::default();
        }
        let mut dx = scratch.tensor_for_overwrite([grad_out.dim(0), self.in_features]);
        grad_out.matmul_into(&self.cached_eff_w, &mut dx);
        dx
    }
}

impl Layer for Dense {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 2, "Dense expects [batch, features]");
        assert_eq!(
            x.dim(1),
            self.in_features,
            "Dense: expected {} input features, got {}",
            self.in_features,
            x.dim(1)
        );
        let n = x.dim(0);
        // Refresh the effective-weight buffer in place: sign(W) in binary
        // mode (single pass into a persistent buffer — training caches the
        // buffer the backward pass will read, eval uses a separate one so a
        // mid-step eval cannot clobber the training cache).
        let eff_w: &Tensor = match self.mode {
            WeightMode::Real => &self.weight.value,
            WeightMode::Binary => {
                if phase.is_train() {
                    self.weight.value.signum_binary_into(&mut self.cached_eff_w);
                    &self.cached_eff_w
                } else {
                    self.weight.value.signum_binary_into(&mut self.eff_w);
                    &self.eff_w
                }
            }
        };
        // y[n, o] = Σ_i x[n, i] · w[o, i]  (+ b[o])
        let mut y = scratch.tensor_for_overwrite([n, self.out_features]);
        x.matmul_nt_into(eff_w, &mut y);
        if let Some(b) = &self.bias {
            let o = self.out_features;
            let ys = y.as_mut_slice();
            let bs = b.value.as_slice();
            for row in 0..n {
                for (j, &bv) in bs.iter().enumerate() {
                    ys[row * o + j] += bv;
                }
            }
        }
        if phase.is_train() {
            self.cached_input.copy_from(x);
            if !self.mode.is_binary() {
                self.cached_eff_w.copy_from(&self.weight.value);
            }
            self.cache_valid = true;
        }
        y
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.backward_impl(grad_out, scratch, true)
    }

    fn backward_root_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        self.backward_impl(grad_out, scratch, false)
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        assert_eq!(in_shape, [self.in_features], "Dense expects flat input");
        vec![self.out_features]
    }

    fn name(&self) -> String {
        let tag = if self.mode.is_binary() {
            "BinDense"
        } else {
            "Dense"
        };
        format!("{tag}({}→{})", self.in_features, self.out_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut fc = Dense::new(3, 2, WeightMode::Real, &mut rng);
        // Overwrite with known weights.
        fc.weight.value = Tensor::from_vec(vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.0], [2, 3]);
        fc.bias.as_mut().unwrap().value = Tensor::from_vec(vec![0.5, -0.5], [2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let y = fc.forward(&x, Phase::Eval);
        // row0: 1·1 + 2·0 + 3·(−1) + 0.5 = −1.5 ; row1: 1·2 + 2·1 + 3·0 − 0.5 = 3.5
        assert_eq!(y.as_slice(), &[-1.5, 3.5]);
    }

    #[test]
    fn binary_mode_uses_sign_of_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut fc = Dense::new(2, 1, WeightMode::Binary, &mut rng);
        fc.weight.value = Tensor::from_vec(vec![0.3, -0.7], [1, 2]);
        let x = Tensor::from_vec(vec![2.0, 4.0], [1, 2]);
        let y = fc.forward(&x, Phase::Eval);
        // sign weights: [+1, −1] → 2 − 4 = −2 (+ bias 0)
        assert_eq!(y.as_slice(), &[-2.0]);
    }

    #[test]
    fn ste_masks_saturated_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut fc = Dense::new(2, 1, WeightMode::Binary, &mut rng);
        // First latent weight saturated (>1), second inside the window.
        fc.weight.value = Tensor::from_vec(vec![1.5, 0.5], [1, 2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let _ = fc.forward(&x, Phase::Train);
        let _ = fc.backward(&Tensor::ones([1, 1]));
        let gw = fc.weight.grad.as_slice();
        assert_eq!(gw[0], 0.0, "saturated weight must get no gradient");
        assert_eq!(gw[1], 1.0);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut fc = Dense::new(4, 3, WeightMode::Real, &mut rng);
        let x = Tensor::randn([5, 4], 1.0, &mut rng);
        let _ = fc.forward(&x, Phase::Train);
        let gx = fc.backward(&Tensor::ones([5, 3]));
        assert_eq!(gx.dims(), &[5, 4]);
        // Bias grad is the column sum of ones: batch size.
        assert_eq!(fc.bias.as_ref().unwrap().grad.as_slice(), &[5.0, 5.0, 5.0]);
    }

    #[test]
    fn binary_param_is_clamped() {
        let mut rng = StdRng::seed_from_u64(2);
        let fc = Dense::new(2, 2, WeightMode::Binary, &mut rng);
        assert_eq!(fc.params()[0].clamp, Some((-1.0, 1.0)));
    }

    #[test]
    fn without_bias_removes_param() {
        let mut rng = StdRng::seed_from_u64(3);
        let fc = Dense::new(8, 4, WeightMode::Real, &mut rng).without_bias();
        assert_eq!(fc.params().len(), 1);
        assert_eq!(fc.param_count(), 32);
    }

    #[test]
    fn name_and_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let fc = Dense::new(2520, 80, WeightMode::Binary, &mut rng);
        assert_eq!(fc.name(), "BinDense(2520→80)");
        assert_eq!(fc.out_shape(&[2520]), vec![80]);
    }
}
