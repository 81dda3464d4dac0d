//! 1-D convolution layer (temporal convolution over multichannel signals).

use rand::Rng;

use rbnn_tensor::{im2col1d_batch, im2col1d_batch_backward, Conv1dGeom, Scratch, Tensor};

use crate::{init, Layer, Param, Phase, WeightMode};

/// A 1-D convolution over `[batch, channels, len]` signals (Fig 1 of the
/// paper), lowered to matrix multiplication through `im2col`.
///
/// The weight matrix has shape `[out_channels, in_channels · kernel]`; in
/// [`WeightMode::Binary`] the forward pass uses its sign and the layer trains
/// with the straight-through estimator.
#[derive(Debug)]
pub struct Conv1d {
    weight: Param,
    bias: Option<Param>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    mode: WeightMode,
    // Persistent training buffers, refreshed in place each batch: the
    // batched patch matrix, the effective weight snapshot and (eval only)
    // the effective-weight staging buffer.
    cached_cols: Tensor,
    cached_geom: Option<Conv1dGeom>,
    cached_eff_w: Tensor,
    eff_w: Tensor,
    cache_valid: bool,
}

impl Conv1d {
    /// Creates a convolution with He-initialized weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        mode: WeightMode,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel;
        let mut weight = Param::new(init::he_normal(&[out_channels, fan_in], fan_in, rng));
        if mode.is_binary() {
            weight = weight.with_clamp(-1.0, 1.0);
        }
        Self {
            weight,
            bias: Some(Param::new(Tensor::zeros([out_channels])).no_decay()),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            mode,
            cached_cols: Tensor::default(),
            cached_geom: None,
            cached_eff_w: Tensor::default(),
            eff_w: Tensor::default(),
            cache_valid: false,
        }
    }

    /// Removes the bias term (builder style); used before BatchNorm.
    pub fn without_bias(mut self) -> Self {
        self.bias = None;
        self
    }

    /// The weight mode (real or binary).
    pub fn mode(&self) -> WeightMode {
        self.mode
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The weights as seen by the forward pass.
    pub fn effective_weight(&self) -> Tensor {
        match self.mode {
            WeightMode::Real => self.weight.value.clone(),
            WeightMode::Binary => self.weight.value.signum_binary(),
        }
    }

    fn geom(&self, len: usize) -> Conv1dGeom {
        Conv1dGeom::new(
            self.in_channels,
            len,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Shared backward body; `need_dx` false skips the input-gradient
    /// GEMM and im2col scatter (root of the backward pass).
    fn backward_impl(&mut self, grad_out: &Tensor, scratch: &mut Scratch, need_dx: bool) -> Tensor {
        assert!(
            self.cache_valid,
            "Conv1d::backward called without forward(Phase::Train)"
        );
        self.cache_valid = false;
        let geom = self.cached_geom.take().expect("geometry cache missing");
        let n = grad_out.dim(0);
        let out_len = geom.out_len();

        // Regroup grad_out [n, Co, L] into [Co, n·L] matching cached_cols.
        let mut g_all = scratch.tensor_for_overwrite([self.out_channels, n * out_len]);
        {
            let gs = grad_out.as_slice();
            let gd = g_all.as_mut_slice();
            for i in 0..n {
                for c in 0..self.out_channels {
                    let src = &gs[(i * self.out_channels + c) * out_len..][..out_len];
                    gd[c * n * out_len + i * out_len..c * n * out_len + (i + 1) * out_len]
                        .copy_from_slice(src);
                }
            }
        }

        // dW = G · colsᵀ in one shot.
        let mut grad_w = scratch.tensor_for_overwrite(self.weight.value.shape().clone());
        g_all.matmul_nt_into(&self.cached_cols, &mut grad_w);
        if self.mode.is_binary() {
            self.weight.accumulate_ste_masked(&grad_w);
        } else {
            self.weight.grad += &grad_w;
        }
        scratch.recycle(grad_w);

        if let Some(b) = &mut self.bias {
            let gs = g_all.as_slice();
            let gb = b.grad.as_mut_slice();
            for (c, gbc) in gb.iter_mut().enumerate() {
                *gbc += gs[c * n * out_len..(c + 1) * n * out_len]
                    .iter()
                    .sum::<f32>();
            }
        }

        // dcols = Wᵀ · G, then scatter all samples (parallel, disjoint) —
        // both skipped entirely at the root of the backward pass.
        if !need_dx {
            scratch.recycle(g_all);
            return Tensor::default();
        }
        let rows = geom.patch_rows();
        let mut gcols_all = scratch.tensor_for_overwrite([rows, n * out_len]);
        self.cached_eff_w.matmul_tn_into(&g_all, &mut gcols_all);
        scratch.recycle(g_all);
        let mut grad_x = scratch.tensor_for_overwrite([n, self.in_channels, geom.len]);
        im2col1d_batch_backward(&gcols_all, &geom, &mut grad_x);
        scratch.recycle(gcols_all);
        grad_x
    }
}

impl Layer for Conv1d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        assert_eq!(x.shape().ndim(), 3, "Conv1d expects [batch, channels, len]");
        assert_eq!(
            x.dim(1),
            self.in_channels,
            "Conv1d: expected {} channels, got {}",
            self.in_channels,
            x.dim(1)
        );
        let n = x.dim(0);
        let geom = self.geom(x.dim(2));
        let out_len = geom.out_len();
        let rows = geom.patch_rows();
        let train = phase.is_train();

        // Refresh the effective weight in place (sign(W) in binary mode);
        // training writes the buffer the backward pass reads.
        let eff_w: &Tensor = {
            let dst = if train {
                &mut self.cached_eff_w
            } else {
                &mut self.eff_w
            };
            match self.mode {
                WeightMode::Real => dst.copy_from(&self.weight.value),
                WeightMode::Binary => self.weight.value.signum_binary_into(dst),
            }
            if train {
                &self.cached_eff_w
            } else {
                &self.eff_w
            }
        };

        // Batch all patch matrices into one [rows, n·out_len] matrix so the
        // whole batch runs as a single large matmul; training keeps the
        // matrix for the backward pass, eval recycles it immediately.
        let mut eval_cols = None;
        let cols: &Tensor = if train {
            im2col1d_batch(x, &geom, &mut self.cached_cols);
            &self.cached_cols
        } else {
            let mut cols = scratch.tensor_for_overwrite([rows, n * out_len]);
            im2col1d_batch(x, &geom, &mut cols);
            eval_cols.insert(cols)
        };
        let mut y_all = scratch.tensor_for_overwrite([self.out_channels, n * out_len]);
        eff_w.matmul_into(cols, &mut y_all);

        let mut out = scratch.tensor_for_overwrite([n, self.out_channels, out_len]);
        {
            let ys = y_all.as_slice();
            let os = out.as_mut_slice();
            let bias = self.bias.as_ref().map(|b| b.value.as_slice());
            for c in 0..self.out_channels {
                let bv = bias.map_or(0.0, |b| b[c]);
                for i in 0..n {
                    let src = &ys[c * n * out_len + i * out_len..][..out_len];
                    let dst = &mut os[(i * self.out_channels + c) * out_len..][..out_len];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = s + bv;
                    }
                }
            }
        }
        scratch.recycle(y_all);
        if let Some(cols) = eval_cols {
            scratch.recycle(cols);
        }
        if train {
            self.cached_geom = Some(geom);
            self.cache_valid = true;
        }
        out
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
        assert_eq!(
            in_shape.len(),
            2,
            "Conv1d expects [channels, len] per sample"
        );
        assert_eq!(in_shape[0], self.in_channels);
        vec![self.out_channels, self.geom(in_shape[1]).out_len()]
    }

    fn name(&self) -> String {
        let tag = if self.mode.is_binary() {
            "BinConv1d"
        } else {
            "Conv1d"
        };
        format!(
            "{tag}({}→{}, k{}, s{}, p{})",
            self.in_channels, self.out_channels, self.kernel, self.stride, self.padding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_identity_kernel() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv1d::new(1, 1, 1, 1, 0, WeightMode::Real, &mut rng);
        conv.weight.value = Tensor::ones([1, 1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 1, 3]);
        let y = conv.forward(&x, Phase::Eval);
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv1d::new(1, 1, 2, 1, 0, WeightMode::Real, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![1.0, -1.0], [1, 2]);
        conv.bias.as_mut().unwrap().value = Tensor::from_vec(vec![10.0], [1]);
        let x = Tensor::from_vec(vec![3.0, 5.0, 4.0], [1, 1, 3]);
        let y = conv.forward(&x, Phase::Eval);
        // window [3,5]: 3−5 = −2 ; window [5,4]: 5−4 = 1 ; plus bias 10
        assert_eq!(y.as_slice(), &[8.0, 11.0]);
    }

    #[test]
    fn table2_first_layer_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv1d::new(12, 32, 13, 1, 0, WeightMode::Real, &mut rng);
        // Paper Table II: 750-sample, 12-lead ECG → 738×1×32.
        assert_eq!(conv.out_shape(&[12, 750]), vec![32, 738]);
    }

    #[test]
    fn binary_mode_signs_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv1d::new(1, 1, 2, 1, 0, WeightMode::Binary, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![0.2, -0.9], [1, 2]);
        let x = Tensor::from_vec(vec![2.0, 6.0], [1, 1, 2]);
        let y = conv.forward(&x, Phase::Eval);
        // sign: [+1, −1] → 2 − 6 = −4
        assert_eq!(y.as_slice(), &[-4.0]);
    }

    #[test]
    fn backward_produces_input_grad_of_right_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv1d::new(3, 5, 4, 2, 1, WeightMode::Real, &mut rng);
        let x = Tensor::randn([2, 3, 12], 1.0, &mut rng);
        let y = conv.forward(&x, Phase::Train);
        let gx = conv.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(gx.dims(), x.dims());
        assert!(conv.weight.grad.norm_sq() > 0.0);
    }

    #[test]
    fn bias_grad_is_sum_over_time_and_batch() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv1d::new(1, 2, 1, 1, 0, WeightMode::Real, &mut rng);
        let x = Tensor::ones([3, 1, 4]);
        let y = conv.forward(&x, Phase::Train);
        let _ = conv.backward(&Tensor::ones(y.shape().clone()));
        // 3 samples × 4 time steps of unit gradient per channel.
        assert_eq!(conv.bias.as_ref().unwrap().grad.as_slice(), &[12.0, 12.0]);
    }
}
