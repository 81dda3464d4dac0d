//! Batch normalization over the channel axis.
//!
//! BatchNorm is load-bearing for BNNs: in the binarized setting the learned
//! affine transform before each `sign` activation *is* the neuron threshold
//! `b` of Eq. 3, and at deployment time `rbnn-binary` folds it into an
//! integer popcount threshold. The paper's ECG model batch-normalizes after
//! every convolution/linear layer (§III-B).

use rbnn_tensor::{Scratch, Tensor};

use crate::{Layer, Param, Phase};

/// Batch normalization for `[N, C]`, `[N, C, L]` or `[N, C, H, W]` tensors,
/// normalizing each channel over the batch and all spatial positions.
#[derive(Debug)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    channels: usize,
    momentum: f32,
    eps: f32,
    // Backward cache (persistent buffers, refreshed in place each batch).
    cached_xhat: Tensor,
    cached_inv_std: Vec<f32>,
    cached_dims: Vec<usize>,
    cache_valid: bool,
}

impl BatchNorm {
    /// Creates a BatchNorm layer for `channels` channels with momentum 0.1
    /// and epsilon 1e−5 (the conventional defaults).
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::ones([channels])).no_decay(),
            beta: Param::new(Tensor::zeros([channels])).no_decay(),
            running_mean: Tensor::zeros([channels]),
            running_var: Tensor::ones([channels]),
            channels,
            momentum: 0.1,
            eps: 1e-5,
            cached_xhat: Tensor::default(),
            cached_inv_std: Vec::new(),
            cached_dims: Vec::new(),
            cache_valid: false,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Inference-time affine coefficients `(scale, shift)` per channel such
    /// that `y = scale · x + shift`. This is what gets folded into integer
    /// thresholds when deploying a BNN (see `rbnn-binary`).
    pub fn inference_coefficients(&self) -> (Vec<f32>, Vec<f32>) {
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();
        let m = self.running_mean.as_slice();
        let v = self.running_var.as_slice();
        let mut scale = Vec::with_capacity(self.channels);
        let mut shift = Vec::with_capacity(self.channels);
        for c in 0..self.channels {
            let s = g[c] / (v[c] + self.eps).sqrt();
            scale.push(s);
            shift.push(b[c] - s * m[c]);
        }
        (scale, shift)
    }

    /// Overrides the running statistics (used by tests and model surgery).
    ///
    /// # Panics
    ///
    /// Panics if the vectors are not `channels` long.
    pub fn set_running_stats(&mut self, mean: Vec<f32>, var: Vec<f32>) {
        assert_eq!(mean.len(), self.channels);
        assert_eq!(var.len(), self.channels);
        self.running_mean = Tensor::from_vec(mean, [self.channels]);
        self.running_var = Tensor::from_vec(var, [self.channels]);
    }

    /// `(N, C, S)` view dimensions of an input tensor: batch, channels,
    /// spatial positions per channel.
    fn view_dims(&self, x: &Tensor) -> (usize, usize, usize) {
        let dims = x.dims();
        assert!(
            (2..=4).contains(&dims.len()),
            "BatchNorm expects [N,C], [N,C,L] or [N,C,H,W], got {:?}",
            dims
        );
        let n = dims[0];
        let c = dims[1];
        assert_eq!(c, self.channels, "BatchNorm: channel mismatch");
        let s: usize = dims[2..].iter().product();
        (n, c, s.max(1))
    }
}

impl Layer for BatchNorm {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        let (n, c, s) = self.view_dims(x);
        let xs = x.as_slice();
        let mut out = scratch.tensor_for_overwrite(x.shape().clone());
        let os = out.as_mut_slice();
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();

        if phase.is_train() {
            let count = (n * s) as f32;
            self.cached_xhat.resize_for_overwrite(x.shape().clone());
            let xh = self.cached_xhat.as_mut_slice();
            let inv_stds = &mut self.cached_inv_std;
            inv_stds.clear();
            inv_stds.reserve(c);
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
                let inv_std = 1.0 / (var + self.eps).sqrt();
                inv_stds.push(inv_std);
                for i in 0..n {
                    let base = (i * c + ch) * s;
                    for t in 0..s {
                        let h = (xs[base + t] - mean) * inv_std;
                        xh[base + t] = h;
                        os[base + t] = g[ch] * h + b[ch];
                    }
                }
                // Exponential running statistics.
                let rm = &mut self.running_mean.as_mut_slice()[ch];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                let rv = &mut self.running_var.as_mut_slice()[ch];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
            }
            self.cached_dims.clear();
            self.cached_dims.extend_from_slice(x.dims());
            self.cache_valid = true;
        } else {
            let m = self.running_mean.as_slice();
            let v = self.running_var.as_slice();
            for ch in 0..c {
                let inv_std = 1.0 / (v[ch] + self.eps).sqrt();
                for i in 0..n {
                    let base = (i * c + ch) * s;
                    for t in 0..s {
                        os[base + t] = g[ch] * (xs[base + t] - m[ch]) * inv_std + b[ch];
                    }
                }
            }
        }
        out
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert!(
            self.cache_valid,
            "BatchNorm::backward called without forward(Phase::Train)"
        );
        self.cache_valid = false;
        let inv_stds = &self.cached_inv_std;
        let dims = &self.cached_dims;
        let n = dims[0];
        let c = dims[1];
        let s: usize = dims[2..].iter().product::<usize>().max(1);
        let count = (n * s) as f32;

        let gs = grad_out.as_slice();
        let xh = self.cached_xhat.as_slice();
        let g = self.gamma.value.as_slice();

        let mut grad_x = scratch.tensor_for_overwrite(grad_out.shape().clone());
        let gx = grad_x.as_mut_slice();
        for ch in 0..c {
            // Accumulate dγ, dβ and the two batch statistics the input
            // gradient needs.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for i in 0..n {
                let base = (i * c + ch) * s;
                for t in 0..s {
                    let dy = gs[base + t];
                    sum_dy += dy;
                    sum_dy_xhat += dy * xh[base + t];
                }
            }
            self.beta.grad.as_mut_slice()[ch] += sum_dy;
            self.gamma.grad.as_mut_slice()[ch] += sum_dy_xhat;

            let k = g[ch] * inv_stds[ch];
            let mean_dy = sum_dy / count;
            let mean_dy_xhat = sum_dy_xhat / count;
            for i in 0..n {
                let base = (i * c + ch) * s;
                for t in 0..s {
                    gx[base + t] = k * (gs[base + t] - mean_dy - xh[base + t] * mean_dy_xhat);
                }
            }
        }
        grad_x
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        in_shape.to_vec()
    }

    fn name(&self) -> String {
        format!("BatchNorm({})", self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_batch_to_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm::new(3);
        let x = Tensor::randn([16, 3, 7], 2.0, &mut rng);
        let y = bn.forward(&x, Phase::Train);
        // Per channel: mean ≈ 0, var ≈ 1.
        let (n, c, s) = (16, 3, 7);
        let ys = y.as_slice();
        for ch in 0..c {
            let mut vals = Vec::new();
            for i in 0..n {
                let base = (i * c + ch) * s;
                vals.extend_from_slice(&ys[base..base + s]);
            }
            let t = Tensor::from_vec(vals, [n * s]);
            assert!(t.mean().abs() < 1e-4, "channel {ch} mean {}", t.mean());
            assert!(
                (t.variance() - 1.0).abs() < 1e-2,
                "channel {ch} var {}",
                t.variance()
            );
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        bn.set_running_stats(vec![10.0], vec![4.0]);
        let x = Tensor::from_vec(vec![10.0, 12.0], [2, 1]);
        let y = bn.forward(&x, Phase::Eval);
        // (10−10)/2 = 0, (12−10)/2 ≈ 1.
        assert!((y.as_slice()[0] - 0.0).abs() < 1e-3);
        assert!((y.as_slice()[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn inference_coefficients_match_eval_forward() {
        let mut bn = BatchNorm::new(2);
        bn.set_running_stats(vec![1.0, -2.0], vec![4.0, 0.25]);
        bn.gamma.value = Tensor::from_vec(vec![2.0, -1.0], [2]);
        bn.beta.value = Tensor::from_vec(vec![0.5, 1.0], [2]);
        let (scale, shift) = bn.inference_coefficients();
        let x = Tensor::from_vec(vec![3.0, 7.0], [1, 2]);
        let y = bn.forward(&x, Phase::Eval);
        for ch in 0..2 {
            let expect = scale[ch] * x.as_slice()[ch] + shift[ch];
            assert!(
                (y.as_slice()[ch] - expect).abs() < 1e-4,
                "channel {ch}: {} vs {}",
                y.as_slice()[ch],
                expect
            );
        }
    }

    #[test]
    fn running_stats_converge_to_data_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm::new(1);
        for _ in 0..200 {
            let x = &Tensor::randn([32, 1], 1.0, &mut rng) + 5.0;
            let _ = bn.forward(&x, Phase::Train);
        }
        let m = bn.running_mean.as_slice()[0];
        let v = bn.running_var.as_slice()[0];
        assert!((m - 5.0).abs() < 0.2, "running mean {m}");
        assert!((v - 1.0).abs() < 0.3, "running var {v}");
    }

    #[test]
    fn backward_gradient_sums() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm::new(2);
        let x = Tensor::randn([8, 2, 3], 1.0, &mut rng);
        let _ = bn.forward(&x, Phase::Train);
        let gx = bn.backward(&Tensor::ones([8, 2, 3]));
        assert_eq!(gx.dims(), &[8, 2, 3]);
        // β gradient is the plain sum of output gradients: 8·3 per channel.
        assert_eq!(bn.beta.grad.as_slice(), &[24.0, 24.0]);
        // Input gradient of BN under constant dy is ~0 (dy − mean(dy) = 0).
        assert!(
            gx.norm_sq() < 1e-6,
            "constant grad should vanish, got {}",
            gx.norm_sq()
        );
    }

    #[test]
    fn works_on_2d_feature_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bn = BatchNorm::new(5);
        let x = Tensor::randn([10, 5], 1.0, &mut rng);
        let y = bn.forward(&x, Phase::Train);
        assert_eq!(y.dims(), &[10, 5]);
        let gx = bn.backward(&Tensor::randn([10, 5], 1.0, &mut rng));
        assert_eq!(gx.dims(), &[10, 5]);
    }
}
