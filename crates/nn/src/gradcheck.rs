//! Finite-difference gradient checking for layers.
//!
//! Exposed as a public module so every layer implementation in this crate —
//! and any downstream custom layer — can be validated against central
//! finite differences with one call. Used extensively by this crate's own
//! test-suite.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbnn_tensor::Tensor;

use crate::{Layer, Phase};

/// Result of one gradient check: the largest absolute deviation between the
/// analytic and numeric derivative, separately for the input and for each
/// parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Max |analytic − numeric| over input coordinates.
    pub max_input_err: f32,
    /// Max |analytic − numeric| per parameter tensor.
    pub max_param_errs: Vec<f32>,
}

impl GradCheckReport {
    /// The largest error anywhere.
    pub fn worst(&self) -> f32 {
        self.max_param_errs
            .iter()
            .copied()
            .fold(self.max_input_err, f32::max)
    }
}

/// Checks a layer's analytic gradients against central finite differences.
///
/// The scalar objective is `L = Σ r ⊙ layer(x)` for a fixed random
/// coefficient tensor `r`, so `∂L/∂y = r` is fed to `backward`. Uses `eps`
/// for the symmetric difference. Numeric probes run in [`Phase::Train`] so
/// layers whose train- and eval-time functions differ (BatchNorm) are
/// checked against the function the analytic gradient belongs to; the only
/// train-phase side effects (running-statistics updates) do not influence
/// the probed output. Stochastic layers (dropout) cannot be checked this
/// way; check deterministic layers only.
///
/// # Panics
///
/// Panics if the layer mutates shapes between identical forward calls.
pub fn check_layer(
    layer: &mut dyn Layer,
    input_dims: &[usize],
    eps: f32,
    seed: u64,
) -> GradCheckReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Tensor::randn(input_dims, 1.0, &mut rng);

    // Reference forward to size the coefficient tensor.
    let y0 = layer.forward(&x, Phase::Train);
    let r = Tensor::randn(y0.shape().clone(), 1.0, &mut rng);

    // Analytic pass.
    layer.zero_grad();
    let _ = layer.forward(&x, Phase::Train);
    let gx = layer.backward(&r);
    let analytic_param_grads: Vec<Tensor> = layer.params().iter().map(|p| p.grad.clone()).collect();

    // Numeric input gradient.
    let mut max_input_err = 0.0f32;
    let mut xp = x.clone();
    for i in 0..x.numel() {
        let orig = xp.as_slice()[i];
        xp.as_mut_slice()[i] = orig + eps;
        let fp = layer.forward(&xp, Phase::Train).dot(&r);
        xp.as_mut_slice()[i] = orig - eps;
        let fm = layer.forward(&xp, Phase::Train).dot(&r);
        xp.as_mut_slice()[i] = orig;
        let numeric = (fp - fm) / (2.0 * eps);
        max_input_err = max_input_err.max((numeric - gx.as_slice()[i]).abs());
    }

    // Numeric parameter gradients, one parameter tensor at a time.
    let n_params = analytic_param_grads.len();
    let mut max_param_errs = Vec::with_capacity(n_params);
    for (pi, analytic) in analytic_param_grads.iter().enumerate() {
        let numel = layer.params()[pi].numel();
        let mut worst = 0.0f32;
        for j in 0..numel {
            let orig = layer.params()[pi].value.as_slice()[j];
            layer.params_mut()[pi].value.as_mut_slice()[j] = orig + eps;
            let fp = layer.forward(&x, Phase::Train).dot(&r);
            layer.params_mut()[pi].value.as_mut_slice()[j] = orig - eps;
            let fm = layer.forward(&x, Phase::Train).dot(&r);
            layer.params_mut()[pi].value.as_mut_slice()[j] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            worst = worst.max((numeric - analytic.as_slice()[j]).abs());
        }
        max_param_errs.push(worst);
    }

    GradCheckReport {
        max_input_err,
        max_param_errs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Activation, BatchNorm, Conv1d, Conv2d, Dense, DepthwiseConv2d, Flatten, GlobalAvgPool2d,
        Pool1d, Pool2d, PoolKind, WeightMode,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f32 = 5e-3;
    const TOL: f32 = 2e-2;

    #[test]
    fn dense_real_gradients() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(6, 4, WeightMode::Real, &mut rng);
        let report = check_layer(&mut layer, &[3, 6], EPS, 1);
        assert!(report.worst() < TOL, "worst err {}", report.worst());
    }

    #[test]
    fn conv1d_real_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Conv1d::new(2, 3, 4, 2, 1, WeightMode::Real, &mut rng);
        let report = check_layer(&mut layer, &[2, 2, 11], EPS, 3);
        assert!(report.worst() < TOL, "worst err {}", report.worst());
    }

    #[test]
    fn conv2d_real_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Conv2d::new(2, 3, (3, 2), (2, 1), (1, 0), WeightMode::Real, &mut rng);
        let report = check_layer(&mut layer, &[2, 2, 7, 5], EPS, 5);
        assert!(report.worst() < TOL, "worst err {}", report.worst());
    }

    #[test]
    fn depthwise_conv2d_gradients() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = DepthwiseConv2d::new(3, (3, 3), (1, 1), (1, 1), WeightMode::Real, &mut rng);
        let report = check_layer(&mut layer, &[2, 3, 5, 5], EPS, 7);
        assert!(report.worst() < TOL, "worst err {}", report.worst());
    }

    #[test]
    fn batchnorm_gradients() {
        let mut layer = BatchNorm::new(3);
        let report = check_layer(&mut layer, &[8, 3, 4], EPS, 9);
        assert!(report.worst() < TOL, "worst err {}", report.worst());
    }

    #[test]
    fn activation_gradients() {
        for kind in [crate::ActivationKind::Relu, crate::ActivationKind::HardTanh] {
            let mut layer = Activation::new(kind);
            let report = check_layer(&mut layer, &[4, 6], 1e-3, 10);
            // Kinks make isolated coordinates unreliable; the vast majority
            // must match. Use a slightly looser tolerance.
            assert!(
                report.worst() < 0.6,
                "{kind:?} worst err {}",
                report.worst()
            );
        }
    }

    #[test]
    fn pooling_gradients() {
        let mut p1 = Pool1d::new(PoolKind::Avg, 3, 2);
        let r1 = check_layer(&mut p1, &[2, 2, 9], EPS, 11);
        assert!(r1.worst() < TOL, "avg pool1d err {}", r1.worst());

        let mut p2 = Pool2d::new(PoolKind::Avg, (2, 2), (2, 2));
        let r2 = check_layer(&mut p2, &[2, 2, 4, 4], EPS, 12);
        assert!(r2.worst() < TOL, "avg pool2d err {}", r2.worst());

        let mut g = GlobalAvgPool2d::new();
        let r3 = check_layer(&mut g, &[2, 3, 4, 4], EPS, 13);
        assert!(r3.worst() < TOL, "gap err {}", r3.worst());
    }

    #[test]
    fn max_pool_gradients() {
        // Max pooling is piecewise linear; random inputs rarely sit on ties.
        let mut p = Pool1d::max(2);
        let r = check_layer(&mut p, &[2, 2, 8], 1e-3, 14);
        assert!(r.worst() < 0.1, "max pool err {}", r.worst());
    }

    #[test]
    fn flatten_gradients() {
        let mut f = Flatten::new();
        let r = check_layer(&mut f, &[3, 2, 4], EPS, 15);
        assert!(r.worst() < 1e-3, "flatten err {}", r.worst());
    }

    #[test]
    fn dropout_gradients() {
        // Stochastic masks cannot be finite-differenced, but keep = 1 is
        // the deterministic identity limit and must check exactly — this
        // pins the layer's gradient plumbing (mask bookkeeping, scratch
        // buffers) without the randomness.
        let mut d = crate::Dropout::new(1.0, 0);
        let r = check_layer(&mut d, &[4, 9], EPS, 16);
        assert!(r.worst() < 1e-3, "dropout err {}", r.worst());
    }

    #[test]
    fn sequential_gradients() {
        // The container must chain forward caches and backward gradients
        // correctly across a mixed real/binary stack.
        let mut rng = StdRng::seed_from_u64(16);
        let mut seq = crate::Sequential::new();
        seq.push(Dense::new(5, 7, WeightMode::Real, &mut rng));
        seq.push(Activation::new(crate::ActivationKind::HardTanh));
        seq.push(BatchNorm::new(7));
        seq.push(Dense::new(7, 3, WeightMode::Real, &mut rng));
        let r = check_layer(&mut seq, &[4, 5], EPS, 17);
        assert!(r.worst() < TOL, "sequential err {}", r.worst());
    }

    #[test]
    fn split_model_gradients() {
        // SplitModel chains a conv feature section into a dense
        // classifier; both sections' parameter gradients must survive the
        // boundary.
        let mut rng = StdRng::seed_from_u64(18);
        let mut features = crate::Sequential::new();
        features.push(Conv1d::new(2, 3, 3, 1, 0, WeightMode::Real, &mut rng));
        features.push(Activation::new(crate::ActivationKind::HardTanh));
        features.push(Flatten::new());
        let mut classifier = crate::Sequential::new();
        classifier.push(Dense::new(3 * 5, 2, WeightMode::Real, &mut rng));
        let mut model = crate::SplitModel::new(features, classifier);
        let r = check_layer(&mut model, &[2, 2, 7], EPS, 19);
        assert!(r.worst() < TOL, "split model err {}", r.worst());
    }

    /// `backward_root_with` may skip producing the input gradient (nothing
    /// consumes it at the root of a fit step) but must accumulate
    /// parameter gradients *bitwise* identical to the full backward pass —
    /// this is what lets the training loop use it blindly.
    #[test]
    fn backward_root_param_gradients_match_full_backward() {
        use rbnn_tensor::Scratch;

        let build = || {
            let mut rng = StdRng::seed_from_u64(20);
            let mut features = crate::Sequential::new();
            features.push(Conv1d::new(2, 4, 3, 1, 1, WeightMode::Real, &mut rng));
            features.push(BatchNorm::new(4));
            features.push(Activation::new(crate::ActivationKind::Relu));
            features.push(Flatten::new());
            let mut classifier = crate::Sequential::new();
            classifier.push(Dense::new(4 * 9, 6, WeightMode::Binary, &mut rng).without_bias());
            classifier.push(BatchNorm::new(6));
            classifier.push(Dense::new(6, 3, WeightMode::Real, &mut rng));
            crate::SplitModel::new(features, classifier)
        };
        let mut rng = StdRng::seed_from_u64(21);
        let x = rbnn_tensor::Tensor::randn([5, 2, 9], 1.0, &mut rng);
        let grad = rbnn_tensor::Tensor::randn([5, 3], 1.0, &mut rng);

        let mut full = build();
        let mut root = build();
        let mut scratch = Scratch::new();
        full.zero_grad();
        let _ = full.forward_with(&x, Phase::Train, &mut scratch);
        let _ = full.backward_with(&grad, &mut scratch);
        root.zero_grad();
        let _ = root.forward_with(&x, Phase::Train, &mut scratch);
        let _ = root.backward_with(&grad, &mut scratch);
        // Second pass through each path so caches are warm in both.
        full.zero_grad();
        let _ = full.forward_with(&x, Phase::Train, &mut scratch);
        let gx = full.backward_with(&grad, &mut scratch);
        assert_eq!(gx.dims(), &[5, 2, 9], "full pass returns input gradient");
        root.zero_grad();
        let _ = root.forward_with(&x, Phase::Train, &mut scratch);
        let _ = root.backward_root_with(&grad, &mut scratch);

        let full_params = full.params();
        let root_params = root.params();
        assert_eq!(full_params.len(), root_params.len());
        assert!(!full_params.is_empty());
        for (i, (a, b)) in full_params.iter().zip(&root_params).enumerate() {
            let ga: Vec<u32> = a.grad.as_slice().iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = b.grad.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ga, gb, "param {i} gradient diverged under root backward");
        }
    }
}
