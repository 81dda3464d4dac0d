//! Optimizers: SGD with momentum and Adam.
//!
//! The paper trains the medical models with Adam (§III-A/B) and MobileNet
//! with SGD (§IV). After each step, latent BNN weights are clamped to
//! `[−1, 1]` via [`Param::apply_clamp`] as in Courbariaux et al.

use rbnn_tensor::Tensor;

use crate::Param;

/// A gradient-based parameter updater.
///
/// Optimizer state (momentum/Adam moments) is keyed by parameter position,
/// so the same ordered parameter list must be passed on every step — which
/// holds when iterating a fixed model's `params_mut()`.
pub trait Optimizer {
    /// Applies one update step to the given parameters using their
    /// accumulated gradients, then applies per-parameter clamps.
    fn step(&mut self, params: &mut [&mut Param]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum and optional L2
/// weight decay.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Builder-style momentum coefficient (0.9 is typical).
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Builder-style L2 weight decay, applied only to `Param`s with
    /// `decay == true`.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
        }
        for (i, p) in params.iter_mut().enumerate() {
            // Branchless effective decay keeps the update loop allocation-
            // free and auto-vectorizable (cloning the gradient every step
            // once put the allocator on the training hot path).
            let wd = if self.weight_decay > 0.0 && p.decay {
                self.weight_decay
            } else {
                0.0
            };
            let lr = self.lr;
            if self.momentum > 0.0 {
                let momentum = self.momentum;
                let vs = self.velocity[i].as_mut_slice();
                let gs = p.grad.as_slice();
                let ps = p.value.as_mut_slice();
                for j in 0..gs.len() {
                    let g = gs[j] + wd * ps[j];
                    vs[j] = momentum * vs[j] + g;
                    ps[j] -= lr * vs[j];
                }
            } else {
                let gs = p.grad.as_slice();
                let ps = p.value.as_mut_slice();
                for j in 0..gs.len() {
                    ps[j] -= lr * (gs[j] + wd * ps[j]);
                }
            }
            p.apply_clamp();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// The Adam optimizer (Kingma & Ba), as used for the paper's EEG and ECG
/// trainings.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the given learning rate and standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Builder-style L2 weight decay, applied only to `Param`s with
    /// `decay == true`.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            // Branchless effective decay; all coefficients hoisted into
            // locals so the moment-update loop stays allocation-free and
            // auto-vectorizes (sqrt and division both lower to SIMD).
            let wd = if self.weight_decay > 0.0 && p.decay {
                self.weight_decay
            } else {
                0.0
            };
            let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
            let (ms, vs, gs, ps) = (
                self.m[i].as_mut_slice(),
                self.v[i].as_mut_slice(),
                p.grad.as_slice(),
                p.value.as_mut_slice(),
            );
            for j in 0..gs.len() {
                let g = gs[j] + wd * ps[j];
                ms[j] = b1 * ms[j] + (1.0 - b1) * g;
                vs[j] = b2 * vs[j] + (1.0 - b2) * g * g;
                let mhat = ms[j] / bc1;
                let vhat = vs[j] / bc2;
                ps[j] -= lr * mhat / (vhat.sqrt() + eps);
            }
            p.apply_clamp();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = ‖w − target‖² with the given optimizer; returns the
    /// final squared distance.
    fn optimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let target = Tensor::from_vec(vec![3.0, -2.0, 0.5], [3]);
        let mut p = Param::new(Tensor::zeros([3]));
        for _ in 0..steps {
            p.zero_grad();
            // ∇ = 2(w − target)
            let diff = &p.value - &target;
            p.grad = &diff * 2.0;
            opt.step(&mut [&mut p]);
        }
        (&p.value - &target).norm_sq()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(optimize(&mut opt, 100) < 1e-6);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        assert!(optimize(&mut opt, 200) < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(optimize(&mut opt, 300) < 1e-4);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0], [1]));
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        // Zero task gradient: only decay acts.
        opt.step(&mut [&mut p]);
        assert!(p.value.as_slice()[0] < 1.0);
    }

    #[test]
    fn no_decay_params_are_exempt() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0], [1])).no_decay();
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        opt.step(&mut [&mut p]);
        assert_eq!(p.value.as_slice()[0], 1.0);
    }

    #[test]
    fn clamp_applied_after_step() {
        let mut p = Param::new(Tensor::from_vec(vec![0.95], [1])).with_clamp(-1.0, 1.0);
        p.grad = Tensor::from_vec(vec![-10.0], [1]);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p]);
        // Unclamped would be 0.95 + 1.0 = 1.95.
        assert_eq!(p.value.as_slice()[0], 1.0);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }
}
