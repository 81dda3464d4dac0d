//! Activation layers: ReLU, HardTanh and the binarizing sign activation.
//!
//! The paper uses ReLU (EEG model) or hardtanh (ECG model) in the real-weight
//! networks and replaces them with `sign` in the binarized setting (§III).
//! The sign activation trains with the straight-through estimator: gradients
//! pass where `|x| ≤ 1` and are blocked outside, exactly the hardtanh
//! derivative.

use rbnn_tensor::{Scratch, Tensor};

use crate::{Layer, Phase};

/// Which pointwise nonlinearity an [`Activation`] layer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `clamp(x, −1, 1)`.
    HardTanh,
    /// `sign(x) ∈ {−1, +1}` with straight-through gradient (BNN activation).
    SignSte,
}

/// A stateless pointwise activation layer.
///
/// ```
/// use rbnn_nn::{Activation, ActivationKind, Layer, Phase};
/// use rbnn_tensor::Tensor;
///
/// let mut act = Activation::new(ActivationKind::SignSte);
/// let y = act.forward(&Tensor::from_vec(vec![-0.3, 0.0, 2.5], &[1, 3]), Phase::Eval);
/// assert_eq!(y.as_slice(), &[-1.0, 1.0, 1.0]);
/// ```
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    cached_input: Tensor,
    cache_valid: bool,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            cached_input: Tensor::default(),
            cache_valid: false,
        }
    }

    /// Convenience constructor for ReLU.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    /// Convenience constructor for hardtanh.
    pub fn hardtanh() -> Self {
        Self::new(ActivationKind::HardTanh)
    }

    /// Convenience constructor for the BNN sign activation.
    pub fn sign_ste() -> Self {
        Self::new(ActivationKind::SignSte)
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn forward_with(&mut self, x: &Tensor, phase: Phase, scratch: &mut Scratch) -> Tensor {
        if phase.is_train() {
            self.cached_input.copy_from(x);
            self.cache_valid = true;
        }
        let mut y = scratch.tensor_for_overwrite(x.shape().clone());
        let f: fn(f32) -> f32 = match self.kind {
            ActivationKind::Relu => |v| v.max(0.0),
            ActivationKind::HardTanh => |v| v.clamp(-1.0, 1.0),
            ActivationKind::SignSte => |v| if v >= 0.0 { 1.0 } else { -1.0 },
        };
        for (d, &v) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *d = f(v);
        }
        y
    }

    fn backward_with(&mut self, grad_out: &Tensor, scratch: &mut Scratch) -> Tensor {
        assert!(
            self.cache_valid,
            "Activation::backward called without forward(Phase::Train)"
        );
        self.cache_valid = false;
        let mut gx = scratch.tensor_for_overwrite(grad_out.shape().clone());
        let pass: fn(f32) -> bool = match self.kind {
            ActivationKind::Relu => |xi| xi > 0.0,
            // HardTanh and SignSte share the straight-through window |x| ≤ 1.
            ActivationKind::HardTanh | ActivationKind::SignSte => |xi| xi.abs() <= 1.0,
        };
        for ((d, &xi), &g) in gx
            .as_mut_slice()
            .iter_mut()
            .zip(self.cached_input.as_slice())
            .zip(grad_out.as_slice())
        {
            *d = if pass(xi) { g } else { 0.0 };
        }
        gx
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        in_shape.to_vec()
    }

    fn name(&self) -> String {
        match self.kind {
            ActivationKind::Relu => "ReLU".into(),
            ActivationKind::HardTanh => "HardTanh".into(),
            ActivationKind::SignSte => "Sign".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut a = Activation::relu();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [1, 3]);
        let y = a.forward(&x, Phase::Train);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = a.backward(&Tensor::ones([1, 3]));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn hardtanh_clamps_and_gates_gradient() {
        let mut a = Activation::hardtanh();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.5, 2.0], [1, 4]);
        let y = a.forward(&x, Phase::Train);
        assert_eq!(y.as_slice(), &[-1.0, -0.5, 0.5, 1.0]);
        let g = a.backward(&Tensor::ones([1, 4]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn sign_ste_outputs_pm1_and_uses_hardtanh_grad() {
        let mut a = Activation::sign_ste();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 2.0], [1, 4]);
        let y = a.forward(&x, Phase::Train);
        assert_eq!(y.as_slice(), &[-1.0, -1.0, 1.0, 1.0]);
        let g = a.backward(&Tensor::full([1, 4], 3.0));
        assert_eq!(g.as_slice(), &[0.0, 3.0, 3.0, 0.0]);
    }

    #[test]
    fn eval_phase_does_not_cache() {
        let mut a = Activation::relu();
        let _ = a.forward(&Tensor::ones([1, 2]), Phase::Eval);
        assert!(!a.cache_valid);
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn backward_without_forward_panics() {
        let mut a = Activation::relu();
        let _ = a.backward(&Tensor::ones([1, 2]));
    }

    #[test]
    fn shape_passthrough_and_names() {
        let a = Activation::sign_ste();
        assert_eq!(a.out_shape(&[40, 961, 1]), vec![40, 961, 1]);
        assert_eq!(a.name(), "Sign");
        assert_eq!(a.param_count(), 0);
    }
}
