//! Exporting a trained binarized classifier to the deployment engine.
//!
//! A classifier trained with `rbnn-nn` in [`WeightMode::Binary`] is a chain
//! of `Dense → BatchNorm → Sign` groups (dropout interspersed, identity at
//! inference). This module walks such a [`Sequential`], extracts the sign of
//! the latent weights and the BatchNorm inference coefficients, and packs
//! them into a [`BinaryNetwork`] whose integer-only forward pass is
//! *bit-exact* with the float evaluation-mode forward of the training graph
//! on ±1 inputs.

use std::error::Error;
use std::fmt;

use rbnn_nn::{
    Activation, ActivationKind, BatchNorm, Dense, Dropout, Layer, Sequential, WeightMode,
};

use crate::{BinaryDense, BinaryNetwork};

/// Why a classifier could not be exported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// A dense layer still has real-valued weight mode.
    NotBinarized(String),
    /// A dense layer is not followed by BatchNorm.
    MissingBatchNorm(String),
    /// A layer type the deployment engine does not support was found.
    Unsupported(String),
    /// The classifier contains no dense layers at all.
    Empty,
    /// An activation other than sign sits between binarized layers.
    WrongActivation(String),
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::NotBinarized(l) => {
                write!(
                    f,
                    "layer {l} has real weights; train with WeightMode::Binary"
                )
            }
            ExportError::MissingBatchNorm(l) => {
                write!(
                    f,
                    "layer {l} is not followed by BatchNorm; the threshold fold needs it"
                )
            }
            ExportError::Unsupported(l) => write!(f, "unsupported layer {l} in classifier"),
            ExportError::Empty => write!(f, "classifier contains no dense layers"),
            ExportError::WrongActivation(l) => {
                write!(f, "activation {l} between binarized layers must be sign")
            }
        }
    }
}

impl Error for ExportError {}

/// Exports a trained binarized classifier (`Dense(binary) → BatchNorm →
/// Sign …` chain, dropout allowed) into a [`BinaryNetwork`].
///
/// # Errors
///
/// Returns an [`ExportError`] when the sequential does not have the expected
/// deployable structure.
pub fn export_classifier(classifier: &Sequential) -> Result<BinaryNetwork, ExportError> {
    let mut packed: Vec<BinaryDense> = Vec::new();
    let mut pending: Option<&Dense> = None;

    for layer in classifier.layers() {
        let any = layer.as_any();
        if any.downcast_ref::<Dropout>().is_some() {
            continue; // identity at inference
        }
        if let Some(dense) = any.downcast_ref::<Dense>() {
            if pending.is_some() {
                return Err(ExportError::MissingBatchNorm(dense.name()));
            }
            if dense.mode() != WeightMode::Binary {
                return Err(ExportError::NotBinarized(dense.name()));
            }
            pending = Some(dense);
            continue;
        }
        if let Some(bn) = any.downcast_ref::<BatchNorm>() {
            let dense = pending
                .take()
                .ok_or_else(|| ExportError::Unsupported(bn.name()))?;
            let (scale, shift) = bn.inference_coefficients();
            let mut weights = dense.effective_weight();
            if let Some(bias) = dense.bias_value() {
                // A bias before BN would break the pure popcount datapath;
                // builders use bias-free dense layers. Tolerate zero biases.
                if bias.norm_sq() > 0.0 {
                    return Err(ExportError::Unsupported(format!(
                        "{} has a non-zero bias; use bias-free dense layers before BatchNorm",
                        dense.name()
                    )));
                }
            }
            // Defensive: make sure the packed weights are pure signs.
            weights.map_in_place(|w| if w >= 0.0 { 1.0 } else { -1.0 });
            packed.push(BinaryDense::from_sign_tensor(&weights, scale, shift));
            continue;
        }
        if let Some(act) = any.downcast_ref::<Activation>() {
            if act.kind() != ActivationKind::SignSte {
                return Err(ExportError::WrongActivation(act.name()));
            }
            continue;
        }
        return Err(ExportError::Unsupported(layer.name()));
    }
    if let Some(dense) = pending {
        return Err(ExportError::MissingBatchNorm(dense.name()));
    }
    if packed.is_empty() {
        return Err(ExportError::Empty);
    }
    Ok(BinaryNetwork::new(packed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rbnn_nn::{Phase, WeightMode};
    use rbnn_tensor::Tensor;

    /// Builds a trained-looking binarized classifier with warmed BatchNorm
    /// running statistics.
    fn trained_classifier(rng: &mut StdRng) -> Sequential {
        let mut seq = Sequential::new();
        seq.push(Dense::new(16, 8, WeightMode::Binary, rng).without_bias());
        seq.push(BatchNorm::new(8));
        seq.push(Activation::sign_ste());
        seq.push(Dense::new(8, 3, WeightMode::Binary, rng).without_bias());
        seq.push(BatchNorm::new(3));
        // Warm running stats with a few train-phase passes.
        for _ in 0..50 {
            let x = Tensor::randn([16, 16], 1.0, rng).signum_binary();
            let _ = seq.forward(&x, Phase::Train);
        }
        seq
    }

    #[test]
    fn exported_network_matches_float_graph_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seq = trained_classifier(&mut rng);
        let net = export_classifier(&seq).expect("export");
        assert_eq!(net.in_features(), 16);
        assert_eq!(net.out_features(), 3);

        for _ in 0..50 {
            let xin: Vec<f32> = (0..16)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let x = Tensor::from_vec(xin.clone(), [1, 16]);
            let float_logits = seq.forward(&x, Phase::Eval);
            let bit_logits = net.logits(&xin);
            assert_eq!(float_logits.as_slice().len(), 3);
            assert_eq!(bit_logits.len(), 3);
            for (c, (&f, &b)) in float_logits.as_slice().iter().zip(&bit_logits).enumerate() {
                assert!(
                    (f - b).abs() < 1e-3,
                    "logit {c} differs: float {f} vs bits {b}"
                );
            }
            // Argmax must agree exactly.
            let float_arg = float_logits.index_axis0(0).argmax();
            assert_eq!(float_arg, net.classify(&xin));
        }
    }

    #[test]
    fn dropout_is_ignored() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seq = Sequential::new();
        seq.push(Dropout::new(0.85, 0));
        seq.push(Dense::new(4, 2, WeightMode::Binary, &mut rng).without_bias());
        seq.push(BatchNorm::new(2));
        let net = export_classifier(&seq).expect("export");
        assert_eq!(net.layers().len(), 1);
    }

    #[test]
    fn real_weights_are_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seq = Sequential::new();
        seq.push(Dense::new(4, 2, WeightMode::Real, &mut rng).without_bias());
        seq.push(BatchNorm::new(2));
        assert!(matches!(
            export_classifier(&seq),
            Err(ExportError::NotBinarized(_))
        ));
    }

    #[test]
    fn missing_batchnorm_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seq = Sequential::new();
        seq.push(Dense::new(4, 2, WeightMode::Binary, &mut rng).without_bias());
        assert!(matches!(
            export_classifier(&seq),
            Err(ExportError::MissingBatchNorm(_))
        ));
    }

    #[test]
    fn relu_activation_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seq = Sequential::new();
        seq.push(Dense::new(4, 4, WeightMode::Binary, &mut rng).without_bias());
        seq.push(BatchNorm::new(4));
        seq.push(Activation::relu());
        seq.push(Dense::new(4, 2, WeightMode::Binary, &mut rng).without_bias());
        seq.push(BatchNorm::new(2));
        assert!(matches!(
            export_classifier(&seq),
            Err(ExportError::WrongActivation(_))
        ));
    }

    #[test]
    fn empty_classifier_is_rejected() {
        let seq = Sequential::new();
        assert_eq!(export_classifier(&seq), Err(ExportError::Empty));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ExportError::NotBinarized("Dense(4→2)".into());
        assert!(e.to_string().contains("WeightMode::Binary"));
    }
}
