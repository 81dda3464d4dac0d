//! A deployed multi-layer binarized network.

use rbnn_tensor::BitVec;

use crate::BinaryDense;

/// A stack of [`BinaryDense`] layers: every layer but the last produces
/// binary activations through integer thresholds; the last layer produces
/// float logits for the argmax (the classifier of the paper's Fig 5
/// architecture).
///
/// Evaluation here is single-sample: it is the scalar oracle every batched
/// path is checked against. Batched evaluation compiles the network into an
/// `rbnn_graph::ExecPlan`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryNetwork {
    layers: Vec<BinaryDense>,
}

impl BinaryNetwork {
    /// Assembles a network and validates the layer chain.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive dimensions disagree.
    pub fn new(layers: Vec<BinaryDense>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_features(),
                pair[1].in_features(),
                "layer chain dimension mismatch"
            );
        }
        Self { layers }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output class count.
    pub fn out_features(&self) -> usize {
        self.layers.last().expect("non-empty").out_features()
    }

    /// The layers, in forward order.
    pub fn layers(&self) -> &[BinaryDense] {
        &self.layers
    }

    /// Mutable layers — the fault-injection hook for the RRAM experiments.
    pub fn layers_mut(&mut self) -> &mut [BinaryDense] {
        &mut self.layers
    }

    /// Total stored weight bits (= RRAM synapses = 2× RRAM devices in the
    /// 2T2R encoding).
    pub fn weight_bits(&self) -> usize {
        self.layers.iter().map(|l| l.weight_bits()).sum()
    }

    /// Logits for an already-binarized input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from `in_features()`.
    pub fn logits_bits(&self, x: &BitVec) -> Vec<f32> {
        let (hidden, last) = self.layers.split_at(self.layers.len() - 1);
        let mut h = x.clone();
        for layer in hidden {
            h = layer.forward_sign(&h);
        }
        last[0].forward_affine(&h)
    }

    /// Logits for a real-valued feature vector, binarized by sign at the
    /// input (the hardware's input interface: the deployed binarized
    /// classifier sees only the signs of the feature extractor's outputs).
    pub fn logits(&self, x: &[f32]) -> Vec<f32> {
        self.logits_bits(&BitVec::from_signs(x))
    }

    /// Predicted class for a real-valued feature vector.
    pub fn classify(&self, x: &[f32]) -> usize {
        rbnn_tensor::argmax(&self.logits(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbnn_tensor::BitMatrix;

    /// A hand-crafted 2-input XOR-ish network to pin down semantics:
    /// layer 1 computes two AND-like neurons, layer 2 combines them.
    fn tiny_network() -> BinaryNetwork {
        // Layer 1: 2 → 2, identity-ish weights.
        let w1 = BitMatrix::from_signs(&[1.0, 1.0, -1.0, 1.0], 2, 2);
        // Thresholds: neuron fires iff dot ≥ 0 (scale 1, shift 0).
        let l1 = BinaryDense::new(w1, vec![1.0, 1.0], vec![0.0, 0.0]);
        // Layer 2: 2 → 2 affine output.
        let w2 = BitMatrix::from_signs(&[1.0, -1.0, -1.0, 1.0], 2, 2);
        let l2 = BinaryDense::new(w2, vec![1.0, 1.0], vec![0.0, 0.0]);
        BinaryNetwork::new(vec![l1, l2])
    }

    #[test]
    fn dimensions() {
        let net = tiny_network();
        assert_eq!(net.in_features(), 2);
        assert_eq!(net.out_features(), 2);
        assert_eq!(net.weight_bits(), 8);
        assert_eq!(net.layers().len(), 2);
    }

    #[test]
    fn classify_is_argmax_of_logits() {
        let net = tiny_network();
        for x in [[1.0f32, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]] {
            let logits = net.logits(&x);
            let cls = net.classify(&x);
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(logits[cls], max);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_bad_chain() {
        let l1 = BinaryDense::new(BitMatrix::zeros(3, 2), vec![1.0; 3], vec![0.0; 3]);
        let l2 = BinaryDense::new(BitMatrix::zeros(2, 4), vec![1.0; 2], vec![0.0; 2]);
        let _ = BinaryNetwork::new(vec![l1, l2]);
    }
}
