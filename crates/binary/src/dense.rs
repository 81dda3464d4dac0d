//! A deployed binarized fully-connected layer.

use rbnn_tensor::{BitMatrix, BitVec, Tensor};

use crate::{fold_batchnorm_sign, FoldedThreshold};

/// A fully-connected BNN layer in deployment form: bit-packed ±1 weights
/// plus the per-neuron affine `(scale, shift)` that the training-time
/// BatchNorm reduces to at inference.
///
/// Two execution modes mirror the paper's hardware:
///
/// * [`forward_sign`](Self::forward_sign) — hidden layer: XNOR + popcount +
///   integer threshold (Eq. 3), producing the next layer's binary
///   activations;
/// * [`forward_affine`](Self::forward_affine) — output layer: the affine
///   value itself is the logit used for the final argmax (the softmax of the
///   paper is only needed for training).
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryDense {
    weights: BitMatrix,
    scale: Vec<f32>,
    shift: Vec<f32>,
}

impl BinaryDense {
    /// Creates a layer from packed weights and per-output affine
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `scale`/`shift` lengths differ from the weight row count.
    pub fn new(weights: BitMatrix, scale: Vec<f32>, shift: Vec<f32>) -> Self {
        assert_eq!(scale.len(), weights.rows(), "scale length mismatch");
        assert_eq!(shift.len(), weights.rows(), "shift length mismatch");
        Self {
            weights,
            scale,
            shift,
        }
    }

    /// Packs the signs of a float weight matrix `[out, in]` (e.g. the
    /// effective weights of a trained binarized `rbnn_nn::Dense`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or coefficient lengths mismatch.
    pub fn from_sign_tensor(weights: &Tensor, scale: Vec<f32>, shift: Vec<f32>) -> Self {
        assert_eq!(weights.shape().ndim(), 2, "weights must be [out, in]");
        let (rows, cols) = (weights.dim(0), weights.dim(1));
        Self::new(
            BitMatrix::from_signs(weights.as_slice(), rows, cols),
            scale,
            shift,
        )
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weights.cols()
    }

    /// Output neuron count.
    pub fn out_features(&self) -> usize {
        self.weights.rows()
    }

    /// The packed weight matrix (what gets programmed into RRAM).
    pub fn weights(&self) -> &BitMatrix {
        &self.weights
    }

    /// Mutable weights — the fault-injection hook used by the RRAM
    /// bit-error experiments.
    pub fn weights_mut(&mut self) -> &mut BitMatrix {
        &mut self.weights
    }

    /// Per-output affine coefficients `(scale, shift)`.
    pub fn affine(&self) -> (&[f32], &[f32]) {
        (&self.scale, &self.shift)
    }

    /// Raw XNOR-popcounts per output neuron — what the paper's array +
    /// popcount logic computes before thresholding.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_features()`.
    pub fn popcounts(&self, x: &BitVec) -> Vec<u32> {
        assert_eq!(x.len(), self.in_features(), "input length mismatch");
        (0..self.weights.rows())
            .map(|r| rbnn_tensor::xnor_popcount(self.weights.row_words(r), x.as_words(), x.len()))
            .collect()
    }

    /// The integer thresholds equivalent to this layer's BatchNorm + sign.
    pub fn folded_thresholds(&self) -> Vec<FoldedThreshold> {
        let n = self.in_features();
        self.scale
            .iter()
            .zip(&self.shift)
            .map(|(&s, &b)| fold_batchnorm_sign(s, b, n))
            .collect()
    }

    /// Hidden-layer forward: binary in, binary out, integer-only datapath.
    pub fn forward_sign(&self, x: &BitVec) -> BitVec {
        let thresholds = self.folded_thresholds();
        self.popcounts(x)
            .iter()
            .zip(&thresholds)
            .map(|(&p, th)| th.fire(p))
            .collect()
    }

    /// Output-layer forward: binary in, float logits out
    /// (`scale · (2·popcount − n) + shift`).
    pub fn forward_affine(&self, x: &BitVec) -> Vec<f32> {
        let n = self.in_features() as f32;
        self.popcounts(x)
            .iter()
            .zip(self.scale.iter().zip(&self.shift))
            .map(|(&p, (&s, &b))| s * (2.0 * p as f32 - n) + b)
            .collect()
    }

    /// Total weight bits stored (the layer's RRAM footprint in synapses).
    pub fn weight_bits(&self) -> usize {
        self.weights.rows() * self.weights.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_layer(out: usize, inp: usize, rng: &mut StdRng) -> BinaryDense {
        let w: Vec<f32> = (0..out * inp)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let scale = (0..out).map(|_| rng.gen_range(0.2..2.0)).collect();
        let shift = (0..out).map(|_| rng.gen_range(-3.0..3.0)).collect();
        BinaryDense::new(BitMatrix::from_signs(&w, out, inp), scale, shift)
    }

    fn random_bits(n: usize, rng: &mut StdRng) -> BitVec {
        (0..n).map(|_| rng.gen::<bool>()).collect()
    }

    #[test]
    fn forward_sign_equals_sign_of_affine() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let layer = random_layer(7, 33, &mut rng);
            let x = random_bits(33, &mut rng);
            let signs = layer.forward_sign(&x);
            let affine = layer.forward_affine(&x);
            for (i, &a) in affine.iter().enumerate() {
                assert_eq!(signs.get(i), a >= 0.0, "neuron {i}: affine {a}");
            }
        }
    }

    #[test]
    fn forward_affine_matches_float_reference() {
        let mut rng = StdRng::seed_from_u64(1);
        let (out, inp) = (4, 21);
        let w: Vec<f32> = (0..out * inp)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let scale: Vec<f32> = (0..out).map(|_| rng.gen_range(0.2..2.0)).collect();
        let shift: Vec<f32> = (0..out).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let layer = BinaryDense::new(
            BitMatrix::from_signs(&w, out, inp),
            scale.clone(),
            shift.clone(),
        );
        let xin: Vec<f32> = (0..inp)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let x = BitVec::from_signs(&xin);
        let got = layer.forward_affine(&x);
        for o in 0..out {
            let dot: f32 = (0..inp).map(|i| w[o * inp + i] * xin[i]).sum();
            let expect = scale[o] * dot + shift[o];
            assert!(
                (got[o] - expect).abs() < 1e-4,
                "neuron {o}: {} vs {expect}",
                got[o]
            );
        }
    }

    #[test]
    fn weight_flip_changes_one_popcount_by_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = random_layer(3, 40, &mut rng);
        let x = random_bits(40, &mut rng);
        let before = layer.popcounts(&x);
        layer.weights_mut().flip(1, 17);
        let after = layer.popcounts(&x);
        assert_eq!(before[0], after[0]);
        assert_eq!(before[2], after[2]);
        assert_eq!((before[1] as i32 - after[1] as i32).abs(), 1);
    }

    #[test]
    fn dimensions_and_bits() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = random_layer(5, 12, &mut rng);
        assert_eq!(layer.in_features(), 12);
        assert_eq!(layer.out_features(), 5);
        assert_eq!(layer.weight_bits(), 60);
    }

    #[test]
    #[should_panic(expected = "scale length mismatch")]
    fn rejects_mismatched_affine() {
        let _ = BinaryDense::new(BitMatrix::zeros(3, 4), vec![1.0; 2], vec![0.0; 3]);
    }
}
