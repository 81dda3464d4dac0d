//! Deployed binarized 1-D convolution.
//!
//! The paper's Fig 5 architecture implements fully-connected layers; §II-B
//! notes that "this type of architecture can be adapted for convolutional
//! layers, with a key decision between minimizing data movement and data
//! reuse". This module provides the software model of such an adapted
//! engine: a 1-D convolution whose ±1 weights are bit-packed and whose
//! arithmetic is XNOR + popcount over bit-packed input windows — the
//! execution form of the convolutional layers of a *fully* binarized
//! network.

use rbnn_tensor::{BitMatrix, BitVec, Tensor};

use crate::{fold_batchnorm_sign, FoldedThreshold};

/// A deployed binarized 1-D convolution: `out_channels` filters of width
/// `kernel` over `in_channels` bit-packed input channels, followed by the
/// folded BatchNorm threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryConv1d {
    /// Filter weights, one row per output channel, columns ordered
    /// channel-major then tap-major (matching `rbnn_nn::Conv1d`).
    weights: BitMatrix,
    in_channels: usize,
    kernel: usize,
    scale: Vec<f32>,
    shift: Vec<f32>,
}

impl BinaryConv1d {
    /// Creates a layer from packed filters and per-channel affine
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if the weight columns don't equal `in_channels · kernel`, or
    /// coefficient lengths differ from the filter count.
    pub fn new(
        weights: BitMatrix,
        in_channels: usize,
        kernel: usize,
        scale: Vec<f32>,
        shift: Vec<f32>,
    ) -> Self {
        assert_eq!(
            weights.cols(),
            in_channels * kernel,
            "weight width mismatch"
        );
        assert_eq!(scale.len(), weights.rows(), "scale length mismatch");
        assert_eq!(shift.len(), weights.rows(), "shift length mismatch");
        Self {
            weights,
            in_channels,
            kernel,
            scale,
            shift,
        }
    }

    /// Packs the signs of a float filter tensor `[out, in·kernel]`.
    pub fn from_sign_tensor(
        weights: &Tensor,
        in_channels: usize,
        kernel: usize,
        scale: Vec<f32>,
        shift: Vec<f32>,
    ) -> Self {
        assert_eq!(
            weights.shape().ndim(),
            2,
            "weights must be [out, in·kernel]"
        );
        let (rows, cols) = (weights.dim(0), weights.dim(1));
        Self::new(
            BitMatrix::from_signs(weights.as_slice(), rows, cols),
            in_channels,
            kernel,
            scale,
            shift,
        )
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weights.rows()
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Filter width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Output length for an input of `len` steps (valid convolution,
    /// stride 1 — the form the paper's ECG network uses).
    pub fn out_len(&self, len: usize) -> usize {
        assert!(len >= self.kernel, "input shorter than kernel");
        len - self.kernel + 1
    }

    /// The folded integer thresholds of this layer.
    pub fn folded_thresholds(&self) -> Vec<FoldedThreshold> {
        let n = self.in_channels * self.kernel;
        self.scale
            .iter()
            .zip(&self.shift)
            .map(|(&s, &b)| fold_batchnorm_sign(s, b, n))
            .collect()
    }

    /// Raw popcounts: for each output channel and time step, the number of
    /// agreeing weight/input bit pairs in the window.
    ///
    /// `input` holds one [`BitVec`] of length `len` per input channel.
    ///
    /// The convolution is lowered `im2col`-style onto word-level kernels:
    /// [`BitMatrix::conv1d_windows`] gathers every sliding window into a
    /// bit-packed row (two shifts per channel instead of a per-bit loop),
    /// and each (filter, step) pair is then one row-versus-row
    /// `xnor_popcount` — the same kernel the dense inference engine and the
    /// RRAM sense path execute. Windows are assembled once and reused for
    /// every filter (the data-reuse flavour of the paper's design choice).
    ///
    /// # Panics
    ///
    /// Panics if channel counts or lengths are inconsistent.
    pub fn popcounts(&self, input: &[BitVec]) -> Vec<Vec<u32>> {
        assert_eq!(input.len(), self.in_channels, "channel count mismatch");
        let len = input[0].len();
        assert!(
            input.iter().all(|c| c.len() == len),
            "channel lengths differ"
        );
        let ol = self.out_len(len);
        let taps = self.in_channels * self.kernel;

        let windows = BitMatrix::conv1d_windows(input, self.kernel);
        let mut out = vec![vec![0u32; ol]; self.out_channels()];
        for (o, row) in out.iter_mut().enumerate() {
            let w = self.weights.row_words(o);
            for (t, v) in row.iter_mut().enumerate() {
                *v = rbnn_tensor::xnor_popcount(w, windows.row_words(t), taps);
            }
        }
        out
    }

    /// Binary forward: sign activations through the folded thresholds,
    /// one output [`BitVec`] per channel.
    pub fn forward_sign(&self, input: &[BitVec]) -> Vec<BitVec> {
        let thresholds = self.folded_thresholds();
        self.popcounts(input)
            .iter()
            .zip(&thresholds)
            .map(|(row, th)| row.iter().map(|&p| th.fire(p)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Float reference: valid ±1 convolution then BN+sign.
    fn float_reference(
        w: &[f32],
        x: &[Vec<f32>],
        out_ch: usize,
        in_ch: usize,
        kernel: usize,
        scale: &[f32],
        shift: &[f32],
    ) -> Vec<Vec<bool>> {
        let len = x[0].len();
        let ol = len - kernel + 1;
        let mut out = vec![vec![false; ol]; out_ch];
        for o in 0..out_ch {
            for t in 0..ol {
                let mut acc = 0.0f32;
                for c in 0..in_ch {
                    for k in 0..kernel {
                        acc += w[o * in_ch * kernel + c * kernel + k] * x[c][t + k];
                    }
                }
                out[o][t] = scale[o] * acc + shift[o] >= 0.0;
            }
        }
        out
    }

    #[test]
    fn binary_conv_matches_float_reference() {
        let mut rng = StdRng::seed_from_u64(0);
        let (out_ch, in_ch, kernel, len) = (4, 3, 5, 20);
        let w: Vec<f32> = (0..out_ch * in_ch * kernel)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let x: Vec<Vec<f32>> = (0..in_ch)
            .map(|_| {
                (0..len)
                    .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                    .collect()
            })
            .collect();
        let scale: Vec<f32> = (0..out_ch).map(|_| rng.gen_range(0.2..2.0)).collect();
        let shift: Vec<f32> = (0..out_ch).map(|_| rng.gen_range(-3.0..3.0)).collect();

        let layer = BinaryConv1d::new(
            BitMatrix::from_signs(&w, out_ch, in_ch * kernel),
            in_ch,
            kernel,
            scale.clone(),
            shift.clone(),
        );
        let xb: Vec<BitVec> = x.iter().map(|c| BitVec::from_signs(c)).collect();
        let got = layer.forward_sign(&xb);
        let expect = float_reference(&w, &x, out_ch, in_ch, kernel, &scale, &shift);
        assert_eq!(got.len(), expect.len());
        for (o, (got, expect)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(expect.len(), layer.out_len(len));
            for (t, &bit) in expect.iter().enumerate() {
                assert_eq!(got.get(t), bit, "({o},{t})");
            }
        }
    }

    #[test]
    fn binary_conv_matches_float_reference_at_word_boundary_taps() {
        // The deployed conv path rides `BitMatrix::conv1d_windows`, whose
        // word-gather fast path covers kernels ≤ 64 taps; 63/64/65 span
        // the regime change. 1-channel and odd-length signals keep the
        // window fields at awkward alignments.
        let mut rng = StdRng::seed_from_u64(13);
        for &kernel in &[63usize, 64, 65] {
            for &(in_ch, len) in &[(1usize, 97usize), (2, 101)] {
                let out_ch = 3;
                let w: Vec<f32> = (0..out_ch * in_ch * kernel)
                    .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                    .collect();
                let x: Vec<Vec<f32>> = (0..in_ch)
                    .map(|_| {
                        (0..len)
                            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                            .collect()
                    })
                    .collect();
                let scale: Vec<f32> = (0..out_ch).map(|_| rng.gen_range(0.2..2.0)).collect();
                let shift: Vec<f32> = (0..out_ch).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let layer = BinaryConv1d::new(
                    BitMatrix::from_signs(&w, out_ch, in_ch * kernel),
                    in_ch,
                    kernel,
                    scale.clone(),
                    shift.clone(),
                );
                let xb: Vec<BitVec> = x.iter().map(|c| BitVec::from_signs(c)).collect();
                let got = layer.forward_sign(&xb);
                let expect = float_reference(&w, &x, out_ch, in_ch, kernel, &scale, &shift);
                assert_eq!(got.len(), expect.len());
                for (o, (got, expect)) in got.iter().zip(&expect).enumerate() {
                    assert_eq!(expect.len(), layer.out_len(len));
                    for (t, &bit) in expect.iter().enumerate() {
                        assert_eq!(got.get(t), bit, "kernel {kernel}, in_ch {in_ch}, ({o},{t})");
                    }
                }
            }
        }
    }

    #[test]
    fn geometry() {
        let layer = BinaryConv1d::new(
            BitMatrix::zeros(32, 12 * 13),
            12,
            13,
            vec![1.0; 32],
            vec![0.0; 32],
        );
        // Table II first layer: 750 samples → 738 output steps.
        assert_eq!(layer.out_len(750), 738);
        assert_eq!(layer.out_channels(), 32);
    }

    #[test]
    #[should_panic(expected = "weight width mismatch")]
    fn rejects_inconsistent_geometry() {
        let _ = BinaryConv1d::new(BitMatrix::zeros(4, 10), 3, 5, vec![1.0; 4], vec![0.0; 4]);
    }
}
