//! Analytic memory accounting — the arithmetic behind Table IV.
//!
//! Table IV of the paper is pure architecture arithmetic: parameter counts
//! per model section, model sizes at 32-bit and 8-bit precision, and the
//! memory saved by binarizing only the classifier. This module reproduces
//! those numbers *exactly* from the layer specifications of Tables I and II
//! and the MobileNet V1 architecture.
//!
//! The saving percentages follow the paper's comparison: a model with a
//! binarized classifier stores `conv_params` words (32-bit or 8-bit) plus
//! `classifier_params` **bits**, compared against the homogeneous 32-bit
//! (resp. 8-bit) model.
//!
//! Note on the ECG row: Table II's shapes imply a classifier of
//! 5152·75 + 75 + 152 ≈ 0.39 M parameters, while Table IV prints 0.27 M
//! classifier / 0.31 M total. We compute from Table II as printed and
//! surface both numbers; see README § Scale and substitutions.

use crate::mobilenet::MobileNetConfig;

/// Parameter breakdown of a model into feature extractor and classifier,
/// with an optional replacement binarized head of a different size (the
/// MobileNet case: 1 M real classifier replaced by a 5.7 M-bit binary one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Model label as in Table IV.
    pub name: String,
    /// Parameters in convolutional / feature-extraction layers.
    pub conv_params: usize,
    /// Parameters in the dense classifier.
    pub classifier_params: usize,
    /// Parameter count of the *binarized replacement* classifier when it
    /// differs from `classifier_params` (MobileNet's two-layer head).
    pub bin_classifier_params: Option<usize>,
}

impl MemoryBreakdown {
    /// Total parameters of the original model.
    pub fn total_params(&self) -> usize {
        self.conv_params + self.classifier_params
    }

    /// Fraction of parameters residing in the classifier.
    pub fn classifier_fraction(&self) -> f64 {
        self.classifier_params as f64 / self.total_params() as f64
    }

    /// Original model size in bytes at `bits` per parameter.
    pub fn model_bytes(&self, bits: usize) -> usize {
        self.total_params() * bits / 8
    }

    /// Size in bytes of the binarized-classifier model with `bits`-wide
    /// convolutional weights.
    pub fn bin_classifier_bytes(&self, bits: usize) -> f64 {
        let bin = self.bin_classifier_params.unwrap_or(self.classifier_params);
        (self.conv_params * bits) as f64 / 8.0 + bin as f64 / 8.0
    }

    /// Memory saved by classifier binarization versus a homogeneous model at
    /// `bits` per weight, as a fraction in `[0, 1)` (Table IV's last
    /// column uses `bits = 32` and `bits = 8`).
    pub fn bin_classifier_saving(&self, bits: usize) -> f64 {
        let bin = self.bin_classifier_params.unwrap_or(self.classifier_params) as f64;
        let reference = (self.total_params() * bits) as f64;
        let with_bin = (self.conv_params * bits) as f64 + bin;
        1.0 - with_bin / reference
    }
}

/// EEG model of Table I (convolutions and dense layers with biases, as the
/// original Dose et al. model counts them): 0.31 M total, 0.2 M classifier.
pub fn eeg_paper() -> MemoryBreakdown {
    let conv1 = 40 * 30 + 40; // 40 temporal kernels 30×1 + bias
    let conv2 = 40 * (64 * 40) + 40; // 40 spatial kernels 1×64×40 + bias
    let fc1 = 2520 * 80 + 80;
    let fc2 = 80 * 2 + 2;
    MemoryBreakdown {
        name: "EEG".into(),
        conv_params: conv1 + conv2,
        classifier_params: fc1 + fc2,
        bin_classifier_params: None,
    }
}

/// ECG model of Table II: five convolutions (13/11/9/7/5 kernels, 32
/// filters) and the 5152→75→2 classifier.
pub fn ecg_paper() -> MemoryBreakdown {
    let f = 32;
    let convs = [
        f * 13 * 12 + f,
        f * 11 * f + f,
        f * 9 * f + f,
        f * 7 * f + f,
        f * 5 * f + f,
    ];
    let fc1 = 5152 * 75 + 75;
    let fc2 = 75 * 2 + 2;
    MemoryBreakdown {
        name: "ECG".into(),
        conv_params: convs.iter().sum(),
        classifier_params: fc1 + fc2,
        bin_classifier_params: None,
    }
}

/// MobileNet-224 of §IV: conv stack (with BatchNorm parameters, as the
/// published 4.2 M figure counts them), the original 1024→1000 classifier,
/// and the paper's 5.7 M-bit two-layer binarized replacement head.
pub fn mobilenet_paper() -> MemoryBreakdown {
    let cfg = MobileNetConfig::paper_224();
    // Stem: 3×3×3×32 conv + BN(32).
    let (stem_ch, _) = cfg.stem;
    let mut conv = 3 * 3 * cfg.input.0 * stem_ch + 2 * stem_ch;
    for b in &cfg.blocks {
        conv += 9 * b.in_channels + 2 * b.in_channels; // dw 3×3 + BN
        conv += b.in_channels * b.out_channels + 2 * b.out_channels; // pw 1×1 + BN
    }
    let classifier = 1024 * cfg.classes + cfg.classes;
    let bin_cfg = MobileNetConfig::paper_224_bin_classifier();
    let h = bin_cfg
        .binary_classifier_hidden
        .expect("paper bin classifier has a hidden width");
    MemoryBreakdown {
        name: "ImageNet".into(),
        conv_params: conv,
        classifier_params: classifier,
        bin_classifier_params: Some(1024 * h + h * cfg.classes),
    }
}

/// All three Table IV rows in paper order.
pub fn table4_rows() -> Vec<MemoryBreakdown> {
    vec![eeg_paper(), ecg_paper(), mobilenet_paper()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eeg_counts_match_paper() {
        let m = eeg_paper();
        // 0.31 M total, 0.2 M classifier, 0.11 M conv.
        assert_eq!(m.total_params(), 305_522);
        assert_eq!(m.classifier_params, 201_842);
        assert_eq!(m.conv_params, 103_680);
        // Model size: 1.17 MB at 32-bit, ~305 KB at 8-bit.
        assert!((m.model_bytes(32) as f64 / (1 << 20) as f64 - 1.17).abs() < 0.01);
        assert!((m.model_bytes(8) as f64 / 1000.0 - 305.5).abs() < 1.0);
    }

    #[test]
    fn eeg_savings_match_table4() {
        let m = eeg_paper();
        // Paper: 64% saving vs 32-bit, 57.8% vs 8-bit.
        assert!((m.bin_classifier_saving(32) * 100.0 - 64.0).abs() < 0.5);
        assert!((m.bin_classifier_saving(8) * 100.0 - 57.8).abs() < 0.5);
    }

    #[test]
    fn ecg_counts_exact_from_table2() {
        let m = ecg_paper();
        assert_eq!(m.conv_params, 37_920);
        assert_eq!(m.classifier_params, 386_627);
        // The paper's Table IV prints 0.27 M classifier / 0.31 M total,
        // inconsistent with Table II; we verify the printed-architecture
        // arithmetic and let the bench surface both.
        assert_eq!(m.total_params(), 424_547);
        // The qualitative claim survives: classifier dominates (>84% of
        // memory saved by binarizing it vs 32-bit model).
        assert!(m.bin_classifier_saving(32) > 0.84);
        assert!(m.classifier_fraction() > 0.85);
    }

    #[test]
    fn mobilenet_counts_match_paper() {
        let m = mobilenet_paper();
        // Canonical MobileNet V1 1.0-224: 3.2 M conv (incl. BN), 1.0 M
        // classifier, 4.2 M total.
        assert_eq!(m.conv_params, 3_206_976);
        assert_eq!(m.classifier_params, 1_025_000);
        assert_eq!(m.total_params(), 4_231_976);
        // Binary head ≈ 5.7 M bits (~696 KB).
        let bin = m.bin_classifier_params.unwrap();
        assert_eq!(bin, 5_699_584);
        assert!((bin as f64 / 8.0 / 1024.0 - 696.0).abs() < 1.0);
    }

    #[test]
    fn mobilenet_savings_match_table4() {
        let m = mobilenet_paper();
        // Paper: ~20% vs 32-bit, ~7.3% vs 8-bit.
        assert!((m.bin_classifier_saving(32) * 100.0 - 20.0).abs() < 0.5);
        assert!((m.bin_classifier_saving(8) * 100.0 - 7.3).abs() < 0.5);
    }

    #[test]
    fn table4_has_three_rows_in_order() {
        let rows = table4_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].name, "EEG");
        assert_eq!(rows[1].name, "ECG");
        assert_eq!(rows[2].name, "ImageNet");
    }

    #[test]
    fn savings_decrease_with_reference_precision() {
        // Binarization saves less versus an already-quantized reference.
        for m in table4_rows() {
            assert!(m.bin_classifier_saving(32) > m.bin_classifier_saving(8));
            assert!(m.bin_classifier_saving(8) > 0.0);
        }
    }
}
