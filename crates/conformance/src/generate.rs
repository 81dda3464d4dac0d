//! Seeded random generator of paper-family models.
//!
//! Each generated model is the deployment pair the paper's pipeline
//! produces: an optional float feature extractor (the part §III-C keeps in
//! full precision) and a binarized `Dense → BatchNorm → Sign` classifier,
//! already exported to its bit-packed [`BinaryNetwork`] form. Shapes are
//! drawn from the paper's three workload families (ECG/EEG 1-D signals,
//! vision 2-D) plus pure MLPs, with deliberate pressure on the edges where
//! the word-level kernels change regime:
//!
//! * 1-channel signals and odd signal lengths;
//! * convolution kernels of 63, 64 and 65 taps — straddling the
//!   [`rbnn_tensor::BitMatrix::conv1d_windows`] ≤ 64-tap word-gather fast
//!   path;
//! * dense widths of 63/64/65/127/128 features — straddling the packed
//!   `u64` word boundary of the XNOR/popcount kernels and the 32-column
//!   RRAM tile edge.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_binary::{export_classifier, BinaryNetwork};
use rbnn_nn::{
    Activation, BatchNorm, Conv1d, Conv2d, Dense, Dropout, Layer, Phase, Pool1d, Pool2d, PoolKind,
    Sequential, WeightMode,
};
use rbnn_tensor::Tensor;

/// The workload family a generated model imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeFamily {
    /// Pure MLP over a flat feature vector (the deployed ECG classifier
    /// shape of Table II).
    Mlp,
    /// 1-D convolutional front end over few-channel signals (ECG, Table
    /// II).
    Ecg,
    /// 1-D convolutional front end over multi-channel signals with
    /// pooling (EEG, Table I).
    Eeg,
    /// Small 2-D convolutional front end (the §IV vision workload).
    Vision,
    /// Deep pure-MLP chain whose widths walk the full 63/64/65/127/128
    /// packed-word edge set, so *every* fused step of a compiled plan
    /// (pack → xnor/popcount → threshold → sign-pack) sits on a word edge
    /// in some layer.
    Chain,
    /// 1-channel, odd-length conv front end feeding an edge-width chain —
    /// the other regime the fused kernels must survive: a conv-derived
    /// feature width that is nothing like a multiple of 64.
    ChainConv,
}

impl ShapeFamily {
    /// Human-readable label.
    pub fn name(self) -> &'static str {
        match self {
            ShapeFamily::Mlp => "mlp",
            ShapeFamily::Ecg => "ecg",
            ShapeFamily::Eeg => "eeg",
            ShapeFamily::Vision => "vision",
            ShapeFamily::Chain => "chain",
            ShapeFamily::ChainConv => "chainconv",
        }
    }
}

/// One generated model: the float stack and its exported bit-packed form.
#[derive(Debug)]
pub struct GeneratedModel {
    /// Short description (family, shapes, seed) for reports.
    pub name: String,
    /// Workload family the shapes were drawn from.
    pub family: ShapeFamily,
    /// Float feature extractor (real weights; `None` for pure MLPs). Ends
    /// in `Flatten`, so its output is `[N, feature_width]`.
    pub extractor: Option<Sequential>,
    /// The binarized classifier training graph (`Dense(binary) → BatchNorm
    /// → Sign` chain, BatchNorm statistics warmed).
    pub classifier: Sequential,
    /// [`export_classifier`] output: the deployable integer-datapath
    /// network, bit-exact with `classifier` in eval phase on ±1 inputs.
    pub network: BinaryNetwork,
    /// Per-sample input shape fed to the extractor (or `[in_features]`
    /// for MLPs).
    pub input_shape: Vec<usize>,
}

impl GeneratedModel {
    /// Flat classifier input width.
    pub fn feature_width(&self) -> usize {
        self.network.in_features()
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.network.out_features()
    }

    /// Runs the float front end (if any) on a raw input batch and
    /// sign-binarizes the result — the `[N, feature_width]` ±1 tensor
    /// every execution path consumes. This is the hardware input
    /// interface: the classifier only ever sees ±1 features.
    pub fn binarized_features(&mut self, x: &Tensor) -> Tensor {
        match &mut self.extractor {
            Some(extractor) => extractor.forward(x, Phase::Eval).signum_binary(),
            None => x.signum_binary(),
        }
    }

    /// Draws a raw input batch of `n` samples matching `input_shape`.
    pub fn sample_inputs(&self, n: usize, rng: &mut impl Rng) -> Tensor {
        let mut dims = vec![n];
        dims.extend_from_slice(&self.input_shape);
        Tensor::randn(dims.as_slice(), 1.0, rng)
    }
}

/// Dense widths straddling the packed-word boundary and the 32-column
/// RRAM tile edge.
const EDGE_WIDTHS: [usize; 6] = [63, 64, 65, 127, 128, 33];

/// Kernel taps straddling the `conv1d_windows` ≤ 64-tap word-gather fast
/// path.
const EDGE_KERNELS: [usize; 3] = [63, 64, 65];

/// The packed-word boundary walk of the [`ShapeFamily::Chain`] families:
/// every width the fused executor kernels change regime at.
const CHAIN_WIDTHS: [usize; 5] = [63, 64, 65, 127, 128];

fn pick<T: Copy>(options: &[T], rng: &mut StdRng) -> T {
    options[rng.gen_range(0..options.len())]
}

/// Draws a hidden width: mostly word-edge sizes, sometimes odd random.
fn hidden_width(rng: &mut StdRng) -> usize {
    if rng.gen_bool(0.6) {
        pick(&EDGE_WIDTHS, rng)
    } else {
        rng.gen_range(17..96) | 1 // odd
    }
}

/// Builds the binarized classifier chain for `dims` widths, dropout
/// interleaved occasionally (identity at inference, exercised at export).
fn build_classifier(dims: &[usize], rng: &mut StdRng) -> Sequential {
    let mut seq = Sequential::new();
    for (i, pair) in dims.windows(2).enumerate() {
        if i > 0 {
            seq.push(Activation::sign_ste());
        }
        if rng.gen_bool(0.3) {
            seq.push(Dropout::new(0.85, rng.gen()));
        }
        seq.push(Dense::new(pair[0], pair[1], WeightMode::Binary, rng).without_bias());
        seq.push(BatchNorm::new(pair[1]));
    }
    seq
}

/// Generates the `index`-th model of the seeded stream.
///
/// Deterministic: the same `(index, seed)` always produces the same model
/// (architecture, weights, and warmed BatchNorm statistics). Families
/// cycle with `index` so any run of ≥ 6 consecutive indices covers all
/// six; edge shapes are guaranteed early (index 0 exercises a
/// 65-feature word-boundary MLP, the 1-D indices among 0..8 cover all of
/// the 63/64/65-tap kernels, and the chain families at indices 4 and 5
/// mod 6 rotate through the full 63/64/65/127/128 fusion-boundary walk).
pub fn generate(index: usize, seed: u64) -> GeneratedModel {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64),
    );
    let family = match index % 6 {
        0 => ShapeFamily::Mlp,
        1 => ShapeFamily::Ecg,
        2 => ShapeFamily::Eeg,
        3 => ShapeFamily::Vision,
        4 => ShapeFamily::Chain,
        _ => ShapeFamily::ChainConv,
    };

    let (extractor, input_shape, feature_width, shape_label) = match family {
        ShapeFamily::Mlp => {
            // Flat features; index 0 pins the 64/65 word boundary.
            let f = if index == 0 {
                65
            } else if rng.gen_bool(0.5) {
                pick(&EDGE_WIDTHS, &mut rng)
            } else {
                rng.gen_range(33..256) | 1
            };
            (None, vec![f], f, format!("f{f}"))
        }
        ShapeFamily::Ecg | ShapeFamily::Eeg => {
            // 1-D signal: ECG leans on 1 channel and huge (edge) kernels,
            // EEG on more channels plus pooling.
            let channels = if family == ShapeFamily::Ecg {
                if rng.gen_bool(0.5) {
                    1
                } else {
                    rng.gen_range(1..4)
                }
            } else {
                rng.gen_range(2..5)
            };
            // Odd lengths; long enough for the largest kernels.
            let len = rng.gen_range(75..160) | 1;
            // Early indices walk the 63/64/65-tap edge set exhaustively
            // (the 1-D families sit at indices 1, 2, 5, 6, …, so the
            // rotated lookup covers all three within the first 8 indices);
            // later indices still revisit the edges half the time.
            let kernel = if index < 12 {
                EDGE_KERNELS[(index / 4 + index) % EDGE_KERNELS.len()]
            } else if rng.gen_bool(0.5) {
                pick(&EDGE_KERNELS, &mut rng)
            } else {
                pick(&[3usize, 5, 7, 13], &mut rng)
            };
            let out_channels = rng.gen_range(2..5);
            let mut seq = Sequential::new();
            seq.push(Conv1d::new(
                channels,
                out_channels,
                kernel,
                1,
                0,
                WeightMode::Real,
                &mut rng,
            ));
            seq.push(Activation::relu());
            let mut out_len = len - kernel + 1;
            if family == ShapeFamily::Eeg && out_len >= 4 {
                seq.push(Pool1d::new(PoolKind::Avg, 2, 2));
                out_len = (out_len - 2) / 2 + 1;
            }
            seq.push(rbnn_nn::Flatten::new());
            let f = out_channels * out_len;
            (
                Some(seq),
                vec![channels, len],
                f,
                format!("c{channels}l{len}k{kernel}"),
            )
        }
        ShapeFamily::Vision => {
            let channels = pick(&[1usize, 3], &mut rng);
            let side = rng.gen_range(8..14) | 1; // odd sides
            let k = pick(&[2usize, 3], &mut rng);
            let out_channels = rng.gen_range(2..6);
            let mut seq = Sequential::new();
            seq.push(Conv2d::new(
                channels,
                out_channels,
                (k, k),
                (1, 1),
                (0, 0),
                WeightMode::Real,
                &mut rng,
            ));
            seq.push(Activation::relu());
            let mut out_side = side - k + 1;
            if out_side >= 4 {
                seq.push(Pool2d::new(PoolKind::Max, (2, 2), (2, 2)));
                out_side = (out_side - 2) / 2 + 1;
            }
            seq.push(rbnn_nn::Flatten::new());
            let f = out_channels * out_side * out_side;
            (
                Some(seq),
                vec![channels, side, side],
                f,
                format!("c{channels}s{side}k{k}"),
            )
        }
        ShapeFamily::Chain => {
            // Input width rotates through the edge set with the stream, so
            // the *front* fusion boundary is walked too.
            let f = CHAIN_WIDTHS[(index / 6) % CHAIN_WIDTHS.len()];
            (None, vec![f], f, format!("f{f}"))
        }
        ShapeFamily::ChainConv => {
            // 1-channel, odd-length signal through an edge-tap kernel: the
            // conv-derived feature width is nothing like a word multiple.
            let kernel = EDGE_KERNELS[(index / 6) % EDGE_KERNELS.len()];
            let len = (kernel + rng.gen_range(12..48)) | 1;
            let out_channels = rng.gen_range(2..4usize);
            let mut seq = Sequential::new();
            seq.push(Conv1d::new(
                1,
                out_channels,
                kernel,
                1,
                0,
                WeightMode::Real,
                &mut rng,
            ));
            seq.push(Activation::relu());
            seq.push(rbnn_nn::Flatten::new());
            let f = out_channels * (len - kernel + 1);
            (Some(seq), vec![1, len], f, format!("c1l{len}k{kernel}"))
        }
    };

    // Classifier widths: 1–2 binarized hidden layers, 2–6 classes — except
    // the chain families, whose hidden widths deterministically walk the
    // packed-word edge set so every fusion boundary sits on a word edge in
    // some layer.
    let mut dims = vec![feature_width];
    match family {
        ShapeFamily::Chain => {
            let start = (index / 6) % CHAIN_WIDTHS.len();
            for step in 1..=CHAIN_WIDTHS.len() {
                dims.push(CHAIN_WIDTHS[(start + step) % CHAIN_WIDTHS.len()]);
            }
        }
        ShapeFamily::ChainConv => {
            let start = (index / 6) % CHAIN_WIDTHS.len();
            for step in 0..3 {
                dims.push(CHAIN_WIDTHS[(start + step) % CHAIN_WIDTHS.len()]);
            }
        }
        _ => {
            for _ in 0..rng.gen_range(1..3usize) {
                dims.push(hidden_width(&mut rng));
            }
        }
    }
    dims.push(rng.gen_range(2..7usize));
    let mut classifier = build_classifier(&dims, &mut rng);

    // Warm BatchNorm running statistics on the distribution the classifier
    // will actually see: binarized extractor features of random inputs.
    let mut extractor = extractor;
    for _ in 0..20 {
        let mut raw_dims = vec![16usize];
        raw_dims.extend_from_slice(&input_shape);
        let raw = Tensor::randn(raw_dims.as_slice(), 1.0, &mut rng);
        let feats = match &mut extractor {
            Some(e) => e.forward(&raw, Phase::Eval).signum_binary(),
            None => raw.signum_binary(),
        };
        let _ = classifier.forward(&feats, Phase::Train);
    }

    let network = export_classifier(&classifier).expect("generated chain is exportable");
    let name = format!(
        "{}-{}-{}[i{index},s{seed}]",
        family.name(),
        shape_label,
        dims.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("x"),
    );
    GeneratedModel {
        name,
        family,
        extractor,
        classifier,
        network,
        input_shape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for index in 0..4 {
            let a = generate(index, 7);
            let b = generate(index, 7);
            assert_eq!(a.name, b.name);
            assert_eq!(a.network, b.network, "index {index}");
        }
    }

    #[test]
    fn families_cycle_and_edges_are_covered() {
        let mut kernels_seen = Vec::new();
        for index in 0..4 {
            let m = generate(index, 1);
            match index % 4 {
                0 => assert_eq!(m.family, ShapeFamily::Mlp),
                1 => assert_eq!(m.family, ShapeFamily::Ecg),
                2 => assert_eq!(m.family, ShapeFamily::Eeg),
                _ => assert_eq!(m.family, ShapeFamily::Vision),
            }
            if let Some(k) = m.name.split('k').nth(1) {
                let k: String = k.chars().take_while(|c| c.is_ascii_digit()).collect();
                kernels_seen.push(k.parse::<usize>().unwrap());
            }
        }
        // Indices 1 and 2 pin two of the 63/64/65-tap edge kernels.
        assert!(kernels_seen.iter().any(|&k| k >= 63 && k <= 65));
        // Index 0 pins the 65-feature word-boundary MLP.
        let m0 = generate(0, 1);
        assert_eq!(m0.feature_width(), 65);
    }

    #[test]
    fn chain_families_walk_every_fusion_boundary_width() {
        // Index 4 (mod 6) is the deep edge-width chain: every width of the
        // 63/64/65/127/128 walk must appear as some layer's input width,
        // i.e. at the source of some fused step of the compiled plan.
        let m = generate(4, 1);
        assert_eq!(m.family, ShapeFamily::Chain);
        let widths: Vec<usize> = m.network.layers().iter().map(|l| l.in_features()).collect();
        for w in CHAIN_WIDTHS {
            assert!(
                widths.contains(&w),
                "chain model missing edge width {w}: {widths:?}"
            );
        }

        // Index 5 (mod 6) is the 1-channel odd-length conv front.
        let c = generate(5, 1);
        assert_eq!(c.family, ShapeFamily::ChainConv);
        assert_eq!(c.input_shape[0], 1, "single-channel front");
        assert_eq!(c.input_shape[1] % 2, 1, "odd signal length");
        // Its classifier still walks edge widths past the conv width.
        let widths: Vec<usize> = c.network.layers().iter().map(|l| l.in_features()).collect();
        assert!(
            widths.iter().filter(|w| CHAIN_WIDTHS.contains(w)).count() >= 2,
            "conv chain missing edge widths: {widths:?}"
        );

        // The rotation is deterministic.
        assert_eq!(generate(4, 1).name, generate(4, 1).name);
    }

    #[test]
    fn exported_network_matches_declared_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for index in 0..8 {
            let mut m = generate(index, 3);
            let x = m.sample_inputs(5, &mut rng);
            let feats = m.binarized_features(&x);
            assert_eq!(feats.dims(), &[5, m.feature_width()], "{}", m.name);
            assert!(m.classes() >= 2);
            // Features really are ±1.
            assert!(feats.as_slice().iter().all(|v| v.abs() == 1.0));
        }
    }
}
