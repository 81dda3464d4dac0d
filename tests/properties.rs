//! Property-based tests of the core invariants, spanning crates.
//!
//! Offline replacement for the original `proptest` suite: each property is
//! exercised over `CASES` deterministically seeded random inputs drawn from
//! the same domains the proptest strategies used. Failures print the case
//! seed so a reproduction is one `StdRng::seed_from_u64` away.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_binary::{fold_batchnorm_sign, BinaryDense, BinaryNetwork};
use rbnn_rram::{DeviceParams, Pcsa, PcsaParams, RramArray, Synapse2T2R};
use rbnn_tensor::{im2col1d, im2col1d_backward, BitMatrix, BitVec, Conv1dGeom, Tensor};

const CASES: u64 = 64;

/// Runs `body` for `CASES` seeds derived from `base`.
fn for_cases(base: u64, mut body: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let seed = base.wrapping_mul(0x100_0000).wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(seed);
        body(seed, &mut rng);
    }
}

/// Eq. 3 equivalence: the packed XNOR/popcount ±1 dot product equals the
/// float dot product for arbitrary sign patterns and lengths.
#[test]
fn xnor_dot_equals_float_dot() {
    for_cases(1, |seed, rng| {
        let n = rng.gen_range(1usize..300);
        let bits_a: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
        let bits_b: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
        let fa: Vec<f32> = bits_a.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let fb: Vec<f32> = bits_b.iter().map(|&b| if b { 1.0 } else { -1.0 }).collect();
        let dot: f32 = fa.iter().zip(&fb).map(|(x, y)| x * y).sum();
        let ba = BitVec::from_bools(&bits_a);
        let bb = BitVec::from_bools(&bits_b);
        assert_eq!(ba.dot_pm1(&bb), dot as i32, "seed {seed}");
    });
}

/// The folded integer threshold agrees with float BatchNorm + sign for
/// every reachable popcount value.
#[test]
fn threshold_fold_is_exact() {
    for_cases(2, |seed, rng| {
        let scale = rng.gen_range(-4.0f32..4.0);
        let shift = rng.gen_range(-50.0f32..50.0);
        let fan_in = rng.gen_range(1usize..300);
        let th = fold_batchnorm_sign(scale, shift, fan_in);
        for p in 0..=fan_in as u32 {
            let d = 2.0 * p as f32 - fan_in as f32;
            let float_fire = scale * d + shift >= 0.0;
            assert_eq!(
                th.fire(p),
                float_fire,
                "seed {seed}: p={p}, scale={scale}, shift={shift}, fan_in={fan_in}"
            );
        }
    });
}

/// im2col backward is the exact adjoint of im2col for arbitrary geometry
/// (random probe identity ⟨Ax, y⟩ = ⟨x, Aᵀy⟩).
#[test]
fn im2col_adjoint_identity() {
    for_cases(3, |seed, rng| {
        let channels = rng.gen_range(1usize..4);
        let len = rng.gen_range(4usize..24);
        let kernel = rng.gen_range(1usize..5);
        let stride = rng.gen_range(1usize..3);
        let padding = rng.gen_range(0usize..3);
        if len + 2 * padding < kernel {
            return; // prop_assume! equivalent
        }
        let geom = Conv1dGeom::new(channels, len, kernel, stride, padding);
        let x = Tensor::randn([channels, len], 1.0, rng);
        let y = Tensor::randn([geom.patch_rows(), geom.out_len()], 1.0, rng);
        let lhs = im2col1d(&x, &geom).dot(&y);
        let rhs = x.dot(&im2col1d_backward(&y, &geom));
        assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "seed {seed}: adjoint mismatch: {lhs} vs {rhs}"
        );
    });
}

/// Fresh 2T2R synapses read back the programmed weight through a real
/// (mismatched) PCSA — the margin is large enough that fabrication offsets
/// never flip a fresh read.
#[test]
fn fresh_synapse_roundtrip() {
    for_cases(4, |seed, rng| {
        let weight = rng.gen::<bool>();
        let params = DeviceParams::hfo2_default();
        let pcsa = Pcsa::new(&PcsaParams::default_130nm(), rng);
        let syn = Synapse2T2R::new(weight, &params, rng);
        assert_eq!(syn.read(&pcsa, &params, rng), weight, "seed {seed}");
    });
}

/// A fresh array stores and retrieves arbitrary bit patterns exactly.
#[test]
fn array_roundtrip() {
    for_cases(5, |seed, rng| {
        let pattern: Vec<bool> = (0..64).map(|_| rng.gen::<bool>()).collect();
        let mut array = RramArray::new(
            8,
            8,
            DeviceParams::hfo2_default(),
            PcsaParams::default_130nm(),
            rng.gen::<u64>(),
        );
        let signs: Vec<f32> = pattern
            .iter()
            .map(|&b| if b { 1.0 } else { -1.0 })
            .collect();
        let m = BitMatrix::from_signs(&signs, 8, 8);
        array.program_matrix(&m);
        for r in 0..8 {
            let bits = array.read_row(r);
            for c in 0..8 {
                assert_eq!(bits.get(c), m.get(r, c), "seed {seed}: ({r}, {c})");
            }
        }
    });
}

/// Deployed binary dense layers: forward_sign equals the sign of
/// forward_affine for random weights and thresholds.
#[test]
fn binary_dense_sign_affine_agree() {
    for_cases(6, |seed, rng| {
        let out = rng.gen_range(1usize..8);
        let inp = rng.gen_range(1usize..80);
        let w: Vec<f32> = (0..out * inp)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let scale: Vec<f32> = (0..out).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let shift: Vec<f32> = (0..out).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let layer = BinaryDense::new(BitMatrix::from_signs(&w, out, inp), scale, shift);
        let x: BitVec = (0..inp).map(|_| rng.gen::<bool>()).collect();
        let signs = layer.forward_sign(&x);
        let affine = layer.forward_affine(&x);
        for (i, &a) in affine.iter().enumerate() {
            assert_eq!(
                signs.get(i),
                a >= 0.0,
                "seed {seed}: neuron {i}: affine {a}"
            );
        }
    });
}

/// Dataset k-fold partitions: folds are disjoint and complete for any
/// size/k combination.
#[test]
fn kfold_partitions() {
    for_cases(7, |seed, rng| {
        let n = rng.gen_range(10usize..60);
        let k = rng.gen_range(2usize..6);
        if k > n {
            return;
        }
        let ds = rbnn_data::Dataset::new(Tensor::zeros([n, 2]), (0..n).map(|i| i % 2).collect(), 2);
        let folds = ds.fold_indices(k);
        let mut seen = vec![false; n];
        for fold in &folds {
            for &i in fold {
                assert!(!seen[i], "seed {seed}: index {i} in two folds");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "seed {seed}: incomplete partition");
    });
}

/// Batch/single parity: batched `rbnn_graph::logits_batch` (a compiled
/// plan) is bit-for-bit equal to per-sample `BinaryNetwork::logits`, and
/// `classify_batch` to per-sample `classify`, for random networks, batch
/// sizes and inputs (including empty batches).
#[test]
fn logits_batch_matches_single() {
    for_cases(8, |seed, rng| {
        let classes = rng.gen_range(2usize..6);
        let hidden = rng.gen_range(1usize..40);
        let inp = rng.gen_range(1usize..150);
        let mk = |out: usize, inp: usize, rng: &mut StdRng| {
            let w: Vec<f32> = (0..out * inp)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let scale: Vec<f32> = (0..out).map(|_| rng.gen_range(0.2..2.0)).collect();
            let shift: Vec<f32> = (0..out).map(|_| rng.gen_range(-3.0..3.0)).collect();
            BinaryDense::new(BitMatrix::from_signs(&w, out, inp), scale, shift)
        };
        let net = BinaryNetwork::new(vec![mk(hidden, inp, rng), mk(classes, hidden, rng)]);
        let n = rng.gen_range(0usize..17);
        let xs: Vec<f32> = (0..n * inp).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let features = Tensor::from_vec(xs.clone(), [n, inp]);
        let batched = rbnn_graph::logits_batch(&net, &features);
        assert_eq!(batched.dims(), [n, classes], "seed {seed}");
        let classes_batch = rbnn_graph::classify_batch(&net, &features);
        for i in 0..n {
            let single = net.logits(&xs[i * inp..(i + 1) * inp]);
            assert_eq!(
                &batched.as_slice()[i * classes..(i + 1) * classes],
                single.as_slice(),
                "seed {seed}: row {i} diverges from single-sample logits"
            );
            assert_eq!(
                classes_batch[i],
                net.classify(&xs[i * inp..(i + 1) * inp]),
                "seed {seed}: row {i} classification"
            );
        }
    });
}
