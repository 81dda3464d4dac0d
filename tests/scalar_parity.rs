//! Scalar == dispatched for training and for plan replay.
//!
//! * Training: a small dense MLP and a small Conv1d net each train a few
//!   epochs through the runtime-dispatched kernels and again pinned to the
//!   forced-scalar oracle, and the per-epoch loss / accuracy / validation
//!   histories must be bitwise equal. The scalar and SIMD kernels share
//!   one contraction order, so the instruction set may change speed,
//!   never bits.
//! * Plan replay: every compiled plan replays to the same logits bits
//!   under the forced-scalar kernels as under runtime dispatch (AVX2 /
//!   AVX-512 where the host has them), and both equal the single-sample
//!   oracle. Covers the paper's 408→75→2 ECG shape at batch sizes around
//!   the fused kernel's 4-sample blocking and the edge-width chains of the
//!   executor's unit tests.
//!
//! A test binary of its own because the forced-scalar override is
//! process-global; the tests serialize on a lock so none observes another's
//! toggle mid-run. Under `RBNN_KERNELS=scalar` both sides run the scalar
//! kernels and the checks still hold.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_binary::{BinaryDense, BinaryNetwork};
use rbnn_graph::ExecPlan;
use rbnn_nn::{
    train, Activation, Adam, BatchNorm, Conv1d, Dense, Flatten, Pool1d, PoolKind, Sequential,
    WeightMode,
};
use rbnn_tensor::{clear_forced_scalar, set_forced_scalar, BitMatrix, Tensor};

const EPOCHS: usize = 3;

/// Serializes the tests that toggle the process-global kernel override.
static KERNEL_MODE: Mutex<()> = Mutex::new(());

/// Gaussian features labelled by a planted linear rule. The operands must
/// be real-valued: with ±1 inputs and binary weights every product is
/// exact, and a fused vs unfused contraction would leave the loss bits
/// unchanged.
fn gaussian_task(n: usize, features: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let x = Tensor::randn([n, features], 1.0, &mut StdRng::seed_from_u64(seed));
    let y = x
        .as_slice()
        .chunks_exact(features)
        .map(|row| usize::from(row.iter().step_by(3).sum::<f32>() > 0.0))
        .collect();
    (x, y)
}

/// Trains a fresh model and returns its whole history as raw bits.
fn history_bits(
    build: &dyn Fn() -> Sequential,
    (x, y): (&Tensor, &[usize]),
    (vx, vy): (&Tensor, &[usize]),
) -> Vec<u32> {
    let mut model = build();
    let cfg = train::TrainConfig {
        epochs: EPOCHS,
        batch_size: 32,
        seed: 9,
        ..Default::default()
    };
    let hist = train::fit(
        &mut model,
        train::Labelled::new(x, y),
        Some(train::Labelled::new(vx, vy)),
        &mut Adam::new(0.01),
        &cfg,
    );
    assert_eq!(hist.train_loss.len(), EPOCHS);
    assert!(hist.train_loss.iter().all(|l| l.is_finite()));
    let mut bits: Vec<u32> = hist.train_loss.iter().map(|v| v.to_bits()).collect();
    bits.extend(hist.train_acc.iter().map(|v| v.to_bits()));
    bits.extend(hist.val_acc.iter().map(|&(_, v)| v.to_bits()));
    bits
}

fn assert_scalar_parity(
    build: &dyn Fn() -> Sequential,
    train_set: (&Tensor, &[usize]),
    val_set: (&Tensor, &[usize]),
) {
    let _guard = KERNEL_MODE.lock().unwrap_or_else(PoisonError::into_inner);
    let dispatched = history_bits(build, train_set, val_set);
    set_forced_scalar(true);
    let scalar = history_bits(build, train_set, val_set);
    clear_forced_scalar();
    assert_eq!(scalar, dispatched, "forced-scalar history differs");
}

#[test]
fn dense_mlp_trains_bitwise_equal_under_forced_scalar() {
    // 100 inputs and 37 hidden units straddle the GEMM register tile.
    let (x, y) = gaussian_task(256, 100, 3);
    let (vx, vy) = gaussian_task(64, 100, 4);
    let build = || {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Sequential::new();
        net.push(Dense::new(100, 37, WeightMode::Real, &mut rng).without_bias());
        net.push(BatchNorm::new(37));
        // Not `sign`: a sign activation would hide last-bit differences
        // in the pre-activations from everything downstream.
        net.push(Activation::hardtanh());
        net.push(Dense::new(37, 2, WeightMode::Real, &mut rng));
        net
    };
    assert_scalar_parity(&build, (&x, &y), (&vx, &vy));
}

#[test]
fn conv1d_net_trains_bitwise_equal_under_forced_scalar() {
    let (channels, len) = (3, 40);
    let (x, y) = gaussian_task(192, channels * len, 5);
    let (vx, vy) = gaussian_task(64, channels * len, 6);
    let x = x.reshape([y.len(), channels, len]);
    let vx = vx.reshape([vy.len(), channels, len]);
    let build = || {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Sequential::new();
        net.push(Conv1d::new(channels, 6, 5, 1, 2, WeightMode::Real, &mut rng).without_bias());
        net.push(BatchNorm::new(6));
        net.push(Activation::relu());
        net.push(Pool1d::new(PoolKind::Max, 2, 2));
        net.push(Flatten::new());
        net.push(Dense::new(6 * len / 2, 2, WeightMode::Binary, &mut rng));
        net
    };
    assert_scalar_parity(&build, (&x, &y), (&vx, &vy));
}

/// A random binarized MLP; mixed-sign BatchNorm scales exercise the
/// negated threshold fold.
fn random_net(dims: &[usize], seed: u64) -> BinaryNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = dims
        .windows(2)
        .map(|w| {
            let (inp, out) = (w[0], w[1]);
            let signs: Vec<f32> = (0..inp * out)
                .map(|_| if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 })
                .collect();
            let scale: Vec<f32> = (0..out)
                .map(|_| (rng.gen_range(1..100) as f32 / 50.0) - 1.0)
                .collect();
            let shift: Vec<f32> = (0..out)
                .map(|_| (rng.gen_range(0..100) as f32 / 10.0) - 5.0)
                .collect();
            BinaryDense::new(BitMatrix::from_signs(&signs, out, inp), scale, shift)
        })
        .collect();
    BinaryNetwork::new(layers)
}

fn random_rows(n: usize, width: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (0..width)
                .map(|_| (rng.gen_range(0..200) as f32 / 10.0) - 10.0)
                .collect()
        })
        .collect()
}

/// Replays `rows` through a plan compiled for exactly that batch, with
/// the kernels forced scalar or dispatched, and returns the logits bits.
fn replay_bits(net: &BinaryNetwork, rows: &[Vec<f32>], scalar: bool) -> Vec<u32> {
    set_forced_scalar(scalar);
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    let plan = ExecPlan::compile(net, rows.len());
    let mut buffers = plan.buffers();
    let mut out = vec![0.0f32; rows.len() * plan.out_features()];
    plan.replay_rows(&refs, &mut buffers, &mut out);
    clear_forced_scalar();
    out.iter().map(|x| x.to_bits()).collect()
}

/// Scalar and dispatched replay agree with each other and the oracle.
fn assert_replay_parity(dims: &[usize], n: usize, seed: u64) {
    let net = random_net(dims, seed);
    let rows = random_rows(n, dims[0], seed ^ 0xFEED);
    let scalar = replay_bits(&net, &rows, true);
    let dispatched = replay_bits(&net, &rows, false);
    assert_eq!(
        dispatched, scalar,
        "dispatched replay diverged from forced scalar on {dims:?} at batch {n}"
    );
    let oracle: Vec<u32> = rows
        .iter()
        .flat_map(|r| net.logits(r))
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(
        scalar, oracle,
        "replay diverged from the oracle on {dims:?}"
    );
}

#[test]
fn ecg_shape_replays_bitwise_equal_under_forced_scalar() {
    let _guard = KERNEL_MODE.lock().unwrap_or_else(PoisonError::into_inner);
    for n in [1usize, 3, 4, 5, 63, 64] {
        assert_replay_parity(&[408, 75, 2], n, 0xEC6 + n as u64);
    }
}

#[test]
fn edge_width_chains_replay_bitwise_equal_under_forced_scalar() {
    let _guard = KERNEL_MODE.lock().unwrap_or_else(PoisonError::into_inner);
    for (i, dims) in [
        vec![63, 64, 2],
        vec![64, 65, 127, 3],
        vec![65, 63, 64, 127, 128, 5],
        vec![128, 127, 4],
        vec![33, 17, 2],
        vec![1, 1, 2],
    ]
    .iter()
    .enumerate()
    {
        for n in [1usize, 4, 7, 9] {
            assert_replay_parity(dims, n, 0xA11CE + i as u64);
        }
    }
}
