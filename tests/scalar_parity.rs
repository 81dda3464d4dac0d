//! Scalar == dispatched for training: a small dense MLP and a small
//! Conv1d net each train a few epochs through the runtime-dispatched
//! kernels and again pinned to the forced-scalar oracle, and the per-epoch
//! loss / accuracy / validation histories must be bitwise equal. The
//! scalar and SIMD kernels share one contraction order, so the instruction
//! set may change speed, never bits.
//!
//! A test binary of its own because the forced-scalar override is
//! process-global; the two tests serialize on a lock so neither observes
//! the other's toggle mid-run. Under `RBNN_KERNELS=scalar` both sides run
//! the scalar kernels and the check still holds.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rbnn_nn::{
    train, Activation, Adam, BatchNorm, Conv1d, Dense, Flatten, Pool1d, PoolKind, Sequential,
    WeightMode,
};
use rbnn_tensor::{clear_forced_scalar, set_forced_scalar, Tensor};

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
