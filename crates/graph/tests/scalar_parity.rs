//! Scalar == dispatched for plan replay: every compiled plan replays to
//! the same logits bits under the forced-scalar kernels as under runtime
//! dispatch (AVX2 / AVX-512 where the host has them), and both equal the
//! single-sample oracle. Covers the paper's 408→75→2 ECG shape at batch
//! sizes around the fused kernel's 4-sample blocking and the edge-width
//! chains of the executor's unit tests.
//!
//! A test binary of its own because the forced-scalar override is
//! process-global; the tests serialize on a lock so neither observes the
//! other's toggle mid-replay. Under `RBNN_KERNELS=scalar` both sides run
//! the scalar kernels and the check still holds.

use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_binary::{BinaryDense, BinaryNetwork};
use rbnn_graph::ExecPlan;
use rbnn_tensor::{clear_forced_scalar, set_forced_scalar, BitMatrix};

/// Serializes the tests that toggle the process-global kernel override.
static KERNEL_MODE: Mutex<()> = Mutex::new(());

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
fn assert_parity(dims: &[usize], n: usize, seed: u64) {
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
        assert_parity(&[408, 75, 2], n, 0xEC6 + n as u64);
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
            assert_parity(dims, n, 0xA11CE + i as u64);
        }
    }
}
