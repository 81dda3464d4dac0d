//! The single-sample binarized inference path (packing + XNOR/popcount)
//! must produce bitwise-identical results with the forced-scalar oracle
//! and with runtime SIMD dispatch active — including on adversarial inputs
//! (NaN, `-0.0`) at the sign-binarized input interface. The batched plan
//! path carries the same check in `rbnn-graph`.

use std::sync::Mutex;

use rbnn_binary::{BinaryDense, BinaryNetwork};
use rbnn_tensor::{clear_forced_scalar, set_forced_scalar, BitVec, Tensor};

static SCALAR_TOGGLE: Mutex<()> = Mutex::new(());

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

fn pm1(seed: &mut u64, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| if xorshift(seed) & 1 == 1 { 1.0 } else { -1.0 })
        .collect()
}

/// A 2-layer network wide enough (408→75→2, the deployed-ECG shape) that
/// its rows span multiple popcount words.
fn network(seed: &mut u64) -> BinaryNetwork {
    let (inf, hid, out) = (408usize, 75usize, 2usize);
    let l1 = BinaryDense::from_sign_tensor(
        &Tensor::from_vec(pm1(seed, hid * inf), [hid, inf]),
        vec![1.0; hid],
        vec![0.0; hid],
    );
    let l2 = BinaryDense::from_sign_tensor(
        &Tensor::from_vec(pm1(seed, out * hid), [out, hid]),
        vec![1.0; out],
        vec![0.5; out],
    );
    BinaryNetwork::new(vec![l1, l2])
}

#[test]
fn inference_paths_bitwise_equal_across_dispatch_modes() {
    let _guard = SCALAR_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0x6c62_272e_07bb_0142u64;
    let net = network(&mut seed);
    let batch = 9usize;
    let features: Vec<f32> = (0..batch * net.in_features())
        .map(|i| match i % 13 {
            0 => f32::NAN,
            1 => -0.0,
            _ => (xorshift(&mut seed) as i64 as f32) / 1e17,
        })
        .collect();
    let mut runs = Vec::new();
    for forced in [true, false] {
        set_forced_scalar(forced);
        let logits: Vec<f32> = features
            .chunks(net.in_features())
            .flat_map(|r| net.logits(r))
            .collect();
        runs.push(logits);
    }
    clear_forced_scalar();

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&runs[0]), bits(&runs[1]));
}

#[test]
fn forward_sign_bitwise_equal_across_dispatch_modes() {
    let _guard = SCALAR_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0x1000_0000_01b3u64;
    let net = network(&mut seed);
    let x_values = pm1(&mut seed, net.in_features());

    set_forced_scalar(true);
    let scalar = net.layers()[0].forward_sign(&BitVec::from_signs(&x_values));
    set_forced_scalar(false);
    let dispatched = net.layers()[0].forward_sign(&BitVec::from_signs(&x_values));
    clear_forced_scalar();
    assert_eq!(scalar, dispatched);
}
