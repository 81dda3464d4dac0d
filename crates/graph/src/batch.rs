//! One-shot batched evaluation through a compiled [`ExecPlan`].
//!
//! Offline callers — accuracy meters, fault campaigns, parity checks —
//! classify whole feature matrices once rather than serving a stream of
//! batches. These helpers compile a plan sized to the matrix (capped at
//! 256 rows) and replay it chunk by chunk, so the fused
//! plan is the only batched inference path in the workspace. Results are
//! bitwise-equal to [`BinaryNetwork::logits`] on every row.

use rbnn_binary::BinaryNetwork;
use rbnn_tensor::Tensor;

use crate::ExecPlan;

/// Largest plan a one-shot evaluation compiles: bigger matrices replay in
/// chunks of this many rows, bounding the arena at a few hundred KiB.
const MAX_PLAN_BATCH: usize = 256;

/// Logits of separate per-sample feature rows, as an `[N, out_features]`
/// tensor.
///
/// # Panics
///
/// Panics if a row's width differs from `network.in_features()`.
pub fn logits_rows(network: &BinaryNetwork, rows: &[&[f32]]) -> Tensor {
    let plan = ExecPlan::compile(network, rows.len().clamp(1, MAX_PLAN_BATCH));
    let mut buffers = plan.buffers();
    let classes = plan.out_features();
    let mut out = vec![0.0; rows.len() * classes];
    for (chunk, dst) in rows
        .chunks(plan.max_batch())
        .zip(out.chunks_mut(plan.max_batch() * classes))
    {
        plan.replay_rows(chunk, &mut buffers, dst);
    }
    Tensor::from_vec(out, [rows.len(), classes])
}

/// Logits of a `[N, in_features]` feature matrix, as an
/// `[N, out_features]` tensor.
///
/// # Panics
///
/// Panics if `features` is not 2-D with width `network.in_features()`.
pub fn logits_batch(network: &BinaryNetwork, features: &Tensor) -> Tensor {
    assert_eq!(features.shape().ndim(), 2, "expected [N, features]");
    let width = features.dim(1);
    assert_eq!(width, network.in_features(), "feature width mismatch");
    let xs = features.as_slice();
    let rows: Vec<&[f32]> = (0..features.dim(0))
        .map(|i| &xs[i * width..(i + 1) * width])
        .collect();
    logits_rows(network, &rows)
}

/// Argmax class of every row of a `[N, in_features]` feature matrix.
///
/// # Panics
///
/// Panics under the same conditions as [`logits_batch`].
pub fn classify_batch(network: &BinaryNetwork, features: &Tensor) -> Vec<usize> {
    let logits = logits_batch(network, features);
    logits
        .as_slice()
        .chunks_exact(network.out_features())
        .map(rbnn_tensor::argmax)
        .collect()
}

/// Top-1 accuracy over a `[N, in_features]` feature matrix (0 for an empty
/// one).
///
/// # Panics
///
/// Panics if the row count differs from `labels.len()` or under the
/// conditions of [`logits_batch`].
pub fn accuracy(network: &BinaryNetwork, features: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(features.dim(0), labels.len(), "label count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = classify_batch(network, features);
    let hits = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
    hits as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rbnn_binary::BinaryDense;
    use rbnn_tensor::BitMatrix;

    fn random_net(inp: usize, hid: usize, cls: usize, rng: &mut StdRng) -> BinaryNetwork {
        let mut mk = |out: usize, inp: usize| {
            let w: Vec<f32> = (0..out * inp)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let scale: Vec<f32> = (0..out).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let shift: Vec<f32> = (0..out).map(|_| rng.gen_range(-3.0..3.0)).collect();
            BinaryDense::new(BitMatrix::from_signs(&w, out, inp), scale, shift)
        };
        let l1 = mk(hid, inp);
        let l2 = mk(cls, hid);
        BinaryNetwork::new(vec![l1, l2])
    }

    #[test]
    fn batched_logits_are_bitwise_equal_to_single_sample() {
        let mut rng = StdRng::seed_from_u64(44);
        // Odd widths, word-boundary sizes, an empty matrix and one larger
        // than a single plan chunk.
        for (case, n) in [0usize, 1, 7, 64, MAX_PLAN_BATCH + 3]
            .into_iter()
            .enumerate()
        {
            let inp = rng.gen_range(1usize..200);
            let hid = rng.gen_range(1usize..70);
            let cls = rng.gen_range(2usize..6);
            let net = random_net(inp, hid, cls, &mut rng);
            let xs: Vec<f32> = (0..n * inp).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let features = Tensor::from_vec(xs.clone(), [n, inp]);
            let got = logits_batch(&net, &features);
            assert_eq!(got.dims(), [n, cls]);
            let preds = classify_batch(&net, &features);
            for i in 0..n {
                let row = &xs[i * inp..(i + 1) * inp];
                let single = net.logits(row);
                let batched = &got.as_slice()[i * cls..(i + 1) * cls];
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(batched), bits(&single), "case {case}, row {i}");
                assert_eq!(preds[i], net.classify(row));
            }
        }
    }

    #[test]
    fn accuracy_counts_correctly() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = random_net(33, 9, 3, &mut rng);
        let xs: Vec<f32> = (0..10 * 33).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let features = Tensor::from_vec(xs, [10, 33]);
        let preds = classify_batch(&net, &features);
        assert_eq!(accuracy(&net, &features, &preds), 1.0);
        let wrong: Vec<usize> = preds.iter().map(|&p| (p + 1) % 3).collect();
        assert_eq!(accuracy(&net, &features, &wrong), 0.0);
        let empty = Tensor::from_vec(Vec::new(), [0, 33]);
        assert_eq!(accuracy(&net, &empty, &[]), 0.0);
    }
}
