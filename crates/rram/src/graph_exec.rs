//! Execution-plan replay on the simulated RRAM fabric.
//!
//! [`NetworkEngine::replay_plan`] walks a compiled
//! [`ExecPlan`](rbnn_graph::ExecPlan)'s fused steps and maps each onto the
//! partitioned-array tile dispatch of [`DenseEngine`](crate::DenseEngine):
//! a fused hidden step becomes one batched tile sweep
//! ([`popcounts_batch`](crate::DenseEngine::popcounts_batch) — per-column
//! word-level input cuts fanned out across row tiles) whose sensed
//! popcounts are fired through the plan's folded thresholds and packed
//! straight back into the plan arena
//! ([`threshold_pack_row`](rbnn_graph::threshold_pack_row)). No
//! intermediate count matrices or `BitVec` activation vectors survive
//! between layers — the in-memory analogue of the fused software kernel,
//! and the execution shape the paper's architecture actually has: arrays
//! sense, thresholds fire in the periphery, packed words flow to the next
//! array group.
//!
//! On noise-free fabric the replay is bitwise-equal to both the engine's
//! single-sample [`logits`](NetworkEngine::logits) walk and the software
//! [`ExecPlan::replay_rows`](rbnn_graph::ExecPlan::replay_rows), and it
//! fires exactly as many senses as the single-sample walk: identical
//! threshold folds, identical affine float expression, one sense per
//! tile row per sample.

use crate::engine::{record_fabric_senses, NetworkEngine};
use rbnn_graph::{pack_rows, threshold_pack_row, ExecPlan, PlanBuffers, Step};
use rbnn_tensor::BitVec;

impl NetworkEngine {
    /// Replays a compiled execution plan over a batch of float feature
    /// rows on the array fabric, writing `rows.len() × out_features`
    /// logits row-major into `out`.
    ///
    /// The plan must have been compiled from the same network this engine
    /// was programmed with (checked by layer count and widths). Sensing is
    /// Monte-Carlo on marginal cells exactly as in [`logits`](Self::logits);
    /// on noise-free fabric the result equals it bit for bit, row by row.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match the programmed network, the batch
    /// exceeds the plan capacity, or `out` is too short.
    pub fn replay_plan(
        &mut self,
        plan: &ExecPlan,
        rows: &[&[f32]],
        buffers: &mut PlanBuffers,
        out: &mut [f32],
    ) {
        let n = rows.len();
        assert_eq!(
            plan.steps().len(),
            self.layers().len() + 1,
            "plan depth differs from programmed network"
        );
        for step in plan.steps() {
            if let Step::FusedHidden { layer, src, .. } | Step::FusedLogits { layer, src, .. } =
                step
            {
                assert_eq!(
                    src.width,
                    self.layers()[*layer].in_features(),
                    "plan layer width differs from programmed network"
                );
            }
        }
        assert!(n <= plan.max_batch(), "batch exceeds plan capacity");
        assert!(
            out.len() >= n * plan.out_features(),
            "output slice too short for batch"
        );
        let before = rbnn_telemetry::enabled().then(|| self.stats().senses);
        for step in plan.steps() {
            match step {
                Step::Pack { dst } => pack_rows(rows, dst, buffers.arena_mut()),
                Step::FusedHidden {
                    layer,
                    src,
                    dst,
                    thresholds,
                    ..
                } => {
                    let xs: Vec<BitVec> = (0..n)
                        .map(|i| BitVec::from_words(src.row(buffers.arena(), i), src.width))
                        .collect();
                    let counts = self.layers_mut()[*layer].popcounts_batch(&xs);
                    let arena = buffers.arena_mut();
                    for (i, sensed) in counts.iter().enumerate() {
                        threshold_pack_row(thresholds, sensed, dst.row_mut(arena, i));
                    }
                }
                Step::FusedLogits {
                    layer,
                    src,
                    scale,
                    shift,
                    ..
                } => {
                    let xs: Vec<BitVec> = (0..n)
                        .map(|i| BitVec::from_words(src.row(buffers.arena(), i), src.width))
                        .collect();
                    let counts = self.layers_mut()[*layer].popcounts_batch(&xs);
                    let classes = scale.len();
                    let n_in = src.width as f32;
                    for (i, sensed) in counts.iter().enumerate() {
                        let orow = &mut out[i * classes..(i + 1) * classes];
                        for (r, o) in orow.iter_mut().enumerate() {
                            *o = scale[r] * (2.0 * sensed[r] as f32 - n_in) + shift[r];
                        }
                    }
                }
            }
        }
        if let Some(b) = before {
            record_fabric_senses(self.stats().senses - b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use rbnn_binary::{BinaryDense, BinaryNetwork};
    use rbnn_tensor::BitMatrix;

    fn net(dims: &[usize], seed: u64) -> BinaryNetwork {
        let layers = dims
            .windows(2)
            .map(|w| {
                let (inp, out) = (w[0], w[1]);
                let signs: Vec<f32> = (0..inp * out)
                    .map(|i| {
                        if (i as u64).wrapping_mul(seed | 1) % 7 < 3 {
                            -1.0
                        } else {
                            1.0
                        }
                    })
                    .collect();
                let scale: Vec<f32> = (0..out).map(|r| 0.5 + (r % 3) as f32 * 0.25).collect();
                let shift: Vec<f32> = (0..out).map(|r| (r as f32) - out as f32 / 2.0).collect();
                BinaryDense::new(BitMatrix::from_signs(&signs, out, inp), scale, shift)
            })
            .collect();
        BinaryNetwork::new(layers)
    }

    fn rows(n: usize, width: usize, seed: u64) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..width)
                    .map(|j| {
                        let h = (i * width + j) as u64 ^ seed;
                        (h.wrapping_mul(0x9E37_79B9) % 200) as f32 / 10.0 - 10.0
                    })
                    .collect()
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn plan_replay_matches_single_sample_engine_walk_on_noise_free_fabric() {
        for (i, dims) in [
            vec![65, 63, 127, 4],
            // Degenerate shapes: a single layer (Pack → FusedLogits, one
            // buffer), one output class, width-1 layers, and 63/64/65 at
            // every layer.
            vec![65, 3],
            vec![64, 65, 1],
            vec![1, 1, 1, 1],
            vec![63, 64, 65, 63],
            vec![65, 63, 64, 65],
        ]
        .iter()
        .enumerate()
        {
            let network = net(dims, 0x11 + i as u64);
            let cfg = EngineConfig::noise_free(0x5EED);
            let batch = rows(6, dims[0], 0x77);
            let refs: Vec<&[f32]> = batch.iter().map(|r| r.as_slice()).collect();
            let classes = network.out_features();
            let oracle: Vec<f32> = batch.iter().flat_map(|r| network.logits(r)).collect();

            let mut single_engine = NetworkEngine::program(&network, &cfg);
            let single: Vec<f32> = batch.iter().flat_map(|r| single_engine.logits(r)).collect();

            let plan = ExecPlan::compile(&network, 8);
            let mut soft = vec![0.0f32; 6 * classes];
            plan.replay_rows(&refs, &mut plan.buffers(), &mut soft);

            let mut buffers = plan.buffers();
            let mut out = vec![0.0f32; 6 * classes];
            let mut plan_engine = NetworkEngine::program(&network, &cfg);
            plan_engine.replay_plan(&plan, &refs, &mut buffers, &mut out);

            assert_eq!(bits(&single), bits(&oracle), "engine walk on {dims:?}");
            assert_eq!(bits(&soft), bits(&oracle), "software replay on {dims:?}");
            assert_eq!(bits(&out), bits(&oracle), "fabric replay on {dims:?}");
            // One sense per tile row per sample on both paths.
            assert_eq!(
                single_engine.stats().senses,
                plan_engine.stats().senses,
                "sense count on {dims:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "plan layer width differs from programmed network")]
    fn plan_of_another_network_is_refused() {
        let plan = ExecPlan::compile(&net(&[65, 64, 2], 1), 4);
        let mut engine =
            NetworkEngine::program(&net(&[65, 63, 2], 1), &EngineConfig::noise_free(1));
        let batch = rows(1, 65, 2);
        let refs: Vec<&[f32]> = batch.iter().map(|r| r.as_slice()).collect();
        engine.replay_plan(&plan, &refs, &mut plan.buffers(), &mut [0.0; 2]);
    }

    #[test]
    fn plan_replay_matches_the_software_replay_on_noise_free_fabric() {
        let network = net(&[128, 64, 2], 0x22);
        let batch = rows(5, 128, 0x99);
        let refs: Vec<&[f32]> = batch.iter().map(|r| r.as_slice()).collect();

        let plan = ExecPlan::compile(&network, 5);
        let mut soft_buf = plan.buffers();
        let mut soft = vec![0.0f32; 5 * 2];
        plan.replay_rows(&refs, &mut soft_buf, &mut soft);

        let mut engine = NetworkEngine::program(&network, &EngineConfig::noise_free(3));
        let mut hw_buf = plan.buffers();
        let mut hw = vec![0.0f32; 5 * 2];
        engine.replay_plan(&plan, &refs, &mut hw_buf, &mut hw);

        assert_eq!(bits(&soft), bits(&hw));
    }
}
