//! The cross-backend differential oracle.
//!
//! One generated model, five executions of the same samples:
//!
//! 1. **float** — the `rbnn-nn` training graph in eval phase (the
//!    reference the classifier was trained as);
//! 2. **binary single** — [`rbnn_binary::BinaryNetwork::logits`] per
//!    sample (the integer XNOR/popcount datapath): the scalar oracle every
//!    other binary path is held to;
//! 3. **plan** — a compiled [`rbnn_graph::ExecPlan`] replayed
//!    through the fused packed-word kernels (the workspace's one batched
//!    path), in software and on the RRAM fabric;
//! 4. **RRAM single** — [`rbnn_rram::NetworkEngine::logits`] sensing one
//!    sample at a time on simulated 2T2R arrays;
//! 5. **serve** — the full `rbnn-serve` enqueue → batcher → worker-pool
//!    pipeline, on the software backend and on the RRAM backend.
//!
//! Agreement contract: paths 2–5 on noise-free fabric
//! ([`rbnn_rram::EngineConfig::noise_free`]) must agree **bit-for-bit**
//! (`f32::to_bits` equality of every logit — they all compute
//! `scale·(2·popcount − n) + shift` from identical integer popcounts).
//! Path 1 computes the same quantities through float BatchNorm in a
//! different association order, so it is held to sign agreement: every
//! logit sign and every argmax must match except within a tiny
//! numerical tie band. A sixth, *noisy* execution replays the plan on a
//! deliberately marginal fabric and checks the observed argmax
//! disagreements against the margin model's calibrated flip-probability
//! bound.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbnn_nn::{Layer, Phase};
use rbnn_rram::{EngineConfig, NetworkEngine};
use rbnn_serve::{Backend, ModelRegistry, PendingWindow, ServeConfig, ServeTask, Server};
use rbnn_tensor::{argmax, Tensor};

use crate::generate::GeneratedModel;

/// Oracle run configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Samples evaluated per model.
    pub samples: usize,
    /// Seed for input sampling (independent of the model seed).
    pub seed: u64,
    /// Also push every sample through the `rbnn-serve` pipeline (software
    /// and noise-free RRAM backends). Costs two server spawns per model.
    pub serve: bool,
    /// Also run the noisy-fabric margin-bound check.
    pub noisy: bool,
    /// Read-noise level (log-resistance σ) of the noisy fabric — high
    /// enough to populate the marginal band on fresh devices.
    pub noisy_read_noise: f64,
    /// Numerical tie band for float↔binary sign/argmax comparison.
    pub tie_tolerance: f32,
}

impl Default for OracleConfig {
    fn default() -> Self {
        Self {
            samples: 48,
            seed: 0x0AC1E,
            serve: true,
            noisy: true,
            noisy_read_noise: 0.25,
            tie_tolerance: 2e-3,
        }
    }
}

/// Result of the noisy-fabric statistical check.
#[derive(Debug, Clone, serde::Serialize)]
pub struct NoisyCheck {
    /// Cells of the noisy engine inside the ±6σ marginal band.
    pub marginal_cells: usize,
    /// Margin-model expectation of sense flips per classified sample.
    pub expected_flips_per_sample: f64,
    /// Upper acceptance bound on argmax disagreements over the batch:
    /// `E·N + 6·√(E·N) + 3` (union bound on "any sense flipped", Poisson
    /// tail slack) — sound because a prediction can only deviate from the
    /// noise-free one if at least one sense flipped.
    pub disagreement_bound: f64,
    /// Observed argmax disagreements vs the software path.
    pub observed_disagreements: usize,
    /// `observed ≤ bound`.
    pub within_bound: bool,
}

/// Per-model oracle outcome. All `*_bitwise` fields compare complete logit
/// vectors via `f32::to_bits`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct OracleReport {
    /// Generated model description.
    pub model: String,
    /// Samples evaluated.
    pub samples: usize,
    /// Float logit signs disagreeing with the binary path outside the tie
    /// band (must be 0).
    pub float_sign_mismatches: usize,
    /// Float argmax disagreements with top-2 margin above the tie band
    /// (must be 0).
    pub float_argmax_mismatches: usize,
    /// Largest |float − binary| logit deviation observed (numerical
    /// reassociation only; recorded, not gated).
    pub max_float_logit_dev: f32,
    /// Compiled execution-plan replay (fused packed-word kernels) agrees
    /// bitwise with the single-sample oracle, both at full batch and on a
    /// smaller batch replayed into the same (dirty) plan buffers.
    pub plan_bitwise: bool,
    /// Noise-free RRAM single-sample path agrees bitwise.
    pub rram_single_bitwise: bool,
    /// Execution-plan replay on the noise-free RRAM fabric
    /// ([`rbnn_rram::NetworkEngine::replay_plan`]) agrees bitwise.
    pub rram_plan_bitwise: bool,
    /// Serve pipeline (software backend) returned bitwise-equal logits in
    /// request order (`None` when the serve paths were skipped).
    pub serve_bitwise: Option<bool>,
    /// Serve pipeline on noise-free RRAM backend agreed bitwise.
    pub serve_rram_bitwise: Option<bool>,
    /// Noisy-fabric statistical check (`None` when skipped).
    pub noisy: Option<NoisyCheck>,
}

impl OracleReport {
    /// True when every gated agreement held.
    pub fn passed(&self) -> bool {
        self.float_sign_mismatches == 0
            && self.float_argmax_mismatches == 0
            && self.plan_bitwise
            && self.rram_single_bitwise
            && self.rram_plan_bitwise
            && self.serve_bitwise.unwrap_or(true)
            && self.serve_rram_bitwise.unwrap_or(true)
            && self.noisy.as_ref().is_none_or(|n| n.within_bound)
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs one generated model through every execution path and reports the
/// agreement. Never panics on disagreement — callers gate on
/// [`OracleReport::passed`] so a failing CI run still prints the full
/// cross-path picture.
pub fn check_model(model: &mut GeneratedModel, cfg: &OracleConfig) -> OracleReport {
    // Mix the full model identity into the input stream (FNV-1a over the
    // name) so every generated model draws its own inputs — name *length*
    // alone collides across same-family models and would silently reuse
    // one input pattern for many of them.
    let name_hash = model.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ name_hash);
    let n = cfg.samples.max(1);
    let classes = model.classes();
    let raw = model.sample_inputs(n, &mut rng);
    let feats = model.binarized_features(&raw);

    // Path 1: float training graph, eval phase.
    let float_logits = model.classifier.forward(&feats, Phase::Eval);

    // Path 2: binary single-sample.
    let width = model.feature_width();
    let mut single_logits: Vec<f32> = Vec::with_capacity(n * classes);
    for i in 0..n {
        single_logits.extend(
            model
                .network
                .logits(&feats.as_slice()[i * width..(i + 1) * width]),
        );
    }

    let single_preds: Vec<usize> = single_logits.chunks(classes).map(argmax).collect();

    // Path 3: compiled execution plan through the fused kernels —
    // full batch, then a smaller batch into the same dirty buffers (the
    // serve replay pattern).
    let row_refs: Vec<&[f32]> = (0..n)
        .map(|i| &feats.as_slice()[i * width..(i + 1) * width])
        .collect();
    let plan = rbnn_graph::ExecPlan::compile(&model.network, n);
    let mut plan_buffers = plan.buffers();
    let mut plan_logits = vec![0.0f32; n * classes];
    plan.replay_rows(&row_refs, &mut plan_buffers, &mut plan_logits);
    let mut plan_bitwise = bits(&plan_logits) == bits(&single_logits);
    let k = n.min(5);
    plan.replay_rows(
        &row_refs[..k],
        &mut plan_buffers,
        &mut plan_logits[..k * classes],
    );
    plan_bitwise &= bits(&plan_logits[..k * classes]) == bits(&single_logits[..k * classes]);

    // Float ↔ binary: sign and argmax agreement outside the tie band.
    let mut float_sign_mismatches = 0usize;
    let mut float_argmax_mismatches = 0usize;
    let mut max_dev = 0.0f32;
    for i in 0..n {
        let f = &float_logits.as_slice()[i * classes..(i + 1) * classes];
        let b = &single_logits[i * classes..(i + 1) * classes];
        for (x, y) in f.iter().zip(b) {
            max_dev = max_dev.max((x - y).abs());
            // A gated sign mismatch requires *both* paths clearly away
            // from zero: if either logit sits inside the tie band, a
            // reassociation-level deviation can legitimately place the
            // pair on opposite sides of zero. With both beyond the band,
            // opposite signs mean |float − binary| > 2·band — far above
            // any observed reassociation error — i.e. a real divergence.
            if x.abs() > cfg.tie_tolerance
                && y.abs() > cfg.tie_tolerance
                && (*x >= 0.0) != (*y >= 0.0)
            {
                float_sign_mismatches += 1;
            }
        }
        if argmax(f) != single_preds[i] {
            // Tolerate only genuine numerical ties between the top two
            // float logits.
            let mut sorted: Vec<f32> = f.to_vec();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite logits"));
            if sorted[0] - sorted[1] > cfg.tie_tolerance {
                float_argmax_mismatches += 1;
            }
        }
    }

    // Path 4: noise-free RRAM sensing, single-sample.
    let engine_cfg = EngineConfig::noise_free(cfg.seed ^ 0x44A5);
    let mut engine = NetworkEngine::program(&model.network, &engine_cfg);
    let mut rram_single_bitwise = true;
    for i in 0..n {
        let got = engine.logits(&feats.as_slice()[i * width..(i + 1) * width]);
        if bits(&got) != bits(&single_logits[i * classes..(i + 1) * classes]) {
            rram_single_bitwise = false;
        }
    }
    // Plan replay on the same noise-free fabric: fused steps mapped onto
    // the partitioned-array tile dispatch.
    let mut rram_plan_buffers = plan.buffers();
    let mut rram_plan_logits = vec![0.0f32; n * classes];
    engine.replay_plan(
        &plan,
        &row_refs,
        &mut rram_plan_buffers,
        &mut rram_plan_logits,
    );
    let rram_plan_bitwise = bits(&rram_plan_logits) == bits(&single_logits);

    // Path 5: the serve pipeline (enqueue → batcher → worker pool).
    let (serve_bitwise, serve_rram_bitwise) = if cfg.serve {
        (
            Some(serve_agrees(
                model,
                &feats,
                &single_logits,
                Backend::Software,
                &engine_cfg,
            )),
            Some(serve_agrees(
                model,
                &feats,
                &single_logits,
                Backend::Rram,
                &engine_cfg,
            )),
        )
    } else {
        (None, None)
    };

    // Path 6 (statistical): the plan replayed on a deliberately marginal
    // fabric vs the margin bound.
    let noisy = if cfg.noisy {
        let mut noisy_cfg = EngineConfig::test_chip(cfg.seed ^ 0x1707);
        noisy_cfg.device.read_noise = cfg.noisy_read_noise;
        let mut noisy_engine = NetworkEngine::program(&model.network, &noisy_cfg);
        let expected = noisy_engine.expected_flips_per_sample();
        let marginal_cells = noisy_engine.marginal_cells();
        let mut noisy_logits = vec![0.0f32; n * classes];
        noisy_engine.replay_plan(&plan, &row_refs, &mut plan_buffers, &mut noisy_logits);
        let observed = noisy_logits
            .chunks(classes)
            .map(argmax)
            .zip(&single_preds)
            .filter(|(a, b)| a != *b)
            .count();
        let mean = expected * n as f64;
        let bound = mean + 6.0 * mean.sqrt() + 3.0;
        Some(NoisyCheck {
            marginal_cells,
            expected_flips_per_sample: expected,
            disagreement_bound: bound,
            observed_disagreements: observed,
            within_bound: (observed as f64) <= bound,
        })
    } else {
        None
    };

    OracleReport {
        model: model.name.clone(),
        samples: n,
        float_sign_mismatches,
        float_argmax_mismatches,
        max_float_logit_dev: max_dev,
        plan_bitwise,
        rram_single_bitwise,
        rram_plan_bitwise,
        serve_bitwise,
        serve_rram_bitwise,
        noisy,
    }
}

/// Pushes every sample through a freshly started server as pipelined
/// single-sample `enqueue`s plus one multi-sample window, and compares the
/// answered logits bitwise against the reference (row-major oracle logits).
fn serve_agrees(
    model: &GeneratedModel,
    feats: &Tensor,
    reference: &[f32],
    backend: Backend,
    engine_cfg: &EngineConfig,
) -> bool {
    let n = feats.dim(0);
    let width = feats.dim(1);
    let classes = model.classes();
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, model.network.clone(), engine_cfg.clone());
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 2,
            backend,
            ..Default::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");

    // Pipelined single-sample requests: keep the queue deep so the
    // batcher actually forms multi-request batches.
    let mut ok = true;
    let pending: Vec<_> = (0..n)
        .map(|i| {
            client
                .enqueue(feats.as_slice()[i * width..(i + 1) * width].to_vec())
                .expect("enqueue")
        })
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let answer = p.wait().expect("pool answers");
        let expect = &reference[i * classes..(i + 1) * classes];
        if bits(&answer.logits) != bits(expect) || answer.class != argmax(expect) {
            ok = false;
        }
    }

    // One multi-sample window request through the same pipeline. The
    // answer count itself is part of the contract: a truncated or empty
    // response must fail the gate, not silently shrink the comparison.
    let window: Vec<Vec<f32>> = (0..n.min(8))
        .map(|i| feats.as_slice()[i * width..(i + 1) * width].to_vec())
        .collect();
    let answers = client
        .enqueue_shared(Arc::new(window.clone()))
        .and_then(PendingWindow::wait)
        .expect("window served");
    if answers.len() != window.len() {
        ok = false;
    }
    for (i, answer) in answers.iter().enumerate() {
        let expect = &reference[i * classes..(i + 1) * classes];
        if bits(&answer.logits) != bits(expect) {
            ok = false;
        }
    }
    drop(server);
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    #[test]
    fn all_paths_agree_on_first_family_cycle() {
        // One model per family (MLP / ECG / EEG / vision), full oracle
        // including both serve backends and the noisy bound.
        let cfg = OracleConfig {
            samples: 24,
            ..Default::default()
        };
        for index in 0..4 {
            let mut model = generate(index, 0xC0FFEE);
            let report = check_model(&mut model, &cfg);
            assert!(report.passed(), "{report:?}");
            assert!(report.max_float_logit_dev < 1e-2, "{report:?}");
        }
    }

    #[test]
    fn chain_families_pass_the_full_oracle() {
        // The fused-chain families (deep 63/64/65/127/128 walks, 1-channel
        // odd-length conv fronts) through every path including both plan
        // replays.
        let cfg = OracleConfig {
            samples: 16,
            serve: false,
            noisy: false,
            ..Default::default()
        };
        for index in [4usize, 5, 10, 11] {
            let mut model = generate(index, 0xC0FFEE);
            let report = check_model(&mut model, &cfg);
            assert!(report.passed(), "{report:?}");
        }
    }

    #[test]
    fn plan_path_holds_under_forced_scalar_kernels() {
        // The same oracle legs with SIMD dispatch pinned to the scalar
        // kernels — the in-process version of the CI `RBNN_KERNELS=scalar`
        // conformance leg.
        rbnn_tensor::set_forced_scalar(true);
        let result = std::panic::catch_unwind(|| {
            let cfg = OracleConfig {
                samples: 12,
                serve: false,
                noisy: false,
                ..Default::default()
            };
            for index in [0usize, 4, 5] {
                let mut model = generate(index, 0x5CA1A);
                let report = check_model(&mut model, &cfg);
                assert!(report.passed(), "{report:?}");
            }
        });
        rbnn_tensor::clear_forced_scalar();
        if let Err(e) = result {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    fn noisy_fabric_is_actually_marginal() {
        // The statistical leg must test something: the noisy engine needs
        // a real marginal population (otherwise the bound is trivially 3).
        let cfg = OracleConfig {
            samples: 16,
            serve: false,
            ..Default::default()
        };
        let mut model = generate(0, 5);
        let report = check_model(&mut model, &cfg);
        let noisy = report.noisy.as_ref().expect("noisy leg ran");
        assert!(
            noisy.marginal_cells > 0,
            "noisy fabric produced no marginal cells: {noisy:?}"
        );
        assert!(noisy.expected_flips_per_sample >= 0.0);
        assert!(report.passed(), "{report:?}");
    }

    #[test]
    fn oracle_detects_a_corrupted_path() {
        // Sanity of the oracle itself: flip one stored weight bit in the
        // deployed network *after* the float reference is fixed and the
        // binary paths must still agree with each other, but the float
        // path must now disagree somewhere — i.e. the oracle's
        // float↔binary leg has teeth.
        let cfg = OracleConfig {
            samples: 64,
            serve: false,
            noisy: false,
            ..Default::default()
        };
        let mut model = generate(0, 11);
        let baseline = check_model(&mut model, &cfg);
        assert!(baseline.passed(), "{baseline:?}");
        // Corrupt: flip a whole input column of layer 0 so many samples
        // see a changed popcount.
        for r in 0..model.network.layers()[0].weights().rows() {
            model.network.layers_mut()[0].weights_mut().flip(r, 0);
        }
        let corrupted = check_model(&mut model, &cfg);
        assert!(
            corrupted.float_sign_mismatches > 0 || corrupted.float_argmax_mismatches > 0,
            "oracle failed to notice a corrupted deployment: {corrupted:?}"
        );
        // The binary-family paths still agree among themselves (they all
        // execute the same corrupted weights).
        assert!(corrupted.plan_bitwise && corrupted.rram_plan_bitwise);
    }
}
