//! Statistical fault campaigns with confidence-interval gates.
//!
//! Two sweeps, both anchored to the paper's §II-B / Fig 4 claims:
//!
//! * **accuracy vs BER** — i.i.d. weight bit flips
//!   ([`rbnn_rram::faults`]) injected into a deployed classifier at a
//!   ladder of bit-error rates, repeated over independent flip draws, with
//!   Wilson confidence intervals on the pooled trial outcomes. The
//!   acceptance gate pins the paper's graceful-degradation anchor: at the
//!   post-2T2R BER of the worst Fig 4 checkpoint (the closed-form
//!   [`rbnn_rram::endurance::analytic_point`] at 7×10⁸ cycles), the
//!   accuracy drop must stay ≤ 0.5 pt — the "no ECC needed" argument.
//! * **program-verify trade-off** — the margin/retry controller of
//!   [`rbnn_rram::verify`] on worn 2T2R synapses: verification must buy a
//!   clearly lower residual read-error rate at a measurably higher
//!   programming-pulse (energy/wear) cost.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use rbnn_binary::{export_classifier, BinaryNetwork};
use rbnn_nn::{train, Activation, Adam, BatchNorm, Dense, Sequential, WeightMode};
use rbnn_rram::{endurance, faults, verify, DeviceParams, Pcsa, PcsaParams, Synapse2T2R};
use rbnn_tensor::Tensor;

/// Wilson score interval for a binomial proportion at confidence `z`
/// (1.96 ≈ 95%). Returns `(low, high)`; degenerate `(0, 1)` on zero
/// trials.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// One point of the accuracy-vs-BER curve.
#[derive(Debug, Clone, Serialize)]
pub struct BerPoint {
    /// Injected weight bit-error rate.
    pub ber: f64,
    /// Independent flip-pattern repetitions.
    pub reps: usize,
    /// Pooled classification trials (`reps × samples`).
    pub trials: u64,
    /// Mean accuracy over the pooled trials.
    pub mean_accuracy: f64,
    /// Wilson 95% lower bound on the accuracy.
    pub ci_low: f64,
    /// Wilson 95% upper bound on the accuracy.
    pub ci_high: f64,
    /// Mean injected flips per repetition.
    pub mean_flips: f64,
}

/// Sweeps accuracy vs weight BER: for each rate, `reps` independent
/// corrupted clones of `network` classify `features` and are scored
/// against `labels`; outcomes pool into one Wilson interval per rate.
///
/// # Panics
///
/// Panics if `features` is not `[N, in_features]` with `N == labels.len()`.
pub fn ber_sweep(
    network: &BinaryNetwork,
    features: &Tensor,
    labels: &[usize],
    bers: &[f64],
    reps: usize,
    seed: u64,
) -> Vec<BerPoint> {
    assert_eq!(features.dim(0), labels.len(), "label count mismatch");
    let mut rng = StdRng::seed_from_u64(seed);
    bers.iter()
        .map(|&ber| {
            let mut correct = 0u64;
            let mut flips_total = 0usize;
            for _ in 0..reps {
                let mut corrupted = network.clone();
                flips_total += faults::inject_network(&mut corrupted, ber, &mut rng);
                let preds = rbnn_graph::classify_batch(&corrupted, features);
                correct += preds.iter().zip(labels).filter(|(p, y)| p == y).count() as u64;
            }
            let trials = (reps * labels.len()) as u64;
            let (ci_low, ci_high) = wilson_interval(correct, trials, 1.96);
            BerPoint {
                ber,
                reps,
                trials,
                mean_accuracy: correct as f64 / trials.max(1) as f64,
                ci_low,
                ci_high,
                mean_flips: flips_total as f64 / reps.max(1) as f64,
            }
        })
        .collect()
}

/// One program-verify operating point.
#[derive(Debug, Clone, Serialize)]
pub struct VerifyPoint {
    /// Operating-point label.
    pub label: String,
    /// Retry budget.
    pub max_attempts: u32,
    /// Guard-band margin (log-resistance units).
    pub margin: f64,
    /// Program/read trials.
    pub trials: u64,
    /// Observed read errors after programming.
    pub errors: u64,
    /// Residual bit-error rate.
    pub residual_ber: f64,
    /// Wilson 95% bounds on the residual BER.
    pub ci_low: f64,
    /// Upper bound.
    pub ci_high: f64,
    /// Mean programming pulses per weight write (the energy/wear cost).
    pub mean_pulses: f64,
}

/// Sweeps the program-verify controller on a worn 2T2R synapse: each
/// operating point alternately writes both weight polarities at `cycles`
/// wear and reads back through a PCSA, mirroring the Fig 4 protocol.
pub fn verify_sweep(
    points: &[(&str, verify::VerifyConfig)],
    cycles: u64,
    trials: usize,
    seed: u64,
) -> Vec<VerifyPoint> {
    let params = DeviceParams::hfo2_default();
    let mut rng = StdRng::seed_from_u64(seed);
    let pcsa = Pcsa::new(&PcsaParams::default_130nm(), &mut rng);
    points
        .iter()
        .map(|(label, cfg)| {
            let mut synapse = Synapse2T2R::new(true, &params, &mut rng);
            let mut errors = 0u64;
            let mut pulses = 0u64;
            for t in 0..trials {
                let weight = t % 2 == 0;
                synapse.set_cycles(cycles);
                let out =
                    verify::program_synapse_verified(&mut synapse, weight, cfg, &params, &mut rng);
                pulses += out.attempts as u64;
                if synapse.read(&pcsa, &params, &mut rng) != weight {
                    errors += 1;
                }
            }
            let (ci_low, ci_high) = wilson_interval(errors, trials as u64, 1.96);
            VerifyPoint {
                label: label.to_string(),
                max_attempts: cfg.max_attempts,
                margin: cfg.margin,
                trials: trials as u64,
                errors,
                residual_ber: errors as f64 / trials.max(1) as f64,
                ci_low,
                ci_high,
                mean_pulses: pulses as f64 / trials.max(1) as f64,
            }
        })
        .collect()
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Classifier layer widths (input features through classes).
    pub dims: Vec<usize>,
    /// Training samples for the planted-template task.
    pub train_samples: usize,
    /// Held-out evaluation samples.
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Per-feature agreement probability of the planted task (0.5 =
    /// unlearnable noise, 1.0 = trivially separable).
    pub planted_p: f32,
    /// Independent flip repetitions per BER point.
    pub reps: usize,
    /// Program/read trials per verify operating point.
    pub verify_trials: usize,
    /// Wear level of the verify sweep (Fig 4's endpoint).
    pub cycles: u64,
    /// Master seed.
    pub seed: u64,
}

impl CampaignConfig {
    /// Laptop/CI-scale settings (seconds).
    pub fn quick(seed: u64) -> Self {
        Self {
            dims: vec![512, 64, 2],
            train_samples: 768,
            samples: 256,
            epochs: 4,
            planted_p: 0.57,
            reps: 24,
            verify_trials: 24_000,
            cycles: 700_000_000,
            seed,
        }
    }

    /// Deeper statistics (minutes).
    pub fn full(seed: u64) -> Self {
        Self {
            dims: vec![1024, 96, 2],
            train_samples: 2048,
            samples: 512,
            epochs: 8,
            planted_p: 0.57,
            reps: 64,
            verify_trials: 120_000,
            cycles: 700_000_000,
            seed,
        }
    }
}

/// The planted-template binary task shared by the training benches and
/// the fault campaign (one definition — `train_bench` consumes this too):
/// each sample agrees with ±`template` per feature with probability `p`,
/// so the Bayes classifier is a template match whose confidence grows
/// with `√features · (2p − 1)`. Returns `(train_x, train_y, val_x,
/// val_y)`; inputs are ±1, the hardware interface.
pub fn planted_task(
    features: usize,
    train_n: usize,
    val_n: usize,
    p: f32,
    seed: u64,
) -> (Tensor, Vec<usize>, Tensor, Vec<usize>) {
    let rng = &mut StdRng::seed_from_u64(seed);
    let template: Vec<f32> = (0..features)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect();
    let mut draw = |n: usize| {
        let mut x = Tensor::zeros([n, features]);
        let mut y = Vec::with_capacity(n);
        let xs = x.as_mut_slice();
        for i in 0..n {
            let class = i % 2;
            let sign = if class == 1 { 1.0 } else { -1.0 };
            for (v, &t) in xs[i * features..(i + 1) * features]
                .iter_mut()
                .zip(&template)
            {
                *v = if rng.gen::<f32>() < p {
                    sign * t
                } else {
                    -sign * t
                };
            }
            y.push(class);
        }
        (x, y)
    };
    let (xt, yt) = draw(train_n);
    let (xv, yv) = draw(val_n);
    (xt, yt, xv, yv)
}

/// Trains a binarized `Dense → BatchNorm → Sign` classifier on the planted
/// task and exports it; returns the deployed network with its held-out
/// evaluation set. The campaign measures fault tolerance on a *trained*
/// model — the paper's claim is about classifiers with real decision
/// margins, not prediction stability of random weights.
fn trained_network(cfg: &CampaignConfig) -> (BinaryNetwork, Tensor, Vec<usize>) {
    let (xt, yt, xv, yv) = planted_task(
        cfg.dims[0],
        cfg.train_samples,
        cfg.samples,
        cfg.planted_p,
        cfg.seed ^ 0x7124,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7125);
    let mut model = Sequential::new();
    for (i, pair) in cfg.dims.windows(2).enumerate() {
        if i > 0 {
            model.push(Activation::sign_ste());
        }
        model.push(Dense::new(pair[0], pair[1], WeightMode::Binary, &mut rng).without_bias());
        model.push(BatchNorm::new(pair[1]));
    }
    let mut opt = Adam::new(0.01);
    let train_cfg = train::TrainConfig {
        epochs: cfg.epochs,
        batch_size: 32,
        seed: cfg.seed ^ 0x5EED,
        verbose: false,
        ..Default::default()
    };
    let _ = train::fit(
        &mut model,
        train::Labelled::new(&xt, &yt),
        Some(train::Labelled::new(&xv, &yv)),
        &mut opt,
        &train_cfg,
    );
    let network = export_classifier(&model).expect("trained chain is exportable");
    (network, xv, yv)
}

/// Full campaign outcome with its two acceptance gates.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// Layer widths of the swept classifier.
    pub dims: Vec<usize>,
    /// Clean (BER 0) held-out accuracy of the trained classifier.
    pub clean_accuracy: f64,
    /// The paper anchor: closed-form post-2T2R BER at the worst Fig 4
    /// checkpoint (7×10⁸ cycles).
    pub anchor_ber: f64,
    /// Accuracy drop (vs clean) at the anchor BER, in fraction points.
    pub anchor_drop: f64,
    /// Wilson-upper-bounded drop at the anchor BER.
    pub anchor_drop_ci_high: f64,
    /// Gate: mean anchor drop ≤ 0.5 pt with a pooled 95% interval no
    /// wider than 1 pt (enough trials for the claim to mean something).
    pub anchor_ok: bool,
    /// Accuracy at the full-scramble positive control (BER 0.5 — every
    /// weight an unbiased coin, all trained structure destroyed).
    pub scramble_accuracy: f64,
    /// Gate (positive control): the BER-0.5 scramble must collapse
    /// accuracy toward the 50% chance floor. Without this, an injection
    /// or evaluation path that silently stopped corrupting weights would
    /// make the anchor gate vacuously green; together the pair pins the
    /// graceful-degradation *shape* — unharmed at the anchor, destroyed
    /// at full scramble.
    pub scramble_ok: bool,
    /// The swept accuracy-vs-BER curve (anchor first, then the ladder,
    /// scramble control last).
    pub ber_curve: Vec<BerPoint>,
    /// The program-verify trade-off points.
    pub verify_curve: Vec<VerifyPoint>,
    /// Gate: verification suppresses errors (robust count ratio) at a
    /// strictly higher pulse cost.
    pub verify_ok: bool,
}

impl CampaignReport {
    /// All three campaign gates.
    pub fn passed(&self) -> bool {
        self.anchor_ok && self.scramble_ok && self.verify_ok
    }
}

/// Runs both campaigns: trains a classifier on the planted task, sweeps
/// its held-out accuracy against weight BER with the Fig 4 anchor gate,
/// then sweeps the program-verify controller.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let (network, features, labels) = trained_network(cfg);
    let clean_accuracy = rbnn_graph::accuracy(&network, &features, &labels) as f64;

    let anchor_ber = endurance::analytic_point(
        &DeviceParams::hfo2_default(),
        &PcsaParams::default_130nm(),
        cfg.cycles,
        1.15,
    )
    .ber_2t2r;
    let mut bers = vec![anchor_ber];
    bers.extend([1e-3, 1e-2, 0.05, 0.1, 0.5]);
    let ber_curve = ber_sweep(
        &network,
        &features,
        &labels,
        &bers,
        cfg.reps,
        cfg.seed ^ 0xF11,
    );
    let anchor = &ber_curve[0];
    let anchor_drop = clean_accuracy - anchor.mean_accuracy;
    let anchor_drop_ci_high = clean_accuracy - anchor.ci_low;
    // Gate: the mean drop clears 0.5 pt AND the pooled interval is tight
    // enough (≤ 1 pt wide) for that claim to be statistically meaningful.
    let anchor_ok = anchor_drop <= 0.005 && (anchor.ci_high - anchor.ci_low) <= 0.01;
    // Positive control: BER 0.5 scrambles every weight to a fair coin, so
    // predictions decorrelate from labels and accuracy must fall to the
    // ~50% two-class chance floor (0.7 leaves generous slack above the
    // pooled CI). If this fires, fault injection or the accuracy meter —
    // the instruments the anchor gate relies on — has broken.
    let scramble = ber_curve.last().expect("scramble point swept");
    let scramble_accuracy = scramble.mean_accuracy;
    let scramble_ok = scramble_accuracy <= 0.7;

    let verify_curve = verify_sweep(
        &[
            ("no-verify", verify::VerifyConfig::none()),
            ("standard", verify::VerifyConfig::standard()),
            (
                "aggressive",
                verify::VerifyConfig {
                    max_attempts: 8,
                    margin: 1.0,
                },
            ),
        ],
        cfg.cycles,
        cfg.verify_trials,
        cfg.seed ^ 0x7E4,
    );
    // Robust count-ratio gate (mirrors the verify module's own test): the
    // standard controller must cut errors well below the unverified
    // baseline and must spend strictly more pulses doing it.
    let none = &verify_curve[0];
    let standard = &verify_curve[1];
    let verify_ok =
        standard.errors * 2 < none.errors.max(4) && standard.mean_pulses > none.mean_pulses;

    CampaignReport {
        dims: cfg.dims.clone(),
        clean_accuracy,
        anchor_ber,
        anchor_drop,
        anchor_drop_ci_high,
        anchor_ok,
        scramble_accuracy,
        scramble_ok,
        ber_curve,
        verify_curve,
        verify_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbnn_serve::demo_network;

    #[test]
    fn wilson_interval_behaves() {
        let (lo, hi) = wilson_interval(0, 0, 1.96);
        assert_eq!((lo, hi), (0.0, 1.0));
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo > 0.39 && lo < 0.5, "{lo}");
        assert!(hi > 0.5 && hi < 0.61, "{hi}");
        // Zero successes still have a nonzero upper bound ("rule of
        // three" flavour).
        let (lo, hi) = wilson_interval(0, 1000, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01, "{hi}");
        // Interval tightens with more trials.
        let wide = wilson_interval(5, 50, 1.96);
        let tight = wilson_interval(100, 1000, 1.96);
        assert!((tight.1 - tight.0) < (wide.1 - wide.0));
    }

    #[test]
    fn ber_zero_keeps_accuracy_exact() {
        let network = demo_network(&[96, 16, 3], 1);
        let mut rng = StdRng::seed_from_u64(2);
        let features = Tensor::randn([40, 96], 1.0, &mut rng);
        let labels = rbnn_graph::classify_batch(&network, &features);
        let points = ber_sweep(&network, &features, &labels, &[0.0], 3, 3);
        assert_eq!(points[0].mean_accuracy, 1.0);
        assert_eq!(points[0].mean_flips, 0.0);
    }

    #[test]
    fn degradation_is_monotone_in_expectation() {
        let network = demo_network(&[256, 32, 4], 4);
        let mut rng = StdRng::seed_from_u64(5);
        let features = Tensor::randn([96, 256], 1.0, &mut rng);
        let labels = rbnn_graph::classify_batch(&network, &features);
        let points = ber_sweep(&network, &features, &labels, &[1e-4, 0.05, 0.4], 12, 6);
        // Tiny BER barely moves accuracy; heavy BER must hurt it.
        assert!(points[0].mean_accuracy > 0.99, "{:?}", points[0]);
        assert!(
            points[2].mean_accuracy < points[0].mean_accuracy,
            "{points:?}"
        );
        // Flip counts scale with BER.
        assert!(points[2].mean_flips > points[1].mean_flips);
    }

    #[test]
    fn quick_campaign_passes_its_gates() {
        // Reduced-scale end-to-end campaign: the paper-anchor and verify
        // gates must hold (this is the same code path CI gates via
        // `conformance --quick --strict`).
        let mut cfg = CampaignConfig::quick(9);
        cfg.reps = 16;
        cfg.verify_trials = 10_000;
        let report = run_campaign(&cfg);
        assert!(
            report.clean_accuracy > 0.9,
            "planted task should train well: {}",
            report.clean_accuracy
        );
        assert!(
            report.anchor_ok,
            "anchor drop {} (ci high {}) at BER {:.2e}",
            report.anchor_drop, report.anchor_drop_ci_high, report.anchor_ber
        );
        assert!(report.verify_ok, "{:?}", report.verify_curve);
        // The positive control must register real damage at full
        // scramble — this is what keeps the anchor gate non-vacuous.
        assert!(
            report.scramble_ok,
            "BER 0.5 should collapse accuracy to chance: {}",
            report.scramble_accuracy
        );
        assert!(report.passed());
        // The curve itself must show graceful (not cliff) degradation:
        // percent-scale BER still classifies far above the 50% chance
        // floor of the two-class task.
        let at_1e2 = report
            .ber_curve
            .iter()
            .find(|p| (p.ber - 1e-2).abs() < 1e-9)
            .expect("1e-2 point");
        assert!(at_1e2.mean_accuracy > 0.7, "{at_1e2:?}");
    }
}
