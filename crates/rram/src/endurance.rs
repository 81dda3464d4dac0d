//! The endurance experiment of Fig 4: bit-error rate versus programming
//! cycles, for single-ended (1T1R, both polarities) and differential (2T2R)
//! sensing.
//!
//! The paper cycles one device pair 700 million times, alternating the
//! programmed weight, and measures the error rate of each read style at
//! checkpoints. Simulating every cycle is pointless — wear is a function of
//! the cycle *count* — so the tester fast-forwards the wear state and
//! Monte-Carlo samples program/read trials at each checkpoint. Because BERs
//! below ~10⁻⁶ need prohibitively many trials, closed-form tail
//! probabilities of the same device model are provided alongside
//! ([`analytic_point`]); the `fig4_ber` bench prints both, and the
//! `paper_numbers` integration test pins the anchors against the paper's.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{stats, DeviceParams, Pcsa, PcsaParams, Synapse2T2R};

/// Bit-error rates measured (or computed) at one cycle checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndurancePoint {
    /// Programming cycles at this checkpoint.
    pub cycles: u64,
    /// Single-ended error rate reading the BL device.
    pub ber_1t1r_bl: f64,
    /// Single-ended error rate reading the complementary (BLb) device.
    pub ber_1t1r_blb: f64,
    /// Differential (2T2R + PCSA) error rate.
    pub ber_2t2r: f64,
}

/// Configuration of the endurance tester.
#[derive(Debug, Clone)]
pub struct EnduranceConfig {
    /// Cycle checkpoints (Fig 4 spans 100–700 million).
    pub checkpoints: Vec<u64>,
    /// Program/read trials per checkpoint (Monte-Carlo resolution floor is
    /// `1/trials`).
    pub trials: usize,
    /// Relative extra wear of the BLb device (Fig 4's two 1T1R curves are
    /// slightly apart; the model attributes this to fabrication asymmetry).
    pub blb_wear_scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl EnduranceConfig {
    /// Fig 4's checkpoints at Monte-Carlo scale suitable for a laptop run.
    pub fn fig4_quick() -> Self {
        Self {
            checkpoints: (1..=7).map(|k| k * 100_000_000).collect(),
            trials: 200_000,
            blb_wear_scale: 1.15,
            seed: 0xF164,
        }
    }
}

/// Runs the Monte-Carlo endurance measurement.
///
/// At each checkpoint the synapse wear state is fast-forwarded, then
/// `trials` alternating program/read rounds measure the three error rates
/// on the same devices, exactly mirroring the paper's protocol.
pub fn run(
    params: &DeviceParams,
    pcsa_params: &PcsaParams,
    cfg: &EnduranceConfig,
) -> Vec<EndurancePoint> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pcsa = Pcsa::new(pcsa_params, &mut rng);
    let mut points = Vec::with_capacity(cfg.checkpoints.len());
    let mut synapse = Synapse2T2R::with_wear_asymmetry(true, cfg.blb_wear_scale, params, &mut rng);
    for &cycles in &cfg.checkpoints {
        let mut err_bl = 0u64;
        let mut err_blb = 0u64;
        let mut err_2t2r = 0u64;
        for t in 0..cfg.trials {
            let weight = t % 2 == 0;
            synapse.set_cycles(cycles);
            synapse.program(weight, params, &mut rng);
            if synapse.read_1t1r_bl(params, &mut rng) != weight {
                err_bl += 1;
            }
            if synapse.read_1t1r_blb(params, &mut rng) != weight {
                err_blb += 1;
            }
            if synapse.read(&pcsa, params, &mut rng) != weight {
                err_2t2r += 1;
            }
        }
        let n = cfg.trials as f64;
        points.push(EndurancePoint {
            cycles,
            ber_1t1r_bl: err_bl as f64 / n,
            ber_1t1r_blb: err_blb as f64 / n,
            ber_2t2r: err_2t2r as f64 / n,
        });
    }
    points
}

/// Closed-form bit-error rates of the same device model at a wear level —
/// exact tail probabilities instead of Monte-Carlo, valid to arbitrarily
/// low BER.
///
/// Derivation: a read errs either through the Gaussian overlap of the two
/// log-normal state distributions (single-ended: one distribution crossing
/// the mid reference; differential: the pair inverting its order, including
/// the PCSA offset), or through *weak* programming events (single-ended: a
/// weak device is a coin flip; differential: only a *double* weak event is
/// ambiguous — the paper's error-correction-like behaviour of 2T2R).
pub fn analytic_point(
    params: &DeviceParams,
    pcsa_params: &PcsaParams,
    cycles: u64,
    blb_wear_scale: f64,
) -> EndurancePoint {
    let delta = params.hrs_mu - params.lrs_mu;
    let sigma_bl = params.lrs_sigma * params.sigma_multiplier(cycles);
    let blb_cycles = (cycles as f64 * blb_wear_scale) as u64;
    let sigma_blb = params.hrs_sigma * params.sigma_multiplier(blb_cycles);
    let p_weak_bl = params.weak_probability(cycles);
    let p_weak_blb = params.weak_probability(blb_cycles);

    // Single-ended: distance from a state median to the mid reference is
    // Δ/2; a weak event is a fair coin against the mid reference.
    let gauss_1t1r_bl = stats::gaussian_tail(delta / 2.0 / sigma_bl);
    let gauss_1t1r_blb = stats::gaussian_tail(delta / 2.0 / sigma_blb);
    let ber_bl = (1.0 - p_weak_bl) * gauss_1t1r_bl + p_weak_bl * 0.5;
    let ber_blb = (1.0 - p_weak_blb) * gauss_1t1r_blb + p_weak_blb * 0.5;

    // Differential: order inversion of the two distributions, with the
    // PCSA offset and per-read noise adding in quadrature; weak events only
    // hurt when both devices are weak (then the order is a coin flip) —
    // a single weak device still sits between the healthy device and its
    // own far distribution, so the comparison usually survives.
    let sigma_diff = (sigma_bl * sigma_bl
        + sigma_blb * sigma_blb
        + pcsa_params.offset_sigma * pcsa_params.offset_sigma
        + 2.0 * pcsa_params.noise_sigma * pcsa_params.noise_sigma
        + 2.0 * params.read_noise * params.read_noise)
        .sqrt();
    let gauss_2t2r = stats::gaussian_tail(delta / sigma_diff);
    let both_weak = p_weak_bl * p_weak_blb;
    let ber_2t2r = (1.0 - both_weak) * gauss_2t2r + both_weak * 0.5;

    EndurancePoint {
        cycles,
        ber_1t1r_bl: ber_bl,
        ber_1t1r_blb: ber_blb,
        ber_2t2r,
    }
}

/// The analytic Fig 4 curve over arbitrary checkpoints.
pub fn analytic_curve(
    params: &DeviceParams,
    pcsa_params: &PcsaParams,
    checkpoints: &[u64],
    blb_wear_scale: f64,
) -> Vec<EndurancePoint> {
    checkpoints
        .iter()
        .map(|&c| analytic_point(params, pcsa_params, c, blb_wear_scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_models() -> (DeviceParams, PcsaParams) {
        (DeviceParams::hfo2_default(), PcsaParams::default_130nm())
    }

    #[test]
    fn analytic_ber_grows_with_cycles() {
        let (dp, pp) = default_models();
        let curve = analytic_curve(
            &dp,
            &pp,
            &[100_000_000, 300_000_000, 500_000_000, 700_000_000],
            1.15,
        );
        for pair in curve.windows(2) {
            assert!(pair[1].ber_1t1r_bl > pair[0].ber_1t1r_bl);
            assert!(pair[1].ber_2t2r > pair[0].ber_2t2r);
        }
    }

    #[test]
    fn analytic_2t2r_is_orders_below_1t1r() {
        // The paper's headline device claim (Fig 4): roughly two orders of
        // magnitude between 2T2R and 1T1R error rates.
        let (dp, pp) = default_models();
        for cycles in [100_000_000u64, 400_000_000] {
            let p = analytic_point(&dp, &pp, cycles, 1.15);
            let gap = p.ber_1t1r_bl / p.ber_2t2r;
            assert!(
                gap > 30.0,
                "gap at {cycles} cycles only {gap:.1}× (1T1R {:.2e}, 2T2R {:.2e})",
                p.ber_1t1r_bl,
                p.ber_2t2r
            );
        }
    }

    #[test]
    fn pcsa_offset_degrades_2t2r_but_stays_below_1t1r() {
        // The differential read cancels device variation but not the sense
        // amplifier's own input offset (Hirtzlin et al., arXiv:1908.04066):
        // a worse PCSA raises the 2T2R error rate, yet even a poor one
        // keeps it below the single-ended 1T1R read at the same wear.
        let (dp, pp) = default_models();
        let mut prev = 0.0;
        for offset_sigma in [0.05, 0.27, 0.5] {
            let pcsa = PcsaParams { offset_sigma, ..pp };
            let p = analytic_point(&dp, &pcsa, 400_000_000, 1.15);
            assert!(
                p.ber_2t2r > prev,
                "2T2R BER {:.2e} at offset σ={offset_sigma} not above {prev:.2e}",
                p.ber_2t2r
            );
            assert!(
                p.ber_2t2r < p.ber_1t1r_bl,
                "offset σ={offset_sigma}: 2T2R {:.2e} not below 1T1R {:.2e}",
                p.ber_2t2r,
                p.ber_1t1r_bl
            );
            prev = p.ber_2t2r;
        }
    }

    #[test]
    fn analytic_fig4_anchor_points() {
        // Calibration targets: 1T1R ≈ 1e-4 at 1e8 cycles, ≈ 1e-2 at 7e8.
        let (dp, pp) = default_models();
        let lo = analytic_point(&dp, &pp, 100_000_000, 1.15);
        let hi = analytic_point(&dp, &pp, 700_000_000, 1.15);
        assert!(
            (3e-5..3e-4).contains(&lo.ber_1t1r_bl),
            "1T1R @1e8 = {:.2e}",
            lo.ber_1t1r_bl
        );
        assert!(
            (3e-3..3e-2).contains(&hi.ber_1t1r_bl),
            "1T1R @7e8 = {:.2e}",
            hi.ber_1t1r_bl
        );
    }

    #[test]
    fn blb_wears_faster_than_bl() {
        let (dp, pp) = default_models();
        let p = analytic_point(&dp, &pp, 400_000_000, 1.15);
        assert!(p.ber_1t1r_blb > p.ber_1t1r_bl, "{p:?}");
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_at_high_wear() {
        let (dp, pp) = default_models();
        let cfg = EnduranceConfig {
            checkpoints: vec![700_000_000],
            trials: 120_000,
            blb_wear_scale: 1.15,
            seed: 1,
        };
        let mc = run(&dp, &pp, &cfg)[0];
        let an = analytic_point(&dp, &pp, 700_000_000, 1.15);
        // 1T1R at percent level: MC should land within ~2× of analytic.
        let ratio = mc.ber_1t1r_bl / an.ber_1t1r_bl;
        assert!(
            (0.5..2.0).contains(&ratio),
            "MC {:.2e} vs analytic {:.2e}",
            mc.ber_1t1r_bl,
            an.ber_1t1r_bl
        );
        // 2T2R errors must be observed but far rarer.
        assert!(mc.ber_2t2r < mc.ber_1t1r_bl);
    }
}
