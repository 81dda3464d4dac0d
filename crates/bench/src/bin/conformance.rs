//! Cross-backend conformance suite with a CI acceptance gate.
//!
//! Runs the `rbnn-conformance` machinery at benchmark scale:
//!
//! 1. **Differential oracle** — ≥ 25 seeded random paper-family models
//!    (MLP / ECG / EEG / vision shapes, word-boundary widths, 63/64/65-tap
//!    kernels), each executed through the float graph, the single-sample
//!    XNOR/popcount oracle, compiled-plan replay (software and RRAM
//!    fabric), single-sample noise-free RRAM sensing, and the full
//!    `rbnn-serve` enqueue/batcher pipeline on both backends.
//!    Noise-free agreement must be bit-for-bit; a deliberately marginal
//!    fabric is additionally checked against the margin model's
//!    flip-probability bound.
//! 2. **Fault campaigns** — accuracy-vs-BER on a trained classifier with
//!    the Fig 4 post-2T2R anchor gate (≤ 0.5 pt drop), and the
//!    program-verify reliability/energy trade-off.
//!
//! `--strict` exits non-zero unless every oracle model passes and both
//! campaign gates hold. Results are archived to
//! `bench_results/conformance.json`.

use serde::Serialize;

use rbnn_bench::{banner, emit_bench, parse_scale_with, RunScale};
use rbnn_conformance::{campaign, generate, oracle};

#[derive(Serialize)]
struct ConformanceReport {
    model_count: usize,
    oracle_ok: bool,
    models: Vec<oracle::OracleReport>,
    campaign: campaign::CampaignReport,
}

fn flag(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "FAIL"
    }
}

fn main() {
    let (scale, flags) = parse_scale_with(&["--strict"]);
    let strict = flags[0];
    banner(
        "conformance — cross-backend differential oracle + fault campaigns",
        scale,
    );

    let (model_count, samples, model_seed) = match scale {
        RunScale::Quick => (28usize, 48usize, 0xC04F_u64),
        RunScale::Full => (64, 96, 0xC04F),
    };
    let oracle_cfg = oracle::OracleConfig {
        samples,
        ..Default::default()
    };

    println!(
        "\n{:<34} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>14}",
        "model", "fl dev", "float", "plan", "rram", "serve", "noisy", "flips obs/bnd"
    );
    let mut models = Vec::with_capacity(model_count);
    for index in 0..model_count {
        let mut model = generate::generate(index, model_seed);
        let report = oracle::check_model(&mut model, &oracle_cfg);
        let noisy = report.noisy.as_ref();
        println!(
            "{:<34} {:>7.0e} {:>6} {:>6} {:>6} {:>6} {:>6} {:>14}",
            report.model,
            report.max_float_logit_dev,
            flag(report.float_sign_mismatches == 0 && report.float_argmax_mismatches == 0),
            flag(report.plan_bitwise && report.rram_plan_bitwise),
            flag(report.rram_single_bitwise),
            flag(report.serve_bitwise.unwrap_or(true) && report.serve_rram_bitwise.unwrap_or(true)),
            flag(noisy.map_or(true, |n| n.within_bound)),
            noisy.map_or_else(String::new, |n| format!(
                "{}/{:.1}",
                n.observed_disagreements, n.disagreement_bound
            )),
        );
        models.push(report);
    }
    let oracle_ok = models.iter().all(oracle::OracleReport::passed);
    println!(
        "\noracle: {} models through float/binary/plan/RRAM/serve paths: {}",
        model_count,
        if oracle_ok { "PASS" } else { "FAIL" }
    );

    let campaign_cfg = match scale {
        RunScale::Quick => campaign::CampaignConfig::quick(0xBE12),
        RunScale::Full => campaign::CampaignConfig::full(0xBE12),
    };
    let campaign_report = campaign::run_campaign(&campaign_cfg);

    println!(
        "\nBER campaign ({:?} classifier, clean acc {:.3}):",
        campaign_report.dims, campaign_report.clean_accuracy
    );
    println!(
        "{:>10} {:>8} {:>10} {:>21} {:>11}",
        "ber", "reps", "mean acc", "95% CI", "flips/rep"
    );
    for p in &campaign_report.ber_curve {
        println!(
            "{:>10.2e} {:>8} {:>10.4} {:>10.4}–{:<10.4} {:>11.1}",
            p.ber, p.reps, p.mean_accuracy, p.ci_low, p.ci_high, p.mean_flips
        );
    }
    println!(
        "anchor (post-2T2R BER {:.2e}): drop {:.4} (ci high {:.4}) ≤ 0.005: {}",
        campaign_report.anchor_ber,
        campaign_report.anchor_drop,
        campaign_report.anchor_drop_ci_high,
        flag(campaign_report.anchor_ok)
    );
    println!(
        "positive control (BER 0.5 full scramble): acc {:.4} ≤ 0.7: {}",
        campaign_report.scramble_accuracy,
        flag(campaign_report.scramble_ok)
    );

    println!("\nprogram-verify trade-off (7e8-cycle wear):");
    println!(
        "{:>12} {:>9} {:>8} {:>12} {:>21} {:>12}",
        "point", "attempts", "margin", "residual ber", "95% CI", "pulses/write"
    );
    for p in &campaign_report.verify_curve {
        println!(
            "{:>12} {:>9} {:>8.2} {:>12.2e} {:>10.2e}–{:<10.2e} {:>12.2}",
            p.label, p.max_attempts, p.margin, p.residual_ber, p.ci_low, p.ci_high, p.mean_pulses
        );
    }
    println!(
        "verify gate (errors suppressed at higher pulse cost): {}",
        flag(campaign_report.verify_ok)
    );

    let accepted = oracle_ok && campaign_report.passed();
    println!(
        "\nconformance gate (oracle + BER anchor + scramble control + verify trade-off): {}",
        if accepted { "PASS" } else { "FAIL" }
    );

    let report = ConformanceReport {
        model_count,
        oracle_ok,
        models,
        campaign: campaign_report,
    };
    emit_bench("conformance", scale, Some(accepted), &report);

    if strict && !accepted {
        std::process::exit(1);
    }
}
