//! Ablation benches for the design choices the paper argues for (README
//! § Scale and substitutions):
//! differential vs single-ended sensing margins, PCSA offset sensitivity,
//! and integer-threshold folding vs float BatchNorm evaluation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_binary::{fold_batchnorm_sign, BinaryDense};
use rbnn_rram::{endurance, verify, DeviceParams, Pcsa, PcsaParams, Synapse2T2R, VerifyConfig};
use rbnn_tensor::{BitMatrix, BitVec};

/// Cost of the analytic BER evaluation across PCSA offset qualities —
/// the 2T2R margin ablation (run the bench, read the BERs in its stdout).
fn bench_ber_vs_pcsa_offset(c: &mut Criterion) {
    let device = DeviceParams::hfo2_default();
    let mut group = c.benchmark_group("analytic_ber");
    for &offset in &[0.05f64, 0.27, 0.5] {
        let pcsa = PcsaParams {
            offset_sigma: offset,
            noise_sigma: 0.02,
        };
        let point = endurance::analytic_point(&device, &pcsa, 400_000_000, 1.15);
        println!(
            "[ablation] PCSA offset σ={offset}: 2T2R BER {:.2e} (1T1R {:.2e})",
            point.ber_2t2r, point.ber_1t1r_bl
        );
        group.bench_with_input(BenchmarkId::from_parameter(offset), &offset, |bench, _| {
            bench.iter(|| black_box(endurance::analytic_point(&device, &pcsa, 400_000_000, 1.15)))
        });
    }
    group.finish();
}

/// Threshold folding ablation: integer-threshold hidden layer vs computing
/// the float affine then taking the sign.
fn bench_threshold_fold(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let (out, inp) = (80, 2520);
    let w: Vec<f32> = (0..out * inp)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect();
    let scale: Vec<f32> = (0..out).map(|_| rng.gen_range(0.1..2.0)).collect();
    let shift: Vec<f32> = (0..out).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let layer = BinaryDense::new(BitMatrix::from_signs(&w, out, inp), scale, shift);
    let x: BitVec = (0..inp).map(|_| rng.gen::<bool>()).collect();
    let mut group = c.benchmark_group("hidden_layer_activation");
    group.bench_function("integer_threshold", |bench| {
        bench.iter(|| black_box(layer.forward_sign(&x)))
    });
    group.bench_function("float_affine_then_sign", |bench| {
        bench.iter(|| {
            let affine = layer.forward_affine(&x);
            let bits: BitVec = affine.iter().map(|&v| v >= 0.0).collect();
            black_box(bits)
        })
    });
    group.finish();
}

/// Fold construction itself is trivially cheap — demonstrate it stays out
/// of the inference path.
fn bench_fold_construction(c: &mut Criterion) {
    c.bench_function("fold_batchnorm_sign", |bench| {
        bench.iter(|| black_box(fold_batchnorm_sign(black_box(0.73), black_box(-1.2), 2520)))
    });
}

/// Program-verify ablation: reliability and pulse cost of verified vs
/// unverified programming at high wear (paper refs [15,16], "various
/// programming conditions").
fn bench_program_verify(c: &mut Criterion) {
    let params = DeviceParams::hfo2_default();
    let mut rng = StdRng::seed_from_u64(7);
    let pcsa = Pcsa::ideal();
    // Report the BER trade-off once, then time the two programming styles.
    for (label, cfg) in [
        ("no-verify", VerifyConfig::none()),
        ("verify", VerifyConfig::standard()),
    ] {
        let mut synapse = Synapse2T2R::new(true, &params, &mut rng);
        let trials = 20_000;
        let mut errors = 0u32;
        let mut pulses = 0u64;
        for t in 0..trials {
            let w = t % 2 == 0;
            synapse.set_cycles(700_000_000);
            let out = verify::program_synapse_verified(&mut synapse, w, &cfg, &params, &mut rng);
            pulses += out.attempts as u64;
            if synapse.read(&pcsa, &params, &mut rng) != w {
                errors += 1;
            }
        }
        println!(
            "[ablation] {label}: BER {:.2e} at 7e8 cycles, {:.2} pulses/weight",
            errors as f64 / trials as f64,
            pulses as f64 / trials as f64
        );
    }
    let mut group = c.benchmark_group("program_verify");
    for (label, cfg) in [
        ("none", VerifyConfig::none()),
        ("standard", VerifyConfig::standard()),
    ] {
        let mut synapse = Synapse2T2R::new(true, &params, &mut rng);
        synapse.set_cycles(700_000_000);
        let mut w = false;
        group.bench_function(label, |bench| {
            bench.iter(|| {
                w = !w;
                black_box(verify::program_synapse_verified(
                    &mut synapse,
                    w,
                    &cfg,
                    &params,
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ber_vs_pcsa_offset, bench_threshold_fold, bench_fold_construction,
        bench_program_verify
}
criterion_main!(benches);
