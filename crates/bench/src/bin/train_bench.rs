//! Training-throughput benchmark with a CI parity gate.
//!
//! Measures epoch time and samples/s for the two paper-scale training
//! workloads the ROADMAP sweeps hinge on (endurance retraining,
//! fault-injection curves, architecture search):
//!
//! * **ECG MLP** — the Table II dense classifier at paper scale
//!   (5152 → 75 → 2, binary weights + BatchNorm + sign), batch 32: the part
//!   of the ECG network the paper maps onto the RRAM arrays, trained on a
//!   synthetic planted-hyperplane task.
//! * **EEG conv net** — the Table I convolutional network on the synthetic
//!   EEG motor-imagery dataset (reduced dimensions under `--quick`, paper
//!   dimensions under `--full`).
//!
//! Each workload trains three times with identical seeds: twice through
//! the runtime-dispatched kernels and once with the kernels pinned to the
//! forced-scalar oracle (`rbnn_tensor::set_forced_scalar`). All three
//! per-epoch loss/accuracy histories and final parameter tensors must
//! match **bitwise**: the kernels are thread-count invariant and the
//! scalar and SIMD kernels share one contraction order, so the
//! instruction set may change speed, never bits. The parameters are part
//! of the check because both workloads pass activations through `sign`,
//! which hides last-bit GEMM differences from the loss; the latent
//! weights accumulate every gradient bit.
//!
//! `--strict` exits non-zero unless every workload trains deterministically
//! and in bitwise scalar == dispatched parity, and — where dispatch picks a
//! SIMD packing kernel — sign packing beats the scalar oracle by
//! ≥ [`SIMD_PACK_THRESHOLD`]×. Epoch times and samples/s are reported,
//! not gated: under `target-cpu=native` LLVM vectorizes the scalar GEMM
//! loop, so a scalar/dispatched speed ratio measures the build flags.
//!
//! Results are archived to `bench_results/train_bench.json`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use rbnn_bench::{archive_json, banner, parse_scale_with, KernelDispatch, RunScale};
// The synthetic planted-template ECG-MLP task (noisy ±1 class templates)
// is shared with the conformance fault campaign — one definition.
use rbnn_conformance::planted_task;
use rbnn_models::BinarizationStrategy;
use rbnn_nn::{train, Activation, Adam, BatchNorm, Dense, Layer, Sequential, WeightMode};
use rbnn_tensor::{clear_forced_scalar, set_forced_scalar, xnor_popcount, BitMatrix, Tensor};
use rram_bnn::tasks::{Scale, Task, TaskSetup};

/// The runtime-dispatch gate: on hosts where dispatch selects a SIMD
/// packing kernel, the gated `simd_microbench` packing row must beat the
/// forced-scalar oracle by at least this factor. (The popcount and GEMM
/// rows are informational: under `target-cpu=native` LLVM already
/// autovectorizes the scalar popcount and GEMM loops; the GEMM contract
/// is the bitwise training parity gate.)
const SIMD_PACK_THRESHOLD: f64 = 2.0;
const BATCH_SIZE: usize = 32;

#[derive(Debug, Serialize)]
struct WorkloadResult {
    name: String,
    batch_size: usize,
    epochs: usize,
    train_samples: usize,
    epoch_ms: f64,
    samples_per_s: f64,
    scalar_epoch_ms: f64,
    final_val_acc: f32,
    /// Two dispatched runs produced bitwise-equal histories and weights.
    deterministic: bool,
    /// The forced-scalar run's history and weights equal the dispatched
    /// ones bitwise.
    scalar_parity: bool,
}

/// One forced-scalar vs runtime-dispatched kernel timing row. Both sides
/// produce bitwise-identical results (the dispatch contract, enforced by
/// the `simd_parity` test suites); only the speed may differ.
#[derive(Debug, Serialize)]
struct SimdRow {
    kernel: &'static str,
    elems: usize,
    scalar_us: f64,
    dispatched_us: f64,
    speedup: f64,
    gated: bool,
}

#[derive(Debug, Serialize)]
struct TrainBenchReport {
    scale: &'static str,
    simd_pack_threshold: f64,
    /// Active CPU-feature set and selected kernels — recorded so archived
    /// timing rows are explainable from the ISA that produced them.
    dispatch: KernelDispatch,
    workloads: Vec<WorkloadResult>,
    simd_microbench: Vec<SimdRow>,
    accepted: bool,
}

/// The Table II dense classifier at paper scale: 5152 → 75 → 2, binary
/// weights, BatchNorm thresholds, sign activations (§III-C).
fn build_ecg_mlp(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(5152, 75, WeightMode::Binary, &mut rng).without_bias());
    net.push(BatchNorm::new(75));
    net.push(Activation::sign_ste());
    net.push(Dense::new(75, 2, WeightMode::Binary, &mut rng).without_bias());
    net.push(BatchNorm::new(2));
    net
}

struct RunOutcome {
    epoch_ms: f64,
    samples_per_s: f64,
    final_val_acc: f32,
    /// Per-epoch history, then every final parameter value, as raw bits.
    bits: Vec<u32>,
}

/// One training run through `train::fit`, evaluating every epoch.
fn train_run(
    model: &mut dyn Layer,
    x: &Tensor,
    y: &[usize],
    vx: &Tensor,
    vy: &[usize],
    epochs: usize,
    seed: u64,
    lr: f32,
) -> RunOutcome {
    let mut opt = Adam::new(lr);
    let cfg = train::TrainConfig {
        epochs,
        batch_size: BATCH_SIZE,
        seed,
        eval_every: 1,
        verbose: false,
        lr_schedule: None,
    };
    let t0 = Instant::now();
    let hist = train::fit(
        model,
        train::Labelled::new(x, y),
        Some(train::Labelled::new(vx, vy)),
        &mut opt,
        &cfg,
    );
    let elapsed = t0.elapsed().as_secs_f64();
    let mut bits: Vec<u32> = Vec::new();
    bits.extend(hist.train_loss.iter().map(|v| v.to_bits()));
    bits.extend(hist.train_acc.iter().map(|v| v.to_bits()));
    bits.extend(hist.val_acc.iter().map(|&(_, v)| v.to_bits()));
    for param in model.params() {
        bits.extend(param.value.as_slice().iter().map(|v| v.to_bits()));
    }
    RunOutcome {
        epoch_ms: elapsed * 1e3 / epochs as f64,
        samples_per_s: (y.len() * epochs) as f64 / elapsed,
        final_val_acc: hist.final_val_acc().unwrap_or(0.0),
        bits,
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_workload(
    name: &str,
    build: impl Fn() -> Box<dyn Layer>,
    x: &Tensor,
    y: &[usize],
    vx: &Tensor,
    vy: &[usize],
    epochs: usize,
    lr: f32,
) -> WorkloadResult {
    let seed = 42;
    let run = || train_run(build().as_mut(), x, y, vx, vy, epochs, seed, lr);
    let run_a = run();
    let run_b = run();
    set_forced_scalar(true);
    let scalar = run();
    clear_forced_scalar();
    WorkloadResult {
        name: name.to_string(),
        batch_size: BATCH_SIZE,
        epochs,
        train_samples: y.len(),
        epoch_ms: run_a.epoch_ms,
        samples_per_s: run_a.samples_per_s,
        scalar_epoch_ms: scalar.epoch_ms,
        final_val_acc: run_a.final_val_acc,
        deterministic: run_a.bits == run_b.bits,
        scalar_parity: scalar.bits == run_a.bits,
    }
}

/// Times the three runtime-dispatched kernel families against the
/// forced-scalar oracle at deployed-ECG shapes: sign packing (the serve
/// hot path — **gated** ≥ [`SIMD_PACK_THRESHOLD`]× where dispatch picks a
/// SIMD kernel), XNOR-popcount, and the f32 GEMM micro-kernel.
fn simd_microbench() -> Vec<SimdRow> {
    let mut rng = StdRng::seed_from_u64(13);
    // Packing: one batch-32 request of deployed-ECG feature rows
    // (32 × 5152, ~660 KB — cache-resident so the timing isolates the
    // kernel rather than DRAM bandwidth), the shape
    // the plan's pack step runs per serve request.
    let (pack_rows, pack_cols) = (32usize, 5152usize);
    let pack_values = Tensor::randn([pack_rows, pack_cols], 1.0, &mut rng);
    // Popcount: paired bit-vectors long enough to exercise the 16-vector
    // Harley-Seal blocks (4096 words = 256 Ki bits, L2-resident).
    let words = 4096usize;
    let bits = words * 64;
    let wa: Vec<u64> = (0..words)
        .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let wb: Vec<u64> = (0..words)
        .map(|i| (i as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
        .collect();
    // GEMM: the dense-forward shape (32 × 5152 → 75).
    let gx = Tensor::randn([32, 5152], 1.0, &mut rng);
    let gw = Tensor::randn([75, 5152], 1.0, &mut rng);

    let time = |iters: usize, f: &mut dyn FnMut() -> u64| {
        let t0 = Instant::now();
        let mut sink = 0u64;
        for _ in 0..iters {
            sink = sink.wrapping_add(f());
        }
        std::hint::black_box(sink);
        t0.elapsed().as_secs_f64() * 1e6 / iters as f64
    };
    let both = |iters: usize, f: &mut dyn FnMut() -> u64| {
        set_forced_scalar(true);
        let scalar_us = time(iters, f);
        set_forced_scalar(false);
        let dispatched_us = time(iters, f);
        clear_forced_scalar();
        (scalar_us, dispatched_us)
    };

    let mut rows = Vec::new();
    let cases: [(&'static str, usize, usize, bool, &mut dyn FnMut() -> u64); 3] = [
        (
            "pack_signs (BitMatrix::from_signs, serve packing)",
            pack_rows * pack_cols,
            500,
            true,
            &mut || {
                let m = BitMatrix::from_signs(pack_values.as_slice(), pack_rows, pack_cols);
                m.row(0).as_words().first().copied().unwrap_or(0)
            },
        ),
        (
            "xnor_popcount (Harley-Seal blocks)",
            bits,
            2000,
            false,
            &mut || u64::from(xnor_popcount(&wa, &wb, bits)),
        ),
        (
            "gemm f32 (dense forward 32x5152x75)",
            32 * 5152 * 75,
            30,
            false,
            &mut || {
                u64::from(
                    gx.matmul_nt(&gw)
                        .as_slice()
                        .first()
                        .copied()
                        .unwrap_or(0.0)
                        .to_bits(),
                )
            },
        ),
    ];
    for (kernel, elems, iters, gated, f) in cases {
        let (scalar_us, dispatched_us) = both(iters, f);
        rows.push(SimdRow {
            kernel,
            elems,
            scalar_us,
            dispatched_us,
            speedup: scalar_us / dispatched_us,
            gated,
        });
    }
    rows
}

fn main() {
    let (scale, flags) = parse_scale_with(&["--strict", "--dispatch-report"]);
    let strict = flags[0];
    let dispatch_report_only = flags[1];

    // `--dispatch-report`: print the runtime dispatch decisions and exit —
    // the CI self-check greps this for the baseline feature set (sse2).
    if dispatch_report_only {
        let d = KernelDispatch::capture();
        println!("features: {}", d.features);
        println!("forced_scalar: {}", d.forced_scalar);
        println!("popcount: {}", d.popcount);
        println!("pack: {}", d.pack);
        println!("gemm: {}", d.gemm);
        return;
    }
    banner(
        "train_bench — training throughput (GEMM micro-kernels + zero-alloc pipeline)",
        scale,
    );

    let (mlp_train, mlp_val, mlp_epochs, eeg_scale, eeg_epochs) = match scale {
        RunScale::Quick => (768, 256, 3, Scale::Quick, 3),
        RunScale::Full => (4096, 1024, 10, Scale::Paper, 5),
    };

    let mut workloads = Vec::new();

    // Workload 1: paper-scale ECG MLP, batch 32.
    {
        let (x, y, vx, vy) = planted_task(5152, mlp_train, mlp_val, 0.53, 11);
        workloads.push(bench_workload(
            "ecg_mlp_paper_5152_75_2",
            || Box::new(build_ecg_mlp(5)) as Box<dyn Layer>,
            &x,
            &y,
            &vx,
            &vy,
            mlp_epochs,
            0.01,
        ));
    }

    // Workload 2: the EEG conv net on the synthetic motor-imagery dataset.
    {
        let setup = TaskSetup::new(Task::Eeg, eeg_scale, 21);
        let (train_ds, val_ds) = setup.dataset().cv_fold(5, 0);
        workloads.push(bench_workload(
            &format!(
                "eeg_conv_{}",
                match eeg_scale {
                    Scale::Quick => "reduced",
                    Scale::Paper => "paper",
                }
            ),
            || {
                Box::new(setup.build_model(BinarizationStrategy::BinarizedClassifier, 1, 17))
                    as Box<dyn Layer>
            },
            train_ds.samples(),
            train_ds.labels(),
            val_ds.samples(),
            val_ds.labels(),
            eeg_epochs,
            0.01,
        ));
    }

    println!(
        "\n{:<28} {:>10} {:>12} {:>12} {:>8} {:>7} {:>8}",
        "workload", "ms/epoch", "samples/s", "scalar ms/ep", "val acc", "determ", "scalar=="
    );
    let yes_no = |ok: bool| if ok { "yes" } else { "NO" };
    for w in &workloads {
        println!(
            "{:<28} {:>10.1} {:>12.0} {:>12.1} {:>8.3} {:>7} {:>8}",
            w.name,
            w.epoch_ms,
            w.samples_per_s,
            w.scalar_epoch_ms,
            w.final_val_acc,
            yes_no(w.deterministic),
            yes_no(w.scalar_parity)
        );
    }

    let dispatch = KernelDispatch::capture();
    let simd_rows = simd_microbench();
    println!(
        "\nRuntime-dispatched kernels vs forced-scalar oracle \
         (features: {}; popcount {}, pack {}, gemm {}):",
        dispatch.features, dispatch.popcount, dispatch.pack, dispatch.gemm
    );
    for r in &simd_rows {
        println!(
            "  {:<50} {:>9.0} us -> {:>8.0} us  ({:.2}x){}",
            r.kernel,
            r.scalar_us,
            r.dispatched_us,
            r.speedup,
            if r.gated { "  [gated]" } else { "" }
        );
    }

    // Acceptance: every workload trains deterministically and in bitwise
    // forced-scalar parity.
    let workloads_ok = workloads.iter().all(|w| w.deterministic && w.scalar_parity);
    // The SIMD packing gate only applies where dispatch actually selected
    // a SIMD packing kernel; under `RBNN_KERNELS=scalar` (the CI
    // forced-scalar leg) or on hosts without AVX both sides run the same
    // scalar code and a speedup ratio would be noise.
    let simd_gate_applies = !dispatch.forced_scalar && dispatch.pack != "scalar";
    let simd_ok = !simd_gate_applies
        || simd_rows
            .iter()
            .filter(|r| r.gated)
            .all(|r| r.speedup >= SIMD_PACK_THRESHOLD);
    let accepted = workloads_ok && simd_ok;
    println!(
        "\ngate (every workload, batch {BATCH_SIZE}): bitwise-deterministic history + weights, \
         forced-scalar == dispatched bitwise: {}",
        if workloads_ok { "PASS" } else { "FAIL" }
    );
    println!(
        "gate (SIMD packing vs scalar): speedup >= {SIMD_PACK_THRESHOLD}x: {}",
        if !simd_gate_applies {
            "SKIPPED (scalar dispatch)"
        } else if simd_ok {
            "PASS"
        } else {
            "FAIL"
        }
    );

    let report = TrainBenchReport {
        scale: match scale {
            RunScale::Quick => "quick",
            RunScale::Full => "full",
        },
        simd_pack_threshold: SIMD_PACK_THRESHOLD,
        dispatch,
        workloads,
        simd_microbench: simd_rows,
        accepted,
    };
    archive_json("train_bench", &report);

    if strict && !accepted {
        std::process::exit(1);
    }
}
