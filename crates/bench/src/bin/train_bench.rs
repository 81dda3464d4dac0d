//! Training-throughput benchmark with a CI speedup gate.
//!
//! Measures epoch time and samples/s for the two paper-scale training
//! workloads the ROADMAP sweeps hinge on (endurance retraining,
//! fault-injection curves, architecture search):
//!
//! * **ECG MLP (gated)** — the Table II dense classifier at paper scale
//!   (5152 → 75 → 2, binary weights + BatchNorm + sign), batch 32: the part
//!   of the ECG network the paper maps onto the RRAM arrays, trained on a
//!   synthetic planted-hyperplane task so accuracy parity is checkable.
//! * **EEG conv net** — the Table I convolutional network on the synthetic
//!   EEG motor-imagery dataset (reduced dimensions under `--quick`, paper
//!   dimensions under `--full`).
//!
//! Each workload is trained twice: once through the **pre-overhaul
//! baseline** — the reference GEMM loops
//! (`rbnn_tensor::set_reference_kernels`) driving the old per-sample
//! `gather`+`stack` batch assembly and per-sample logit re-stacking — and
//! once through the current pipeline (packed register-tiled GEMM
//! micro-kernels, `gather_rows_into`, scratch-arena layers). The optimized
//! run executes twice with identical seeds and the per-epoch histories must
//! match **bitwise** (the kernels are thread-count invariant, so this holds
//! for any worker count).
//!
//! `--strict` exits non-zero unless, on the ECG MLP at batch 32: the
//! epoch-time speedup is ≥ 4×, the final validation accuracy is within
//! 0.5 pt of the baseline run, and the determinism check passes. A GEMM
//! micro-benchmark also records the dense-gradient `matmul_tn` shape whose
//! `av == 0.0` skip branch the blocked kernel replaced.
//!
//! Results are archived to `bench_results/train_bench.json`.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;

use rbnn_bench::{archive_json, banner, parse_scale_with, KernelDispatch, RunScale};
// The synthetic planted-template ECG-MLP task (noisy ±1 class templates)
// is shared with the conformance fault campaign — one definition.
use rbnn_conformance::planted_task;
use rbnn_models::BinarizationStrategy;
use rbnn_nn::{
    loss, metrics, train, Activation, Adam, BatchNorm, Dense, Layer, Optimizer, Param, Phase,
    Scratch, Sequential, WeightMode,
};
use rbnn_tensor::{
    clear_forced_scalar, set_forced_scalar, set_reference_kernels, xnor_popcount, BitMatrix, Tensor,
};
use rram_bnn::tasks::{Scale, Task, TaskSetup};

/// Verbatim pre-overhaul implementations, kept here so the baseline
/// measures what training actually cost before this PR: per-batch clones of
/// the input and effective weight, freshly allocated outputs and gradient
/// buffers, and a gradient clone inside the optimizer. The current library
/// layers eliminated all of these, so measuring the baseline through them
/// would understate the speedup.
mod pre_overhaul {
    use super::*;
    use rand::Rng;

    /// The pre-overhaul `Dense` layer (clone-caching, allocating).
    #[derive(Debug)]
    pub struct NaiveDense {
        weight: Param,
        bias: Option<Param>,
        in_features: usize,
        out_features: usize,
        mode: WeightMode,
        cached_input: Option<Tensor>,
        cached_eff_w: Option<Tensor>,
    }

    impl NaiveDense {
        pub fn new(
            in_features: usize,
            out_features: usize,
            mode: WeightMode,
            rng: &mut impl Rng,
        ) -> Self {
            // Mirror `Dense::new` exactly (same init draws from the same
            // RNG stream) so naive and optimized models start identical.
            let reference = Dense::new(in_features, out_features, mode, rng);
            let weight = reference.params()[0].value.clone();
            let mut weight = Param::new(weight);
            if mode.is_binary() {
                weight = weight.with_clamp(-1.0, 1.0);
            }
            Self {
                weight,
                bias: None,
                in_features,
                out_features,
                mode,
                cached_input: None,
                cached_eff_w: None,
            }
        }

        fn effective_weight(&self) -> Tensor {
            match self.mode {
                WeightMode::Real => self.weight.value.clone(),
                WeightMode::Binary => self.weight.value.signum_binary(),
            }
        }
    }

    impl Layer for NaiveDense {
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn forward_with(&mut self, x: &Tensor, phase: Phase, _scratch: &mut Scratch) -> Tensor {
            assert_eq!(x.dim(1), self.in_features, "NaiveDense: feature mismatch");
            let eff_w = self.effective_weight();
            let mut y = x.matmul_nt(&eff_w);
            if let Some(b) = &self.bias {
                let n = y.dim(0);
                let o = self.out_features;
                let ys = y.as_mut_slice();
                let bs = b.value.as_slice();
                for row in 0..n {
                    for (j, &bv) in bs.iter().enumerate() {
                        ys[row * o + j] += bv;
                    }
                }
            }
            if phase.is_train() {
                self.cached_input = Some(x.clone());
                self.cached_eff_w = Some(eff_w);
            }
            y
        }

        fn backward_with(&mut self, grad_out: &Tensor, _scratch: &mut Scratch) -> Tensor {
            let x = self.cached_input.take().expect("forward first");
            let eff_w = self.cached_eff_w.take().expect("cache missing");
            let mut grad_w = grad_out.matmul_tn(&x);
            if self.mode.is_binary() {
                grad_w = grad_w.zip(
                    &self.weight.value,
                    |g, w| if w.abs() <= 1.0 { g } else { 0.0 },
                );
            }
            self.weight.grad += &grad_w;
            if let Some(b) = &mut self.bias {
                let n = grad_out.dim(0);
                let o = self.out_features;
                let gs = grad_out.as_slice();
                let gb = b.grad.as_mut_slice();
                for row in 0..n {
                    for (j, g) in gb.iter_mut().enumerate() {
                        *g += gs[row * o + j];
                    }
                }
            }
            grad_out.matmul(&eff_w)
        }

        fn params(&self) -> Vec<&Param> {
            let mut v = vec![&self.weight];
            if let Some(b) = &self.bias {
                v.push(b);
            }
            v
        }

        fn params_mut(&mut self) -> Vec<&mut Param> {
            let mut v = vec![&mut self.weight];
            if let Some(b) = &mut self.bias {
                v.push(b);
            }
            v
        }

        fn out_shape(&self, _in_shape: &[usize]) -> Vec<usize> {
            vec![self.out_features]
        }

        fn name(&self) -> String {
            format!("NaiveDense({}→{})", self.in_features, self.out_features)
        }
    }

    /// The pre-overhaul Adam (clones the gradient every step).
    #[derive(Debug)]
    pub struct NaiveAdam {
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
        m: Vec<Tensor>,
        v: Vec<Tensor>,
    }

    impl NaiveAdam {
        pub fn new(lr: f32) -> Self {
            Self {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                t: 0,
                m: Vec::new(),
                v: Vec::new(),
            }
        }
    }

    impl Optimizer for NaiveAdam {
        fn step(&mut self, params: &mut [&mut Param]) {
            if self.m.len() != params.len() {
                self.m = params
                    .iter()
                    .map(|p| Tensor::zeros(p.value.shape().clone()))
                    .collect();
                self.v = params
                    .iter()
                    .map(|p| Tensor::zeros(p.value.shape().clone()))
                    .collect();
                self.t = 0;
            }
            self.t += 1;
            let bc1 = 1.0 - self.beta1.powi(self.t as i32);
            let bc2 = 1.0 - self.beta2.powi(self.t as i32);
            for (i, p) in params.iter_mut().enumerate() {
                let g = p.grad.clone();
                let (ms, vs, gs, ps) = (
                    self.m[i].as_mut_slice(),
                    self.v[i].as_mut_slice(),
                    g.as_slice(),
                    p.value.as_mut_slice(),
                );
                for j in 0..gs.len() {
                    ms[j] = self.beta1 * ms[j] + (1.0 - self.beta1) * gs[j];
                    vs[j] = self.beta2 * vs[j] + (1.0 - self.beta2) * gs[j] * gs[j];
                    let mhat = ms[j] / bc1;
                    let vhat = vs[j] / bc2;
                    ps[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
                }
                p.apply_clamp();
            }
        }

        fn learning_rate(&self) -> f32 {
            self.lr
        }

        fn set_learning_rate(&mut self, lr: f32) {
            self.lr = lr;
        }
    }
}

/// The CI gate: optimized epoch time must beat the pre-overhaul baseline by
/// at least this factor on the paper-scale ECG MLP at batch 32.
const SPEEDUP_THRESHOLD: f32 = 4.0;
/// Final validation accuracy must stay within this of the baseline run.
const ACCURACY_TOLERANCE: f32 = 0.005;
/// The runtime-dispatch gate: on hosts where dispatch selects a SIMD
/// packing kernel, the gated `simd_microbench` packing row must beat the
/// forced-scalar oracle by at least this factor. (The popcount and GEMM
/// rows are informational: under `target-cpu=native` LLVM already
/// autovectorizes the scalar popcount, and the GEMM gate is the 4×
/// workload gate above.)
const SIMD_PACK_THRESHOLD: f64 = 2.0;
const BATCH_SIZE: usize = 32;

#[derive(Debug, Serialize)]
struct WorkloadResult {
    name: String,
    batch_size: usize,
    epochs: usize,
    train_samples: usize,
    naive_epoch_ms: f64,
    optimized_epoch_ms: f64,
    speedup: f64,
    naive_samples_per_s: f64,
    optimized_samples_per_s: f64,
    naive_final_val_acc: f32,
    optimized_final_val_acc: f32,
    deterministic: bool,
    gated: bool,
}

#[derive(Debug, Serialize)]
struct GemmRow {
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    reference_us: f64,
    blocked_us: f64,
    speedup: f64,
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
    speedup_threshold: f32,
    accuracy_tolerance: f32,
    simd_pack_threshold: f64,
    /// Active CPU-feature set and selected kernels — recorded so archived
    /// timing rows are explainable from the ISA that produced them.
    dispatch: KernelDispatch,
    workloads: Vec<WorkloadResult>,
    gemm_microbench: Vec<GemmRow>,
    simd_microbench: Vec<SimdRow>,
    accepted: bool,
}

/// The Table II dense classifier at paper scale: 5152 → 75 → 2, binary
/// weights, BatchNorm thresholds, sign activations (§III-C). `naive`
/// substitutes the verbatim pre-overhaul dense layers (identical weight
/// init — both consume the same RNG draws).
fn build_ecg_mlp(seed: u64, naive: bool) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    if naive {
        net.push(pre_overhaul::NaiveDense::new(
            5152,
            75,
            WeightMode::Binary,
            &mut rng,
        ));
    } else {
        net.push(Dense::new(5152, 75, WeightMode::Binary, &mut rng).without_bias());
    }
    net.push(BatchNorm::new(75));
    net.push(Activation::sign_ste());
    if naive {
        net.push(pre_overhaul::NaiveDense::new(
            75,
            2,
            WeightMode::Binary,
            &mut rng,
        ));
    } else {
        net.push(Dense::new(75, 2, WeightMode::Binary, &mut rng).without_bias());
    }
    net.push(BatchNorm::new(2));
    net
}

/// Pre-overhaul logit prediction: per-sample `index_axis0` + double
/// `Tensor::stack` (what `predict_logits` did before the overhaul).
fn naive_predict_logits(model: &mut dyn Layer, x: &Tensor, batch_size: usize) -> Tensor {
    let n = x.dim(0);
    let mut outputs = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        let idx: Vec<usize> = (start..end).collect();
        let batch = train::gather(x, &idx);
        let logits = model.forward(&batch, Phase::Eval);
        for i in 0..logits.dim(0) {
            outputs.push(logits.index_axis0(i));
        }
        start = end;
    }
    Tensor::stack(&outputs)
}

/// Pre-overhaul training loop: per-batch `gather`+`stack` assembly,
/// throwaway-arena layer calls, and the old per-epoch evaluation through
/// the re-stacking `predict_logits` — identical batch order and RNG streams
/// to `train::fit` with the default every-epoch eval cadence. Returns the
/// final validation accuracy.
fn naive_fit(
    model: &mut dyn Layer,
    train_data: train::Labelled<'_>,
    val: train::Labelled<'_>,
    opt: &mut dyn Optimizer,
    epochs: usize,
    seed: u64,
) -> f32 {
    let n = train_data.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut acc = 0.0;
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(BATCH_SIZE) {
            let xb = train::gather(train_data.x, chunk);
            let yb: Vec<usize> = chunk.iter().map(|&i| train_data.y[i]).collect();
            model.zero_grad();
            let logits = model.forward(&xb, Phase::Train);
            let (_, grad) = loss::softmax_cross_entropy(&logits, &yb);
            let _ = metrics::accuracy(&logits, &yb);
            model.backward(&grad);
            let mut params = model.params_mut();
            opt.step(&mut params);
        }
        let logits = naive_predict_logits(model, val.x, BATCH_SIZE);
        acc = metrics::accuracy(&logits, val.y);
    }
    acc
}

struct RunOutcome {
    epoch_ms: f64,
    samples_per_s: f64,
    final_val_acc: f32,
    history_bits: Vec<u32>,
}

/// One optimized training run through `train::fit`, evaluating every epoch
/// (the `TrainConfig` default cadence, matching the baseline loop).
fn optimized_run(
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
    let mut history_bits: Vec<u32> = Vec::new();
    history_bits.extend(hist.train_loss.iter().map(|v| v.to_bits()));
    history_bits.extend(hist.train_acc.iter().map(|v| v.to_bits()));
    history_bits.extend(hist.val_acc.iter().map(|&(_, v)| v.to_bits()));
    RunOutcome {
        epoch_ms: elapsed * 1e3 / epochs as f64,
        samples_per_s: (y.len() * epochs) as f64 / elapsed,
        final_val_acc: hist.final_val_acc().unwrap_or(0.0),
        history_bits,
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_workload(
    name: &str,
    mut build: impl FnMut(bool) -> Box<dyn Layer>,
    x: &Tensor,
    y: &[usize],
    vx: &Tensor,
    vy: &[usize],
    epochs: usize,
    lr: f32,
    gated: bool,
) -> WorkloadResult {
    let seed = 42;

    // Pre-overhaul baseline: reference kernels + old batch assembly (and,
    // where the workload provides them, verbatim pre-overhaul layers).
    set_reference_kernels(true);
    let mut model = build(true);
    let mut opt = pre_overhaul::NaiveAdam::new(lr);
    let t0 = Instant::now();
    let naive_acc = naive_fit(
        model.as_mut(),
        train::Labelled::new(x, y),
        train::Labelled::new(vx, vy),
        &mut opt,
        epochs,
        seed,
    );
    let naive_elapsed = t0.elapsed().as_secs_f64();
    set_reference_kernels(false);

    // Optimized pipeline, run twice with identical seeds: the histories
    // must agree bitwise at a fixed thread count.
    let mut model_a = build(false);
    let run_a = optimized_run(model_a.as_mut(), x, y, vx, vy, epochs, seed, lr);
    let mut model_b = build(false);
    let run_b = optimized_run(model_b.as_mut(), x, y, vx, vy, epochs, seed, lr);
    let deterministic = run_a.history_bits == run_b.history_bits;

    let naive_epoch_ms = naive_elapsed * 1e3 / epochs as f64;
    WorkloadResult {
        name: name.to_string(),
        batch_size: BATCH_SIZE,
        epochs,
        train_samples: y.len(),
        naive_epoch_ms,
        optimized_epoch_ms: run_a.epoch_ms,
        speedup: naive_epoch_ms / run_a.epoch_ms,
        naive_samples_per_s: (y.len() * epochs) as f64 / naive_elapsed,
        optimized_samples_per_s: run_a.samples_per_s,
        naive_final_val_acc: naive_acc,
        optimized_final_val_acc: run_a.final_val_acc,
        deterministic,
        gated,
    }
}

/// Times the dense-layer GEMM shapes under the reference loops vs the
/// blocked kernels — documenting the `matmul_tn` zero-skip replacement.
fn gemm_microbench() -> Vec<GemmRow> {
    let mut rng = StdRng::seed_from_u64(7);
    let x = Tensor::randn([32, 5152], 1.0, &mut rng);
    let w = Tensor::randn([75, 5152], 1.0, &mut rng);
    let g = Tensor::randn([32, 75], 1.0, &mut rng);
    let mut rows = Vec::new();
    let time = |f: &dyn Fn() -> Tensor| {
        let iters = 30;
        let t0 = Instant::now();
        let mut sink = 0.0f32;
        for _ in 0..iters {
            sink += f().as_slice()[0];
        }
        std::hint::black_box(sink);
        t0.elapsed().as_secs_f64() * 1e6 / iters as f64
    };
    for (kernel, m, k, n, f) in [
        (
            "matmul_tn (dense weight gradient)",
            75,
            32,
            5152,
            &(|| g.matmul_tn(&x)) as &dyn Fn() -> Tensor,
        ),
        ("matmul_nt (dense forward)", 32, 5152, 75, &|| {
            x.matmul_nt(&w)
        }),
        ("matmul (dense input gradient)", 32, 75, 5152, &|| {
            g.matmul(&w)
        }),
    ] {
        set_reference_kernels(true);
        let reference_us = time(f);
        set_reference_kernels(false);
        let blocked_us = time(f);
        rows.push(GemmRow {
            kernel,
            m,
            k,
            n,
            reference_us,
            blocked_us,
            speedup: reference_us / blocked_us,
        });
    }
    rows
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

    // Workload 1 (gated): paper-scale ECG MLP, batch 32.
    {
        let (x, y, vx, vy) = planted_task(5152, mlp_train, mlp_val, 0.53, 11);
        workloads.push(bench_workload(
            "ecg_mlp_paper_5152_75_2",
            |naive| Box::new(build_ecg_mlp(5, naive)) as Box<dyn Layer>,
            &x,
            &y,
            &vx,
            &vy,
            mlp_epochs,
            0.01,
            true,
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
            |_naive| {
                // The conv workload has no verbatim pre-overhaul layer
                // copy; its baseline (reference kernels + old assembly) is
                // therefore conservative.
                Box::new(setup.build_model(BinarizationStrategy::BinarizedClassifier, 1, 17))
                    as Box<dyn Layer>
            },
            train_ds.samples(),
            train_ds.labels(),
            val_ds.samples(),
            val_ds.labels(),
            eeg_epochs,
            0.01,
            false,
        ));
    }

    println!(
        "\n{:<28} {:>12} {:>12} {:>8} {:>10} {:>10} {:>7}",
        "workload", "naive ms/ep", "opt ms/ep", "speedup", "naive acc", "opt acc", "determ"
    );
    for w in &workloads {
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>7.2}x {:>10.3} {:>10.3} {:>7}",
            w.name,
            w.naive_epoch_ms,
            w.optimized_epoch_ms,
            w.speedup,
            w.naive_final_val_acc,
            w.optimized_final_val_acc,
            if w.deterministic { "yes" } else { "NO" }
        );
        println!(
            "{:<28} {:>12.0} {:>12.0}   (samples/s)",
            "", w.naive_samples_per_s, w.optimized_samples_per_s
        );
    }

    let gemm_rows = gemm_microbench();
    println!("\nGEMM micro-kernels vs pre-overhaul loops (dense-layer shapes):");
    for r in &gemm_rows {
        println!(
            "  {:<36} [{:>3}x{:>4}x{:>4}] {:>9.0} us -> {:>8.0} us  ({:.2}x)",
            r.kernel, r.m, r.k, r.n, r.reference_us, r.blocked_us, r.speedup
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

    // Acceptance: every gated workload must clear the speedup threshold,
    // match baseline accuracy, and train deterministically.
    let workloads_ok = workloads.iter().filter(|w| w.gated).all(|w| {
        w.speedup >= SPEEDUP_THRESHOLD as f64
            && (w.optimized_final_val_acc - w.naive_final_val_acc).abs() <= ACCURACY_TOLERANCE
            && w.deterministic
    });
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
        "\ngate (ECG MLP, batch {BATCH_SIZE}): speedup >= {SPEEDUP_THRESHOLD}x, \
         |acc delta| <= {ACCURACY_TOLERANCE}, bitwise-deterministic history: {}",
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
        speedup_threshold: SPEEDUP_THRESHOLD,
        accuracy_tolerance: ACCURACY_TOLERANCE,
        simd_pack_threshold: SIMD_PACK_THRESHOLD,
        dispatch,
        workloads,
        gemm_microbench: gemm_rows,
        simd_microbench: simd_rows,
        accepted,
    };
    archive_json("train_bench", &report);

    if strict && !accepted {
        std::process::exit(1);
    }
}
