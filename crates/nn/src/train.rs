//! Mini-batch training loop, evaluation helpers and training history.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rbnn_telemetry::{Counter, LogHistogram};
use rbnn_tensor::{Scratch, Tensor};

use crate::{loss, metrics, Layer, LrSchedule, Optimizer, Phase};

/// Process-wide handles for the training-loop phase timings on the global
/// telemetry registry.  All `fit` runs in the process aggregate into the
/// same series; per-epoch phase totals land in the histograms, so one
/// histogram sample = one epoch's cumulative time in that phase.
struct TrainTelemetry {
    epochs: Arc<Counter>,
    batches: Arc<Counter>,
    forward_us: Arc<LogHistogram>,
    backward_us: Arc<LogHistogram>,
    optim_us: Arc<LogHistogram>,
}

fn train_telemetry() -> &'static TrainTelemetry {
    static CELL: OnceLock<TrainTelemetry> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = rbnn_telemetry::global();
        TrainTelemetry {
            epochs: reg.counter("rbnn_train_epochs_total", "", "Training epochs completed."),
            batches: reg.counter(
                "rbnn_train_batches_total",
                "",
                "Training mini-batch steps completed.",
            ),
            forward_us: reg.histogram(
                "rbnn_train_epoch_forward_us",
                "",
                "Per-epoch cumulative forward-pass time (microseconds).",
            ),
            backward_us: reg.histogram(
                "rbnn_train_epoch_backward_us",
                "",
                "Per-epoch cumulative backward-pass time (microseconds).",
            ),
            optim_us: reg.histogram(
                "rbnn_train_epoch_optim_us",
                "",
                "Per-epoch cumulative optimizer-step time (microseconds).",
            ),
        }
    })
}

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// If set, evaluation on the validation set happens every `n` epochs
    /// (always on the last epoch).
    pub eval_every: usize,
    /// Print one progress line per evaluation to stderr.
    pub verbose: bool,
    /// Optional learning-rate schedule applied at the start of each epoch
    /// (overrides the optimizer's configured rate).
    pub lr_schedule: Option<LrSchedule>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            seed: 0,
            eval_every: 1,
            verbose: false,
            lr_schedule: None,
        }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Training accuracy per epoch (over the batches as seen).
    pub train_acc: Vec<f32>,
    /// `(epoch, accuracy)` validation measurements.
    pub val_acc: Vec<(usize, f32)>,
    /// `(epoch, accuracy)` validation top-5 measurements (empty when the
    /// task has fewer than 6 classes).
    pub val_top5: Vec<(usize, f32)>,
}

impl History {
    /// The last validation accuracy, if any evaluation ran.
    pub fn final_val_acc(&self) -> Option<f32> {
        self.val_acc.last().map(|&(_, a)| a)
    }

    /// The best validation accuracy seen, if any.
    pub fn best_val_acc(&self) -> Option<f32> {
        self.val_acc
            .iter()
            .map(|&(_, a)| a)
            .max_by(|a, b| a.partial_cmp(b).expect("accuracy is never NaN"))
    }
}

/// A labelled batch-major dataset view: samples stacked on axis 0 plus one
/// integer label per sample.
#[derive(Debug, Clone, Copy)]
pub struct Labelled<'a> {
    /// Stacked samples `[N, …]`.
    pub x: &'a Tensor,
    /// One class index per sample.
    pub y: &'a [usize],
}

impl<'a> Labelled<'a> {
    /// Bundles samples and labels.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the leading dimension of `x`.
    pub fn new(x: &'a Tensor, y: &'a [usize]) -> Self {
        assert_eq!(x.dim(0), y.len(), "sample/label count mismatch");
        Self { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// Gathers `indices` of the leading axis into a new batch tensor.
///
/// Allocation-free loops use [`Tensor::gather_rows_into`] with a reused
/// buffer instead; this remains as the simple one-shot form (used by
/// `rram_bnn::deploy::classifier_features`).
pub fn gather(x: &Tensor, indices: &[usize]) -> Tensor {
    let items: Vec<Tensor> = indices.iter().map(|&i| x.index_axis0(i)).collect();
    Tensor::stack(&items)
}

/// Runs the model over `data` in batches and returns the logits `[N, C]`.
///
/// Each batch's logits are written straight into one preallocated `[N, C]`
/// output; the batch buffer and every layer intermediate come from a single
/// scratch arena reused across batches.
pub fn predict_logits(model: &mut dyn Layer, x: &Tensor, batch_size: usize) -> Tensor {
    let mut scratch = Scratch::new();
    predict_logits_with(model, x, batch_size, &mut scratch)
}

/// [`predict_logits`] drawing all buffers from a caller-provided arena (the
/// form `fit` uses so evaluation shares the training loop's buffers).
pub fn predict_logits_with(
    model: &mut dyn Layer,
    x: &Tensor,
    batch_size: usize,
    scratch: &mut Scratch,
) -> Tensor {
    let n = x.dim(0);
    assert!(batch_size >= 1, "need a positive batch size");
    let mut xb = scratch.tensor_for_overwrite([0]);
    let mut idx: Vec<usize> = Vec::with_capacity(batch_size.min(n));
    let mut out: Option<Tensor> = None;
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        idx.clear();
        idx.extend(start..end);
        x.gather_rows_into(&idx, &mut xb);
        let logits = model.forward_with(&xb, Phase::Eval, scratch);
        let classes = logits.dim(1);
        let dst = out.get_or_insert_with(|| scratch.tensor_for_overwrite([n, classes]));
        dst.as_mut_slice()[start * classes..end * classes].copy_from_slice(logits.as_slice());
        scratch.recycle(logits);
        start = end;
    }
    scratch.recycle(xb);
    out.unwrap_or_else(|| Tensor::zeros([0, 0]))
}

/// Evaluates top-1 accuracy of `model` on a labelled set.
pub fn evaluate(model: &mut dyn Layer, data: Labelled<'_>, batch_size: usize) -> f32 {
    let logits = predict_logits(model, data.x, batch_size);
    metrics::accuracy(&logits, data.y)
}

/// Trains `model` on `train` with softmax cross-entropy, optionally
/// evaluating on `val`, and returns the per-epoch [`History`].
///
/// The model sees shuffled mini-batches; gradients are zeroed before each
/// batch and the optimizer steps after each backward pass.
pub fn fit(
    model: &mut dyn Layer,
    train: Labelled<'_>,
    val: Option<Labelled<'_>>,
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
) -> History {
    assert!(cfg.epochs >= 1, "need at least one epoch");
    assert!(cfg.batch_size >= 1, "need a positive batch size");
    let n = train.len();
    assert!(n > 0, "empty training set");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = History::default();
    let track_top5 = val.as_ref().map(|v| v.x.dim(0) > 0).unwrap_or(false);

    // One arena and one batch buffer live across the whole run: after the
    // first batch, the layer pipeline performs no heap allocation for
    // tensor data (partial tail batches reuse the same buffer at a smaller
    // leading extent); only the O(batch·classes) loss buffers are
    // allocated per step.
    let mut scratch = Scratch::new();
    let mut xb = Tensor::default();
    let mut yb: Vec<usize> = Vec::with_capacity(cfg.batch_size);
    // Resolved once per run: the per-batch clock reads below disappear
    // entirely when telemetry is disabled.
    let telemetry = rbnn_telemetry::enabled().then(train_telemetry);

    for epoch in 0..cfg.epochs {
        if let Some(schedule) = &cfg.lr_schedule {
            opt.set_learning_rate(schedule.rate(epoch));
        }
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut epoch_hits = 0.0f32;
        let mut batches = 0usize;
        let mut forward_ns = 0u64;
        let mut backward_ns = 0u64;
        let mut optim_ns = 0u64;
        for chunk in order.chunks(cfg.batch_size) {
            train.x.gather_rows_into(chunk, &mut xb);
            yb.clear();
            yb.extend(chunk.iter().map(|&i| train.y[i]));
            model.zero_grad();
            let t0 = telemetry.map(|_| Instant::now());
            let logits = model.forward_with(&xb, Phase::Train, &mut scratch);
            if let Some(t0) = t0 {
                forward_ns += t0.elapsed().as_nanos() as u64;
            }
            let (loss_value, grad) = loss::softmax_cross_entropy(&logits, &yb);
            epoch_hits += metrics::accuracy(&logits, &yb) * yb.len() as f32;
            scratch.recycle(logits);
            // Root of the backward pass: the gradient w.r.t. the training
            // inputs is never consumed, so the first layer skips it.
            let t0 = telemetry.map(|_| Instant::now());
            let gx = model.backward_root_with(&grad, &mut scratch);
            if let Some(t0) = t0 {
                backward_ns += t0.elapsed().as_nanos() as u64;
            }
            scratch.recycle(gx);
            // `grad` was freshly allocated by the loss (O(batch·classes));
            // dropping it keeps the arena population stable — recycling it
            // would add one buffer per step until the pool cap forces a
            // perpetual evict/realloc cycle.
            drop(grad);
            let mut params = model.params_mut();
            let t0 = telemetry.map(|_| Instant::now());
            opt.step(&mut params);
            if let Some(t0) = t0 {
                optim_ns += t0.elapsed().as_nanos() as u64;
            }
            epoch_loss += loss_value;
            batches += 1;
        }
        if let Some(t) = telemetry {
            t.epochs.inc();
            t.batches.add(batches as u64);
            t.forward_us.record_value(forward_ns as f64 / 1e3);
            t.backward_us.record_value(backward_ns as f64 / 1e3);
            t.optim_us.record_value(optim_ns as f64 / 1e3);
        }
        history.train_loss.push(epoch_loss / batches.max(1) as f32);
        history.train_acc.push(epoch_hits / n as f32);

        let is_last = epoch + 1 == cfg.epochs;
        if let Some(v) = &val {
            if is_last || cfg.eval_every != 0 && epoch % cfg.eval_every.max(1) == 0 {
                let logits = predict_logits_with(model, v.x, cfg.batch_size, &mut scratch);
                let acc = metrics::accuracy(&logits, v.y);
                history.val_acc.push((epoch, acc));
                if track_top5 && logits.dim(1) > 5 {
                    history
                        .val_top5
                        .push((epoch, metrics::top_k_accuracy(&logits, v.y, 5)));
                }
                scratch.recycle(logits);
                if cfg.verbose {
                    eprintln!(
                        "epoch {:>4}: loss {:.4}  train acc {:.3}  val acc {:.3}",
                        epoch,
                        history.train_loss.last().unwrap(),
                        history.train_acc.last().unwrap(),
                        acc
                    );
                }
            }
        } else if cfg.verbose {
            eprintln!(
                "epoch {:>4}: loss {:.4}  train acc {:.3}",
                epoch,
                history.train_loss.last().unwrap(),
                history.train_acc.last().unwrap()
            );
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Adam, Dense, Sequential, WeightMode};
    use rand::Rng;

    /// Two-class linearly separable blobs.
    fn blobs(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::zeros([n, 2]);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % 2;
            let cx = if label == 0 { -1.5 } else { 1.5 };
            x.as_mut_slice()[i * 2] = cx + rng.gen_range(-0.5..0.5);
            x.as_mut_slice()[i * 2 + 1] = rng.gen_range(-0.5..0.5);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn fit_learns_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, WeightMode::Real, &mut rng));
        net.push(Activation::relu());
        net.push(Dense::new(8, 2, WeightMode::Real, &mut rng));

        let (x, y) = blobs(128, 2);
        let (vx, vy) = blobs(64, 3);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
            ..Default::default()
        };
        let hist = fit(
            &mut net,
            Labelled::new(&x, &y),
            Some(Labelled::new(&vx, &vy)),
            &mut opt,
            &cfg,
        );
        assert!(
            hist.final_val_acc().unwrap() > 0.95,
            "val acc {:?}",
            hist.final_val_acc()
        );
        // Loss decreased.
        assert!(hist.train_loss.last().unwrap() < hist.train_loss.first().unwrap());
    }

    #[test]
    fn binary_dense_model_also_learns() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 16, WeightMode::Binary, &mut rng));
        net.push(crate::BatchNorm::new(16));
        net.push(Activation::sign_ste());
        net.push(Dense::new(16, 2, WeightMode::Binary, &mut rng));
        net.push(crate::BatchNorm::new(2));

        let (x, y) = blobs(128, 5);
        let mut opt = Adam::new(0.02);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            ..Default::default()
        };
        let hist = fit(
            &mut net,
            Labelled::new(&x, &y),
            Some(Labelled::new(&x, &y)),
            &mut opt,
            &cfg,
        );
        assert!(
            hist.best_val_acc().unwrap() > 0.9,
            "BNN failed to fit blobs: {:?}",
            hist.best_val_acc()
        );
    }

    #[test]
    fn gather_stacks_selected_rows() {
        let x = Tensor::from_fn([4, 2], |i| i as f32);
        let g = gather(&x, &[2, 0]);
        assert_eq!(g.dims(), &[2, 2]);
        assert_eq!(g.as_slice(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn predict_logits_matches_direct_forward() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 2, WeightMode::Real, &mut rng));
        let x = Tensor::randn([10, 3], 1.0, &mut rng);
        let direct = net.forward(&x, Phase::Eval);
        let batched = predict_logits(&mut net, &x, 3);
        assert!(direct.allclose(&batched, 1e-5));
    }

    #[test]
    fn lr_schedule_is_applied() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 2, WeightMode::Real, &mut rng));
        let (x, y) = blobs(16, 10);
        let mut opt = Adam::new(1.0);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            lr_schedule: Some(crate::LrSchedule::StepDecay {
                lr: 0.1,
                step: 1,
                gamma: 0.5,
            }),
            ..Default::default()
        };
        let _ = fit(&mut net, Labelled::new(&x, &y), None, &mut opt, &cfg);
        // After epochs 0, 1, 2 the last applied rate is 0.1 · 0.5² = 0.025.
        assert!((opt.learning_rate() - 0.025).abs() < 1e-6);
    }

    #[test]
    fn backward_root_skips_input_grad_but_matches_param_grads() {
        use rbnn_tensor::Scratch;
        let mut rng = StdRng::seed_from_u64(12);
        let build = |rng: &mut StdRng| {
            let mut net = Sequential::new();
            net.push(crate::Conv1d::new(2, 3, 3, 1, 1, WeightMode::Binary, rng));
            net.push(crate::BatchNorm::new(3));
            net.push(Activation::sign_ste());
            net.push(crate::Flatten::new());
            net.push(Dense::new(3 * 8, 2, WeightMode::Real, rng));
            net
        };
        let mut full = build(&mut rng);
        let mut rng2 = StdRng::seed_from_u64(12);
        let mut root = build(&mut rng2);
        let x = Tensor::randn([4, 2, 8], 1.0, &mut rng);
        let g = Tensor::randn([4, 2], 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let _ = full.forward_with(&x, Phase::Train, &mut scratch);
        let gx_full = full.backward_with(&g, &mut scratch);
        let _ = root.forward_with(&x, Phase::Train, &mut scratch);
        let gx_root = root.backward_root_with(&g, &mut scratch);
        // The root pass skips the first conv's input gradient entirely…
        assert_eq!(gx_full.dims(), x.dims());
        assert_eq!(gx_root.numel(), 0, "root input grad must be skipped");
        // …while every parameter gradient matches the full pass bitwise.
        for (pf, pr) in full.params().iter().zip(root.params()) {
            assert_eq!(pf.grad.as_slice(), pr.grad.as_slice());
        }
    }

    #[test]
    fn fit_reports_phase_timings_on_the_global_registry() {
        let epochs_before = train_telemetry().epochs.get();
        let batches_before = train_telemetry().batches.get();
        let forward_before = train_telemetry().forward_us.count();

        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 4, WeightMode::Real, &mut rng));
        let (x, y) = blobs(32, 22);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            ..Default::default()
        };
        let _ = fit(&mut net, Labelled::new(&x, &y), None, &mut opt, &cfg);

        // Other tests in this binary run `fit` concurrently against the same
        // process-global series, so assert deltas as lower bounds.
        assert!(train_telemetry().epochs.get() >= epochs_before + 3);
        // 32 samples / batch 8 = 4 batches per epoch.
        assert!(train_telemetry().batches.get() >= batches_before + 12);
        assert!(train_telemetry().forward_us.count() >= forward_before + 3);
        // Phase time was actually measured, not just counted.
        assert!(train_telemetry().forward_us.sum() > 0.0);
        assert!(train_telemetry().backward_us.sum() > 0.0);
        assert!(train_telemetry().optim_us.sum() > 0.0);
    }

    #[test]
    #[should_panic(expected = "sample/label count mismatch")]
    fn labelled_rejects_mismatched_lengths() {
        let x = Tensor::zeros([3, 2]);
        let y = vec![0usize; 4];
        let _ = Labelled::new(&x, &y);
    }
}
