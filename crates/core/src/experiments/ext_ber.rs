//! Extension experiment (after the paper's companion refs \[15\], \[16\]):
//! classifier accuracy versus weight bit-error rate.
//!
//! This quantifies *why* the paper can operate without error-correcting
//! codes: at the BERs the 2T2R array delivers (≲10⁻⁴ over the device
//! lifetime, Fig 4), the BNN classifier loses essentially no accuracy,
//! while the 1T1R-level BERs (~10⁻²) start to bite.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use rbnn_binary::export_classifier;
use rbnn_models::BinarizationStrategy;
use rbnn_nn::{train, Adam};

use crate::deploy::{accuracy_under_ber, classifier_features};
use crate::tasks::{Scale, Task, TaskSetup};

/// One BER sweep point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BerPoint {
    /// Injected weight bit-error rate.
    pub ber: f64,
    /// Mean accuracy over injections.
    pub mean: f32,
    /// Standard deviation over injections.
    pub std: f32,
}

/// The accuracy-vs-BER sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct BerSweepResult {
    /// Task label.
    pub task: String,
    /// Clean (BER 0) accuracy.
    pub clean_accuracy: f32,
    /// Sweep points in increasing BER order.
    pub points: Vec<BerPoint>,
    /// Injection trials per point.
    pub trials: usize,
}

impl BerSweepResult {
    /// Largest BER whose mean accuracy stays within `tolerance` of clean —
    /// the ECC-free operating margin.
    pub fn tolerated_ber(&self, tolerance: f32) -> f64 {
        self.points
            .iter()
            .filter(|p| p.mean >= self.clean_accuracy - tolerance)
            .map(|p| p.ber)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for BerSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Extension — {} classifier accuracy vs weight BER (clean {:.1}%, {} trials/point)",
            self.task,
            self.clean_accuracy * 100.0,
            self.trials
        )?;
        writeln!(f, "{:>10} {:>10} {:>8}", "BER", "acc %", "± std")?;
        writeln!(f, "{}", "-".repeat(32))?;
        for p in &self.points {
            writeln!(
                f,
                "{:>10.1e} {:>10.1} {:>8.1}",
                p.ber,
                p.mean * 100.0,
                p.std * 100.0
            )?;
        }
        writeln!(
            f,
            "BER tolerated within 1%: {:.1e} (2T2R lifetime BER ≈ 1e-4 ⇒ no ECC needed)",
            self.tolerated_ber(0.01)
        )
    }
}

/// Configuration of the BER sweep.
#[derive(Debug, Clone, Serialize)]
pub struct BerSweepConfig {
    /// BER grid.
    pub bers: Vec<f64>,
    /// Independent injections per point.
    pub trials: usize,
    /// Training epochs for the underlying model.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl BerSweepConfig {
    /// Laptop-scale defaults spanning the Fig 4 BER range and beyond.
    pub fn quick() -> Self {
        Self {
            bers: vec![1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1],
            trials: 5,
            epochs: 10,
            seed: 0xBE6,
        }
    }
}

/// Trains a binarized-classifier model on the task and sweeps weight BER on
/// its deployed classifier.
pub fn run(task: Task, cfg: &BerSweepConfig) -> BerSweepResult {
    let setup = TaskSetup::new(task, Scale::Quick, cfg.seed);
    let mut model = setup.build_model(
        BinarizationStrategy::BinarizedClassifier,
        1,
        cfg.seed ^ 0x11,
    );
    let (train_ds, val_ds) = setup.dataset().cv_fold(5, 0);
    let mut opt = Adam::new(0.01);
    let tc = train::TrainConfig {
        epochs: cfg.epochs,
        batch_size: 16,
        seed: cfg.seed,
        eval_every: cfg.epochs,
        verbose: false,
        lr_schedule: None,
    };
    let _ = train::fit(
        &mut model,
        train::Labelled::new(train_ds.samples(), train_ds.labels()),
        None,
        &mut opt,
        &tc,
    );

    let network = export_classifier(&model.classifier).expect("binarized classifier");
    let (features, labels) = classifier_features(&mut model, &val_ds);
    let clean_accuracy = rbnn_graph::accuracy(&network, &features, &labels);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let points = cfg
        .bers
        .iter()
        .map(|&ber| {
            let seed = rng.gen_seed();
            let (mean, std) =
                accuracy_under_ber(&network, &features, &labels, ber, cfg.trials, seed);
            BerPoint { ber, mean, std }
        })
        .collect();
    BerSweepResult {
        task: task.name().into(),
        clean_accuracy,
        points,
        trials: cfg.trials,
    }
}

/// Tiny helper: draws a fresh sub-seed from an RNG.
trait GenSeed {
    fn gen_seed(&mut self) -> u64;
}

impl GenSeed for StdRng {
    fn gen_seed(&mut self) -> u64 {
        use rand::Rng;
        self.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_low_ber_is_harmless() {
        let cfg = BerSweepConfig {
            bers: vec![1e-4, 0.25],
            trials: 3,
            epochs: 5,
            seed: 0xB,
        };
        let result = run(Task::Ecg, &cfg);
        assert_eq!(result.points.len(), 2);
        let low = &result.points[0];
        let high = &result.points[1];
        // 1e-4 BER: with a few hundred classifier synapses, usually zero
        // flips — accuracy within noise of clean.
        assert!(
            (low.mean - result.clean_accuracy).abs() < 0.1,
            "low BER must be harmless: clean {}, got {}",
            result.clean_accuracy,
            low.mean
        );
        // 25% BER must hurt more than 0.01% BER on average.
        assert!(high.mean <= low.mean + 0.05);
        let text = result.to_string();
        assert!(text.contains("BER"));
    }
}
