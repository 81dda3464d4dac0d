//! The paper's evaluation protocol: repeated k-fold cross-validation
//! (§III-A: "we apply five-fold cross-validation … we report an average
//! over five experiments where we train a new model from scratch").

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use rbnn_models::BinarizationStrategy;
use rbnn_nn::{metrics, train, Adam, Optimizer};

use crate::tasks::TaskSetup;

/// Configuration of one cross-validated training measurement.
#[derive(Debug, Clone, Serialize)]
pub struct CvRunConfig {
    /// Number of folds (the paper uses 5).
    pub folds: usize,
    /// How many folds to actually train (≤ `folds`; quick runs train fewer
    /// folds of the same split to save time).
    pub folds_to_run: usize,
    /// Independent repeats with fresh initialization (the paper uses 5).
    pub repeats: usize,
    /// Training epochs (the paper uses 1000; quick runs use tens — see
    /// README § Scale and substitutions).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gaussian noise augmentation σ applied to each training fold
    /// (the paper's EEG augmentation; 0 disables).
    pub noise_augment: f32,
    /// Master seed.
    pub seed: u64,
}

impl CvRunConfig {
    /// Laptop-scale defaults: 5-fold split, 2 folds trained, 1 repeat.
    pub fn quick() -> Self {
        Self {
            folds: 5,
            folds_to_run: 2,
            repeats: 1,
            epochs: 35,
            batch_size: 32,
            lr: 0.01,
            noise_augment: 0.05,
            seed: 0xC0DE,
        }
    }

    /// The paper's protocol (5×5-fold, long training) — hours of CPU time.
    pub fn paper() -> Self {
        Self {
            folds: 5,
            folds_to_run: 5,
            repeats: 5,
            epochs: 1000,
            batch_size: 32,
            lr: 0.01,
            noise_augment: 0.05,
            seed: 0xC0DE,
        }
    }
}

/// Cross-validated accuracy of one (task, strategy, augmentation) cell.
#[derive(Debug, Clone, Serialize)]
pub struct CvOutcome {
    /// Strategy label.
    pub strategy: String,
    /// Filter augmentation factor.
    pub augmentation: usize,
    /// Per-(repeat, fold) validation accuracies.
    pub accuracies: Vec<f32>,
    /// Mean validation accuracy.
    pub mean: f32,
    /// Sample standard deviation across runs.
    pub std: f32,
}

/// Trains and evaluates one strategy/augmentation cell under repeated
/// k-fold cross-validation.
pub fn cross_validate(
    setup: &TaskSetup,
    strategy: BinarizationStrategy,
    augmentation: usize,
    cfg: &CvRunConfig,
) -> CvOutcome {
    assert!(cfg.folds_to_run >= 1 && cfg.folds_to_run <= cfg.folds);
    let mut accuracies = Vec::new();
    for repeat in 0..cfg.repeats {
        for fold in 0..cfg.folds_to_run {
            let run_seed = cfg
                .seed
                .wrapping_add(repeat as u64 * 1000)
                .wrapping_add(fold as u64);
            let mut rng = StdRng::seed_from_u64(run_seed ^ 0xA5A5);
            let (mut train_ds, val_ds) = setup.dataset().cv_fold(cfg.folds, fold);
            if cfg.noise_augment > 0.0 {
                train_ds.augment_noise(cfg.noise_augment, &mut rng);
            }
            let mut model = setup.build_model(strategy, augmentation, run_seed);
            let mut opt: Box<dyn Optimizer> = Box::new(Adam::new(cfg.lr));
            let tc = train::TrainConfig {
                epochs: cfg.epochs,
                batch_size: cfg.batch_size,
                seed: run_seed,
                eval_every: cfg.epochs, // evaluate only at the end
                verbose: false,
                lr_schedule: None,
            };
            let hist = train::fit(
                &mut model,
                train::Labelled::new(train_ds.samples(), train_ds.labels()),
                Some(train::Labelled::new(val_ds.samples(), val_ds.labels())),
                opt.as_mut(),
                &tc,
            );
            accuracies.push(
                hist.final_val_acc()
                    .expect("validation ran on the last epoch"),
            );
        }
    }
    let (mean, std) = metrics::mean_std(&accuracies);
    CvOutcome {
        strategy: strategy.label().to_string(),
        augmentation,
        accuracies,
        mean,
        std,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{Scale, Task, TaskSetup};

    #[test]
    fn cv_learns_above_chance_quickly() {
        let setup = TaskSetup::new(Task::Ecg, Scale::Quick, 21);
        let mut cfg = CvRunConfig::quick();
        cfg.folds_to_run = 1;
        cfg.epochs = 8;
        let outcome = cross_validate(&setup, BinarizationStrategy::RealWeights, 1, &cfg);
        assert_eq!(outcome.accuracies.len(), 1);
        assert!(
            outcome.mean > 0.6,
            "real-weight ECG should beat chance fast, got {}",
            outcome.mean
        );
    }

    #[test]
    fn outcome_statistics_are_consistent() {
        let setup = TaskSetup::new(Task::Ecg, Scale::Quick, 22);
        let mut cfg = CvRunConfig::quick();
        cfg.folds_to_run = 2;
        cfg.epochs = 3;
        let outcome = cross_validate(&setup, BinarizationStrategy::BinarizedClassifier, 1, &cfg);
        assert_eq!(outcome.accuracies.len(), 2);
        let mean = outcome.accuracies.iter().sum::<f32>() / 2.0;
        assert!((outcome.mean - mean).abs() < 1e-6);
        assert_eq!(outcome.strategy, "Bin Classifier");
    }
}
