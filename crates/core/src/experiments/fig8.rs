//! Fig 8 (and Table III's vision row): MobileNet with a binarized
//! classifier versus the original real classifier — top-1/top-5 training
//! curves on the vision task.
//!
//! The paper trains MobileNet-224 on ImageNet for 255 GPU-epochs and finds
//! the binarized two-layer classifier matches the real single-layer one
//! (70.6% vs 70% top-1) while full binarization degrades badly (54.4%).
//! Here the same comparison runs on the laptop-scale MobileNet and the
//! 16-class synthetic vision set (`rbnn_data::vision` documents the
//! substitution).

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use rbnn_data::{vision, Dataset};
use rbnn_models::{mobilenet::MobileNetConfig, BinarizationStrategy};
use rbnn_nn::{train, Adam};

/// Training curve of one model variant.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Curve {
    /// Strategy label.
    pub strategy: String,
    /// `(epoch, top-1)` validation series.
    pub top1: Vec<(usize, f32)>,
    /// `(epoch, top-5)` validation series.
    pub top5: Vec<(usize, f32)>,
}

impl Fig8Curve {
    /// Final top-1 accuracy.
    pub fn final_top1(&self) -> f32 {
        self.top1.last().map(|&(_, a)| a).unwrap_or(0.0)
    }

    /// Final top-5 accuracy.
    pub fn final_top5(&self) -> f32 {
        self.top5.last().map(|&(_, a)| a).unwrap_or(0.0)
    }
}

/// The reproduced Fig 8 data.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Result {
    /// One curve per strategy.
    pub curves: Vec<Fig8Curve>,
    /// Epochs trained.
    pub epochs: usize,
    /// Training-set size.
    pub train_samples: usize,
}

impl Fig8Result {
    /// Curve of one strategy, if present.
    pub fn curve_for(&self, label: &str) -> Option<&Fig8Curve> {
        self.curves.iter().find(|c| c.strategy == label)
    }
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig 8 — MobileNet training curves on the vision proxy ({} epochs, {} train images)",
            self.epochs, self.train_samples
        )?;
        for c in &self.curves {
            writeln!(f, "  {}:", c.strategy)?;
            write!(f, "    top-1:")?;
            for (e, a) in &c.top1 {
                write!(f, " ({e}, {:.1}%)", a * 100.0)?;
            }
            writeln!(f)?;
            write!(f, "    top-5:")?;
            for (e, a) in &c.top5 {
                write!(f, " ({e}, {:.1}%)", a * 100.0)?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  final top-1:")?;
        for c in &self.curves {
            writeln!(f, "    {:<16} {:.1}%", c.strategy, c.final_top1() * 100.0)?;
        }
        Ok(())
    }
}

/// Configuration of the Fig 8 run.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Config {
    /// Images per class.
    pub per_class: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Evaluation cadence in epochs.
    pub eval_every: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (the paper uses SGD for MobileNet; Adam converges
    /// in far fewer CPU epochs, and the comparison is between strategies,
    /// not optimizers).
    pub lr: f32,
    /// Which strategies to train.
    pub strategies: Vec<BinarizationStrategy>,
    /// Master seed.
    pub seed: u64,
}

impl Fig8Config {
    /// Laptop-scale defaults: real vs binarized-classifier (the two curves
    /// of Fig 8).
    pub fn quick() -> Self {
        Self {
            per_class: 24,
            epochs: 12,
            eval_every: 2,
            batch_size: 16,
            lr: 0.01,
            strategies: vec![
                BinarizationStrategy::RealWeights,
                BinarizationStrategy::BinarizedClassifier,
            ],
            seed: 0xF168,
        }
    }

    /// Adds the fully-binarized variant (Table III's third vision column).
    pub fn with_fully_binarized(mut self) -> Self {
        self.strategies.push(BinarizationStrategy::FullyBinarized);
        self
    }
}

/// Runs the Fig 8 experiment.
pub fn run(cfg: &Fig8Config) -> Fig8Result {
    let data_cfg = vision::VisionConfig {
        per_class: cfg.per_class,
        seed: cfg.seed,
        ..vision::VisionConfig::reduced()
    };
    let ds = vision::generate(&data_cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ds = ds.shuffled(&mut rng);
    let (train_ds, val_ds): (Dataset, Dataset) = ds.split(0.8);

    let mut curves = Vec::new();
    for &strategy in &cfg.strategies {
        let model_cfg = MobileNetConfig::mini(ds.classes()).with_strategy(strategy);
        let mut model = model_cfg.build(&mut rng);
        let mut opt = Adam::new(cfg.lr);
        let tc = train::TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            seed: cfg.seed,
            eval_every: cfg.eval_every,
            verbose: false,
            lr_schedule: None,
        };
        let hist = train::fit(
            &mut model,
            train::Labelled::new(train_ds.samples(), train_ds.labels()),
            Some(train::Labelled::new(val_ds.samples(), val_ds.labels())),
            &mut opt,
            &tc,
        );
        curves.push(Fig8Curve {
            strategy: strategy.label().into(),
            top1: hist.val_acc.clone(),
            top5: hist.val_top5.clone(),
        });
    }
    Fig8Result {
        curves,
        epochs: cfg.epochs,
        train_samples: train_ds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_run_produces_both_curves() {
        let cfg = Fig8Config {
            per_class: 4,
            epochs: 2,
            eval_every: 1,
            batch_size: 8,
            lr: 0.01,
            strategies: vec![
                BinarizationStrategy::RealWeights,
                BinarizationStrategy::BinarizedClassifier,
            ],
            seed: 1,
        };
        let result = run(&cfg);
        assert_eq!(result.curves.len(), 2);
        for c in &result.curves {
            assert!(!c.top1.is_empty());
            assert!(!c.top5.is_empty(), "16 classes → top-5 tracked");
            // Top-5 dominates top-1 pointwise.
            for ((_, a1), (_, a5)) in c.top1.iter().zip(&c.top5) {
                assert!(a5 >= a1);
            }
        }
        let text = result.to_string();
        assert!(text.contains("Fig 8"));
        assert!(text.contains("top-5"));
        assert!(result.curve_for("Real Weights").is_some());
    }
}
