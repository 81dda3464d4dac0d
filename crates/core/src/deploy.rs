//! The deployment pipeline: trained model → bit-packed classifier →
//! simulated RRAM arrays → accuracy under device non-idealities.
//!
//! This chains every piece of the reproduction the way the paper's system
//! would be used: the convolutional feature extractor runs in digital logic
//! (real or binarized weights), the dense classifier's ±1 weights are
//! programmed into 2T2R arrays, and inference flows through XNOR-PCSAs and
//! popcount logic ([`rbnn_rram::NetworkEngine`]). Accuracy can then be
//! evaluated on fresh devices, on cycled (worn) devices, or under explicit
//! injected bit-error rates (the ECC-less argument of §II-B).

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbnn_binary::{export_classifier, BinaryNetwork, ExportError};
use rbnn_data::Dataset;
use rbnn_nn::{metrics, train, Phase, SplitModel};
use rbnn_rram::{faults, EngineConfig, NetworkEngine};
use rbnn_tensor::Tensor;

/// Accuracy of one model evaluated along the deployment chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentReport {
    /// Float forward pass of the trained graph (the training-time view).
    pub software_accuracy: f32,
    /// Bit-packed [`BinaryNetwork`] on ideal hardware (input sign-binarized
    /// at the classifier boundary).
    pub exported_accuracy: f32,
    /// Full RRAM simulation on fresh devices.
    pub hardware_accuracy: f32,
    /// Full RRAM simulation after `cycles` of device wear.
    pub worn_accuracy: f32,
    /// Device wear used for `worn_accuracy`.
    pub cycles: u64,
    /// Physical arrays consumed by the mapping.
    pub arrays: usize,
}

/// Extracts the classifier-boundary features of a dataset: runs the feature
/// extractor in eval mode and returns `[N, F]` plus the labels.
pub fn classifier_features(model: &mut SplitModel, data: &Dataset) -> (Tensor, Vec<usize>) {
    let n = data.len();
    let mut feats = Vec::with_capacity(n);
    let mut idx = 0;
    let batch = 16;
    while idx < n {
        let end = (idx + batch).min(n);
        let indices: Vec<usize> = (idx..end).collect();
        let xb = train::gather(data.samples(), &indices);
        let h = model.forward_features(&xb, Phase::Eval);
        for i in 0..h.dim(0) {
            feats.push(h.index_axis0(i));
        }
        idx = end;
    }
    (Tensor::stack(&feats), data.labels().to_vec())
}

/// Deploys a trained model's binarized classifier onto simulated RRAM and
/// evaluates the whole chain on `data`.
///
/// # Errors
///
/// Returns the [`ExportError`] if the classifier is not in deployable
/// (binarized, BatchNorm-folded) form.
pub fn deploy_and_evaluate(
    model: &mut SplitModel,
    data: &Dataset,
    engine_cfg: &EngineConfig,
    worn_cycles: u64,
) -> Result<DeploymentReport, ExportError> {
    // 1. Software reference.
    let logits = train::predict_logits(model, data.samples(), 16);
    let software_accuracy = metrics::accuracy(&logits, data.labels());

    // 2. Export the classifier to the bit-packed engine.
    let network = export_classifier(&model.classifier)?;
    let (features, labels) = classifier_features(model, data);
    let exported_accuracy = rbnn_graph::accuracy(&network, &features, &labels);

    // 3. Program physical arrays and evaluate, fresh and worn.
    let mut engine = NetworkEngine::program(&network, engine_cfg);
    let arrays = engine.array_count();
    let hardware_accuracy = engine.accuracy(&features, &labels);
    engine.set_cycles(worn_cycles);
    let worn_accuracy = engine.accuracy(&features, &labels);

    Ok(DeploymentReport {
        software_accuracy,
        exported_accuracy,
        hardware_accuracy,
        worn_accuracy,
        cycles: worn_cycles,
        arrays,
    })
}

/// Mean and standard deviation of classifier accuracy under i.i.d. weight
/// bit flips at the given BER, over `trials` independent injections.
pub fn accuracy_under_ber(
    network: &BinaryNetwork,
    features: &Tensor,
    labels: &[usize],
    ber: f64,
    trials: usize,
    seed: u64,
) -> (f32, f32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let accs: Vec<f32> = (0..trials)
        .map(|_| {
            let mut corrupted = network.clone();
            faults::inject_network(&mut corrupted, ber, &mut rng);
            rbnn_graph::accuracy(&corrupted, features, labels)
        })
        .collect();
    metrics::mean_std(&accs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{Scale, Task, TaskSetup};
    use rbnn_models::BinarizationStrategy;
    use rbnn_nn::{train::TrainConfig, Adam};

    /// Trains a small binarized-classifier ECG model for pipeline tests.
    fn trained_setup() -> (TaskSetup, SplitModel) {
        let setup = TaskSetup::new(Task::Ecg, Scale::Quick, 11);
        let mut model = setup.build_model(BinarizationStrategy::BinarizedClassifier, 1, 12);
        let ds = setup.dataset();
        let (train_ds, _) = ds.cv_fold(5, 0);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..Default::default()
        };
        let _ = train::fit(
            &mut model,
            train::Labelled::new(train_ds.samples(), train_ds.labels()),
            None,
            &mut opt,
            &cfg,
        );
        (setup, model)
    }

    #[test]
    fn full_pipeline_runs_and_hardware_matches_export() {
        let (setup, mut model) = trained_setup();
        let (_, val) = setup.dataset().cv_fold(5, 0);
        let report =
            deploy_and_evaluate(&mut model, &val, &EngineConfig::test_chip(5), 500_000_000)
                .expect("deployable classifier");
        // Fresh hardware is bit-exact with the exported network up to the
        // (astronomically unlikely at fresh wear) device tail events.
        assert!(
            (report.hardware_accuracy - report.exported_accuracy).abs() < 0.05,
            "{report:?}"
        );
        assert!(report.arrays > 0);
        // Worn accuracy cannot exceed 1 and stays a probability.
        assert!((0.0..=1.0).contains(&report.worn_accuracy));
    }

    #[test]
    fn real_weight_classifier_cannot_deploy() {
        let setup = TaskSetup::new(Task::Ecg, Scale::Quick, 13);
        let mut model = setup.build_model(BinarizationStrategy::RealWeights, 1, 14);
        let err = deploy_and_evaluate(&mut model, setup.dataset(), &EngineConfig::test_chip(6), 0)
            .unwrap_err();
        assert!(matches!(err, ExportError::NotBinarized(_)));
    }

    #[test]
    fn ber_sweep_degrades_monotonically_in_expectation() {
        let (setup, mut model) = trained_setup();
        let (_, val) = setup.dataset().cv_fold(5, 0);
        let network = export_classifier(&model.classifier).expect("export");
        let (features, labels) = classifier_features(&mut model, &val);
        let (clean, _) = accuracy_under_ber(&network, &features, &labels, 0.0, 1, 0);
        let (mid, _) = accuracy_under_ber(&network, &features, &labels, 0.02, 5, 1);
        let (high, _) = accuracy_under_ber(&network, &features, &labels, 0.5, 5, 2);
        // BER 0.5 destroys all information → chance level for 2 classes.
        assert!(
            (high - 0.5).abs() < 0.2,
            "BER 0.5 should be ≈ chance, got {high}"
        );
        // Small BER costs little relative to the clean accuracy.
        assert!(mid >= clean - 0.25, "clean {clean}, mid {mid}");
    }

    #[test]
    fn classifier_features_shape() {
        let (setup, mut model) = trained_setup();
        let (features, labels) = classifier_features(&mut model, setup.dataset());
        assert_eq!(features.dim(0), setup.dataset().len());
        assert_eq!(labels.len(), setup.dataset().len());
        // Width equals the flatten output of the reduced ECG net.
        assert_eq!(features.dim(1), 408);
    }
}
