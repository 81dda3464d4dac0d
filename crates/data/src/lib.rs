//! # rbnn-data
//!
//! Synthetic dataset generators and dataset utilities for the
//! [rram-bnn](https://arxiv.org/abs/2006.11595) reproduction.
//!
//! The paper evaluates on three external datasets that cannot ship with a
//! reproduction repository (PhysioNet motor-imagery EEG, the Challenge-Data
//! ECG electrode-inversion set, and ImageNet). Each is replaced by a
//! physically structured synthetic generator that preserves the *mechanism*
//! the classifier must learn — see the module docs of [`eeg`], [`ecg`] and
//! [`vision`] for the substitution rationale.
//!
//! [`Dataset`] implements the paper's evaluation protocol: per-channel
//! normalization, Gaussian noise augmentation and five-fold
//! cross-validation.
//!
//! ```
//! use rbnn_data::{ecg, Dataset};
//!
//! let cfg = ecg::EcgConfig { trials: 10, ..ecg::EcgConfig::reduced() };
//! let ds = ecg::generate(&cfg);
//! assert_eq!(ds.sample_shape(), vec![12, 250]);
//! let (train, val) = ds.cv_fold(5, 0);
//! assert_eq!(train.len() + val.len(), ds.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dataset;
pub mod ecg;
pub mod eeg;
pub mod signal;
pub mod stream;
pub mod vision;

pub use dataset::Dataset;
