//! # rbnn-conformance
//!
//! Cross-backend conformance machinery for the RRAM-BNN reproduction.
//!
//! The paper's central systems claim is that *one* trained binarized
//! network survives translation across substrates: float training graph,
//! XNOR/popcount software inference, and 2T2R RRAM sensing with device
//! noise — degrading gracefully (not catastrophically) once bit errors
//! appear. The workspace runs the same model on several substrates; this
//! crate is the net that lets the next hot-path rewrite proceed without
//! fear:
//!
//! * [`generate`](mod@generate) — a seeded random **model generator** producing
//!   paper-family architectures (Dense/Conv1d/Conv2d/BatchNorm/pool stacks
//!   over ECG/EEG/vision-shaped inputs), deliberately biased toward edge
//!   shapes: 1-channel signals, odd lengths, 63/64/65-tap kernels
//!   straddling the `BitMatrix::conv1d_windows` word-gather fast path, and
//!   dense widths straddling the 64-bit word boundary;
//! * [`oracle`] — a **differential oracle** running every generated model
//!   through each execution path — float `rbnn-nn` forward, the
//!   `BinaryNetwork` single-sample oracle, compiled `ExecPlan` replay (in
//!   software and on the RRAM fabric), and single-sample `NetworkEngine`
//!   RRAM sensing — plus the `rbnn-serve`
//!   enqueue/batcher pipeline, asserting bit-level agreement on noise-free
//!   fabric ([`rbnn_rram::EngineConfig::noise_free`]) and margin-model
//!   statistical bounds on noisy fabric
//!   ([`rbnn_rram::NetworkEngine::expected_flips_per_sample`]);
//! * [`campaign`] — a statistical **fault-campaign runner** sweeping
//!   accuracy vs weight bit-error rate (via [`rbnn_rram::faults`]) and
//!   program-verify margin/retry trade-offs (via [`rbnn_rram::verify`]),
//!   with confidence-interval acceptance gates anchored to the paper's
//!   Fig 4 / §II-B bit-error-tolerance claims.
//!
//! The one-command entry point is the `conformance` binary in
//! `rbnn-bench` (`cargo run --release -p rbnn-bench --bin conformance --
//! --quick --strict`), which runs ≥ 25 seeded models through the oracle,
//! runs both campaigns, archives `bench_results/conformance.json`, and
//! exits non-zero under `--strict` when any gate fails — the CI shape that
//! turns every future refactor into a one-command regression check.
//!
//! ```
//! use rbnn_conformance::{generate, oracle};
//!
//! let mut model = generate::generate(0, 0xC0DE);
//! let report = oracle::check_model(&mut model, &oracle::OracleConfig::default());
//! assert!(report.passed(), "{report:?}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod generate;
pub mod oracle;

pub use campaign::{
    ber_sweep, planted_task, run_campaign, BerPoint, CampaignConfig, CampaignReport,
};
pub use generate::{generate, GeneratedModel, ShapeFamily};
pub use oracle::{check_model, NoisyCheck, OracleConfig, OracleReport};
