//! # rram-bnn
//!
//! Umbrella crate of the reproduction of *"In-Memory Resistive RAM
//! Implementation of Binarized Neural Networks for Medical Applications"*
//! (Penkovsky et al., DATE 2020, [arXiv:2006.11595]).
//!
//! It wires the workspace's substrates into the paper's two pipelines,
//! plus the serving layer built on top of them:
//!
//! 1. **Algorithm**: synthetic medical datasets ([`rbnn_data`]) → the
//!    paper's networks under three precision strategies ([`rbnn_models`])
//!    → cross-validated training ([`rbnn_nn`]) — Tables I–III, Fig 7,
//!    Fig 8;
//! 2. **Hardware**: trained binarized classifiers → bit-packed
//!    XNOR/popcount form ([`rbnn_binary`]) → simulated 2T2R RRAM arrays
//!    with PCSA sensing ([`rbnn_rram`]) → accuracy under device wear and
//!    bit errors — Fig 4 and the ECC-less operation argument;
//! 3. **Serving**: deployed classifiers registered per task in a
//!    `rbnn_serve::ModelRegistry` → client requests (single samples or
//!    multi-sample windows) flow through a bounded backpressure queue →
//!    the adaptive batcher forms micro-batches under a deadline/size
//!    policy → a pool of worker threads, each owning its own engine
//!    replica (software XNOR/popcount or Monte-Carlo RRAM), replays a
//!    compiled `rbnn-graph` execution plan — fused packed-word kernels,
//!    zero per-request allocation, the workspace's only batched path — →
//!    responses return through per-request channels
//!    while `ServerStats` tracks throughput, p50/p95/p99 latency, queue
//!    depth and per-replica array counters. See `examples/serving.rs` and
//!    `serve_bench` for the end-to-end flow.
//! 4. **Conformance**: the same deployed model runs on four substrates —
//!    float graph, the single-sample XNOR/popcount oracle, compiled
//!    `rbnn-graph` plan replay (software and RRAM-fabric), and the
//!    simulated RRAM engine — and `rbnn-conformance`
//!    keeps them honest: a seeded generator draws paper-family models
//!    (edge shapes included: 1-channel signals, odd lengths, 63/64/65-tap
//!    kernels, word-boundary widths, fused-chain boundary walks), a
//!    differential oracle asserts
//!    bit-for-bit agreement across every binary path and the serving
//!    pipeline on noise-free fabric (margin-model statistical bounds on
//!    noisy fabric), and a fault campaign gates the paper's
//!    bit-error-tolerance anchor. One command:
//!    `cargo run --release -p rbnn-bench --bin conformance -- --quick --strict`.
//! 5. **Streaming**: the always-on layer the paper's wearable scenario
//!    implies — unbounded per-patient ECG/EEG signals
//!    (`rbnn_data::stream::SignalSource` sources) are cut into
//!    training-featurized sliding windows by per-patient `rbnn-stream`
//!    sessions, fanned through the serve queue by a multi-tenant
//!    `StreamRouter` (zero-copy shared-window requests, bounded
//!    per-patient in-flight), and returned as timestamped verdict streams
//!    with debounced K-of-M alarms plus per-session windows/s and
//!    µJ/window accounting against the RRAM energy model. Chunked
//!    ingestion is bitwise-equal to offline batch classification of the
//!    same windows; `stream_bench --quick --strict` gates ≥ 64 concurrent
//!    real-time patients in CI. See `examples/continuous_monitoring.rs`.
//!
//! The [`deploy`] module is the end-to-end chain; [`experiments`] holds one
//! module per table/figure (the README's "Paper experiments" section maps
//! each to its bench binary); [`tasks`]
//! couples datasets with matched architectures at laptop (`Quick`) or
//! paper (`Paper`) scale.
//!
//! ```no_run
//! use rram_bnn::tasks::{Scale, Task, TaskSetup};
//! use rram_bnn::deploy::deploy_and_evaluate;
//! use rbnn_models::BinarizationStrategy;
//! use rbnn_rram::EngineConfig;
//!
//! // Train (elsewhere), then deploy the classifier onto simulated RRAM.
//! let setup = TaskSetup::new(Task::Ecg, Scale::Quick, 0);
//! let mut model = setup.build_model(BinarizationStrategy::BinarizedClassifier, 1, 0);
//! let report = deploy_and_evaluate(
//!     &mut model,
//!     setup.dataset(),
//!     &EngineConfig::test_chip(0),
//!     500_000_000,
//! ).unwrap();
//! println!("hardware accuracy: {:.1}%", report.hardware_accuracy * 100.0);
//! ```
//!
//! [arXiv:2006.11595]: https://arxiv.org/abs/2006.11595

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod deploy;
pub mod experiments;
pub mod tasks;

pub use deploy::{deploy_and_evaluate, DeploymentReport};
pub use tasks::{Scale, Task, TaskSetup};
