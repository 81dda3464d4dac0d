//! # rbnn-stream
//!
//! Continuous-monitoring streaming ingestion on top of the
//! [`rbnn-serve`](rbnn_serve) runtime — the always-on layer the paper's
//! wearable-medical-device scenario actually implies. ECG/EEG from a
//! monitored patient arrives as an *unbounded signal*, not as the pre-cut
//! windows every batch path consumes; this crate turns that signal into
//! classified, alarm-bearing verdict streams:
//!
//! 1. a [`SignalSource`](rbnn_data::stream::SignalSource) yields
//!    channel-interleaved frames in chunks of arbitrary size (seeded
//!    synthetic ECG/EEG generators live in [`rbnn_data::stream`]);
//! 2. a per-patient [`Session`] cuts the stream into sliding windows
//!    ([`Segmenter`]: configurable window/stride, gaps allowed, correct
//!    tail handling across chunk boundaries) and featurizes each window
//!    exactly like the training pipeline ([`Normalization`],
//!    [`WindowLayout`]);
//! 3. a multi-tenant [`StreamRouter`] fans N concurrent patient sessions
//!    into the serve queue through the zero-copy shared-window API
//!    (one [`rbnn_serve::TaskClient`] bound per task, one `Arc`'d request
//!    per chunk) and returns timestamped per-patient [`Verdict`] streams;
//! 4. a debounced K-of-M [`AlarmState`] machine turns raw verdicts into
//!    the clinically shaped output, and every [`PatientReport`] accounts
//!    windows/s, real-time factor and µJ/window against the RRAM energy
//!    model ([`rbnn_rram::energy`]).
//!
//! The router is loss-free under faults: every submitted window reaches a
//! terminal [`Verdict`] — [`WindowOutcome::Classified`] or a typed
//! [`WindowOutcome::Failed`] once the [`RouterConfig::retry`] budget runs
//! out. Retryable failures (shed admission, engine faults, transient
//! errors) back off with jitter and resubmit; windows of an alarm-active
//! patient ride the urgent queue lane; [`RouterConfig::deadline`] bounds
//! each window's freshness. `stream_bench` (in `rbnn-bench`) drives this
//! whole stack through seeded fault injection and gates zero lost
//! requests at 64 patients.
//!
//! The segmentation layer guarantees **chunk-size invariance**: the
//! window sequence is a pure function of the frame sequence, so streamed
//! classification is bitwise-equal to one-shot offline segmentation of
//! the same signal through the same serve path (gated by `stream_bench
//! --strict` in CI).
//!
//! ```
//! use rbnn_data::stream::{EcgStream, EcgStreamConfig};
//! use rbnn_rram::EngineConfig;
//! use rbnn_serve::{demo_network, ModelRegistry, ServeConfig, ServeTask, Server};
//! use rbnn_stream::{
//!     Normalization, RouterConfig, SegmenterConfig, Session, SessionConfig, StreamRouter,
//!     TailPolicy, WindowLayout,
//! };
//!
//! // A deployed ECG model consuming 12-lead windows of 30 frames.
//! let net = demo_network(&[12 * 30, 16, 2], 7);
//! let mut registry = ModelRegistry::new();
//! registry.insert(ServeTask::Ecg, net, EngineConfig::test_chip(1));
//! let server = Server::start(&registry, &ServeConfig::default());
//!
//! // One monitored patient: synthetic 360 Hz ECG, 30-frame windows.
//! let session = Session::new(SessionConfig {
//!     segmenter: SegmenterConfig { channels: 12, window: 30, stride: 30, tail: TailPolicy::Drop },
//!     layout: WindowLayout::ChannelMajor,
//!     normalization: Normalization::PerWindow,
//! });
//! let source = EcgStream::new(EcgStreamConfig { samples_per_segment: 90, seed: 1, ..Default::default() });
//!
//! let client = server.handle().client(ServeTask::Ecg).unwrap();
//! let mut router = StreamRouter::new(client, RouterConfig {
//!     windows_per_patient: 4,
//!     ..Default::default()
//! });
//! router.add_patient(0, Box::new(source), session);
//! let reports = router.run().unwrap();
//! assert!(reports[0].windows >= 4);
//! assert_eq!(reports[0].verdicts[0].window, 0);
//! server.shutdown();
//! ```
//!
//! `stream_bench` (in `rbnn-bench`) drives ≥ 64 concurrent synthetic
//! patients through this pipeline, gates sustained real-time throughput
//! and p99 window-to-verdict latency, and pins streamed logits
//! bitwise-equal to offline batch classification; see
//! `examples/continuous_monitoring.rs` for a guided tour.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod router;
mod segment;
mod session;

pub use router::{PatientReport, RouterConfig, StreamRouter, Verdict, WindowOutcome};
pub use segment::{Segmenter, SegmenterConfig, TailPolicy, WindowMeta};
pub use session::{
    AlarmConfig, AlarmEvent, AlarmState, Normalization, Session, SessionConfig, Window,
    WindowLayout,
};
