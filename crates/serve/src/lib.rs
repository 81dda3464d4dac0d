//! # rbnn-serve
//!
//! A batched, multi-engine inference serving runtime for deployed RRAM-BNN
//! classifiers — the system layer that turns the reproduction's
//! single-sample inference paths into the high-throughput, always-on
//! service the paper's medical-monitoring scenario (and the massively
//! parallel Fig 5 substrate) implies.
//!
//! Request lifecycle:
//!
//! 1. a client calls [`ServeHandle::classify`] with a task and feature
//!    vector; the request is validated against the [`ModelRegistry`] and
//!    enqueued on a bounded MPMC queue ([`queue::BoundedQueue`]) — a full
//!    queue *blocks* the caller (backpressure) or, via
//!    [`ServeHandle::try_classify`], sheds the request;
//! 2. a worker pulls a micro-batch through the adaptive [`Batcher`]
//!    (dispatch immediately when the queue is deep, linger briefly for
//!    stragglers when it is not);
//! 3. the worker groups the batch by task and replays its cached compiled
//!    [`rbnn_graph::ExecPlan`] — [`rbnn_graph::ExecPlan::replay_rows`] on
//!    the software backend, [`rbnn_rram::NetworkEngine::replay_plan`] on
//!    the margin-gated RRAM backend (deterministic senses short-circuit,
//!    marginal cells stay Monte-Carlo) — on its own engine replica
//!    (replicas, not shared engines: PCSA reads need `&mut self`);
//! 4. each request's one-shot reply slot delivers a [`Prediction`] (the
//!    worker wakes the client only if it is parked on the slot), and
//!    [`ServerStats`] records end-to-end latency into a log-scaled
//!    histogram (p50/p95/p99), throughput, batch fill and per-replica
//!    array counters.
//!
//! The runtime is *self-healing*: a replica that panics is retired,
//! answered with a retryable [`ServeError::EngineFault`], and respawned
//! by its worker under the [`Supervisor`]'s exponential backoff (crash
//! loops quarantine after a cap). Admission is governed by
//! [`AdmissionPolicy`] — the default *sheds* the newest routine request
//! when the queue is full instead of blocking, and [`Priority::Urgent`]
//! submissions may evict the newest routine entry. Requests carry
//! optional deadlines ([`SubmitOptions`]); expired requests are dropped
//! before dispatch with [`ServeError::DeadlineExceeded`]. Worn RRAM
//! replicas whose marginal-cell fraction crosses
//! [`ServeConfig::degrade_marginal_threshold`] fall back to bit-exact
//! software XNOR of the same network ([`ReplicaHealth::Degraded`]).
//! [`ServeHandle::fleet_health`] reports the whole picture.
//!
//! ```
//! use rbnn_serve::{ModelRegistry, ServeConfig, ServeTask, Server};
//!
//! let registry = ModelRegistry::demo(7);
//! let server = Server::start(&registry, &ServeConfig::default());
//! let handle = server.handle();
//! let prediction = handle
//!     .classify(ServeTask::Ecg, vec![0.5; 2520])
//!     .expect("pool answers");
//! assert!(prediction.class < 2);
//! println!("{}", server.shutdown());
//! ```
//!
//! Long-lived producers (continuous-monitoring sessions, load generators)
//! should bind a [`TaskClient`] once via [`ServeHandle::client`]: the
//! task's registration and feature width are validated at bind time, so
//! each of the session's thousands of submits skips the per-request
//! registry lookup. The `rbnn-stream` router is built on this path.
//!
//! See `crates/bench/src/bin/serve_bench.rs` for the load generator,
//! `examples/serving.rs` for an end-to-end trained-model walkthrough, and
//! `crates/stream` for the continuous-monitoring ingestion layer on top.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batcher;
#[doc(hidden)]
pub mod fault;
pub mod queue;
mod registry;
mod reply;
mod retry;
mod server;
mod stats;
mod supervisor;

pub use batcher::{BatchPolicy, Batcher};
pub use fault::ChaosPlan;
pub use registry::{demo_network, Backend, ModelEntry, ModelRegistry, ServeTask};
pub use retry::RetryPolicy;
pub use server::{
    classify_matrix, AdmissionPolicy, Pending, PendingWindow, Prediction, Priority, ServeConfig,
    ServeError, ServeHandle, Server, SubmitOptions, TaskClient,
};
pub use stats::{EngineSnapshot, ServerStats, StatsSnapshot};
pub use supervisor::{FleetHealth, ReplicaHealth, ReplicaReport, Supervisor, SupervisorPolicy};
