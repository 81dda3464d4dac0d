//! The serving runtime: request intake, worker pool, dispatch,
//! supervision.
//!
//! A [`Server`] owns a bounded request queue and a pool of worker threads.
//! Each worker holds its *own replica* of every registered model's engine —
//! replication rather than sharing because Monte-Carlo PCSA reads need
//! `&mut self` (each read draws device noise), so a shared engine would
//! serialize the whole pool behind one lock. Workers pull micro-batches
//! through a [`Batcher`](crate::Batcher) into a per-worker request buffer,
//! group them by task through a fixed index over [`ServeTask::ALL`], run
//! the batched kernels, and answer each request through its one-shot reply
//! slot (see [`crate::reply`]): one `Arc` holding a `Mutex`; the worker
//! lets go of it, then unparks the client only when the client is parked
//! on it.
//!
//! Memory stays with the thread that made it. A request lives in its
//! reply slot ([`Job`]) and the queue carries only the slot's worker half.
//! A single-sample request never ships its float row:
//! [`TaskClient::enqueue`] packs the row's sign bits on the submitting
//! thread into the word buffer of that thread's spare slot and frees the
//! row there. A window request ships its shared rows as they are. The
//! worker reuses its batch buffer and plan buffers across batches, gathers
//! each task group straight into the plan's packed input region (copying
//! a single's words, packing a window's rows), reads each job through the
//! slot and never moves or frees it: the client frees it with the slot, or
//! keeps the slot as its thread's spare for the next request. A
//! [`Prediction`] holds its logits inline ([`Logits`]), so a single-sample
//! answer costs the worker no allocation and an n-row window answer costs
//! it exactly one, the `Vec<Prediction>`; the worker frees nothing
//! (`tests/serve_alloc.rs` counts both).
//!
//! Resilience (see also [`crate::supervisor`]): admission is governed by
//! [`AdmissionPolicy`] (load-shed by default, with priority lanes);
//! requests may carry deadlines ([`SubmitOptions`]) and are answered with
//! [`ServeError::DeadlineExceeded`] instead of consuming engine time once
//! expired; a replica that panics mid-batch is retired, then respawned by
//! its owning worker after a supervisor-managed backoff (quarantined if it
//! crash-loops); an RRAM replica whose fabric degrades past the
//! marginal-cell threshold falls back to the bit-exact software path.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rbnn_binary::BinaryNetwork;
use rbnn_graph::{ExecPlan, PlanBuffers};
use rbnn_rram::{EngineConfig, NetworkEngine};
use rbnn_telemetry::{SpanRecord, SpanRing};
use rbnn_tensor::{pack_signs_into, Tensor};

use crate::batcher::{BatchPolicy, Batcher};
use crate::fault::ChaosEvent;
use crate::logits::{Logits, MAX_CLASSES};
use crate::queue::{BoundedQueue, Lane, PushError};
use crate::registry::{Backend, ModelEntry, ModelRegistry, ServeTask};
use crate::reply::{self, Reply, ReplyRx, ReplyTx};
use crate::stats::{ServerStats, StatsSnapshot};
use crate::supervisor::{FleetHealth, Supervisor, SupervisorPolicy};

/// What happens to new work when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Reject-newest load shedding (the default): a full queue answers
    /// the push with [`ServeError::Overloaded`] immediately; an urgent
    /// push may instead evict the newest *routine* queued request (which
    /// is answered with `Overloaded` through its own reply slot). No
    /// producer ever blocks, so an overloaded fleet stays responsive and
    /// stale work is dropped before stale verdicts are served.
    #[default]
    Shed,
    /// Classic backpressure: a full queue blocks the producer until
    /// space frees. Right for closed-loop load generators and batch
    /// pipelines that *want* to be slowed to the pool's rate; wrong for
    /// realtime monitoring, where blocking turns overload into unbounded
    /// staleness.
    Block,
}

/// Request priority, mapped onto the queue's two lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Normal traffic (the default).
    #[default]
    Routine,
    /// Alarm-adjacent / latency-critical work: drained before routine
    /// requests and, under [`AdmissionPolicy::Shed`] overload, may evict
    /// the newest routine request instead of being rejected.
    Urgent,
}

impl Priority {
    fn lane(self) -> Lane {
        match self {
            Priority::Routine => Lane::Routine,
            Priority::Urgent => Lane::Urgent,
        }
    }
}

/// Per-request submission options (priority lane and deadline budget).
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Which queue lane the request enters.
    pub priority: Priority,
    /// Optional end-to-end budget measured from submission: once it
    /// elapses, a worker answers [`ServeError::DeadlineExceeded`] at
    /// dispatch instead of spending engine time on a verdict nobody can
    /// use. `None` (default) never expires.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Routine priority, no deadline — the legacy submit behavior.
    pub fn routine() -> Self {
        Self::default()
    }

    /// Urgent priority with an optional deadline.
    pub fn urgent(deadline: Option<Duration>) -> Self {
        Self {
            priority: Priority::Urgent,
            deadline,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (= engine replicas per model).
    pub workers: usize,
    /// Substrate the pool evaluates on.
    pub backend: Backend,
    /// Batch formation policy.
    pub batch: BatchPolicy,
    /// Request queue capacity (the backpressure/shedding bound).
    pub queue_capacity: usize,
    /// Base seed for per-replica RRAM device sampling.
    pub seed: u64,
    /// Per-worker tile parallelism for RRAM replicas: threads each
    /// worker's engine may fan row tiles across (`0` = auto, all available
    /// cores). Defaults to 1 — the pool already parallelizes across
    /// workers, so intra-engine threads only help when workers ≪ cores or
    /// wear makes individual dispatches slow. Ignored on the software
    /// backend.
    pub engine_threads: usize,
    /// What happens to new work when the queue is full.
    pub admission: AdmissionPolicy,
    /// Respawn/quarantine policy for faulted replicas.
    pub supervisor: SupervisorPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            backend: Backend::Software,
            batch: BatchPolicy::default(),
            queue_capacity: 4096,
            seed: 0x5EED,
            engine_threads: 1,
            admission: AdmissionPolicy::Shed,
            supervisor: SupervisorPolicy::default(),
        }
    }
}

/// A served classification result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Argmax class index.
    pub class: usize,
    /// Raw output logits, held inline.
    pub logits: Logits,
}

impl Prediction {
    /// The prediction one sample's logits make, or `None` when the row is
    /// wider than [`MAX_CLASSES`]. Allocates nothing.
    fn from_row(row: &[f32]) -> Option<Self> {
        Some(Prediction {
            class: rbnn_tensor::argmax(row),
            logits: Logits::new(row)?,
        })
    }
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No model is registered for the task.
    UnknownTask(ServeTask),
    /// The feature vector width does not match the registered model.
    FeatureWidth {
        /// Width the registered model expects.
        expected: usize,
        /// Width the request carried.
        got: usize,
    },
    /// The queue is full and the request was load-shed under
    /// [`AdmissionPolicy::Shed`] — either rejected at admission or evicted
    /// from the queue by an urgent arrival.
    Overloaded,
    /// The server is shutting down.
    ShuttingDown,
    /// The engine replica evaluating this batch panicked. The replica is
    /// retired and respawned by the supervisor after a backoff (or
    /// quarantined if it crash-loops); the worker and every other replica
    /// keep serving, so retrying the request on the same handle is safe.
    EngineFault,
    /// The engine reported a transient, retryable error for this batch;
    /// the replica itself stays healthy. (In production this models I/O
    /// or scheduling hiccups; the chaos harness injects it directly.)
    Transient,
    /// The request's [`deadline`](SubmitOptions::deadline) expired before
    /// engine dispatch; it was dropped without consuming engine time.
    DeadlineExceeded,
    /// The model has more outputs than a [`Prediction`] holds inline; a
    /// hot swap to it is refused.
    TooManyClasses {
        /// Most outputs a served model may have ([`MAX_CLASSES`]).
        max: usize,
        /// Outputs the refused model has.
        got: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTask(t) => write!(f, "no model registered for task {:?}", t),
            ServeError::FeatureWidth { expected, got } => {
                write!(
                    f,
                    "feature width mismatch: model expects {expected}, request has {got}"
                )
            }
            ServeError::Overloaded => write!(f, "request queue full (load shed)"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::EngineFault => {
                write!(f, "engine replica panicked while serving the batch")
            }
            ServeError::Transient => {
                write!(f, "engine reported a transient error for the batch")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline expired before engine dispatch")
            }
            ServeError::TooManyClasses { max, got } => {
                write!(
                    f,
                    "model has {got} outputs, a served model may have at most {max}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One inference request as its client submitted it: one or more samples
/// for one task. It lives in the request's reply slot (see
/// [`crate::reply`]) and is immutable while a worker holds the slot: the
/// worker reads it through the slot's worker half until it answers, and
/// the client frees it with the slot, or keeps the slot as its thread's
/// spare for the next request.
///
/// Multi-sample requests (client-side batching — e.g. a monitor shipping a
/// window of heartbeats) share a single queue slot, reply slot and
/// dispatch, so the whole per-request fixed cost amortizes over the
/// window.
pub(crate) struct Job {
    pub(crate) task: ServeTask,
    /// A single sample's sign bits, `width.div_ceil(64)` words in the
    /// plan's input-row layout, packed on the submitting thread; empty
    /// for a window.
    pub(crate) words: Vec<u64>,
    /// A window request's shared float rows; `None` for a single sample.
    pub(crate) rows: Option<Arc<Vec<Vec<f32>>>>,
    pub(crate) submitted: Instant,
    /// Absolute expiry: a worker answers [`ServeError::DeadlineExceeded`]
    /// at dispatch instead of evaluating past this instant.
    pub(crate) deadline: Option<Instant>,
}

impl Job {
    /// The samples the request asks to classify.
    fn payload(&self) -> Payload<'_> {
        match &self.rows {
            Some(rows) => Payload::Window(rows),
            None => Payload::One(&self.words),
        }
    }

    /// Samples the request carries.
    fn samples(&self) -> usize {
        self.rows.as_ref().map_or(1, |rows| rows.len())
    }
}

/// The samples a request asks to classify, as a worker reads them from its
/// [`Job`]: the sign bits of the one row [`TaskClient::enqueue`] was given,
/// packed on the submitting thread, or the shared window
/// [`TaskClient::submit`] was given, as it is. The worker copies the packed
/// words (or packs the window's rows) into its plan's packed input region;
/// the memory stays the client's.
enum Payload<'a> {
    /// One sample's sign bits.
    One(&'a [u64]),
    /// A shared window of float samples.
    Window(&'a [Vec<f32>]),
}

/// One queued request: the worker half of its reply slot, which holds the
/// request's [`Job`] until the worker answers it in place inside its batch
/// buffer.
struct Request {
    reply: ReplyTx,
    /// When a worker popped this request off the queue — stamped by the
    /// batcher's dequeue observer (only while telemetry is enabled), it
    /// separates queue wait from batching linger in span traces.
    dequeued: Option<Instant>,
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let job = self.reply.job();
        f.debug_struct("Request")
            .field("task", &job.map(|job| job.task))
            .field("samples", &job.map(Job::samples))
            .finish()
    }
}

/// One task's currently-deployed model, versioned so workers can detect a
/// hot swap ([`ServeHandle::swap_model`]) and rebuild their replicas
/// lazily on the next batch they serve for that task.
#[derive(Debug)]
struct ModelSlot {
    version: u64,
    entry: Arc<ModelEntry>,
}

/// State shared between the handle(s) and the workers.
#[derive(Debug)]
struct Shared {
    queue: BoundedQueue<Request>,
    stats: ServerStats,
    /// Sampled request-lifecycle traces (1-in-N completions), for post-hoc
    /// tail decomposition into queue / batch-linger / service phases.
    spans: SpanRing,
    /// Feature widths are fixed at start: a hot swap must preserve the
    /// registered width (enforced by [`Shared::swap_model`]), so clients'
    /// cached widths ([`TaskClient`]) stay valid across swaps.
    widths: BTreeMap<ServeTask, usize>,
    /// Current model per task, bumped by [`Shared::swap_model`]. Workers
    /// compare versions before serving and adopt the new entry lazily.
    models: RwLock<BTreeMap<ServeTask, ModelSlot>>,
    supervisor: Supervisor,
    admission: AdmissionPolicy,
}

impl Shared {
    /// The current model (and its version) deployed for `task`.
    fn model_of(&self, task: ServeTask) -> Option<(u64, Arc<ModelEntry>)> {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        models
            .get(&task)
            .map(|slot| (slot.version, Arc::clone(&slot.entry)))
    }

    /// Replaces the deployed model for `task`, returning the new version.
    /// The replacement must keep the registered feature width — clients
    /// cache widths at bind time, so a width change would silently break
    /// them; deploy a width-changing model as a new server instead.
    fn swap_model(&self, task: ServeTask, entry: ModelEntry) -> Result<u64, ServeError> {
        let expected = *self
            .widths
            .get(&task)
            .ok_or(ServeError::UnknownTask(task))?;
        let got = entry.network.in_features();
        if got != expected {
            return Err(ServeError::FeatureWidth { expected, got });
        }
        check_classes(&entry.network)?;
        let mut models = self.models.write().unwrap_or_else(PoisonError::into_inner);
        let slot = models.get_mut(&task).ok_or(ServeError::UnknownTask(task))?;
        slot.version += 1;
        slot.entry = Arc::new(entry);
        Ok(slot.version)
    }

    /// The one enqueue path every client API funnels through, once the
    /// client has checked the samples' width: moves the request (a
    /// single's packed `words`, or a window's `rows`) into a reply slot —
    /// this thread's spare if it has one — stamping its submission and
    /// deadline, then pushes onto the request's priority lane. Under
    /// [`AdmissionPolicy::Shed`] a full queue answers
    /// [`ServeError::Overloaded`], and an urgent push may evict the newest
    /// queued routine request (whose own reply slot receives `Overloaded`:
    /// every accepted enqueue still reaches a terminal verdict or typed
    /// error); under [`AdmissionPolicy::Block`] a full queue blocks the
    /// producer (backpressure).
    fn submit(
        &self,
        task: ServeTask,
        words: Vec<u64>,
        rows: Option<Arc<Vec<Vec<f32>>>>,
        opts: &SubmitOptions,
    ) -> Result<ReplyRx, ServeError> {
        let now = Instant::now();
        let (tx, rx) = reply::slot(Job {
            task,
            words,
            rows,
            submitted: now,
            deadline: opts.deadline.map(|d| now + d),
        });
        let request = Request {
            reply: tx,
            dequeued: None,
        };
        let lane = opts.priority.lane();
        let outcome = match self.admission {
            AdmissionPolicy::Shed => self.queue.push_shed(request, lane),
            AdmissionPolicy::Block => self.queue.push_lane(request, lane).map(|()| None),
        };
        match outcome {
            Ok(evicted) => {
                if let Some(mut victim) = evicted {
                    self.stats.record_evicted();
                    victim.reply.fail(ServeError::Overloaded);
                }
                self.stats.record_submitted();
                Ok(rx)
            }
            Err(PushError::Full) => {
                self.stats.record_rejected();
                Err(ServeError::Overloaded)
            }
            Err(PushError::Closed) => Err(ServeError::ShuttingDown),
        }
    }
}

/// Cloneable synchronous client of a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Classifies one feature vector, blocking until the pool answers —
    /// [`TaskClient::classify`] on a client bound for this one call. A
    /// full queue sheds or blocks according to the server's
    /// [`AdmissionPolicy`].
    pub fn classify(&self, task: ServeTask, features: Vec<f32>) -> Result<Prediction, ServeError> {
        self.client(task)?.classify(features)
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Point-in-time fleet health: per-replica status (healthy / down /
    /// quarantined / degraded), fault and respawn counts, worker
    /// heartbeat ages.
    pub fn fleet_health(&self) -> FleetHealth {
        self.shared.supervisor.fleet_health()
    }

    /// Point-in-time server statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(self.shared.queue.len())
    }

    /// Sampled request-lifecycle traces (1-in-16 completions), each
    /// decomposing one request into queue-wait / batch-linger / service
    /// phases. Empty while telemetry is disabled.
    pub fn span_samples(&self) -> Vec<SpanRecord> {
        self.shared.spans.samples()
    }

    /// Binds this handle to one task, validating the registration **once**:
    /// the returned [`TaskClient`] submits without any per-request registry
    /// lookup — the session-friendly enqueue path for long-lived producers
    /// (a continuous-monitoring session submits thousands of windows for
    /// the same model; re-resolving the task each time is pure overhead,
    /// and the pre-client alternative of re-`insert`ing models or passing
    /// the task per call assumed one-shot matrices).
    pub fn client(&self, task: ServeTask) -> Result<TaskClient, ServeError> {
        let width = *self
            .shared
            .widths
            .get(&task)
            .ok_or(ServeError::UnknownTask(task))?;
        Ok(TaskClient {
            shared: Arc::clone(&self.shared),
            task,
            width,
        })
    }

    /// Hot-swaps the model deployed for `task` without restarting the
    /// pool, returning the new model version. Workers notice the version
    /// bump on the next batch they serve for the task and rebuild their
    /// replica (engine and compiled execution plan) from the new entry
    /// before evaluating — a request is always answered by exactly one
    /// model, never a blend, and a cached [`ExecPlan`] compiled for the
    /// old model is invalidated atomically with the engine.
    ///
    /// The replacement must keep the registered feature width
    /// ([`ServeError::FeatureWidth`] otherwise): clients cache widths at
    /// bind time, so the swap contract is width-stable by design. It may
    /// have at most [`MAX_CLASSES`] outputs
    /// ([`ServeError::TooManyClasses`] otherwise).
    pub fn swap_model(&self, task: ServeTask, entry: ModelEntry) -> Result<u64, ServeError> {
        self.shared.swap_model(task, entry)
    }
}

/// A [`ServeHandle`] pre-bound to one task (from [`ServeHandle::client`]).
///
/// The task's registration and feature width are resolved at construction,
/// so every submit skips the registry lookup — the natural client shape
/// for per-session producers like `rbnn-stream`, which submit an unbounded
/// sequence of windows against one model. Clone freely; clones share the
/// same server.
#[derive(Debug, Clone)]
pub struct TaskClient {
    shared: Arc<Shared>,
    task: ServeTask,
    width: usize,
}

impl TaskClient {
    /// The bound task.
    pub fn task(&self) -> ServeTask {
        self.task
    }

    /// Feature width the bound model expects.
    pub fn in_features(&self) -> usize {
        self.width
    }

    /// Enqueues a request of one or more samples and returns immediately
    /// with a [`PendingWindow`] ticket — the one submit primitive every
    /// other entry point wraps. All samples share one queue slot, one
    /// dispatch and one reply, so the per-request fixed cost amortizes
    /// across the window; the rows are shared, not copied, so a producer
    /// can keep one buffer alive across many requests. `opts` picks the
    /// priority lane and deadline (the stream router submits
    /// alarm-adjacent windows urgent, each with a deadline).
    ///
    /// Fails fast, queuing nothing, with [`ServeError::FeatureWidth`] if
    /// any sample has the wrong width, [`ServeError::Overloaded`] if the
    /// queue sheds it, or [`ServeError::ShuttingDown`] once the server
    /// stops.
    pub fn submit(
        &self,
        rows: Arc<Vec<Vec<f32>>>,
        opts: &SubmitOptions,
    ) -> Result<PendingWindow, ServeError> {
        for row in rows.iter() {
            self.check_width(row)?;
        }
        let rx = self
            .shared
            .submit(self.task, Vec::new(), Some(rows), opts)?;
        Ok(PendingWindow { rx })
    }

    /// Enqueues one sample with default options and returns a [`Pending`]
    /// ticket — the pipelined client path: keeping a window of outstanding
    /// requests in flight is what lets the pool form deep batches (a
    /// strictly synchronous caller never queues more than one).
    ///
    /// The float row never leaves this thread: after the width check it is
    /// packed into its sign bits here, with the kernel the plan's
    /// [`Step::Pack`](rbnn_graph::Step::Pack) uses, and dropped. Only the
    /// `width.div_ceil(64)` packed words (56 bytes for a 408-wide model)
    /// reach the worker, read in place from the reply slot. They are
    /// packed into the word buffer of this thread's spare slot — the last
    /// it collected — so a thread that collects an answer before each new
    /// request allocates neither a slot nor a packed row.
    ///
    /// Fails fast, queuing nothing, with [`ServeError::FeatureWidth`],
    /// [`ServeError::Overloaded`] or [`ServeError::ShuttingDown`] as
    /// [`submit`](Self::submit) does.
    pub fn enqueue(&self, features: Vec<f32>) -> Result<Pending, ServeError> {
        self.check_width(&features)?;
        let mut words = reply::spare_words();
        words.resize(self.width.div_ceil(64), 0);
        pack_signs_into(&features, &mut words);
        drop(features);
        let rx = self
            .shared
            .submit(self.task, words, None, &SubmitOptions::default())?;
        Ok(Pending { rx })
    }

    /// Refuses a sample whose width is not the bound model's.
    fn check_width(&self, row: &[f32]) -> Result<(), ServeError> {
        if row.len() != self.width {
            return Err(ServeError::FeatureWidth {
                expected: self.width,
                got: row.len(),
            });
        }
        Ok(())
    }

    /// [`submit`](Self::submit) with default options: a zero-copy
    /// multi-sample request.
    pub fn enqueue_shared(&self, rows: Arc<Vec<Vec<f32>>>) -> Result<PendingWindow, ServeError> {
        self.submit(rows, &SubmitOptions::default())
    }

    /// Classifies one feature vector, blocking until the pool answers.
    pub fn classify(&self, features: Vec<f32>) -> Result<Prediction, ServeError> {
        self.enqueue(features)?.wait()
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Point-in-time server statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(self.shared.queue.len())
    }
}

/// A not-yet-answered single-sample request (from
/// [`TaskClient::enqueue`]).
#[derive(Debug)]
pub struct Pending {
    rx: ReplyRx,
}

impl Pending {
    /// Blocks until the pool answers. The worker writes the prediction,
    /// logits inline, into the reply slot, so collecting it allocates
    /// nothing.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.wait().and_then(Reply::single)
    }

    /// Returns the answer if it has already arrived.
    pub fn poll(&self) -> Option<Result<Prediction, ServeError>> {
        self.rx.poll().map(|answer| answer.and_then(Reply::single))
    }
}

/// A not-yet-answered request of one or more samples (from
/// [`TaskClient::submit`] or [`TaskClient::enqueue_shared`]).
#[derive(Debug)]
pub struct PendingWindow {
    rx: ReplyRx,
}

impl PendingWindow {
    /// Blocks until the pool answers with one prediction per sample.
    pub fn wait(self) -> Result<Vec<Prediction>, ServeError> {
        self.rx.wait().and_then(Reply::window)
    }

    /// Returns the answer if it has already arrived — the non-blocking
    /// probe that lets one producer thread multiplex many in-flight
    /// windows (e.g. a stream router draining whichever patient's verdict
    /// lands first).
    pub fn poll(&self) -> Option<Result<Vec<Prediction>, ServeError>> {
        self.rx.poll().map(|answer| answer.and_then(Reply::window))
    }
}

/// One worker's engine replica for one task.
enum WorkerEngine {
    /// Bit-exact software XNOR/popcount evaluation (the replica's cached
    /// plan replays on the CPU; no per-replica state).
    Software,
    /// Monte-Carlo RRAM simulation (owned mutably per worker).
    Rram(NetworkEngine),
}

impl WorkerEngine {
    /// Fast-forwards device wear and runs one weight-refresh cycle on the
    /// worn fabric (chaos drift injection): the refresh re-realizes every
    /// resistance from the worn distributions, which is what actually
    /// pushes cells into the marginal band. No-op on the software backend
    /// — there is no fabric to age.
    fn age(&mut self, cycles: u64) {
        if let WorkerEngine::Rram(engine) = self {
            engine.set_cycles(cycles);
            engine.refresh();
        }
    }

    /// Fraction of cells whose programmed window has collapsed into the
    /// marginal band, or `None` on the software backend.
    fn marginal_fraction(&self) -> Option<f64> {
        match self {
            WorkerEngine::Software => None,
            WorkerEngine::Rram(engine) => {
                let cells = engine.cell_count();
                if cells == 0 {
                    return None;
                }
                Some(engine.marginal_cells() as f64 / cells as f64)
            }
        }
    }
}

/// Everything needed to (re)build one worker's engine replica for one
/// task. Retained for the lifetime of the worker so the supervisor can
/// respawn a retired replica: a rebuild from the spec reprograms a
/// *fresh* fabric (same network, same per-replica seed), which is
/// exactly the recovery model of swapping in a spare die.
struct ReplicaSpec {
    network: BinaryNetwork,
    backend: Backend,
    engine_config: EngineConfig,
    engine_threads: usize,
    /// Per-worker device-seed salt, retained so a hot-swapped model's
    /// engine seed is derived exactly as at [`Server::start`]:
    /// `entry_seed + salt` (wrapping).
    seed_salt: u64,
}

impl ReplicaSpec {
    /// Builds (or rebuilds) the engine this spec describes.
    fn build(&self) -> WorkerEngine {
        match self.backend {
            Backend::Software => WorkerEngine::Software,
            Backend::Rram => {
                let mut engine = NetworkEngine::program(&self.network, &self.engine_config);
                engine.set_parallelism(self.engine_threads);
                WorkerEngine::Rram(engine)
            }
        }
    }

    /// Re-targets this spec at a hot-swapped model entry, re-salting the
    /// device seed with the retained per-worker salt.
    fn retarget(&mut self, entry: &ModelEntry) {
        self.network = entry.network.clone();
        let mut engine_config = entry.engine_config.clone();
        engine_config.seed = engine_config.seed.wrapping_add(self.seed_salt);
        self.engine_config = engine_config;
    }
}

/// A compiled execution plan plus its replay buffers, cached per replica.
///
/// Compiled once per `(model, batch capacity)` pair and replayed for every
/// subsequent batch: the replay path performs no planning and no buffer
/// allocation (the arena and logits storage live here). Invalidated only
/// by a model swap ([`adopt_model`]) or a batch larger than
/// `plan.max_batch()` — respawns and degrade fallbacks reuse it, since the
/// network is unchanged.
struct PlanState {
    plan: ExecPlan,
    buffers: PlanBuffers,
    logits: Vec<f32>,
}

impl PlanState {
    /// Compiles a plan for `network` sized to serve batches up to
    /// `capacity` rows.
    fn compile(network: &BinaryNetwork, capacity: usize) -> Self {
        let plan = ExecPlan::compile(network, capacity);
        let buffers = plan.buffers();
        let logits = vec![0.0; capacity * plan.out_features()];
        PlanState {
            plan,
            buffers,
            logits,
        }
    }

    /// Gathers `task`'s pending requests in `batch`, in order, straight
    /// into the plan's packed input region: a single sample's words are
    /// copied as the client packed them, a window's float rows are packed
    /// here with the kernel [`Step::Pack`](rbnn_graph::Step::Pack) uses.
    /// Either way the fused steps read one representation, and nothing is
    /// allocated.
    fn gather(&mut self, batch: &[Request], task: ServeTask) {
        let input = self.plan.input();
        let arena = self.buffers.arena_mut();
        let mut i = 0;
        for job in group(batch, task) {
            match job.payload() {
                Payload::One(words) => {
                    input.row_mut(arena, i).copy_from_slice(words);
                    i += 1;
                }
                Payload::Window(rows) => {
                    for row in rows.iter() {
                        pack_signs_into(row, input.row_mut(arena, i));
                        i += 1;
                    }
                }
            }
        }
    }

    /// Replays the cached plan's fused steps over the first `n` gathered
    /// rows on `engine`, returning the batch's logits (row-major,
    /// `n × out_features`, a view of the plan's own logits buffer) and the
    /// PCSA senses consumed (zero in software).
    fn replay(&mut self, engine: &mut WorkerEngine, n: usize) -> (&[f32], u64) {
        let classes = self.plan.out_features();
        let out = &mut self.logits[..n * classes];
        let senses = match engine {
            WorkerEngine::Software => {
                self.plan.replay_packed(n, &mut self.buffers, out);
                0
            }
            WorkerEngine::Rram(e) => {
                let before = e.stats().senses;
                e.replay_packed(&self.plan, n, &mut self.buffers, out);
                e.stats().senses - before
            }
        };
        (out, senses)
    }
}

/// One worker's replica slot: the rebuild recipe plus the live engine
/// (`None` while the replica is down or quarantined).
struct Replica {
    spec: ReplicaSpec,
    engine: Option<WorkerEngine>,
    /// Version of the deployed model this replica was built from; compared
    /// against the shared [`ModelSlot`] before each batch so a hot swap is
    /// adopted before any request is evaluated against stale weights.
    version: u64,
    /// Cached execution plan every dispatch replays, compiled lazily on
    /// first use and invalidated on model swap.
    plan: Option<PlanState>,
    /// Set by a respawn, cleared by the first successful batch — the
    /// signal to tell the supervisor the replica is stable again.
    fresh_respawn: bool,
}

/// One worker's replicas in [`ServeTask::ALL`] order; `None` for a task
/// the registry does not serve.
type Replicas = [Option<Replica>; ServeTask::ALL.len()];

/// A running serving runtime. Dropping the server shuts it down and joins
/// the pool.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the pool: replicates every registered model's engine per
    /// worker (RRAM replicas get distinct device seeds — independent
    /// fabricated chips, not clones of one die) and begins serving.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0`, the registry is empty, a
    /// registered model has more than [`MAX_CLASSES`] outputs, or
    /// `config.batch.max_batch == 0` (via [`Batcher::new`]).
    pub fn start(registry: &ModelRegistry, config: &ServeConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(!registry.is_empty(), "cannot serve an empty registry");
        for task in registry.tasks() {
            let entry = registry.get(task).expect("registered");
            if let Err(refused) = check_classes(&entry.network) {
                panic!("cannot serve {}: {refused}", task.name());
            }
        }
        let widths: BTreeMap<ServeTask, usize> = registry
            .tasks()
            .map(|t| (t, registry.in_features(t).expect("registered")))
            .collect();
        let tasks: Vec<ServeTask> = registry.tasks().collect();
        let models: BTreeMap<ServeTask, ModelSlot> = registry
            .tasks()
            .map(|task| {
                let entry = registry.get(task).expect("registered").clone();
                (
                    task,
                    ModelSlot {
                        version: 0,
                        entry: Arc::new(entry),
                    },
                )
            })
            .collect();
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            stats: ServerStats::new(config.workers),
            spans: SpanRing::new(SPAN_RING_CAPACITY),
            widths,
            models: RwLock::new(models),
            supervisor: Supervisor::new(config.supervisor.clone(), config.workers, &tasks),
            admission: config.admission,
        });

        let workers = (0..config.workers)
            .map(|worker_idx| {
                let shared = Arc::clone(&shared);
                let mut replicas: Replicas = ServeTask::ALL.map(|task| {
                    let entry = registry.get(task)?;
                    let mut engine_config = entry.engine_config.clone();
                    // Distinct device seed per worker: replicas are
                    // independently fabricated chips, not clones of one
                    // die — and a respawn programs yet another fresh
                    // fabric from the same recipe.
                    let seed_salt = config.seed.wrapping_add(worker_idx as u64 * 0x9E37_79B9);
                    engine_config.seed = engine_config.seed.wrapping_add(seed_salt);
                    let spec = ReplicaSpec {
                        network: entry.network.clone(),
                        backend: config.backend,
                        engine_config,
                        engine_threads: config.engine_threads,
                        seed_salt,
                    };
                    let engine = Some(spec.build());
                    Some(Replica {
                        spec,
                        engine,
                        version: 0,
                        plan: None,
                        fresh_respawn: false,
                    })
                });
                let mut batcher = Batcher::new(config.batch.clone());
                std::thread::Builder::new()
                    .name(format!("rbnn-serve-{worker_idx}"))
                    .spawn(move || worker_loop(&shared, worker_idx, &mut replicas, &mut batcher))
                    .expect("spawn worker")
            })
            .collect();

        Self { shared, workers }
    }

    /// A new client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Hot-swaps the model deployed for `task` (see
    /// [`ServeHandle::swap_model`]).
    pub fn swap_model(&self, task: ServeTask, entry: ModelEntry) -> Result<u64, ServeError> {
        self.shared.swap_model(task, entry)
    }

    /// Point-in-time server statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(self.shared.queue.len())
    }

    /// Sampled request-lifecycle traces (see
    /// [`ServeHandle::span_samples`]).
    pub fn span_samples(&self) -> Vec<SpanRecord> {
        self.shared.spans.samples()
    }

    /// Point-in-time fleet health (see [`ServeHandle::fleet_health`]).
    pub fn fleet_health(&self) -> FleetHealth {
        self.shared.supervisor.fleet_health()
    }

    /// Stops intake, drains queued requests, and joins the pool.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_in_place();
        self.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Span-ring capacity: enough retained samples to characterize a tail
/// (at 1-in-16 sampling this covers the last ~8k completions) while the
/// ring itself stays a few KiB.
const SPAN_RING_CAPACITY: usize = 512;

/// One request lifecycle in every `SPAN_SAMPLE_EVERY` completions is
/// retained as a full [`SpanRecord`]. Sampling keys off the completion
/// ordinal, so the very first request is always captured (short tests and
/// demos see at least one trace).
const SPAN_SAMPLE_EVERY: u64 = 16;

/// How long an idle worker waits for traffic before coming back around to
/// heartbeat the supervisor and respawn due replicas. Short enough that a
/// respawn whose backoff has elapsed is picked up promptly, long enough to
/// stay invisible in CPU profiles of an idle pool.
const WORKER_TICK: Duration = Duration::from_millis(25);

/// One worker's serve loop: pull micro-batches until the queue closes,
/// ticking every [`WORKER_TICK`] even when idle so supervision (heartbeat,
/// backoff-elapsed respawns) keeps running without traffic.
///
/// The batch buffer lives here and is reused for every batch, so forming
/// a batch allocates nothing in steady state (gathering writes into the
/// replica's plan buffers).
///
/// This is a panic-freedom zone (see `analysis.toml`): a dying worker
/// silently shrinks the pool, so nothing in the loop body may unwind —
/// engine panics are contained inside [`serve_batch`].
fn worker_loop(shared: &Shared, worker_idx: usize, replicas: &mut Replicas, batcher: &mut Batcher) {
    let max_batch = batcher.policy().max_batch;
    let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
    loop {
        shared.supervisor.heartbeat(worker_idx);
        respawn_due_replicas(shared, worker_idx, replicas);
        // Stamp each chunk as it leaves the queue (one clock read per
        // pop, not per request) so span traces can split queue wait from
        // the linger.
        let open = batcher.next_batch_within(&shared.queue, WORKER_TICK, &mut batch, |chunk| {
            if rbnn_telemetry::enabled() {
                let now = Instant::now();
                for request in chunk.iter_mut() {
                    request.dequeued = Some(now);
                }
            }
        });
        if !open {
            break;
        }
        if !batch.is_empty() {
            serve_batch(shared, worker_idx, replicas, &mut batch);
            // Every request is answered by now, so clearing drops only
            // worker halves that have let go of their slots.
            batch.clear();
        }
    }
}

/// Rebuilds every replica of this worker whose respawn backoff has
/// elapsed. Only the owning worker thread touches its engines, so
/// recovery needs no cross-thread engine handoff: the supervisor decides
/// *when*, the worker performs the rebuild.
fn respawn_due_replicas(shared: &Shared, worker_idx: usize, replicas: &mut Replicas) {
    for (task, replica) in ServeTask::ALL.into_iter().zip(replicas.iter_mut()) {
        let Some(replica) = replica else { continue };
        if replica.engine.is_none() && shared.supervisor.respawn_due(worker_idx, task) {
            try_respawn(shared, worker_idx, task, replica);
        }
    }
}

/// One respawn attempt: rebuild the engine from the retained spec. A
/// rebuild that itself panics (e.g. chaos armed during programming)
/// counts as another fault and pushes the backoff further out.
fn try_respawn(shared: &Shared, worker_idx: usize, task: ServeTask, replica: &mut Replica) {
    let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replica.spec.build()));
    match rebuilt {
        Ok(engine) => {
            replica.engine = Some(engine);
            replica.fresh_respawn = true;
            shared.supervisor.respawned(worker_idx, task);
        }
        Err(_) => {
            shared.supervisor.record_fault(worker_idx, task);
        }
    }
}

/// Whether `request` belongs to `task`'s group and is still unanswered
/// (expired and failed requests are answered in place, which lets go of
/// their jobs).
fn pending_for(request: &Request, task: ServeTask) -> bool {
    request.reply.job().is_some_and(|job| job.task == task)
}

/// The jobs of `task`'s still-unanswered requests in `batch`, in order.
fn group(batch: &[Request], task: ServeTask) -> impl Iterator<Item = &Job> {
    batch
        .iter()
        .filter_map(|request| request.reply.job())
        .filter(move |job| job.task == task)
}

/// Refuses a model whose outputs do not fit a [`Prediction`]'s inline
/// [`Logits`].
fn check_classes(network: &BinaryNetwork) -> Result<(), ServeError> {
    let got = network.out_features();
    if got > MAX_CLASSES {
        return Err(ServeError::TooManyClasses {
            max: MAX_CLASSES,
            got,
        });
    }
    Ok(())
}

/// Runs one micro-batch in place: answer expired requests, then walk
/// [`ServeTask::ALL`] and serve each task's pending requests as one group
/// (a single-task batch is one group, with no regrouping), evaluate each
/// group batched, and answer each survivor with one prediction per sample.
///
/// A panicking engine replica degrades only its own task group: the
/// unwind is caught, every request in the group is answered with
/// [`ServeError::EngineFault`], and the replica is retired from this
/// worker (its interior state may be inconsistent mid-unwind) — the
/// supervisor schedules its respawn. The worker thread itself — and every
/// other replica it holds — keeps serving.
///
/// Zero-alloc zone (see `analysis.toml`): a single-sample answer is one
/// [`Prediction`], logits inline, moved into the reply slot; each job (a
/// packed row, or a window) is read where it lies in its slot and stays
/// there for the client; the only allocation is a window's prediction
/// list, built by [`window_predictions`].
fn serve_batch(shared: &Shared, worker_idx: usize, replicas: &mut Replicas, batch: &mut [Request]) {
    let now = Instant::now();
    for request in batch.iter_mut() {
        // Deadline check happens *before* the engine sees the request: an
        // expired answer is useless to the caller, so spending senses on
        // it would only add latency to everything queued behind it.
        let expired = request.reply.job().and_then(|job| job.deadline);
        if expired.is_some_and(|d| now >= d) {
            shared.stats.record_expired();
            request.reply.fail(ServeError::DeadlineExceeded);
        }
    }
    // Only groups that returned logits count as inferred: failed groups
    // and expired requests never reach the engine's batch statistics.
    let mut senses_total = 0u64;
    let mut samples_total = 0usize;
    for (task, replica) in ServeTask::ALL.into_iter().zip(replicas.iter_mut()) {
        if group(batch, task).next().is_none() {
            continue;
        }
        // Submit validated the task, so a miss here means the replica
        // table is inconsistent — fail the group, keep the worker.
        let Some(replica) = replica else {
            fail_group(batch, task, ServeError::EngineFault);
            continue;
        };
        // A hot-swapped model is adopted *before* the respawn check and
        // the evaluation: no request is ever answered by a stale model or
        // a stale execution plan.
        adopt_model(shared, worker_idx, task, replica);
        // A retired replica whose backoff has elapsed respawns lazily on
        // first demand, so a fault under sustained traffic recovers
        // without waiting for an idle tick.
        if replica.engine.is_none() && shared.supervisor.respawn_due(worker_idx, task) {
            try_respawn(shared, worker_idx, task, replica);
        }
        let Some(engine) = replica.engine.as_mut() else {
            // Still down or quarantined: the group fails fast with a
            // retryable error and the client's backoff takes it to
            // another worker (or a later attempt).
            fail_group(batch, task, ServeError::EngineFault);
            continue;
        };
        // Disjoint field borrows: the closure needs the engine, the plan
        // cache and the network recipe at once.
        let plan = &mut replica.plan;
        let network = &replica.spec.network;
        let classes = network.out_features();
        let samples = group(batch, task).map(Job::samples).sum();
        // Dispatch stamp: the batch is formed and this task group is
        // handed to the engine. Everything before is queue wait (+linger),
        // everything after is service.
        let dispatched = Instant::now();
        let in_batch: &[Request] = batch;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            // Moved, not reborrowed, so the logits can outlive the closure.
            let plan = plan;
            match crate::fault::next_event() {
                Some(ChaosEvent::Panic) => crate::fault::injected_panic(),
                Some(ChaosEvent::Stall(pause)) => std::thread::sleep(pause),
                Some(ChaosEvent::Transient) => return Err(()),
                Some(ChaosEvent::Drift { cycles }) => engine.age(cycles),
                None => {}
            }
            Ok(dispatch_rows(
                engine, network, plan, in_batch, task, samples,
            ))
        }));
        // Answer stamp: the group's replay returned. This one clock read
        // ends every request's latency and the group's service time.
        let answered = Instant::now();
        let (logits, senses) = match outcome {
            Ok(Ok(result)) => result,
            Ok(Err(())) => {
                // Transient engine error: the replica stays up, the group
                // is answered with a retryable error.
                shared.stats.record_transient();
                fail_group(batch, task, ServeError::Transient);
                continue;
            }
            Err(_) => {
                replica.engine = None;
                shared.supervisor.record_fault(worker_idx, task);
                fail_group(batch, task, ServeError::EngineFault);
                continue;
            }
        };
        if replica.fresh_respawn {
            replica.fresh_respawn = false;
            shared.supervisor.mark_stable(worker_idx, task);
        }
        maybe_degrade(shared, worker_idx, task, &mut replica.engine);
        samples_total += samples;
        senses_total += senses;
        // The group is accounted once: its completions count now, so the
        // span sampler knows each request's ordinal; each answer counts
        // its times in their buckets, and the group's sums and service
        // time land after the last answer.
        let requests = group(batch, task).count();
        let mut tally = shared
            .stats
            .record_group(requests as u64, dispatched, answered);
        let service = answered.saturating_duration_since(dispatched);
        let mut offset = 0usize;
        let pending = batch.iter_mut().filter(|r| pending_for(r, task));
        for (ordinal, request) in (tally.first()..).zip(pending) {
            let Some(job) = request.reply.job() else {
                continue;
            };
            let (n, submitted) = (job.samples(), job.submitted);
            let out = logits
                .get(offset * classes..(offset + n) * classes)
                .unwrap_or_default();
            offset += n;
            let reply = match job.payload() {
                Payload::One(_) => Prediction::from_row(out).map(Reply::One),
                Payload::Window(_) => window_predictions(out, classes).map(Reply::Many),
            };
            // Start and swap refuse models wider than a `Prediction` holds
            // (`check_classes`), and the width is the group's, so this
            // branch is never taken: every request `record_group` counted
            // as completed is answered below.
            let Some(reply) = reply else {
                request.reply.fail(ServeError::TooManyClasses {
                    max: MAX_CLASSES,
                    got: classes,
                });
                continue;
            };
            request.reply.answer(reply);
            tally.push(submitted);
            if ordinal % SPAN_SAMPLE_EVERY == 1 && rbnn_telemetry::enabled() {
                if let Some(dequeued) = request.dequeued {
                    shared.spans.push(SpanRecord {
                        queue_wait: dequeued.duration_since(submitted),
                        batch_wait: dispatched.duration_since(dequeued),
                        service,
                        samples: n,
                    });
                }
            }
        }
        tally.flush();
    }
    if samples_total > 0 {
        shared
            .stats
            .record_batch(worker_idx, samples_total, senses_total);
    }
}

/// The predictions of a window answer (`classes` logits per sample), or
/// `None` when `classes` exceeds [`MAX_CLASSES`]. The list is the one
/// allocation a window answer makes on the worker (each prediction holds
/// its logits inline); it stays outside the zero-alloc zone on purpose —
/// building it on the client would put it on the submitting thread, the
/// serial stage of window traffic.
fn window_predictions(logits: &[f32], classes: usize) -> Option<Vec<Prediction>> {
    // Sized up front: collecting into `Option<Vec<_>>` sees no length
    // hint and would grow the list several times.
    let mut predictions = Vec::with_capacity(logits.len() / classes);
    for row in logits.chunks_exact(classes) {
        predictions.push(Prediction::from_row(row)?);
    }
    Some(predictions)
}

/// Smallest batch capacity an execution plan is compiled for: batches grow
/// to the next power of two above this floor, so a ramp-up from
/// single-sample traffic to full micro-batches recompiles the plan only
/// O(log batch) times (and a plan compiled for the configured batch cap is
/// never recompiled again).
const MIN_PLAN_BATCH: usize = 16;

/// Evaluates `task`'s group of `samples` samples in `batch` on the
/// replica's cached [`PlanState`] — compiled here on first use (or when
/// the group outgrows its capacity), then reused with zero per-request
/// planning or allocation: the group is gathered into the plan's packed
/// input region and the fused steps replay over it. Returns a view of the
/// plan's logits buffer. Replay is bitwise-equal to the single-sample
/// oracle (locked by the conformance oracle's serve and plan paths).
fn dispatch_rows<'p>(
    engine: &mut WorkerEngine,
    network: &BinaryNetwork,
    plan: &'p mut Option<PlanState>,
    batch: &[Request],
    task: ServeTask,
    samples: usize,
) -> (&'p [f32], u64) {
    if plan.as_ref().is_some_and(|p| p.plan.max_batch() < samples) {
        *plan = None;
    }
    let state = plan.get_or_insert_with(|| {
        PlanState::compile(network, samples.next_power_of_two().max(MIN_PLAN_BATCH))
    });
    state.gather(batch, task);
    state.replay(engine, samples)
}

/// Adopts a hot-swapped model ([`ServeHandle::swap_model`]): when the
/// shared slot's version differs from the replica's, the spec is
/// re-targeted (re-salted device seed), the cached execution plan is
/// dropped, and a live engine is rebuilt in place. A rebuild that panics
/// retires the replica through the normal supervision path; a replica that
/// was already down keeps its updated spec and rebuilds through the usual
/// respawn flow.
fn adopt_model(shared: &Shared, worker_idx: usize, task: ServeTask, replica: &mut Replica) {
    let Some((version, entry)) = shared.model_of(task) else {
        return;
    };
    if version == replica.version {
        return;
    }
    replica.spec.retarget(&entry);
    replica.plan = None;
    replica.version = version;
    if replica.engine.is_none() {
        return;
    }
    let rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replica.spec.build()));
    match rebuilt {
        Ok(engine) => replica.engine = Some(engine),
        Err(_) => {
            replica.engine = None;
            shared.supervisor.record_fault(worker_idx, task);
        }
    }
}

/// Answers every still-pending request of `task`'s group with `error`.
/// A client that already gave up (dropped its ticket) is not an error.
fn fail_group(batch: &mut [Request], task: ServeTask, error: ServeError) {
    for request in batch.iter_mut().filter(|r| pending_for(r, task)) {
        request.reply.fail(error.clone());
    }
}

/// Marginal-cell fraction above which an RRAM replica falls back to the
/// bit-exact software XNOR path (degraded mode). It sits far above any
/// fresh fabric (≪ 1% marginal) but below the heavily-worn regime where
/// Monte-Carlo senses dominate both the latency and the error budget.
const DEGRADE_MARGINAL_THRESHOLD: f64 = 0.05;

/// Degraded-mode fallback: when an RRAM replica's marginal-cell fraction
/// crosses [`DEGRADE_MARGINAL_THRESHOLD`], swap the replica to bit-exact
/// software XNOR evaluation of the *same* network. Inference keeps
/// flowing at software speed while the fleet report shows the die as
/// degraded — mirroring the paper's deployment story, where the
/// digital path is the always-available fallback for a worn fabric.
fn maybe_degrade(
    shared: &Shared,
    worker_idx: usize,
    task: ServeTask,
    engine: &mut Option<WorkerEngine>,
) {
    let Some(live) = engine.as_ref() else {
        return;
    };
    if let Some(fraction) = live.marginal_fraction() {
        if fraction > DEGRADE_MARGINAL_THRESHOLD {
            *engine = Some(WorkerEngine::Software);
            shared.supervisor.record_degraded(worker_idx, task);
        }
    }
}

/// Largest number of requests [`classify_matrix`] keeps in flight. Deep
/// enough to let the pool form full batches, comfortably below the default
/// queue capacity so a lone caller never trips its own backpressure.
const CLASSIFY_MATRIX_WINDOW: usize = 256;

/// Convenience: classify a whole feature matrix through a handle from one
/// caller thread, returning predicted classes in row order (used by
/// benches/examples to drive load without writing client boilerplate).
///
/// Requests are *pipelined*: up to `CLASSIFY_MATRIX_WINDOW` (256) rows are
/// enqueued before the oldest response is awaited, so the pool sees a deep
/// queue and can form real batches. (An earlier revision submitted rows
/// strictly synchronously — one request in flight — which could never
/// exercise batching and made every number measured through it a
/// single-sample number.) On the software backend and on fresh RRAM
/// devices predictions are identical either way; with worn (marginal)
/// RRAM cells the different batch grouping consumes each array's
/// Monte-Carlo stream in a different order, so results are statistically
/// — not bit-for-bit — equivalent, like every other batched-vs-sequential
/// path in the engine. On the first error the remaining in-flight
/// requests are abandoned (their replies are dropped harmlessly).
pub fn classify_matrix(
    handle: &ServeHandle,
    task: ServeTask,
    features: &Tensor,
) -> Result<Vec<usize>, ServeError> {
    let client = handle.client(task)?;
    let n = features.dim(0);
    let f = features.dim(1);
    let xs = features.as_slice();
    let mut in_flight = std::collections::VecDeque::with_capacity(CLASSIFY_MATRIX_WINDOW);
    let mut classes = Vec::with_capacity(n);
    for i in 0..n {
        if in_flight.len() >= CLASSIFY_MATRIX_WINDOW {
            let oldest: Pending = in_flight.pop_front().expect("non-empty window");
            classes.push(oldest.wait()?.class);
        }
        in_flight.push_back(client.enqueue(xs[i * f..(i + 1) * f].to_vec())?);
    }
    for pending in in_flight {
        classes.push(pending.wait()?.class);
    }
    Ok(classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn demo_server(workers: usize, backend: Backend) -> (Server, ModelRegistry) {
        let registry = ModelRegistry::demo(42);
        let config = ServeConfig {
            workers,
            backend,
            ..Default::default()
        };
        let server = Server::start(&registry, &config);
        (server, registry)
    }

    fn random_features(n: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn software_pool_matches_direct_network() {
        let (server, registry) = demo_server(3, Backend::Software);
        let handle = server.handle();
        let mut rng = StdRng::seed_from_u64(1);
        for task in ServeTask::ALL {
            let net = &registry.get(task).unwrap().network;
            for _ in 0..20 {
                let x = random_features(net.in_features(), &mut rng);
                let served = handle.classify(task, x.clone()).expect("served");
                assert_eq!(served.class, net.classify(&x), "{task:?}");
                assert_eq!(served.logits, net.logits(&x), "{task:?}");
            }
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 60);
        assert_eq!(snap.rejected, 0);
        assert!(snap.p99 > Duration::ZERO);
    }

    #[test]
    fn rram_pool_serves_and_counts_senses() {
        let registry = ModelRegistry::demo(43);
        let config = ServeConfig {
            workers: 2,
            backend: Backend::Rram,
            ..Default::default()
        };
        let server = Server::start(&registry, &config);
        let handle = server.handle();
        let mut rng = StdRng::seed_from_u64(2);
        let net = &registry.get(ServeTask::Ecg).unwrap().network;
        for _ in 0..6 {
            let x = random_features(net.in_features(), &mut rng);
            // Fresh devices: the RRAM read is exact, so classes agree with
            // software.
            let served = handle.classify(ServeTask::Ecg, x.clone()).expect("served");
            assert_eq!(served.class, net.classify(&x));
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 6);
        let senses: u64 = snap.engines.iter().map(|e| e.senses).sum();
        assert!(senses > 0, "RRAM backend must consume PCSA senses");
    }

    #[test]
    fn rejects_bad_requests_without_queuing() {
        let (server, _) = demo_server(1, Backend::Software);
        let handle = server.handle();
        assert_eq!(
            handle.classify(ServeTask::Ecg, vec![0.0; 3]),
            Err(ServeError::FeatureWidth {
                expected: 2520,
                got: 3
            })
        );
        let snap = server.shutdown();
        assert_eq!(snap.submitted, 0);
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let (server, registry) = demo_server(4, Backend::Software);
        let net = registry.get(ServeTask::Eeg).unwrap().network.clone();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let handle = server.handle();
                let net = net.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + t);
                    for _ in 0..50 {
                        let x = random_features(net.in_features(), &mut rng);
                        let p = handle.classify(ServeTask::Eeg, x.clone()).expect("served");
                        assert_eq!(p.class, net.classify(&x));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 400);
        assert!(snap.mean_batch >= 1.0);
        let spread: Vec<u64> = snap.engines.iter().map(|e| e.samples).collect();
        assert_eq!(spread.iter().sum::<u64>(), 400);
    }

    #[test]
    fn window_requests_match_single_sample_requests() {
        let (server, registry) = demo_server(2, Backend::Software);
        let handle = server.handle();
        let net = &registry.get(ServeTask::Ecg).unwrap().network;
        let mut rng = StdRng::seed_from_u64(9);
        let rows: Vec<Vec<f32>> = (0..13)
            .map(|_| random_features(net.in_features(), &mut rng))
            .collect();
        let client = handle.client(ServeTask::Ecg).expect("registered");
        let windowed = client
            .enqueue_shared(Arc::new(rows.clone()))
            .and_then(PendingWindow::wait)
            .expect("served window");
        assert_eq!(windowed.len(), rows.len());
        for (row, served) in rows.iter().zip(&windowed) {
            assert_eq!(served.class, net.classify(row));
            assert_eq!(served.logits, net.logits(row));
        }
        // An empty window is answered with an empty prediction list.
        let empty = client
            .enqueue_shared(Arc::new(Vec::new()))
            .and_then(PendingWindow::wait)
            .expect("served");
        assert!(empty.is_empty());
        let snap = server.shutdown();
        // Two requests, thirteen samples.
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.engines.iter().map(|e| e.samples).sum::<u64>(), 13);
    }

    #[test]
    fn span_samples_decompose_latency() {
        let (server, registry) = demo_server(2, Backend::Software);
        let handle = server.handle();
        let net = &registry.get(ServeTask::Ecg).unwrap().network;
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let x = random_features(net.in_features(), &mut rng);
            handle.classify(ServeTask::Ecg, x).expect("served");
        }
        let spans = handle.span_samples();
        assert!(
            !spans.is_empty(),
            "40 completions at 1-in-16 sampling must retain spans"
        );
        let snap = server.shutdown();
        assert_eq!(snap.completed, 40);
        for span in &spans {
            assert_eq!(span.samples, 1);
            // The three phases sum to the end-to-end latency, which must
            // sit inside the observed latency range.
            assert!(span.total() > Duration::ZERO);
            assert!(span.service > Duration::ZERO, "engine time can't be zero");
        }
        // The split histograms saw every completion: components' p50s are
        // populated and bounded by the end-to-end p50-like scale.
        assert!(snap.service_p50 > Duration::ZERO);
        assert!(snap.queue_p50 + snap.service_p50 >= snap.p50 / 2);
    }

    #[test]
    fn pipelined_requests_are_accounted_once_each() {
        // A worker accounts each task group once: its completions count
        // before it answers them, its times flush after the last answer.
        // Every series counts every request exactly once.
        let (server, registry) = demo_server(2, Backend::Software);
        let client = server.handle().client(ServeTask::Ecg).expect("registered");
        let net = &registry.get(ServeTask::Ecg).unwrap().network;
        let mut rng = StdRng::seed_from_u64(12);
        let n = 300;
        let pending: Vec<_> = (0..n)
            .map(|_| {
                let x = random_features(net.in_features(), &mut rng);
                client.enqueue(x).expect("admitted")
            })
            .collect();
        for ticket in pending {
            ticket.wait().expect("served");
        }
        assert_eq!(client.stats().completed, n);
        let shared = Arc::clone(&server.shared);
        // Shutdown joins the workers, so every flush has landed.
        let snap = server.shutdown();
        assert_eq!(snap.completed, n);
        assert_eq!(shared.stats.histogram_counts(), [n; 3]);
    }

    #[test]
    fn classify_after_shutdown_errors() {
        let (server, _) = demo_server(1, Backend::Software);
        let handle = server.handle();
        let _ = server.shutdown();
        assert_eq!(
            handle.classify(ServeTask::Ecg, vec![0.0; 2520]),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn classify_matrix_round_trips() {
        let (server, registry) = demo_server(2, Backend::Software);
        let handle = server.handle();
        let net = &registry.get(ServeTask::Image).unwrap().network;
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10;
        let f = net.in_features();
        let xs: Vec<f32> = (0..n * f).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let features = Tensor::from_vec(xs, [n, f]);
        let served = classify_matrix(&handle, ServeTask::Image, &features).expect("served");
        assert_eq!(served, rbnn_graph::classify_batch(net, &features));
    }

    #[test]
    fn classify_matrix_pipelines_into_real_batches() {
        // Regression: classify_matrix used to hold one request in flight,
        // so the pool could never merge its traffic into batches and every
        // number measured through it was a single-sample number.
        let registry = ModelRegistry::demo(44);
        let config = ServeConfig {
            workers: 1,
            backend: Backend::Software,
            ..Default::default()
        };
        let server = Server::start(&registry, &config);
        let handle = server.handle();
        let net = &registry.get(ServeTask::Ecg).unwrap().network;
        let mut rng = StdRng::seed_from_u64(5);
        let n = 400;
        let f = net.in_features();
        let xs: Vec<f32> = (0..n * f).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let features = Tensor::from_vec(xs, [n, f]);
        let served = classify_matrix(&handle, ServeTask::Ecg, &features).expect("served");
        assert_eq!(
            served,
            rbnn_graph::classify_batch(net, &features),
            "order must hold"
        );
        let snap = server.shutdown();
        assert_eq!(snap.completed, n as u64);
        assert!(
            snap.mean_batch > 1.5,
            "pipelined submission must form multi-request batches, mean {:.2}",
            snap.mean_batch
        );
    }

    #[test]
    fn rram_pool_serves_fresh_devices_bit_exactly_and_fast() {
        // The margin-gated acceptance path: RRAM serving on fresh devices
        // must agree with the software network on every sample (all senses
        // deterministic) while clearing far more than the ~42 samples/s
        // the ungated Monte-Carlo path managed.
        let registry = ModelRegistry::demo(45);
        let config = ServeConfig {
            workers: 2,
            backend: Backend::Rram,
            ..Default::default()
        };
        let server = Server::start(&registry, &config);
        let handle = server.handle();
        let net = &registry.get(ServeTask::Ecg).unwrap().network;
        let mut rng = StdRng::seed_from_u64(6);
        let n = 300;
        let f = net.in_features();
        let xs: Vec<f32> = (0..n * f).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let features = Tensor::from_vec(xs, [n, f]);
        let t0 = std::time::Instant::now();
        let served = classify_matrix(&handle, ServeTask::Ecg, &features).expect("served");
        let rate = n as f64 / t0.elapsed().as_secs_f64();
        assert_eq!(
            served,
            rbnn_graph::classify_batch(net, &features),
            "fresh ⇒ bit-exact"
        );
        assert!(
            rate > 300.0,
            "RRAM serving should be orders beyond 42 samples/s, got {rate:.0}"
        );
        let snap = server.shutdown();
        let senses: u64 = snap.engines.iter().map(|e| e.senses).sum();
        assert!(senses > 0, "gated senses must still be counted");
    }
}
