//! Multi-tenant fan-in: N patient sessions → one serve queue → per-patient
//! verdict streams.
//!
//! A [`StreamRouter`] owns the full per-patient chain — [`SignalSource`] →
//! [`Session`] → serve queue → [`Verdict`] → [`AlarmState`] — for many
//! patients at once, multiplexed from one driver thread. Windows are
//! submitted through the zero-copy shared-window API
//! ([`rbnn_serve::TaskClient::enqueue_shared`]): all windows completed by
//! one chunk share a single `Arc`'d request, one queue slot and one
//! dispatch, so the per-request fixed cost amortizes and the worker pool
//! sees deep, batchable traffic even though each patient alone produces
//! only a few windows per second. Replies are drained non-blockingly
//! (`PendingWindow::poll`) so a slow patient never stalls the others;
//! bounded per-patient in-flight windows keep one patient from flooding
//! the shared queue.
//!
//! Accounting is per session: every verdict is timestamped in signal time
//! and carries its wall-clock window-to-verdict latency, and each
//! [`PatientReport`] closes with windows/s, the real-time factor
//! (achieved frame rate ÷ the source's sampling rate) and µJ/window from
//! the RRAM energy model (`rbnn_rram::energy`).
//!
//! The router is *loss-free under faults*: every submitted window reaches
//! a terminal [`Verdict`] — either [`WindowOutcome::Classified`] or a
//! typed [`WindowOutcome::Failed`]. Retryable failures (shed admission,
//! engine faults, transient errors) are retried with jittered exponential
//! backoff up to the [`RouterConfig::retry`] budget before a failure
//! verdict is issued. Windows submitted while a patient's alarm is active
//! ride the urgent queue lane ([`rbnn_serve::Priority::Urgent`]) so an
//! overloaded pool sheds routine traffic first, and every submission
//! carries the optional [`RouterConfig::deadline`] freshness budget.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbnn_data::stream::SignalSource;
use rbnn_serve::{
    Logits, PendingWindow, Prediction, Priority, RetryPolicy, ServeError, SubmitOptions, TaskClient,
};
use rbnn_telemetry::{Counter, Gauge};

use crate::segment::WindowMeta;
use crate::session::{AlarmConfig, AlarmEvent, AlarmState, Session};

/// Router configuration (per run, shared by all patients).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Frames pulled from each source per poll. Smaller chunks lower
    /// window-to-verdict latency; larger ones amortize per-chunk cost.
    pub chunk_frames: usize,
    /// Most uncollected window requests per patient; bounds how much of
    /// the shared serve queue one patient can occupy.
    pub max_in_flight: usize,
    /// Stop pulling a patient's source once this many windows have been
    /// submitted (the run length; sources are typically unbounded).
    pub windows_per_patient: u64,
    /// Alarm debounce policy applied to every patient's verdict stream.
    pub alarm: AlarmConfig,
    /// Per-window inference energy in nanojoules, from
    /// [`rbnn_rram::energy::estimate_network`] on the deployed model
    /// (`.rram_nj`); reported per patient as µJ/window. Zero leaves the
    /// energy columns unreported.
    pub energy_nj_per_window: f64,
    /// Freshness budget attached to every submitted window: a window the
    /// pool cannot dispatch inside this budget is dropped server-side
    /// with [`ServeError::DeadlineExceeded`] instead of wasting engine
    /// time on a stale answer. `None` disables deadlines.
    pub deadline: Option<Duration>,
    /// Backoff/budget policy for retrying retryable failures (shed
    /// admission, engine faults, transient errors) before a window is
    /// given a [`WindowOutcome::Failed`] verdict.
    pub retry: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            chunk_frames: 256,
            max_in_flight: 4,
            windows_per_patient: 64,
            alarm: AlarmConfig::default(),
            energy_nj_per_window: 0.0,
            deadline: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Terminal outcome of one submitted window: the classification, or the
/// typed error left after the retry budget ran out. Every submitted
/// window gets exactly one — the router never silently drops work.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowOutcome {
    /// The pool answered.
    Classified {
        /// Predicted class.
        class: usize,
        /// Raw logits, held inline (bitwise-equal to offline batch
        /// classification of the same window on the software backend).
        logits: Logits,
    },
    /// The window could not be classified inside the retry budget; the
    /// error is the *last* failure observed.
    Failed(ServeError),
}

/// One terminal window verdict in one patient's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Per-patient window index (0-based; gapless and in stream order on
    /// fault-free runs — a retried window may land out of order).
    pub window: u64,
    /// Absolute frame index of the window's first frame.
    pub start_frame: u64,
    /// Signal-time timestamp of the window's *end* in seconds — when a
    /// real-time monitor could first have produced this verdict.
    pub signal_time_s: f64,
    /// Classification or typed failure.
    pub outcome: WindowOutcome,
    /// Wall-clock window-to-verdict latency, measured from the *first*
    /// submission attempt (retries and their backoffs are included).
    pub latency: Duration,
    /// Submission attempts beyond the first that this window consumed.
    pub retries: u32,
    /// Alarm state after this verdict was absorbed.
    pub alarm_active: bool,
    /// Alarm transition this verdict caused, if any.
    pub alarm_event: Option<AlarmEvent>,
}

impl Verdict {
    /// Predicted class, when classified.
    pub fn class(&self) -> Option<usize> {
        match &self.outcome {
            WindowOutcome::Classified { class, .. } => Some(*class),
            WindowOutcome::Failed(_) => None,
        }
    }

    /// Raw logits, when classified.
    pub fn logits(&self) -> Option<&[f32]> {
        match &self.outcome {
            WindowOutcome::Classified { logits, .. } => Some(logits.as_slice()),
            WindowOutcome::Failed(_) => None,
        }
    }

    /// Whether the pool answered this window.
    pub fn is_classified(&self) -> bool {
        matches!(self.outcome, WindowOutcome::Classified { .. })
    }

    /// The terminal error, when the window failed.
    pub fn error(&self) -> Option<&ServeError> {
        match &self.outcome {
            WindowOutcome::Classified { .. } => None,
            WindowOutcome::Failed(e) => Some(e),
        }
    }
}

/// End-of-run summary of one patient's session.
#[derive(Debug, Clone)]
pub struct PatientReport {
    /// Caller-chosen patient id.
    pub id: usize,
    /// Every classified window, in stream order.
    pub verdicts: Vec<Verdict>,
    /// Frames consumed from the source.
    pub frames: u64,
    /// Windows classified.
    pub windows: u64,
    /// Alarm raise events over the run.
    pub alarms_raised: u64,
    /// Windows whose retry budget ran out ([`WindowOutcome::Failed`]
    /// verdicts). Zero on a healthy pool.
    pub failed_windows: u64,
    /// Re-submission attempts consumed across all windows.
    pub retries: u64,
    /// Wall-clock duration of the whole run (shared by all patients —
    /// they ran concurrently).
    pub elapsed: Duration,
    /// Classified windows per wall-clock second.
    pub windows_per_s: f64,
    /// Achieved frame rate ÷ the source's sampling rate: ≥ 1 means this
    /// patient's stream was sustained at (better than) real time.
    pub realtime_factor: f64,
    /// Model-estimated inference energy per window, in microjoules
    /// (0 when the router was not given an energy figure).
    pub energy_uj_per_window: f64,
    /// Median window-to-verdict latency.
    pub p50_latency: Duration,
    /// 99th-percentile window-to-verdict latency.
    pub p99_latency: Duration,
}

/// A window request in flight: the ticket plus everything needed to turn
/// its reply into verdicts — or to resubmit it after a retryable failure
/// (the shared rows are retained; a retry is one more `Arc` bump).
struct InFlight {
    pending: PendingWindow,
    rows: Arc<Vec<Vec<f32>>>,
    metas: Vec<WindowMeta>,
    /// First submission attempt (latency baseline across retries).
    first_submitted: Instant,
    /// Zero-based attempt ordinal of this submission.
    attempt: u32,
}

/// A failed request waiting out its backoff before resubmission.
struct RetryEntry {
    rows: Arc<Vec<Vec<f32>>>,
    metas: Vec<WindowMeta>,
    first_submitted: Instant,
    /// Attempt ordinal the resubmission will carry.
    attempt: u32,
    /// Earliest instant the resubmission may happen.
    not_before: Instant,
}

/// Live per-patient telemetry handles (labeled `patient="<id>"` on the
/// global registry). Registered only while telemetry is enabled; a
/// disabled run carries `None` and pays nothing.
struct PatientTelemetry {
    /// Achieved frame rate ÷ sample rate, updated as replies land — the
    /// live counterpart of [`PatientReport::realtime_factor`], so a fleet
    /// supervisor can see a patient falling behind *during* the run
    /// instead of at shutdown.
    realtime: Arc<Gauge>,
    /// 1.0 while this patient's alarm is active, else 0.0.
    alarm_active: Arc<Gauge>,
    /// Windows classified so far.
    windows: Arc<Counter>,
    /// Alarm raise events so far.
    alarms: Arc<Counter>,
    /// Windows whose retry budget ran out.
    failed: Arc<Counter>,
    /// Re-submission attempts so far.
    retries: Arc<Counter>,
}

impl PatientTelemetry {
    fn register(id: usize) -> Self {
        let reg = rbnn_telemetry::global();
        let label = format!("patient=\"{id}\"");
        Self {
            realtime: reg.gauge(
                "rbnn_stream_realtime_factor",
                &label,
                "Achieved frame rate over the source sample rate (>=1 is real time).",
            ),
            alarm_active: reg.gauge(
                "rbnn_stream_alarm_active",
                &label,
                "1 while the patient's debounced alarm is raised.",
            ),
            windows: reg.counter(
                "rbnn_stream_windows_total",
                &label,
                "Windows classified for this patient.",
            ),
            alarms: reg.counter(
                "rbnn_stream_alarms_total",
                &label,
                "Alarm raise events for this patient.",
            ),
            failed: reg.counter(
                "rbnn_stream_failed_windows_total",
                &label,
                "Windows that exhausted the retry budget and got a failure verdict.",
            ),
            retries: reg.counter(
                "rbnn_stream_retries_total",
                &label,
                "Window re-submission attempts after retryable failures.",
            ),
        }
    }
}

/// One monitored patient inside the router.
struct PatientSlot {
    id: usize,
    source: Box<dyn SignalSource + Send>,
    session: Session,
    alarm: AlarmState,
    in_flight: VecDeque<InFlight>,
    retry_queue: VecDeque<RetryEntry>,
    verdicts: Vec<Verdict>,
    latencies: Vec<Duration>,
    chunk: Vec<f32>,
    frames: u64,
    submitted_windows: u64,
    alarms_raised: u64,
    failed_windows: u64,
    retries: u64,
    /// A finite source returned 0 frames (synthetic ones never do).
    exhausted: bool,
    telemetry: Option<PatientTelemetry>,
}

/// Fans N concurrent patient sessions into one serve queue and collects
/// their verdict streams (see the module docs).
pub struct StreamRouter {
    client: TaskClient,
    cfg: RouterConfig,
    patients: Vec<PatientSlot>,
}

impl std::fmt::Debug for StreamRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamRouter")
            .field("task", &self.client.task())
            .field("patients", &self.patients.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl StreamRouter {
    /// A router submitting through `client` (bind it once with
    /// [`rbnn_serve::ServeHandle::client`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero `chunk_frames`, `max_in_flight` or
    /// `windows_per_patient`.
    pub fn new(client: TaskClient, cfg: RouterConfig) -> Self {
        assert!(cfg.chunk_frames > 0, "chunk_frames must be positive");
        assert!(cfg.max_in_flight > 0, "max_in_flight must be positive");
        assert!(
            cfg.windows_per_patient > 0,
            "windows_per_patient must be positive"
        );
        Self {
            client,
            cfg,
            patients: Vec::new(),
        }
    }

    /// Registers one patient: a signal source plus its session state.
    ///
    /// # Panics
    ///
    /// Panics if the source's channel count does not match the session's,
    /// or the session's window feature width does not match the model the
    /// client is bound to.
    pub fn add_patient(
        &mut self,
        id: usize,
        source: Box<dyn SignalSource + Send>,
        session: Session,
    ) {
        assert_eq!(
            source.channels(),
            session.channels(),
            "source/session channel mismatch"
        );
        assert_eq!(
            session.features_per_window(),
            self.client.in_features(),
            "session window features must match the served model width"
        );
        self.patients.push(PatientSlot {
            id,
            source,
            session,
            alarm: AlarmState::new(self.cfg.alarm.clone()),
            in_flight: VecDeque::new(),
            retry_queue: VecDeque::new(),
            verdicts: Vec::new(),
            latencies: Vec::new(),
            chunk: Vec::new(),
            frames: 0,
            submitted_windows: 0,
            alarms_raised: 0,
            failed_windows: 0,
            retries: 0,
            exhausted: false,
            telemetry: rbnn_telemetry::enabled().then(|| PatientTelemetry::register(id)),
        })
    }

    /// Registered patients.
    pub fn patient_count(&self) -> usize {
        self.patients.len()
    }

    /// Runs every stream to its window target and returns one report per
    /// patient (same order as registration). Patients are multiplexed:
    /// each loop iteration drains whichever replies have landed, resubmits
    /// retries whose backoff has elapsed, then tops up each patient that
    /// has in-flight budget left. Every submitted window terminates in a
    /// [`Verdict`] — classified, or typed-failed after the retry budget.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] if the server goes away
    /// mid-run (the one failure retrying cannot outlast). All other
    /// failures become [`WindowOutcome::Failed`] verdicts instead of
    /// aborting the run.
    pub fn run(&mut self) -> Result<Vec<PatientReport>, ServeError> {
        assert!(!self.patients.is_empty(), "no patients registered");
        let t0 = Instant::now();
        loop {
            let mut progress = false;
            let mut all_done = true;
            for p in &mut self.patients {
                progress |= drain_ready(p, &self.cfg, t0)?;
                progress |= submit_due_retries(p, &self.client, &self.cfg)?;
                let want_more = !p.exhausted && p.submitted_windows < self.cfg.windows_per_patient;
                if want_more && p.in_flight.len() < self.cfg.max_in_flight {
                    progress |= pull_and_submit(p, &self.client, &self.cfg)?;
                }
                let still_wants =
                    !p.exhausted && p.submitted_windows < self.cfg.windows_per_patient;
                if still_wants || !p.in_flight.is_empty() || !p.retry_queue.is_empty() {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
            if !progress {
                idle_wait(&mut self.patients, &self.cfg, t0)?;
            }
        }
        let elapsed = t0.elapsed();
        Ok(self
            .patients
            .iter_mut()
            .map(|p| finish_report(p, elapsed, &self.cfg))
            .collect())
    }
}

/// Nothing landed and nothing was submittable this pass: block on the
/// oldest outstanding reply, or — when the only remaining work is retry
/// entries waiting out their backoff — sleep until the earliest one is
/// due, instead of spinning.
fn idle_wait(
    patients: &mut [PatientSlot],
    cfg: &RouterConfig,
    run_started: Instant,
) -> Result<(), ServeError> {
    if let Some(p) = patients.iter_mut().find(|p| !p.in_flight.is_empty()) {
        if let Some(inflight) = p.in_flight.pop_front() {
            let result = inflight.pending.wait();
            return settle_reply(
                p,
                inflight.rows,
                inflight.metas,
                inflight.first_submitted,
                inflight.attempt,
                result,
                cfg,
                run_started,
            );
        }
    }
    let earliest = patients
        .iter()
        .flat_map(|p| p.retry_queue.iter().map(|r| r.not_before))
        .min();
    if let Some(due) = earliest {
        let now = Instant::now();
        if due > now {
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        }
    }
    Ok(())
}

/// Polls a patient's in-flight queue front-to-back, settling every reply
/// that has already landed (classified, requeued for retry, or typed-
/// failed). Returns whether anything was settled.
fn drain_ready(
    p: &mut PatientSlot,
    cfg: &RouterConfig,
    run_started: Instant,
) -> Result<bool, ServeError> {
    let mut any = false;
    while let Some(front) = p.in_flight.front() {
        let Some(result) = front.pending.poll() else {
            break;
        };
        let Some(inflight) = p.in_flight.pop_front() else {
            break;
        };
        settle_reply(
            p,
            inflight.rows,
            inflight.metas,
            inflight.first_submitted,
            inflight.attempt,
            result,
            cfg,
            run_started,
        )?;
        any = true;
    }
    Ok(any)
}

/// Routes one landed reply to its terminal state: predictions become
/// classified verdicts; a retryable failure with budget left is scheduled
/// for resubmission after backoff; anything else becomes failure
/// verdicts. [`ServeError::ShuttingDown`] aborts the run — the server is
/// gone, so no retry can ever land.
#[allow(clippy::too_many_arguments)]
fn settle_reply(
    p: &mut PatientSlot,
    rows: Arc<Vec<Vec<f32>>>,
    metas: Vec<WindowMeta>,
    first_submitted: Instant,
    attempt: u32,
    result: Result<Vec<Prediction>, ServeError>,
    cfg: &RouterConfig,
    run_started: Instant,
) -> Result<(), ServeError> {
    match result {
        Ok(predictions) => {
            absorb_reply(p, metas, first_submitted, attempt, predictions, run_started);
            Ok(())
        }
        Err(ServeError::ShuttingDown) => Err(ServeError::ShuttingDown),
        Err(e) if e.is_retryable() && cfg.retry.allows_retry(attempt) => {
            schedule_retry(p, rows, metas, first_submitted, attempt, cfg);
            Ok(())
        }
        Err(e) => {
            absorb_failure(p, metas, first_submitted, attempt, e);
            Ok(())
        }
    }
}

/// Queues a failed request for resubmission once its jittered backoff has
/// elapsed (salted by patient id so a fleet hitting one fault does not
/// retry in lockstep).
fn schedule_retry(
    p: &mut PatientSlot,
    rows: Arc<Vec<Vec<f32>>>,
    metas: Vec<WindowMeta>,
    first_submitted: Instant,
    attempt: u32,
    cfg: &RouterConfig,
) {
    p.retries += 1;
    if let Some(t) = &p.telemetry {
        t.retries.inc();
    }
    let not_before = Instant::now() + cfg.retry.backoff(attempt, p.id as u64);
    p.retry_queue.push_back(RetryEntry {
        rows,
        metas,
        first_submitted,
        attempt: attempt + 1,
        not_before,
    });
}

/// Resubmits every retry entry whose backoff has elapsed, in-flight
/// budget permitting. Returns whether anything was resubmitted.
fn submit_due_retries(
    p: &mut PatientSlot,
    client: &TaskClient,
    cfg: &RouterConfig,
) -> Result<bool, ServeError> {
    let mut any = false;
    let now = Instant::now();
    while p.in_flight.len() < cfg.max_in_flight
        && p.retry_queue.front().is_some_and(|r| r.not_before <= now)
    {
        let Some(entry) = p.retry_queue.pop_front() else {
            break;
        };
        submit_request(
            p,
            client,
            cfg,
            entry.rows,
            entry.metas,
            entry.first_submitted,
            entry.attempt,
        )?;
        any = true;
    }
    Ok(any)
}

/// Submits one shared-window request on the lane the patient's alarm
/// state selects; a synchronous shed/failure goes straight back through
/// the retry/failure path.
fn submit_request(
    p: &mut PatientSlot,
    client: &TaskClient,
    cfg: &RouterConfig,
    rows: Arc<Vec<Vec<f32>>>,
    metas: Vec<WindowMeta>,
    first_submitted: Instant,
    attempt: u32,
) -> Result<(), ServeError> {
    // Alarm-adjacent windows ride the urgent lane: while this patient's
    // alarm is raised, its follow-up windows preempt routine traffic on
    // an overloaded queue instead of being shed alongside it.
    let opts = SubmitOptions {
        priority: if p.alarm.active() {
            Priority::Urgent
        } else {
            Priority::Routine
        },
        deadline: cfg.deadline,
    };
    match client.submit(Arc::clone(&rows), &opts) {
        Ok(pending) => {
            p.in_flight.push_back(InFlight {
                pending,
                rows,
                metas,
                first_submitted,
                attempt,
            });
            Ok(())
        }
        Err(ServeError::ShuttingDown) => Err(ServeError::ShuttingDown),
        Err(e) if e.is_retryable() && cfg.retry.allows_retry(attempt) => {
            schedule_retry(p, rows, metas, first_submitted, attempt, cfg);
            Ok(())
        }
        Err(e) => {
            absorb_failure(p, metas, first_submitted, attempt, e);
            Ok(())
        }
    }
}

/// Pulls one chunk from the source, segments it, and submits any completed
/// windows as one shared zero-copy request. Returns whether any frames
/// were consumed or windows submitted.
fn pull_and_submit(
    p: &mut PatientSlot,
    client: &TaskClient,
    cfg: &RouterConfig,
) -> Result<bool, ServeError> {
    p.chunk.clear();
    let got = p.source.next_chunk(cfg.chunk_frames, &mut p.chunk);
    p.frames += got as u64;
    let windows = if got > 0 {
        p.session.push_chunk(&p.chunk[..got * p.session.channels()])
    } else {
        // Only an empty chunk signals end of stream (the `SignalSource`
        // contract delivers "up to" max_frames — a short read just means
        // the source's internal block ran out): flush the tail per
        // policy and stop pulling this patient.
        p.exhausted = true;
        p.session.finish()
    };
    if windows.is_empty() {
        return Ok(got > 0);
    }
    let mut metas = Vec::with_capacity(windows.len());
    let mut rows = Vec::with_capacity(windows.len());
    for w in windows {
        metas.push(w.meta);
        rows.push(w.features);
    }
    p.submitted_windows += metas.len() as u64;
    submit_request(p, client, cfg, Arc::new(rows), metas, Instant::now(), 0)?;
    Ok(true)
}

/// Turns one request's predictions into verdicts: latency stamp, alarm
/// update, signal-time timestamp.
fn absorb_reply(
    p: &mut PatientSlot,
    metas: Vec<WindowMeta>,
    first_submitted: Instant,
    attempt: u32,
    predictions: Vec<Prediction>,
    run_started: Instant,
) {
    debug_assert_eq!(metas.len(), predictions.len());
    let latency = first_submitted.elapsed();
    let window_frames = p.session.features_per_window() / p.session.channels();
    let rate = p.source.sample_rate() as f64;
    let absorbed = metas.len() as u64;
    for (meta, prediction) in metas.into_iter().zip(predictions) {
        let alarm_event = p.alarm.update(prediction.class);
        if alarm_event == Some(AlarmEvent::Raised) {
            p.alarms_raised += 1;
            if let Some(t) = &p.telemetry {
                t.alarms.inc();
            }
        }
        p.latencies.push(latency);
        p.verdicts.push(Verdict {
            window: meta.index,
            start_frame: meta.start_frame,
            signal_time_s: (meta.start_frame + window_frames as u64) as f64 / rate,
            outcome: WindowOutcome::Classified {
                class: prediction.class,
                logits: prediction.logits,
            },
            latency,
            retries: attempt,
            alarm_active: p.alarm.active(),
            alarm_event,
        });
    }
    // Live gauges: a supervisor scraping mid-run sees each patient's
    // current realtime factor and alarm state instead of waiting for the
    // shutdown-only report.
    if let Some(t) = &p.telemetry {
        t.windows.add(absorbed);
        t.alarm_active.set(if p.alarm.active() { 1.0 } else { 0.0 });
        let secs = run_started.elapsed().as_secs_f64().max(1e-9);
        t.realtime.set((p.frames as f64 / secs) / rate);
    }
}

/// Issues the terminal failure verdicts for a request whose retry budget
/// ran out (or whose error was never retryable). The alarm state machine
/// is *not* advanced — a failed window carries no class, and inventing
/// one would corrupt the debounce counters the alarm rests on.
fn absorb_failure(
    p: &mut PatientSlot,
    metas: Vec<WindowMeta>,
    first_submitted: Instant,
    attempt: u32,
    error: ServeError,
) {
    let latency = first_submitted.elapsed();
    let window_frames = p.session.features_per_window() / p.session.channels();
    let rate = p.source.sample_rate() as f64;
    let failed = metas.len() as u64;
    p.failed_windows += failed;
    for meta in metas {
        p.latencies.push(latency);
        p.verdicts.push(Verdict {
            window: meta.index,
            start_frame: meta.start_frame,
            signal_time_s: (meta.start_frame + window_frames as u64) as f64 / rate,
            outcome: WindowOutcome::Failed(error.clone()),
            latency,
            retries: attempt,
            alarm_active: p.alarm.active(),
            alarm_event: None,
        });
    }
    if let Some(t) = &p.telemetry {
        t.failed.add(failed);
    }
}

/// Closes one patient's books into a report.
fn finish_report(p: &mut PatientSlot, elapsed: Duration, cfg: &RouterConfig) -> PatientReport {
    debug_assert!(p.in_flight.is_empty());
    debug_assert!(p.retry_queue.is_empty());
    let windows = p.verdicts.len() as u64;
    let secs = elapsed.as_secs_f64().max(1e-9);
    p.latencies.sort_unstable();
    let quantile = |q: f64| -> Duration {
        if p.latencies.is_empty() {
            Duration::ZERO
        } else {
            let i = ((p.latencies.len() as f64 * q).ceil() as usize).max(1) - 1;
            p.latencies[i.min(p.latencies.len() - 1)]
        }
    };
    PatientReport {
        id: p.id,
        verdicts: std::mem::take(&mut p.verdicts),
        frames: p.frames,
        windows,
        alarms_raised: p.alarms_raised,
        failed_windows: p.failed_windows,
        retries: p.retries,
        elapsed,
        windows_per_s: windows as f64 / secs,
        realtime_factor: (p.frames as f64 / secs) / p.source.sample_rate() as f64,
        energy_uj_per_window: cfg.energy_nj_per_window / 1e3,
        p50_latency: quantile(0.50),
        p99_latency: quantile(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegmenterConfig, TailPolicy};
    use crate::session::{Normalization, SessionConfig, WindowLayout};
    use rbnn_data::stream::{EcgStream, EcgStreamConfig};
    use rbnn_rram::EngineConfig;
    use rbnn_serve::{demo_network, Backend, ModelRegistry, ServeConfig, ServeTask, Server};

    const WINDOW: usize = 25;
    const FEATURES: usize = 12 * WINDOW;

    fn ecg_source(seed: u64) -> EcgStream {
        EcgStream::new(EcgStreamConfig {
            samples_per_segment: 90,
            seed,
            ..EcgStreamConfig::default()
        })
    }

    fn session(stride: usize) -> Session {
        Session::new(SessionConfig {
            segmenter: SegmenterConfig {
                channels: 12,
                window: WINDOW,
                stride,
                tail: TailPolicy::Drop,
            },
            layout: WindowLayout::ChannelMajor,
            normalization: Normalization::PerWindow,
        })
    }

    fn server() -> (Server, rbnn_binary::BinaryNetwork) {
        let net = demo_network(&[FEATURES, 16, 2], 0x57AE);
        let mut registry = ModelRegistry::new();
        registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(1));
        let config = ServeConfig {
            workers: 2,
            backend: Backend::Software,
            ..Default::default()
        };
        (Server::start(&registry, &config), net)
    }

    #[test]
    fn verdicts_match_direct_network_and_offline_segmentation() {
        let (server, net) = server();
        let client = server.handle().client(ServeTask::Ecg).expect("bound");
        let cfg = RouterConfig {
            chunk_frames: 17, // awkward: windows straddle many chunks
            windows_per_patient: 8,
            ..RouterConfig::default()
        };
        let mut router = StreamRouter::new(client, cfg);
        for id in 0..3 {
            router.add_patient(id, Box::new(ecg_source(40 + id as u64)), session(WINDOW));
        }
        let reports = router.run().expect("run");
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert!(report.windows >= 8, "target reached");
            // Offline oracle: same seed, all frames in one chunk, one
            // Session pass — logits must agree bitwise through the serve
            // path.
            let patient = report.id;
            let mut offline_src = ecg_source(40 + patient as u64);
            let frames =
                rbnn_data::stream::collect_frames(&mut offline_src, report.frames as usize);
            let mut offline_session = session(WINDOW);
            let offline = offline_session.push_chunk(&frames);
            assert!(offline.len() >= report.verdicts.len());
            for (v, w) in report.verdicts.iter().zip(&offline) {
                assert_eq!(v.window, w.meta.index);
                assert_eq!(v.start_frame, w.meta.start_frame);
                let expect = net.logits(&w.features);
                let logits = v.logits().expect("fault-free run classifies everything");
                let got_bits: Vec<u32> = logits.iter().map(|x| x.to_bits()).collect();
                let expect_bits: Vec<u32> = expect.iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    got_bits, expect_bits,
                    "patient {patient} window {}",
                    v.window
                );
                assert_eq!(v.class(), Some(net.classify(&w.features)));
                assert_eq!(v.retries, 0, "fault-free run never retries");
            }
            assert_eq!(report.failed_windows, 0);
            assert_eq!(report.retries, 0);
            // Verdict stream is ordered and gapless.
            for (i, v) in report.verdicts.iter().enumerate() {
                assert_eq!(v.window, i as u64);
            }
            assert!(report.windows_per_s > 0.0);
            assert!(report.realtime_factor > 0.0);
        }
        server.shutdown();
    }

    #[test]
    fn alarm_fields_replay_the_state_machine() {
        let (server, _net) = server();
        let client = server.handle().client(ServeTask::Ecg).expect("bound");
        let cfg = RouterConfig {
            chunk_frames: 100,
            windows_per_patient: 12,
            alarm: AlarmConfig {
                k: 2,
                m: 4,
                positive_class: 1,
            },
            ..RouterConfig::default()
        };
        let mut router = StreamRouter::new(client, cfg);
        router.add_patient(7, Box::new(ecg_source(99)), session(WINDOW));
        let report = router.run().expect("run").remove(0);
        let mut replay = AlarmState::new(AlarmConfig {
            k: 2,
            m: 4,
            positive_class: 1,
        });
        let mut raises = 0u64;
        for v in &report.verdicts {
            let event = replay.update(v.class().expect("fault-free run"));
            if event == Some(AlarmEvent::Raised) {
                raises += 1;
            }
            assert_eq!(v.alarm_event, event);
            assert_eq!(v.alarm_active, replay.active());
        }
        assert_eq!(report.alarms_raised, raises);
        server.shutdown();
    }

    #[test]
    fn live_gauges_surface_on_the_global_registry() {
        let (server, _net) = server();
        let client = server.handle().client(ServeTask::Ecg).expect("bound");
        let cfg = RouterConfig {
            chunk_frames: 100,
            windows_per_patient: 6,
            ..RouterConfig::default()
        };
        let mut router = StreamRouter::new(client, cfg);
        // A patient id no other test uses, so the series are this test's.
        let id = 424_242;
        router.add_patient(id, Box::new(ecg_source(7)), session(WINDOW));
        let report = router.run().expect("run").remove(0);
        let reg = rbnn_telemetry::global();
        let label = format!("patient=\"{id}\"");
        let windows = reg.counter("rbnn_stream_windows_total", &label, "");
        assert_eq!(windows.get(), report.windows);
        let realtime = reg.gauge("rbnn_stream_realtime_factor", &label, "");
        assert!(realtime.get() > 0.0, "live realtime factor must be set");
        let alarm = reg.gauge("rbnn_stream_alarm_active", &label, "");
        let last_active = report.verdicts.last().expect("verdicts").alarm_active;
        assert_eq!(alarm.get() == 1.0, last_active);
        server.shutdown();
    }

    #[test]
    fn rejects_mismatched_patient() {
        let (server, _net) = server();
        let client = server.handle().client(ServeTask::Ecg).expect("bound");
        let mut router = StreamRouter::new(client, RouterConfig::default());
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // One frame too wide: 12·(WINDOW+1) features ≠ the model's
            // 12·WINDOW inputs.
            let wide = Session::new(SessionConfig {
                segmenter: SegmenterConfig {
                    channels: 12,
                    window: WINDOW + 1,
                    stride: WINDOW + 1,
                    tail: TailPolicy::Drop,
                },
                layout: WindowLayout::ChannelMajor,
                normalization: Normalization::PerWindow,
            });
            router.add_patient(0, Box::new(ecg_source(1)), wide);
        }));
        assert!(
            bad.is_err(),
            "wrong window width must be rejected at registration"
        );
        server.shutdown();
    }
}
