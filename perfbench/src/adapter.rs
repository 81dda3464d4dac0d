//! The benchmark's only door into the program under test.
//!
//! Every call the benchmark makes into the repository's crates is made in
//! this module, and each call that crosses into a layer runs inside a
//! [`trace`] span named after that layer, so the traced run attributes
//! time to the layer that spent it. The public program surface the
//! benchmark depends on is exactly:
//!
//! * `rbnn-serve`: `demo_network`, `ModelRegistry::{new, insert}`,
//!   `Server::{start, handle, stats, shutdown}`, `ServeHandle::client`,
//!   `TaskClient::{enqueue, enqueue_shared}`, `Pending::wait`,
//!   `PendingWindow::wait`, and the types `ServeConfig`, `BatchPolicy`,
//!   `AdmissionPolicy`, `Backend`, `ServeTask`, `StatsSnapshot`,
//!   `EngineSnapshot`, `Prediction`, `ServeError`, `TaskClient`.
//!   Of the 14 public submit entry points on `ServeHandle` and
//!   `TaskClient`, the benchmark calls two (`TaskClient::enqueue` and
//!   `TaskClient::enqueue_shared`); the stream router it drives calls a
//!   third (`TaskClient::enqueue_shared_with`).
//! * `rbnn-binary`: `BinaryNetwork::{logits, layers}`.
//! * `rbnn-graph`: `ExecPlan::{compile, buffers, steps, replay_rows,
//!   out_features}`, `PlanBuffers::arena_mut`, `pack_rows`, `Step::Pack`.
//! * `rbnn-rram`: `EngineConfig::test_chip`, `NetworkEngine::{program,
//!   replay_plan, stats, marginal_cells, expected_flips_per_sample}`,
//!   `DenseEngine::{program, popcounts_batch, forward_sign_batch}`,
//!   `energy::{sense_energy_nj, EnergyParams::default_figures}`.
//! * `rbnn-stream`: `StreamRouter::{new, add_patient, run}`,
//!   `Session::{new, push_chunk}`, `Verdict::logits`, and the types
//!   `RouterConfig`, `SessionConfig`, `SegmenterConfig`, `TailPolicy`,
//!   `WindowLayout`, `Normalization`, `AlarmConfig`, `PatientReport`.
//! * `rbnn-data`: `stream::{EcgStream::new, EcgStreamConfig,
//!   collect_frames, SignalSource}`, `ecg::{Electrode, INVERTED}`.
//! * `rbnn-tensor`: `dispatch_report`, `DispatchReport::features_csv`,
//!   `BitVec::from_signs`.
//! * `rbnn-telemetry`: `enabled`.
//!
//! Outside this module the benchmark only reads public fields of the
//! re-exported result types (`StatsSnapshot`, `Prediction`,
//! `PatientReport` and its `Verdict`s) and implements `SignalSource`.

use std::sync::Arc;
use std::time::Duration;

use rbnn_data::ecg::{Electrode, INVERTED};
use rbnn_data::stream::{collect_frames, EcgStream, EcgStreamConfig};
use rbnn_graph::{pack_rows, ExecPlan, PlanBuffers, Step};
use rbnn_rram::energy::{sense_energy_nj, EnergyParams};
use rbnn_rram::{DenseEngine, EngineConfig, NetworkEngine};
use rbnn_serve::{
    AdmissionPolicy, BatchPolicy, ModelRegistry, Pending, PendingWindow, ServeConfig, ServeTask,
    Server, TaskClient,
};
use rbnn_stream::{
    AlarmConfig, Normalization, RouterConfig, SegmenterConfig, Session, SessionConfig,
    StreamRouter, TailPolicy, WindowLayout,
};
use rbnn_tensor::BitVec;

pub use rbnn_binary::BinaryNetwork;
pub use rbnn_data::stream::SignalSource;
pub use rbnn_serve::{Backend, Prediction, ServeError, StatsSnapshot};
pub use rbnn_stream::PatientReport;

use crate::trace;

/// 12-lead ECG at the MIT-BIH-style rate.
pub const CHANNELS: usize = 12;
/// Signal frames per second.
pub const SAMPLE_RATE: f32 = 360.0;
/// 1-second windows with 50% overlap.
pub const WINDOW: usize = 360;
/// Frames between window starts.
pub const STRIDE: usize = 180;
/// Frames the stream router pulls from a source per poll.
pub const CHUNK_FRAMES: usize = 120;
/// Uncollected window requests allowed per patient.
pub const MAX_IN_FLIGHT: usize = 4;

/// A seeded random-weight classifier with the given layer widths.
pub fn demo_model(dims: &[usize], seed: u64) -> BinaryNetwork {
    rbnn_serve::demo_network(dims, seed)
}

/// The single-sample scalar oracle every served result is checked against.
pub fn oracle_logits(net: &BinaryNetwork, row: &[f32]) -> Vec<f32> {
    net.logits(row)
}

/// How a serve pool is configured.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Evaluation substrate.
    pub backend: Backend,
    /// Worker threads (engine replicas).
    pub workers: usize,
    /// Most requests the batcher merges into one dispatch.
    pub max_batch: usize,
    /// Device seed of the RRAM fabric (also salts the replicas).
    pub engine_seed: u64,
}

/// A running serve pool bound to the ECG task.
pub struct Pool {
    server: Server,
    client: TaskClient,
}

/// A submitted, not yet answered request.
pub enum Ticket {
    /// A single-sample request.
    One(Pending),
    /// A multi-sample window request.
    Window(PendingWindow),
}

impl Pool {
    /// Starts a pool serving `net` for the ECG task.
    pub fn start(net: &BinaryNetwork, cfg: &PoolConfig) -> Self {
        let mut registry = ModelRegistry::new();
        registry.insert(
            ServeTask::Ecg,
            net.clone(),
            EngineConfig::test_chip(cfg.engine_seed),
        );
        let config = ServeConfig {
            workers: cfg.workers,
            backend: cfg.backend,
            batch: BatchPolicy {
                max_batch: cfg.max_batch,
                max_delay: Duration::from_micros(250),
            },
            queue_capacity: 4096,
            seed: cfg.engine_seed,
            engine_threads: 1,
            admission: AdmissionPolicy::Shed,
            ..ServeConfig::default()
        };
        let server = trace::span("serve.start", || Server::start(&registry, &config));
        let client = server
            .handle()
            .client(ServeTask::Ecg)
            .expect("the registry holds the ECG task");
        Self { server, client }
    }

    /// Submits one sample (the copy into an owned request is not part of
    /// the submit span: the call takes ownership of a `Vec`).
    pub fn submit_one(&self, row: &[f32]) -> Result<Ticket, ServeError> {
        let features = row.to_vec();
        trace::span("serve.submit", || self.client.enqueue(features)).map(Ticket::One)
    }

    /// Submits a shared window of samples without copying it.
    pub fn submit_window(&self, rows: &Arc<Vec<Vec<f32>>>) -> Result<Ticket, ServeError> {
        let rows = Arc::clone(rows);
        trace::span("serve.submit", || self.client.enqueue_shared(rows)).map(Ticket::Window)
    }

    /// Point-in-time server statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.server.stats()
    }

    /// Stops intake, drains and joins the workers.
    pub fn shutdown(self) -> StatsSnapshot {
        self.server.shutdown()
    }
}

impl Ticket {
    /// Blocks until the pool answers, one prediction per sample.
    pub fn wait(self) -> Result<Vec<Prediction>, ServeError> {
        trace::span("serve.wait", || match self {
            Ticket::One(p) => p.wait().map(|one| vec![one]),
            Ticket::Window(p) => p.wait(),
        })
    }
}

/// Summed PCSA senses of every replica in a stats snapshot.
pub fn pool_senses(stats: &StatsSnapshot) -> u64 {
    stats.engines.iter().map(|e| e.senses).sum()
}

/// Microjoules spent by `senses` PCSA reads.
pub fn sense_energy_uj(senses: u64) -> f64 {
    sense_energy_nj(senses, &EnergyParams::default_figures()) / 1e3
}

/// The live synthetic ECG stream of one patient. Odd patients get their
/// arm electrodes swapped from the fourth synthesis segment on, the
/// event the paper's classifier detects.
pub fn ecg_stream(seed: u64, patient: usize) -> EcgStream {
    let mut cfg = EcgStreamConfig {
        samples_per_segment: 1080,
        sample_rate: SAMPLE_RATE,
        seed: seed ^ (0xCA8E_0000 + patient as u64),
        ..EcgStreamConfig::default()
    };
    if patient % 2 == 1 {
        cfg.swap = Some((Electrode::Ra, Electrode::La));
        cfg.swap_from_segment = 3;
    }
    EcgStream::new(cfg)
}

/// The first `frames` frames of a patient's stream, channel-interleaved.
pub fn ecg_recording(seed: u64, patient: usize, frames: usize) -> Vec<f32> {
    collect_frames(&mut ecg_stream(seed, patient), frames)
}

/// A fresh per-patient segmentation and featurization session.
pub fn session() -> Session {
    Session::new(SessionConfig {
        segmenter: SegmenterConfig {
            channels: CHANNELS,
            window: WINDOW,
            stride: STRIDE,
            tail: TailPolicy::Drop,
        },
        layout: WindowLayout::ChannelMajor,
        normalization: Normalization::PerWindow,
    })
}

/// Feeds frames through a session; returns each completed window's
/// features, in stream order.
pub fn featurize(session: &mut Session, frames: &[f32]) -> Vec<Vec<f32>> {
    trace::span("stream.featurize", || session.push_chunk(frames))
        .into_iter()
        .map(|w| w.features)
        .collect()
}

/// Streams every source through a fresh router into `pool` until each
/// patient has submitted `windows_per_patient` windows; one report per
/// source, in order.
pub fn run_router(
    pool: &Pool,
    sources: Vec<Box<dyn SignalSource + Send>>,
    windows_per_patient: u64,
) -> Result<Vec<PatientReport>, ServeError> {
    let mut router = StreamRouter::new(
        pool.client.clone(),
        RouterConfig {
            chunk_frames: CHUNK_FRAMES,
            max_in_flight: MAX_IN_FLIGHT,
            windows_per_patient,
            alarm: AlarmConfig {
                k: 3,
                m: 5,
                positive_class: INVERTED,
            },
            ..RouterConfig::default()
        },
    );
    for (id, source) in sources.into_iter().enumerate() {
        router.add_patient(id, source, session());
    }
    trace::span("stream.router.run", || router.run())
}

/// Logits of a streamed verdict, or `None` for a failed window.
pub fn verdict_logits(report: &PatientReport, i: usize) -> Option<&[f32]> {
    report.verdicts[i].logits()
}

/// A compiled execution plan with its replay storage.
pub struct Plan {
    plan: ExecPlan,
    buffers: PlanBuffers,
    out: Vec<f32>,
}

impl Plan {
    /// Compiles `net` for batches of up to `capacity` rows.
    pub fn compile(net: &BinaryNetwork, capacity: usize) -> Self {
        let plan = trace::span("graph.compile", || ExecPlan::compile(net, capacity));
        let buffers = plan.buffers();
        let out = vec![0.0; capacity * plan.out_features()];
        Self { plan, buffers, out }
    }

    /// Packs the rows' sign bits into the plan's input region (the plan's
    /// first step, run on its own).
    pub fn pack(&mut self, rows: &[&[f32]]) {
        let Some(Step::Pack { dst }) = self.plan.steps().first() else {
            panic!("a compiled plan starts with its pack step");
        };
        let arena = self.buffers.arena_mut();
        trace::span("graph.pack", || pack_rows(rows, dst, arena));
    }

    /// Replays the whole plan in software; returns the logits, row-major.
    pub fn replay(&mut self, rows: &[&[f32]]) -> &[f32] {
        let n = rows.len() * self.plan.out_features();
        let (plan, buffers, out) = (&self.plan, &mut self.buffers, &mut self.out[..n]);
        trace::span("graph.replay", || plan.replay_rows(rows, buffers, out));
        &self.out[..n]
    }

    /// Replays the plan on an RRAM fabric; returns the logits, row-major.
    pub fn replay_on(&mut self, fabric: &mut NetworkEngine, rows: &[&[f32]]) -> &[f32] {
        let n = rows.len() * self.plan.out_features();
        let (plan, buffers, out) = (&self.plan, &mut self.buffers, &mut self.out[..n]);
        trace::span("rram.replay", || {
            fabric.replay_plan(plan, rows, buffers, out)
        });
        &self.out[..n]
    }
}

/// Programs `net` onto fresh test-chip fabric.
pub fn program_fabric(net: &BinaryNetwork, seed: u64) -> NetworkEngine {
    let chip = EngineConfig::test_chip(seed);
    trace::span("rram.program", || NetworkEngine::program(net, &chip))
}

/// Programs each layer of `net` onto its own fresh fabric, seeded as
/// [`NetworkEngine::program`] seeds its layers, for per-layer sweeps.
pub fn program_layers(net: &BinaryNetwork, seed: u64) -> Vec<DenseEngine> {
    net.layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            DenseEngine::program(
                layer,
                &EngineConfig::test_chip(seed.wrapping_add(1 + i as u64)),
            )
        })
        .collect()
}

/// Each layer's packed input for `rows`: the sign bits of the features
/// for layer 0, then each layer's sensed sign outputs for the next.
pub fn layer_inputs(layers: &mut [DenseEngine], rows: &[&[f32]]) -> Vec<Vec<BitVec>> {
    let mut inputs = vec![rows
        .iter()
        .map(|r| BitVec::from_signs(r))
        .collect::<Vec<_>>()];
    let hidden = layers.len().saturating_sub(1);
    for layer in &mut layers[..hidden] {
        let next = layer.forward_sign_batch(inputs.last().expect("layer 0 input"));
        inputs.push(next);
    }
    inputs
}

/// One batched sense sweep of one layer.
pub fn sense_layer(layer: &mut DenseEngine, index: usize, xs: &[BitVec]) {
    const NAMES: [&str; 2] = ["rram.sense.l0", "rram.sense.l1"];
    let name = NAMES.get(index).copied().unwrap_or("rram.sense.deep");
    trace::span(name, || std::hint::black_box(layer.popcounts_batch(xs)));
}

/// PCSA senses performed by a fabric so far.
pub fn fabric_senses(fabric: &NetworkEngine) -> u64 {
    fabric.stats().senses
}

/// Cells of a fabric in the marginal (Monte-Carlo) band.
pub fn marginal_cells(fabric: &NetworkEngine) -> usize {
    fabric.marginal_cells()
}

/// Expected sense flips per classified sample on a fabric.
pub fn expected_flips_per_sample(fabric: &NetworkEngine) -> f64 {
    fabric.expected_flips_per_sample()
}

/// The kernel-dispatch decisions of this host, as one line.
pub fn dispatch_summary() -> String {
    let r = rbnn_tensor::dispatch_report();
    format!(
        "popcount={} pack={} gemm={} forced_scalar={} features={}",
        r.popcount,
        r.pack,
        r.gemm,
        r.forced_scalar,
        r.features_csv()
    )
}

/// Whether the program's own telemetry is recording.
pub fn telemetry_enabled() -> bool {
    rbnn_telemetry::enabled()
}
