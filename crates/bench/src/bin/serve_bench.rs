//! Load generator for the `rbnn-serve` runtime.
//!
//! Drives a pool of engine replicas with pipelined concurrent clients and
//! reports throughput plus latency percentiles. "Batch size N" means the
//! system processes N samples per dispatch end to end: clients submit
//! N-sample window requests ([`rbnn_serve::TaskClient::enqueue_shared`]) and each
//! worker dispatch evaluates one window through the batched kernels —
//! batch size 1 is therefore exactly the single-sample serving the
//! workspace had before this subsystem. A separate row shows the
//! server-side merge path (single-sample requests coalesced by the
//! adaptive batcher) for clients that cannot batch.
//!
//! Acceptance experiments:
//!
//! * software backend — with a 4-engine pool on the ECG classifier,
//!   batch 64 must clear ≥4× the throughput of batch 1, p99 reported;
//! * RRAM backend — margin-gated sensing must hold the deployed ECG
//!   classifier at ≥2100 samples/s — 50× the ~42 samples/s the ungated
//!   Monte-Carlo path managed (measured at paper scale, the only scale it
//!   could finish at; the deployed model is ~6× smaller, so the floor is
//!   conservative) — fresh devices, any core count.
//!
//! Usage: `cargo run --release --bin serve_bench [--quick|--full]
//! [--strict] [--rram-strict]`. `--strict` exits non-zero when the ≥4×
//! software acceptance fails — for gating on dedicated hardware;
//! wall-clock *ratios* on shared/1-core machines vary. `--rram-strict`
//! gates the RRAM floor, which is CPU-cheap enough to hold on shared CI
//! runners (the margin-gated path is the regression being guarded).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use rbnn_bench::{
    banner, emit_bench_with_dispatch, host_cores, parse_scale_with, report_overhead_gate,
    telemetry_overhead_pair, RunScale,
};
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, AdmissionPolicy, Backend, BatchPolicy, ModelRegistry, ServeConfig, ServeTask,
    Server,
};

/// One measured operating point.
#[derive(Debug, Clone, Serialize)]
struct OperatingPoint {
    label: String,
    backend: String,
    batch_size: usize,
    workers: usize,
    clients: usize,
    samples: u64,
    samples_per_s: f64,
    mean_dispatch: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    senses: u64,
}

/// Full archive of one serve_bench run (the payload inside the standard
/// [`rbnn_bench::BenchEnvelope`]).
#[derive(Debug, Clone, Serialize)]
struct ServeBenchResult {
    task: String,
    points: Vec<OperatingPoint>,
    speedup_batch64_vs_1: f64,
    /// Deployed-model RRAM throughput at batch 64 (margin-gated path).
    rram_deployed_samples_per_s: f64,
    /// Throughput with telemetry globally disabled / enabled (overhead gate).
    telemetry_disabled_samples_per_s: f64,
    telemetry_enabled_samples_per_s: f64,
    telemetry_overhead_ok: bool,
}

/// Floor for the deployed-model RRAM operating point under
/// `--rram-strict`: 50× the ~42 samples/s the ungated three-draw
/// Monte-Carlo sampler reached on a 1-core container. That baseline was
/// measured at paper scale (2520→80→2; the deployed RRAM point was never
/// measurable before gating) — the deployed model is ~6× smaller, which
/// only makes the floor more conservative.
const RRAM_FLOOR_SAMPLES_PER_S: f64 = 2_100.0;

/// Drives the server with `clients` pipelined clients submitting
/// `samples_per_request`-sample windows until each has pushed
/// `samples_per_client` samples; `max_batch` is the server-side merge
/// ceiling in requests.
#[allow(clippy::too_many_arguments)]
fn drive(
    label: &str,
    registry: &ModelRegistry,
    backend: Backend,
    samples_per_request: usize,
    max_batch: usize,
    workers: usize,
    clients: usize,
    samples_per_client: usize,
) -> OperatingPoint {
    let config = ServeConfig {
        workers,
        backend,
        batch: BatchPolicy {
            max_batch,
            max_delay: Duration::from_micros(250),
        },
        // Smaller than the total outstanding window: the bench measures the
        // server *at capacity*, with producers held back by backpressure —
        // the regime where batch formation is the throughput lever.
        queue_capacity: 1024,
        seed: 0xBEEF,
        engine_threads: 1,
        // The bench deliberately saturates the queue and leans on
        // backpressure; load shedding would turn that into rejections.
        admission: AdmissionPolicy::Block,
        ..Default::default()
    };
    let server = Server::start(registry, &config);
    let width = registry
        .in_features(ServeTask::Ecg)
        .expect("ECG registered");
    // Keep ~256 samples outstanding per client regardless of request size.
    let window_requests = (256 / samples_per_request).max(1);
    let requests_per_client = (samples_per_client / samples_per_request).max(1);

    let t0 = Instant::now();
    let client_threads: Vec<_> = (0..clients)
        .map(|c| {
            let client = server
                .handle()
                .client(ServeTask::Ecg)
                .expect("ECG registered");
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC11E47 + c as u64);
                // Pre-generated shared request pool: feature synthesis and
                // request copying must not be the bottleneck being
                // measured, so windows are submitted zero-copy.
                let pool: Vec<std::sync::Arc<Vec<Vec<f32>>>> = (0..8)
                    .map(|_| {
                        std::sync::Arc::new(
                            (0..samples_per_request)
                                .map(|_| (0..width).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                                .collect(),
                        )
                    })
                    .collect();
                let mut in_flight = std::collections::VecDeque::new();
                for i in 0..requests_per_client {
                    if in_flight.len() >= window_requests {
                        let oldest: rbnn_serve::PendingWindow =
                            in_flight.pop_front().expect("non-empty window");
                        let _ = oldest.wait().expect("served");
                    }
                    let rows = std::sync::Arc::clone(&pool[i % pool.len()]);
                    in_flight.push_back(client.enqueue_shared(rows).expect("queued"));
                }
                for pending in in_flight {
                    let _ = pending.wait().expect("served");
                }
            })
        })
        .collect();
    for t in client_threads {
        t.join().expect("client thread");
    }
    let elapsed = t0.elapsed();
    let snap = server.shutdown();
    let samples = snap.engines.iter().map(|e| e.samples).sum::<u64>();
    OperatingPoint {
        label: label.to_string(),
        backend: format!("{backend:?}"),
        batch_size: samples_per_request * max_batch,
        workers,
        clients,
        samples,
        samples_per_s: samples as f64 / elapsed.as_secs_f64(),
        mean_dispatch: snap.mean_batch,
        p50_us: snap.p50.as_secs_f64() * 1e6,
        p95_us: snap.p95.as_secs_f64() * 1e6,
        p99_us: snap.p99.as_secs_f64() * 1e6,
        senses: snap.engines.iter().map(|e| e.senses).sum(),
    }
}

fn print_point(p: &OperatingPoint) {
    println!(
        "{:<26} {:>10.0} samples/s  mean dispatch {:>6.1}  p50 {:>8.0}µs  p95 {:>8.0}µs  p99 {:>8.0}µs{}",
        p.label,
        p.samples_per_s,
        p.mean_dispatch,
        p.p50_us,
        p.p95_us,
        p.p99_us,
        if p.senses > 0 { format!("  senses {}", p.senses) } else { String::new() }
    );
}

fn main() {
    let (scale, flags) = parse_scale_with(&["--strict", "--rram-strict"]);
    let strict = flags[0];
    let rram_strict = flags[1];
    banner(
        "serve_bench — batched multi-engine serving throughput (ECG classifier)",
        scale,
    );
    let cores = host_cores();
    println!("host parallelism: {cores} core(s)");

    // Two ECG classifier scales: the shape this repo's own pipeline deploys
    // at laptop (`Quick`) scale — flatten 408 → 75 → 2, exactly what
    // `examples/serving.rs` exports — and the paper's Table I shape
    // (2520 → 80 → 2).
    let mut deployed = ModelRegistry::new();
    deployed.insert(
        ServeTask::Ecg,
        demo_network(&[408, 75, 2], 0xD47E),
        EngineConfig::test_chip(1),
    );
    let mut paper = ModelRegistry::new();
    paper.insert(
        ServeTask::Ecg,
        demo_network(&[2520, 80, 2], 0xD47E),
        EngineConfig::test_chip(2),
    );

    let workers = 4;
    let clients = 16;
    // Margin-gated sensing lets the RRAM rows run real sample counts
    // (the ungated sampler managed ~42 samples/s and was capped at 64
    // samples per client to finish at all).
    let (samples_per_client, rram_samples) = match scale {
        RunScale::Quick => (60_000usize, 2_000usize),
        RunScale::Full => (300_000, 10_000),
    };

    let mut points = Vec::new();
    println!(
        "\ndeployed ECG classifier 408→75→2 (software backend, {workers}-engine pool, \
         {clients} pipelined clients):"
    );
    for batch in [1usize, 8, 64, 256] {
        let p = drive(
            &format!("batch {batch}"),
            &deployed,
            Backend::Software,
            batch,
            1,
            workers,
            clients,
            samples_per_client,
        );
        print_point(&p);
        points.push(p);
    }
    // Server-side merge: clients that cannot batch still get engine
    // batches through the adaptive batcher.
    let merge = drive(
        "server merge ≤64",
        &deployed,
        Backend::Software,
        1,
        64,
        workers,
        clients,
        samples_per_client,
    );
    print_point(&merge);

    let t1 = points[0].samples_per_s;
    let t64 = points[2].samples_per_s;
    let speedup = t64 / t1;
    println!("\nspeedup batch 64 vs batch 1: {speedup:.1}×");
    let accepted = speedup >= 4.0;
    if accepted {
        println!("acceptance: PASS (≥4× with a {workers}-engine pool)");
    } else {
        println!("acceptance: FAIL (<4×)");
    }
    points.push(merge);

    println!("\npaper-scale ECG classifier 2520→80→2 (software backend):");
    for batch in [1usize, 64] {
        let p = drive(
            &format!("paper batch {batch}"),
            &paper,
            Backend::Software,
            batch,
            1,
            workers,
            clients,
            samples_per_client / 4,
        );
        print_point(&p);
        points.push(p);
    }

    println!("\nrram backend, deployed model (margin-gated PCSA senses; {workers}-engine pool):");
    let mut rram_deployed_64 = 0.0f64;
    for batch in [1usize, 64] {
        let p = drive(
            &format!("rram deployed batch {batch}"),
            &deployed,
            Backend::Rram,
            batch,
            1,
            workers,
            clients,
            rram_samples,
        );
        print_point(&p);
        if batch == 64 {
            rram_deployed_64 = p.samples_per_s;
        }
        points.push(p);
    }
    let rram_accepted = rram_deployed_64 >= RRAM_FLOOR_SAMPLES_PER_S;
    println!(
        "rram acceptance (deployed, batch 64): {} ({:.0} samples/s vs \
         {RRAM_FLOOR_SAMPLES_PER_S:.0} floor = 50× the ungated sampler)",
        if rram_accepted { "PASS" } else { "FAIL" },
        rram_deployed_64
    );

    println!("\nrram backend, paper scale (margin-gated PCSA senses; {workers}-engine pool):");
    for batch in [1usize, 64] {
        let p = drive(
            &format!("rram paper batch {batch}"),
            &paper,
            Backend::Rram,
            batch,
            1,
            workers,
            clients,
            rram_samples,
        );
        print_point(&p);
        points.push(p);
    }

    // Telemetry overhead gate: the same batch-64 operating point with the
    // global telemetry switch off, then on. Enabled must stay within 5%.
    println!();
    let (overhead_disabled, overhead_enabled) = telemetry_overhead_pair(|| {
        drive(
            "overhead probe",
            &deployed,
            Backend::Software,
            64,
            1,
            workers,
            clients,
            samples_per_client / 4,
        )
        .samples_per_s
    });
    let overhead_ok = report_overhead_gate("batch 64", overhead_disabled, overhead_enabled, 0.05);

    emit_bench_with_dispatch(
        "serve_bench",
        scale,
        Some(accepted && rram_accepted && overhead_ok),
        &ServeBenchResult {
            task: "ecg".into(),
            points,
            speedup_batch64_vs_1: speedup,
            rram_deployed_samples_per_s: rram_deployed_64,
            telemetry_disabled_samples_per_s: overhead_disabled,
            telemetry_enabled_samples_per_s: overhead_enabled,
            telemetry_overhead_ok: overhead_ok,
        },
    );

    if (strict && !(accepted && overhead_ok)) || (rram_strict && !rram_accepted) {
        std::process::exit(1);
    }
}
