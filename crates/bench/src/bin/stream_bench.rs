//! Monitoring-fleet gate for the `rbnn-stream` + `rbnn-serve` pipeline.
//!
//! Simulates a monitoring fleet: N concurrent synthetic patients, each an
//! unbounded seeded 12-lead ECG stream at an MIT-BIH-style 360 Hz, cut
//! into 1-second sliding windows (50% overlap) by per-patient sessions
//! and fanned through one serve pool by a [`rbnn_stream::StreamRouter`].
//! Half the fleet suffers an electrode swap mid-stream, exercising the
//! debounced K-of-M alarm machine (and, under chaos, the urgent lane).
//!
//! Five phases share one fleet harness and one router configuration;
//! `--strict` exits non-zero if any gate fails (CI runs `--quick
//! --strict`):
//!
//! 1. **Software fleet** — every patient's achieved frame rate must be
//!    ≥ its 360 Hz sampling rate with ≥ 64 concurrent streams; the worst
//!    per-patient p99 window-to-verdict latency must stay ≤ 250 ms; the
//!    run must be clean (0 failed windows, 0 retries) with the chaos hook
//!    never armed; and streamed-window logits must equal offline batch
//!    classification ([`rbnn_graph::logits_rows`]) of the same windows
//!    bit for bit. `bench_results/telemetry.json` is archived here.
//! 2. **RRAM energy fleet** (not gated) — the margin-gated sense path,
//!    reporting *measured* per-read energy
//!    ([`rbnn_rram::energy::sense_energy_nj`] over the pool's sense
//!    counters) next to the model estimate.
//! 3. **Telemetry overhead** — a quarter-size software fleet with the
//!    global switch off, then on; enabled must stay within 5%.
//! 4. **Software chaos** — ≥ 64 patients while an armed [`ChaosPlan`]
//!    panics, stalls and transiently fails a seeded fraction of engine
//!    dispatches. Every patient must hold ≥ 1× realtime, every submitted
//!    window must reach a terminal verdict (zero lost requests), the
//!    failure fraction must stay ≤ 5%, the plan must have fired, and the
//!    supervisor must have respawned every panicked replica within the
//!    backoff budget.
//! 5. **Fabric drift** — a one-shot endurance-drift episode on an RRAM
//!    fleet must degrade one replica to the software fallback while
//!    service continues with zero lost requests.
//!
//! Usage: `cargo run --release --bin stream_bench [--quick|--full]
//! [--strict]`. Results are archived to `bench_results/stream_bench.json`.

use std::time::Duration;

use serde::Serialize;

use rbnn_bench::{
    banner, emit_bench_with_dispatch, host_cores, parse_scale_with, report_overhead_gate,
    results_dir, telemetry_overhead_pair, RunScale,
};
use rbnn_data::ecg::{Electrode, INVERTED};
use rbnn_data::stream::{collect_frames, EcgStream, EcgStreamConfig};
use rbnn_rram::energy::{estimate_network, sense_energy_nj, EnergyParams};
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, Backend, ChaosPlan, FleetHealth, ModelRegistry, RetryPolicy, ServeConfig,
    ServeTask, Server, StatsSnapshot,
};
use rbnn_stream::{
    AlarmConfig, Normalization, PatientReport, RouterConfig, SegmenterConfig, Session,
    SessionConfig, StreamRouter, TailPolicy, WindowLayout,
};
use rbnn_telemetry::SpanRecord;

/// 12-lead ECG at the MIT-BIH-style rate the acceptance gate names.
const SAMPLE_RATE: f32 = 360.0;
const CHANNELS: usize = 12;
/// 1-second windows, 50% overlap.
const WINDOW: usize = 360;
const STRIDE: usize = 180;

/// Patient source seeds of the fault-free phases (1–3).
const STREAM_SEEDS: u64 = 0xCA8E_0000;
/// Patient source seeds of the chaos and drift phases (4–5).
const CHAOS_SEEDS: u64 = 0xC4A0_0000;

/// Worst acceptable per-patient p99 window-to-verdict latency.
const P99_FLOOR: Duration = Duration::from_millis(250);
/// Worst tolerated terminal-failure fraction under chaos: retries are
/// expected to absorb almost every injected fault.
const MAX_FAILED_FRACTION: f64 = 0.05;
/// Worst tolerated fault → respawn delay (supervisor backoff budget plus
/// scheduling slack).
const RESPAWN_BUDGET: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Serialize)]
struct PatientRow {
    id: usize,
    windows: u64,
    frames: u64,
    windows_per_s: f64,
    realtime_factor: f64,
    p50_us: f64,
    p99_us: f64,
    alarms_raised: u64,
    failed_windows: u64,
    retries: u64,
    energy_uj_per_window: f64,
}

#[derive(Debug, Clone, Serialize)]
struct FleetSummary {
    backend: String,
    patients: usize,
    total_windows: u64,
    total_frames: u64,
    failed_windows: u64,
    retries: u64,
    elapsed_s: f64,
    fleet_windows_per_s: f64,
    min_realtime_factor: f64,
    max_p99_us: f64,
    alarms_raised: u64,
    /// Model-estimated inference energy per window (µJ).
    energy_uj_per_window_model: f64,
    /// Measured per-read energy per window from the pool's PCSA sense
    /// counters (µJ; 0 on the software backend, which senses nothing).
    energy_uj_per_window_measured: f64,
    faults: u64,
    respawns: u64,
    max_respawn_delay_ms: f64,
    degraded_replicas: u64,
    rows: Vec<PatientRow>,
}

#[derive(Debug, Clone, Serialize)]
struct ChaosResult {
    fleet: FleetSummary,
    dispatches: u64,
    panic_per_mille: u16,
    stall_per_mille: u16,
    transient_per_mille: u16,
    realtime_ok: bool,
    no_lost_ok: bool,
    failed_fraction: f64,
    failed_ok: bool,
    fired_ok: bool,
    recovered_ok: bool,
    drift: FleetSummary,
    drift_degraded_ok: bool,
    drift_no_lost_ok: bool,
}

impl ChaosResult {
    fn ok(&self) -> bool {
        self.realtime_ok
            && self.no_lost_ok
            && self.failed_ok
            && self.fired_ok
            && self.recovered_ok
            && self.drift_degraded_ok
            && self.drift_no_lost_ok
    }
}

#[derive(Debug, Clone, Serialize)]
struct StreamBenchResult {
    task: String,
    sample_rate_hz: f32,
    window_frames: usize,
    stride_frames: usize,
    software: FleetSummary,
    rram: FleetSummary,
    parity_windows_checked: u64,
    parity_ok: bool,
    clean_ok: bool,
    realtime_ok: bool,
    latency_ok: bool,
    /// Fleet throughput with telemetry globally disabled / enabled
    /// (overhead gate).
    telemetry_disabled_windows_per_s: f64,
    telemetry_enabled_windows_per_s: f64,
    telemetry_overhead_ok: bool,
    chaos: ChaosResult,
}

fn patient_source(seed_base: u64, id: usize) -> EcgStream {
    let mut cfg = EcgStreamConfig {
        samples_per_segment: 1080, // 3 s of signal per synthesis step
        sample_rate: SAMPLE_RATE,
        seed: seed_base + id as u64,
        ..EcgStreamConfig::default()
    };
    // Half the fleet gets its arm electrodes swapped mid-run — the
    // streaming version of the event the paper's classifier detects.
    if id % 2 == 1 {
        cfg.swap = Some((Electrode::Ra, Electrode::La));
        cfg.swap_from_segment = 3;
    }
    EcgStream::new(cfg)
}

fn patient_session() -> Session {
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

/// Everything one fleet run leaves behind.
struct FleetRun {
    backend: Backend,
    reports: Vec<PatientReport>,
    stats: StatsSnapshot,
    /// Read before shutdown: the supervisor dies with the server.
    health: FleetHealth,
    /// Sampled request-lifecycle spans, read before the worker pool (and
    /// its ring) is torn down.
    spans: Vec<SpanRecord>,
}

fn run_fleet(
    registry: &ModelRegistry,
    backend: Backend,
    seed_base: u64,
    patients: usize,
    windows_per_patient: u64,
    router: &RouterConfig,
) -> FleetRun {
    let server = Server::start(
        registry,
        &ServeConfig {
            workers: 4,
            backend,
            ..Default::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let mut router = StreamRouter::new(
        client,
        RouterConfig {
            windows_per_patient,
            ..router.clone()
        },
    );
    for id in 0..patients {
        router.add_patient(
            id,
            Box::new(patient_source(seed_base, id)),
            patient_session(),
        );
    }
    let reports = router.run().expect("streaming run");
    let spans = server.span_samples();
    let health = server.handle().fleet_health();
    let stats = server.shutdown();
    FleetRun {
        backend,
        reports,
        stats,
        health,
        spans,
    }
}

fn summarize(run: &FleetRun) -> FleetSummary {
    let reports = &run.reports;
    let senses: u64 = run.stats.engines.iter().map(|e| e.senses).sum();
    let elapsed_s = reports[0].elapsed.as_secs_f64();
    let total_windows: u64 = reports.iter().map(|r| r.windows).sum();
    FleetSummary {
        backend: format!("{:?}", run.backend),
        patients: reports.len(),
        total_windows,
        total_frames: reports.iter().map(|r| r.frames).sum(),
        failed_windows: reports.iter().map(|r| r.failed_windows).sum(),
        retries: reports.iter().map(|r| r.retries).sum(),
        elapsed_s,
        fleet_windows_per_s: total_windows as f64 / elapsed_s.max(1e-9),
        min_realtime_factor: reports
            .iter()
            .map(|r| r.realtime_factor)
            .fold(f64::INFINITY, f64::min),
        max_p99_us: reports
            .iter()
            .map(|r| r.p99_latency.as_secs_f64() * 1e6)
            .fold(0.0, f64::max),
        alarms_raised: reports.iter().map(|r| r.alarms_raised).sum(),
        energy_uj_per_window_model: reports[0].energy_uj_per_window,
        energy_uj_per_window_measured: if total_windows > 0 {
            sense_energy_nj(senses, &EnergyParams::default_figures()) / 1e3 / total_windows as f64
        } else {
            0.0
        },
        faults: run.health.faults,
        respawns: run.health.respawns,
        max_respawn_delay_ms: run
            .health
            .max_respawn_delay
            .map_or(0.0, |d| d.as_secs_f64() * 1e3),
        degraded_replicas: run.health.degraded as u64,
        rows: reports
            .iter()
            .map(|r| PatientRow {
                id: r.id,
                windows: r.windows,
                frames: r.frames,
                windows_per_s: r.windows_per_s,
                realtime_factor: r.realtime_factor,
                p50_us: r.p50_latency.as_secs_f64() * 1e6,
                p99_us: r.p99_latency.as_secs_f64() * 1e6,
                alarms_raised: r.alarms_raised,
                failed_windows: r.failed_windows,
                retries: r.retries,
                energy_uj_per_window: r.energy_uj_per_window,
            })
            .collect(),
    }
}

/// Zero lost requests: every submitted window reached a terminal verdict
/// and every patient hit its window target.
fn no_lost_requests(reports: &[PatientReport], windows_per_patient: u64) -> bool {
    reports
        .iter()
        .all(|r| r.windows == r.verdicts.len() as u64 && r.windows >= windows_per_patient)
}

/// Prints the worst sampled request span — the telemetry view of the
/// fleet's p99 tail, decomposed into its lifecycle phases — and returns
/// it for the archive.
fn report_worst_span(spans: &[SpanRecord]) -> Option<SpanRecord> {
    let worst = *spans.iter().max_by_key(|s| s.total())?;
    println!(
        "worst sampled span ({} of {} sampled): total {:>7.0}µs = queue {:>7.0}µs + \
         batch {:>7.0}µs + service {:>7.0}µs ({} dominated)",
        worst.samples,
        spans.len(),
        worst.total().as_secs_f64() * 1e6,
        worst.queue_wait.as_secs_f64() * 1e6,
        worst.batch_wait.as_secs_f64() * 1e6,
        worst.service.as_secs_f64() * 1e6,
        worst.dominant_phase(),
    );
    Some(worst)
}

/// Archives `bench_results/telemetry.json`: the global registry snapshot
/// plus the span decomposition of the software fleet's worst window. The
/// snapshot's own JSON renderer is used verbatim so the file stays pinned
/// to the `rbnn-telemetry` exposition format.
fn archive_telemetry(spans: &[SpanRecord], worst: Option<&SpanRecord>) {
    let mut out = String::from("{\"bench\":\"stream_bench\",\"worst_span_us\":");
    match worst {
        Some(w) => out.push_str(&format!(
            "{{\"queue_wait\":{:.3},\"batch_wait\":{:.3},\"service\":{:.3},\"total\":{:.3},\"samples\":{}}}",
            w.queue_wait.as_secs_f64() * 1e6,
            w.batch_wait.as_secs_f64() * 1e6,
            w.service.as_secs_f64() * 1e6,
            w.total().as_secs_f64() * 1e6,
            w.samples,
        )),
        None => out.push_str("null"),
    }
    out.push_str(&format!(",\"sampled_spans\":{}", spans.len()));
    out.push_str(",\"snapshot\":");
    out.push_str(&rbnn_telemetry::global().snapshot().to_json());
    out.push('}');
    let path = results_dir().join("telemetry.json");
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("(telemetry archived to {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Offline oracle: re-derive every patient's windows from a fresh source
/// in one buffered pass, classify them as one batch, and compare logits
/// bit for bit against the streamed verdicts.
fn check_parity(
    net: &rbnn_binary::BinaryNetwork,
    seed_base: u64,
    reports: &[PatientReport],
) -> (u64, bool) {
    let mut checked = 0u64;
    for report in reports {
        let mut source = patient_source(seed_base, report.id);
        let frames = collect_frames(&mut source, report.frames as usize);
        let offline = patient_session().push_chunk(&frames);
        if offline.len() < report.verdicts.len() {
            eprintln!(
                "parity: patient {} produced {} offline windows vs {} streamed",
                report.id,
                offline.len(),
                report.verdicts.len()
            );
            return (checked, false);
        }
        let rows: Vec<&[f32]> = offline
            .iter()
            .take(report.verdicts.len())
            .map(|w| w.features.as_slice())
            .collect();
        let logits = rbnn_graph::logits_rows(net, &rows);
        let classes = logits.dim(1);
        for (i, verdict) in report.verdicts.iter().enumerate() {
            let offline_row = &logits.as_slice()[i * classes..(i + 1) * classes];
            let Some(streamed) = verdict.logits() else {
                eprintln!(
                    "parity: patient {} window {} failed in a fault-free run: {:?}",
                    report.id, verdict.window, verdict.outcome
                );
                return (checked, false);
            };
            if streamed
                .iter()
                .map(|l| l.to_bits())
                .ne(offline_row.iter().map(|l| l.to_bits()))
            {
                eprintln!(
                    "parity: patient {} window {} logits diverge: {:?} vs {:?}",
                    report.id, verdict.window, streamed, offline_row
                );
                return (checked, false);
            }
            checked += 1;
        }
    }
    (checked, true)
}

fn print_fleet(label: &str, s: &FleetSummary) {
    println!(
        "{label:<16} {:>4} patients {:>6} windows {:>4} failed {:>5} retries {:>7.0} windows/s  \
         rt×{:>6.1}  p99 {:>7.0}µs  alarms {:>3}  faults {:>2}  respawns {:>2}  degraded {}",
        s.patients,
        s.total_windows,
        s.failed_windows,
        s.retries,
        s.fleet_windows_per_s,
        s.min_realtime_factor,
        s.max_p99_us,
        s.alarms_raised,
        s.faults,
        s.respawns,
        s.degraded_replicas,
    );
    if s.energy_uj_per_window_measured > 0.0 {
        println!(
            "{:<16} {:.4} µJ/window (model), {:.4} µJ/window (measured)",
            "", s.energy_uj_per_window_model, s.energy_uj_per_window_measured
        );
    }
}

fn yes(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO"
    }
}

fn main() {
    let (scale, flags) = parse_scale_with(&["--strict"]);
    let strict = flags[0];
    banner(
        "stream_bench — monitoring fleet gate (N patients → serve pool, clean and under chaos)",
        scale,
    );
    println!("host parallelism: {} core(s)", host_cores());

    let (patients, windows, rram_patients, rram_windows) = match scale {
        RunScale::Quick => (64usize, 30u64, 8usize, 8u64),
        RunScale::Full => (128, 120, 16, 24),
    };
    let (chaos_patients, chaos_windows, drift_patients, drift_windows) = match scale {
        RunScale::Quick => (64usize, 20u64, 4usize, 6u64),
        RunScale::Full => (96, 60, 8, 16),
    };

    // The deployed stream classifier: 12 leads × 1 s at 360 Hz, the same
    // demo-weight footprint the serving benches use.
    let net = demo_network(&[CHANNELS * WINDOW, 80, 2], 0x57E4);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(4));
    let energy = estimate_network(&net, &EnergyParams::default_figures());
    let router = RouterConfig {
        chunk_frames: 120, // a third of a second per source poll
        max_in_flight: 4,
        alarm: AlarmConfig {
            k: 3,
            m: 5,
            positive_class: INVERTED,
        },
        energy_nj_per_window: energy.rram_nj,
        // Generous freshness bound: exercises the deadline path on every
        // request without expiring anything at this load.
        deadline: Some(Duration::from_secs(2)),
        // The retry schedule must span a replica's fault → respawn outage
        // (supervisor base backoff 10 ms plus worker-tick slack), or
        // windows queued behind a panic exhaust their budget against a
        // still-down replica.
        retry: RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(60),
        },
        ..Default::default()
    };
    let fleet = |backend, seeds, patients, windows| {
        run_fleet(&registry, backend, seeds, patients, windows, &router)
    };

    // ---- Phase 1: software fleet — real time, p99, clean run, parity. --
    println!(
        "\nphase 1: software fleet, ECG stream classifier {}→80→2, {WINDOW}-frame windows, \
         {STRIDE}-frame stride, {SAMPLE_RATE} Hz, alarm 3-of-5:",
        CHANNELS * WINDOW
    );
    let run = fleet(Backend::Software, STREAM_SEEDS, patients, windows);
    let software = summarize(&run);
    print_fleet("software fleet", &software);
    let worst_span = report_worst_span(&run.spans);
    let (parity_windows, parity_ok) = check_parity(&net, STREAM_SEEDS, &run.reports);
    let clean_ok = software.failed_windows == 0 && software.retries == 0;
    println!(
        "parity streamed vs offline batch: {} over {parity_windows} windows; \
         clean run (0 failed, 0 retries): {}",
        if parity_ok {
            "bitwise EQUAL"
        } else {
            "DIVERGED"
        },
        yes(clean_ok),
    );
    let realtime_ok = software.min_realtime_factor >= 1.0 && software.patients >= 64;
    let latency_ok = software.max_p99_us <= P99_FLOOR.as_secs_f64() * 1e6;
    println!(
        "software gates: realtime ≥1× for all {} patients {}; p99 ≤ {:?} {}",
        software.patients,
        yes(realtime_ok),
        P99_FLOOR,
        yes(latency_ok),
    );
    // Before any chaos series exist, so the snapshot shows a healthy fleet.
    archive_telemetry(&run.spans, worst_span.as_ref());

    // ---- Phase 2: RRAM fleet — measured per-read energy (not gated). ---
    println!("\nphase 2: rram backend fleet (margin-gated senses; measured per-read energy):");
    let rram = summarize(&fleet(
        Backend::Rram,
        STREAM_SEEDS,
        rram_patients,
        rram_windows,
    ));
    print_fleet("rram fleet", &rram);

    // ---- Phase 3: telemetry overhead, quarter-size software fleet. -----
    println!("\nphase 3: telemetry overhead:");
    let overhead_patients = (patients / 4).max(8);
    let (overhead_disabled, overhead_enabled) = telemetry_overhead_pair(|| {
        let run = fleet(Backend::Software, STREAM_SEEDS, overhead_patients, windows);
        summarize(&run).fleet_windows_per_s
    });
    let overhead_ok = report_overhead_gate(
        &format!("{overhead_patients}-patient fleet"),
        overhead_disabled,
        overhead_enabled,
        0.05,
    );

    // ---- Phase 4: seeded chaos on a ≥64-patient software fleet. -------
    // Injected panics are the point of this phase; silence their default
    // backtrace spam but keep the hook for every genuine panic.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected engine fault"));
        if !injected {
            default_hook(info);
        }
    }));
    let plan = ChaosPlan {
        seed: 0xC4A0_5EED,
        panic_per_mille: 20,
        stall_per_mille: 30,
        max_stall: Duration::from_millis(2),
        transient_per_mille: 30,
        ..Default::default()
    };
    println!(
        "\nphase 4: chaos fleet ({chaos_patients} patients; panic {}‰, stall {}‰ ≤{:?}, \
         transient {}‰):",
        plan.panic_per_mille, plan.stall_per_mille, plan.max_stall, plan.transient_per_mille,
    );
    let (panic_per_mille, stall_per_mille, transient_per_mille) = (
        plan.panic_per_mille,
        plan.stall_per_mille,
        plan.transient_per_mille,
    );
    rbnn_serve::fault::arm_chaos(plan);
    let chaos_run = fleet(
        Backend::Software,
        CHAOS_SEEDS,
        chaos_patients,
        chaos_windows,
    );
    let dispatches = rbnn_serve::fault::dispatches_since_armed();
    rbnn_serve::fault::disarm_chaos();
    let chaos_fleet = summarize(&chaos_run);
    print_fleet("chaos fleet", &chaos_fleet);
    println!("{}", chaos_run.health);
    let failed_fraction =
        chaos_fleet.failed_windows as f64 / chaos_fleet.total_windows.max(1) as f64;

    // ---- Phase 5: fabric drift on an RRAM fleet → degraded fallback. --
    println!("\nphase 5: endurance drift on an RRAM fleet (degraded fallback):");
    rbnn_serve::fault::arm_chaos(ChaosPlan {
        drift_at_dispatch: Some(2),
        ..Default::default()
    });
    let drift_run = fleet(Backend::Rram, CHAOS_SEEDS, drift_patients, drift_windows);
    rbnn_serve::fault::disarm_chaos();
    let drift = summarize(&drift_run);
    print_fleet("drift fleet", &drift);
    println!("{}", drift_run.health);

    let chaos = ChaosResult {
        realtime_ok: chaos_fleet.min_realtime_factor >= 1.0 && chaos_patients >= 64,
        no_lost_ok: no_lost_requests(&chaos_run.reports, chaos_windows),
        failed_fraction,
        failed_ok: failed_fraction <= MAX_FAILED_FRACTION,
        // The plan must actually have fired: with ≥ 2% panics over this
        // many dispatches, a silent chaos hook is a bug, not luck.
        fired_ok: dispatches >= 50 && chaos_fleet.faults >= 1,
        recovered_ok: chaos_fleet.respawns >= 1
            && chaos_run
                .health
                .max_respawn_delay
                .is_some_and(|d| d <= RESPAWN_BUDGET),
        drift_degraded_ok: drift.degraded_replicas >= 1,
        drift_no_lost_ok: no_lost_requests(&drift_run.reports, drift_windows),
        fleet: chaos_fleet,
        dispatches,
        panic_per_mille,
        stall_per_mille,
        transient_per_mille,
        drift,
    };
    println!(
        "chaos gates: {} dispatches, fired {}; realtime ≥1× {}; zero lost {}; \
         failed {:.2}% ≤ {:.0}% {}; respawned within {:?} {}",
        chaos.dispatches,
        yes(chaos.fired_ok),
        yes(chaos.realtime_ok),
        yes(chaos.no_lost_ok),
        chaos.failed_fraction * 100.0,
        MAX_FAILED_FRACTION * 100.0,
        yes(chaos.failed_ok),
        RESPAWN_BUDGET,
        yes(chaos.recovered_ok),
    );
    println!(
        "drift gates: degraded replica reported {}; zero lost {}",
        yes(chaos.drift_degraded_ok),
        yes(chaos.drift_no_lost_ok),
    );

    let accepted = realtime_ok && latency_ok && parity_ok && clean_ok && overhead_ok && chaos.ok();
    println!(
        "\nacceptance: {} (realtime: {}; p99: {}; parity: {}; clean run: {}; \
         telemetry overhead ≤5%: {}; chaos + drift: {})",
        if accepted { "PASS" } else { "FAIL" },
        yes(realtime_ok),
        yes(latency_ok),
        yes(parity_ok),
        yes(clean_ok),
        yes(overhead_ok),
        yes(chaos.ok()),
    );

    emit_bench_with_dispatch(
        "stream_bench",
        scale,
        Some(accepted),
        &StreamBenchResult {
            task: "ecg".into(),
            sample_rate_hz: SAMPLE_RATE,
            window_frames: WINDOW,
            stride_frames: STRIDE,
            software,
            rram,
            parity_windows_checked: parity_windows,
            parity_ok,
            clean_ok,
            realtime_ok,
            latency_ok,
            telemetry_disabled_windows_per_s: overhead_disabled,
            telemetry_enabled_windows_per_s: overhead_enabled,
            telemetry_overhead_ok: overhead_ok,
            chaos,
        },
    );

    if strict && !accepted {
        std::process::exit(1);
    }
}
