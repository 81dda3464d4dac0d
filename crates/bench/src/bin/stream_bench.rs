//! Continuous-monitoring load generator for the `rbnn-stream` +
//! `rbnn-serve` pipeline.
//!
//! Simulates a monitoring fleet: N concurrent synthetic patients, each an
//! unbounded seeded 12-lead ECG stream at an MIT-BIH-style 360 Hz, cut
//! into 1-second sliding windows (50% overlap) by per-patient sessions
//! and fanned through one serve pool by a [`rbnn_stream::StreamRouter`].
//! Half the fleet suffers an electrode swap mid-stream, exercising the
//! debounced K-of-M alarm machine.
//!
//! Acceptance experiments (`--strict` exits non-zero on failure; CI runs
//! `--quick --strict`):
//!
//! * **sustained real time** — every patient's achieved frame rate must
//!   be ≥ its 360 Hz sampling rate (real-time factor ≥ 1) with ≥ 64
//!   concurrent streams on the software backend;
//! * **latency** — worst per-patient p99 window-to-verdict latency ≤
//!   250 ms (a monitor must alarm within a beat or two);
//! * **bitwise parity** — streamed-window logits must equal offline batch
//!   classification ([`rbnn_graph::logits_rows`])
//!   of the same windows bit for bit: chunked ingestion may not change a
//!   single ulp anywhere in the pipeline.
//!
//! A smaller RRAM-backend fleet rides along (not gated) to exercise the
//! margin-gated sense path and report *measured* per-read energy
//! ([`rbnn_rram::energy::sense_energy_nj`] over the pool's sense
//! counters) next to the model estimate.
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
use rbnn_serve::{demo_network, Backend, ModelRegistry, ServeConfig, ServeTask, Server};
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

/// Worst acceptable per-patient p99 window-to-verdict latency.
const P99_FLOOR: Duration = Duration::from_millis(250);

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
    energy_uj_per_window: f64,
}

#[derive(Debug, Clone, Serialize)]
struct FleetSummary {
    backend: String,
    patients: usize,
    total_windows: u64,
    total_frames: u64,
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
    rows: Vec<PatientRow>,
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
    realtime_ok: bool,
    latency_ok: bool,
    /// Fleet throughput with telemetry globally disabled / enabled
    /// (overhead gate).
    telemetry_disabled_windows_per_s: f64,
    telemetry_enabled_windows_per_s: f64,
    telemetry_overhead_ok: bool,
}

fn patient_source(id: usize) -> EcgStream {
    let mut cfg = EcgStreamConfig {
        samples_per_segment: 1080, // 3 s of signal per synthesis step
        sample_rate: SAMPLE_RATE,
        seed: 0xCA8E_0000 + id as u64,
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

fn run_fleet(
    registry: &ModelRegistry,
    backend: Backend,
    patients: usize,
    windows_per_patient: u64,
    energy_nj_per_window: f64,
) -> (Vec<PatientReport>, FleetSummary, Vec<SpanRecord>) {
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
            chunk_frames: 120, // a third of a second per source poll
            max_in_flight: 4,
            windows_per_patient,
            alarm: AlarmConfig {
                k: 3,
                m: 5,
                positive_class: INVERTED,
            },
            energy_nj_per_window,
            ..Default::default()
        },
    );
    for id in 0..patients {
        router.add_patient(id, Box::new(patient_source(id)), patient_session());
    }
    let reports = router.run().expect("streaming run");
    // Sampled request-lifecycle spans must be read out before the worker
    // pool (and its ring) is torn down.
    let spans = server.span_samples();
    let snap = server.shutdown();
    let senses: u64 = snap.engines.iter().map(|e| e.senses).sum();

    let elapsed_s = reports[0].elapsed.as_secs_f64();
    let total_windows: u64 = reports.iter().map(|r| r.windows).sum();
    let total_frames: u64 = reports.iter().map(|r| r.frames).sum();
    let summary = FleetSummary {
        backend: format!("{backend:?}"),
        patients,
        total_windows,
        total_frames,
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
        energy_uj_per_window_model: energy_nj_per_window / 1e3,
        energy_uj_per_window_measured: if total_windows > 0 {
            sense_energy_nj(senses, &EnergyParams::default_figures()) / 1e3 / total_windows as f64
        } else {
            0.0
        },
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
                energy_uj_per_window: r.energy_uj_per_window,
            })
            .collect(),
    };
    (reports, summary, spans)
}

/// Prints the worst sampled request span — the telemetry view of the
/// fleet's p99 tail, decomposed into its lifecycle phases — and returns
/// it for the archive.
fn report_worst_span(spans: &[SpanRecord]) -> Option<SpanRecord> {
    let worst = spans.iter().max_by_key(|s| s.total())?.clone();
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
fn check_parity(net: &rbnn_binary::BinaryNetwork, reports: &[PatientReport]) -> (u64, bool) {
    let mut checked = 0u64;
    for report in reports {
        let mut source = patient_source(report.id);
        let frames = collect_frames(&mut source, report.frames as usize);
        let mut session = patient_session();
        let offline = session.push_chunk(&frames);
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
            let a: Vec<u32> = streamed.iter().map(|l| l.to_bits()).collect();
            let b: Vec<u32> = offline_row.iter().map(|l| l.to_bits()).collect();
            if a != b {
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
        "{label:<22} {:>4} patients  {:>7} windows  {:>9.0} windows/s  rt×{:>6.1}  \
         p99 {:>8.0}µs  alarms {}  {:.4} µJ/window (model){}",
        s.patients,
        s.total_windows,
        s.fleet_windows_per_s,
        s.min_realtime_factor,
        s.max_p99_us,
        s.alarms_raised,
        s.energy_uj_per_window_model,
        if s.energy_uj_per_window_measured > 0.0 {
            format!(
                ", {:.4} µJ/window (measured)",
                s.energy_uj_per_window_measured
            )
        } else {
            String::new()
        }
    );
}

fn main() {
    let (scale, flags) = parse_scale_with(&["--strict"]);
    let strict = flags[0];
    banner(
        "stream_bench — continuous-monitoring ingestion (N patients → serve pool)",
        scale,
    );
    println!("host parallelism: {} core(s)", host_cores());

    let (patients, windows_per_patient, rram_patients, rram_windows) = match scale {
        RunScale::Quick => (64usize, 30u64, 8usize, 8u64),
        RunScale::Full => (128, 120, 16, 24),
    };

    // The deployed stream classifier: 12 leads × 1 s at 360 Hz, the same
    // demo-weight footprint the serving benches use.
    let net = demo_network(&[CHANNELS * WINDOW, 80, 2], 0x57E4);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(4));
    let energy = estimate_network(&net, &EnergyParams::default_figures());

    println!(
        "\nECG stream classifier {}→80→2, {WINDOW}-frame windows, {STRIDE}-frame stride, \
         {SAMPLE_RATE} Hz, alarm 3-of-5:",
        CHANNELS * WINDOW
    );
    let (reports, software, spans) = run_fleet(
        &registry,
        Backend::Software,
        patients,
        windows_per_patient,
        energy.rram_nj,
    );
    print_fleet("software fleet", &software);
    let worst_span = report_worst_span(&spans);

    let (parity_windows, parity_ok) = check_parity(&net, &reports);
    println!(
        "parity streamed vs offline batch: {} over {parity_windows} windows",
        if parity_ok {
            "bitwise EQUAL"
        } else {
            "DIVERGED"
        }
    );

    println!("\nrram backend fleet (margin-gated senses; measured per-read energy):");
    let (_, rram, _) = run_fleet(
        &registry,
        Backend::Rram,
        rram_patients,
        rram_windows,
        energy.rram_nj,
    );
    print_fleet("rram fleet", &rram);

    // Telemetry overhead gate: a quarter-size software fleet with the
    // global switch off, then on. Enabled must stay within 5%.
    println!();
    let overhead_patients = (patients / 4).max(8);
    let (overhead_disabled, overhead_enabled) = telemetry_overhead_pair(|| {
        let (_, summary, _) = run_fleet(
            &registry,
            Backend::Software,
            overhead_patients,
            windows_per_patient,
            energy.rram_nj,
        );
        summary.fleet_windows_per_s
    });
    let overhead_ok = report_overhead_gate(
        &format!("{overhead_patients}-patient fleet"),
        overhead_disabled,
        overhead_enabled,
        0.05,
    );

    let realtime_ok = software.min_realtime_factor >= 1.0 && software.patients >= 64;
    let latency_ok = software.max_p99_us <= P99_FLOOR.as_secs_f64() * 1e6;
    let accepted = realtime_ok && latency_ok && parity_ok && overhead_ok;
    println!(
        "\nacceptance: {} (realtime ≥1× for all {} patients: {}; p99 ≤ {:?}: {}; parity: {}; \
         telemetry overhead ≤5%: {})",
        if accepted { "PASS" } else { "FAIL" },
        software.patients,
        if realtime_ok { "yes" } else { "NO" },
        P99_FLOOR,
        if latency_ok { "yes" } else { "NO" },
        if parity_ok { "yes" } else { "NO" },
        if overhead_ok { "yes" } else { "NO" },
    );

    archive_telemetry(&spans, worst_span.as_ref());
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
            realtime_ok,
            latency_ok,
            telemetry_disabled_windows_per_s: overhead_disabled,
            telemetry_enabled_windows_per_s: overhead_enabled,
            telemetry_overhead_ok: overhead_ok,
        },
    );

    if strict && !accepted {
        std::process::exit(1);
    }
}
