//! Chaos gate for the self-healing serve runtime: a monitoring fleet
//! driven through seeded fault injection
//! ([`rbnn_serve::fault::arm_chaos`]) must stay clinically usable.
//!
//! Three phases, each an acceptance experiment (`--strict` exits
//! non-zero on failure; CI runs `--quick --strict`):
//!
//! 1. **Injection disabled** — the chaos hook must be invisible when
//!    disarmed: streamed logits bitwise-equal to offline batch
//!    classification, zero failed windows, zero retries.
//! 2. **Software chaos** — ≥ 64 concurrent patients while an armed
//!    [`ChaosPlan`] panics, stalls and transiently fails a seeded
//!    fraction of engine dispatches. Every patient must hold ≥ 1×
//!    realtime, every submitted window must reach a terminal verdict
//!    (zero lost requests; typed failures are terminal, silence is not),
//!    the failure fraction must stay ≤ 5%, and the supervisor must have
//!    respawned every panicked replica within the backoff budget.
//! 3. **Fabric drift** — a one-shot endurance-drift episode on an RRAM
//!    fleet pushes one replica past the marginal-cell threshold; the
//!    fleet report must show it degraded to the software fallback while
//!    service continues uninterrupted.
//!
//! Usage: `cargo run --release --bin chaos_bench [--quick|--full]
//! [--strict]`. Results are archived to `bench_results/chaos.json`.

use std::time::Duration;

use serde::Serialize;

use rbnn_bench::{banner, emit_bench_with_dispatch, host_cores, parse_scale_with, RunScale};
use rbnn_data::ecg::{Electrode, INVERTED};
use rbnn_data::stream::{collect_frames, EcgStream, EcgStreamConfig};
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, Backend, ChaosPlan, FleetHealth, ModelRegistry, RetryPolicy, ServeConfig,
    ServeTask, Server,
};
use rbnn_stream::{
    AlarmConfig, Normalization, PatientReport, RouterConfig, SegmenterConfig, Session,
    SessionConfig, StreamRouter, TailPolicy, WindowLayout,
};

/// Same signal shape as `stream_bench`: 12-lead 360 Hz ECG, 1-second
/// windows with 50% overlap.
const SAMPLE_RATE: f32 = 360.0;
const CHANNELS: usize = 12;
const WINDOW: usize = 360;
const STRIDE: usize = 180;

/// Worst tolerated terminal-failure fraction under chaos: retries are
/// expected to absorb almost every injected fault.
const MAX_FAILED_FRACTION: f64 = 0.05;
/// Worst tolerated fault → respawn delay (supervisor backoff budget plus
/// scheduling slack).
const RESPAWN_BUDGET: Duration = Duration::from_secs(2);

fn patient_source(id: usize) -> EcgStream {
    let mut cfg = EcgStreamConfig {
        samples_per_segment: 1080,
        sample_rate: SAMPLE_RATE,
        seed: 0xC4A0_0000 + id as u64,
        ..EcgStreamConfig::default()
    };
    // Half the fleet alarms mid-run, so alarm-adjacent windows exercise
    // the urgent queue lane while chaos is firing.
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

/// Runs one fleet and returns the per-patient reports plus the fleet
/// health read *before* shutdown (the supervisor dies with the server).
fn run_fleet(
    registry: &ModelRegistry,
    backend: Backend,
    patients: usize,
    windows_per_patient: u64,
) -> (Vec<PatientReport>, FleetHealth) {
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
            chunk_frames: 120,
            max_in_flight: 4,
            windows_per_patient,
            alarm: AlarmConfig {
                k: 3,
                m: 5,
                positive_class: INVERTED,
            },
            // Generous freshness bound: exercises the deadline path on
            // every request without expiring anything at this load.
            deadline: Some(Duration::from_secs(2)),
            // The retry schedule must span a replica's fault → respawn
            // outage (supervisor base backoff 10 ms plus worker-tick
            // slack), or windows queued behind a panic exhaust their
            // budget against a still-down replica.
            retry: RetryPolicy {
                max_attempts: 5,
                base_backoff: Duration::from_millis(4),
                max_backoff: Duration::from_millis(60),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    for id in 0..patients {
        router.add_patient(id, Box::new(patient_source(id)), patient_session());
    }
    let reports = router.run().expect("streaming run");
    let fleet = server.handle().fleet_health();
    server.shutdown();
    (reports, fleet)
}

#[derive(Debug, Clone, Serialize)]
struct FleetRow {
    patients: usize,
    total_windows: u64,
    classified_windows: u64,
    failed_windows: u64,
    retries: u64,
    min_realtime_factor: f64,
    alarms_raised: u64,
    faults: u64,
    respawns: u64,
    max_respawn_delay_ms: f64,
    degraded_replicas: u64,
}

fn summarize(reports: &[PatientReport], fleet: &FleetHealth, patients: usize) -> FleetRow {
    let total_windows: u64 = reports.iter().map(|r| r.windows).sum();
    let failed: u64 = reports.iter().map(|r| r.failed_windows).sum();
    FleetRow {
        patients,
        total_windows,
        classified_windows: total_windows - failed,
        failed_windows: failed,
        retries: reports.iter().map(|r| r.retries).sum(),
        min_realtime_factor: reports
            .iter()
            .map(|r| r.realtime_factor)
            .fold(f64::INFINITY, f64::min),
        alarms_raised: reports.iter().map(|r| r.alarms_raised).sum(),
        faults: fleet.faults,
        respawns: fleet.respawns,
        max_respawn_delay_ms: fleet
            .max_respawn_delay
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0),
        degraded_replicas: fleet.degraded as u64,
    }
}

/// Zero lost requests: every submitted window reached a terminal verdict
/// and every patient hit its window target.
fn no_lost_requests(reports: &[PatientReport], windows_per_patient: u64) -> bool {
    reports
        .iter()
        .all(|r| r.windows == r.verdicts.len() as u64 && r.windows >= windows_per_patient)
}

/// Offline oracle for the fault-free phase: re-derive every patient's
/// windows in one buffered pass, classify as one batch, compare logits
/// bit for bit against the streamed verdicts.
fn check_parity(net: &rbnn_binary::BinaryNetwork, reports: &[PatientReport]) -> bool {
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
            return false;
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
                    "parity: patient {} window {} failed with chaos disarmed",
                    report.id, verdict.window
                );
                return false;
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
                return false;
            }
        }
    }
    true
}

#[derive(Debug, Clone, Serialize)]
struct ChaosBenchResult {
    task: String,
    window_frames: usize,
    stride_frames: usize,
    baseline: FleetRow,
    baseline_parity_ok: bool,
    baseline_clean_ok: bool,
    chaos: FleetRow,
    chaos_dispatches: u64,
    chaos_panic_per_mille: u16,
    chaos_stall_per_mille: u16,
    chaos_transient_per_mille: u16,
    chaos_realtime_ok: bool,
    chaos_no_lost_ok: bool,
    chaos_failed_fraction: f64,
    chaos_failed_ok: bool,
    chaos_fired_ok: bool,
    chaos_recovered_ok: bool,
    drift: FleetRow,
    drift_degraded_ok: bool,
    drift_no_lost_ok: bool,
}

fn print_row(label: &str, s: &FleetRow) {
    println!(
        "{label:<18} {:>4} patients  {:>6} windows  {:>5} failed  {:>5} retries  rt×{:>6.1}  \
         faults {:>3}  respawns {:>3}  degraded {}",
        s.patients,
        s.total_windows,
        s.failed_windows,
        s.retries,
        s.min_realtime_factor,
        s.faults,
        s.respawns,
        s.degraded_replicas,
    );
}

fn main() {
    let (scale, flags) = parse_scale_with(&["--strict"]);
    let strict = flags[0];
    banner(
        "chaos_bench — fault-injection gate for the self-healing serve runtime",
        scale,
    );
    println!("host parallelism: {} core(s)", host_cores());

    // Injected panics are the point of this bench; silence their default
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

    let (patients, windows, drift_patients, drift_windows) = match scale {
        RunScale::Quick => (64usize, 20u64, 4usize, 6u64),
        RunScale::Full => (96, 60, 8, 16),
    };

    let net = demo_network(&[CHANNELS * WINDOW, 80, 2], 0x57E4);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(4));

    // ---- Phase 1: chaos disarmed — the hook must be invisible. --------
    println!("\nphase 1: injection disabled (bitwise parity vs offline batch):");
    rbnn_serve::fault::disarm_chaos();
    let base_patients = (patients / 4).max(8);
    let (base_reports, base_fleet) =
        run_fleet(&registry, Backend::Software, base_patients, windows);
    let baseline = summarize(&base_reports, &base_fleet, base_patients);
    print_row("baseline", &baseline);
    let baseline_parity_ok = check_parity(&net, &base_reports);
    let baseline_clean_ok = baseline.failed_windows == 0 && baseline.retries == 0;
    println!(
        "parity streamed vs offline: {}; clean run (0 failed, 0 retries): {}",
        if baseline_parity_ok {
            "bitwise EQUAL"
        } else {
            "DIVERGED"
        },
        if baseline_clean_ok { "yes" } else { "NO" },
    );

    // ---- Phase 2: seeded chaos on a ≥64-patient software fleet. -------
    let plan = ChaosPlan {
        seed: 0xC4A0_5EED,
        panic_per_mille: 20,
        stall_per_mille: 30,
        max_stall: Duration::from_millis(2),
        transient_per_mille: 30,
        ..Default::default()
    };
    println!(
        "\nphase 2: chaos fleet ({} patients; panic {}‰, stall {}‰ ≤{:?}, transient {}‰):",
        patients,
        plan.panic_per_mille,
        plan.stall_per_mille,
        plan.max_stall,
        plan.transient_per_mille,
    );
    let (panic_pm, stall_pm, transient_pm) = (
        plan.panic_per_mille,
        plan.stall_per_mille,
        plan.transient_per_mille,
    );
    rbnn_serve::fault::arm_chaos(plan);
    let (chaos_reports, chaos_fleet) = run_fleet(&registry, Backend::Software, patients, windows);
    let dispatches = rbnn_serve::fault::dispatches_since_armed();
    rbnn_serve::fault::disarm_chaos();
    let chaos = summarize(&chaos_reports, &chaos_fleet, patients);
    print_row("chaos", &chaos);
    println!("{chaos_fleet}");

    let chaos_realtime_ok = chaos.min_realtime_factor >= 1.0 && patients >= 64;
    let chaos_no_lost_ok = no_lost_requests(&chaos_reports, windows);
    let chaos_failed_fraction = chaos.failed_windows as f64 / chaos.total_windows.max(1) as f64;
    let chaos_failed_ok = chaos_failed_fraction <= MAX_FAILED_FRACTION;
    // The plan must actually have fired: with ≥ 2% panics over this many
    // dispatches, a silent chaos hook is a bug, not luck.
    let chaos_fired_ok = dispatches >= 50 && chaos.faults >= 1;
    let chaos_recovered_ok = chaos.respawns >= 1
        && chaos_fleet
            .max_respawn_delay
            .is_some_and(|d| d <= RESPAWN_BUDGET);
    println!(
        "chaos gates: {} dispatches, fired {}; realtime ≥1× {}; zero lost {}; \
         failed {:.2}% ≤ {:.0}% {}; respawned within {:?} {}",
        dispatches,
        if chaos_fired_ok { "yes" } else { "NO" },
        if chaos_realtime_ok { "yes" } else { "NO" },
        if chaos_no_lost_ok { "yes" } else { "NO" },
        chaos_failed_fraction * 100.0,
        MAX_FAILED_FRACTION * 100.0,
        if chaos_failed_ok { "yes" } else { "NO" },
        RESPAWN_BUDGET,
        if chaos_recovered_ok { "yes" } else { "NO" },
    );

    // ---- Phase 3: fabric drift on an RRAM fleet → degraded fallback. --
    println!("\nphase 3: endurance drift on an RRAM fleet (degraded fallback):");
    rbnn_serve::fault::arm_chaos(ChaosPlan {
        drift_at_dispatch: Some(2),
        ..Default::default()
    });
    let (drift_reports, drift_fleet) =
        run_fleet(&registry, Backend::Rram, drift_patients, drift_windows);
    rbnn_serve::fault::disarm_chaos();
    let drift = summarize(&drift_reports, &drift_fleet, drift_patients);
    print_row("drift", &drift);
    println!("{drift_fleet}");
    let drift_degraded_ok = drift.degraded_replicas >= 1;
    let drift_no_lost_ok = no_lost_requests(&drift_reports, drift_windows);
    println!(
        "drift gates: degraded replica reported {}; zero lost {}",
        if drift_degraded_ok { "yes" } else { "NO" },
        if drift_no_lost_ok { "yes" } else { "NO" },
    );

    let accepted = baseline_parity_ok
        && baseline_clean_ok
        && chaos_realtime_ok
        && chaos_no_lost_ok
        && chaos_failed_ok
        && chaos_fired_ok
        && chaos_recovered_ok
        && drift_degraded_ok
        && drift_no_lost_ok;
    println!("\nacceptance: {}", if accepted { "PASS" } else { "FAIL" });

    emit_bench_with_dispatch(
        "chaos",
        scale,
        Some(accepted),
        &ChaosBenchResult {
            task: "ecg".into(),
            window_frames: WINDOW,
            stride_frames: STRIDE,
            baseline,
            baseline_parity_ok,
            baseline_clean_ok,
            chaos,
            chaos_dispatches: dispatches,
            chaos_panic_per_mille: panic_pm,
            chaos_stall_per_mille: stall_pm,
            chaos_transient_per_mille: transient_pm,
            chaos_realtime_ok,
            chaos_no_lost_ok,
            chaos_failed_fraction,
            chaos_failed_ok,
            chaos_fired_ok,
            chaos_recovered_ok,
            drift,
            drift_degraded_ok,
            drift_no_lost_ok,
        },
    );

    if strict && !accepted {
        std::process::exit(1);
    }
}
