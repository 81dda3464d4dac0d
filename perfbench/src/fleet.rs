//! The `stream-fleet` workload: 64 ECG patients at 12 leads and 360 Hz,
//! each replaying a seeded recording through a stream router into a
//! 2-worker software pool serving the 4320→80→2 window classifier.
//!
//! A run is a sequence of router rounds. In each round every patient
//! streams [`WINDOWS_PER_ROUND`] windows, continuing its playback where
//! the previous round stopped; a round is one throughput slice and one
//! latency group.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::adapter::{
    self, BinaryNetwork, PatientReport, Pool, PoolConfig, SignalSource, CHANNELS, CHUNK_FRAMES,
    SAMPLE_RATE, WINDOW,
};
use crate::layers::LayerReport;
use crate::replay::ReplaySource;
use crate::report::{self, Measured, Outcome};
use crate::serve_load::{self, Checker, Tally, ENGINE_SALT, MODEL_SALT, SETUPS, WORKERS};
use crate::stats::Histogram;
use crate::{trace, Args};

/// Monitored patients.
pub const PATIENTS: usize = 64;
/// Frames per patient recording: 60 s of signal, about 1 MB of floats.
pub const RECORDING_FRAMES: usize = 21_600;
/// Windows each patient streams per router round.
pub const WINDOWS_PER_ROUND: u64 = 60;
/// The window classifier: 12 leads × 360 frames in, 2 classes out.
pub const DIMS: [usize; 3] = [CHANNELS * WINDOW, 80, 2];
/// Patients per round whose verdicts are checked against offline replay.
const CHECKED_PER_ROUND: usize = 2;
/// Set-up and submit-probe requests: the first windows of patient 0.
const PROBE_WINDOWS: usize = 32;

/// Control fleet for workloads that do not stream (see
/// [`control_probe`]).
const CONTROL_PATIENTS: usize = 8;
const CONTROL_FRAMES: usize = 3_600;
const CONTROL_WINDOWS: u64 = 16;

const NEXT_CHUNK: &str = "stream.source.next_chunk";

/// Every patient's recording and where its playback stands.
struct Fleet {
    recordings: Vec<Arc<[f32]>>,
    offsets: Vec<usize>,
}

impl Fleet {
    fn record(seed: u64, patients: usize, frames: usize) -> Self {
        let recordings = (0..patients)
            .map(|p| adapter::ecg_recording(seed, p, frames).into())
            .collect();
        Self {
            recordings,
            offsets: vec![0; patients],
        }
    }

    /// One router round; returns each patient's report and the frame its
    /// playback started from.
    fn round(&mut self, pool: &Pool, windows: u64) -> (Vec<PatientReport>, Vec<usize>) {
        let sources = self
            .recordings
            .iter()
            .zip(&self.offsets)
            .map(|(r, &start)| {
                let source = ReplaySource::new(Arc::clone(r), CHANNELS, SAMPLE_RATE, start);
                Box::new(source) as Box<dyn SignalSource + Send>
            })
            .collect();
        let reports = adapter::run_router(pool, sources, windows)
            .expect("the pool stays up for the whole run");
        let starts = self.offsets.clone();
        for ((offset, report), rec) in self.offsets.iter_mut().zip(&reports).zip(&self.recordings) {
            *offset = (*offset + report.frames as usize) % (rec.len() / CHANNELS);
        }
        (reports, starts)
    }
}

/// Replays patient `p`'s round offline — the same frames through a fresh
/// session, each window classified by the scalar oracle — and compares
/// every streamed logit bit for bit. Returns (compared, disagreed).
fn check_offline(
    net: &BinaryNetwork,
    fleet: &Fleet,
    p: usize,
    start: usize,
    report: &PatientReport,
) -> (u64, u64) {
    let recording = Arc::clone(&fleet.recordings[p]);
    let mut source = ReplaySource::new(recording, CHANNELS, SAMPLE_RATE, start);
    let mut frames = Vec::new();
    source.next_chunk(report.frames as usize, &mut frames);
    let windows = adapter::featurize(&mut adapter::session(), &frames);
    let (mut compared, mut disagreed) = (0, 0);
    for (i, verdict) in report.verdicts.iter().enumerate() {
        let Some(streamed) = adapter::verdict_logits(report, i) else {
            continue; // a failed window, already counted as failed
        };
        compared += 1;
        let same = windows.get(verdict.window as usize).is_some_and(|w| {
            let offline = adapter::oracle_logits(net, w);
            offline.len() == streamed.len()
                && offline
                    .iter()
                    .zip(streamed)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !same {
            disagreed += 1;
        }
    }
    (compared, disagreed)
}

/// Window counts and offline-replay checks of a run.
#[derive(Debug, Default)]
struct Books {
    tally: Tally,
    compared: u64,
    disagreed: u64,
}

/// Rounds for `secs` of router time (after a warm-up), checking
/// [`CHECKED_PER_ROUND`] seeded patients per round.
fn phase(
    pool: &Pool,
    fleet: &mut Fleet,
    net: &BinaryNetwork,
    secs: f64,
    rng: &mut StdRng,
    books: &mut Books,
) -> Measured {
    let mut measured = Measured::default();
    let warm = serve_load::warmup(secs);
    let warm_start = Instant::now();
    let mut timed = 0.0;
    let mut warming = true;
    while timed < secs {
        let (reports, starts) = fleet.round(pool, WINDOWS_PER_ROUND);
        let elapsed = reports[0].elapsed.as_secs_f64();
        let mut windows = 0u64;
        let mut latencies = Histogram::default();
        for r in &reports {
            books.tally.attempted += r.verdicts.len() as u64;
            books.tally.failed += r.failed_windows;
            windows += r.windows - r.failed_windows;
            for v in &r.verdicts {
                latencies.record(v.latency.as_nanos() as u64);
            }
        }
        let mut patients: Vec<usize> = (0..reports.len()).collect();
        patients.shuffle(rng);
        for &p in patients.iter().take(CHECKED_PER_ROUND) {
            // The check's own featurization is not stream-layer work.
            let (c, d) = trace::span("bench.check", || {
                trace::untraced(|| check_offline(net, fleet, p, starts[p], &reports[p]))
            });
            books.compared += c;
            books.disagreed += d;
        }
        if warming {
            warming = warm_start.elapsed() < warm;
            continue;
        }
        timed += elapsed;
        measured.rates.push(windows as f64 / elapsed);
        measured.latencies.push(latencies);
    }
    measured
}

/// Featurization cost per window: every recording pushed through a fresh
/// session in router-sized chunks; median of three sweeps, microseconds.
fn featurize_us_per_window(fleet: &Fleet) -> f64 {
    let sweeps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut windows = 0usize;
            for rec in &fleet.recordings {
                let mut session = adapter::session();
                for chunk in rec.chunks(CHUNK_FRAMES * CHANNELS) {
                    windows += adapter::featurize(&mut session, chunk).len();
                }
            }
            t.elapsed().as_secs_f64() * 1e6 / windows.max(1) as f64
        })
        .collect();
    crate::stats::median(&sweeps)
}

/// Mean router time between successive source pulls within one round,
/// over the spans recorded since `before`, in microseconds.
fn pull_gap_us(before: trace::Aggregate) -> f64 {
    let after = trace::aggregate(NEXT_CHUNK);
    let gaps = (after.gaps - before.gaps).max(1);
    (after.gap_ns - before.gap_ns) as f64 / gaps as f64 / 1e3
}

/// Stream-layer figures for a workload whose path does not stream: a small
/// control fleet streamed once, traced, on its own pool.
pub fn control_probe(seed: u64) -> (f64, f64) {
    let net = adapter::demo_model(&DIMS, seed ^ MODEL_SALT);
    let mut fleet = Fleet::record(seed, CONTROL_PATIENTS, CONTROL_FRAMES);
    let pool = Pool::start(&net, &pool_config(seed));
    let before = trace::aggregate(NEXT_CHUNK);
    trace::set_enabled(true);
    fleet.round(&pool, CONTROL_WINDOWS);
    trace::set_enabled(false);
    pool.shutdown();
    (featurize_us_per_window(&fleet), pull_gap_us(before))
}

fn pool_config(seed: u64) -> PoolConfig {
    PoolConfig {
        backend: adapter::Backend::Software,
        workers: WORKERS,
        max_batch: 64,
        engine_seed: seed ^ ENGINE_SALT,
    }
}

/// Runs the `stream-fleet` workload.
pub fn run(args: &Args) -> Outcome {
    let synth = Instant::now();
    let net = adapter::demo_model(&DIMS, args.seed ^ MODEL_SALT);
    let mut fleet = Fleet::record(args.seed, PATIENTS, RECORDING_FRAMES);
    let first = adapter::featurize(&mut adapter::session(), &fleet.recordings[0]);
    let requests: Vec<Arc<Vec<Vec<f32>>>> = first
        .into_iter()
        .take(PROBE_WINDOWS)
        .map(|w| Arc::new(vec![w]))
        .collect();
    let all: Vec<usize> = (0..requests.len()).collect();
    let mut checker = Checker::new(&net, &requests, &all, None);
    let synth_s = synth.elapsed().as_secs_f64();
    println!("stamp {}", report::stamp(args, synth_s));

    let cfg = pool_config(args.seed);
    let mut books = Books::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pool = None;
    for _ in 0..SETUPS {
        if let Some(p) = pool.take() {
            Pool::shutdown(p);
        }
        let (p, s) = serve_load::timed_setup(&net, &cfg, &requests, &mut checker, &mut books.tally);
        setups.push(s);
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");

    let mut rng = StdRng::seed_from_u64(args.seed);
    let seconds = args.seconds as f64;
    let mut outcome = Outcome::default();
    if args.trace {
        let untraced = phase(&pool, &mut fleet, &net, seconds / 2.0, &mut rng, &mut books);
        report::print_phase("untraced", &setups, &untraced);
        let before = trace::aggregate(NEXT_CHUNK);
        trace::set_enabled(true);
        let traced = phase(&pool, &mut fleet, &net, seconds / 2.0, &mut rng, &mut books);
        trace::set_enabled(false);
        report::print_phase("traced", &setups, &traced);
        let self_times = trace::self_time_by_layer();
        let pull_gap = pull_gap_us(before);
        let stats = pool.stats();
        // The router submits from inside the program; time the same call
        // on the same pool, one window per request.
        let submits = trace::aggregate("serve.submit");
        trace::set_enabled(true);
        serve_load::closed_loop(
            &pool,
            &requests,
            adapter::MAX_IN_FLIGHT,
            Duration::from_millis(300),
            1,
            &mut checker,
            &mut books.tally,
        );
        trace::set_enabled(false);
        let after = trace::aggregate("serve.submit");
        let submit_ns = (after.total_ns - submits.total_ns) as f64
            / (after.count - submits.count).max(1) as f64;
        pool.shutdown();

        let batch = (stats.mean_batch.round() as usize).max(1);
        let windows: Vec<Vec<f32>> = fleet
            .recordings
            .iter()
            .take(4)
            .flat_map(|rec| adapter::featurize(&mut adapter::session(), rec))
            .collect();
        let rows: Vec<&[f32]> = windows.iter().map(Vec::as_slice).collect();
        let mut ledger = LayerReport::new(&net, &rows, batch, self_times);
        ledger.serve(&stats, submit_ns / 1e3);
        ledger.graph();
        ledger.rram(cfg.engine_seed, None);
        let featurize_us = featurize_us_per_window(&fleet);
        ledger.stream(featurize_us, pull_gap);
        let path_ns = featurize_us * 1e3
            + submit_ns
            + ledger.get("graph.pack_ns_per_sample")
            + ledger.get("graph.replay_ns_per_sample");
        ledger.close(&untraced, &traced, path_ns, WORKERS + 1);
        outcome.metrics = ledger.finish(args, synth_s);
    } else {
        let measured = phase(&pool, &mut fleet, &net, seconds, &mut rng, &mut books);
        report::print_phase("untraced", &setups, &measured);
        pool.shutdown();
        outcome.metrics = report::end_to_end(&setups, &measured);
    }
    println!(
        "check: {} streamed windows compared with offline replay, {} disagreed; \
         {} probe samples compared, {} disagreed; {} of {} windows failed",
        books.compared,
        books.disagreed,
        checker.checked,
        checker.mismatched,
        books.tally.failed,
        books.tally.attempted
    );
    outcome.attempted = books.tally.attempted;
    outcome.failed = books.tally.failed;
    outcome.correct =
        books.compared > 0 && books.disagreed == 0 && checker.passed() && books.tally.failed == 0;
    outcome
}
