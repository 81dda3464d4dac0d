//! The three serve workloads: `ecg-merge`, `ecg-batch64` and `rram-paper`.
//!
//! Each is a closed loop: the load thread keeps a fixed number of requests
//! outstanding, submits a new one as soon as the oldest is answered, and
//! times each request from submit to reply, like monitors that wait for
//! their verdicts. Every request is drawn from a pool generated from the
//! seed before timing starts.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::adapter::{self, Backend, BinaryNetwork, Pool, PoolConfig, Prediction};
use crate::layers::{self, LayerReport};
use crate::report::{self, Measured, Outcome};
use crate::stats::Histogram;
use crate::{trace, Args};

/// Serve pool workers (= the host's 2 cores).
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Slices a timed phase is cut into; throughput is their median.
pub const SLICES: usize = 20;

/// One serve workload's shape.
#[derive(Debug)]
pub struct ServeWorkload {
    dims: &'static [usize],
    backend: Backend,
    /// Samples per request.
    samples_per_request: usize,
    /// Requests the load thread keeps outstanding.
    outstanding: usize,
    /// Requests the batcher may merge into one dispatch.
    max_batch: usize,
    /// Distinct pre-generated requests, submitted round-robin.
    pool_requests: usize,
    /// Requests of the pool whose replies are checked against the oracle.
    checked_requests: usize,
}

/// Deployed ECG 408→75→2, single-sample requests merged by the batcher.
pub const ECG_MERGE: ServeWorkload = ServeWorkload {
    dims: &[408, 75, 2],
    backend: Backend::Software,
    samples_per_request: 1,
    outstanding: 256,
    max_batch: 64,
    pool_requests: 4096,
    checked_requests: 256,
};

/// The same model, zero-copy 64-sample windows, one window per dispatch.
pub const ECG_BATCH64: ServeWorkload = ServeWorkload {
    dims: &[408, 75, 2],
    backend: Backend::Software,
    samples_per_request: 64,
    outstanding: 4,
    max_batch: 1,
    pool_requests: 64,
    checked_requests: 8,
};

/// Paper-scale 2520→80→2 on fresh seeded test-chip fabric, 64-sample
/// windows.
pub const RRAM_PAPER: ServeWorkload = ServeWorkload {
    dims: &[2520, 80, 2],
    backend: Backend::Rram,
    samples_per_request: 64,
    outstanding: 4,
    max_batch: 1,
    pool_requests: 16,
    checked_requests: 4,
};

/// Salts deriving the model and device seeds from the workload seed.
pub const MODEL_SALT: u64 = 0xD47E;
/// See [`MODEL_SALT`].
pub const ENGINE_SALT: u64 = 0x5EED;

/// The time spent before each timed phase so lazy work (plan recompiles
/// as batches grow, first-touch page faults) is done before timing.
pub fn warmup(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.1).min(1.0))
}

/// Compares replies with the oracle on a seeded subset of requests.
#[derive(Debug)]
pub struct Checker {
    /// Oracle logits per row, for checked requests.
    expected: Vec<Option<Vec<Vec<f32>>>>,
    /// Bitwise logits equality (software) or class agreement (RRAM).
    exact: bool,
    /// Expected sense flips per sample of the fabric (RRAM only).
    flips_per_sample: f64,
    /// Samples compared.
    pub checked: u64,
    /// Samples that disagreed.
    pub mismatched: u64,
}

impl Checker {
    /// A checker over `requests` with oracle results for `subset`.
    pub fn new(
        net: &BinaryNetwork,
        requests: &[Arc<Vec<Vec<f32>>>],
        subset: &[usize],
        flips_per_sample: Option<f64>,
    ) -> Self {
        let mut expected = vec![None; requests.len()];
        for &i in subset {
            let rows = requests[i].iter().map(|r| adapter::oracle_logits(net, r));
            expected[i] = Some(rows.collect());
        }
        Self {
            expected,
            exact: flips_per_sample.is_none(),
            flips_per_sample: flips_per_sample.unwrap_or(0.0),
            checked: 0,
            mismatched: 0,
        }
    }

    /// Checks the reply to request `i`, if it is in the subset.
    pub fn verify(&mut self, i: usize, preds: &[Prediction]) {
        let Some(expected) = &self.expected[i] else {
            return;
        };
        if preds.len() != expected.len() {
            self.checked += expected.len() as u64;
            self.mismatched += expected.len() as u64;
            return;
        }
        for (p, e) in preds.iter().zip(expected) {
            self.checked += 1;
            let agree = if self.exact {
                p.logits.len() == e.len()
                    && p.logits
                        .iter()
                        .zip(e)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            } else {
                p.class == argmax(e)
            };
            if !agree {
                self.mismatched += 1;
            }
        }
    }

    /// Disagreements tolerated: none in software; on RRAM the expected
    /// flip count (a union bound on disagreements) plus five of its
    /// standard deviations.
    pub fn allowed(&self) -> u64 {
        let lambda = self.checked as f64 * self.flips_per_sample;
        (lambda + 5.0 * lambda.sqrt()).ceil() as u64
    }

    /// Whether anything was checked and the disagreements stay in bounds.
    pub fn passed(&self) -> bool {
        self.checked > 0 && self.mismatched <= self.allowed()
    }
}

fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

/// Load-thread counters of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Samples submitted.
    pub attempted: u64,
    /// Samples whose submit or reply failed.
    pub failed: u64,
}

/// Submits request `i` of the pool.
fn submit(
    pool: &Pool,
    requests: &[Arc<Vec<Vec<f32>>>],
    i: usize,
) -> Result<adapter::Ticket, adapter::ServeError> {
    let rows = &requests[i];
    if rows.len() == 1 {
        pool.submit_one(&rows[0])
    } else {
        pool.submit_window(rows)
    }
}

/// Runs the closed loop for `duration`, cut into `slices` equal slices,
/// keeping `outstanding` requests in flight. Replies landing after the
/// last slice are drained unrecorded.
pub fn closed_loop(
    pool: &Pool,
    requests: &[Arc<Vec<Vec<f32>>>],
    outstanding: usize,
    duration: Duration,
    slices: usize,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Measured {
    let slice_s = duration.as_secs_f64() / slices as f64;
    let mut samples = vec![0u64; slices];
    let mut latencies = vec![Histogram::default(); slices];
    let mut in_flight: VecDeque<(adapter::Ticket, usize, Instant)> =
        VecDeque::with_capacity(outstanding);
    let mut next = 0usize;
    let start = Instant::now();
    let mut submitting = true;
    loop {
        while submitting && in_flight.len() < outstanding {
            let i = next % requests.len();
            next += 1;
            let n = requests[i].len() as u64;
            tally.attempted += n;
            let submitted = Instant::now();
            match submit(pool, requests, i) {
                Ok(ticket) => in_flight.push_back((ticket, i, submitted)),
                Err(_) => tally.failed += n,
            }
        }
        let Some((ticket, i, submitted)) = in_flight.pop_front() else {
            break;
        };
        let reply = ticket.wait();
        let now = Instant::now();
        let slice = (now.duration_since(start).as_secs_f64() / slice_s) as usize;
        match reply {
            Ok(preds) => {
                if slice < slices {
                    samples[slice] += preds.len() as u64;
                    latencies[slice].record(now.duration_since(submitted).as_nanos() as u64);
                }
                trace::span("bench.check", || checker.verify(i, &preds));
            }
            Err(_) => tally.failed += requests[i].len() as u64,
        }
        if slice >= slices {
            submitting = false;
        }
    }
    Measured {
        rates: samples.iter().map(|&s| s as f64 / slice_s).collect(),
        latencies,
    }
}

/// Starts a pool and waits for its first reply; returns the pool and the
/// time that took.
pub fn timed_setup(
    net: &BinaryNetwork,
    cfg: &PoolConfig,
    requests: &[Arc<Vec<Vec<f32>>>],
    checker: &mut Checker,
    tally: &mut Tally,
) -> (Pool, f64) {
    let t0 = Instant::now();
    let pool = Pool::start(net, cfg);
    let n = requests[0].len() as u64;
    tally.attempted += n;
    let reply = submit(&pool, requests, 0).and_then(adapter::Ticket::wait);
    let setup_s = t0.elapsed().as_secs_f64();
    match reply {
        Ok(preds) => checker.verify(0, &preds),
        Err(_) => tally.failed += n,
    }
    (pool, setup_s)
}

/// Runs one serve workload.
pub fn run(w: &ServeWorkload, args: &Args) -> Outcome {
    let synth = Instant::now();
    let net = adapter::demo_model(w.dims, args.seed ^ MODEL_SALT);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let width = w.dims[0];
    let requests: Vec<Arc<Vec<Vec<f32>>>> = (0..w.pool_requests)
        .map(|_| {
            let rows = (0..w.samples_per_request)
                .map(|_| (0..width).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            Arc::new(rows)
        })
        .collect();
    let mut order: Vec<usize> = (1..w.pool_requests).collect();
    order.shuffle(&mut rng);
    // Request 0 is the set-up probe; always check it.
    let subset: Vec<usize> = std::iter::once(0)
        .chain(order.into_iter().take(w.checked_requests - 1))
        .collect();
    let cfg = PoolConfig {
        backend: w.backend,
        workers: WORKERS,
        max_batch: w.max_batch,
        engine_seed: args.seed ^ ENGINE_SALT,
    };
    // On RRAM a freshly programmed fabric of the same chip recipe gives
    // the flip rate the served classes are held to.
    let flips = (w.backend == Backend::Rram).then(|| {
        adapter::expected_flips_per_sample(&adapter::program_fabric(&net, cfg.engine_seed))
    });
    let mut checker = Checker::new(&net, &requests, &subset, flips);
    let synth_s = synth.elapsed().as_secs_f64();
    println!("stamp {}", report::stamp(args, synth_s));

    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pool = None;
    for _ in 0..SETUPS {
        if let Some(p) = pool.take() {
            Pool::shutdown(p);
        }
        let (p, s) = timed_setup(&net, &cfg, &requests, &mut checker, &mut tally);
        setups.push(s);
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");

    let seconds = args.seconds as f64;
    let phase = |secs: f64, checker: &mut Checker, tally: &mut Tally| {
        closed_loop(
            &pool,
            &requests,
            w.outstanding,
            warmup(secs),
            1,
            checker,
            tally,
        );
        let d = Duration::from_secs_f64(secs);
        closed_loop(&pool, &requests, w.outstanding, d, SLICES, checker, tally)
    };
    let mut outcome = Outcome::default();
    if args.trace {
        let untraced = phase(seconds / 2.0, &mut checker, &mut tally);
        report::print_phase("untraced", &setups, &untraced);
        trace::set_enabled(true);
        let traced = phase(seconds / 2.0, &mut checker, &mut tally);
        trace::set_enabled(false);
        report::print_phase("traced", &setups, &traced);
        let self_times = trace::self_time_by_layer();
        let stats = pool.shutdown();
        let rows: Vec<&[f32]> = requests
            .iter()
            .flat_map(|r| r.iter().map(Vec::as_slice))
            .collect();
        let submit_ns = layers::span_mean_ns("serve.submit");
        let batch = (stats.mean_batch.round() as usize).max(1);
        let mut ledger = LayerReport::new(&net, &rows, batch, self_times);
        ledger.serve(&stats, submit_ns / 1e3);
        ledger.graph();
        ledger.rram(
            cfg.engine_seed,
            (w.backend == Backend::Rram).then_some(&stats),
        );
        ledger.stream_control(args.seed);
        let path_ns = submit_ns / w.samples_per_request as f64
            + if w.backend == Backend::Rram {
                ledger.get("rram.replay_ns_per_sample")
            } else {
                ledger.get("graph.pack_ns_per_sample") + ledger.get("graph.replay_ns_per_sample")
            };
        ledger.close(&untraced, &traced, path_ns, WORKERS + 1);
        outcome.metrics = ledger.finish(args, synth_s);
    } else {
        let measured = phase(seconds, &mut checker, &mut tally);
        report::print_phase("untraced", &setups, &measured);
        pool.shutdown();
        outcome.metrics = report::end_to_end(&setups, &measured);
    }
    println!(
        "check: {} samples compared, {} disagreed (allowed {}); {} of {} samples failed",
        checker.checked,
        checker.mismatched,
        checker.allowed(),
        tally.failed,
        tally.attempted
    );
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    outcome.correct = checker.passed() && tally.failed == 0;
    outcome
}
