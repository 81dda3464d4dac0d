//! Runtime proof of the serve path's allocation budget: a counting global
//! allocator shows that, in steady state,
//!
//! * a worker merging pipelined single-sample requests into full batches
//!   neither allocates nor frees anything: no float row reaches it (the
//!   client packs each row's sign bits and frees the row before
//!   queuing), and it reads each request where it lies in its reply slot,
//!   which the client alone frees or reuses. Each `enqueue` + `wait`
//!   costs the submitting thread one allocation, its own float row: the
//!   slot it collected last is its spare, so the next request reuses that
//!   slot and packs into its word buffer;
//! * a worker serving pipelined 64-row shared windows makes exactly one
//!   allocation per window, the answer's `Vec<Prediction>` (each
//!   prediction holds its logits inline), and frees nothing. The
//!   submitting thread allocates a slot only while the windows in flight
//!   outnumber its one spare, so at most `WINDOWS_IN_FLIGHT` over the
//!   whole measured span.
//!
//! The counts are process-wide, so this binary holds exactly one test,
//! which runs both phases one after the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_binary::BinaryNetwork;
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, AdmissionPolicy, Backend, BatchPolicy, ModelRegistry, Pending, PendingWindow,
    Prediction, ServeConfig, ServeTask, Server, TaskClient,
};

/// Counts every allocation (fresh, zeroed or grown) and every
/// deallocation, process-wide and per thread, then defers to the system
/// allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_FREES: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Relaxed: a plain event counter. The test reads it only after the
    // worker's answers reached it through the reply slot's mutex, which
    // orders every counted worker allocation before the read.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // A const-initialised `Cell` needs no lazy setup and no destructor, so
    // this never allocates and stays usable during thread teardown.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn count_free() {
    // Relaxed: as in `count`; a worker's free of a request's memory
    // happens before that request's answer reaches the test.
    FREES.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_FREES.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and
// const-initialised thread-local `Cell`s, none of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`; the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free();
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation and deallocation counts at one instant.
#[derive(Clone, Copy)]
struct Counts {
    /// Allocations process-wide.
    allocs: u64,
    /// Allocations on the calling thread.
    my_allocs: u64,
    /// Deallocations process-wide.
    frees: u64,
    /// Deallocations on the calling thread.
    my_frees: u64,
}

impl Counts {
    fn now() -> Self {
        // Relaxed: see `count`.
        Counts {
            allocs: ALLOCS.load(Ordering::Relaxed),
            my_allocs: THREAD_ALLOCS.with(Cell::get),
            frees: FREES.load(Ordering::Relaxed),
            my_frees: THREAD_FREES.with(Cell::get),
        }
    }

    /// (allocations on the calling thread, allocations elsewhere,
    /// deallocations elsewhere) since `before`.
    fn since(before: Counts) -> (u64, u64, u64) {
        let after = Counts::now();
        let mine = after.my_allocs - before.my_allocs;
        let elsewhere = (after.allocs - before.allocs) - mine;
        let freed_elsewhere = (after.frees - before.frees) - (after.my_frees - before.my_frees);
        (mine, elsewhere, freed_elsewhere)
    }
}

const DIMS: [usize; 3] = [408, 75, 2];
/// Requests kept outstanding: deep enough that the worker always finds a
/// full batch queued.
const IN_FLIGHT: usize = 256;
const MAX_BATCH: usize = 64;
const MEASURED: usize = 8192;
/// Rows per window request, and windows kept outstanding (as the repo
/// benchmark's ecg-batch64 load does).
const WINDOW_ROWS: usize = 64;
const WINDOWS_IN_FLIGHT: usize = 4;
const MEASURED_WINDOWS: usize = 512;
/// Most times a queue lane of the default 4096 capacity can grow.
const LANE_GROWTHS: u64 = 12;

/// A one-worker software server for `net` with the given batch cap, whose
/// full queue blocks the producer instead of shedding.
fn start(net: &BinaryNetwork, max_batch: usize) -> Server {
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(31));
    Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            backend: Backend::Software,
            batch: BatchPolicy {
                max_batch,
                max_delay: Duration::from_micros(250),
            },
            admission: AdmissionPolicy::Block,
            ..ServeConfig::default()
        },
    )
}

/// Whether a served prediction's logits equal the oracle's, bit for bit.
fn bitwise(prediction: &Prediction, oracle: &[f32]) -> bool {
    prediction.logits.len() == oracle.len()
        && prediction
            .logits
            .iter()
            .zip(oracle)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Keeps `IN_FLIGHT` single-sample requests outstanding for `requests`
/// more submissions: each step collects the oldest answer, checks it
/// bitwise against the oracle, and submits a fresh row of the caller's
/// own. Allocates only the caller's float row; the serve path reuses the
/// reply slot collected just before.
fn drive(
    client: &TaskClient,
    in_flight: &mut VecDeque<(usize, Pending)>,
    rows: &[Vec<f32>],
    oracle: &[Vec<f32>],
    next: &mut usize,
    requests: usize,
) {
    for _ in 0..requests {
        if in_flight.len() == IN_FLIGHT {
            let (i, pending) = in_flight.pop_front().expect("window is full");
            let prediction = pending.wait().expect("served");
            assert!(
                bitwise(&prediction, &oracle[i]),
                "served logits differ from the oracle"
            );
        }
        let i = *next % rows.len();
        *next += 1;
        in_flight.push_back((i, client.enqueue(rows[i].clone()).expect("admitted")));
    }
}

/// Keeps `WINDOWS_IN_FLIGHT` shared windows outstanding for `requests`
/// more submissions, cycling through the caller's `windows`: each step
/// collects the oldest answer, checks every row bitwise against the
/// oracle, and resubmits a window the caller already holds (an `Arc`
/// clone, no allocation). Allocates a reply slot only when no collected
/// one is spare.
fn drive_windows(
    client: &TaskClient,
    in_flight: &mut VecDeque<(usize, PendingWindow)>,
    windows: &[Arc<Vec<Vec<f32>>>],
    oracle: &[Vec<Vec<f32>>],
    next: &mut usize,
    requests: usize,
) {
    for _ in 0..requests {
        if in_flight.len() == WINDOWS_IN_FLIGHT {
            collect_window(in_flight, oracle);
        }
        let i = *next % windows.len();
        *next += 1;
        let pending = client
            .enqueue_shared(Arc::clone(&windows[i]))
            .expect("admitted");
        in_flight.push_back((i, pending));
    }
}

/// Collects the oldest outstanding window and checks every row bitwise
/// against the oracle.
fn collect_window(in_flight: &mut VecDeque<(usize, PendingWindow)>, oracle: &[Vec<Vec<f32>>]) {
    let (i, pending) = in_flight.pop_front().expect("a window is outstanding");
    let predictions = pending.wait().expect("served");
    assert_eq!(predictions.len(), WINDOW_ROWS);
    assert!(
        predictions
            .iter()
            .zip(&oracle[i])
            .all(|(p, o)| bitwise(p, o)),
        "served window logits differ from the oracle"
    );
}

#[test]
fn steady_state_single_sample_serving_allocates_only_on_the_submitting_thread() {
    let net = demo_network(&DIMS, 31);
    let server = start(&net, MAX_BATCH);
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let mut rng = StdRng::seed_from_u64(31);
    let rows: Vec<Vec<f32>> = (0..97)
        .map(|_| (0..DIMS[0]).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let oracle: Vec<Vec<f32>> = rows.iter().map(|row| net.logits(row)).collect();
    let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
    let mut next = 0;

    // Warm-up: run until whole rounds dispatch near-full batches, so the
    // worker's plan, batch buffer, gather scratch and the queue's lanes
    // have all reached their steady-state capacity.
    let mut warm = false;
    let mut last = server.stats().engines[0];
    for _ in 0..64 {
        drive(&client, &mut in_flight, &rows, &oracle, &mut next, 1024);
        let now = server.stats().engines[0];
        let round_mean = (now.samples - last.samples) as f64 / (now.batches - last.batches) as f64;
        last = now;
        if round_mean >= 0.75 * MAX_BATCH as f64 {
            warm = true;
            break;
        }
    }
    assert!(warm, "pipelined requests never formed full batches");

    let before = Counts::now();
    drive(&client, &mut in_flight, &rows, &oracle, &mut next, MEASURED);
    let (mine, elsewhere, freed_elsewhere) = Counts::since(before);

    assert_eq!(
        elsewhere, 0,
        "{elsewhere} allocations off the submitting thread over {MEASURED} requests \
         (the worker must allocate nothing per single-sample request)"
    );
    assert_eq!(
        freed_elsewhere, 0,
        "{freed_elsewhere} deallocations off the submitting thread over {MEASURED} \
         requests (packed rows and reply slots are the client's to free)"
    );
    // The caller's own feature `Vec` — plus the odd growth of the queue's
    // lane, which the pushing thread pays when the queue holds more
    // requests than it ever has (a lane doubles at most log2(4096) = 12
    // times in a server's life). The reply slot and its packed row are
    // the ones collected just before; the prediction, logits inline,
    // costs nothing.
    assert!(
        mine <= MEASURED as u64 + LANE_GROWTHS,
        "{mine} allocations on the submitting thread over {MEASURED} enqueue + wait \
         ({:.2} per request, at most 1 expected)",
        mine as f64 / MEASURED as f64
    );

    for (i, pending) in in_flight {
        assert_eq!(pending.wait().expect("served").logits, oracle[i]);
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, next as u64);
    assert_eq!(snap.rejected + snap.expired + snap.transient, 0);

    // Window phase: one 64-row window per dispatch, as the benchmark's
    // ecg-batch64 load submits them.
    let server = start(&net, 1);
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let windows: Vec<Arc<Vec<Vec<f32>>>> = (0..3)
        .map(|w| {
            let rows = (0..WINDOW_ROWS)
                .map(|r| rows[(w * WINDOW_ROWS + r) % rows.len()].clone())
                .collect();
            Arc::new(rows)
        })
        .collect();
    let window_oracle: Vec<Vec<Vec<f32>>> = windows
        .iter()
        .map(|w| w.iter().map(|row| net.logits(row)).collect())
        .collect();
    let mut in_flight = VecDeque::with_capacity(WINDOWS_IN_FLIGHT);
    let mut next = 0;
    // Warm-up: the first windows compile the plan, which stays at a
    // window's size from then on.
    drive_windows(
        &client,
        &mut in_flight,
        &windows,
        &window_oracle,
        &mut next,
        64,
    );
    // The measured span starts and ends with no window outstanding, so
    // the worker answers exactly the windows submitted inside it.
    while !in_flight.is_empty() {
        collect_window(&mut in_flight, &window_oracle);
    }

    let before = Counts::now();
    drive_windows(
        &client,
        &mut in_flight,
        &windows,
        &window_oracle,
        &mut next,
        MEASURED_WINDOWS,
    );
    while !in_flight.is_empty() {
        collect_window(&mut in_flight, &window_oracle);
    }
    let (mine, elsewhere, freed_elsewhere) = Counts::since(before);

    // The worker builds each answer's `Vec<Prediction>` and nothing else.
    assert_eq!(
        elsewhere,
        MEASURED_WINDOWS as u64,
        "{elsewhere} allocations off the submitting thread over {MEASURED_WINDOWS} \
         {WINDOW_ROWS}-row windows ({:.2} per window, exactly 1 expected)",
        elsewhere as f64 / MEASURED_WINDOWS as f64
    );
    assert_eq!(
        freed_elsewhere, 0,
        "{freed_elsewhere} deallocations off the submitting thread over \
         {MEASURED_WINDOWS} windows (answers and reply slots are the client's to free)"
    );
    // The span starts with one spare slot and no window outstanding, so
    // filling the window allocates a slot for each window in flight but
    // the first; every later window reuses the slot collected just
    // before. Plus the queue lane's lifetime growths.
    assert!(
        mine <= WINDOWS_IN_FLIGHT as u64 + LANE_GROWTHS,
        "{mine} allocations on the submitting thread over {MEASURED_WINDOWS} \
         enqueue_shared + wait (at most {} expected in total)",
        WINDOWS_IN_FLIGHT as u64 + LANE_GROWTHS
    );

    let snap = server.shutdown();
    assert_eq!(snap.completed, next as u64);
    assert_eq!(snap.rejected + snap.expired + snap.transient, 0);
}
