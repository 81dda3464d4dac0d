//! Runtime proof of the allocation-free serve worker: a counting global
//! allocator shows that, in steady state, a worker merging pipelined
//! single-sample requests into full batches neither allocates nor makes
//! its clients' buffers its own, and that each `enqueue` + `wait` costs
//! the submitting thread a bounded handful of allocations.
//!
//! The counts are process-wide, so this binary holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, AdmissionPolicy, Backend, BatchPolicy, ModelRegistry, Pending, ServeConfig,
    ServeTask, Server, TaskClient,
};

/// Counts every allocation (fresh, zeroed or grown) process-wide and per
/// thread, then defers to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
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

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only an atomic and a
// const-initialised thread-local `Cell`, neither of which allocates.
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
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (allocations process-wide, allocations on the calling thread).
fn counts() -> (u64, u64) {
    // Relaxed: see `count`.
    let total = ALLOCS.load(Ordering::Relaxed);
    (total, THREAD_ALLOCS.with(Cell::get))
}

const DIMS: [usize; 3] = [408, 75, 2];
/// Requests kept outstanding: deep enough that the worker always finds a
/// full batch queued.
const IN_FLIGHT: usize = 256;
const MAX_BATCH: usize = 64;
const MEASURED: usize = 8192;
/// Most times a queue lane of the default 4096 capacity can grow.
const LANE_GROWTHS: u64 = 12;

/// Keeps `IN_FLIGHT` single-sample requests outstanding for `requests`
/// more submissions: each step collects the oldest answer, checks it
/// bitwise against the oracle, and submits a fresh row of the caller's
/// own. Allocates only what the serve path itself makes the caller
/// allocate (the row, the reply slot, the prediction's logits).
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
                prediction
                    .logits
                    .iter()
                    .zip(&oracle[i])
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "served logits differ from the oracle"
            );
        }
        let i = *next % rows.len();
        *next += 1;
        in_flight.push_back((i, client.enqueue(rows[i].clone()).expect("admitted")));
    }
}

#[test]
fn steady_state_single_sample_serving_allocates_only_on_the_submitting_thread() {
    let mut registry = ModelRegistry::new();
    let net = demo_network(&DIMS, 31);
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(31));
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            backend: Backend::Software,
            batch: BatchPolicy {
                max_batch: MAX_BATCH,
                max_delay: Duration::from_micros(250),
            },
            admission: AdmissionPolicy::Block,
            ..ServeConfig::default()
        },
    );
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

    let (total_before, mine_before) = counts();
    drive(&client, &mut in_flight, &rows, &oracle, &mut next, MEASURED);
    let (total_after, mine_after) = counts();

    let mine = mine_after - mine_before;
    let elsewhere = (total_after - total_before) - mine;
    assert_eq!(
        elsewhere, 0,
        "{elsewhere} allocations off the submitting thread over {MEASURED} requests \
         (the worker must allocate nothing per single-sample request)"
    );
    // The caller's own feature `Vec`, the reply slot, and the prediction's
    // logits — plus the odd growth of the queue's lane, which the pushing
    // thread pays when the queue holds more requests than it ever has
    // (a lane doubles at most log2(4096) = 12 times in a server's life).
    assert!(
        mine <= 3 * MEASURED as u64 + LANE_GROWTHS,
        "{mine} allocations on the submitting thread over {MEASURED} enqueue + wait \
         ({:.2} per request, at most 3 expected)",
        mine as f64 / MEASURED as f64
    );

    for (i, pending) in in_flight {
        assert_eq!(pending.wait().expect("served").logits, oracle[i]);
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, next as u64);
    assert_eq!(snap.rejected + snap.expired + snap.transient, 0);
}
