//! Served == direct through the request paths the serving runtime is
//! optimised for: pipelined single-sample requests merged by the batcher,
//! zero-copy shared windows collected by polling, urgent eviction under
//! overload, and requests still outstanding at shutdown.
//!
//! Small model (the deployed ECG shape, 408→75→2) so the whole file runs
//! in well under two seconds in a debug build.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, AdmissionPolicy, BatchPolicy, ModelRegistry, Prediction, ServeConfig, ServeError,
    ServeTask, Server, SubmitOptions,
};

const DIMS: [usize; 3] = [408, 75, 2];

fn registry(seed: u64) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.insert(
        ServeTask::Ecg,
        demo_network(&DIMS, seed),
        EngineConfig::test_chip(seed),
    );
    registry
}

fn rows(n: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..DIMS[0]).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Bitwise equality of a served prediction with the network's own logits.
fn assert_bitwise(registry: &ModelRegistry, row: &[f32], served: &Prediction) {
    let net = &registry.get(ServeTask::Ecg).expect("registered").network;
    let direct = net.logits(row);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&served.logits), bits(&direct));
    assert_eq!(served.class, net.classify(row));
}

/// Runs `f` on its own thread and fails instead of hanging past `limit`.
fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit).expect("finished without hanging")
}

#[test]
fn pipelined_single_sample_requests_merge_and_match_direct() {
    let registry = registry(21);
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let inputs = rows(512, &mut StdRng::seed_from_u64(1));
    let pending: Vec<_> = inputs
        .iter()
        .map(|row| client.enqueue(row.clone()).expect("admitted"))
        .collect();
    for (row, ticket) in inputs.iter().zip(pending) {
        assert_bitwise(&registry, row, &ticket.wait().expect("served"));
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, 512);
    assert_eq!(snap.engines.iter().map(|e| e.samples).sum::<u64>(), 512);
    assert!(
        snap.mean_batch > 1.0,
        "pipelined requests must merge, mean batch {:.2}",
        snap.mean_batch
    );
}

#[test]
fn shared_windows_collected_by_polling_match_direct() {
    let registry = registry(22);
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let mut rng = StdRng::seed_from_u64(2);
    let windows: Vec<Arc<Vec<Vec<f32>>>> = (0..12)
        .map(|i| Arc::new(rows(1 + i * 5, &mut rng)))
        .collect();
    let mut pending: Vec<_> = windows
        .iter()
        .map(|w| Some(client.enqueue_shared(Arc::clone(w)).expect("admitted")))
        .collect();
    let mut answers: Vec<Option<Vec<Prediction>>> = vec![None; windows.len()];
    let deadline = Instant::now() + Duration::from_secs(10);
    while answers.iter().any(Option::is_none) {
        assert!(Instant::now() < deadline, "polled windows never completed");
        for (slot, answer) in pending.iter_mut().zip(answers.iter_mut()) {
            if let Some(result) = slot.as_ref().and_then(|p| p.poll()) {
                *answer = Some(result.expect("served"));
                *slot = None;
            }
        }
        thread::sleep(Duration::from_micros(50));
    }
    for (window, answer) in windows.iter().zip(answers) {
        let answer = answer.expect("collected");
        assert_eq!(answer.len(), window.len());
        for (row, served) in window.iter().zip(&answer) {
            assert_bitwise(&registry, row, served);
        }
    }
    server.shutdown();
}

#[test]
fn urgent_arrival_evicts_the_newest_routine_request() {
    let registry = registry(23);
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            batch: BatchPolicy {
                max_batch: 1,
                max_delay: Duration::ZERO,
            },
            queue_capacity: 4,
            admission: AdmissionPolicy::Shed,
            ..ServeConfig::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let mut rng = StdRng::seed_from_u64(3);
    // A long window keeps the lone worker busy while the queue fills; the
    // fill is retried in the rare case the worker finishes it first.
    let busy = Arc::new(rows(2048, &mut rng));
    let probe = rows(1, &mut rng).remove(0);
    let mut evicted = None;
    for _ in 0..50 {
        let hog = client.enqueue_shared(Arc::clone(&busy)).expect("admitted");
        // Fill only once the worker has taken the hog off the queue.
        while client.queue_depth() > 0 {
            thread::yield_now();
        }
        let mut routine = Vec::new();
        let full = loop {
            match client.enqueue(probe.clone()) {
                Ok(ticket) => routine.push(ticket),
                Err(ServeError::Overloaded) => break true,
                Err(e) => panic!("unexpected {e}"),
            }
            if routine.len() > 8 {
                break false;
            }
        };
        let before = client.stats().evicted;
        let urgent = full
            .then(|| client.enqueue_window_with(vec![probe.clone()], &SubmitOptions::urgent(None)));
        let urgent_evicted = full && client.stats().evicted > before;
        // Every accepted request still ends in a typed answer.
        hog.wait().expect("hog served");
        let results: Vec<_> = routine.into_iter().map(|t| t.wait()).collect();
        if let Some(urgent) = urgent {
            let answer = urgent
                .expect("urgent admitted")
                .wait()
                .expect("urgent served");
            assert_bitwise(&registry, &probe, &answer[0]);
        }
        if urgent_evicted {
            evicted = Some(results);
            break;
        }
    }
    let results = evicted.expect("an urgent arrival found the queue full");
    let (newest, older) = results.split_last().expect("routine requests queued");
    assert_eq!(
        newest,
        &Err(ServeError::Overloaded),
        "newest routine is evicted"
    );
    for served in older {
        assert_bitwise(&registry, &probe, served.as_ref().expect("served"));
    }
    server.shutdown();
}

#[test]
fn requests_outstanding_at_shutdown_end_in_a_typed_result() {
    let registry = registry(24);
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let mut rng = StdRng::seed_from_u64(4);
    let inputs = rows(200, &mut rng);
    let singles: Vec<_> = inputs
        .iter()
        .map(|row| client.enqueue(row.clone()).expect("admitted"))
        .collect();
    let window = Arc::new(rows(32, &mut rng));
    let shared = client
        .enqueue_shared(Arc::clone(&window))
        .expect("admitted");
    let snap = within(Duration::from_secs(10), move || server.shutdown());
    assert_eq!(snap.submitted, 201);
    let (singles, shared) = within(Duration::from_secs(10), move || {
        let singles: Vec<_> = singles.into_iter().map(|t| t.wait()).collect();
        (singles, shared.wait())
    });
    // Shutdown drains the queue: every outstanding request is answered,
    // and answered correctly.
    for (row, result) in inputs.iter().zip(&singles) {
        assert_bitwise(&registry, row, result.as_ref().expect("drained"));
    }
    for (row, served) in window.iter().zip(&shared.expect("drained")) {
        assert_bitwise(&registry, row, served);
    }
    // After shutdown new work is refused with a typed error.
    assert_eq!(
        client.enqueue(inputs[0].clone()).map(|_| ()),
        Err(ServeError::ShuttingDown)
    );
}
