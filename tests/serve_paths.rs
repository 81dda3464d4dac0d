//! Served == direct through the request paths the serving runtime is
//! optimised for: pipelined single-sample requests merged by the batcher,
//! zero-copy shared windows collected by polling, urgent eviction under
//! overload, requests still outstanding at shutdown, and mixed-task
//! batches the worker regroups by task in place — plus the typed
//! errors of the one submit primitive (expired deadline, a window with
//! one bad row, an unregistered task) and the class-count limit of a
//! served model (`MAX_CLASSES`), on start and on hot swap. A fresh
//! merge-configured pool answers a lone request without lingering.
//!
//! Small model (the deployed ECG shape, 408→75→2) so the whole file runs
//! in well under two seconds in a debug build.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_binary::BinaryNetwork;
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, AdmissionPolicy, BatchPolicy, ModelEntry, ModelRegistry, Pending, PendingWindow,
    Prediction, ServeConfig, ServeError, ServeTask, Server, SubmitOptions, MAX_CLASSES,
};

const DIMS: [usize; 3] = [408, 75, 2];
/// A second task of a different width (and class count) for mixed batches.
const EEG_DIMS: [usize; 3] = [256, 40, 3];

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
    rows_of(DIMS[0], n, rng)
}

fn rows_of(width: usize, n: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..width).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// Bitwise equality of a served ECG prediction with the network's own
/// logits.
fn assert_bitwise(registry: &ModelRegistry, row: &[f32], served: &Prediction) {
    let net = &registry.get(ServeTask::Ecg).expect("registered").network;
    assert_matches(net, row, served);
}

/// Bitwise equality of a served prediction with `net`'s own logits.
fn assert_matches(net: &BinaryNetwork, row: &[f32], served: &Prediction) {
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
fn fresh_merge_pool_answers_a_lone_request_without_lingering() {
    // A new pool has no batch history, so its first request dispatches at
    // once instead of waiting out a 10 s linger for stragglers.
    let registry = registry(29);
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 2,
            batch: BatchPolicy {
                max_batch: 64,
                max_delay: Duration::from_secs(10),
            },
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let client = handle.client(ServeTask::Ecg).expect("registered");
    let row = rows(1, &mut StdRng::seed_from_u64(9)).remove(0);
    let t0 = Instant::now();
    let served = client.enqueue(row.clone()).expect("admitted").wait();
    let waited = t0.elapsed();
    assert_bitwise(&registry, &row, &served.expect("served"));
    assert!(
        waited < Duration::from_secs(1),
        "a lone request on a fresh pool took {waited:?}"
    );
    // The first completion is always sampled, and shutdown joins the
    // worker that recorded it: its linger is nil.
    server.shutdown();
    let spans = handle.span_samples();
    let first = spans.first().expect("the first completion is traced");
    assert!(first.batch_wait < Duration::from_secs(1), "{first:?}");
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
            .then(|| client.submit(Arc::new(vec![probe.clone()]), &SubmitOptions::urgent(None)));
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

#[test]
fn submit_past_its_deadline_is_answered_deadline_exceeded() {
    let registry = registry(25);
    let server = Server::start(&registry, &ServeConfig::default());
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let row = rows(1, &mut StdRng::seed_from_u64(5));
    let before = client.stats().expired;
    let answer = client
        .submit(Arc::new(row), &SubmitOptions::urgent(Some(Duration::ZERO)))
        .expect("admitted")
        .wait();
    assert_eq!(answer, Err(ServeError::DeadlineExceeded));
    assert_eq!(client.stats().expired, before + 1);
    server.shutdown();
}

#[test]
fn window_with_a_short_last_row_is_refused_before_queueing() {
    let registry = registry(26);
    let server = Server::start(&registry, &ServeConfig::default());
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let mut window = rows(3, &mut StdRng::seed_from_u64(6));
    window[2].pop();
    let before = client.stats().submitted;
    let refused = client.submit(Arc::new(window), &SubmitOptions::default());
    assert_eq!(
        refused.map(|_| ()),
        Err(ServeError::FeatureWidth {
            expected: DIMS[0],
            got: DIMS[0] - 1
        })
    );
    assert_eq!(client.stats().submitted, before, "nothing was queued");
    server.shutdown();
}

#[test]
fn classify_on_an_unregistered_task_is_unknown_task() {
    let server = Server::start(&registry(27), &ServeConfig::default());
    assert_eq!(
        server.handle().classify(ServeTask::Eeg, vec![0.0; DIMS[0]]),
        Err(ServeError::UnknownTask(ServeTask::Eeg))
    );
    server.shutdown();
}

#[test]
fn mixed_task_batches_regroup_in_row_order_and_expire_in_place() {
    let mut registry = registry(28);
    registry.insert(
        ServeTask::Eeg,
        demo_network(&EEG_DIMS, 28),
        EngineConfig::test_chip(28),
    );
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            admission: AdmissionPolicy::Block,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let tasks = [ServeTask::Ecg, ServeTask::Eeg];
    let clients = tasks.map(|task| handle.client(task).expect("registered"));
    let mut rng = StdRng::seed_from_u64(8);
    enum Ticket {
        One(Pending),
        Window(PendingWindow),
    }
    // Interleaved so every batch the lone worker pops mixes both tasks,
    // single samples and 3-row windows; every fifth request is already
    // past its deadline when it is dispatched.
    const REQUESTS: usize = 400;
    let submitted: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let task = i % 2;
            let window = (i / 2) % 2 == 1;
            let expired = i % 5 == 4;
            let client = &clients[task];
            let rows = rows_of(client.in_features(), if window { 3 } else { 1 }, &mut rng);
            let ticket = if expired {
                let opts = SubmitOptions {
                    deadline: Some(Duration::ZERO),
                    ..SubmitOptions::default()
                };
                Ticket::Window(
                    client
                        .submit(Arc::new(rows.clone()), &opts)
                        .expect("admitted"),
                )
            } else if window {
                Ticket::Window(
                    client
                        .enqueue_shared(Arc::new(rows.clone()))
                        .expect("admitted"),
                )
            } else {
                Ticket::One(client.enqueue(rows[0].clone()).expect("admitted"))
            };
            (tasks[task], rows, expired, ticket)
        })
        .collect();
    let mut expired_count = 0u64;
    for (task, rows, expired, ticket) in submitted {
        let answer = match ticket {
            Ticket::One(pending) => pending.wait().map(|p| vec![p]),
            Ticket::Window(pending) => pending.wait(),
        };
        if expired {
            assert_eq!(answer, Err(ServeError::DeadlineExceeded));
            expired_count += 1;
            continue;
        }
        let answer = answer.expect("served");
        assert_eq!(answer.len(), rows.len());
        let net = &registry.get(task).expect("registered").network;
        for (row, served) in rows.iter().zip(&answer) {
            assert_matches(net, row, served);
        }
    }
    let snap = server.shutdown();
    assert_eq!(expired_count, REQUESTS as u64 / 5);
    assert_eq!(snap.expired, expired_count);
    assert_eq!(snap.completed + snap.expired, REQUESTS as u64);
    assert!(
        snap.mean_batch > 2.0,
        "pipelined mixed traffic must merge, mean batch {:.2}",
        snap.mean_batch
    );
}

/// A single-task registry serving `net` for ECG.
fn registry_of(net: &BinaryNetwork) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(5));
    registry
}

#[test]
fn widest_servable_model_serves_bitwise_and_a_wider_swap_is_refused() {
    const WIDTH: usize = 96;
    let widest = demo_network(&[WIDTH, 32, MAX_CLASSES], 61);
    let server = Server::start(
        &registry_of(&widest),
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let client = handle.client(ServeTask::Ecg).expect("registered");
    let mut rng = StdRng::seed_from_u64(61);
    let window = rows_of(WIDTH, 9, &mut rng);
    for row in &window {
        let served = client.classify(row.clone()).expect("served");
        assert_eq!(served.logits.len(), MAX_CLASSES);
        assert_matches(&widest, row, &served);
    }
    let served = client
        .enqueue_shared(Arc::new(window.clone()))
        .and_then(PendingWindow::wait)
        .expect("served window");
    assert_eq!(served.len(), window.len());
    for (row, prediction) in window.iter().zip(&served) {
        assert_matches(&widest, row, prediction);
    }

    // One class too many: the swap is refused with a typed error and the
    // deployed model keeps serving.
    let wider = ModelEntry {
        network: demo_network(&[WIDTH, 32, MAX_CLASSES + 1], 62),
        engine_config: EngineConfig::test_chip(6),
    };
    let refused = Err(ServeError::TooManyClasses {
        max: MAX_CLASSES,
        got: MAX_CLASSES + 1,
    });
    assert_eq!(handle.swap_model(ServeTask::Ecg, wider.clone()), refused);
    assert_eq!(server.swap_model(ServeTask::Ecg, wider), refused);
    let served = client.classify(window[0].clone()).expect("still served");
    assert_matches(&widest, &window[0], &served);
    let snap = server.shutdown();
    assert_eq!(snap.completed, window.len() as u64 + 2);
}

#[test]
#[should_panic(expected = "at most 16")]
fn start_refuses_a_model_wider_than_max_classes() {
    let wider = demo_network(&[32, 8, MAX_CLASSES + 1], 63);
    let _server = Server::start(&registry_of(&wider), &ServeConfig::default());
}
