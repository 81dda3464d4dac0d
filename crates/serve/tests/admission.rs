//! Admission control under overload: with the default
//! [`AdmissionPolicy::Shed`], a full queue rejects the newest routine
//! arrival instead of blocking the producer, and an urgent arrival evicts
//! the newest queued routine request (the alarm-adjacent window jumps the
//! line; the displaced routine caller gets a retryable
//! [`ServeError::Overloaded`]).
//!
//! One test function on purpose: the worker is jammed through the
//! process-wide chaos hook (every dispatch stalls), so concurrent test
//! threads would race the armed plan.

use std::sync::Arc;
use std::time::Duration;

use rbnn_serve::{
    Backend, ChaosPlan, ModelRegistry, PendingWindow, Priority, ServeConfig, ServeError, ServeTask,
    Server, SubmitOptions,
};

fn features(registry: &ModelRegistry, task: ServeTask) -> Vec<f32> {
    let n = registry
        .get(task)
        .expect("registered")
        .network
        .in_features();
    (0..n).map(|i| (i % 3) as f32 - 1.0).collect()
}

#[test]
fn full_queue_sheds_routine_and_urgent_evicts_newest() {
    let registry = ModelRegistry::demo(7);
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            backend: Backend::Software,
            queue_capacity: 2,
            batch: rbnn_serve::BatchPolicy {
                max_batch: 1, // one request per dispatch: the stall pins exactly one
                max_delay: Duration::ZERO,
            },
            ..Default::default()
        },
    );
    let handle = server.handle();
    let client = handle.client(ServeTask::Ecg).expect("registered");
    let ecg = features(&registry, ServeTask::Ecg);

    // Jam the worker: every dispatch stalls 150..600 ms.
    rbnn_serve::fault::arm_chaos(ChaosPlan {
        stall_per_mille: 1000,
        max_stall: Duration::from_millis(600),
        ..Default::default()
    });

    // A: picked up by the worker and pinned in the stall. Give the worker
    // a moment to dequeue it so the queue is empty again.
    let pinned = client.enqueue(ecg.clone()).expect("A");
    std::thread::sleep(Duration::from_millis(60));

    // B, C fill the 2-slot queue while the worker is pinned.
    let b = client.enqueue(ecg.clone()).expect("B");
    let c = client.enqueue(ecg.clone()).expect("C");

    // D: routine arrival on a full queue is shed at the door.
    let shed = handle.classify(ServeTask::Ecg, ecg.clone());
    assert_eq!(shed, Err(ServeError::Overloaded), "reject-newest sheds D");
    assert!(
        ServeError::Overloaded.is_retryable(),
        "shed requests are safe to retry after backoff"
    );

    // E: urgent arrival evicts the newest queued routine request (C).
    let e = client
        .submit(
            Arc::new(vec![ecg.clone()]),
            &SubmitOptions {
                priority: Priority::Urgent,
                deadline: None,
            },
        )
        .and_then(PendingWindow::wait);

    // C (newest routine) was evicted to make room for E.
    assert_eq!(
        c.wait(),
        Err(ServeError::Overloaded),
        "urgent arrival evicts the newest routine request"
    );

    // Once the stalls drain, A, B and E all complete.
    assert!(
        pinned.wait().is_ok(),
        "pinned request completes after stall"
    );
    assert!(b.wait().is_ok(), "B completes");
    assert!(e.is_ok(), "urgent E completes: {e:?}");

    rbnn_serve::fault::disarm_chaos();
    let snap = server.shutdown();
    assert!(snap.rejected >= 1, "shed counted: {snap}");
    assert_eq!(snap.evicted, 1, "eviction counted: {snap}");
}
