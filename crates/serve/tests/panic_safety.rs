//! Regression test for the pool's self-healing contract: an engine
//! replica that panics mid-batch fails its own task group with
//! [`ServeError::EngineFault`], is retired under supervision, and is
//! *respawned* by its worker once the backoff elapses — the worker
//! thread, the queue, and every other replica keep serving throughout.
//!
//! One test function on purpose: the injection hook is process-wide, so
//! concurrent test threads arming it would race each other.

use std::time::{Duration, Instant};

use rbnn_serve::{
    Backend, ChaosPlan, ModelRegistry, ReplicaHealth, ServeConfig, ServeError, ServeTask, Server,
    SupervisorPolicy,
};

fn features(registry: &ModelRegistry, task: ServeTask) -> Vec<f32> {
    let n = registry
        .get(task)
        .expect("registered")
        .network
        .in_features();
    (0..n).map(|i| (i % 7) as f32 - 3.0).collect()
}

#[test]
fn engine_panic_degrades_one_replica_then_respawns() {
    let registry = ModelRegistry::demo(7);
    // A long first backoff makes the down window observable without
    // sleeping inside the assertion race: the replica cannot respawn
    // while we probe the degraded state.
    let config = ServeConfig {
        workers: 1, // one replica per task: the post-fault state is deterministic
        backend: Backend::Software,
        supervisor: SupervisorPolicy {
            base_backoff: Duration::from_millis(400),
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&registry, &config);
    let handle = server.handle();

    // Healthy baseline on the task we are about to break.
    let ecg = features(&registry, ServeTask::Ecg);
    handle
        .classify(ServeTask::Ecg, ecg.clone())
        .expect("healthy replica serves");

    // The next engine dispatch panics inside the worker.
    rbnn_serve::fault::arm_chaos(ChaosPlan::panics(1));
    let faulted_at = Instant::now();
    let faulted = handle.classify(ServeTask::Ecg, ecg.clone());
    assert_eq!(
        faulted,
        Err(ServeError::EngineFault),
        "panicking batch must fail, not hang"
    );

    // The worker survived: the other replicas it holds still serve...
    let eeg = features(&registry, ServeTask::Eeg);
    for _ in 0..10 {
        handle
            .classify(ServeTask::Eeg, eeg.clone())
            .expect("sibling replica unaffected by the fault");
    }
    // ...and while the backoff runs, the retired replica's task fails
    // fast instead of wedging (only if we are still inside the window —
    // a loaded CI box may already have passed it).
    if faulted_at.elapsed() < Duration::from_millis(300) {
        let during_backoff = handle.classify(ServeTask::Ecg, ecg.clone());
        assert_eq!(during_backoff, Err(ServeError::EngineFault));
        let fleet = handle.fleet_health();
        assert_eq!(fleet.down, 1, "fleet sees the retired replica: {fleet}");
        assert_eq!(fleet.faults, 1);
    }

    // After the backoff the worker rebuilds the replica from its spec and
    // the task serves again — the heart of the self-healing contract.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match handle.classify(ServeTask::Ecg, ecg.clone()) {
            Ok(_) => break,
            Err(ServeError::EngineFault) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("replica never respawned: {e}"),
        }
    }
    let fleet = handle.fleet_health();
    assert_eq!(fleet.respawns, 1, "exactly one respawn: {fleet}");
    assert_eq!(fleet.down, 0);
    assert_eq!(fleet.quarantined, 0);
    assert!(
        fleet
            .replicas
            .iter()
            .all(|r| r.health == ReplicaHealth::Healthy),
        "all replicas healthy again: {fleet}"
    );
    assert!(
        fleet.max_respawn_delay.is_some(),
        "respawn delay recorded: {fleet}"
    );

    // Shutdown still drains and joins cleanly.
    let snap = server.shutdown();
    assert!(
        snap.completed >= 12,
        "completed {} of 12+ healthy requests",
        snap.completed
    );
}
