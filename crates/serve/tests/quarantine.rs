//! Crash-loop containment: a replica that faults on every respawn attempt
//! is quarantined after the policy cap — it stops consuming backoff
//! cycles, its task fails fast, and the rest of the pool is untouched.
//!
//! One test function on purpose: the injection hook is process-wide, so
//! concurrent test threads arming it would race each other.

use std::time::Duration;

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
    (0..n).map(|i| (i % 5) as f32 - 2.0).collect()
}

#[test]
fn crash_looping_replica_is_quarantined_not_retried_forever() {
    let registry = ModelRegistry::demo(7);
    let quarantine_after = 3u32;
    let config = ServeConfig {
        workers: 1,
        backend: Backend::Software,
        supervisor: SupervisorPolicy {
            // Near-zero backoff so the crash loop plays out quickly; the
            // cap is what this test is about.
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            quarantine_after,
        },
        ..Default::default()
    };
    let server = Server::start(&registry, &config);
    let handle = server.handle();
    let ecg = features(&registry, ServeTask::Ecg);

    handle
        .classify(ServeTask::Ecg, ecg.clone())
        .expect("healthy baseline");

    // Arm exactly `quarantine_after` panics: the dispatch ordinal is
    // process-global, so the crash loop must consume every armed panic
    // (initial fault + each respawned engine's first dispatch) before the
    // sibling-replica probe below dispatches. While any panics remain
    // armed, a respawned ECG replica can never serve successfully — each
    // respawn's first dispatch faults again: a genuine crash loop.
    rbnn_serve::fault::arm_chaos(ChaosPlan::panics(u64::from(quarantine_after)));
    let mut fault_replies = 0u32;
    for _ in 0..40 {
        match handle.classify(ServeTask::Ecg, ecg.clone()) {
            Err(ServeError::EngineFault) => fault_replies += 1,
            other => panic!("crash loop must surface EngineFault, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(fault_replies == 40);

    let fleet = handle.fleet_health();
    let ecg_replica = fleet
        .replicas
        .iter()
        .find(|r| r.task == ServeTask::Ecg)
        .expect("ecg replica reported");
    assert_eq!(
        ecg_replica.health,
        ReplicaHealth::Quarantined,
        "crash loop must quarantine, fleet: {fleet}"
    );
    assert!(
        ecg_replica.faults >= u64::from(quarantine_after),
        "at least {quarantine_after} faults recorded: {fleet}"
    );
    assert_eq!(fleet.quarantined, 1);

    // The sibling replicas never noticed.
    let eeg = features(&registry, ServeTask::Eeg);
    handle
        .classify(ServeTask::Eeg, eeg)
        .expect("sibling replica still healthy");

    // Quarantine is sticky: even with injections exhausted, the replica
    // is not retried.
    rbnn_serve::fault::disarm_chaos();
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(
        handle.classify(ServeTask::Ecg, ecg),
        Err(ServeError::EngineFault),
        "quarantined replica must fail fast, not silently respawn"
    );

    drop(server);
}
