//! Regression test for the engine batch statistics: only task groups that
//! returned logits count as inferred. Transient failures, panicked
//! dispatches, a down replica and fully expired batches must leave
//! `EngineSnapshot::{batches, samples}` and `mean_batch` untouched.
//!
//! One test function on purpose: the chaos hook is process-wide, so
//! concurrent test threads arming it would race each other.

use std::sync::Arc;
use std::time::Duration;

use rbnn_serve::{
    Backend, ChaosPlan, ModelRegistry, ServeConfig, ServeError, ServeTask, Server, StatsSnapshot,
    SubmitOptions, SupervisorPolicy,
};

fn engine_totals(snap: &StatsSnapshot) -> (u64, u64) {
    let batches = snap.engines.iter().map(|e| e.batches).sum();
    let samples = snap.engines.iter().map(|e| e.samples).sum();
    (batches, samples)
}

#[test]
fn failed_and_expired_groups_are_not_counted_as_inferred() {
    let registry = ModelRegistry::demo(7);
    let config = ServeConfig {
        workers: 1,
        backend: Backend::Software,
        supervisor: SupervisorPolicy {
            base_backoff: Duration::from_secs(5),
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::start(&registry, &config);
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let features = vec![0.25f32; client.in_features()];

    // Every dispatch fails transiently: nothing is inferred.
    rbnn_serve::fault::arm_chaos(ChaosPlan {
        transient_per_mille: 1000,
        ..ChaosPlan::default()
    });
    for _ in 0..20 {
        assert_eq!(
            client.classify(features.clone()),
            Err(ServeError::Transient)
        );
    }
    rbnn_serve::fault::disarm_chaos();
    let snap = client.stats();
    assert_eq!(snap.transient, 20);
    assert_eq!(
        engine_totals(&snap),
        (0, 0),
        "transient groups inferred nothing"
    );
    assert_eq!(snap.mean_batch, 0.0);

    // A batch whose requests all expired records no 0-sample batch.
    let expired = SubmitOptions {
        deadline: Some(Duration::ZERO),
        ..SubmitOptions::default()
    };
    let pending = client
        .submit(Arc::new(vec![features.clone()]), &expired)
        .expect("admitted");
    assert_eq!(pending.wait(), Err(ServeError::DeadlineExceeded));

    // Healthy traffic is counted sample for sample. One synchronous
    // client and one worker make each request its own batch, so the
    // totals are exact (checked after shutdown: a worker records its
    // batch after answering it).
    for _ in 0..5 {
        client.classify(features.clone()).expect("served");
    }

    // A panicked dispatch, then the down replica failing fast: neither
    // adds to the inferred totals.
    rbnn_serve::fault::arm_chaos(ChaosPlan::panics(1));
    assert_eq!(
        client.classify(features.clone()),
        Err(ServeError::EngineFault)
    );
    rbnn_serve::fault::disarm_chaos();
    assert_eq!(
        client.classify(features.clone()),
        Err(ServeError::EngineFault),
        "the retired replica is still inside its backoff"
    );
    let snap = server.shutdown();
    assert_eq!(
        engine_totals(&snap),
        (5, 5),
        "only the healthy requests were inferred"
    );
    assert_eq!(snap.mean_batch, 1.0);
}
