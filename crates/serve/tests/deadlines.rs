//! Request-deadline semantics: a request whose deadline has passed by the
//! time a worker forms its batch is dropped *before* the engine sees it
//! and answered with [`ServeError::DeadlineExceeded`]; a request with
//! headroom is unaffected.

use std::sync::Arc;
use std::time::Duration;

use rbnn_serve::{
    Backend, ModelRegistry, PendingWindow, Priority, ServeConfig, ServeError, ServeTask, Server,
    SubmitOptions,
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
fn expired_deadline_is_rejected_before_dispatch() {
    let registry = ModelRegistry::demo(7);
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            backend: Backend::Software,
            ..Default::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let ecg = features(&registry, ServeTask::Ecg);
    let classify = |opts: &SubmitOptions| {
        client
            .submit(Arc::new(vec![ecg.clone()]), opts)
            .and_then(PendingWindow::wait)
    };

    // A zero deadline is already expired when the batch forms.
    let expired = classify(&SubmitOptions {
        deadline: Some(Duration::ZERO),
        ..Default::default()
    });
    assert_eq!(expired, Err(ServeError::DeadlineExceeded));
    assert!(
        !ServeError::DeadlineExceeded.is_retryable(),
        "an expired deadline must not be retried — the answer is late either way"
    );

    // Generous headroom sails through, urgent or routine.
    for priority in [Priority::Routine, Priority::Urgent] {
        let opts = SubmitOptions {
            priority,
            deadline: Some(Duration::from_secs(30)),
        };
        classify(&opts).expect("deadline with headroom serves normally");
    }

    let snap = server.shutdown();
    assert_eq!(snap.expired, 1, "expired counter tracks the drop: {snap}");
    assert_eq!(snap.completed, 2);
}

#[test]
fn urgent_constructor_sets_lane_and_deadline() {
    let opts = SubmitOptions::urgent(Some(Duration::from_millis(250)));
    assert_eq!(opts.priority, Priority::Urgent);
    assert_eq!(opts.deadline, Some(Duration::from_millis(250)));
    let routine = SubmitOptions::routine();
    assert_eq!(routine.priority, Priority::Routine);
    assert_eq!(routine.deadline, None);
}
