//! Hot model swap vs. cached execution plans: a model swapped at runtime
//! must invalidate every worker's compiled [`ExecPlan`] cache — a stale
//! plan replaying old weights would answer with the *previous* model's
//! logits bit-for-bit, which is exactly what these tests would catch,
//! since workers serve every request off the plan cache.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, Backend, ModelEntry, ModelRegistry, PendingWindow, ServeConfig, ServeError,
    ServeTask, Server,
};

const DIMS: &[usize] = &[40, 24, 4];

fn probe(i: usize) -> Vec<f32> {
    (0..DIMS[0])
        .map(|j| ((i * 31 + j * 7) % 13) as f32 - 6.0)
        .collect()
}

fn registry_with(net: &rbnn_binary::BinaryNetwork) -> ModelRegistry {
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(9));
    registry
}

#[test]
fn swap_invalidates_cached_plans_and_never_serves_a_stale_or_blended_model() {
    let net_a = demo_network(DIMS, 0xA);
    let net_b = demo_network(DIMS, 0xB);
    // Precondition: the two models are distinguishable on every probe.
    for i in 0..8 {
        assert_ne!(
            net_a.logits(&probe(i)),
            net_b.logits(&probe(i)),
            "probe {i} cannot tell the models apart"
        );
    }

    let config = ServeConfig {
        workers: 2,
        backend: Backend::Software,
        ..Default::default()
    };
    let server = Server::start(&registry_with(&net_a), &config);
    let handle = server.handle();

    // Warm every worker's plan cache on model A and pin the answers.
    for i in 0..8 {
        let p = handle.classify(ServeTask::Ecg, probe(i)).expect("serves");
        assert_eq!(p.logits, net_a.logits(&probe(i)), "warm-up must be model A");
    }

    // Concurrent classifies racing the swap: every answer must be exactly
    // model A or exactly model B — never a mix of stale plan and new
    // weights.
    let stop = Arc::new(AtomicBool::new(false));
    let racers: Vec<_> = (0..3)
        .map(|t| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let (net_a, net_b) = (net_a.clone(), net_b.clone());
            std::thread::spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let x = probe(i % 8);
                    let p = handle.classify(ServeTask::Ecg, x.clone()).expect("serves");
                    let (a, b) = (net_a.logits(&x), net_b.logits(&x));
                    assert!(
                        p.logits == a || p.logits == b,
                        "blended answer during swap: got {:?}, A={a:?}, B={b:?}",
                        p.logits
                    );
                    i += 1;
                }
            })
        })
        .collect();

    let version = handle
        .swap_model(
            ServeTask::Ecg,
            ModelEntry {
                network: net_b.clone(),
                engine_config: EngineConfig::test_chip(9),
            },
        )
        .expect("width-stable swap succeeds");
    assert_eq!(version, 1);

    // Every request submitted after the swap returned is answered by model
    // B: workers adopt the new version (dropping their cached plan) before
    // evaluating the batch.
    for i in 0..8 {
        let p = handle.classify(ServeTask::Ecg, probe(i)).expect("serves");
        assert_eq!(
            p.logits,
            net_b.logits(&probe(i)),
            "post-swap answer still on the old model/plan (probe {i})"
        );
    }

    stop.store(true, Ordering::Relaxed);
    for racer in racers {
        racer.join().expect("racer panicked");
    }

    // Swapping again keeps versioning monotonic and re-invalidates.
    let version = handle
        .swap_model(
            ServeTask::Ecg,
            ModelEntry {
                network: net_a.clone(),
                engine_config: EngineConfig::test_chip(9),
            },
        )
        .expect("swap back");
    assert_eq!(version, 2);
    let p = handle.classify(ServeTask::Ecg, probe(0)).expect("serves");
    assert_eq!(p.logits, net_a.logits(&probe(0)));

    drop(server);
}

#[test]
fn swap_rejects_width_changes_and_unknown_tasks() {
    let net = demo_network(DIMS, 0xA);
    let server = Server::start(
        &registry_with(&net),
        &ServeConfig {
            workers: 1,
            backend: Backend::Software,
            ..Default::default()
        },
    );
    let handle = server.handle();

    // Width change: rejected, deployment untouched.
    let wider = demo_network(&[64, 8, 4], 0xC);
    let err = handle
        .swap_model(
            ServeTask::Ecg,
            ModelEntry {
                network: wider,
                engine_config: EngineConfig::test_chip(9),
            },
        )
        .expect_err("width change must be rejected");
    assert!(
        matches!(
            err,
            ServeError::FeatureWidth {
                expected: 40,
                got: 64
            }
        ),
        "unexpected error: {err:?}"
    );

    // Unregistered task: rejected.
    let err = handle
        .swap_model(
            ServeTask::Eeg,
            ModelEntry {
                network: net.clone(),
                engine_config: EngineConfig::test_chip(9),
            },
        )
        .expect_err("unknown task must be rejected");
    assert!(matches!(err, ServeError::UnknownTask(ServeTask::Eeg)));

    // The original model still serves, unaffected by the rejected swaps.
    let p = handle.classify(ServeTask::Ecg, probe(3)).expect("serves");
    assert_eq!(p.logits, net.logits(&probe(3)));
}

#[test]
fn served_logits_are_bitwise_equal_to_the_scalar_oracle_at_edge_widths() {
    // Word-boundary widths at every fusion boundary, with a window request
    // that spans more rows than the smallest plan capacity.
    let net = demo_network(&[65, 63, 127, 5], 0xD);
    let server = Server::start(
        &registry_with(&net),
        &ServeConfig {
            workers: 1,
            backend: Backend::Software,
            ..Default::default()
        },
    );
    let handle = server.handle();
    let rows: Vec<Vec<f32>> = (0..40)
        .map(|i| {
            (0..65)
                .map(|j| ((i * 17 + j * 3) % 11) as f32 - 5.0)
                .collect()
        })
        .collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for row in rows.iter().take(6) {
        let p = handle
            .classify(ServeTask::Ecg, row.clone())
            .expect("serves");
        assert_eq!(bits(&p.logits), bits(&net.logits(row)));
    }
    let window = handle
        .client(ServeTask::Ecg)
        .and_then(|client| client.enqueue_shared(Arc::new(rows.clone())))
        .and_then(PendingWindow::wait)
        .expect("window served");
    assert_eq!(window.len(), rows.len());
    for (row, p) in rows.iter().zip(&window) {
        assert_eq!(bits(&p.logits), bits(&net.logits(row)));
    }
}
