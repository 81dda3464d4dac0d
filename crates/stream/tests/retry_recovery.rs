//! Retry absorbs transient faults: with the default retry budget, a
//! single injected engine panic never reaches the verdict stream — the
//! faulted windows are resubmitted after backoff and classify on the
//! respawned replica. Zero failed windows, retry counters visible.
//!
//! One test function on purpose: the injection hook is process-wide, so
//! concurrent test threads arming it would race each other.

use std::time::Duration;

use rbnn_data::stream::{EcgStream, EcgStreamConfig};
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, Backend, ModelRegistry, ServeConfig, ServeTask, Server, SupervisorPolicy,
};
use rbnn_stream::{
    Normalization, RouterConfig, SegmenterConfig, Session, SessionConfig, StreamRouter, TailPolicy,
    WindowLayout,
};

const CHANNELS: usize = 12;
const WINDOW: usize = 25;

#[test]
fn retry_budget_absorbs_engine_fault_without_losing_windows() {
    let net = demo_network(&[CHANNELS * WINDOW, 16, 2], 0x9E7);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net, EngineConfig::test_chip(5));
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            backend: Backend::Software,
            supervisor: SupervisorPolicy {
                // Respawn almost immediately so the retried windows land
                // on a healthy replica within the retry backoff budget.
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("bound");

    let mut router = StreamRouter::new(
        client,
        RouterConfig {
            chunk_frames: 64,
            windows_per_patient: 12,
            ..RouterConfig::default() // default retry budget: 3 attempts
        },
    );
    let source = EcgStream::new(EcgStreamConfig {
        samples_per_segment: 90,
        seed: 23,
        ..EcgStreamConfig::default()
    });
    let session = Session::new(SessionConfig {
        segmenter: SegmenterConfig {
            channels: CHANNELS,
            window: WINDOW,
            stride: WINDOW,
            tail: TailPolicy::Drop,
        },
        layout: WindowLayout::ChannelMajor,
        normalization: Normalization::PerWindow,
    });
    router.add_patient(0, Box::new(source), session);

    rbnn_serve::fault::arm_chaos(rbnn_serve::ChaosPlan::panics(1));
    let report = router.run().expect("run survives the fault").remove(0);

    assert!(report.windows >= 12, "target reached: {}", report.windows);
    assert_eq!(report.windows, report.verdicts.len() as u64);
    assert_eq!(
        report.failed_windows, 0,
        "retry budget must absorb the single fault"
    );
    assert!(
        report.retries >= 1,
        "the fault must have cost at least one retry"
    );
    assert!(report.verdicts.iter().all(|v| v.is_classified()));
    assert!(
        report.verdicts.iter().any(|v| v.retries > 0),
        "a retried window records its attempt count"
    );

    server.shutdown();
}
