//! Satellite regression: an engine fault inside the serve pool surfaces
//! in the stream layer as a *typed* failure verdict — never a lost
//! window, never a panic across the crate boundary. With the retry
//! budget disabled (one attempt), the first faulted request's windows
//! must appear as [`WindowOutcome::Failed`]`(EngineFault)` in the verdict
//! stream while the pool recovers and classifies the rest.
//!
//! One test function on purpose: the injection hook is process-wide, so
//! concurrent test threads arming it would race each other.

use std::time::{Duration, Instant};

use rbnn_data::stream::{EcgStream, EcgStreamConfig};
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, Backend, ModelRegistry, RetryPolicy, ServeConfig, ServeError, ServeTask, Server,
};
use rbnn_stream::{
    Normalization, RouterConfig, SegmenterConfig, Session, SessionConfig, StreamRouter, TailPolicy,
    WindowLayout,
};

const CHANNELS: usize = 12;
const WINDOW: usize = 25;

#[test]
fn engine_fault_reaches_verdict_stream_as_typed_error() {
    let net = demo_network(&[CHANNELS * WINDOW, 16, 2], 0xFA17);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net, EngineConfig::test_chip(5));
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1, // one replica: the faulted request is deterministic
            backend: Backend::Software,
            ..Default::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("bound");

    let cfg = RouterConfig {
        chunk_frames: 64,
        windows_per_patient: 12,
        // One attempt: the first failure is terminal, so the typed error
        // must show up in the verdict stream instead of being retried
        // away.
        retry: RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        },
        ..RouterConfig::default()
    };
    let mut router = StreamRouter::new(client, cfg);
    let source = EcgStream::new(EcgStreamConfig {
        samples_per_segment: 90,
        seed: 11,
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

    // The next engine dispatch panics; the 10 ms default backoff means
    // the replica respawns while the run is still going.
    rbnn_serve::fault::arm_chaos(rbnn_serve::ChaosPlan::panics(1));
    let report = router.run().expect("run survives the fault").remove(0);

    // Zero lost requests: every submitted window has a terminal verdict.
    assert!(report.windows >= 12, "target reached: {}", report.windows);
    assert_eq!(report.windows, report.verdicts.len() as u64);

    // The fault arrived as a typed error, not as silence.
    let failed: Vec<_> = report
        .verdicts
        .iter()
        .filter(|v| !v.is_classified())
        .collect();
    assert!(
        !failed.is_empty(),
        "the faulted request's windows must carry failure verdicts"
    );
    for v in &failed {
        assert_eq!(
            v.error(),
            Some(&ServeError::EngineFault),
            "typed EngineFault expected, got {:?}",
            v.outcome
        );
        assert_eq!(v.retries, 0, "max_attempts=1 never retries");
    }
    assert_eq!(report.failed_windows, failed.len() as u64);
    assert_eq!(report.retries, 0);

    // A synthetic source streams faster than the respawn backoff, so some
    // (possibly all) windows fail while the replica is down. The pool
    // still heals: direct classification succeeds once the supervisor
    // respawns the replica.
    let probe: Vec<f32> = (0..CHANNELS * WINDOW)
        .map(|i| (i % 5) as f32 - 2.0)
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match server.handle().classify(ServeTask::Ecg, probe.clone()) {
            Ok(_) => break,
            Err(ServeError::EngineFault) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("replica must respawn and serve again, got {e:?}"),
        }
    }
    let fleet = server.handle().fleet_health();
    assert!(
        fleet.respawns >= 1,
        "supervisor respawned the replica: {fleet}"
    );

    server.shutdown();
}
