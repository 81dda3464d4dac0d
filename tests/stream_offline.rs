//! Streamed == offline through the whole monitoring stack: a small seeded
//! ECG fleet runs through `StreamRouter` over a two-worker software
//! server, and every verdict's logits must equal, bit for bit, the
//! network's own logits for the same window cut offline by one `Session`
//! pass over the same frames. No window may fail.
//!
//! Small model and short streams, so the file runs in about a second in a
//! debug build.

use rbnn_data::stream::{collect_frames, EcgStream, EcgStreamConfig};
use rbnn_rram::EngineConfig;
use rbnn_serve::{demo_network, Backend, ModelRegistry, ServeConfig, ServeTask, Server};
use rbnn_stream::{
    Normalization, RouterConfig, SegmenterConfig, Session, SessionConfig, StreamRouter, TailPolicy,
    WindowLayout,
};

const CHANNELS: usize = 12;
/// Frames per window and between window starts: consecutive windows
/// overlap, so every frame past the first stride is cut twice.
const WINDOW: usize = 30;
const STRIDE: usize = 20;
const PATIENTS: usize = 4;
const WINDOWS_PER_PATIENT: u64 = 24;

fn source(patient: usize) -> EcgStream {
    EcgStream::new(EcgStreamConfig {
        samples_per_segment: 97,
        seed: 0xEC6 + patient as u64,
        ..EcgStreamConfig::default()
    })
}

fn session() -> Session {
    Session::new(SessionConfig {
        segmenter: SegmenterConfig {
            channels: CHANNELS,
            window: WINDOW,
            stride: STRIDE,
            tail: TailPolicy::Drop,
        },
        layout: WindowLayout::ChannelMajor,
        normalization: Normalization::PerWindow,
    })
}

#[test]
fn streamed_verdicts_equal_offline_logits_bit_for_bit() {
    let net = demo_network(&[CHANNELS * WINDOW, 16, 2], 0x0FF1);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(1));
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 2,
            backend: Backend::Software,
            ..ServeConfig::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let mut router = StreamRouter::new(
        client,
        RouterConfig {
            chunk_frames: 23, // windows straddle chunk boundaries
            windows_per_patient: WINDOWS_PER_PATIENT,
            ..RouterConfig::default()
        },
    );
    for patient in 0..PATIENTS {
        router.add_patient(patient, Box::new(source(patient)), session());
    }
    let reports = router.run().expect("fleet runs");
    assert_eq!(reports.len(), PATIENTS);

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for report in &reports {
        let patient = report.id;
        assert_eq!(report.failed_windows, 0, "patient {patient}");
        assert!(report.windows >= WINDOWS_PER_PATIENT, "patient {patient}");
        assert_eq!(report.verdicts.len() as u64, report.windows);
        let frames = collect_frames(&mut source(patient), report.frames as usize);
        let offline = session().push_chunk(&frames);
        for verdict in &report.verdicts {
            let window = usize::try_from(verdict.window).expect("index fits");
            let cut = offline.get(window).expect("offline pass cut the window");
            assert_eq!(verdict.start_frame, cut.meta.start_frame);
            let logits = verdict.logits().expect("no window fails");
            assert_eq!(
                bits(logits),
                bits(&net.logits(&cut.features)),
                "patient {patient} window {window}"
            );
            assert_eq!(verdict.class(), Some(net.classify(&cut.features)));
        }
    }
    let snap = server.shutdown();
    assert_eq!(snap.rejected + snap.expired + snap.transient, 0);
}
