//! Streamed == offline through the whole monitoring stack: a small seeded
//! ECG fleet runs through `StreamRouter` over a two-worker software
//! server, and every verdict's logits must equal, bit for bit, the
//! network's own logits for the same window cut offline by one `Session`
//! pass over the same frames. No window may fail.
//!
//! Part of the fleet streams adversarial signal: seeded frames are
//! overwritten with NaN, ±inf, ±0.0 and subnormal samples, so the
//! `sign_bit` rule is checked end to end through normalization, the
//! router and the served plan.
//!
//! Small model and short streams, so the file runs in about a second in a
//! debug build.

use rbnn_data::stream::{collect_frames, EcgStream, EcgStreamConfig, SignalSource};
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
/// Patients streaming clean ECG; the next `ADVERSARIAL` stream
/// [`Adversarial`] signal.
const PATIENTS: usize = 4;
const ADVERSARIAL: usize = 2;
const WINDOWS_PER_PATIENT: u64 = 24;

/// Values written over the samples of an overwritten frame.
const SPECIALS: [f32; 7] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1e-40,  // subnormal
    -1e-42, // subnormal
];

/// splitmix64 finalizer: a seeded draw per absolute sample index.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wraps an ECG stream and overwrites one frame in 32 (picked by seed and
/// frame index) with [`SPECIALS`]. The choice depends only on absolute
/// frame and channel indices, so any chunking yields the same signal.
struct Adversarial {
    inner: EcgStream,
    seed: u64,
    frame: u64,
}

impl SignalSource for Adversarial {
    fn channels(&self) -> usize {
        self.inner.channels()
    }

    fn sample_rate(&self) -> f32 {
        self.inner.sample_rate()
    }

    fn next_chunk(&mut self, max_frames: usize, out: &mut Vec<f32>) -> usize {
        let start = out.len();
        let got = self.inner.next_chunk(max_frames, out);
        let channels = self.inner.channels();
        for (i, frame) in out[start..].chunks_exact_mut(channels).enumerate() {
            let at = self.seed ^ ((self.frame + i as u64) << 8);
            if mix(at).is_multiple_of(32) {
                for (ch, v) in frame.iter_mut().enumerate() {
                    *v = SPECIALS[(mix(at + 1 + ch as u64) % SPECIALS.len() as u64) as usize];
                }
            }
        }
        self.frame += got as u64;
        got
    }
}

fn source(patient: usize) -> Box<dyn SignalSource + Send> {
    let ecg = EcgStream::new(EcgStreamConfig {
        samples_per_segment: 97,
        seed: 0xEC6 + patient as u64,
        ..EcgStreamConfig::default()
    });
    if patient < PATIENTS {
        Box::new(ecg)
    } else {
        Box::new(Adversarial {
            inner: ecg,
            seed: 0xAD5E_ED00 + patient as u64,
            frame: 0,
        })
    }
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
    for patient in 0..PATIENTS + ADVERSARIAL {
        router.add_patient(patient, source(patient), session());
    }
    let reports = router.run().expect("fleet runs");
    assert_eq!(reports.len(), PATIENTS + ADVERSARIAL);

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for report in &reports {
        let patient = report.id;
        assert_eq!(report.failed_windows, 0, "patient {patient}");
        assert!(report.windows >= WINDOWS_PER_PATIENT, "patient {patient}");
        assert_eq!(report.verdicts.len() as u64, report.windows);
        let frames = collect_frames(source(patient).as_mut(), report.frames as usize);
        if patient >= PATIENTS {
            // Every special value reached this patient's windows.
            for special in SPECIALS {
                let seen = frames.iter().any(|v| v.to_bits() == special.to_bits());
                assert!(seen, "patient {patient} never streamed {special:?}");
            }
        }
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
