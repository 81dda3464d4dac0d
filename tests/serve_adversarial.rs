//! Served == direct on adversarial rows: NaN (either sign), ±inf, ±0.0,
//! subnormals and mixes of them, sent through both request shapes
//! (`TaskClient::enqueue`, one row whose sign bits the client packs;
//! `TaskClient::submit`, a window of float rows the worker packs) on a
//! software pool and on a noise-free RRAM pool, each shape on its own and
//! both mixed in one pipelined dispatch.
//!
//! Every served logit must equal `BinaryNetwork::logits` bit for bit
//! (`f32::to_bits`), and the binarization rule (`sign_bit`: `x >= 0.0`,
//! so −0.0 and positive subnormals read +1 while NaN reads −1) must hold
//! end to end: rows that differ only in how their signs are spelled are
//! served identical logits.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_rram::EngineConfig;
use rbnn_serve::{
    demo_network, Backend, ModelRegistry, Pending, PendingWindow, Prediction, ServeConfig,
    ServeTask, Server, SubmitOptions,
};

const DIMS: [usize; 3] = [408, 75, 2];

/// Smallest positive subnormal.
const SUBNORMAL: f32 = f32::from_bits(1);

/// Values that binarize to +1.
const PLUS: [f32; 6] = [
    0.0,
    -0.0,
    SUBNORMAL,
    f32::MIN_POSITIVE,
    f32::INFINITY,
    f32::MAX,
];

/// Values that binarize to −1, NaNs of both signs and a payload among them.
const MINUS: [f32; 6] = [
    f32::NAN,
    -f32::NAN,
    f32::from_bits(0x7fc0_0123),
    -SUBNORMAL,
    f32::NEG_INFINITY,
    f32::MIN,
];

/// Uniform rows of each special value, then seeded mixes: specials only,
/// and specials scattered through ordinary values.
fn adversarial_rows(width: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let specials: Vec<f32> = PLUS.iter().chain(&MINUS).copied().collect();
    let mut rows: Vec<Vec<f32>> = specials.iter().map(|&v| vec![v; width]).collect();
    for _ in 0..8 {
        rows.push(
            (0..width)
                .map(|_| specials[rng.gen_range(0..specials.len())])
                .collect(),
        );
        rows.push(
            (0..width)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        specials[rng.gen_range(0..specials.len())]
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect(),
        );
    }
    rows
}

/// Each row with its signs spelled at random: every +1 value replaced by
/// one drawn from [`PLUS`], every −1 value by one drawn from [`MINUS`].
fn respelled(rows: &[Vec<f32>], rng: &mut StdRng) -> Vec<Vec<f32>> {
    let pick = |set: &[f32; 6], rng: &mut StdRng| set[rng.gen_range(0..set.len())];
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|&x| {
                    if x >= 0.0 {
                        pick(&PLUS, rng)
                    } else {
                        pick(&MINUS, rng)
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|x| x.to_bits()).collect()
}

/// Serves `rows` once per row through `enqueue` and once as a window
/// through `submit`, checks both bitwise against the network's own
/// logits, and returns the bits of the per-row answers.
fn serve_both_ways(backend: Backend, rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    let net = demo_network(&DIMS, 71);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::noise_free(71));
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 2,
            backend,
            ..ServeConfig::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let pending: Vec<_> = rows
        .iter()
        .map(|row| client.enqueue(row.clone()).expect("admitted"))
        .collect();
    let singles: Vec<Prediction> = pending
        .into_iter()
        .map(|p| p.wait().expect("served"))
        .collect();
    let window = client
        .submit(Arc::new(rows.to_vec()), &SubmitOptions::default())
        .expect("admitted")
        .wait()
        .expect("served");
    assert_eq!(window.len(), rows.len());
    for (i, row) in rows.iter().enumerate() {
        let direct = bits(&net.logits(row));
        for (path, served) in [("enqueue", &singles[i]), ("submit", &window[i])] {
            assert_eq!(
                bits(&served.logits),
                direct,
                "{backend:?} {path} row {i} differs from direct logits"
            );
            assert_eq!(served.class, net.classify(row));
        }
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, rows.len() as u64 + 1);
    singles.iter().map(|p| bits(&p.logits)).collect()
}

/// Rows per window in the mixed dispatch.
const WINDOW_ROWS: usize = 3;

/// Most pipelined bursts [`serve_mixed`] sends while waiting for the lone
/// worker to merge a packed single and a float window into one dispatch.
const MIXED_ROUNDS: usize = 10;

/// Serves `rows` on one worker as a pipelined burst that alternates packed
/// singles (`enqueue`) with float windows (`submit`) of the same task, and
/// checks every answer, collected in submission order, bitwise against the
/// network's own logits. Bursts repeat until the worker has merged at
/// least one single with a window in one dispatch.
fn serve_mixed(backend: Backend, rows: &[Vec<f32>]) {
    enum Ticket {
        One(usize, Pending),
        Window(Vec<usize>, PendingWindow),
    }
    let net = demo_network(&DIMS, 71);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::noise_free(71));
    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 1,
            backend,
            ..ServeConfig::default()
        },
    );
    let client = server.handle().client(ServeTask::Ecg).expect("registered");
    let direct: Vec<Vec<u32>> = rows.iter().map(|row| bits(&net.logits(row))).collect();
    let check = |i: usize, served: &Prediction, what: &str| {
        assert_eq!(
            bits(&served.logits),
            direct[i],
            "{backend:?} mixed dispatch: {what} row {i} differs from direct logits"
        );
    };
    let mut requests = 0u64;
    for _ in 0..MIXED_ROUNDS {
        let tickets: Vec<Ticket> = (0..rows.len())
            .flat_map(|k| {
                let window: Vec<usize> = (k..k + WINDOW_ROWS).map(|i| i % rows.len()).collect();
                let window_rows = window.iter().map(|&i| rows[i].clone()).collect();
                let single = client.enqueue(rows[k].clone()).expect("admitted");
                let shared = client
                    .submit(Arc::new(window_rows), &SubmitOptions::default())
                    .expect("admitted");
                [Ticket::One(k, single), Ticket::Window(window, shared)]
            })
            .collect();
        requests += tickets.len() as u64;
        for ticket in tickets {
            match ticket {
                Ticket::One(i, pending) => check(i, &pending.wait().expect("served"), "single"),
                Ticket::Window(window, pending) => {
                    let served = pending.wait().expect("served");
                    assert_eq!(served.len(), window.len());
                    for (&i, prediction) in window.iter().zip(&served) {
                        check(i, prediction, "window");
                    }
                }
            }
        }
        // Fewer dispatches than requests: some dispatch held two or more
        // consecutive requests, so it mixed a single and a window.
        if server.stats().engines[0].batches < requests {
            break;
        }
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, requests);
    assert!(
        snap.engines[0].batches < requests,
        "{backend:?}: {requests} pipelined requests never merged into one dispatch"
    );
}

#[test]
fn adversarial_rows_serve_bitwise_equal_to_direct_on_software_and_rram() {
    let mut rng = StdRng::seed_from_u64(71);
    let rows = adversarial_rows(DIMS[0], &mut rng);
    let respelled = respelled(&rows, &mut rng);
    for backend in [Backend::Software, Backend::Rram] {
        let served = serve_both_ways(backend, &rows);
        assert_eq!(
            serve_both_ways(backend, &respelled),
            served,
            "{backend:?}: the same signs spelled differently served different logits"
        );
        // Every +1 spelling serves what an all-+0.0 row does, every −1
        // spelling what an all-NaN row does.
        for (i, set) in [PLUS, MINUS].iter().enumerate() {
            let first = i * PLUS.len();
            for (k, value) in set.iter().enumerate() {
                assert_eq!(served[first + k], served[first], "{backend:?} {value:?}");
            }
        }
        assert_ne!(served[0], served[PLUS.len()], "+1 and −1 rows must differ");
        serve_mixed(backend, &rows);
    }
}
