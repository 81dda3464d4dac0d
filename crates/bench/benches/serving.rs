//! Criterion benches of batched vs single-sample inference throughput.
//!
//! Two layers of comparison on the paper's ECG classifier shape
//! (2520 → 80 → 2, Table I):
//!
//! * kernel level — `BinaryNetwork::logits` in a loop vs a compiled
//!   `ExecPlan` replay at batch sizes 1/8/64/256 (the amortization of
//!   threshold folding, bit-packing and weight-row reuse);
//! * engine level — the Monte-Carlo `NetworkEngine` sequential walk vs
//!   plan replay on the fabric at batch 16 (tile bookkeeping
//!   amortization; device sampling dominates by design).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_binary::{BinaryDense, BinaryNetwork};
use rbnn_graph::ExecPlan;
use rbnn_rram::{EngineConfig, NetworkEngine};
use rbnn_tensor::{BitMatrix, Tensor};

fn ecg_classifier(rng: &mut StdRng) -> BinaryNetwork {
    let mk = |out: usize, inp: usize, rng: &mut StdRng| {
        let w: Vec<f32> = (0..out * inp)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let scale: Vec<f32> = (0..out).map(|_| rng.gen_range(0.5..1.5)).collect();
        let shift: Vec<f32> = (0..out).map(|_| rng.gen_range(-2.0..2.0)).collect();
        BinaryDense::new(BitMatrix::from_signs(&w, out, inp), scale, shift)
    };
    BinaryNetwork::new(vec![mk(80, 2520, rng), mk(2, 80, rng)])
}

fn feature_batch(n: usize, width: usize, rng: &mut StdRng) -> Tensor {
    let xs: Vec<f32> = (0..n * width)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    Tensor::from_vec(xs, [n, width])
}

fn bench_software_batch_sizes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let net = ecg_classifier(&mut rng);
    let mut group = c.benchmark_group("ecg_software");
    for &n in &[1usize, 8, 64, 256] {
        let batch = feature_batch(n, 2520, &mut rng);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("single_loop", n), &n, |b, &n| {
            let xs = batch.as_slice();
            b.iter(|| {
                for i in 0..n {
                    black_box(net.logits(&xs[i * 2520..(i + 1) * 2520]));
                }
            })
        });
        let rows: Vec<&[f32]> = batch.as_slice().chunks(2520).collect();
        let plan = ExecPlan::compile(&net, n);
        let mut buffers = plan.buffers();
        let mut out = vec![0.0f32; n * plan.out_features()];
        group.bench_with_input(BenchmarkId::new("plan_replay", n), &n, |b, _| {
            b.iter(|| {
                plan.replay_rows(&rows, &mut buffers, &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

fn bench_rram_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let net = ecg_classifier(&mut rng);
    let mut engine = NetworkEngine::program(&net, &EngineConfig::test_chip(2));
    let n = 16;
    let batch = feature_batch(n, 2520, &mut rng);
    let mut group = c.benchmark_group("ecg_rram");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("single_loop_16", |b| {
        let xs = batch.as_slice();
        b.iter(|| {
            for i in 0..n {
                black_box(engine.logits(&xs[i * 2520..(i + 1) * 2520]));
            }
        })
    });
    let rows: Vec<&[f32]> = batch.as_slice().chunks(2520).collect();
    let plan = ExecPlan::compile(&net, n);
    let mut buffers = plan.buffers();
    let mut out = vec![0.0f32; n * plan.out_features()];
    group.bench_function("plan_replay_16", |b| {
        b.iter(|| {
            engine.replay_plan(&plan, &rows, &mut buffers, &mut out);
            black_box(&out);
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_software_batch_sizes, bench_rram_batch
}
criterion_main!(benches);
