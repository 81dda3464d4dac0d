//! Criterion benches of the RRAM substrate: device programming, PCSA
//! sensing, array-level XNOR reads and whole-classifier in-memory inference.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_binary::{BinaryDense, BinaryNetwork};
use rbnn_graph::ExecPlan;
use rbnn_rram::{
    DeviceParams, EngineConfig, NetworkEngine, Pcsa, PcsaParams, RramArray, Synapse2T2R,
};
use rbnn_tensor::{BitMatrix, BitVec};

fn bench_device_ops(c: &mut Criterion) {
    let params = DeviceParams::hfo2_default();
    let pcsa_params = PcsaParams::default_130nm();
    let mut rng = StdRng::seed_from_u64(0);
    let mut synapse = Synapse2T2R::new(true, &params, &mut rng);
    let pcsa = Pcsa::new(&pcsa_params, &mut rng);
    let mut group = c.benchmark_group("device");
    group.bench_function("program_pair", |bench| {
        let mut w = false;
        bench.iter(|| {
            w = !w;
            synapse.program(w, &params, &mut rng);
        })
    });
    group.bench_function("pcsa_read", |bench| {
        bench.iter(|| black_box(synapse.read(&pcsa, &params, &mut rng)))
    });
    group.bench_function("xnor_read", |bench| {
        bench.iter(|| black_box(synapse.read_xnor(true, &pcsa, &params, &mut rng)))
    });
    group.finish();
}

fn bench_array_row_ops(c: &mut Criterion) {
    let mut array = RramArray::test_chip(1);
    let mut rng = StdRng::seed_from_u64(2);
    let input: BitVec = (0..32).map(|_| rng.gen::<bool>()).collect();
    let mut group = c.benchmark_group("array_32x32");
    group.bench_function("read_row", |bench| {
        bench.iter(|| black_box(array.read_row(0)))
    });
    group.bench_function("xnor_popcount_row", |bench| {
        bench.iter(|| black_box(array.xnor_popcount_row(0, &input)))
    });
    group.finish();
}

/// End-to-end in-memory inference of a Table-I-sized classifier
/// (2520 → 80 → 2) on the 32×32 test-chip fabric: single-sample and
/// batch-64 margin-gated paths (fresh devices, so senses short-circuit).
fn bench_network_engine(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mk = |out: usize, inp: usize, rng: &mut StdRng| {
        let w: Vec<f32> = (0..out * inp)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        BinaryDense::new(
            BitMatrix::from_signs(&w, out, inp),
            vec![1.0; out],
            vec![0.0; out],
        )
    };
    let net = BinaryNetwork::new(vec![mk(80, 2520, &mut rng), mk(2, 80, &mut rng)]);
    let mut engine = NetworkEngine::program(&net, &EngineConfig::test_chip(4));
    let x: Vec<f32> = (0..2520)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect();
    c.bench_function("network_engine_eeg_classifier", |bench| {
        bench.iter(|| black_box(engine.logits(&x)))
    });

    let batch = 64usize;
    let xs: Vec<f32> = (0..batch * 2520)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect();
    let rows: Vec<&[f32]> = xs.chunks(2520).collect();
    let plan = ExecPlan::compile(&net, batch);
    let mut buffers = plan.buffers();
    let mut out = vec![0.0f32; batch * plan.out_features()];
    let mut group = c.benchmark_group("network_engine_batched");
    group.throughput(criterion::Throughput::Elements(batch as u64));
    // Default cap is sequential (1); the second point opts into fan-out.
    group.bench_function("plan_replay_64", |bench| {
        bench.iter(|| {
            engine.replay_plan(&plan, &rows, &mut buffers, &mut out);
            black_box(&out);
        })
    });
    // Tile-parallel fan-out (auto thread cap); identical results, lower
    // wall clock on multicore hosts.
    engine.set_parallelism(0);
    group.bench_function("plan_replay_64_tile_parallel", |bench| {
        bench.iter(|| {
            engine.replay_plan(&plan, &rows, &mut buffers, &mut out);
            black_box(&out);
        })
    });
    engine.set_parallelism(1);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_device_ops, bench_array_row_ops, bench_network_engine
}
criterion_main!(benches);
