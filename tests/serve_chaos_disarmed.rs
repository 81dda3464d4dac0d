//! A disarmed chaos plan leaves no trace: after `fault::arm_chaos` then
//! `fault::disarm_chaos`, serving is bit-exact with the direct oracle and
//! records no fault and no transient error.
//!
//! Chaos state is process-global, so this binary holds exactly one test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbnn_rram::EngineConfig;
use rbnn_serve::fault::{arm_chaos, disarm_chaos};
use rbnn_serve::{demo_network, ChaosPlan, ModelRegistry, ServeConfig, ServeTask, Server};

const DIMS: [usize; 3] = [408, 75, 2];

#[test]
fn disarmed_chaos_plan_leaves_serving_bit_exact_and_fault_free() {
    let net = demo_network(&DIMS, 41);
    let mut registry = ModelRegistry::new();
    registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(41));
    // A plan that would fail almost every dispatch, were it still armed.
    arm_chaos(ChaosPlan {
        seed: 41,
        panic_first: 8,
        panic_per_mille: 300,
        stall_per_mille: 200,
        transient_per_mille: 400,
        drift_at_dispatch: Some(1),
        ..ChaosPlan::default()
    });
    disarm_chaos();

    let server = Server::start(
        &registry,
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let client = handle.client(ServeTask::Ecg).expect("registered");
    let mut rng = StdRng::seed_from_u64(41);
    let inputs: Vec<Vec<f32>> = (0..512)
        .map(|_| (0..DIMS[0]).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let pending: Vec<_> = inputs
        .iter()
        .map(|row| client.enqueue(row.clone()).expect("admitted"))
        .collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (row, ticket) in inputs.iter().zip(pending) {
        let served = ticket.wait().expect("served without injected faults");
        assert_eq!(bits(&served.logits), bits(&net.logits(row)));
        assert_eq!(served.class, net.classify(row));
    }
    let fleet = handle.fleet_health();
    assert_eq!(fleet.faults, 0, "no fault after disarming: {fleet}");
    assert_eq!(fleet.degraded, 0, "no drift after disarming: {fleet}");
    let stats = handle.stats();
    assert_eq!(stats.transient, 0);
    assert_eq!(stats.completed, 512);
    server.shutdown();
}
