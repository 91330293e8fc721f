//! End-to-end integration tests across crates: model zoo → worker →
//! controller → system, exercised through the public API.

use clockwork::prelude::*;

#[test]
fn a_hand_built_model_spec_is_served() {
    // A model outside the zoo, described by its spec alone, is served like
    // any zoo model.
    let spec = ModelSpec::from_millis(
        "tenant_model",
        "Tenant",
        588.0,
        3.9,
        45.0,
        &[(1, 1.6), (2, 2.3), (4, 3.5), (8, 5.9), (16, 10.4)],
    );
    let mut system = ServingSystem::new(SystemConfig {
        seed: 100,
        ..Default::default()
    });
    let model = system.register_model(&spec);
    for i in 0..50u64 {
        system.submit_request(
            Timestamp::from_millis(i * 20),
            model,
            Nanos::from_millis(200),
        );
    }
    system.run_to_completion();
    let m = system.telemetry().metrics();
    assert_eq!(m.total_requests, 50);
    assert!(m.successes >= 49, "successes {}", m.successes);
}

#[test]
fn heterogeneous_zoo_models_share_one_gpu() {
    // Ten different model varieties on one GPU, all warm after first use.
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        seed: 101,
        ..Default::default()
    });
    let ids: Vec<ModelId> = zoo.all()[..10]
        .iter()
        .map(|s| system.register_model(s))
        .collect();
    let trace = OpenLoopClient::generate_many(
        &ids,
        20.0,
        Nanos::from_millis(250),
        Nanos::from_secs(3),
        &mut SimRng::seeded(7),
    );
    let total = trace.len() as u64;
    system.submit_trace(&trace);
    system.run_to_completion();
    let m = system.telemetry().metrics();
    assert_eq!(m.total_requests, total);
    assert!(
        m.satisfaction() > 0.9,
        "satisfaction {} over {} requests",
        m.satisfaction(),
        total
    );
    // All ten models must actually have been served.
    assert_eq!(system.telemetry().per_model_successes().len(), 10);
}

#[test]
fn admission_control_rejects_impossible_slos_without_wasting_work() {
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        seed: 102,
        ..Default::default()
    });
    let model = system.register_model(zoo.resnet50());
    // 1 ms SLO on a cold model is impossible (load alone takes ~8 ms).
    system.submit_request(Timestamp::ZERO, model, Nanos::from_millis(1));
    system.run_to_completion();
    let m = system.telemetry().metrics();
    assert_eq!(m.successes, 0);
    assert_eq!(m.rejections.get("cannot_meet_slo"), Some(&1));
}

#[test]
fn requests_for_unknown_models_are_answered_not_dropped() {
    let mut system = ServingSystem::new(SystemConfig {
        seed: 103,
        ..Default::default()
    });
    system.submit_request(Timestamp::ZERO, ModelId(999), Nanos::from_millis(100));
    system.run_to_completion();
    let m = system.telemetry().metrics();
    assert_eq!(m.total_requests, 1);
    assert_eq!(m.rejections.get("unknown_model"), Some(&1));
}

#[test]
fn memory_pressure_forces_cold_starts_but_not_slo_violations() {
    // A weights cache that only fits ~2 ResNet50s serving 6 models: most
    // requests are cold starts, but a generous 150 ms SLO is still met.
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        weights_cache_bytes: 16 * 16 * 1024 * 1024, // 16 pages = 2 ResNet50s
        seed: 104,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 6);
    let mut t = Timestamp::from_millis(0);
    for round in 0..30u64 {
        for &id in &ids {
            system.submit_request(t, id, Nanos::from_millis(150));
            t += Nanos::from_millis(3 + round % 3);
        }
    }
    system.run_to_completion();
    let m = system.telemetry().metrics();
    assert!(
        m.cold_starts > 10,
        "expected cold starts, got {}",
        m.cold_starts
    );
    assert!(
        m.satisfaction() > 0.8,
        "satisfaction {} cold {}",
        m.satisfaction(),
        m.cold_starts
    );
}

#[test]
fn deterministic_runs_for_identical_seeds() {
    let zoo = ModelZoo::new();
    let run = || {
        let mut system = ServingSystem::new(SystemConfig {
            seed: 105,
            ..Default::default()
        });
        let ids = system.register_copies(zoo.resnet50(), 3);
        let trace = OpenLoopClient::generate_many(
            &ids,
            80.0,
            Nanos::from_millis(50),
            Nanos::from_secs(2),
            &mut SimRng::seeded(9),
        );
        system.submit_trace(&trace);
        system.run_to_completion();
        let m = system.telemetry().metrics();
        (m.goodput, m.successes, m.latency.percentile(99.0))
    };
    assert_eq!(run(), run());
}

#[test]
fn multi_gpu_workers_spread_load() {
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        gpus_per_worker: 2,
        seed: 106,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 4);
    for (i, &m) in ids.iter().enumerate() {
        system.add_closed_loop_client(
            ClosedLoopClient::new(m, 8, Nanos::from_millis(200)),
            Timestamp::from_millis(i as u64),
        );
    }
    system.run_until(Timestamp::from_secs(2));
    let worker = &system.workers()[0];
    let horizon = Timestamp::from_secs(2);
    let g0 = worker.gpu_utilization(clockwork_worker::GpuId(0), horizon);
    let g1 = worker.gpu_utilization(clockwork_worker::GpuId(1), horizon);
    assert!(
        g0 > 0.2 && g1 > 0.2,
        "both GPUs must be used: {g0:.2} / {g1:.2}"
    );
}

#[test]
fn models_uploaded_at_runtime_become_servable_after_the_transfer() {
    // §5.1: Clockwork supports dynamic model loading over the network. A
    // model uploaded mid-run is unknown (and rejected) until its weights
    // reach the workers, and served normally afterwards.
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        seed: 104,
        ..Default::default()
    });
    let resident = system.register_model(zoo.resnet50());
    let uploaded = system.upload_model(Timestamp::from_millis(500), zoo.resnet50());

    // Before the upload lands: the already-registered model serves, the
    // uploaded one is rejected as unknown.
    system.submit_request(
        Timestamp::from_millis(100),
        resident,
        Nanos::from_millis(100),
    );
    system.submit_request(
        Timestamp::from_millis(100),
        uploaded,
        Nanos::from_millis(100),
    );
    // Well after the upload: both serve.
    for i in 0..20u64 {
        system.submit_request(
            Timestamp::from_millis(600 + i * 20),
            uploaded,
            Nanos::from_millis(100),
        );
    }
    system.run_to_completion();

    let responses = system.telemetry().responses();
    assert_eq!(responses.len(), 22);
    let mut early_unknown = 0;
    let mut late_served = 0;
    for r in responses {
        if r.model == uploaded && r.arrival < Timestamp::from_millis(500) {
            assert!(
                !r.outcome.is_success(),
                "a request for a not-yet-uploaded model cannot be served"
            );
            early_unknown += 1;
        }
        if r.model == uploaded && r.arrival > Timestamp::from_millis(600) && r.outcome.is_success()
        {
            late_served += 1;
        }
    }
    assert_eq!(early_unknown, 1);
    assert_eq!(
        late_served, 20,
        "uploaded model must serve once the weights arrive"
    );
    let m = system.telemetry().metrics();
    assert_eq!(m.total_requests, 22);
}
