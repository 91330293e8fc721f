//! The model catalog is one table, shared by the facade and every worker.
//!
//! A built system's workers read the same `Arc`'d table, a model uploaded
//! mid-run lands in it for every worker — those admitted by a `WorkerJoin`
//! before the upload and after it alike — and each worker still charges its
//! own host memory for every model. Registration sums the added weights
//! once for the fleet, and a population that does not fit still fails at
//! the model, and with the figures, that charging one model at a time
//! gives.

use std::sync::Arc;

use clockwork::prelude::*;

/// Whether every worker of `system` reads one table.
fn one_shared_table(system: &ServingSystem) -> bool {
    let tables: Vec<_> = system
        .workers()
        .iter()
        .map(|w| w.model_table().expect("every worker holds the catalog"))
        .collect();
    tables.iter().all(|t| Arc::ptr_eq(t, tables[0]))
}

#[test]
fn the_workers_of_a_built_system_share_one_table() {
    let spec = ScenarioSpec {
        workers: 5,
        models: 130,
        ..ScenarioSpec::fleet_scale()
    };
    let system = ServingSystem::from_spec(&spec, &ClockworkFactory::default());
    assert!(one_shared_table(&system));
    let workers = system.workers();
    let (first, last) = (&workers[0], &workers[workers.len() - 1]);
    assert!(Arc::ptr_eq(
        first.model_table().unwrap(),
        last.model_table().unwrap()
    ));
    assert_eq!(last.model_count(), 130);
    // The table is shared, the host-memory charge is each worker's own.
    let charged = first.config().host_memory_bytes - first.host_memory_available();
    let weights: u64 = (0..130)
        .map(|m| first.model_spec(ModelId(m)).unwrap().weights_bytes())
        .sum();
    assert_eq!(charged, weights);
    for worker in workers {
        assert_eq!(
            worker.host_memory_available(),
            first.host_memory_available()
        );
    }
}

#[test]
fn registration_one_model_at_a_time_keeps_one_table() {
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        workers: 3,
        ..Default::default()
    });
    for spec in zoo.all().iter().take(5) {
        system.register_model(spec);
        assert!(one_shared_table(&system));
    }
    let copies = system.register_copies(zoo.resnet50(), 4);
    assert!(one_shared_table(&system));
    for worker in system.workers() {
        assert_eq!(worker.model_count(), 9);
        assert!(copies.iter().all(|&m| worker.has_model(m)));
    }
}

#[test]
fn an_upload_serves_on_workers_joined_before_and_after_it() {
    // Worker 1 joins before the upload lands and worker 2 after it. Crashes
    // leave each in turn the only live worker while the uploaded model is
    // requested, so each must serve it from the shared catalog.
    let ms = Timestamp::from_millis;
    let plan = FaultPlan::new()
        .join_worker(ms(100), 1)
        .crash_worker(ms(400), 0)
        .join_worker(ms(1_000), 2)
        .crash_worker(ms(1_000), 1);
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        seed: 46,
        faults: plan,
        keep_responses: true,
        ..Default::default()
    });
    let zoo = ModelZoo::new();
    let resident = system.register_model(zoo.resnet50());
    let uploaded = system.upload_model(ms(300), zoo.resnet50());
    let slo = Nanos::from_millis(100);
    for i in 0..10u64 {
        system.submit_request(ms(600 + i * 30), uploaded, slo);
        system.submit_request(ms(1_100 + i * 30), uploaded, slo);
    }
    system.run_to_completion();

    let workers = system.workers();
    assert_eq!(workers.len(), 3);
    assert!(one_shared_table(&system));
    for worker in workers {
        assert!(worker.has_model(resident) && worker.has_model(uploaded));
        assert_eq!(worker.model_count(), 2);
        assert_eq!(
            worker.host_memory_available(),
            workers[0].host_memory_available(),
            "every worker charges its host memory for both models"
        );
    }
    let responses = system.telemetry().responses();
    assert_eq!(responses.len(), 20);
    assert!(
        responses.iter().all(|r| r.outcome.is_success()),
        "the uploaded model serves on whichever worker is alive"
    );
    for joined in &workers[1..] {
        assert!(
            joined.telemetry().counters.requests_served >= 10,
            "worker {:?} served the uploaded model",
            joined.id()
        );
    }
}

#[test]
fn a_population_beyond_host_memory_fails_at_the_model_it_always_did() {
    let spec = ScenarioSpec {
        workers: 2,
        models: 20_000,
        ..ScenarioSpec::fleet_scale()
    };
    let panic = std::panic::catch_unwind(|| {
        ServingSystem::from_spec(&spec, &ClockworkFactory::default());
    })
    .expect_err("20 000 zoo models overflow a worker's host memory");
    let message = panic.downcast_ref::<String>().expect("a formatted panic");
    // The figures registration gave when every worker charged one model at
    // a time.
    assert!(
        message.ends_with("HostMemoryExhausted { requested: 252182528, available: 7654718 }"),
        "{message}"
    );
    // They are those of the first model, in registration order, that does
    // not fit in what the models before it left.
    let zoo = ModelZoo::new();
    let capacity = WorkerConfig::new(WorkerId(0)).host_memory_bytes;
    let mut left = capacity;
    let (failed_at, requested) = (0..spec.models)
        .map(|m| (m, zoo.all()[m % zoo.len()].weights_bytes()))
        .find(|&(_, bytes)| {
            let fits = bytes <= left;
            left -= if fits { bytes } else { 0 };
            !fits
        })
        .unwrap();
    assert_eq!(
        (failed_at, requested, left),
        (6_053, 252_182_528, 7_654_718)
    );
}

#[test]
fn a_worker_joined_after_an_upload_is_charged_for_every_model() {
    let ms = Timestamp::from_millis;
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        faults: FaultPlan::new().join_worker(ms(500), 1),
        ..Default::default()
    });
    let zoo = ModelZoo::new();
    let (resident, uploaded) = (zoo.resnet50(), &zoo.all()[7]);
    assert_ne!(resident.weights_bytes(), uploaded.weights_bytes());
    let resident_id = system.register_model(resident);
    let uploaded_id = system.upload_model(ms(100), uploaded);
    system.run_until(ms(1_000));

    let workers = system.workers();
    assert_eq!(workers.len(), 2);
    let joined = &workers[1];
    assert!(joined.has_model(resident_id) && joined.has_model(uploaded_id));
    let charged = joined.config().host_memory_bytes - joined.host_memory_available();
    assert_eq!(
        charged,
        resident.weights_bytes() + uploaded.weights_bytes(),
        "the joined worker holds the uploaded model's weights too"
    );
    assert_eq!(
        joined.host_memory_available(),
        workers[0].host_memory_available()
    );
}
