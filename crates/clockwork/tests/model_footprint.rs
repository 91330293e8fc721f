//! A model the system has served costs it bytes, not allocations.
//!
//! A counting global allocator measures what a `cold_churn`-shaped fleet
//! holds per registered model once it has run to its horizon: 1 200 zoo
//! models on 2 workers × 2 GPUs, open loop at 0.2 r/s each for 60 s, so
//! most models queue, get measured and drain again. The trace is built
//! before the count starts and the system shares it, so the bound is net of
//! the trace. What one model may keep is its share of every table, one
//! rolling window per measured profile key, and no spec or queue buffers of
//! its own: a zoo variety's instances share one spec, and a drained queue's
//! buffers go to the next queue that fills. The binary holds one test, so
//! no other test allocates while it measures.

use std::sync::Arc;

use clockwork::prelude::*;
use clockwork_model::zoo::ModelZoo;
use clockwork_model::ModelId;
use clockwork_sim::rng::SimRng;
use clockwork_workload::OpenLoopClient;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{live_allocations, live_bytes};

const MODELS: usize = 1_200;

/// Live bytes per model after the run. With every profile window held as
/// three small allocations, every drained queue keeping its buffers and
/// every instance owning its spec, a model cost 1.9 kB; without, 1.3 kB.
const BYTES_PER_MODEL: f64 = 1_500.0;

/// Live allocations per model after the run: 16 with the same three costs,
/// 6 without.
const ALLOCATIONS_PER_MODEL: f64 = 8.0;

#[test]
fn a_served_zoo_model_costs_bytes_not_allocations() {
    let spec = ScenarioSpec {
        name: "model_footprint".to_string(),
        workers: 2,
        gpus_per_worker: 2,
        models: MODELS,
        workload: WorkloadSpec::OpenLoop {
            rate_per_model: 0.2,
        },
        duration_secs: 60,
        ..ScenarioSpec::fleet_scale()
    };
    let models: Vec<ModelId> = (0..MODELS as u32).map(ModelId).collect();
    let trace = OpenLoopClient::generate_many(
        &models,
        0.2,
        spec.slo(),
        spec.duration(),
        &mut SimRng::seeded(spec.workload_seed),
    );

    let (bytes, allocations) = (live_bytes(), live_allocations());
    let mut system = ServingSystem::from_spec(&spec, &ClockworkFactory::default());
    system.submit_trace(&trace);
    system.run_until(spec.horizon());
    let per_model = |live: usize, before: usize| (live - before) as f64 / MODELS as f64;
    let bytes = per_model(live_bytes(), bytes);
    let allocations = per_model(live_allocations(), allocations);

    let served = system.telemetry().metrics().successes;
    assert!(
        served > trace.len() as u64 / 2,
        "the fleet served {served} of {} requests",
        trace.len()
    );
    assert!(
        bytes <= BYTES_PER_MODEL,
        "the run left {bytes:.0} B per model, more than {BYTES_PER_MODEL} B"
    );
    assert!(
        allocations <= ALLOCATIONS_PER_MODEL,
        "the run left {allocations:.2} allocations per model, more than {ALLOCATIONS_PER_MODEL}"
    );

    let worker = &system.workers()[1];
    let variety = |m: usize| worker.model_spec(ModelId(m as u32)).unwrap();
    let zoo = ModelZoo::new().len();
    assert!(
        Arc::ptr_eq(variety(3), variety(3 + zoo)),
        "two instances of one zoo variety hold two specs"
    );
    assert!(!Arc::ptr_eq(variety(3), variety(4)));
}
