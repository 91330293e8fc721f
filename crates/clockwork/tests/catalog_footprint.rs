//! A registered model costs the fleet one catalog entry, not one per worker.
//!
//! A counting global allocator measures the live bytes that registering the
//! flagship's population (2 000 zoo models) leaves behind, on the flagship's
//! 200 workers × 4 GPUs and on 20: the system built with the models minus
//! the same system built with none. Every worker reads the facade's one
//! shared catalog, so the extra 180 workers may add less than a byte per
//! (worker × model); a private table per worker costs eight. Both
//! registration paths are held to it: a whole population at once, and one
//! `register_model` call per model. Neither may copy the catalog once per
//! model either, which allocates tens of kilobytes per model on the way, so
//! every byte allocated during registration is counted too. The binary
//! holds one test, so no other test allocates while it measures.

use clockwork::prelude::*;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocated_bytes, live_bytes};

const MODELS: usize = 2_000;
const FLAGSHIP_WORKERS: u32 = 200;
const FEW_WORKERS: u32 = 20;

/// Bytes each extra worker may add per registered model.
const BYTES_PER_WORKER_MODEL: f64 = 1.0;

/// Bytes registration may allocate per model, freed or not, on the
/// flagship: about 1.1 kB at once and 1.4 kB one call at a time. A copy of
/// the catalog per model allocates at least 8 B per model registered so far.
const ALLOCATED_PER_MODEL: f64 = 2_048.0;

/// The flagship's cluster shape with `workers` workers and no models.
fn flagship(workers: u32) -> ScenarioSpec {
    ScenarioSpec {
        name: "catalog_footprint".to_string(),
        workers,
        gpus_per_worker: 4,
        models: 0,
        ..ScenarioSpec::fleet_scale()
    }
}

/// What building a system cost: bytes it holds, and bytes ever allocated.
struct Cost {
    live: usize,
    allocated: usize,
}

fn cost(build: impl FnOnce() -> ServingSystem) -> Cost {
    let (live, allocated) = (live_bytes(), allocated_bytes());
    let system = build();
    let cost = Cost {
        live: live_bytes() - live,
        allocated: allocated_bytes() - allocated,
    };
    drop(system);
    cost
}

/// What registering the population on `workers` workers adds to building
/// the system, registered at once when `at_once`, else one
/// `register_model` call each.
fn registration(workers: u32, at_once: bool) -> Cost {
    let factory = ClockworkFactory::default();
    let empty = flagship(workers);
    let populated = ScenarioSpec {
        models: MODELS,
        ..flagship(workers)
    };
    let zoo = ModelZoo::new();
    let bare = cost(|| ServingSystem::from_spec(&empty, &factory));
    let registered = cost(|| {
        if at_once {
            return ServingSystem::from_spec(&populated, &factory);
        }
        let mut system = ServingSystem::from_spec(&empty, &factory);
        for m in 0..MODELS {
            system.register_model(&zoo.all()[m % zoo.len()]);
        }
        system
    });
    Cost {
        live: registered.live - bare.live,
        allocated: registered.allocated - bare.allocated,
    }
}

#[test]
fn extra_workers_add_no_bytes_per_registered_model() {
    for at_once in [true, false] {
        let few = registration(FEW_WORKERS, at_once).live;
        let many = registration(FLAGSHIP_WORKERS, at_once);
        let pairs = f64::from(FLAGSHIP_WORKERS - FEW_WORKERS) * MODELS as f64;
        let per_pair = (many.live as f64 - few as f64) / pairs;
        assert!(
            per_pair < BYTES_PER_WORKER_MODEL,
            "registration (at once: {at_once}) held {few} B on {FEW_WORKERS} workers and \
             {} B on {FLAGSHIP_WORKERS}: {per_pair:.2} B per extra (worker × model)",
            many.live
        );
        let allocated = many.allocated as f64 / MODELS as f64;
        assert!(
            allocated < ALLOCATED_PER_MODEL,
            "registration (at once: {at_once}) allocated {allocated:.0} B per model on \
             {FLAGSHIP_WORKERS} workers"
        );
    }
}
