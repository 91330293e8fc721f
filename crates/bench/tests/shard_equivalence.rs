//! The sharded fleet against its oracles.
//!
//! Three layers of evidence that sharding changes *where* work happens but
//! not *what* happens:
//!
//! 1. **The 1-shard fleet is the monolith.** Same spec through
//!    `ShardedExperiment` with `N = 1` and through `Experiment::run` must
//!    produce equal `RunOutcome`s — digest, counters, metrics, event mix and
//!    scheduler counters, everything but the host clock. The runner *is* the
//!    unsharded loop, so this pins the partition and the local-id remap.
//! 2. **Parallel fleets conserve.** With `N > 1` the digests legitimately
//!    differ from the monolith (each shard schedules its own slice), but
//!    the global exactly-once identity, per-shard event conservation and
//!    rerun determinism must all hold — including when a whole shard's
//!    rack dies mid-run.
//! 3. **The front door is total.** Property test: for arbitrary model and
//!    shard counts, the hash router assigns every model to exactly one
//!    in-range shard and its trace partition loses nothing.

use clockwork::prelude::*;
use clockwork_shard::{FrontDoorRouter, ShardAssignment, ShardedExperiment, ShardedSpec};
use proptest::prelude::*;

fn smoke_sharded(shards: u32) -> ShardedSpec {
    ShardedSpec::new(ScenarioSpec::smoke(7), shards, ShardAssignment::HashByModel)
}

/// The cold-start workload in miniature: one open-loop client per model,
/// far more models than the GPUs' page cache holds, and the scripted churn
/// of crashes, GPU failures, a partition and a degraded link.
fn cold_churn_miniature() -> ScenarioSpec {
    let mut spec = ScenarioSpec {
        name: "cold_churn_miniature".to_string(),
        workers: 4,
        gpus_per_worker: 2,
        models: 300,
        workload: WorkloadSpec::OpenLoop {
            rate_per_model: 0.2,
        },
        duration_secs: 30,
        ..ScenarioSpec::smoke(7)
    };
    spec.faults = spec.scripted_churn();
    spec
}

#[test]
fn one_shard_fleet_is_byte_identical_to_the_unsharded_oracle() {
    let factory = ClockworkFactory::default();
    for base in [ScenarioSpec::smoke(7), cold_churn_miniature()] {
        let sharded = ShardedSpec::new(base.clone(), 1, ShardAssignment::HashByModel);
        let fleet = ShardedExperiment::new(sharded).run(&factory);
        let oracle = Experiment::new(base.clone()).run(&factory);

        assert_eq!(fleet.shards.len(), 1);
        assert!(oracle.submitted > 0, "{}: the workload arrives", base.name);
        assert_eq!(
            fleet.shards[0].outcome,
            oracle.outcome(),
            "{}: the 1-shard outcome must equal the monolithic one, field for field",
            base.name
        );
    }
}

#[test]
fn parallel_fleets_uphold_global_accounting_and_determinism() {
    let factory = ClockworkFactory::default();
    let oracle = Experiment::new(ScenarioSpec::smoke(7)).run(&factory);
    for shards in [2, 4] {
        let experiment = ShardedExperiment::new(smoke_sharded(shards));
        let fleet = experiment.run(&factory);
        let merged = fleet.merged();
        let label = format!("{shards} shards");
        assert_eq!(fleet.shards.len(), shards as usize, "{label}");
        assert_eq!(
            merged.submitted, oracle.submitted,
            "{label}: the front door routes the whole workload"
        );
        assert_eq!(
            merged.submitted, merged.metrics.total_requests,
            "{label}: every routed request arrives at its shard"
        );
        assert!(merged.drained(), "{label}: all shards ran dry");
        assert!(
            merged.identity_ok(),
            "{label}: successes {} + rejected {} == total {}",
            merged.metrics.successes,
            merged.rejected(),
            merged.metrics.total_requests
        );
        for shard in &fleet.shards {
            let run = &shard.outcome;
            assert!(!run.overdelivered(), "{label}: shard {}", shard.shard);
            assert!(
                run.mix_conserved(),
                "{label}: shard {} event conservation",
                shard.shard
            );
            assert!(
                run.identity_ok(),
                "{label}: shard {} accounting",
                shard.shard
            );
        }
        let rerun = experiment.run(&factory);
        assert_eq!(
            fleet.fleet_digest(),
            rerun.fleet_digest(),
            "{label}: fleet digest stable across reruns"
        );
    }
}

#[test]
fn losing_a_whole_shards_rack_keeps_the_fleet_accountable() {
    let factory = ClockworkFactory::default();
    let spec = smoke_sharded(2).with_rack_outage(0);
    let plans = spec.shard_plans();
    assert!(
        plans[0].spec.faults.worker_crashes() > 0,
        "the outage lands on shard 0"
    );
    assert!(plans[1].spec.faults.is_empty(), "shard 1 never notices");

    let experiment = ShardedExperiment::new(spec);
    let fleet = experiment.run(&factory);
    let merged = fleet.merged();
    assert!(merged.drained());
    assert!(
        merged.identity_ok(),
        "rack outage: successes {} + rejected {} == total {}",
        merged.metrics.successes,
        merged.rejected(),
        merged.metrics.total_requests
    );
    assert!(fleet.shards.iter().all(|s| s.outcome.mix_conserved()));
    let (dead, healthy) = (&fleet.shards[0].outcome, &fleet.shards[1].outcome);
    assert!(
        dead.metrics.goodput <= healthy.metrics.goodput || dead.submitted < healthy.submitted,
        "the dead rack's shard should not outperform the healthy one at similar load"
    );
    let rerun = experiment.run(&factory);
    assert_eq!(fleet.fleet_digest(), rerun.fleet_digest());
}

proptest! {
    #[test]
    fn hash_routing_is_total_for_any_population(models in 1usize..200, shards in 1u32..9) {
        let router = FrontDoorRouter::build(&ShardAssignment::HashByModel, shards, models);
        prop_assert!(router.table().iter().all(|&s| s < shards));
        let owned_total: usize = (0..shards).map(|s| router.owned_models(s).len()).sum();
        prop_assert_eq!(owned_total, models, "every model owned exactly once");
        for model in 0..models as u32 {
            let owner = router.shard_of(ModelId(model));
            prop_assert!(router.owned_models(owner).contains(&ModelId(model)));
        }
    }

    #[test]
    fn trace_partition_is_lossless_for_any_shard_count(seed in 0u64..50, shards in 1u32..9) {
        let spec = ScenarioSpec {
            duration_secs: 1,
            ..ScenarioSpec::smoke(seed)
        };
        let trace = spec.generated_trace().unwrap();
        let router = FrontDoorRouter::build(&ShardAssignment::HashByModel, shards, spec.models);
        let parts = router.route(&trace);
        prop_assert_eq!(parts.len(), shards as usize);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        prop_assert_eq!(total, trace.len(), "no event dropped or duplicated");
    }
}
