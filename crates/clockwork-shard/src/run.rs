//! The parallel runner: one OS thread per shard, a deterministic merge.
//!
//! Each shard is a complete [`ServingSystem`](clockwork::ServingSystem)
//! simulated to its horizon on its own `std::thread` — shards share nothing
//! at runtime (v1 has no cross-shard interaction), so the threads never
//! synchronize until the join. Every thread returns only plain data
//! ([`ShardRunStats`]); the merge into a [`FleetReport`] happens on the
//! calling thread in shard order, so the fleet digest and all aggregates
//! are independent of thread scheduling — the whole run stays deterministic
//! while the wall clock shrinks with cores.

use std::time::Instant;

use clockwork::{Experiment, RunOutcome};
use clockwork_controller::registry::SchedulerFactory;
use clockwork_sim::hash::Fnv1a;

use crate::spec::{ShardPlan, ShardedSpec};

/// A sharded scenario bound to the runner that executes it — the fleet
/// counterpart of [`Experiment`](clockwork::Experiment).
pub struct ShardedExperiment {
    spec: ShardedSpec,
}

impl ShardedExperiment {
    /// Wraps a sharded spec.
    pub fn new(spec: ShardedSpec) -> Self {
        ShardedExperiment { spec }
    }

    /// The spec this experiment runs.
    pub fn spec(&self) -> &ShardedSpec {
        &self.spec
    }

    /// Runs every shard to its horizon, one thread per shard, and merges
    /// the results in shard order.
    ///
    /// The factory is shared by reference across the shard threads (hence
    /// `Sync`); each thread builds its own scheduler from it, so factories
    /// stay what they already are everywhere else — plain configuration.
    pub fn run<F: SchedulerFactory + Sync>(&self, factory: &F) -> FleetReport {
        let plans = self.spec.shard_plans();
        let started = Instant::now();
        let shards: Vec<ShardRunStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = plans
                .iter()
                .map(|plan| scope.spawn(move || run_shard(plan, factory)))
                .collect();
            // Joining in spawn (= shard) order keeps the merge deterministic.
            handles
                .into_iter()
                .map(|h| h.join().expect("shard simulation thread panicked"))
                .collect()
        });
        FleetReport {
            discipline: factory.name().to_string(),
            shards,
            wall_secs: started.elapsed().as_secs_f64(),
        }
    }
}

/// Runs one shard's scenario to completion: the monolithic
/// [`Experiment`] loop on the shard's own spec, model slice and
/// pre-partitioned trace — the same code path as an unsharded run, which is
/// what makes the 1-shard fleet byte-identical to it by construction.
pub fn run_shard(plan: &ShardPlan, factory: &dyn SchedulerFactory) -> ShardRunStats {
    let report = Experiment::new(plan.spec.clone()).run_prepared(
        factory,
        &plan.owned,
        &plan.trace,
        u64::MAX,
    );
    ShardRunStats {
        shard: plan.shard,
        workers: plan.spec.workers,
        models: plan.owned.len(),
        outcome: report.outcome(),
    }
}

/// Everything one finished shard reports — plain data only, so it crosses
/// the thread join untouched.
#[derive(Clone, Debug)]
pub struct ShardRunStats {
    /// Shard index.
    pub shard: u32,
    /// Workers this shard owned.
    pub workers: u32,
    /// Models this shard owned.
    pub models: usize,
    /// What the shard's run produced; `submitted` is what the front door
    /// routed here and `wall_secs` this shard's simulation alone.
    pub outcome: RunOutcome,
}

/// The merged outcome of a sharded run: per-shard stats in shard order plus
/// the fleet-level aggregate the bench harness gates on.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Name of the discipline every shard ran.
    pub discipline: String,
    /// Per-shard stats, indexed by shard.
    pub shards: Vec<ShardRunStats>,
    /// Host wall-clock seconds for the whole fleet (all shards in
    /// parallel), spawn to last join.
    pub wall_secs: f64,
}

impl FleetReport {
    /// The fleet determinism fingerprint: FNV-1a folded over the per-shard
    /// digests in shard order. Stable across reruns and across thread
    /// scheduling; any shard diverging moves it.
    pub fn fleet_digest(&self) -> u64 {
        let mut hash = Fnv1a::new();
        for s in &self.shards {
            hash.write_u64_le(s.outcome.digest);
        }
        hash.finish()
    }

    /// The fleet as one run: counters, metrics, event mix and scheduler
    /// counters summed over shards, [`FleetReport::fleet_digest`] as the
    /// digest and the whole fleet's wall clock — so every check and report
    /// written for a single run applies to a fleet unchanged. Summed
    /// accounting is weaker than per-shard accounting (errors could cancel);
    /// gate each `shards[i].outcome` too where that matters.
    pub fn merged(&self) -> RunOutcome {
        let mut shards = self.shards.iter().map(|s| &s.outcome);
        let mut merged = shards
            .next()
            .expect("a fleet has at least one shard")
            .clone();
        for outcome in shards {
            merged.absorb(outcome);
        }
        merged.discipline.clone_from(&self.discipline);
        merged.digest = self.fleet_digest();
        merged.wall_secs = self.wall_secs;
        merged
    }

    /// The slowest single shard's simulation time — the fleet's critical
    /// path when every shard has its own core.
    pub fn max_shard_wall(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.outcome.wall_secs)
            .fold(0.0, f64::max)
    }

    /// Total simulation work across shards — what one core pays to run the
    /// fleet serially.
    pub fn sum_shard_wall(&self) -> f64 {
        self.shards.iter().map(|s| s.outcome.wall_secs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardAssignment;
    use clockwork::prelude::{ClockworkFactory, ScenarioSpec};

    fn sharded(shards: u32) -> ShardedExperiment {
        ShardedExperiment::new(ShardedSpec::new(
            ScenarioSpec::smoke(5).with_duration_secs(3),
            shards,
            ShardAssignment::HashByModel,
        ))
    }

    #[test]
    fn one_shard_matches_the_monolithic_run_byte_for_byte() {
        let fleet = sharded(1).run(&ClockworkFactory::default());
        let spec = ScenarioSpec::smoke(5).with_duration_secs(3);
        let oracle = Experiment::new(spec).run(&ClockworkFactory::default());
        assert_eq!(fleet.shards.len(), 1);
        assert_eq!(fleet.shards[0].outcome, oracle.outcome());
    }

    #[test]
    fn parallel_shards_conserve_and_merge_deterministically() {
        let experiment = sharded(2);
        let fleet = experiment.run(&ClockworkFactory::default());
        assert_eq!(fleet.shards.len(), 2);
        let a = fleet.merged();
        assert_eq!(
            a.submitted, a.metrics.total_requests,
            "front door loses nothing"
        );
        assert!(a.drained());
        assert!(a.identity_ok(), "successes + rejected == total globally");
        for s in &fleet.shards {
            assert!(!s.outcome.overdelivered());
            assert!(s.outcome.mix_conserved(), "event conservation per shard");
        }
        assert!(a.mix_conserved(), "and therefore in the sum");
        let b = experiment.run(&ClockworkFactory::default()).merged();
        assert_eq!(a, b, "deterministic merge");
        assert_eq!(a.digest, fleet.fleet_digest());

        assert_eq!(
            a.metrics.latency.count(),
            fleet
                .shards
                .iter()
                .map(|s| s.outcome.metrics.latency.count())
                .sum::<u64>()
        );
    }

    #[test]
    fn fleet_digest_is_order_sensitive() {
        let fleet = sharded(2).run(&ClockworkFactory::default());
        let mut swapped = fleet.clone();
        swapped.shards.swap(0, 1);
        if fleet.shards[0].outcome.digest != fleet.shards[1].outcome.digest {
            assert_ne!(
                fleet.fleet_digest(),
                swapped.fleet_digest(),
                "the fold is order-sensitive"
            );
        }
    }
}
