//! Sharded scenarios: a [`ScenarioSpec`] plus a partition of its fleet.
//!
//! A [`ShardedSpec`] deterministically splits one scenario into `shards`
//! independent scenarios: the model population is divided by the front-door
//! [`FrontDoorRouter`], the workers by contiguous index ranges, the trace by
//! model ownership and the fault plan by the worker each fault targets. The
//! derivation is pure — same spec, same shard plans — and the 1-shard
//! partition reproduces the unsharded scenario exactly, which is what lets
//! the equivalence tests hold the sharded runner to byte-identical digests
//! against the monolithic oracle.

use std::collections::BTreeMap;
use std::ops::Range;

use clockwork::scenario::{ScenarioSpec, WorkloadSpec};
use clockwork_faults::{FaultKind, FaultPlan};
use clockwork_model::ModelId;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_workload::Trace;

use crate::router::{FrontDoorRouter, ShardAssignment};

/// A scenario split across a controller fleet.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedSpec {
    /// The unsharded scenario being partitioned: total fleet size, total
    /// model population, the workload, the fault plan, the seeds.
    pub base: ScenarioSpec,
    /// Number of independent shards.
    pub shards: u32,
    /// How models map to shards.
    pub assignment: ShardAssignment,
}

/// Everything one shard needs to run: its own [`ScenarioSpec`] (its worker
/// slice, its model count, its slice of the fault plan), the global ids of
/// the models it owns, and its slice of the trace in local model ids.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Shard index in `0..shards`.
    pub shard: u32,
    /// The local scenario: `workers` is the slice size, `models` the owned
    /// count, `faults` the remapped slice of the base plan.
    pub spec: ScenarioSpec,
    /// Global model ids this shard owns, ascending; global id `owned[i]`
    /// is local id `i`.
    pub owned: Vec<u32>,
    /// The shard's slice of the workload, in local model ids.
    pub trace: Trace,
}

impl ShardedSpec {
    /// Wraps a scenario for sharded execution. Panics on zero shards.
    pub fn new(base: ScenarioSpec, shards: u32, assignment: ShardAssignment) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        ShardedSpec {
            base,
            shards,
            assignment,
        }
    }

    /// The shard-fleet scenario: the fleet-scale preset scaled an order of
    /// magnitude up — 200 workers × 4 GPUs, 2 000 zoo models, the
    /// Azure-derived trace at 15 000 r/s over 8 000 functions for 30
    /// virtual seconds — the population a single controller simulation
    /// struggles with and a sharded fleet splits cleanly.
    pub fn shard_fleet(shards: u32) -> Self {
        let mut base = ScenarioSpec::fleet_scale().named("shard_fleet");
        base.workers = 200;
        base.models = 2_000;
        base.workload = WorkloadSpec::Azure {
            functions: 8_000,
            target_rate: 15_000.0,
        };
        base.duration_secs = 30;
        ShardedSpec::new(base, shards, ShardAssignment::HashByModel)
    }

    /// The contiguous worker slice a shard owns:
    /// `floor(s·W/N) .. floor((s+1)·W/N)` — every worker owned by exactly
    /// one shard, sizes differing by at most one.
    pub fn worker_range(&self, shard: u32) -> Range<u32> {
        let w = u64::from(self.base.workers);
        let n = u64::from(self.shards);
        let s = u64::from(shard);
        ((s * w / n) as u32)..(((s + 1) * w / n) as u32)
    }

    /// Overlays a correlated rack failure covering a shard's *entire*
    /// worker slice: the whole rack crashes as one at 30 % of the run,
    /// restarts 20 % later and resyncs over a 4× degraded shared uplink —
    /// [`FaultPlan::rack_failure`] aimed at one shard, so the fleet-level
    /// question "does global accounting survive losing a whole shard's
    /// rack?" is one builder call.
    pub fn with_rack_outage(mut self, shard: u32) -> Self {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        let span = self.base.duration_secs as f64 * 1e9;
        let at = Timestamp::from_nanos((0.30 * span) as u64);
        let downtime = Nanos::from_nanos((0.20 * span) as u64);
        let rack: Vec<u32> = self.worker_range(shard).collect();
        self.base.faults =
            std::mem::take(&mut self.base.faults).rack_failure(at, &rack, 4.0, downtime);
        self
    }

    /// Builds the front-door routing table for this spec.
    pub fn router(&self) -> FrontDoorRouter {
        FrontDoorRouter::build(&self.assignment, self.shards, self.base.models)
    }

    /// Derives the per-shard scenarios: model slices from the router,
    /// worker slices from [`ShardedSpec::worker_range`], trace slices in
    /// local model ids, and the fault plan split by target worker.
    ///
    /// With one shard the derivation is the identity: the plan's spec has
    /// the base's cluster and fault plan and its trace is the base trace,
    /// so the sharded runner reproduces the monolithic run byte for byte.
    pub fn shard_plans(&self) -> Vec<ShardPlan> {
        let trace = self.pre_generated_trace();
        let router = self.router();
        let parts = router.route(&trace);
        let fault_parts = self.partition_faults();

        (0..self.shards)
            .zip(parts)
            .map(|(shard, part)| {
                let owned: Vec<u32> = router.owned_models(shard).iter().map(|m| m.0).collect();
                let local_trace = part.with_models_mapped(|m| {
                    let local = owned
                        .binary_search(&m.0)
                        .expect("routed event's model is owned by its shard");
                    ModelId(local as u32)
                });
                let range = self.worker_range(shard);
                let mut spec = self.base.clone();
                spec.name = format!("{}/shard{shard}", self.base.name);
                spec.workers = range.end - range.start;
                spec.models = owned.len();
                spec.faults = fault_parts[shard as usize].clone();
                ShardPlan {
                    shard,
                    spec,
                    owned,
                    trace: local_trace,
                }
            })
            .collect()
    }

    /// The base trace, which sharding requires up front: every arrival of
    /// an Azure, shaped or open-loop workload ([`ScenarioSpec::arrivals`]).
    /// A closed-loop workload generates its requests inside the run, where
    /// the front door cannot split them, so it panics here.
    fn pre_generated_trace(&self) -> Trace {
        if let WorkloadSpec::ClosedLoop { .. } = self.base.workload {
            panic!(
                "sharding requires a pre-generated workload (Azure, shaped or open \
                 loop); {:?} generates requests inside the run",
                self.base.workload
            );
        }
        self.base.arrivals()
    }

    /// The owning shard of a base-fleet worker index.
    fn shard_of_worker(&self, worker: u32) -> u32 {
        debug_assert!(worker < self.base.workers);
        (0..self.shards)
            .find(|&s| self.worker_range(s).contains(&worker))
            .expect("worker ranges cover the fleet")
    }

    /// Splits the base fault plan by target worker, remapping global worker
    /// indices to shard-local ones. Workers joining beyond the base fleet
    /// round-robin across shards and take the next local index there;
    /// later faults referencing a joined worker follow it to its shard. A
    /// fault naming a worker no shard knows (never joined) is dropped —
    /// the same tolerance the engine itself applies to unknown targets.
    fn partition_faults(&self) -> Vec<FaultPlan> {
        let mut plans = vec![FaultPlan::new(); self.shards as usize];
        let mut next_local: Vec<u32> = (0..self.shards)
            .map(|s| {
                let r = self.worker_range(s);
                r.end - r.start
            })
            .collect();
        let mut joined: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
        for e in self.base.faults.events() {
            let w = e.kind.worker();
            let placed = if w < self.base.workers {
                let s = self.shard_of_worker(w);
                Some((s, w - self.worker_range(s).start))
            } else if matches!(e.kind, FaultKind::WorkerJoin { .. }) {
                let s = w % self.shards;
                let local = next_local[s as usize];
                next_local[s as usize] += 1;
                joined.insert(w, (s, local));
                Some((s, local))
            } else {
                joined.get(&w).copied()
            };
            if let Some((shard, local)) = placed {
                plans[shard as usize].push(e.at, with_worker(e.kind, local));
            }
        }
        plans
    }
}

/// The same fault kind aimed at a different worker index.
fn with_worker(kind: FaultKind, worker: u32) -> FaultKind {
    match kind {
        FaultKind::GpuFail { gpu, .. } => FaultKind::GpuFail { worker, gpu },
        FaultKind::GpuRecover { gpu, .. } => FaultKind::GpuRecover { worker, gpu },
        FaultKind::WorkerCrash { .. } => FaultKind::WorkerCrash { worker },
        FaultKind::WorkerRestart { .. } => FaultKind::WorkerRestart { worker },
        FaultKind::LinkDegrade { factor_milli, .. } => FaultKind::LinkDegrade {
            worker,
            factor_milli,
        },
        FaultKind::LinkRestore { .. } => FaultKind::LinkRestore { worker },
        FaultKind::PartitionStart { .. } => FaultKind::PartitionStart { worker },
        FaultKind::PartitionEnd { .. } => FaultKind::PartitionEnd { worker },
        FaultKind::WorkerJoin { .. } => FaultKind::WorkerJoin { worker },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(shards: u32) -> ShardedSpec {
        ShardedSpec::new(ScenarioSpec::smoke(7), shards, ShardAssignment::HashByModel)
    }

    #[test]
    fn one_shard_plans_reproduce_the_base_scenario() {
        let spec = sharded(1);
        let plans = spec.shard_plans();
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.spec.workers, spec.base.workers);
        assert_eq!(plan.spec.models, spec.base.models);
        assert_eq!(plan.spec.faults, spec.base.faults);
        assert_eq!(plan.owned, (0..spec.base.models as u32).collect::<Vec<_>>());
        assert_eq!(
            plan.trace,
            spec.base.generated_trace().unwrap(),
            "identity remap leaves the trace byte-identical"
        );
    }

    #[test]
    fn worker_ranges_tile_the_fleet() {
        for shards in [1, 2, 3, 4, 7, 8] {
            let mut spec = sharded(shards);
            spec.base.workers = 10;
            let mut covered = Vec::new();
            for s in 0..shards {
                covered.extend(spec.worker_range(s));
            }
            assert_eq!(covered, (0..10).collect::<Vec<_>>(), "{shards} shards");
        }
    }

    #[test]
    fn shard_plans_partition_models_workers_and_trace() {
        let spec = sharded(4);
        let plans = spec.shard_plans();
        assert_eq!(plans.len(), 4);
        let base_trace = spec.base.generated_trace().unwrap();
        assert_eq!(
            plans.iter().map(|p| p.trace.len()).sum::<usize>(),
            base_trace.len()
        );
        assert_eq!(
            plans.iter().map(|p| p.owned.len()).sum::<usize>(),
            spec.base.models
        );
        assert_eq!(
            plans.iter().map(|p| p.spec.workers).sum::<u32>(),
            spec.base.workers
        );
        for plan in &plans {
            // Local ids are dense: every event references a registered model.
            for e in plan.trace.iter() {
                assert!((e.model.0 as usize) < plan.owned.len());
            }
        }
    }

    #[test]
    fn fault_partition_remaps_workers_and_follows_joins() {
        let mut spec = sharded(2);
        spec.base.workers = 4; // shard 0 owns {0,1}, shard 1 owns {2,3}
        spec.base.faults = FaultPlan::new()
            .crash_worker_for(Timestamp::from_secs(1), 3, Nanos::from_secs(1))
            .join_worker(Timestamp::from_secs(2), 4)
            .join_worker(Timestamp::from_secs(3), 5)
            .crash_worker_for(Timestamp::from_secs(4), 5, Nanos::from_secs(1))
            .fail_gpu_for(Timestamp::from_secs(5), 0, 1, Nanos::from_secs(1));
        let plans = spec.shard_plans();
        let p0 = &plans[0].spec.faults;
        let p1 = &plans[1].spec.faults;
        // Worker 3 is shard 1's local worker 1; the crash and restart move.
        assert_eq!(
            p1.worker_crashes(),
            2,
            "original crash plus joined-worker crash"
        );
        assert!(p1
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::WorkerCrash { worker: 1 })));
        // Join of global worker 4 lands on shard 4 % 2 == 0 at local index 2.
        assert!(p0
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::WorkerJoin { worker: 2 })));
        // Join of global 5 lands on shard 1 at local 2; its later crash follows.
        assert!(p1
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::WorkerJoin { worker: 2 })));
        assert!(p1
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::WorkerCrash { worker: 2 })));
        // The GPU failure on worker 0 stays local to shard 0.
        assert!(p0
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::GpuFail { worker: 0, gpu: 1 })));
        // Nothing silently vanished: every base event except none was placed.
        assert_eq!(p0.len() + p1.len(), spec.base.faults.len());
    }

    #[test]
    fn rack_outage_covers_exactly_one_shards_slice() {
        let spec = sharded(2).with_rack_outage(1);
        let rack: Vec<u32> = spec.worker_range(1).collect();
        assert_eq!(spec.base.faults.worker_crashes(), rack.len());
        let plans = spec.shard_plans();
        assert!(plans[0].spec.faults.is_empty(), "shard 0 untouched");
        assert_eq!(
            plans[1].spec.faults.worker_crashes(),
            rack.len(),
            "the whole slice dies on shard 1"
        );
    }

    #[test]
    fn shard_fleet_preset_scales_the_fleet_preset_up() {
        let spec = ShardedSpec::shard_fleet(4);
        assert_eq!(spec.base.name, "shard_fleet");
        assert_eq!(spec.base.workers, 200);
        assert_eq!(spec.base.models, 2_000);
        assert_eq!(spec.shards, 4);
        match spec.base.workload {
            WorkloadSpec::Azure { target_rate, .. } => assert_eq!(target_rate, 15_000.0),
            ref other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "pre-generated workload")]
    fn interactive_workloads_cannot_be_sharded() {
        let mut spec = sharded(2);
        spec.base.workload = WorkloadSpec::ClosedLoop { concurrency: 4 };
        let _ = spec.shard_plans();
    }
}
