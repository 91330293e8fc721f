//! The one experiment runner behind every bench binary.
//!
//! [`Experiment::run`] takes a declarative [`ScenarioSpec`] and a discipline
//! ([`SchedulerFactory`]) and owns the whole loop the bench binaries used to
//! hand-roll: build the cluster, register the models, submit the workload,
//! drive virtual time to the horizon, and package telemetry, digest and
//! accounting checks into a [`RunReport`]. Running the *same* spec across
//! *different* disciplines is exactly the paper's comparison methodology —
//! and is one `for` loop over a
//! [`SchedulerRegistry`](clockwork_controller::SchedulerRegistry).

use std::time::Instant;

use clockwork_controller::registry::SchedulerFactory;
use clockwork_model::ModelId;
use clockwork_sim::time::Timestamp;
use clockwork_workload::{ClosedLoopClient, Trace};

use crate::outcome::RunOutcome;
use crate::scenario::{ScenarioSpec, WorkloadSpec};
use crate::system::ServingSystem;
use crate::telemetry::{EventMix, ExperimentMetrics, SystemTelemetry};

/// A scenario bound to the runner that executes it.
pub struct Experiment {
    spec: ScenarioSpec,
}

impl Experiment {
    /// Wraps a spec.
    pub fn new(spec: ScenarioSpec) -> Self {
        Experiment { spec }
    }

    /// The spec this experiment runs.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Runs the full scenario under the given discipline.
    pub fn run(&self, factory: &dyn SchedulerFactory) -> RunReport {
        self.run_capped(factory, u64::MAX)
    }

    /// Runs the scenario under the given discipline, stopping after at most
    /// `max_events` delivered simulation events — the fixed-work smoke mode
    /// perf gates rely on.
    pub fn run_capped(&self, factory: &dyn SchedulerFactory, max_events: u64) -> RunReport {
        let population: Vec<u32> = (0..self.spec.models as u32).collect();
        let trace = self.spec.arrivals();
        self.run_prepared(factory, &population, &trace, max_events)
    }

    /// The one build / register / submit / drive loop. Runs the scenario on
    /// an already-derived slice of it: `population` holds the global indices
    /// (ascending) of the models this system owns — index `population[i]`
    /// registers as local model `i` — and `trace` the arrivals for them in
    /// local ids. [`Experiment::run_capped`] passes the whole population and
    /// the spec's own trace; a shard of a fleet passes its slice of both.
    pub fn run_prepared(
        &self,
        factory: &dyn SchedulerFactory,
        population: &[u32],
        trace: &Trace,
        max_events: u64,
    ) -> RunReport {
        let spec = &self.spec;
        let mut system = ServingSystem::with_population(spec, factory, population.iter().copied());
        system.submit_trace(trace);
        if let WorkloadSpec::ClosedLoop { concurrency } = spec.workload {
            // Clients start staggered by 1 µs so their first submissions
            // have a deterministic order without landing synchronized.
            for i in 0..population.len() {
                system.add_closed_loop_client(
                    ClosedLoopClient::new(ModelId(i as u32), concurrency, spec.slo()),
                    Timestamp::from_nanos(i as u64 * 1_000),
                );
            }
        }
        let started = Instant::now();
        system.run_until_events(spec.horizon(), max_events);
        let wall_secs = started.elapsed().as_secs_f64();
        RunReport {
            discipline: system.scheduler_name().to_string(),
            submitted: trace.len() as u64,
            wall_secs,
            max_events,
            system,
        }
    }
}

/// Everything a finished run produced: the final system (telemetry, workers,
/// digest) plus run bookkeeping, with the derived figures and invariant
/// checks the bench binaries report.
pub struct RunReport {
    /// Name of the discipline that drove the run.
    pub discipline: String,
    /// Requests submitted up front (0 for closed-loop workloads, which
    /// generate load interactively).
    pub submitted: u64,
    /// Host wall-clock seconds the run took.
    pub wall_secs: f64,
    /// The event cap the run was given (`u64::MAX` for full runs).
    pub max_events: u64,
    /// The finished system, for telemetry and worker inspection.
    pub system: ServingSystem,
}

impl RunReport {
    /// The run's telemetry.
    pub fn telemetry(&self) -> &SystemTelemetry {
        self.system.telemetry()
    }

    /// The run's aggregate serving metrics.
    pub fn metrics(&self) -> ExperimentMetrics {
        self.telemetry().metrics()
    }

    /// The order-sensitive FNV-1a completion digest (determinism fingerprint).
    pub fn digest(&self) -> u64 {
        self.telemetry().response_digest()
    }

    /// Simulation events delivered.
    pub fn events_processed(&self) -> u64 {
        self.system.events_processed()
    }

    /// Events still scheduled when the run stopped.
    pub fn live_events(&self) -> u64 {
        self.system.pending_events()
    }

    /// See [`RunOutcome::drained`].
    pub fn drained(&self) -> bool {
        self.outcome().drained()
    }

    /// The per-kind event mix.
    pub fn event_mix(&self) -> &EventMix {
        self.telemetry().event_mix()
    }

    /// The request-lifecycle tracer, when the spec asked for one
    /// ([`ScenarioSpec::with_trace`](crate::scenario::ScenarioSpec::with_trace)).
    /// `None` on untraced runs.
    pub fn trace(&self) -> Option<&clockwork_metrics::RingTracer> {
        self.system.tracer()
    }

    /// Scheduler self-profiling counters (ticks run, early-outs, candidates
    /// scanned, strategies recomputed) — the `sched` object of the bench
    /// JSON artifacts.
    pub fn sched_stats(&self) -> clockwork_controller::SchedProfile {
        self.system.sched_profile()
    }

    /// The run as plain data, detached from the finished system.
    pub fn outcome(&self) -> RunOutcome {
        let telemetry = self.telemetry();
        RunOutcome {
            discipline: self.discipline.clone(),
            submitted: self.submitted,
            digest: telemetry.response_digest(),
            events_processed: self.events_processed(),
            live_events: self.live_events(),
            wall_secs: self.wall_secs,
            metrics: telemetry.metrics(),
            mix: telemetry.event_mix().clone(),
            sched: self.sched_stats(),
        }
    }

    /// See [`RunOutcome::rejected`].
    pub fn rejected(&self) -> u64 {
        self.outcome().rejected()
    }

    /// See [`RunOutcome::identity_ok`].
    pub fn identity_ok(&self) -> bool {
        self.outcome().identity_ok()
    }

    /// See [`RunOutcome::overdelivered`].
    pub fn overdelivered(&self) -> bool {
        self.outcome().overdelivered()
    }

    /// See [`RunOutcome::mix_conserved`].
    pub fn mix_conserved(&self) -> bool {
        self.outcome().mix_conserved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_controller::registry::{ClockworkFactory, FifoFactory};

    #[test]
    fn experiment_runs_a_spec_end_to_end_and_reports() {
        let spec = ScenarioSpec {
            workers: 2,
            gpus_per_worker: 1,
            models: 4,
            duration_secs: 2,
            ..ScenarioSpec::smoke(11)
        };
        let report = Experiment::new(spec).run(&ClockworkFactory::default());
        assert_eq!(report.discipline, "clockwork");
        assert!(report.submitted > 0);
        assert!(report.drained());
        assert_eq!(report.metrics().total_requests, report.submitted);
        assert!(report.identity_ok(), "successes + rejected == total");
        assert!(report.mix_conserved(), "event accounting holds");
        assert!(!report.overdelivered());
        assert!(report.events_processed() > 0);
    }

    #[test]
    fn same_spec_same_discipline_same_digest() {
        let spec = ScenarioSpec {
            workers: 2,
            gpus_per_worker: 1,
            models: 4,
            duration_secs: 2,
            ..ScenarioSpec::smoke(13)
        };
        let experiment = Experiment::new(spec);
        let a = experiment.run(&ClockworkFactory::default());
        let b = experiment.run(&ClockworkFactory::default());
        assert_eq!(a.digest(), b.digest());
        let fifo = experiment.run(&FifoFactory);
        assert_eq!(fifo.discipline, "fifo");
        assert!(fifo.metrics().total_requests > 0);
    }

    #[test]
    fn closed_loop_workloads_generate_their_own_load() {
        let spec = ScenarioSpec {
            name: "closed".to_string(),
            workers: 1,
            gpus_per_worker: 1,
            models: 2,
            model_set: crate::scenario::ModelSet::Resnet50Copies,
            workload: WorkloadSpec::ClosedLoop { concurrency: 4 },
            duration_secs: 1,
            drain_secs: 0,
            ..ScenarioSpec::smoke(17)
        };
        let report = Experiment::new(spec).run(&ClockworkFactory::default());
        assert_eq!(report.submitted, 0);
        assert!(report.metrics().successes > 0, "clients sustained load");
    }
}
