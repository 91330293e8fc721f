//! System-level configuration.
//!
//! [`SystemConfig`] describes the *cluster*: machines, GPUs, memory, network,
//! variance, faults and seed. It deliberately does not name a serving
//! discipline — disciplines are constructed behind the
//! [`Scheduler`](clockwork_controller::Scheduler) trait and handed to
//! [`ServingSystem::with_factory`](crate::ServingSystem::with_factory) via a
//! [`SchedulerFactory`](clockwork_controller::SchedulerFactory), so the
//! facade never depends on any concrete discipline crate.

use clockwork_faults::FaultPlan;
use clockwork_sim::network::NetworkConfig;
use clockwork_sim::variance::VarianceConfig;
use clockwork_worker::ExecMode;

/// Configuration of a serving cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of worker machines.
    pub workers: u32,
    /// GPUs per worker.
    pub gpus_per_worker: u32,
    /// Device memory dedicated to the weights cache, per GPU, in bytes.
    pub weights_cache_bytes: u64,
    /// Execution discipline override. `None` defers to the scheduler
    /// factory's natural mode (exclusive for Clockwork-style proactive
    /// disciplines, concurrent for the reactive baselines).
    pub exec_mode: Option<ExecMode>,
    /// External interference profile applied to every worker.
    pub variance: VarianceConfig,
    /// Network model between clients, controller and workers.
    pub network: NetworkConfig,
    /// Keep every individual response in memory (disable for very large
    /// traces; aggregates are always collected).
    pub keep_responses: bool,
    /// Scheduled fleet faults (worker crashes/joins, GPU failures, link
    /// faults). Empty by default. Every discipline is fault-aware, so any
    /// plan may be combined with any scheduler.
    pub faults: FaultPlan,
    /// Request-lifecycle tracing: `Some(capacity)` wires a bounded
    /// [`RingTracer`](clockwork_metrics::RingTracer) retaining at most
    /// `capacity` spans (oldest dropped first, drops counted). `None` — the
    /// default — uses the no-op tracer: no events are built anywhere and
    /// run digests are byte-identical to an untraced build.
    pub trace_capacity: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            workers: 1,
            gpus_per_worker: 1,
            weights_cache_bytes: 31 * 1024 * 1024 * 1024,
            exec_mode: None,
            variance: VarianceConfig::none(),
            network: NetworkConfig::ideal(clockwork_sim::time::Nanos::from_micros(100)),
            keep_responses: true,
            faults: FaultPlan::new(),
            trace_capacity: None,
            seed: 0xc10c,
        }
    }
}

impl SystemConfig {
    /// Total number of GPUs in the cluster (before any runtime joins).
    pub fn total_gpus(&self) -> u32 {
        self.workers * self.gpus_per_worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = SystemConfig::default();
        assert_eq!(c.workers, 1);
        assert_eq!(c.total_gpus(), 1);
        assert_eq!(c.exec_mode, None);
        assert!(c.faults.is_empty());
        assert_eq!(c.trace_capacity, None, "tracing is off by default");
    }
}
