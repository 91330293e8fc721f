//! Baseline serving disciplines (§6.1, §8).
//!
//! The paper compares Clockwork against Clipper (NSDI '17) and INFaaS
//! (arXiv '19). Both are *reactive*, best-effort systems layered on top of
//! opaque model-execution frameworks: they treat the latency SLO as a
//! long-term target to steer towards (adaptive batching, model-variant
//! selection, autoscaling) rather than a per-request guarantee, they do not
//! control worker memory or execution order, and they happily run kernels
//! concurrently on the GPU.
//!
//! These reimplementations capture those disciplines on the same simulated
//! substrate as Clockwork, so the Fig. 5 comparison isolates the
//! architectural difference (reactive/best-effort vs. proactive/consolidated)
//! rather than implementation details:
//!
//! * [`clipper::ClipperScheduler`] — per-model queues with adaptive batching
//!   driven by an SLO feedback loop, models pinned to workers, loads on
//!   demand, no admission control, unbounded action windows.
//! * [`infaas::InfaasScheduler`] — model-variant (batch-size) selection per
//!   request plus reactive replication to more GPUs when a model's queue
//!   grows, again without admission control or execution windows.
//!
//! Both implement the same [`clockwork_controller::Scheduler`] trait as the
//! real scheduler, so the system harness can swap them in unchanged, and both
//! are fault-aware: churn events route through their worker-state tracker
//! (dead capacity is parked, lost in-flight requests are requeued, recovered
//! capacity re-admitted cold), so they run under the same chaos plans as
//! Clockwork. They are intended to be paired with workers configured in
//! [`clockwork_worker::ExecMode::Concurrent`] mode, which is how the
//! underlying frameworks they model behave — their factories report exactly
//! that as their default execution mode.
//!
//! The facade does not link this crate. Disciplines flow the other way:
//! [`register_baselines`] adds [`ClipperFactory`] and [`InfaasFactory`] to a
//! [`SchedulerRegistry`], and experiment harnesses build `Box<dyn Scheduler>`
//! instances from the registry.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clipper;
pub mod infaas;

pub use clipper::{ClipperFactory, ClipperScheduler};
pub use infaas::{InfaasFactory, InfaasScheduler};

use clockwork_controller::registry::SchedulerRegistry;

/// Registers the baseline disciplines (`clipper`, then `infaas`). Call on top of [`SchedulerRegistry::builtin`] to
/// obtain the paper's full four-discipline comparison set.
pub fn register_baselines(registry: &mut SchedulerRegistry) {
    registry.register(Box::new(ClipperFactory));
    registry.register(Box::new(InfaasFactory));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registering_baselines_yields_the_four_discipline_comparison_set() {
        let mut registry = SchedulerRegistry::builtin();
        register_baselines(&mut registry);
        assert_eq!(
            registry.names(),
            vec!["clockwork", "fifo", "clipper", "infaas"]
        );
        for factory in registry.iter() {
            let scheduler = factory.build();
            assert_eq!(scheduler.name(), factory.name());
        }
    }
}
