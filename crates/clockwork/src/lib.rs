//! Clockwork-RS: a distributed model serving system with predictable
//! performance, reproducing "Serving DNNs like Clockwork" (OSDI 2020).
//!
//! This crate assembles the pieces from the rest of the workspace — the
//! simulated hardware substrate, the model zoo, predictable workers, the
//! centralized controller, workload generators and the baseline disciplines —
//! into a runnable serving system driven by a discrete-event loop.
//!
//! # Quick start
//!
//! ```
//! use clockwork::prelude::*;
//!
//! // One worker with one (simulated) V100, the Clockwork scheduler.
//! let mut system = ServingSystem::with_factory(
//!     SystemConfig { workers: 1, ..Default::default() },
//!     &ClockworkFactory::default(),
//! );
//!
//! // Register 3 copies of ResNet50 from the Appendix A model zoo.
//! let zoo = ModelZoo::new();
//! let models = system.register_copies(zoo.resnet50(), 3);
//!
//! // Drive them with open-loop Poisson clients at 100 r/s each, 100 ms SLO.
//! let trace = OpenLoopClient::generate_many(
//!     &models,
//!     100.0,
//!     Nanos::from_millis(100),
//!     Nanos::from_secs(2),
//!     &mut SimRng::seeded(1),
//! );
//! system.submit_trace(&trace);
//! system.run_to_completion();
//!
//! let m = system.telemetry().metrics();
//! assert!(m.satisfaction() > 0.99);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod experiment;
pub mod json;
pub mod outcome;
pub mod scenario;
pub mod system;
pub mod telemetry;

pub use config::SystemConfig;
pub use experiment::{Experiment, RunReport};
pub use outcome::RunOutcome;
pub use scenario::{ModelSet, ScenarioSpec, WorkloadSpec};
pub use system::ServingSystem;
pub use telemetry::{
    EventMix, EventMixEntry, ExperimentMetrics, FaultRecord, SecondRow, SystemTelemetry,
    TierOutcomes,
};
// Request-lifecycle tracing surface (the workload crate's `TraceEvent` — a
// *workload* trace entry — already owns that name in the prelude, so the
// lifecycle span enum is re-exported here as `LifecycleEvent`).
pub use clockwork_metrics::trace::TraceEvent as LifecycleEvent;
pub use clockwork_metrics::trace::{RingTracer, TraceRecord};

/// Convenience re-exports for examples, tests and benchmarks.
pub mod prelude {
    pub use crate::config::SystemConfig;
    pub use crate::experiment::{Experiment, RunReport};
    pub use crate::outcome::RunOutcome;
    pub use crate::scenario::{ModelSet, ScenarioSpec, WorkloadSpec};
    pub use crate::system::ServingSystem;
    pub use crate::telemetry::{
        EventMix, EventMixEntry, ExperimentMetrics, FaultRecord, SecondRow, SystemTelemetry,
        TierOutcomes,
    };
    pub use clockwork_controller::registry::{
        ClockworkFactory, ClockworkNoBatchFactory, FifoFactory, SchedulerFactory, SchedulerRegistry,
    };
    pub use clockwork_controller::{
        ClockworkScheduler, ClockworkSchedulerConfig, InferenceRequest, RequestId, SchedProfile,
        Scheduler, TickOutcome,
    };
    pub use clockwork_faults::{ChurnConfig, FaultKind, FaultPlan};
    pub use clockwork_metrics::trace::TraceEvent as LifecycleEvent;
    pub use clockwork_metrics::trace::{RingTracer, TraceRecord};
    pub use clockwork_model::{zoo::ModelZoo, ModelId, ModelSpec, Tier};
    pub use clockwork_sim::rng::SimRng;
    pub use clockwork_sim::time::{Nanos, Timestamp};
    pub use clockwork_sim::variance::VarianceConfig;
    pub use clockwork_worker::{ExecMode, WorkerConfig, WorkerId};
    pub use clockwork_workload::{
        AzureTraceConfig, AzureTraceGenerator, ClosedLoopClient, OpenLoopClient, PopularityModel,
        RateProfile, ShapedWorkload, TierMix, Trace, TraceEvent,
    };
}
