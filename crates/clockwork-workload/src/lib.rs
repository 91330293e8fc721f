//! Workload generation for the Clockwork-RS evaluation.
//!
//! The paper evaluates with three workload shapes:
//!
//! * **Closed-loop clients** (§6.1, §6.4): each client keeps a fixed number
//!   of requests in flight and submits the next one as soon as a response
//!   arrives — see [`closed_loop`].
//! * **Open-loop clients** (§6.3): Poisson arrivals at a fixed rate,
//!   independent of response times — see [`open_loop`].
//! * **The Microsoft Azure Functions trace** (§6.5): ~17 000 serverless
//!   function workloads with per-minute invocation counts over two weeks,
//!   mixing heavy sustained load, bursty and periodic spikes, and a long tail
//!   of cold functions. The trace itself is not redistributable, so
//!   [`azure`] provides a synthetic generator that reproduces those workload
//!   classes — the [`azure`] module docs give the substitution rationale —
//!   plus a trace
//!   container ([`trace`]) that can also parse externally supplied traces.
//!
//! Beyond the paper's experiments, [`shapes`] provides the scenario-zoo
//! generator: diurnal and flash-crowd rate profiles, Zipf model popularity
//! with drift, and multi-tenant SLO tiers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod azure;
pub mod closed_loop;
pub mod open_loop;
pub mod shapes;
pub mod trace;

pub use azure::{AzureTraceConfig, AzureTraceGenerator, FunctionClass};
pub use closed_loop::ClosedLoopClient;
pub use open_loop::OpenLoopClient;
pub use shapes::{PopularityModel, RateProfile, ShapedWorkload, TierMix};
pub use trace::{Trace, TraceEvent};
