//! A sharded controller fleet over the Clockwork serving stack.
//!
//! Clockwork (OSDI '20) centralizes all decisions in one controller, and
//! §7 of the paper asks how far that design scales. This crate explores the
//! natural scale-out answer while keeping every determinism guarantee the
//! repo is built on: split the model population and the worker fleet into
//! `N` independent shards, each a full [`ServingSystem`](clockwork::ServingSystem)
//! with its own controller, and put a deterministic **front door** in
//! front that routes every request to the one shard owning its model.
//!
//! The pieces:
//!
//! - [`ShardAssignment`] / [`FrontDoorRouter`] — the total model → shard
//!   table (hash, load-aware bin-packing, or explicit), and the
//!   shard-stable trace partition it induces.
//! - [`ShardedSpec`] — a [`ScenarioSpec`](clockwork::ScenarioSpec) plus a
//!   shard count and assignment policy; [`ShardedSpec::shard_plans`]
//!   derives each shard's own scenario (its worker slice, its models, its
//!   slice of the trace in local ids, its slice of the fault plan).
//! - [`ShardedExperiment`] — runs one thread per shard to its horizon and
//!   merges the per-shard [`ShardRunStats`] into a [`FleetReport`] in
//!   shard order.
//!
//! Two invariants anchor the design:
//!
//! 1. **The 1-shard fleet is the monolith.** `shard_plans()` with `N = 1`
//!    is the identity partition, and each shard runs through the
//!    monolithic experiment loop itself
//!    ([`Experiment::run_prepared`](clockwork::Experiment::run_prepared)),
//!    so the single shard's [`RunOutcome`](clockwork::RunOutcome) equals
//!    [`Experiment::run`](clockwork::Experiment::run) on the base spec by
//!    construction, not merely "close to" it.
//! 2. **Conservation survives the split.** The front door is total (every
//!    model owned by exactly one shard, checked at partition time), so
//!    `successes + rejected == total` summed over shards equals the same
//!    identity of the whole workload, and per-shard event conservation
//!    (`pushed == delivered + cancelled + live`) is checked shard by
//!    shard.
//!
//! Shards share nothing at runtime (no cross-shard interaction in v1), so
//! the threads never synchronize until the join and the merged report is
//! independent of thread scheduling: same spec, same seed, same fleet
//! digest — on one core or sixteen.

#![warn(missing_docs)]

mod router;
mod run;
mod spec;

pub use router::{FrontDoorRouter, ShardAssignment};
pub use run::{run_shard, FleetReport, ShardRunStats, ShardedExperiment};
pub use spec::{ShardPlan, ShardedSpec};
