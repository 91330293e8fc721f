//! Simulation substrate for Clockwork-RS.
//!
//! The Clockwork paper ran on real hardware (NVIDIA V100 GPUs, PCIe 3.0,
//! a 12-machine cluster). This crate provides the synthetic equivalents that
//! the rest of the workspace is built on:
//!
//! * [`time`] — virtual time ([`Nanos`] durations and [`Timestamp`] instants).
//! * [`rng`] — a small, fully deterministic PCG-based random number generator
//!   so every experiment is reproducible bit-for-bit.
//! * [`engine`] — a discrete-event simulation core ([`EventQueue`]) that lets
//!   hours of trace be replayed in seconds.
//! * [`hash`] — the one FNV-1a behind every determinism digest.
//! * [`gpu`] — a GPU timing model with the paper's key property: one-at-a-time
//!   kernel execution is deterministic, concurrent execution gains a little
//!   throughput but loses predictability (Fig. 2b).
//! * [`pcie`] — a bandwidth-modelled host↔device transfer link.
//! * [`memory`] — host and device memory capacity accounting.
//! * [`variance`] — explicit injection of external interference (the paper's
//!   challenge C3): latency spikes and thermal-throttle windows.
//!
//! All components are pure state machines over explicit `now` arguments; no
//! wall-clock time or global state is consulted anywhere, which is what makes
//! the higher layers unit-testable and the experiments deterministic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod gpu;
pub mod hash;
pub mod memory;
pub mod pcie;
pub mod rng;
pub mod time;
pub mod variance;

pub use engine::EventQueue;
pub use gpu::{GpuSpec, GpuTimingModel};
pub use memory::MemoryPool;
pub use pcie::PcieLink;
pub use rng::SimRng;
pub use time::{Nanos, Timestamp};
