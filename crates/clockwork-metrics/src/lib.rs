//! Telemetry primitives for Clockwork-RS.
//!
//! The paper's evaluation leans on latency percentiles and CDFs scaled to
//! emphasise the tail (Figs. 2a, 5, 9) and on request-lifecycle traces. This
//! crate provides those building blocks. The time-series figures (Figs. 6,
//! 8) read plain per-second rows that the facade's `SystemTelemetry` keeps
//! itself, and resource utilization is a busy-time sum the worker keeps
//! itself.
//!
//! * [`LatencyHistogram`] — a log-bucketed histogram with accurate tail
//!   percentiles and CDF export, cheap enough to record every request.
//! * [`OrderStatWindow`] — a sliding window kept sorted in one allocation,
//!   so a percentile of the last N samples (the controller's rolling action
//!   profiles) is one index.
//! * [`percentile`] — exact percentiles over small sample vectors.
//! * [`trace`] — structured request-lifecycle spans ([`TraceEvent`]) recorded
//!   into a bounded [`RingTracer`], with deterministic JSONL export for
//!   SLO-blame attribution.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod histogram;
pub mod orderstat;
pub mod percentile;
pub mod trace;

pub use histogram::LatencyHistogram;
pub use orderstat::OrderStatWindow;
pub use trace::{RingTracer, TraceEvent, TraceRecord};
