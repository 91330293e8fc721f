//! Telemetry primitives for Clockwork-RS.
//!
//! Every figure in the paper's evaluation is built from the same handful of
//! statistics: latency percentiles and CDFs scaled to emphasise the tail
//! (Figs. 2a, 5, 9), goodput/throughput time series (Figs. 6, 8), and
//! batch-size / cold-start counters (Fig. 8 c–e). This crate provides those
//! building blocks (resource utilization is a busy-time sum the worker keeps
//! itself):
//!
//! * [`LatencyHistogram`] — a log-bucketed histogram with accurate tail
//!   percentiles and CDF export, cheap enough to record every request.
//! * [`Summary`] — streaming count/mean/min/max.
//! * [`TimeSeries`] — fixed-interval bucketed counters and gauges.
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
pub mod summary;
pub mod timeseries;
pub mod trace;

pub use histogram::LatencyHistogram;
pub use orderstat::OrderStatWindow;
pub use summary::Summary;
pub use timeseries::TimeSeries;
pub use trace::{RingTracer, TraceEvent, TraceRecord};
