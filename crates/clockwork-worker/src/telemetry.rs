//! Worker-side telemetry.
//!
//! Workers report the measured duration of every action back to the
//! controller (that is part of the action protocol, handled in
//! [`crate::action::ActionResult`]); in addition they keep local aggregate
//! statistics — GPU and PCIe busy time, action counts, rejection counts —
//! which the evaluation harness reads to produce Fig. 6 (d)/(e) and the
//! summary tables. Which requests an INFER served, and when, is the result's
//! to say: this block keeps only counts of them.

use serde::{Deserialize, Serialize};

use clockwork_metrics::LatencyHistogram;
use clockwork_sim::time::{Nanos, Timestamp};

/// Aggregate counters for one worker.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerCounters {
    /// LOAD actions completed successfully.
    pub loads_completed: u64,
    /// UNLOAD actions completed.
    pub unloads_completed: u64,
    /// INFER actions completed successfully: counted when the completion
    /// fires, so an INFER a crash or GPU failure destroyed mid-flight is
    /// not among them.
    pub infers_completed: u64,
    /// Successful INFER actions that carried two or more requests.
    pub batched_infers: u64,
    /// Individual requests served: the members of every successful INFER,
    /// counted with it. Exactly once per request, even when the action was
    /// batched — a request whose INFER was destroyed is counted by the
    /// worker that serves it after the controller requeues it.
    pub requests_served: u64,
    /// Actions rejected because their window elapsed.
    pub window_rejections: u64,
    /// Actions that failed for any other reason.
    pub failures: u64,
    /// Worker process crashes injected by a fault plan.
    pub crashes: u64,
    /// Single-GPU failures injected by a fault plan.
    pub gpu_failures: u64,
    /// Actions dropped because they arrived while the worker (or the target
    /// GPU) was down.
    pub dropped_actions: u64,
}

impl WorkerCounters {
    /// Total successful actions.
    pub fn successes(&self) -> u64 {
        self.loads_completed + self.unloads_completed + self.infers_completed
    }
}

/// Busy-time and latency telemetry for one worker.
#[derive(Clone, Debug)]
pub struct WorkerTelemetry {
    /// Counter block.
    pub counters: WorkerCounters,
    /// Per GPU, the summed `end − start` of every EXEC.
    gpu_busy: Vec<Nanos>,
    /// Per GPU, the summed `end − start` of every weights transfer.
    pcie_busy: Vec<Nanos>,
    /// Measured EXEC durations.
    pub exec_durations: LatencyHistogram,
    /// Measured LOAD durations.
    pub load_durations: LatencyHistogram,
}

impl WorkerTelemetry {
    /// Creates telemetry for a worker with `num_gpus` GPUs.
    pub fn new(num_gpus: usize) -> Self {
        WorkerTelemetry {
            counters: WorkerCounters::default(),
            gpu_busy: vec![Nanos::ZERO; num_gpus],
            pcie_busy: vec![Nanos::ZERO; num_gpus],
            exec_durations: LatencyHistogram::new(),
            load_durations: LatencyHistogram::new(),
        }
    }

    /// Records the completion of a successful INFER carrying `members`
    /// requests. A probe INFER with no attached requests still counts as one
    /// served request, matching the controller's accounting.
    pub fn record_infer_completion(&mut self, members: usize) {
        self.counters.infers_completed += 1;
        self.counters.requests_served += members.max(1) as u64;
        if members >= 2 {
            self.counters.batched_infers += 1;
        }
    }

    /// Records a completed EXEC on `gpu` busy over `[start, end)`.
    pub fn record_exec(&mut self, gpu: usize, start: Timestamp, end: Timestamp, duration: Nanos) {
        add_busy(&mut self.gpu_busy, gpu, start, end);
        self.exec_durations.record(duration);
    }

    /// Records a completed weights transfer on `gpu` busy over `[start, end)`.
    pub fn record_load(&mut self, gpu: usize, start: Timestamp, end: Timestamp, duration: Nanos) {
        add_busy(&mut self.pcie_busy, gpu, start, end);
        self.load_durations.record(duration);
    }

    /// GPU utilization of one GPU over `[0, horizon]` (0 for a GPU this
    /// worker does not have).
    pub fn gpu_utilization(&self, gpu: usize, horizon: Timestamp) -> f64 {
        self.gpu_busy
            .get(gpu)
            .map_or(0.0, |&b| utilization(b, horizon))
    }

    /// PCIe (weights link) utilization of one GPU over `[0, horizon]`.
    pub fn pcie_utilization(&self, gpu: usize, horizon: Timestamp) -> f64 {
        self.pcie_busy
            .get(gpu)
            .map_or(0.0, |&b| utilization(b, horizon))
    }

    /// Mean GPU utilization across all GPUs over `[0, horizon]`.
    pub fn mean_gpu_utilization(&self, horizon: Timestamp) -> f64 {
        mean_utilization(&self.gpu_busy, horizon)
    }

    /// Mean PCIe utilization across all GPUs over `[0, horizon]`.
    pub fn mean_pcie_utilization(&self, horizon: Timestamp) -> f64 {
        mean_utilization(&self.pcie_busy, horizon)
    }
}

/// Adds `[start, end)` to `gpu`'s sum; empty or inverted intervals and
/// unknown GPUs add nothing.
fn add_busy(busy: &mut [Nanos], gpu: usize, start: Timestamp, end: Timestamp) {
    if let Some(b) = busy.get_mut(gpu) {
        if end > start {
            *b += end - start;
        }
    }
}

/// The busy fraction of `[0, horizon]`, capped at 1.
fn utilization(busy: Nanos, horizon: Timestamp) -> f64 {
    if horizon == Timestamp::ZERO {
        return 0.0;
    }
    (busy.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
}

fn mean_utilization(busy: &[Nanos], horizon: Timestamp) -> f64 {
    if busy.is_empty() {
        return 0.0;
    }
    busy.iter().map(|&b| utilization(b, horizon)).sum::<f64>() / busy.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_successes() {
        let c = WorkerCounters {
            loads_completed: 2,
            unloads_completed: 1,
            infers_completed: 7,
            requests_served: 20,
            window_rejections: 3,
            failures: 1,
            ..Default::default()
        };
        assert_eq!(c.successes(), 10);
    }

    #[test]
    fn exec_and_load_recordings_update_utilization() {
        let mut t = WorkerTelemetry::new(2);
        t.record_exec(
            0,
            Timestamp::ZERO,
            Timestamp::from_millis(500),
            Nanos::from_millis(500),
        );
        t.record_load(
            1,
            Timestamp::ZERO,
            Timestamp::from_millis(250),
            Nanos::from_millis(250),
        );
        let horizon = Timestamp::from_secs(1);
        assert!((t.mean_gpu_utilization(horizon) - 0.25).abs() < 1e-9);
        assert!((t.mean_pcie_utilization(horizon) - 0.125).abs() < 1e-9);
        assert_eq!(t.exec_durations.count(), 1);
        assert_eq!(t.load_durations.count(), 1);
    }

    #[test]
    fn out_of_range_gpu_indices_are_ignored() {
        let mut t = WorkerTelemetry::new(1);
        t.record_exec(
            5,
            Timestamp::ZERO,
            Timestamp::from_millis(100),
            Nanos::from_millis(100),
        );
        assert_eq!(t.mean_gpu_utilization(Timestamp::from_secs(1)), 0.0);
        assert_eq!(t.exec_durations.count(), 1, "histogram still records");
    }

    #[test]
    fn empty_telemetry_reports_zero_utilization() {
        let t = WorkerTelemetry::new(0);
        assert_eq!(t.mean_gpu_utilization(Timestamp::from_secs(1)), 0.0);
    }
}
