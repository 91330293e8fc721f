//! PCIe host↔device transfer model.
//!
//! Model weights must be copied from host memory to GPU memory before an
//! inference can run. The paper reports that this transfer (≈8.3 ms for
//! ResNet50's 102 MB of weights) usually takes *longer* than the inference
//! itself (≈2.9 ms), which is why GPU memory is treated as a cache and LOAD
//! actions are first-class citizens.
//!
//! [`PcieLink`] converts transfer sizes into durations using a fixed
//! per-transfer overhead plus a bandwidth term, with the default bandwidth
//! calibrated so that the "Transfer (ms)" column of Appendix A is reproduced
//! from the "Weights (MB)" column. [`LinkScheduler`] serialises transfers in
//! FIFO order, which is how PCIe saturation (Fig. 6d) emerges.

use serde::{Deserialize, Serialize};

use crate::time::{Nanos, Timestamp};

/// Bytes per mebibyte, the unit the Appendix A table uses for weights.
pub const MIB: u64 = 1024 * 1024;

/// A point-to-point host↔device link with fixed overhead and finite bandwidth.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PcieLink {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed per-transfer latency (driver + DMA setup).
    pub per_transfer_overhead: Nanos,
}

impl Default for PcieLink {
    fn default() -> Self {
        Self::v100_pcie3()
    }
}

impl PcieLink {
    /// The effective PCIe 3.0 x16 link of the paper's testbed.
    ///
    /// Calibrated against Appendix A: 102.3 MB of ResNet50 weights transfer in
    /// ≈8.33 ms, i.e. ≈12.9 GB/s effective with a small fixed overhead.
    pub fn v100_pcie3() -> Self {
        PcieLink {
            bandwidth_bytes_per_sec: 12.9e9,
            per_transfer_overhead: Nanos::from_micros(15),
        }
    }

    /// Duration of a transfer of `bytes` bytes on an otherwise idle link.
    pub fn transfer_duration(&self, bytes: u64) -> Nanos {
        if self.bandwidth_bytes_per_sec <= 0.0 {
            return Nanos::MAX;
        }
        let secs = bytes as f64 / self.bandwidth_bytes_per_sec;
        self.per_transfer_overhead + Nanos::from_secs_f64(secs)
    }
}

/// FIFO serialisation of transfers on a single link direction.
///
/// The scheduler tracks when the link next becomes free. What it was busy
/// with is the worker's to report: each transfer's interval is returned to
/// the caller.
#[derive(Clone, Debug, Default)]
pub struct LinkScheduler {
    busy_until: Timestamp,
}

impl LinkScheduler {
    /// Creates an idle link scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a transfer requested at `now` taking `duration`, returning
    /// its `(start, end)` interval. Transfers are serialised FIFO.
    pub fn schedule(&mut self, now: Timestamp, duration: Nanos) -> (Timestamp, Timestamp) {
        let start = now.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        (start, end)
    }

    /// The time at which the link next becomes free.
    pub fn busy_until(&self) -> Timestamp {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes of a weights blob of `mib` mebibytes, the unit of the
    /// Appendix A model table.
    fn mib(mib: f64) -> u64 {
        (mib * MIB as f64) as u64
    }

    #[test]
    fn resnet50_transfer_matches_appendix_a() {
        // Appendix A: resnet50_v1 weighs 102.3 MB and transfers in 8.33 ms.
        let link = PcieLink::v100_pcie3();
        let d = link.transfer_duration(mib(102.3));
        let ms = d.as_millis_f64();
        assert!((ms - 8.33).abs() < 0.15, "transfer took {ms} ms");
    }

    #[test]
    fn small_and_large_models_bracket_the_table() {
        let link = PcieLink::v100_pcie3();
        // googlenet: 26.5 MB -> 2.16 ms; se_resnext101_64x4d: 352.5 MB -> 28.75 ms.
        let small = link.transfer_duration(mib(26.5)).as_millis_f64();
        let large = link.transfer_duration(mib(352.5)).as_millis_f64();
        assert!((small - 2.16).abs() < 0.1, "small {small}");
        assert!((large - 28.75).abs() < 0.6, "large {large}");
    }

    #[test]
    fn transfer_duration_is_monotonic_in_size() {
        let link = PcieLink::v100_pcie3();
        let mut prev = Nanos::ZERO;
        for mb in [1u64, 10, 50, 100, 200, 400] {
            let d = link.transfer_duration(mb * MIB);
            assert!(d > prev);
            prev = d;
        }
    }

    #[test]
    fn zero_bandwidth_is_infinite() {
        let link = PcieLink {
            bandwidth_bytes_per_sec: 0.0,
            per_transfer_overhead: Nanos::ZERO,
        };
        assert_eq!(link.transfer_duration(100), Nanos::MAX);
    }

    #[test]
    fn link_scheduler_serialises_fifo() {
        let mut sched = LinkScheduler::new();
        let t0 = Timestamp::from_millis(0);
        let (s1, e1) = sched.schedule(t0, Nanos::from_millis(10));
        let (s2, e2) = sched.schedule(t0, Nanos::from_millis(5));
        assert_eq!(s1, t0);
        assert_eq!(e1, Timestamp::from_millis(10));
        assert_eq!(s2, Timestamp::from_millis(10), "second transfer queues");
        assert_eq!(e2, Timestamp::from_millis(15));
        assert_eq!(sched.busy_until(), Timestamp::from_millis(15));
    }

    #[test]
    fn link_scheduler_idles_between_transfers() {
        let mut sched = LinkScheduler::new();
        sched.schedule(Timestamp::from_millis(0), Nanos::from_millis(5));
        let (s, e) = sched.schedule(Timestamp::from_millis(100), Nanos::from_millis(5));
        assert_eq!(s, Timestamp::from_millis(100));
        assert_eq!(e, Timestamp::from_millis(105));
        assert_eq!(sched.busy_until(), Timestamp::from_millis(105));
    }
}
