//! Model specifications.
//!
//! A [`ModelSpec`] carries everything the serving system needs to know about
//! a model without ever looking inside it: the size of its input and output
//! tensors, the size of its weights blob, and the measured execution latency
//! for each compiled batch size. This mirrors §5.1 of the paper, where models
//! are post-processed into weights, kernels (for batch sizes 1, 2, 4, 8, 16),
//! static memory metadata, and seed profiling data.

use serde::{Deserialize, Serialize};

use clockwork_sim::pcie::PcieLink;
use clockwork_sim::time::{round_to_u64, Nanos};

/// Identifier of a model *instance* registered with the serving system.
///
/// Experiments frequently register many instances of the same underlying
/// model (e.g. 15 copies of ResNet50 in Fig. 5, 3 601 copies in Fig. 6); each
/// instance gets its own id, weights, and cache residency.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct ModelId(pub u32);

impl ModelId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Execution latency of a model at one batch size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchProfile {
    /// The batch size this kernel was compiled for.
    pub batch: u32,
    /// Measured execution latency of the kernel at this batch size.
    pub latency: Nanos,
}

/// Static description of a servable model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Model name, e.g. `resnet50_v1`.
    pub name: String,
    /// Model family, e.g. `ResNet`.
    pub family: String,
    /// Input tensor size in kilobytes.
    pub input_kb: f64,
    /// Output tensor size in kilobytes.
    pub output_kb: f64,
    /// Weights blob size in mebibytes.
    pub weights_mb: f64,
    /// Transient workspace memory required during execution, in bytes.
    pub workspace_bytes: u64,
    /// Per-batch-size execution latencies, sorted by batch size.
    pub batch_profiles: Vec<BatchProfile>,
}

impl ModelSpec {
    /// Creates a spec from per-batch latencies given in milliseconds, the
    /// unit used by the Appendix A table. Batch profiles are sorted by batch
    /// size.
    pub fn from_millis(
        name: &str,
        family: &str,
        input_kb: f64,
        output_kb: f64,
        weights_mb: f64,
        batch_latencies_ms: &[(u32, f64)],
    ) -> Self {
        let mut batch_profiles: Vec<BatchProfile> = batch_latencies_ms
            .iter()
            .map(|&(batch, ms)| BatchProfile {
                batch,
                latency: Nanos::from_millis_f64(ms),
            })
            .collect();
        batch_profiles.sort_by_key(|p| p.batch);
        ModelSpec {
            name: name.to_string(),
            family: family.to_string(),
            input_kb,
            output_kb,
            weights_mb,
            workspace_bytes: 0,
            batch_profiles,
        }
    }

    /// Input tensor size in bytes.
    pub fn input_bytes(&self) -> u64 {
        round_to_u64(self.input_kb * 1024.0)
    }

    /// Output tensor size in bytes.
    pub fn output_bytes(&self) -> u64 {
        round_to_u64(self.output_kb * 1024.0)
    }

    /// Weights blob size in bytes.
    pub fn weights_bytes(&self) -> u64 {
        round_to_u64(self.weights_mb * 1024.0 * 1024.0)
    }

    /// The batch sizes this model has kernels for, in ascending order.
    pub fn supported_batches(&self) -> Vec<u32> {
        self.batch_profiles.iter().map(|p| p.batch).collect()
    }

    /// The largest supported batch size (0 if no kernels exist).
    pub fn max_batch(&self) -> u32 {
        self.batch_profiles.last().map(|p| p.batch).unwrap_or(0)
    }

    /// Execution latency at an exactly supported batch size.
    pub fn exec_latency(&self, batch: u32) -> Option<Nanos> {
        self.batch_profiles
            .iter()
            .find(|p| p.batch == batch)
            .map(|p| p.latency)
    }

    /// Execution latency of the smallest supported batch size that can serve
    /// `count` requests, together with that batch size.
    ///
    /// Returns `None` if `count` is zero or exceeds the largest kernel.
    pub fn batch_for_count(&self, count: u32) -> Option<BatchProfile> {
        if count == 0 {
            return None;
        }
        self.batch_profiles
            .iter()
            .copied()
            .find(|p| p.batch >= count)
    }

    /// The largest batch size whose execution latency fits within `budget`,
    /// if any.
    pub fn largest_batch_within(&self, budget: Nanos) -> Option<BatchProfile> {
        self.batch_profiles
            .iter()
            .copied()
            .filter(|p| p.latency <= budget)
            .max_by_key(|p| p.batch)
    }

    /// Per-request execution cost at a given batch size (latency divided by
    /// batch), which batching lowers.
    pub fn per_request_cost(&self, batch: u32) -> Option<Nanos> {
        self.exec_latency(batch)
            .map(|l| l / u64::from(batch.max(1)))
    }

    /// Number of fixed-size pages needed to hold the weights.
    pub fn weights_pages(&self, page_size: u64) -> u64 {
        if page_size == 0 {
            return 0;
        }
        self.weights_bytes().div_ceil(page_size)
    }

    /// Duration of copying the weights over a PCIe link.
    pub fn weights_transfer_duration(&self, link: &PcieLink) -> Nanos {
        link.transfer_duration(self.weights_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet50() -> ModelSpec {
        ModelSpec::from_millis(
            "resnet50_v1",
            "ResNet",
            602.0,
            4.0,
            102.3,
            &[(1, 2.61), (2, 3.78), (4, 5.61), (8, 9.13), (16, 15.67)],
        )
    }

    #[test]
    fn sizes_convert_to_bytes() {
        let m = resnet50();
        assert_eq!(m.input_bytes(), 616_448);
        assert_eq!(m.output_bytes(), 4_096);
        assert_eq!(m.weights_bytes(), 107_269_325); // 102.3 MiB
    }

    #[test]
    fn batch_profiles_are_sorted_even_if_given_unsorted() {
        let m = ModelSpec::from_millis("x", "X", 1.0, 1.0, 1.0, &[(8, 8.0), (1, 1.0), (4, 4.0)]);
        assert_eq!(m.supported_batches(), vec![1, 4, 8]);
        assert_eq!(m.max_batch(), 8);
    }

    #[test]
    fn exec_latency_lookup() {
        let m = resnet50();
        assert_eq!(m.exec_latency(1), Some(Nanos::from_micros(2_610)));
        assert_eq!(m.exec_latency(16), Some(Nanos::from_micros(15_670)));
        assert_eq!(m.exec_latency(3), None);
    }

    #[test]
    fn batch_for_count_picks_smallest_sufficient() {
        let m = resnet50();
        assert_eq!(m.batch_for_count(1).unwrap().batch, 1);
        assert_eq!(m.batch_for_count(3).unwrap().batch, 4);
        assert_eq!(m.batch_for_count(16).unwrap().batch, 16);
        assert!(m.batch_for_count(17).is_none());
        assert!(m.batch_for_count(0).is_none());
    }

    #[test]
    fn largest_batch_within_budget() {
        let m = resnet50();
        assert_eq!(
            m.largest_batch_within(Nanos::from_millis(10))
                .unwrap()
                .batch,
            8
        );
        assert_eq!(
            m.largest_batch_within(Nanos::from_millis(100))
                .unwrap()
                .batch,
            16
        );
        assert!(m.largest_batch_within(Nanos::from_micros(100)).is_none());
    }

    #[test]
    fn per_request_cost_decreases_with_batching() {
        let m = resnet50();
        let c1 = m.per_request_cost(1).unwrap();
        let c16 = m.per_request_cost(16).unwrap();
        assert!(c16 < c1, "batching should amortise cost");
    }

    #[test]
    fn weights_pages_round_up() {
        let m = resnet50();
        let page = 16 * 1024 * 1024;
        // 102.3 MiB over 16 MiB pages -> 7 pages.
        assert_eq!(m.weights_pages(page), 7);
        assert_eq!(m.weights_pages(0), 0);
    }

    #[test]
    fn transfer_durations_use_link() {
        let m = resnet50();
        let link = PcieLink::v100_pcie3();
        let w = m.weights_transfer_duration(&link).as_millis_f64();
        assert!((w - 8.33).abs() < 0.2, "weights transfer {w} ms");
    }

    #[test]
    fn model_id_display() {
        assert_eq!(ModelId(42).to_string(), "m42");
        assert_eq!(ModelId(42).index(), 42);
    }
}
