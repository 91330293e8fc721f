//! GPU execution timing model.
//!
//! The paper's foundational observation (§2, Fig. 2) is twofold:
//!
//! 1. A single DNN inference executed alone on a GPU is essentially
//!    deterministic: across 11 million ResNet50 inferences on a V100, the
//!    99.99th-percentile latency was within 0.03 % of the median.
//! 2. As soon as the GPU is given *choices* — several CUDA kernels submitted
//!    concurrently — throughput improves by at most ~25 % while tail latency
//!    inflates by roughly two orders of magnitude.
//!
//! [`GpuTimingModel`] reproduces property (1): it turns a base execution
//! latency (taken from the model's profile) into a measured latency by
//! applying a tiny lognormal noise factor plus an extremely rare spike.
//! [`ConcurrencyModel`] reproduces property (2) and exists so that the Fig. 2b
//! experiment and the best-effort baselines can show what happens when
//! one-at-a-time execution is abandoned.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;
use crate::time::Nanos;

/// Static description of a simulated GPU device.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Human readable device name.
    pub name: String,
    /// Total device memory in bytes (V100: 32 GiB).
    pub device_memory: u64,
    /// Noise applied to isolated kernel executions.
    pub exec_noise: ExecNoise,
    /// Behaviour when multiple kernels execute concurrently.
    pub concurrency: ConcurrencyModel,
}

impl GpuSpec {
    /// A simulated NVIDIA Tesla V100 with 32 GiB of device memory, the GPU
    /// used throughout the paper's evaluation.
    pub fn tesla_v100() -> Self {
        GpuSpec {
            name: "Tesla V100 (simulated)".to_string(),
            device_memory: 32 * 1024 * 1024 * 1024,
            exec_noise: ExecNoise::default(),
            concurrency: ConcurrencyModel::default(),
        }
    }

    /// A smaller GPU, useful in tests that want to hit memory pressure
    /// without thousands of models.
    pub fn small(device_memory: u64) -> Self {
        GpuSpec {
            name: "small test GPU".to_string(),
            device_memory,
            exec_noise: ExecNoise::default(),
            concurrency: ConcurrencyModel::default(),
        }
    }
}

/// Noise model for isolated (one-at-a-time) kernel execution.
///
/// Default values are calibrated to Fig. 2a: the latency distribution is so
/// tight that the 99.99th percentile sits within 0.03 % of the median, with
/// extremely rare multi-millisecond outliers caused by external factors.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecNoise {
    /// Sigma of the multiplicative lognormal noise (median factor is 1.0).
    pub sigma: f64,
    /// Probability that a single execution experiences an external spike.
    pub spike_probability: f64,
    /// Maximum additional delay of a spike.
    pub max_spike: Nanos,
}

impl Default for ExecNoise {
    fn default() -> Self {
        ExecNoise {
            sigma: 0.000_08,
            spike_probability: 2e-6,
            max_spike: Nanos::from_millis(20),
        }
    }
}

impl ExecNoise {
    /// A completely noiseless model, useful for exact-value unit tests.
    pub fn none() -> Self {
        ExecNoise {
            sigma: 0.0,
            spike_probability: 0.0,
            max_spike: Nanos::ZERO,
        }
    }
}

/// Behaviour of the GPU's (proprietary, undocumented) hardware scheduler when
/// several kernels are resident at once.
///
/// Calibrated to Fig. 2b: relative to one-at-a-time execution, concurrency 16
/// gains roughly 25 % throughput while median latency rises by more than an
/// order of magnitude and the variance explodes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConcurrencyModel {
    /// Maximum throughput gain from concurrent execution (0.25 = +25 %).
    pub max_throughput_gain: f64,
    /// Concurrency level at which half of the maximum gain is reached.
    pub half_gain_concurrency: f64,
    /// Lognormal sigma of per-kernel latency at concurrency 2; grows with
    /// concurrency.
    pub interference_sigma: f64,
}

impl Default for ConcurrencyModel {
    fn default() -> Self {
        ConcurrencyModel {
            max_throughput_gain: 0.25,
            half_gain_concurrency: 2.0,
            interference_sigma: 0.35,
        }
    }
}

impl ConcurrencyModel {
    /// The aggregate throughput factor at a given concurrency level, relative
    /// to one-at-a-time execution (1.0 at concurrency 1, asymptotically
    /// `1 + max_throughput_gain`).
    pub fn throughput_factor(&self, concurrency: u32) -> f64 {
        if concurrency <= 1 {
            return 1.0;
        }
        let extra = (concurrency - 1) as f64;
        1.0 + self.max_throughput_gain * extra / (extra + self.half_gain_concurrency)
    }

    /// The lognormal sigma applied to an individual kernel's latency at a
    /// given concurrency level.
    pub fn latency_sigma(&self, concurrency: u32) -> f64 {
        if concurrency <= 1 {
            return 0.0;
        }
        self.interference_sigma * ((concurrency as f64).ln() / 2f64.ln()).sqrt()
    }

    /// The expected (median) latency of one kernel when `concurrency` kernels
    /// with base latency `base` time-share the GPU.
    pub fn median_latency(&self, base: Nanos, concurrency: u32) -> Nanos {
        if concurrency <= 1 {
            return base;
        }
        let factor = concurrency as f64 / self.throughput_factor(concurrency);
        base.mul_f64(factor)
    }
}

/// The timing model of a single GPU: turns base latencies into "measured"
/// latencies.
///
/// The model is deterministic given its seed; all randomness flows through the
/// owned [`SimRng`].
#[derive(Clone, Debug)]
pub struct GpuTimingModel {
    spec: GpuSpec,
    rng: SimRng,
}

impl GpuTimingModel {
    /// Creates a timing model for the given device, seeded deterministically.
    pub fn new(spec: GpuSpec, rng: SimRng) -> Self {
        GpuTimingModel { spec, rng }
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Samples the measured duration of a single isolated kernel execution
    /// with the given base latency.
    pub fn exec_duration(&mut self, base: Nanos) -> Nanos {
        let noise = &self.spec.exec_noise;
        let mut d = if noise.sigma > 0.0 {
            base.mul_f64(self.rng.lognormal_factor(noise.sigma))
        } else {
            base
        };
        if noise.spike_probability > 0.0 && self.rng.chance(noise.spike_probability) {
            let spike = noise.max_spike.mul_f64(self.rng.uniform());
            d += spike;
        }
        d
    }

    /// Samples the measured duration of one kernel when it shares the GPU
    /// with `concurrency - 1` other kernels (used by Fig. 2b and the
    /// best-effort baselines).
    pub fn exec_duration_concurrent(&mut self, base: Nanos, concurrency: u32) -> Nanos {
        let median = self.spec.concurrency.median_latency(base, concurrency);
        let sigma = self.spec.concurrency.latency_sigma(concurrency);
        let mut d = if sigma > 0.0 {
            median.mul_f64(self.rng.lognormal_factor(sigma))
        } else {
            median
        };
        // Isolated-execution noise still applies underneath.
        d = self.exec_duration(d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(noise: ExecNoise) -> GpuTimingModel {
        let spec = GpuSpec {
            exec_noise: noise,
            ..GpuSpec::tesla_v100()
        };
        GpuTimingModel::new(spec, SimRng::seeded(1))
    }

    #[test]
    fn v100_spec_has_32gb() {
        let spec = GpuSpec::tesla_v100();
        assert_eq!(spec.device_memory, 32 * 1024 * 1024 * 1024);
    }

    #[test]
    fn noiseless_execution_is_exact() {
        let mut gpu = model(ExecNoise::none());
        let base = Nanos::from_micros(2895);
        for _ in 0..100 {
            assert_eq!(gpu.exec_duration(base), base);
        }
    }

    #[test]
    fn isolated_execution_is_nearly_deterministic() {
        // Reproduces the Fig. 2a property: p99.99 within ~0.1 % of median.
        let mut gpu = model(ExecNoise {
            spike_probability: 0.0,
            ..ExecNoise::default()
        });
        let base = Nanos::from_micros(2895);
        let mut samples: Vec<u64> = (0..100_000)
            .map(|_| gpu.exec_duration(base).as_nanos())
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        let p9999 = samples[(samples.len() as f64 * 0.9999) as usize] as f64;
        let rel = (p9999 - median) / median;
        assert!(rel < 0.002, "relative tail spread was {rel}");
    }

    #[test]
    fn spikes_are_rare_but_possible() {
        let mut gpu = model(ExecNoise {
            sigma: 0.0,
            spike_probability: 0.01,
            max_spike: Nanos::from_millis(10),
        });
        let base = Nanos::from_millis(3);
        let n = 20_000;
        let spikes = (0..n)
            .filter(|_| gpu.exec_duration(base) > base + Nanos::from_micros(1))
            .count();
        let rate = spikes as f64 / n as f64;
        assert!(rate > 0.003 && rate < 0.03, "spike rate {rate}");
    }

    #[test]
    fn concurrency_gains_bounded_throughput() {
        let cm = ConcurrencyModel::default();
        assert!((cm.throughput_factor(1) - 1.0).abs() < 1e-12);
        assert!(cm.throughput_factor(2) > 1.0);
        assert!(cm.throughput_factor(16) < 1.26);
        assert!(cm.throughput_factor(16) > cm.throughput_factor(4));
    }

    #[test]
    fn concurrency_inflates_latency_and_variance() {
        // Reproduces the Fig. 2b property: large latency increase and much
        // wider distribution under concurrency.
        let spec = GpuSpec::tesla_v100();
        let mut gpu = GpuTimingModel::new(spec, SimRng::seeded(2));
        let base = Nanos::from_micros(2895);

        let solo: Vec<f64> = (0..5_000)
            .map(|_| gpu.exec_duration(base).as_millis_f64())
            .collect();
        let conc: Vec<f64> = (0..5_000)
            .map(|_| gpu.exec_duration_concurrent(base, 16).as_millis_f64())
            .collect();

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let spread = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[(s.len() as f64 * 0.99) as usize] - s[s.len() / 2]
        };
        assert!(mean(&conc) > 5.0 * mean(&solo), "latency should inflate");
        assert!(
            spread(&conc) > 50.0 * spread(&solo).max(1e-6),
            "variability should explode: solo {} conc {}",
            spread(&solo),
            spread(&conc)
        );
    }

    #[test]
    fn concurrent_median_latency_scales_with_concurrency() {
        let cm = ConcurrencyModel::default();
        let base = Nanos::from_millis(3);
        let m1 = cm.median_latency(base, 1);
        let m4 = cm.median_latency(base, 4);
        let m16 = cm.median_latency(base, 16);
        assert_eq!(m1, base);
        assert!(m4 > base * 3);
        assert!(m16 > m4 * 3);
    }

    #[test]
    fn timing_model_is_reproducible() {
        let mut a = GpuTimingModel::new(GpuSpec::tesla_v100(), SimRng::seeded(9));
        let mut b = GpuTimingModel::new(GpuSpec::tesla_v100(), SimRng::seeded(9));
        for _ in 0..1000 {
            assert_eq!(
                a.exec_duration(Nanos::from_millis(3)),
                b.exec_duration(Nanos::from_millis(3))
            );
        }
    }
}
