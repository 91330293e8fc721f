//! The model compiler (the reproduction's stand-in for TVM).
//!
//! §5.1 of the paper: "For models provided to Clockwork (e.g. in ONNX form),
//! we compile a binary representation using TVM and postprocess the model to
//! produce: weights, kernels (for batch sizes 1, 2, 4, 8, 16), memory
//! metadata, and profiling data."
//!
//! [`Compiler::compile`] performs the equivalent transformation on a
//! [`ModelSource`]: it derives the weights blob size, estimates per-batch
//! execution latency from FLOP and memory-traffic counts using a simple
//! roofline model of the target GPU, computes the static workspace
//! requirement, and packages everything as a [`CompiledModel`]. The result is
//! deterministic — compiling the same source twice yields identical
//! artifacts — which is exactly the property Clockwork relies on.

use serde::{Deserialize, Serialize};

use clockwork_sim::time::Nanos;

use crate::source::ModelSource;
use crate::spec::{BatchProfile, ModelSpec, DEFAULT_BATCH_SIZES};

/// Characteristics of the GPU the compiler targets.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GpuTarget {
    /// Sustainable compute throughput in FLOP/s.
    pub flops_per_sec: f64,
    /// Sustainable device memory bandwidth in bytes/s.
    pub memory_bandwidth: f64,
    /// Fixed per-kernel-launch overhead.
    pub launch_overhead: Nanos,
    /// Efficiency factor applied to the roofline estimate (real kernels do
    /// not reach peak throughput).
    pub efficiency: f64,
}

impl Default for GpuTarget {
    fn default() -> Self {
        Self::tesla_v100()
    }
}

impl GpuTarget {
    /// A Tesla V100 target: ~14 TFLOP/s FP32, ~900 GB/s HBM2.
    pub fn tesla_v100() -> Self {
        GpuTarget {
            flops_per_sec: 14.0e12,
            memory_bandwidth: 900.0e9,
            launch_overhead: Nanos::from_micros(30),
            efficiency: 0.55,
        }
    }
}

/// A compiled kernel for one batch size.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// The batch size this kernel was specialised for.
    pub batch: u32,
    /// Estimated execution latency on the target GPU.
    pub estimated_latency: Nanos,
    /// Workspace bytes required while this kernel executes.
    pub workspace_bytes: u64,
}

/// The static memory plan of a compiled model (§5.1 "memory metadata").
///
/// Models never allocate memory at runtime; the compiler pre-computes every
/// requirement so the worker can pass pre-allocated pointers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Bytes of weights that must be resident in device memory.
    pub weights_bytes: u64,
    /// Transient workspace bytes needed during execution (batch 16).
    pub workspace_bytes: u64,
    /// Input tensor bytes per request.
    pub input_bytes: u64,
    /// Output tensor bytes per request.
    pub output_bytes: u64,
}

/// A deterministic description of the weights blob produced by compilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightsBlob {
    /// Size in bytes.
    pub bytes: u64,
    /// A deterministic checksum standing in for the blob contents.
    pub checksum: u64,
}

/// The output of compiling a [`ModelSource`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompiledModel {
    /// The serving-facing specification (IO sizes, weights, batch latencies).
    pub spec: ModelSpec,
    /// One kernel per compiled batch size.
    pub kernels: Vec<Kernel>,
    /// The weights blob descriptor.
    pub weights: WeightsBlob,
    /// The static memory plan.
    pub memory_plan: MemoryPlan,
}

impl CompiledModel {
    /// The kernel for an exact batch size, if compiled.
    pub fn kernel(&self, batch: u32) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.batch == batch)
    }
}

/// The model compiler.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    target: GpuTarget,
}

impl Compiler {
    /// Creates a compiler for the default (V100) target.
    pub fn new() -> Self {
        Compiler {
            target: GpuTarget::default(),
        }
    }

    /// The target this compiler generates kernels for.
    pub fn target(&self) -> &GpuTarget {
        &self.target
    }

    /// Estimates the execution latency of one batch using a roofline model:
    /// the kernel is bound by whichever of compute and memory traffic takes
    /// longer, discounted by an efficiency factor, plus per-layer launch
    /// overhead. Batching amortises weight traffic and launch overhead, which
    /// is why larger batches have better per-request cost — the same shape as
    /// the Appendix A table.
    fn estimate_latency(&self, source: &ModelSource, batch: u32) -> Nanos {
        let batch_f = f64::from(batch.max(1));
        let flops = source.flops() as f64 * batch_f;
        let weight_traffic = source.weights_bytes() as f64; // read once per batch
        let activation_traffic =
            (source.peak_activation_bytes() as f64 * 2.0 + source.input_bytes() as f64) * batch_f;
        let compute_secs = flops / (self.target.flops_per_sec * self.target.efficiency);
        let memory_secs = (weight_traffic + activation_traffic)
            / (self.target.memory_bandwidth * self.target.efficiency);
        let bound = compute_secs.max(memory_secs);
        let launches = source.layers.len() as u64;
        Nanos::from_secs_f64(bound) + self.target.launch_overhead * launches
    }

    /// Compiles a model source for the default batch sizes.
    pub fn compile(&self, source: &ModelSource) -> CompiledModel {
        self.compile_for_batches(source, &DEFAULT_BATCH_SIZES)
    }

    /// Compiles a model source for explicit batch sizes.
    pub fn compile_for_batches(&self, source: &ModelSource, batches: &[u32]) -> CompiledModel {
        let workspace = source.peak_activation_bytes().max(1024) * 2;
        let kernels: Vec<Kernel> = batches
            .iter()
            .map(|&batch| Kernel {
                batch,
                estimated_latency: self.estimate_latency(source, batch),
                workspace_bytes: workspace * u64::from(batch.max(1)),
            })
            .collect();
        // `ModelSpec::batch_profiles` is documented as sorted by batch size
        // and the scheduler's strategy builder relies on it; callers may pass
        // `batches` in any order.
        let mut batch_profiles: Vec<BatchProfile> = kernels
            .iter()
            .map(|k| BatchProfile {
                batch: k.batch,
                latency: k.estimated_latency,
            })
            .collect();
        batch_profiles.sort_by_key(|p| p.batch);
        let spec = ModelSpec {
            name: source.name.clone(),
            family: "user".to_string(),
            input_kb: source.input_bytes() as f64 / 1024.0,
            output_kb: source.output_bytes() as f64 / 1024.0,
            weights_mb: source.weights_bytes() as f64 / (1024.0 * 1024.0),
            workspace_bytes: kernels.last().map(|k| k.workspace_bytes).unwrap_or(0),
            batch_profiles,
        };
        let memory_plan = MemoryPlan {
            weights_bytes: source.weights_bytes(),
            workspace_bytes: spec.workspace_bytes,
            input_bytes: source.input_bytes(),
            output_bytes: source.output_bytes(),
        };
        CompiledModel {
            weights: WeightsBlob {
                bytes: source.weights_bytes(),
                checksum: checksum(source),
            },
            kernels,
            memory_plan,
            spec,
        }
    }
}

/// A deterministic multiply-xor checksum over the source structure (word-wise,
/// its own prime — not the byte-wise hash of `clockwork_sim::hash`), standing
/// in for the contents of the compiled weights blob.
fn checksum(source: &ModelSource) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        hash ^= v;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    };
    for b in source.name.as_bytes() {
        mix(u64::from(*b));
    }
    mix(source.input_elements);
    mix(source.output_elements);
    for layer in &source.layers {
        mix(layer.parameter_count());
        mix(layer.flops());
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compilation_is_deterministic() {
        let src = ModelSource::resnet_like("det", 4);
        let c = Compiler::new();
        let a = c.compile(&src);
        let b = c.compile(&src);
        assert_eq!(a, b);
    }

    #[test]
    fn different_sources_have_different_checksums() {
        let c = Compiler::new();
        let a = c.compile(&ModelSource::resnet_like("a", 3));
        let b = c.compile(&ModelSource::resnet_like("b", 4));
        assert_ne!(a.weights.checksum, b.weights.checksum);
    }

    #[test]
    fn default_batch_sizes_are_compiled() {
        let src = ModelSource::mlp("mlp", 256, &[512, 512], 10);
        let compiled = Compiler::new().compile(&src);
        assert_eq!(compiled.kernels.len(), 5);
        assert_eq!(compiled.spec.supported_batches(), vec![1, 2, 4, 8, 16]);
        assert!(compiled.kernel(4).is_some());
        assert!(compiled.kernel(3).is_none());
    }

    #[test]
    fn latency_grows_with_batch_but_sublinearly() {
        let src = ModelSource::resnet_like("r", 4);
        let compiled = Compiler::new().compile(&src);
        let l1 = compiled.kernel(1).unwrap().estimated_latency;
        let l16 = compiled.kernel(16).unwrap().estimated_latency;
        assert!(l16 > l1, "larger batches take longer");
        assert!(l16 < l1 * 16, "batching must amortise: b1 {l1} b16 {l16}");
    }

    #[test]
    fn estimated_latencies_are_in_a_realistic_range() {
        // A ResNet-scale model should land in the single-digit millisecond
        // range at batch 1 on a V100-like target, matching Appendix A.
        let src = ModelSource::resnet_like("realism", 4);
        let compiled = Compiler::new().compile(&src);
        let ms = compiled
            .kernel(1)
            .unwrap()
            .estimated_latency
            .as_millis_f64();
        assert!(ms > 0.3 && ms < 60.0, "batch-1 latency {ms} ms");
    }

    #[test]
    fn memory_plan_matches_source() {
        let src = ModelSource::resnet_like("mem", 3);
        let compiled = Compiler::new().compile(&src);
        assert_eq!(compiled.memory_plan.weights_bytes, src.weights_bytes());
        assert_eq!(compiled.memory_plan.input_bytes, src.input_bytes());
        assert_eq!(compiled.memory_plan.output_bytes, src.output_bytes());
        assert!(compiled.memory_plan.workspace_bytes > 0);
        assert_eq!(compiled.weights.bytes, src.weights_bytes());
    }

    #[test]
    fn spec_round_trips_sizes() {
        let src = ModelSource::mlp("sizes", 1024, &[2048], 100);
        let compiled = Compiler::new().compile(&src);
        assert_eq!(compiled.spec.input_bytes(), src.input_bytes());
        assert_eq!(compiled.spec.output_bytes(), src.output_bytes());
        assert_eq!(compiled.spec.weights_bytes(), src.weights_bytes());
    }

    #[test]
    fn custom_batch_sizes() {
        let src = ModelSource::mlp("custom", 64, &[128], 8);
        let compiled = Compiler::new().compile_for_batches(&src, &[1, 32]);
        assert_eq!(compiled.spec.supported_batches(), vec![1, 32]);
    }

    #[test]
    fn bigger_models_take_longer() {
        let c = Compiler::new();
        let small = c.compile(&ModelSource::resnet_like("small", 2));
        let large = c.compile(&ModelSource::resnet_like("large", 5));
        assert!(
            large.kernel(1).unwrap().estimated_latency > small.kernel(1).unwrap().estimated_latency
        );
    }
}
