//! DNN model abstractions for Clockwork-RS.
//!
//! Clockwork does not execute arbitrary user code: users upload models in an
//! abstract exchange format (ONNX/NNEF in the paper), the system compiles
//! them with TVM, and the serving layer only ever deals with the compiled
//! artifacts — a weights blob, per-batch-size kernels with known execution
//! latency, and static memory requirements (§5.1). This reproduction starts
//! from those artifacts: a model is registered as its [`ModelSpec`].
//!
//! * [`spec`] — [`ModelSpec`]: the per-model facts the serving system needs
//!   (IO sizes, weight size, per-batch execution latency profile).
//! * [`model_table`] — [`ModelTable`]: the one container for "a value per
//!   registered model", an id-indexed vector every layer above uses for its
//!   registry (catalog, worker host memory, scheduler state, telemetry).
//! * [`zoo`] — the 60+ model table of Appendix A, transcribed from the paper,
//!   used as ground truth by the simulator and the experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod model_table;
pub mod spec;
pub mod tier;
pub mod zoo;

pub use model_table::ModelTable;
pub use spec::{BatchProfile, ModelId, ModelSpec};
pub use tier::Tier;
pub use zoo::ModelZoo;
