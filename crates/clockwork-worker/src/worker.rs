//! The worker state machine (§4.4, §5.2).
//!
//! A [`Worker`] holds every registered model's weights in host memory,
//! maintains a paged weights cache, an IO staging cache and timing models per
//! GPU, and executes [`Action`]s submitted by the controller. It is written
//! as a pure state machine over virtual time: `submit` enqueues work,
//! [`Worker::poll`] advances everything whose virtual time has come and
//! returns the [`ActionResult`]s produced, and [`Worker::next_wakeup`] tells
//! the surrounding event loop when something will next happen.
//!
//! Faithfulness notes:
//!
//! * Only one EXEC runs per GPU at a time in [`ExecMode::Exclusive`] (the
//!   Clockwork configuration); [`ExecMode::Concurrent`] exists for the
//!   best-effort baselines and for the Fig. 2b experiment, and exhibits the
//!   throughput-vs-variance trade-off of the paper.
//! * INFER is internally split into INPUT → EXEC → OUTPUT. Inputs and outputs
//!   move on their own PCIe streams and overlap with execution; the action
//!   completes when outputs land in host memory, while the executor frees as
//!   soon as EXEC finishes (so back-to-back INFERs of the same model are
//!   possible, §5.2).
//! * Actions that cannot *start* inside their `[earliest, latest]` window are
//!   rejected with [`ActionError::WindowElapsed`] and never executed.
//! * LOAD aborts if the page cache has insufficient free pages; UNLOAD only
//!   updates metadata and always succeeds.
//! * Fleet churn is modelled explicitly: [`Worker::crash`] loses every queued
//!   and in-flight action and flushes the device caches (a restarted worker
//!   is cold), [`Worker::fail_gpu`] does the same for a single GPU, and a
//!   dead worker or GPU silently drops submissions — the controller, which
//!   observes the same fault event, is responsible for resolving the actions
//!   it will now never hear back about.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use clockwork_model::{ModelId, ModelSpec, ModelTable};
use clockwork_sim::gpu::{GpuSpec, GpuTimingModel};
use clockwork_sim::memory::MemoryPool;
use clockwork_sim::pcie::{LinkScheduler, PcieLink};
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_sim::variance::{ExternalVariance, VarianceConfig};

use crate::action::{
    Action, ActionError, ActionKind, ActionOutcome, ActionResult, ActionTiming, GpuId, TimeWindow,
    WorkerId,
};
use crate::executor::Executor;
use crate::io_cache::{IoCache, DEFAULT_IO_CACHE_BYTES};
use crate::page_cache::{PageCache, DEFAULT_PAGE_SIZE};
use crate::telemetry::WorkerTelemetry;

/// How INFER executions share the GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// One EXEC at a time per GPU — the Clockwork discipline.
    Exclusive,
    /// Up to `max_concurrent` EXECs share the GPU — the best-effort
    /// discipline of conventional serving systems (and of Fig. 2b).
    Concurrent {
        /// Maximum kernels in flight per GPU.
        max_concurrent: u32,
    },
}

/// Static configuration of a worker.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerConfig {
    /// This worker's id.
    pub id: WorkerId,
    /// Number of GPUs this worker controls.
    pub num_gpus: u32,
    /// The GPU device model.
    pub gpu: GpuSpec,
    /// The host↔device link.
    pub pcie: PcieLink,
    /// Weights cache page size (16 MiB by default).
    pub page_size: u64,
    /// Bytes of device memory dedicated to the weights page cache, per GPU.
    pub weights_cache_bytes: u64,
    /// Bytes of device memory dedicated to IO staging, per GPU.
    pub io_cache_bytes: u64,
    /// Host memory available for registered model weights.
    pub host_memory_bytes: u64,
    /// EXEC sharing discipline.
    pub exec_mode: ExecMode,
    /// External interference profile (C3).
    pub variance: VarianceConfig,
    /// RNG seed for this worker's timing noise.
    pub seed: u64,
}

impl WorkerConfig {
    /// The paper's worker: one V100 GPU (32 GB), 768 GB host memory, 16 MiB
    /// pages, 512 MB workspace and 512 MB IO cache carved out of device
    /// memory, exclusive execution, near-quiet external variance.
    pub fn new(id: WorkerId) -> Self {
        let gpu = GpuSpec::tesla_v100();
        // 512 MB workspace + 512 MB IO cache reserved out of device memory.
        let weights_cache_bytes = gpu.device_memory - 1024 * 1024 * 1024;
        WorkerConfig {
            id,
            num_gpus: 1,
            gpu,
            pcie: PcieLink::v100_pcie3(),
            page_size: DEFAULT_PAGE_SIZE,
            weights_cache_bytes,
            io_cache_bytes: DEFAULT_IO_CACHE_BYTES,
            host_memory_bytes: 768 * 1024 * 1024 * 1024,
            exec_mode: ExecMode::Exclusive,
            variance: VarianceConfig::none(),
            seed: 0x5eed,
        }
    }

    /// Sets the number of GPUs.
    pub fn with_gpus(mut self, num_gpus: u32) -> Self {
        self.num_gpus = num_gpus;
        self
    }

    /// Sets the execution mode.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Sets the external variance profile.
    pub fn with_variance(mut self, variance: VarianceConfig) -> Self {
        self.variance = variance;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the weights cache capacity per GPU (useful for small tests).
    pub fn with_weights_cache(mut self, bytes: u64) -> Self {
        self.weights_cache_bytes = bytes;
        self
    }

    /// Total weight pages per GPU under this configuration.
    pub fn pages_per_gpu(&self) -> u64 {
        self.weights_cache_bytes / self.page_size
    }
}

/// Errors from worker management operations (not action execution).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerError {
    /// A model with this id is already registered.
    DuplicateModel(ModelId),
    /// Host memory cannot hold another model's weights.
    HostMemoryExhausted {
        /// Bytes the model needs.
        requested: u64,
        /// Bytes left in host memory.
        available: u64,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::DuplicateModel(m) => write!(f, "model {m} already registered"),
            WorkerError::HostMemoryExhausted {
                requested,
                available,
            } => write!(
                f,
                "host memory exhausted: requested {requested} bytes, {available} available"
            ),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Per-GPU state.
struct GpuState {
    page_cache: PageCache,
    io_cache: IoCache,
    timing: GpuTimingModel,
    load_link: LinkScheduler,
    input_link: LinkScheduler,
    output_link: LinkScheduler,
    load_executor: Executor,
    infer_executor: Executor,
    in_flight_execs: u32,
    /// Whether the GPU is currently failed (unusable until recovery).
    failed: bool,
}

/// Files `item` at `at` in a timeline kept in ascending time order, after
/// every entry due at or before `at`: entries due at the same instant leave
/// in the order they were filed.
fn file_in_order<T>(timeline: &mut VecDeque<(Timestamp, T)>, at: Timestamp, item: T) {
    let pos = timeline.partition_point(|(due, _)| *due <= at);
    timeline.insert(pos, (at, item));
}

/// A completion scheduled inside the worker.
struct Completion {
    gpu_index: usize,
    result: ActionResult,
    /// Set for a successful INFER, which holds three things on its GPU until
    /// the completion fires: this many bytes of IO staging, one in-flight
    /// EXEC slot, and a pin on its model's weight pages.
    infer_io: Option<u64>,
}

/// A Clockwork worker.
pub struct Worker {
    config: WorkerConfig,
    models: ModelTable<Arc<ModelSpec>>,
    host_memory: MemoryPool,
    gpus: Vec<GpuState>,
    /// Started actions' completions, in the order they fire: by time, then
    /// by when they were filed ([`file_in_order`]). Short: only actions
    /// already started are here, a few per GPU.
    completions: VecDeque<(Timestamp, Completion)>,
    variance: ExternalVariance,
    telemetry: WorkerTelemetry,
    /// Whether the worker process is up (false between crash and restart).
    alive: bool,
}

impl Worker {
    /// Creates a worker from its configuration.
    pub fn new(config: WorkerConfig) -> Self {
        let root = SimRng::seeded(config.seed ^ u64::from(config.id.0));
        let gpus = (0..config.num_gpus)
            .map(|g| GpuState {
                page_cache: PageCache::new(config.weights_cache_bytes, config.page_size),
                io_cache: IoCache::new(config.io_cache_bytes),
                timing: GpuTimingModel::new(config.gpu.clone(), root.derive(1000 + u64::from(g))),
                load_link: LinkScheduler::new(),
                input_link: LinkScheduler::new(),
                output_link: LinkScheduler::new(),
                load_executor: Executor::new(),
                infer_executor: Executor::new(),
                in_flight_execs: 0,
                failed: false,
            })
            .collect();
        let telemetry = WorkerTelemetry::new(config.num_gpus as usize);
        let variance = ExternalVariance::new(config.variance, root.derive(7));
        Worker {
            host_memory: MemoryPool::new(config.host_memory_bytes),
            models: ModelTable::default(),
            gpus,
            completions: VecDeque::new(),
            variance,
            telemetry,
            alive: true,
            config,
        }
    }

    /// The worker's id.
    pub fn id(&self) -> WorkerId {
        self.config.id
    }

    /// The worker's configuration.
    pub fn config(&self) -> &WorkerConfig {
        &self.config
    }

    /// Worker telemetry (utilization, counters, measured durations).
    pub fn telemetry(&self) -> &WorkerTelemetry {
        &self.telemetry
    }

    /// Registers a model's weights in host memory (worker startup pre-loads
    /// every model from disk, §5.1).
    pub fn register_model(&mut self, id: ModelId, spec: Arc<ModelSpec>) -> Result<(), WorkerError> {
        if self.has_model(id) {
            return Err(WorkerError::DuplicateModel(id));
        }
        let bytes = spec.weights_bytes();
        self.host_memory
            .allocate(bytes)
            .map_err(|e| WorkerError::HostMemoryExhausted {
                requested: e.requested,
                available: e.available,
            })?;
        self.models.insert(id, spec);
        Ok(())
    }

    /// Whether a model is registered (present in host memory).
    pub fn has_model(&self, id: ModelId) -> bool {
        self.models.get(id).is_some()
    }

    /// Number of registered models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The spec of a registered model.
    pub fn model_spec(&self, id: ModelId) -> Option<&Arc<ModelSpec>> {
        self.models.get(id)
    }

    /// Host memory still available for model registration.
    pub fn host_memory_available(&self) -> u64 {
        self.host_memory.available()
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> u32 {
        self.config.num_gpus
    }

    /// Free pages in a GPU's weights cache.
    ///
    /// Panics on an unknown GPU id: capacity queries for a GPU this worker
    /// does not have are controller routing bugs, and a silent `0` would let
    /// them masquerade as a full cache.
    pub fn free_pages(&self, gpu: GpuId) -> u64 {
        self.gpu(gpu)
            .unwrap_or_else(|| panic!("free_pages for unknown {gpu:?} on worker {:?}", self.id()))
            .page_cache
            .free_pages()
    }

    /// Total pages in a GPU's weights cache.
    ///
    /// Panics on an unknown GPU id, like [`Worker::free_pages`]: a `0` total
    /// would silently convince the scheduler this executor can hold nothing.
    pub fn total_pages(&self, gpu: GpuId) -> u64 {
        self.gpu(gpu)
            .unwrap_or_else(|| panic!("total_pages for unknown {gpu:?} on worker {:?}", self.id()))
            .page_cache
            .total_pages()
    }

    /// Pages held by resident models in a GPU's weights cache, recomputed
    /// from the residency table (see [`PageCache::held_pages`]) — together
    /// with [`Worker::free_pages`] this exposes the conservation invariant
    /// `free_pages + held_pages == total_pages` for cross-checking.
    ///
    /// Panics on an unknown GPU id, like [`Worker::free_pages`].
    pub fn held_pages(&self, gpu: GpuId) -> u64 {
        self.gpu(gpu)
            .unwrap_or_else(|| panic!("held_pages for unknown {gpu:?} on worker {:?}", self.id()))
            .page_cache
            .held_pages()
    }

    /// In-flight weight references pinning a model on a GPU (0 when absent).
    pub fn weights_refs(&self, gpu: GpuId, model: ModelId) -> u32 {
        self.gpu(gpu)
            .map(|g| g.page_cache.ref_count(model))
            .unwrap_or(0)
    }

    /// Whether a model's weights are resident on a GPU.
    pub fn is_loaded(&self, gpu: GpuId, model: ModelId) -> bool {
        self.gpu(gpu)
            .map(|g| g.page_cache.contains(model))
            .unwrap_or(false)
    }

    /// The models resident on a GPU.
    pub fn resident_models(&self, gpu: GpuId) -> Vec<ModelId> {
        self.gpu(gpu)
            .map(|g| g.page_cache.resident_models())
            .unwrap_or_default()
    }

    /// GPU utilization of a GPU so far (fraction of `[0, now]` busy).
    pub fn gpu_utilization(&self, gpu: GpuId, now: Timestamp) -> f64 {
        self.telemetry.gpu_utilization(gpu.0 as usize, now)
    }

    /// PCIe (weights link) utilization of a GPU so far.
    pub fn pcie_utilization(&self, gpu: GpuId, now: Timestamp) -> f64 {
        self.telemetry.pcie_utilization(gpu.0 as usize, now)
    }

    fn gpu(&self, gpu: GpuId) -> Option<&GpuState> {
        self.gpus.get(gpu.0 as usize)
    }

    /// Whether the worker process is up.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Whether a GPU is currently failed.
    pub fn gpu_failed(&self, gpu: GpuId) -> bool {
        self.gpu(gpu).map(|g| g.failed).unwrap_or(true)
    }

    /// Number of usable GPUs right now (0 while the worker is down).
    pub fn alive_gpus(&self) -> u32 {
        if !self.alive {
            return 0;
        }
        self.gpus.iter().filter(|g| !g.failed).count() as u32
    }

    /// Resets one GPU to its power-on state: empty caches, idle executors,
    /// fresh link schedules. The timing model (and its RNG stream) is kept so
    /// a fault does not replay past execution noise.
    fn reset_gpu(config: &WorkerConfig, gpu: &mut GpuState) {
        gpu.page_cache = PageCache::new(config.weights_cache_bytes, config.page_size);
        gpu.io_cache = IoCache::new(config.io_cache_bytes);
        gpu.load_link = LinkScheduler::new();
        gpu.input_link = LinkScheduler::new();
        gpu.output_link = LinkScheduler::new();
        gpu.load_executor = Executor::new();
        gpu.infer_executor = Executor::new();
        gpu.in_flight_execs = 0;
    }

    /// Simulates a worker process crash at `now`: every queued and in-flight
    /// action is lost without a result, and every GPU's caches are flushed,
    /// so the worker is cold when it [`Worker::restart`]s. Registered models
    /// stay in host memory — workers pre-load weights from disk at startup
    /// (§5.1), and the restart models that reload as complete by the time the
    /// worker rejoins the fleet. The controller observes the same fault event
    /// and must resolve the actions it will now never hear back about.
    pub fn crash(&mut self, now: Timestamp) {
        self.alive = false;
        self.telemetry.counters.crashes += 1;
        self.completions.clear();
        for gpu in &mut self.gpus {
            Self::reset_gpu(&self.config, gpu);
        }
        let _ = now;
    }

    /// Brings a crashed worker back up with cold caches. A restart replaces
    /// the whole machine, so it supersedes any per-GPU failure whose window
    /// overlaps the downtime: every GPU comes back usable (and cold) — the
    /// same view the controller takes when it re-admits the worker.
    pub fn restart(&mut self, now: Timestamp) {
        self.alive = true;
        for gpu in &mut self.gpus {
            gpu.failed = false;
        }
        let _ = now;
    }

    /// Fails one GPU: its queued and in-flight actions are lost and its
    /// caches flushed. The GPU drops all work until [`Worker::recover_gpu`].
    pub fn fail_gpu(&mut self, gpu: GpuId) {
        let gi = gpu.0 as usize;
        let Some(state) = self.gpus.get_mut(gi) else {
            return;
        };
        state.failed = true;
        Self::reset_gpu(&self.config, state);
        self.telemetry.counters.gpu_failures += 1;
        // Drop the failed GPU's pending completions; the survivors keep
        // their order.
        self.completions
            .retain(|(_, completion)| completion.gpu_index != gi);
    }

    /// Recovers a failed GPU with an empty (cold) weights cache.
    pub fn recover_gpu(&mut self, gpu: GpuId) {
        if let Some(state) = self.gpus.get_mut(gpu.0 as usize) {
            state.failed = false;
        }
    }

    /// Submits an action, received at `now`. A dead worker (or a failed GPU)
    /// drops the action silently — it cannot acknowledge anything, and the
    /// controller resolves the action when it processes the fault.
    ///
    /// Panics on a GPU this worker does not have: that is a routing bug, and
    /// running the action on some other GPU while its result echoes the one
    /// the controller named would leave the controller's mirror silently
    /// wrong.
    pub fn submit(&mut self, now: Timestamp, action: Action) {
        let gpu_index = action.gpu.0 as usize;
        if gpu_index >= self.gpus.len() {
            let (id, gpu, worker) = (action.id, action.gpu, self.id());
            panic!("action {id:?} submitted for unknown {gpu:?} on worker {worker:?}");
        }
        if !self.alive || self.gpus[gpu_index].failed {
            self.telemetry.counters.dropped_actions += 1;
            return;
        }
        let gpu = &mut self.gpus[gpu_index];
        match &action.kind {
            ActionKind::Load { .. } | ActionKind::Unload { .. } => {
                gpu.load_executor.push(action, now);
            }
            ActionKind::Infer { .. } => {
                gpu.infer_executor.push(action, now);
            }
        }
    }

    /// The next virtual time at which this worker has something to do.
    ///
    /// This must agree with [`Worker::poll`] about when progress is possible:
    /// an INFER executor whose GPU is already at its concurrency limit cannot
    /// start anything until a completion fires, so its queued work does not
    /// contribute a wake-up time (the pending completion does). Reporting it
    /// anyway would make the driving event loop spin at the current instant
    /// without ever advancing virtual time.
    ///
    /// The driving event loop schedules exactly one wake per worker at this
    /// time (superseding any previously queued wake), so the answer must be
    /// tight: a GPU whose executor queues are empty — a failed GPU's always
    /// are — contributes no wake at all.
    pub fn next_wakeup(&self) -> Option<Timestamp> {
        if !self.alive {
            return None;
        }
        let mut best = self.completions.front().map(|&(at, _)| at);
        for gpu in &self.gpus {
            let infer_blocked = match self.config.exec_mode {
                ExecMode::Exclusive => false,
                ExecMode::Concurrent { max_concurrent } => gpu.in_flight_execs >= max_concurrent,
            };
            let mut consider = |t: Option<Timestamp>| {
                if let Some(t) = t {
                    best = Some(match best {
                        Some(b) => b.min(t),
                        None => t,
                    });
                }
            };
            consider(gpu.load_executor.next_start_time());
            if !infer_blocked {
                consider(gpu.infer_executor.next_start_time());
            }
        }
        best
    }

    /// Advances the worker through all internal events up to and including
    /// `now`, returning the action results produced.
    pub fn poll(&mut self, now: Timestamp) -> Vec<ActionResult> {
        let mut results = Vec::new();
        self.poll_into(now, &mut results);
        results
    }

    /// Like [`Worker::poll`], but appends the results to a caller-provided
    /// buffer. The driving event loop wakes workers once per simulation
    /// event at fleet scale; reusing one buffer across wakes keeps the
    /// steady-state poll allocation-free. Each step scans the worker's GPUs
    /// (a handful) in index order.
    ///
    /// Returns the number of progress steps taken (actions started plus
    /// completions finished). A zero return means the poll found nothing
    /// actionable — the event loop counts such wakes to keep the no-op-wake
    /// ratio visible in telemetry.
    pub fn poll_into(&mut self, now: Timestamp, results: &mut Vec<ActionResult>) -> u64 {
        if !self.alive {
            return 0;
        }
        let mut steps = 0u64;
        loop {
            // Completions due?
            let completion_time = self
                .completions
                .front()
                .map(|&(at, _)| at)
                .filter(|&t| t <= now);
            // Action starts due? On a strict minimum the lowest GPU index
            // wins, and LOAD before INFER.
            let mut start: Option<(Timestamp, usize, bool)> = None; // (time, gpu, is_load_executor)
            for (gi, gpu) in self.gpus.iter().enumerate() {
                if let Some(t) = gpu.load_executor.next_start_time() {
                    if t <= now && start.map(|(bt, _, _)| t < bt).unwrap_or(true) {
                        start = Some((t, gi, true));
                    }
                }
                let infer_blocked = match self.config.exec_mode {
                    ExecMode::Exclusive => false,
                    ExecMode::Concurrent { max_concurrent } => {
                        gpu.in_flight_execs >= max_concurrent
                    }
                };
                if !infer_blocked {
                    if let Some(t) = gpu.infer_executor.next_start_time() {
                        if t <= now && start.map(|(bt, _, _)| t < bt).unwrap_or(true) {
                            start = Some((t, gi, false));
                        }
                    }
                }
            }

            match (completion_time, start) {
                (None, None) => break,
                (Some(ct), Some((st, _, _))) if ct <= st => self.finish_completion(results),
                (Some(_), None) => self.finish_completion(results),
                (_, Some((st, gi, is_load))) => self.start_next_action(st, gi, is_load),
            }
            steps += 1;
        }
        steps
    }

    fn finish_completion(&mut self, results: &mut Vec<ActionResult>) {
        let Some((_, completion)) = self.completions.pop_front() else {
            return;
        };
        let gpu = &mut self.gpus[completion.gpu_index];
        if let Some(io_bytes) = completion.infer_io {
            gpu.io_cache.release(io_bytes);
            gpu.in_flight_execs = gpu.in_flight_execs.saturating_sub(1);
            gpu.page_cache.unpin(completion.result.model);
            let members = completion.result.request_ids.len();
            self.telemetry.record_infer_completion(members);
        }
        results.push(completion.result);
    }

    /// Starts the next ready action of one executor. This is the one place
    /// an action's fate becomes an [`ActionResult`] and a scheduled
    /// completion: the `run_*` methods below do the action's work and report
    /// what finished, or why nothing could start.
    fn start_next_action(&mut self, start: Timestamp, gpu_index: usize, is_load_executor: bool) {
        let queued = {
            let gpu = &mut self.gpus[gpu_index];
            let ex = if is_load_executor {
                &mut gpu.load_executor
            } else {
                &mut gpu.infer_executor
            };
            ex.pop_ready(start)
        };
        let Some(queued) = queued else { return };
        let (action, received) = (queued.action, queued.received);
        let action_type = action.kind.type_name();
        let window = action.window;
        let (model, batch, request_ids, finished) = match action.kind {
            ActionKind::Load { model } => {
                let finished = self.run_load(gpu_index, window, received, start, model);
                (model, 1, vec![], finished.map(|timing| (timing, None)))
            }
            ActionKind::Unload { model } => {
                let timing = self.run_unload(gpu_index, received, start, model);
                (model, 1, vec![], Ok((timing, None)))
            }
            ActionKind::Infer {
                model,
                batch,
                request_ids,
            } => {
                let finished = self.run_infer(gpu_index, window, received, start, model, batch);
                let finished = finished.map(|(timing, io_bytes)| (timing, Some(io_bytes)));
                (model, batch, request_ids, finished)
            }
        };
        let (at, outcome, infer_io) = match finished {
            Ok((timing, infer_io)) => (timing.end, ActionOutcome::Success(timing), infer_io),
            Err(error) => {
                if error == ActionError::WindowElapsed {
                    self.telemetry.counters.window_rejections += 1;
                } else {
                    self.telemetry.counters.failures += 1;
                }
                (start, ActionOutcome::Error { error, at: start }, None)
            }
        };
        let result = ActionResult {
            action_id: action.id,
            worker: self.config.id,
            gpu: action.gpu,
            model,
            action_type,
            batch,
            request_ids,
            expected_duration: action.expected_duration,
            outcome,
        };
        let completion = Completion {
            gpu_index,
            result,
            infer_io,
        };
        file_in_order(&mut self.completions, at, completion);
    }

    fn run_load(
        &mut self,
        gpu_index: usize,
        window: TimeWindow,
        received: Timestamp,
        start: Timestamp,
        model: ModelId,
    ) -> Result<ActionTiming, ActionError> {
        if window.expired(start) {
            return Err(ActionError::WindowElapsed);
        }
        let spec = self.models.get(model).ok_or(ActionError::UnknownModel)?;
        let weights_bytes = spec.weights_bytes();
        let already_loaded = self.gpus[gpu_index].page_cache.contains(model);
        if !already_loaded {
            self.gpus[gpu_index]
                .page_cache
                .allocate(model, weights_bytes, start)
                .map_err(|e| ActionError::InsufficientPages {
                    needed: e.needed,
                    available: e.available,
                })?;
        }
        // Copy weights over PCIe (a no-op copy if already resident).
        let base = if already_loaded {
            Nanos::from_micros(10)
        } else {
            self.config.pcie.transfer_duration(weights_bytes)
        };
        let duration = self.variance.perturb(start, base);
        let gpu = &mut self.gpus[gpu_index];
        let (t_start, t_end) = gpu.load_link.schedule(start, duration);
        gpu.load_executor.occupy_until(t_end);
        self.telemetry
            .record_load(gpu_index, t_start, t_end, duration);
        self.telemetry.counters.loads_completed += 1;
        Ok(ActionTiming {
            received,
            start: t_start,
            end: t_end,
            device_duration: duration,
        })
    }

    /// UNLOAD only updates metadata and always succeeds (§5.2).
    fn run_unload(
        &mut self,
        gpu_index: usize,
        received: Timestamp,
        start: Timestamp,
        model: ModelId,
    ) -> ActionTiming {
        let gpu = &mut self.gpus[gpu_index];
        let _freed = gpu.page_cache.release(model);
        let duration = Nanos::from_micros(5);
        let end = start + duration;
        gpu.load_executor.occupy_until(end);
        self.telemetry.counters.unloads_completed += 1;
        ActionTiming {
            received,
            start,
            end,
            device_duration: duration,
        }
    }

    fn run_infer(
        &mut self,
        gpu_index: usize,
        window: TimeWindow,
        received: Timestamp,
        start: Timestamp,
        model: ModelId,
        batch: u32,
    ) -> Result<(ActionTiming, u64), ActionError> {
        if window.expired(start) {
            return Err(ActionError::WindowElapsed);
        }
        let spec = self.models.get(model).ok_or(ActionError::UnknownModel)?;
        let base_exec = spec
            .exec_latency(batch)
            .ok_or(ActionError::UnsupportedBatch { batch })?;
        let gpu = &mut self.gpus[gpu_index];
        let Some(weights) = gpu.page_cache.resident_mut(model) else {
            return Err(ActionError::ModelNotLoaded);
        };
        let io_bytes = (spec.input_bytes() + spec.output_bytes()) * u64::from(batch);
        if gpu.io_cache.acquire(io_bytes).is_err() {
            return Err(ActionError::IoCacheFull);
        }

        // INPUT: copy inputs host -> device on the input stream.
        let input_bytes = spec.input_bytes() * u64::from(batch);
        let input_duration = self.config.pcie.transfer_duration(input_bytes);
        let (_, input_done) = gpu.input_link.schedule(start, input_duration);

        // EXEC: run the kernel, one at a time (or concurrently for baselines).
        let concurrency = gpu.in_flight_execs + 1;
        let exec_base = match self.config.exec_mode {
            ExecMode::Exclusive => gpu.timing.exec_duration(base_exec),
            ExecMode::Concurrent { .. } => {
                gpu.timing.exec_duration_concurrent(base_exec, concurrency)
            }
        };
        let exec_duration = self.variance.perturb(start, exec_base);
        let exec_start = input_done;
        let exec_end = exec_start + exec_duration;
        gpu.in_flight_execs += 1;
        if matches!(self.config.exec_mode, ExecMode::Exclusive) {
            gpu.infer_executor.occupy_until(exec_end);
        }
        // Hold the weights for the in-flight execution: an UNLOAD
        // arriving before the completion fires must not free (or
        // double-account) the pages under the running kernel.
        weights.touch_and_pin(exec_end);
        self.telemetry
            .record_exec(gpu_index, exec_start, exec_end, exec_duration);

        // OUTPUT: copy outputs device -> host on the output stream.
        let output_bytes = spec.output_bytes() * u64::from(batch);
        let output_duration = self.config.pcie.transfer_duration(output_bytes);
        let (_, output_done) = gpu.output_link.schedule(exec_end, output_duration);

        let timing = ActionTiming {
            received,
            start,
            end: output_done,
            device_duration: exec_duration,
        };
        Ok((timing, io_bytes))
    }
}

/// Convenience constructor for actions, used by the controller and tests.
pub fn make_action(
    id: u64,
    gpu: GpuId,
    kind: ActionKind,
    window: TimeWindow,
    expected_duration: Nanos,
) -> Action {
    Action {
        id: crate::action::ActionId(id),
        gpu,
        kind,
        window,
        expected_duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_model::zoo::ModelZoo;
    use clockwork_sim::gpu::ExecNoise;

    fn quiet_config() -> WorkerConfig {
        let mut cfg = WorkerConfig::new(WorkerId(0));
        cfg.gpu.exec_noise = ExecNoise::none();
        cfg
    }

    fn resnet() -> Arc<ModelSpec> {
        Arc::new(ModelZoo::new().resnet50().clone())
    }

    fn load_action(id: u64, model: ModelId) -> Action {
        make_action(
            id,
            GpuId(0),
            ActionKind::Load { model },
            TimeWindow::always(),
            Nanos::from_millis(8),
        )
    }

    fn infer_action(id: u64, model: ModelId, batch: u32, reqs: Vec<u64>) -> Action {
        make_action(
            id,
            GpuId(0),
            ActionKind::Infer {
                model,
                batch,
                request_ids: reqs,
            },
            TimeWindow::always(),
            Nanos::from_millis(3),
        )
    }

    fn unload_action(id: u64, model: ModelId) -> Action {
        make_action(
            id,
            GpuId(0),
            ActionKind::Unload { model },
            TimeWindow::always(),
            Nanos::from_micros(5),
        )
    }

    fn drain(worker: &mut Worker, until: Timestamp) -> Vec<ActionResult> {
        worker.poll(until)
    }

    fn assert_pages_conserve(w: &Worker, context: &str) {
        assert_eq!(
            w.free_pages(GpuId(0)) + w.held_pages(GpuId(0)),
            w.total_pages(GpuId(0)),
            "page accounting drifted: {context}"
        );
    }

    #[test]
    fn unload_cannot_free_weights_under_an_executing_infer() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        drain(&mut w, Timestamp::from_millis(15));
        assert!(w.is_loaded(GpuId(0), ModelId(1)));
        assert_pages_conserve(&w, "after load");

        // The INFER starts executing at t=20 ms (pinning the weights); the
        // UNLOAD lands on the load executor at t=21 ms, mid-execution.
        w.submit(
            Timestamp::from_millis(20),
            infer_action(2, ModelId(1), 1, vec![7]),
        );
        w.submit(Timestamp::from_millis(21), unload_action(3, ModelId(1)));
        let mid = drain(&mut w, Timestamp::from_millis(21));
        assert!(mid.iter().all(|r| r.is_success()));
        assert_eq!(w.weights_refs(GpuId(0), ModelId(1)), 1, "INFER holds a ref");
        assert!(
            w.is_loaded(GpuId(0), ModelId(1)),
            "pinned weights survive the UNLOAD"
        );
        assert_pages_conserve(&w, "after refused unload");

        // Once the INFER completes the reference drops; pages stay accounted
        // exactly once throughout.
        let done = drain(&mut w, Timestamp::from_millis(100));
        assert!(done
            .iter()
            .any(|r| r.request_ids == vec![7] && r.is_success()));
        assert_eq!(w.weights_refs(GpuId(0), ModelId(1)), 0);
        assert_pages_conserve(&w, "after completion");
    }

    #[test]
    fn page_accounting_survives_crash_and_restart() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.register_model(ModelId(2), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        w.submit(Timestamp::ZERO, load_action(2, ModelId(2)));
        drain(&mut w, Timestamp::from_millis(25));
        w.submit(
            Timestamp::from_millis(30),
            infer_action(3, ModelId(1), 1, vec![1]),
        );
        drain(&mut w, Timestamp::from_millis(31)); // start executing, hold the pin
        assert_eq!(w.weights_refs(GpuId(0), ModelId(1)), 1);
        assert_pages_conserve(&w, "pre-crash with a pinned model");

        // Crash mid-execution: caches reset wholesale, references included —
        // no page (and no refcount) leaks into the cold cache.
        w.crash(Timestamp::from_millis(32));
        assert_eq!(w.held_pages(GpuId(0)), 0);
        assert_eq!(w.free_pages(GpuId(0)), w.total_pages(GpuId(0)));
        assert_eq!(w.weights_refs(GpuId(0), ModelId(1)), 0);
        assert_pages_conserve(&w, "after crash");

        // The restarted worker is cold but fully functional: reload and
        // serve, with the conservation identity intact at every step.
        w.restart(Timestamp::from_millis(40));
        w.submit(Timestamp::from_millis(41), load_action(4, ModelId(1)));
        drain(&mut w, Timestamp::from_millis(60));
        assert_pages_conserve(&w, "after reload");
        w.submit(
            Timestamp::from_millis(61),
            infer_action(5, ModelId(1), 1, vec![2]),
        );
        let done = drain(&mut w, Timestamp::from_millis(100));
        assert!(done
            .iter()
            .any(|r| r.request_ids == vec![2] && r.is_success()));
        assert_eq!(w.weights_refs(GpuId(0), ModelId(1)), 0);
        assert_pages_conserve(&w, "after restart round trip");
    }

    #[test]
    fn register_and_query_models() {
        let mut w = Worker::new(quiet_config());
        assert_eq!(w.model_count(), 0);
        w.register_model(ModelId(1), resnet()).unwrap();
        assert!(w.has_model(ModelId(1)));
        assert!(w.model_spec(ModelId(1)).is_some());
        assert_eq!(
            w.register_model(ModelId(1), resnet()),
            Err(WorkerError::DuplicateModel(ModelId(1)))
        );
        assert!(w.host_memory_available() < w.config().host_memory_bytes);
    }

    #[test]
    #[should_panic(expected = "free_pages for unknown")]
    fn free_pages_panics_on_unknown_gpu() {
        let w = Worker::new(quiet_config());
        let _ = w.free_pages(GpuId(99));
    }

    #[test]
    #[should_panic(expected = "submitted for unknown")]
    fn submit_panics_on_unknown_gpu() {
        let mut w = Worker::new(quiet_config());
        let window = TimeWindow::always();
        let unload = ActionKind::Unload { model: ModelId(0) };
        let action = make_action(1, GpuId(99), unload, window, Nanos::ZERO);
        w.submit(Timestamp::ZERO, action);
    }

    #[test]
    #[should_panic(expected = "total_pages for unknown")]
    fn total_pages_panics_on_unknown_gpu() {
        let w = Worker::new(quiet_config());
        let _ = w.total_pages(GpuId(99));
    }

    #[test]
    fn host_memory_limits_registration() {
        let mut cfg = quiet_config();
        cfg.host_memory_bytes = 200 * 1024 * 1024; // fits one ResNet50, not two
        let mut w = Worker::new(cfg);
        w.register_model(ModelId(1), resnet()).unwrap();
        let err = w.register_model(ModelId(2), resnet()).unwrap_err();
        assert!(matches!(err, WorkerError::HostMemoryExhausted { .. }));
    }

    #[test]
    fn load_then_infer_round_trip() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        let t0 = Timestamp::from_millis(1);
        w.submit(t0, load_action(1, ModelId(1)));
        let results = drain(&mut w, Timestamp::from_millis(100));
        assert_eq!(results.len(), 1);
        assert!(results[0].is_success(), "{:?}", results[0]);
        let load_timing = results[0].outcome.timing().unwrap();
        // Appendix A: ResNet50 weights transfer ≈ 8.33 ms.
        let ms = load_timing.device_duration.as_millis_f64();
        assert!((ms - 8.33).abs() < 0.3, "load took {ms} ms");
        assert!(w.is_loaded(GpuId(0), ModelId(1)));

        let t1 = Timestamp::from_millis(20);
        w.submit(t1, infer_action(2, ModelId(1), 1, vec![77]));
        let results = drain(&mut w, Timestamp::from_millis(100));
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.is_success());
        assert_eq!(r.request_ids, vec![77]);
        let timing = r.outcome.timing().unwrap();
        // Batch-1 ResNet50 EXEC ≈ 2.61 ms plus small IO transfers.
        let total = timing.total().as_millis_f64();
        assert!(total > 2.5 && total < 3.2, "inference took {total} ms");
    }

    #[test]
    fn infer_without_load_fails_model_not_loaded() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, infer_action(1, ModelId(1), 1, vec![1]));
        let results = drain(&mut w, Timestamp::from_millis(10));
        assert_eq!(results.len(), 1);
        match &results[0].outcome {
            ActionOutcome::Error { error, .. } => assert_eq!(*error, ActionError::ModelNotLoaded),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn a_missing_model_is_reported_before_a_full_io_cache() {
        // No room for even one request's inputs and outputs.
        let mut cfg = quiet_config();
        cfg.io_cache_bytes = 1;
        let mut w = Worker::new(cfg);
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, infer_action(1, ModelId(1), 1, vec![1]));
        let mut results = drain(&mut w, Timestamp::from_millis(10));
        w.submit(Timestamp::from_millis(10), load_action(2, ModelId(1)));
        let later = Timestamp::from_millis(30);
        w.submit(later, infer_action(3, ModelId(1), 1, vec![2]));
        results.extend(drain(&mut w, Timestamp::from_millis(100)));
        let error = |id: u64| {
            let result = results.iter().find(|r| r.action_id.0 == id).unwrap();
            match &result.outcome {
                ActionOutcome::Error { error, .. } => error.clone(),
                other => panic!("expected error, got {other:?}"),
            }
        };
        assert_eq!(error(1), ActionError::ModelNotLoaded);
        assert_eq!(error(3), ActionError::IoCacheFull);
        // The refused INFER looked the weights up but took no reference.
        assert_eq!(w.gpus[0].page_cache.ref_count(ModelId(1)), 0);
        assert_eq!(w.gpus[0].in_flight_execs, 0);
    }

    #[test]
    fn unknown_model_and_unsupported_batch_fail() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(99)));
        w.submit(Timestamp::ZERO, load_action(2, ModelId(1)));
        w.submit(Timestamp::ZERO, infer_action(3, ModelId(1), 3, vec![1]));
        let results = drain(&mut w, Timestamp::from_millis(100));
        assert_eq!(results.len(), 3);
        let by_id = |id: u64| {
            results
                .iter()
                .find(|r| r.action_id.0 == id)
                .unwrap()
                .clone()
        };
        assert!(matches!(
            by_id(1).outcome,
            ActionOutcome::Error {
                error: ActionError::UnknownModel,
                ..
            }
        ));
        assert!(by_id(2).is_success());
        assert!(matches!(
            by_id(3).outcome,
            ActionOutcome::Error {
                error: ActionError::UnsupportedBatch { batch: 3 },
                ..
            }
        ));
    }

    #[test]
    fn actions_outside_window_are_rejected() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        // Window already closed when the worker gets to it.
        let mut a = load_action(1, ModelId(1));
        a.window = TimeWindow {
            earliest: Timestamp::from_millis(1),
            latest: Timestamp::from_millis(2),
        };
        w.submit(Timestamp::from_millis(5), a);
        let results = drain(&mut w, Timestamp::from_millis(10));
        assert_eq!(results.len(), 1);
        assert!(matches!(
            results[0].outcome,
            ActionOutcome::Error {
                error: ActionError::WindowElapsed,
                ..
            }
        ));
        assert!(!w.is_loaded(GpuId(0), ModelId(1)));
        assert_eq!(w.telemetry().counters.window_rejections, 1);
    }

    #[test]
    fn actions_wait_for_earliest() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        let mut a = load_action(1, ModelId(1));
        a.window = TimeWindow::starting_at(Timestamp::from_millis(50), Nanos::from_millis(10));
        w.submit(Timestamp::ZERO, a);
        assert!(drain(&mut w, Timestamp::from_millis(40)).is_empty());
        assert_eq!(w.next_wakeup(), Some(Timestamp::from_millis(50)));
        let results = drain(&mut w, Timestamp::from_millis(100));
        assert_eq!(results.len(), 1);
        let timing = results[0].outcome.timing().unwrap();
        assert_eq!(timing.start, Timestamp::from_millis(50));
    }

    #[test]
    fn load_fails_when_pages_exhausted() {
        let mut cfg = quiet_config();
        cfg.weights_cache_bytes = 8 * DEFAULT_PAGE_SIZE; // 8 pages = 1 ResNet50
        let mut w = Worker::new(cfg);
        w.register_model(ModelId(1), resnet()).unwrap();
        w.register_model(ModelId(2), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        w.submit(Timestamp::ZERO, load_action(2, ModelId(2)));
        let results = drain(&mut w, Timestamp::from_millis(100));
        assert_eq!(results.len(), 2);
        assert!(results[0].is_success());
        assert!(matches!(
            results[1].outcome,
            ActionOutcome::Error {
                error: ActionError::InsufficientPages { .. },
                ..
            }
        ));
    }

    #[test]
    fn unload_frees_pages_and_always_succeeds() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        drain(&mut w, Timestamp::from_millis(50));
        let free_before = w.free_pages(GpuId(0));
        let unload = make_action(
            2,
            GpuId(0),
            ActionKind::Unload { model: ModelId(1) },
            TimeWindow::always(),
            Nanos::from_micros(5),
        );
        w.submit(Timestamp::from_millis(60), unload);
        let results = drain(&mut w, Timestamp::from_millis(70));
        assert!(results[0].is_success());
        assert!(!w.is_loaded(GpuId(0), ModelId(1)));
        assert!(w.free_pages(GpuId(0)) > free_before);
        // Unloading a model that is not resident also succeeds.
        let unload2 = make_action(
            3,
            GpuId(0),
            ActionKind::Unload { model: ModelId(9) },
            TimeWindow::always(),
            Nanos::from_micros(5),
        );
        w.submit(Timestamp::from_millis(80), unload2);
        assert!(drain(&mut w, Timestamp::from_millis(90))[0].is_success());
    }

    #[test]
    fn exclusive_mode_serialises_execs() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        drain(&mut w, Timestamp::from_millis(50));
        // Submit 4 batch-1 INFERs at the same instant.
        for i in 0..4 {
            w.submit(
                Timestamp::from_millis(50),
                infer_action(10 + i, ModelId(1), 1, vec![i]),
            );
        }
        let results = drain(&mut w, Timestamp::from_secs(1));
        assert_eq!(results.len(), 4);
        let mut exec_windows: Vec<(Timestamp, Timestamp)> = results
            .iter()
            .map(|r| {
                let t = r.outcome.timing().unwrap();
                (t.start, t.end)
            })
            .collect();
        exec_windows.sort();
        // Each inference takes ~2.6 ms; completions should be spaced by at
        // least the exec duration (serialised), not overlapping.
        for pair in exec_windows.windows(2) {
            let gap = pair[1].1.since(pair[0].1);
            assert!(gap >= Nanos::from_millis(2), "completions too close: {gap}");
        }
    }

    #[test]
    fn concurrent_mode_inflates_latency_variance() {
        let mut exclusive_cfg = WorkerConfig::new(WorkerId(0));
        exclusive_cfg.variance = VarianceConfig::none();
        let mut concurrent_cfg = exclusive_cfg
            .clone()
            .with_exec_mode(ExecMode::Concurrent { max_concurrent: 16 });
        concurrent_cfg.seed = 77;

        let run = |cfg: WorkerConfig| -> Vec<f64> {
            let mut w = Worker::new(cfg);
            w.register_model(ModelId(1), resnet()).unwrap();
            w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
            w.poll(Timestamp::from_millis(50));
            let mut latencies = Vec::new();
            // 20 rounds of 16 concurrent requests.
            for round in 0..20u64 {
                let t = Timestamp::from_millis(100 + round * 100);
                for i in 0..16u64 {
                    w.submit(
                        t,
                        infer_action(100 + round * 16 + i, ModelId(1), 1, vec![i]),
                    );
                }
                for r in w.poll(Timestamp::from_millis(100 + round * 100 + 99)) {
                    if let Some(timing) = r.outcome.timing() {
                        latencies.push(timing.total().as_millis_f64());
                    }
                }
            }
            latencies
        };
        let excl = run(exclusive_cfg);
        let conc = run(concurrent_cfg);
        assert!(!excl.is_empty() && !conc.is_empty());
        let spread = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[(s.len() as f64 * 0.95) as usize] - s[s.len() / 2]
        };
        assert!(
            spread(&conc) > 3.0 * spread(&excl),
            "concurrent spread {} vs exclusive {}",
            spread(&conc),
            spread(&excl)
        );
    }

    #[test]
    fn back_to_back_infers_batch_throughput_matches_profile() {
        // Saturating a worker with batch-8 requests should give roughly
        // batch/latency throughput (Fig. 6a reaches ~1000 r/s with batching).
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        drain(&mut w, Timestamp::from_millis(50));
        let horizon = Timestamp::from_secs(2);
        let mut submitted = 0u64;
        for i in 0..200u64 {
            w.submit(
                Timestamp::from_millis(50),
                infer_action(100 + i, ModelId(1), 8, (0..8).map(|k| i * 8 + k).collect()),
            );
            submitted += 8;
        }
        let results = drain(&mut w, horizon);
        let served: u64 = results
            .iter()
            .filter(|r| r.is_success())
            .map(|r| r.request_ids.len() as u64)
            .sum();
        assert!(served <= submitted);
        // Batch-8 latency is 9.13 ms -> ~876 r/s; in 1.95 s of serving time
        // expect roughly 1700 requests.
        assert!(served > 1_400, "served {served}");
        let util = w.gpu_utilization(GpuId(0), horizon);
        assert!(util > 0.8, "GPU utilization {util}");
    }

    #[test]
    fn telemetry_counts_match_results() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        w.submit(Timestamp::ZERO, infer_action(2, ModelId(1), 1, vec![1]));
        w.submit(Timestamp::ZERO, infer_action(3, ModelId(1), 1, vec![2]));
        let results = drain(&mut w, Timestamp::from_secs(1));
        assert_eq!(results.len(), 3);
        let counters = &w.telemetry().counters;
        assert_eq!(counters.loads_completed, 1);
        assert_eq!(counters.infers_completed, 2);
        assert_eq!(counters.requests_served, 2);
        assert_eq!(counters.batched_infers, 0, "two singleton INFERs");
    }

    #[test]
    fn batched_infer_records_one_member_completion_per_request() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        w.submit(
            Timestamp::ZERO,
            infer_action(2, ModelId(1), 4, vec![10, 11, 12, 13]),
        );
        w.submit(Timestamp::ZERO, infer_action(3, ModelId(1), 1, vec![14]));
        let results = drain(&mut w, Timestamp::from_secs(1));
        let counters = &w.telemetry().counters;
        // Exactly-once accounting stays per-request: the batch-4 action is
        // one INFER but four served requests, each named by the action's
        // result with the batch it rode in.
        assert_eq!(counters.infers_completed, 2);
        assert_eq!(counters.batched_infers, 1);
        assert_eq!(counters.requests_served, 5);
        let infers: Vec<_> = results
            .iter()
            .filter(|r| r.action_type == "INFER")
            .collect();
        assert!(infers.iter().all(|r| r.is_success()));
        let members: Vec<u64> = infers.iter().flat_map(|r| r.request_ids.clone()).collect();
        assert_eq!(members.len() as u64, counters.requests_served);
        assert_eq!(members, vec![10, 11, 12, 13, 14]);
        let batches: Vec<u32> = infers.iter().map(|r| r.batch).collect();
        assert_eq!(batches, vec![4, 1]);
    }

    #[test]
    fn an_infer_a_crash_destroys_serves_no_request() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        drain(&mut w, Timestamp::from_millis(15));
        // The INFER starts at 20 ms and would complete about 3 ms later.
        let infer = infer_action(2, ModelId(1), 1, vec![7]);
        w.submit(Timestamp::from_millis(20), infer);
        assert!(drain(&mut w, Timestamp::from_millis(20)).is_empty());
        assert_eq!(w.weights_refs(GpuId(0), ModelId(1)), 1, "it is executing");
        w.crash(Timestamp::from_millis(21));
        let counters = &w.telemetry().counters;
        assert_eq!(counters.infers_completed, 0);
        assert_eq!(counters.requests_served, 0);
    }

    #[test]
    fn next_wakeup_tracks_pending_work() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        assert_eq!(w.next_wakeup(), None);
        w.submit(Timestamp::from_millis(5), load_action(1, ModelId(1)));
        assert_eq!(w.next_wakeup(), Some(Timestamp::from_millis(5)));
        let _ = w.poll(Timestamp::from_millis(5));
        // A completion is now pending at ~13.3 ms.
        let wake = w.next_wakeup().unwrap();
        assert!(wake > Timestamp::from_millis(12) && wake < Timestamp::from_millis(15));
    }

    #[test]
    fn next_wakeup_ignores_infers_blocked_by_the_concurrency_limit() {
        // Regression test: with concurrent execution and the GPU at its
        // in-flight limit, queued INFERs cannot start until a completion
        // fires. `next_wakeup` must therefore report the completion time, not
        // the queued INFER's (already past) start time — otherwise the
        // driving event loop wakes the worker at the current instant forever
        // and virtual time never advances (observed as a livelock with the
        // Clipper/INFaaS baselines under load).
        let mut cfg = quiet_config();
        cfg.exec_mode = ExecMode::Concurrent { max_concurrent: 2 };
        let mut w = Worker::new(cfg);
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        // Finish the load.
        let _ = w.poll(Timestamp::from_millis(20));

        let t = Timestamp::from_millis(20);
        for i in 0..3u64 {
            w.submit(t, infer_action(10 + i, ModelId(1), 1, vec![i]));
        }
        // Starts two INFERs (the concurrency limit) and leaves one queued.
        let results = w.poll(t);
        assert!(results.iter().all(|r| r.action_type == "LOAD"));
        let wake = w.next_wakeup().expect("a completion is pending");
        assert!(
            wake > t,
            "next_wakeup {wake} must be in the future, not the blocked INFER's start time"
        );
        // Once the completions fire, the third INFER runs to completion too.
        let results = w.poll(Timestamp::from_millis(200));
        let infers = results.iter().filter(|r| r.action_type == "INFER").count();
        assert_eq!(infers, 3);
        assert!(results.iter().all(|r| r.is_success()));
    }

    #[test]
    fn crash_drops_in_flight_work_and_restart_is_cold() {
        let mut w = Worker::new(quiet_config());
        w.register_model(ModelId(1), resnet()).unwrap();
        w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
        drain(&mut w, Timestamp::from_millis(50));
        assert!(w.is_loaded(GpuId(0), ModelId(1)));
        // Put an INFER in flight (queued, not yet polled) and crash.
        w.submit(
            Timestamp::from_millis(60),
            infer_action(2, ModelId(1), 1, vec![9]),
        );
        w.crash(Timestamp::from_millis(61));
        assert!(!w.is_alive());
        assert_eq!(w.alive_gpus(), 0);
        assert_eq!(w.next_wakeup(), None, "a dead worker never wakes");
        assert!(drain(&mut w, Timestamp::from_secs(1)).is_empty());
        // Submissions while down are dropped without a result.
        w.submit(
            Timestamp::from_millis(70),
            infer_action(3, ModelId(1), 1, vec![10]),
        );
        assert!(drain(&mut w, Timestamp::from_secs(1)).is_empty());
        assert_eq!(w.telemetry().counters.dropped_actions, 1);
        assert_eq!(w.telemetry().counters.crashes, 1);
        // Restart: host models survive, the device cache is cold.
        w.restart(Timestamp::from_millis(100));
        assert!(w.is_alive());
        assert!(w.has_model(ModelId(1)), "host memory survives a restart");
        assert!(
            !w.is_loaded(GpuId(0), ModelId(1)),
            "the page cache must be cold after a restart"
        );
        // An INFER without a fresh LOAD fails; a LOAD pays the full transfer.
        w.submit(
            Timestamp::from_millis(100),
            infer_action(4, ModelId(1), 1, vec![11]),
        );
        let results = drain(&mut w, Timestamp::from_millis(120));
        assert!(matches!(
            results[0].outcome,
            ActionOutcome::Error {
                error: ActionError::ModelNotLoaded,
                ..
            }
        ));
        w.submit(Timestamp::from_millis(120), load_action(5, ModelId(1)));
        let results = drain(&mut w, Timestamp::from_millis(200));
        let timing = results[0].outcome.timing().unwrap();
        let ms = timing.device_duration.as_millis_f64();
        assert!((ms - 8.33).abs() < 0.3, "cold reload took {ms} ms");
    }

    #[test]
    fn single_gpu_failure_spares_the_other_gpus() {
        let mut w = Worker::new(quiet_config().with_gpus(2));
        w.register_model(ModelId(1), resnet()).unwrap();
        // Warm both GPUs.
        for g in 0..2u32 {
            let mut a = load_action(u64::from(g) + 1, ModelId(1));
            a.gpu = GpuId(g);
            w.submit(Timestamp::ZERO, a);
        }
        drain(&mut w, Timestamp::from_millis(100));
        assert!(w.is_loaded(GpuId(0), ModelId(1)));
        assert!(w.is_loaded(GpuId(1), ModelId(1)));
        w.fail_gpu(GpuId(0));
        assert!(w.gpu_failed(GpuId(0)));
        assert!(!w.gpu_failed(GpuId(1)));
        assert_eq!(w.alive_gpus(), 1);
        assert!(
            !w.is_loaded(GpuId(0), ModelId(1)),
            "failed GPU loses its cache"
        );
        assert!(
            w.is_loaded(GpuId(1), ModelId(1)),
            "survivor keeps its cache"
        );
        // Work for the failed GPU is dropped; the survivor still serves.
        let mut dead = infer_action(10, ModelId(1), 1, vec![1]);
        dead.gpu = GpuId(0);
        w.submit(Timestamp::from_millis(110), dead);
        let mut live = infer_action(11, ModelId(1), 1, vec![2]);
        live.gpu = GpuId(1);
        w.submit(Timestamp::from_millis(110), live);
        let results = drain(&mut w, Timestamp::from_millis(200));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].gpu, GpuId(1));
        assert!(results[0].is_success());
        // Recovery comes back cold.
        w.recover_gpu(GpuId(0));
        assert!(!w.gpu_failed(GpuId(0)));
        assert!(!w.is_loaded(GpuId(0), ModelId(1)));
        assert_eq!(w.telemetry().counters.gpu_failures, 1);
    }

    #[test]
    fn gpu_failure_drops_only_that_gpus_completions() {
        let mut w = Worker::new(quiet_config().with_gpus(2));
        w.register_model(ModelId(1), resnet()).unwrap();
        // Start loads on both GPUs so each has a pending completion.
        for g in 0..2u32 {
            let mut a = load_action(u64::from(g) + 1, ModelId(1));
            a.gpu = GpuId(g);
            w.submit(Timestamp::ZERO, a);
        }
        // Poll at t=0: both loads start, completions pending at ~8.3 ms.
        assert!(drain(&mut w, Timestamp::ZERO).is_empty());
        w.fail_gpu(GpuId(1));
        let results = drain(&mut w, Timestamp::from_millis(100));
        assert_eq!(results.len(), 1, "only GPU 0's load completes");
        assert_eq!(results[0].gpu, GpuId(0));
    }

    #[test]
    fn worker_is_deterministic_for_same_seed() {
        let run = || {
            let mut w = Worker::new(WorkerConfig::new(WorkerId(0)).with_seed(42));
            w.register_model(ModelId(1), resnet()).unwrap();
            w.submit(Timestamp::ZERO, load_action(1, ModelId(1)));
            for i in 0..50u64 {
                w.submit(
                    Timestamp::from_millis(20),
                    infer_action(10 + i, ModelId(1), 1, vec![i]),
                );
            }
            w.poll(Timestamp::from_secs(1))
                .iter()
                .filter_map(|r| r.outcome.timing().map(|t| t.end))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The completion timeline against what it replaced: an `EventQueue` of
    /// completions, emptied and refilled in pop order to drop a failed GPU's
    /// entries.
    mod event_queue_twin {
        use std::collections::VecDeque;

        use clockwork_sim::engine::EventQueue;
        use clockwork_sim::time::Timestamp;
        use proptest::prelude::*;

        use super::super::file_in_order;

        const GPUS: u32 = 3;

        #[derive(Clone, Copy, Debug)]
        enum Op {
            File { ms: u64, gpu: u32 },
            Pop,
            Peek,
            FailGpu { gpu: u32 },
        }

        fn op() -> impl Strategy<Value = Op> {
            // Six instants for up to 200 entries: most are ties.
            let file = || (0u64..6, 0..GPUS).prop_map(|(ms, gpu)| Op::File { ms, gpu });
            prop_oneof![
                file(),
                file(),
                Just(Op::Pop),
                Just(Op::Peek),
                (0..GPUS).prop_map(|gpu| Op::FailGpu { gpu }),
            ]
        }

        proptest! {
            /// Entries are `(gpu, filing number)`, so a pop names exactly
            /// which entry left.
            #[test]
            fn the_timeline_pops_and_keeps_what_the_event_queue_did(
                ops in proptest::collection::vec(op(), 0..200),
            ) {
                let mut timeline: VecDeque<(Timestamp, (u32, usize))> = VecDeque::new();
                let mut twin: EventQueue<(u32, usize)> = EventQueue::new();
                for (n, op) in ops.into_iter().enumerate() {
                    match op {
                        Op::File { ms, gpu } => {
                            let at = Timestamp::from_millis(ms);
                            file_in_order(&mut timeline, at, (gpu, n));
                            twin.push(at, (gpu, n));
                        }
                        Op::Pop => prop_assert_eq!(timeline.pop_front(), twin.pop()),
                        Op::Peek => {
                            let next = timeline.front().map(|&(at, _)| at);
                            prop_assert_eq!(next, twin.peek_time());
                        }
                        Op::FailGpu { gpu } => {
                            timeline.retain(|&(_, (g, _))| g != gpu);
                            let mut kept = Vec::new();
                            while let Some((at, entry)) = twin.pop() {
                                if entry.0 != gpu {
                                    kept.push((at, entry));
                                }
                            }
                            for (at, entry) in kept {
                                twin.push(at, entry);
                            }
                        }
                    }
                    prop_assert_eq!(timeline.len(), twin.len());
                }
                let rest: Vec<_> = std::iter::from_fn(|| twin.pop()).collect();
                prop_assert_eq!(Vec::from(timeline), rest);
            }
        }
    }
}
