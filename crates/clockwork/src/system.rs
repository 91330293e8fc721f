//! The serving system: controller + workers + network in one event loop.
//!
//! [`ServingSystem`] assembles a cluster from a [`SystemConfig`] and runs it
//! in virtual time. Requests enter either from
//! a pre-generated [`Trace`] (open-loop and Azure-like workloads) or from
//! interactive [`ClosedLoopClient`]s; actions and results travel over the
//! simulated network; workers execute them with the timing models of
//! `clockwork-sim`; and every response is folded into [`SystemTelemetry`].
//!
//! The event loop mirrors the deployment of the paper: clients, controller
//! and workers are distinct machines, every hop pays a network delay, and the
//! controller is the only component that makes decisions.

use std::sync::Arc;

use clockwork_controller::registry::{ClockworkFactory, SchedulerFactory};
use clockwork_controller::request::{InferenceRequest, RequestId, RequestOutcome, Response};
use clockwork_controller::scheduler::{Scheduler, SchedulerCtx, TickOutcome};
use clockwork_controller::worker_state::GpuRef;
use clockwork_controller::SchedProfile;
use clockwork_metrics::trace::{RingTracer, TraceEvent};
use clockwork_model::{ModelId, ModelSpec, ModelTable, Tier};
use clockwork_sim::engine::{EventQueue, FaultKind, TimerId};
use clockwork_sim::hash::{IdMap, IdSet};
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{
    Action, ActionKind, ActionOutcome, ActionResult, ExecMode, GpuId, Worker, WorkerConfig,
    WorkerId,
};
use clockwork_workload::{ClosedLoopClient, Trace};

use crate::config::SystemConfig;
use crate::telemetry::SystemTelemetry;

/// One-way delay of every message between two machines — client and
/// controller, controller and worker — and of a model upload, whatever its
/// size. The paper's testbed shares a 2×10 Gbps Ethernet network; 100 µs is
/// an assumed datacenter hop, not a figure from the paper. A link fault
/// ([`LinkState`]) scales it.
const NETWORK_LATENCY: Nanos = Nanos::from_micros(100);

enum SystemEvent {
    /// A request leaves a client (trace replay or closed-loop resubmission).
    ClientSubmit {
        model: ModelId,
        slo: Nanos,
        tier: Tier,
        client: Option<usize>,
    },
    /// The request reaches the controller.
    ControllerRequest { request: InferenceRequest },
    /// An action reaches a worker.
    WorkerAction { worker: usize, action: Action },
    /// A worker may have work to process at this time.
    WorkerWake { worker: usize },
    /// A result reaches the controller.
    ControllerResult { result: ActionResult },
    /// A response reaches the client that issued the request (`None` when
    /// no closed-loop client waits on it).
    ClientResponse { client: Option<usize> },
    /// A dynamically uploaded model's weights finish arriving at the workers
    /// (§5.1 "dynamic model loading over the network").
    ModelUpload { id: ModelId, spec: Arc<ModelSpec> },
    /// Periodic scheduler tick.
    SchedulerTick,
    /// A scheduled fleet fault fires.
    Fault { kind: FaultKind },
}

// Dense event-kind indices for the telemetry event-mix counters. Consts, so
// the sites that count events they never build (a whole trace's arrivals,
// the compiled fault plan) need no event in hand.
const KIND_CLIENT_SUBMIT: usize = 0;
const KIND_CONTROLLER_REQUEST: usize = 1;
const KIND_WORKER_ACTION: usize = 2;
const KIND_WORKER_WAKE: usize = 3;
const KIND_CONTROLLER_RESULT: usize = 4;
const KIND_CLIENT_RESPONSE: usize = 5;
const KIND_MODEL_UPLOAD: usize = 6;
const KIND_SCHEDULER_TICK: usize = 7;
const KIND_FAULT: usize = 8;

impl SystemEvent {
    /// Kind labels in `kind_index` order (the telemetry event-mix order).
    const KIND_LABELS: [&'static str; 9] = [
        "client_submit",
        "controller_request",
        "worker_action",
        "worker_wake",
        "controller_result",
        "client_response",
        "model_upload",
        "scheduler_tick",
        "fault",
    ];

    fn kind_index(&self) -> usize {
        match self {
            SystemEvent::ClientSubmit { .. } => KIND_CLIENT_SUBMIT,
            SystemEvent::ControllerRequest { .. } => KIND_CONTROLLER_REQUEST,
            SystemEvent::WorkerAction { .. } => KIND_WORKER_ACTION,
            SystemEvent::WorkerWake { .. } => KIND_WORKER_WAKE,
            SystemEvent::ControllerResult { .. } => KIND_CONTROLLER_RESULT,
            SystemEvent::ClientResponse { .. } => KIND_CLIENT_RESPONSE,
            SystemEvent::ModelUpload { .. } => KIND_MODEL_UPLOAD,
            SystemEvent::SchedulerTick => KIND_SCHEDULER_TICK,
            SystemEvent::Fault { .. } => KIND_FAULT,
        }
    }
}

/// Condition of one controller↔worker link, adjusted by fault events.
struct LinkState {
    /// Delay multiplier in thousandths (1000 = healthy).
    factor_milli: u64,
    /// Whether the link is partitioned. Partitioned messages are held, not
    /// lost: real networks buffer and retry, and losing them would break the
    /// exactly-once response accounting the controller maintains.
    partitioned: bool,
    /// Messages held during the partition, with the residual network delay
    /// they still owe once the partition heals.
    held: Vec<(Nanos, SystemEvent)>,
}

impl LinkState {
    fn healthy() -> Self {
        LinkState {
            factor_milli: 1000,
            partitioned: false,
            held: Vec::new(),
        }
    }

    /// Scales a base network delay by the link's degradation factor.
    fn scale(&self, base: Nanos) -> Nanos {
        if self.factor_milli == 1000 {
            base
        } else {
            Nanos::from_nanos(base.as_nanos().saturating_mul(self.factor_milli) / 1000)
        }
    }
}

/// A running serving cluster in virtual time.
pub struct ServingSystem {
    config: SystemConfig,
    scheduler: Box<dyn Scheduler>,
    /// The execution mode workers run with (resolved from the discipline's
    /// default and any [`SystemConfig::exec_mode`] override); workers that
    /// join at runtime are admitted with the same mode.
    exec_mode: ExecMode,
    ctx: SchedulerCtx,
    workers: Vec<Worker>,
    /// Each worker's wake timer: at most one `WorkerWake` per worker is
    /// pending, moved in place when the worker's next wakeup moves.
    worker_wakes: Vec<TimerId>,
    /// The scheduler tick's timer.
    tick: TimerId,
    queue: EventQueue<SystemEvent>,
    telemetry: SystemTelemetry,
    clients: Vec<ClosedLoopClient>,
    request_owner: IdMap<RequestId, usize>,
    /// Ids of in-flight best-effort requests. Strict requests (the default
    /// and the entire population of legacy scenarios) are never inserted,
    /// so the set stays empty and costs one lookup per response at most.
    best_effort: IdSet<RequestId>,
    /// The model catalog: the one table of registered models, shared by
    /// every worker ([`Worker::register_shared`]).
    models: Arc<ModelTable<Arc<ModelSpec>>>,
    /// Dense worker lookup by id, so routing an action is one hash probe
    /// instead of a scan over the fleet.
    worker_index: IdMap<WorkerId, usize>,
    /// Per-worker controller↔worker link condition (degradation/partition).
    links: Vec<LinkState>,
    /// Reusable buffers the scheduler outputs are drained into each pass.
    action_buf: Vec<(WorkerId, Action)>,
    response_buf: Vec<Response>,
    result_buf: Vec<ActionResult>,
    /// The lifecycle tracer, when [`SystemConfig::trace_capacity`] asked for
    /// one. `None` is the no-op path: no event is ever built and the run is
    /// byte-identical to an untraced build.
    tracer: Option<Box<RingTracer>>,
    /// Reusable drain buffer for scheduler-emitted trace events (only
    /// touched on traced runs).
    trace_buf: Vec<TraceEvent>,
    /// Request ids whose estimate-bearing `Rejected` span the scheduler
    /// emitted in the current drain pass; the facade skips its own
    /// estimate-free span for these so every rejection traces exactly once.
    sched_rejected: Vec<u64>,
    next_model_id: u32,
    next_request_id: u64,
    now: Timestamp,
}

impl ServingSystem {
    /// Creates a system from a configuration, with the default discipline
    /// (the Clockwork scheduler in its default configuration).
    pub fn new(config: SystemConfig) -> Self {
        ServingSystem::with_factory(config, &ClockworkFactory::default())
    }

    /// Creates a system from a configuration and a discipline factory. The
    /// workers' execution mode is the factory's default unless
    /// [`SystemConfig::exec_mode`] overrides it.
    pub fn with_factory(config: SystemConfig, factory: &dyn SchedulerFactory) -> Self {
        let exec_mode = config.exec_mode.unwrap_or(factory.default_exec_mode());
        ServingSystem::assemble(config, factory.build(), exec_mode)
    }

    /// Assembles the cluster around an already-built scheduler.
    fn assemble(
        config: SystemConfig,
        mut scheduler: Box<dyn Scheduler>,
        exec_mode: ExecMode,
    ) -> Self {
        let workers: Vec<Worker> = (0..config.workers)
            .map(|w| Self::new_worker(&config, exec_mode, w))
            .collect();
        for worker in &workers {
            Self::announce_gpus(scheduler.as_mut(), worker);
        }
        let mut telemetry = SystemTelemetry::new(config.keep_responses);
        telemetry.event_mix = crate::telemetry::EventMix::with_kinds(&SystemEvent::KIND_LABELS);
        let worker_count = workers.len();
        let worker_index = workers
            .iter()
            .enumerate()
            .map(|(i, w)| (w.id(), i))
            .collect();
        // Compile the fault plan into simulation events up front; the plan
        // is sorted, and same-time faults keep their plan order.
        let mut queue = EventQueue::new();
        for event in config.faults.events() {
            telemetry.event_mix.note_pushed(KIND_FAULT);
            queue.push(event.at, SystemEvent::Fault { kind: event.kind });
        }
        let worker_wakes = (0..worker_count).map(|_| queue.add_timer()).collect();
        let tick = queue.add_timer();
        let tracer = config
            .trace_capacity
            .map(|cap| Box::new(RingTracer::new(cap)));
        let mut ctx = SchedulerCtx::new();
        ctx.set_tracing(tracer.is_some());
        ServingSystem {
            scheduler,
            exec_mode,
            ctx,
            workers,
            worker_wakes,
            tick,
            queue,
            telemetry,
            clients: Vec::new(),
            request_owner: IdMap::default(),
            best_effort: IdSet::default(),
            models: Arc::default(),
            worker_index,
            links: (0..worker_count).map(|_| LinkState::healthy()).collect(),
            action_buf: Vec::new(),
            response_buf: Vec::new(),
            result_buf: Vec::new(),
            tracer,
            trace_buf: Vec::new(),
            sched_rejected: Vec::new(),
            next_model_id: 0,
            next_request_id: 0,
            now: Timestamp::ZERO,
            config,
        }
    }

    /// Builds worker `id` with the cluster's GPU shape and execution mode:
    /// cold, empty, and seeded from its fleet index.
    fn new_worker(config: &SystemConfig, exec_mode: ExecMode, id: u32) -> Worker {
        Worker::new(
            WorkerConfig::new(WorkerId(id))
                .with_gpus(config.gpus_per_worker)
                .with_exec_mode(exec_mode)
                .with_variance(config.variance)
                .with_weights_cache(config.weights_cache_bytes)
                .with_seed(config.seed ^ (u64::from(id) << 16)),
        )
    }

    /// Announces every GPU of `worker` to the scheduler as schedulable
    /// capacity.
    fn announce_gpus(scheduler: &mut dyn Scheduler, worker: &Worker) {
        for g in 0..worker.num_gpus() {
            scheduler.add_gpu(
                GpuRef {
                    worker: worker.id(),
                    gpu: GpuId(g),
                },
                worker.total_pages(GpuId(g)),
                worker.config().page_size,
            );
        }
    }

    /// The configuration of this system.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The telemetry collected so far.
    pub fn telemetry(&self) -> &SystemTelemetry {
        &self.telemetry
    }

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Read access to the workers (for utilization reporting).
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// The configured discipline's name (e.g. `"clockwork"`, `"clipper"`),
    /// as reported by [`Scheduler::name`].
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// The execution mode the workers run with.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// The scheduler's self-profiling counters with the tick counts folded
    /// in: the scheduler reports what its passes scanned and recomputed; the
    /// event mix counts every delivered tick, and the ones whose
    /// [`TickOutcome`] was `Skipped` (which also covers disciplines without
    /// an incremental core).
    pub fn sched_profile(&self) -> SchedProfile {
        let mix = self.telemetry.event_mix();
        let skipped = mix.noop_ticks();
        SchedProfile {
            ticks_full: mix.entries()[KIND_SCHEDULER_TICK].delivered - skipped,
            ticks_skipped: skipped,
            ..self.scheduler.sched_profile()
        }
    }

    /// The lifecycle tracer, when this run was assembled with
    /// [`SystemConfig::trace_capacity`] set. Experiments read the recorded
    /// spans, JSONL export and drop counter through this.
    pub fn tracer(&self) -> Option<&RingTracer> {
        self.tracer.as_deref()
    }

    /// Records one lifecycle span at the current virtual time. A single
    /// `Option` branch when tracing is off — every emission site that must
    /// *build* something (clone a member list, walk a log) additionally
    /// guards on `self.tracer.is_some()` so the untraced path allocates
    /// nothing.
    #[inline]
    fn trace(&mut self, event: TraceEvent) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.record(self.now.as_nanos(), event);
        }
    }

    /// Emits the issue-side spans of an action leaving the controller:
    /// `BatchFormed` + `InferIssued` for INFERs, `LoadIssued` for LOADs.
    /// Only called on traced runs.
    fn trace_action_issue(&mut self, worker: WorkerId, action: &Action) {
        match &action.kind {
            ActionKind::Infer {
                model,
                batch,
                request_ids,
            } => {
                self.trace(TraceEvent::BatchFormed {
                    action: action.id.0,
                    model: model.0,
                    worker: worker.0,
                    gpu: action.gpu.0,
                    size: *batch,
                    members: request_ids.clone(),
                });
                self.trace(TraceEvent::InferIssued {
                    action: action.id.0,
                    model: model.0,
                    worker: worker.0,
                    gpu: action.gpu.0,
                    batch: *batch,
                    est: action.expected_duration.as_nanos(),
                });
            }
            ActionKind::Load { model } => {
                self.trace(TraceEvent::LoadIssued {
                    action: action.id.0,
                    model: model.0,
                    worker: worker.0,
                    gpu: action.gpu.0,
                    est: action.expected_duration.as_nanos(),
                });
            }
            ActionKind::Unload { .. } => {}
        }
    }

    /// Emits the completion-side span of a worker result reaching the
    /// controller (`InferDone`/`LoadDone` with the est-vs-actual pair).
    /// Only called on traced runs.
    fn trace_result(&mut self, result: &ActionResult) {
        let (actual, start, end, ok) = match &result.outcome {
            ActionOutcome::Success(t) => (
                t.device_duration.as_nanos(),
                t.start.as_nanos(),
                t.end.as_nanos(),
                true,
            ),
            ActionOutcome::Error { .. } => (0, 0, 0, false),
        };
        match result.action_type {
            "INFER" => self.trace(TraceEvent::InferDone {
                action: result.action_id.0,
                model: result.model.0,
                worker: result.worker.0,
                gpu: result.gpu.0,
                batch: result.batch,
                est: result.expected_duration.as_nanos(),
                actual,
                start,
                end,
                ok,
            }),
            "LOAD" => self.trace(TraceEvent::LoadDone {
                action: result.action_id.0,
                model: result.model.0,
                worker: result.worker.0,
                gpu: result.gpu.0,
                est: result.expected_duration.as_nanos(),
                actual,
                end,
                cold: true,
                ok,
            }),
            _ => {}
        }
    }

    /// Emits the terminal span of a response leaving the controller:
    /// `Completed`/`DeadlineMissed` for successes, `Rejected` for rejections
    /// the scheduler did not already trace with an estimate. Only called on
    /// traced runs.
    fn trace_response(&mut self, response: &Response) {
        match response.outcome {
            RequestOutcome::Success {
                completed,
                batch,
                worker,
                gpu,
                cold_start,
            } => {
                let request = response.request.0;
                let model = response.model.0;
                let arrival = response.arrival.as_nanos();
                let completed = completed.as_nanos();
                let deadline = response.deadline.as_nanos();
                let event = if response.met_slo() {
                    TraceEvent::Completed {
                        request,
                        model,
                        arrival,
                        completed,
                        deadline,
                        batch,
                        worker: worker.0,
                        gpu: gpu.0,
                        cold: cold_start,
                    }
                } else {
                    TraceEvent::DeadlineMissed {
                        request,
                        model,
                        arrival,
                        completed,
                        deadline,
                        batch,
                        worker: worker.0,
                        gpu: gpu.0,
                        cold: cold_start,
                    }
                };
                self.trace(event);
            }
            RequestOutcome::Rejected { reason, .. } => {
                if self.sched_rejected.contains(&response.request.0) {
                    return;
                }
                self.trace(TraceEvent::Rejected {
                    request: response.request.0,
                    model: response.model.0,
                    reason: reason.as_str(),
                    estimate: 0,
                });
            }
        }
    }

    /// Emits one `MemberDone` span per request a successful INFER served,
    /// as the worker hands its result over — at the INFER's completion.
    /// Only called on traced runs.
    fn trace_members(&mut self, result: &ActionResult) {
        let (ActionOutcome::Success(timing), "INFER") = (&result.outcome, result.action_type)
        else {
            return;
        };
        for &request in &result.request_ids {
            self.trace(TraceEvent::MemberDone {
                request,
                model: result.model.0,
                batch: result.batch,
                completed: timing.end.as_nanos(),
            });
        }
    }

    /// Registers one model instance and returns its id.
    pub fn register_model(&mut self, spec: &ModelSpec) -> ModelId {
        self.register_shared([Arc::new(spec.clone())])[0]
    }

    /// Registers one instance per spec, in order, and returns their ids.
    /// Instances may share a spec, so a thousand copies of a model hold one
    /// spec, not a thousand.
    pub(crate) fn register_shared(
        &mut self,
        specs: impl IntoIterator<Item = Arc<ModelSpec>>,
    ) -> Vec<ModelId> {
        let added: Vec<(ModelId, Arc<ModelSpec>)> = specs
            .into_iter()
            .map(|spec| {
                let id = ModelId(self.next_model_id);
                self.next_model_id += 1;
                (id, spec)
            })
            .collect();
        self.install_models(&added);
        added.into_iter().map(|(id, _)| id).collect()
    }

    /// Uploads a model at a virtual time while the system is running (§5.1
    /// "dynamic model loading over the network").
    ///
    /// The weights land at the controller and the worker fleet one network
    /// hop (100 µs) after `at`, whatever their size, and the model only
    /// becomes servable then; requests that reach the controller earlier
    /// are rejected as unknown, exactly as they would be against a real
    /// deployment that has not finished the upload. Returns the id the
    /// model will be servable under.
    pub fn upload_model(&mut self, at: Timestamp, spec: &ModelSpec) -> ModelId {
        let id = ModelId(self.next_model_id);
        self.next_model_id += 1;
        let spec = Arc::new(spec.clone());
        self.push_event(at + NETWORK_LATENCY, SystemEvent::ModelUpload { id, spec });
        id
    }

    /// Makes models known to every worker (host memory), the scheduler and
    /// the telemetry layer. Shared by start-of-run registration and runtime
    /// uploads. The workers let go of the catalog first, so it grows in place
    /// rather than being copied, and then share the grown table again. The
    /// added weights are summed once for the whole fleet.
    fn install_models(&mut self, added: &[(ModelId, Arc<ModelSpec>)]) {
        for worker in &mut self.workers {
            worker.release_models();
        }
        let catalog = Arc::make_mut(&mut self.models);
        let mut added_bytes = 0;
        for (id, spec) in added {
            catalog.insert(*id, Arc::clone(spec));
            added_bytes += spec.weights_bytes();
        }
        for worker in &mut self.workers {
            worker
                .register_shared(&self.models, added.iter().map(|(id, _)| *id), added_bytes)
                .expect("host memory exhausted while registering models");
        }
        let pcie = &self.workers[0].config().pcie;
        for (id, spec) in added {
            let load_seed = spec.weights_transfer_duration(pcie);
            self.scheduler.add_model(*id, Arc::clone(spec), load_seed);
        }
    }

    /// Registers `copies` instances of the same model (the paper's
    /// experiments duplicate one model many times) and returns their ids.
    pub fn register_copies(&mut self, spec: &ModelSpec, copies: usize) -> Vec<ModelId> {
        self.register_shared(std::iter::repeat_n(Arc::new(spec.clone()), copies))
    }

    /// Submits every request of a trace.
    ///
    /// The arrivals are counted as scheduled from this call on
    /// ([`ServingSystem::pending_events`], the event mix), but they stay in
    /// the trace — shared with the caller's, not copied — as a sorted run
    /// beside the event heap, and a cursor over the trace ([`Trace::iter`])
    /// decodes each into an event only when it is next to be delivered. A
    /// generated trace's cursor draws each time segment when it reaches
    /// it, so the run holds one segment's keys, not the trace's. Delivery
    /// order and every counter are exactly those of pushing each arrival as
    /// its own event here, in trace order.
    pub fn submit_trace(&mut self, trace: &Trace) {
        self.telemetry
            .event_mix
            .note_pushed_n(KIND_CLIENT_SUBMIT, trace.len() as u64);
        self.queue.push_run(trace.iter().map(|event| {
            (
                event.at,
                SystemEvent::ClientSubmit {
                    model: event.model,
                    slo: event.slo,
                    tier: event.tier,
                    client: None,
                },
            )
        }));
    }

    /// Adds a closed-loop client; its initial requests are submitted at
    /// `start`.
    pub fn add_closed_loop_client(&mut self, mut client: ClosedLoopClient, start: Timestamp) {
        let submissions = client.initial_submissions(start);
        let index = self.clients.len();
        self.clients.push(client);
        for (at, model, slo) in submissions {
            self.push_event(
                at,
                SystemEvent::ClientSubmit {
                    model,
                    slo,
                    tier: Tier::Strict,
                    client: Some(index),
                },
            );
        }
    }

    /// Submits a single request at a given time (convenience for examples).
    pub fn submit_request(&mut self, at: Timestamp, model: ModelId, slo: Nanos) {
        self.push_event(
            at,
            SystemEvent::ClientSubmit {
                model,
                slo,
                tier: Tier::Strict,
                client: None,
            },
        );
    }

    /// Schedules an event and counts the push in the telemetry event mix.
    /// Every push goes through here so the mix stays conservation-complete
    /// (`pushed == delivered + cancelled + live`).
    fn push_event(&mut self, at: Timestamp, event: SystemEvent) {
        self.telemetry.event_mix.note_pushed(event.kind_index());
        self.queue.push(at, event);
    }

    /// Reconciles `timer` with when its event is now `wanted`: `keep`
    /// decides from (armed time, wanted time) whether the pending event
    /// still serves; one that does not is disarmed — never left to fire as
    /// a no-op — or re-armed at the wanted time. The event mix counts what
    /// the queue counts: re-arming an armed timer is one cancellation and
    /// one push.
    fn reschedule(
        &mut self,
        timer: TimerId,
        wanted: Option<Timestamp>,
        keep: impl Fn(Timestamp, Timestamp) -> bool,
        event: SystemEvent,
    ) {
        let armed = self.queue.timer_due(timer);
        if let (Some(at), Some(due)) = (armed, wanted) {
            if keep(at, due) {
                return;
            }
        }
        let kind = event.kind_index();
        if armed.is_some() {
            self.telemetry.event_mix.note_cancelled(kind);
        }
        match wanted {
            Some(due) => {
                self.telemetry.event_mix.note_pushed(kind);
                self.queue.arm(timer, due, event);
            }
            None => {
                self.queue.disarm(timer);
            }
        }
    }

    /// Points a worker's wake timer at the worker's current `next_wakeup`.
    ///
    /// The timer holds the worker's one pending `WorkerWake`. An unchanged
    /// wakeup leaves it alone; one that moved — earlier because new work
    /// arrived, later or away because work was consumed or lost to a fault —
    /// re-arms or disarms it, so a wake is delivered only when the worker
    /// asked for one at that instant.
    fn schedule_worker_wake(&mut self, worker: usize) {
        let wanted = self.workers[worker].next_wakeup().map(|w| w.max(self.now));
        self.reschedule(
            self.worker_wakes[worker],
            wanted,
            |at, due| at == due,
            SystemEvent::WorkerWake { worker },
        );
    }

    /// Points the tick timer at the scheduler's `next_tick`.
    ///
    /// Unlike wakes, a tick never needs to move later: an incremental
    /// scheduler may answer with a *later* grid point after new work
    /// settled, but the already-armed earlier tick is kept — it lands on
    /// the same tick grid and at worst early-outs (an O(1) skipped tick the
    /// telemetry counts). The timer is disarmed outright when the scheduler
    /// reports quiescence (`next_tick` of `None`).
    fn schedule_tick(&mut self) {
        let wanted = self.scheduler.next_tick(self.now);
        self.reschedule(
            self.tick,
            wanted,
            |at, tick| at <= tick,
            SystemEvent::SchedulerTick,
        );
    }

    /// Sends `event` over the controller↔worker link of `worker`: one
    /// network hop scaled by the link's condition, and held rather than
    /// delivered while the link is partitioned.
    fn send_over_link(&mut self, worker: usize, event: SystemEvent) {
        let delay = self.links[worker].scale(NETWORK_LATENCY);
        if self.tracer.is_some() && delay != NETWORK_LATENCY {
            self.trace(TraceEvent::LinkDelay {
                worker: self.workers[worker].id().0,
                base: NETWORK_LATENCY.as_nanos(),
                actual: delay.as_nanos(),
            });
        }
        if self.links[worker].partitioned {
            self.links[worker].held.push((delay, event));
        } else {
            let at = self.now + delay;
            self.push_event(at, event);
        }
    }

    /// Drains scheduler outputs: actions go to workers (over the network),
    /// responses go back to clients (over the network). The drain buffers are
    /// reused across calls so the steady-state loop allocates nothing here.
    fn drain_ctx(&mut self) {
        if self.tracer.is_some() {
            // The scheduler's own spans drain first: they were decided
            // before the actions/responses below, and any estimate-bearing
            // `Rejected` among them suppresses the facade's estimate-free
            // duplicate for the same request in this pass.
            let mut events = std::mem::take(&mut self.trace_buf);
            self.ctx.drain_trace_into(&mut events);
            self.sched_rejected.clear();
            for event in events.drain(..) {
                if let TraceEvent::Rejected { request, .. } = &event {
                    self.sched_rejected.push(*request);
                }
                self.trace(event);
            }
            self.trace_buf = events;
        }
        let mut actions = std::mem::take(&mut self.action_buf);
        self.ctx.drain_actions_into(&mut actions);
        for (worker_id, action) in actions.drain(..) {
            // A scheduler emitting an action for a worker that does not exist
            // is a routing bug; silently falling back to worker 0 would let
            // it masquerade as worker-0 load.
            let worker_index = self
                .worker_index
                .get(&worker_id)
                .copied()
                .unwrap_or_else(|| {
                    panic!(
                        "scheduler routed action {:?} to unknown {worker_id}",
                        action.id
                    )
                });
            if self.tracer.is_some() {
                self.trace_action_issue(worker_id, &action);
            }
            let event = SystemEvent::WorkerAction {
                worker: worker_index,
                action,
            };
            self.send_over_link(worker_index, event);
        }
        self.action_buf = actions;
        let mut responses = std::mem::take(&mut self.response_buf);
        self.ctx.drain_responses_into(&mut responses);
        for response in responses.drain(..) {
            let tier = if self.best_effort.is_empty() || !self.best_effort.remove(&response.request)
            {
                Tier::Strict
            } else {
                Tier::BestEffort
            };
            self.telemetry.record_response_with_tier(&response, tier);
            if self.tracer.is_some() {
                self.trace_response(&response);
            }
            let client = if self.request_owner.is_empty() {
                None
            } else {
                self.request_owner.remove(&response.request)
            };
            let at = self.now + NETWORK_LATENCY;
            self.push_event(at, SystemEvent::ClientResponse { client });
        }
        self.response_buf = responses;
        self.schedule_tick();
    }

    fn handle_event(&mut self, event: SystemEvent) {
        match event {
            SystemEvent::ClientSubmit {
                model,
                slo,
                tier,
                client,
            } => {
                let id = RequestId(self.next_request_id);
                self.next_request_id += 1;
                if let Some(client) = client {
                    self.request_owner.insert(id, client);
                }
                if tier != Tier::Strict {
                    // Tier is recovered at response time from this set; only
                    // best-effort ids are stored so all-strict runs never
                    // touch it.
                    self.best_effort.insert(id);
                }
                let at_controller = self.now + NETWORK_LATENCY;
                let request = InferenceRequest {
                    id,
                    model,
                    arrival: at_controller,
                    slo,
                    tier,
                };
                self.push_event(at_controller, SystemEvent::ControllerRequest { request });
            }
            SystemEvent::ControllerRequest { request } => {
                self.telemetry.record_arrival(self.now, request.tier);
                if self.tracer.is_some() {
                    self.trace(TraceEvent::Enqueued {
                        request: request.id.0,
                        model: request.model.0,
                        deadline: request.deadline().as_nanos(),
                    });
                }
                self.scheduler.on_request(self.now, request, &mut self.ctx);
                self.drain_ctx();
            }
            SystemEvent::WorkerAction { worker, action } => {
                self.workers[worker].submit(self.now, action);
                self.schedule_worker_wake(worker);
            }
            SystemEvent::WorkerWake { worker } => {
                let mut results = std::mem::take(&mut self.result_buf);
                results.clear();
                let steps = self.workers[worker].poll_into(self.now, &mut results);
                if steps == 0 {
                    self.telemetry.event_mix.note_noop_wake();
                }
                for result in results.drain(..) {
                    if self.tracer.is_some() {
                        self.trace_members(&result);
                    }
                    self.send_over_link(worker, SystemEvent::ControllerResult { result });
                }
                self.result_buf = results;
                self.schedule_worker_wake(worker);
            }
            SystemEvent::ControllerResult { result } => {
                if self.tracer.is_some() {
                    self.trace_result(&result);
                }
                self.scheduler.on_result(self.now, &result, &mut self.ctx);
                self.drain_ctx();
            }
            SystemEvent::ClientResponse { client } => {
                if let Some(index) = client {
                    if let Some((at, model, slo)) = self.clients[index].on_response(self.now) {
                        self.push_event(
                            at,
                            SystemEvent::ClientSubmit {
                                model,
                                slo,
                                tier: Tier::Strict,
                                client: Some(index),
                            },
                        );
                    }
                }
            }
            SystemEvent::ModelUpload { id, spec } => {
                self.install_models(&[(id, spec)]);
            }
            SystemEvent::SchedulerTick => {
                let outcome = self.scheduler.on_tick(self.now, &mut self.ctx);
                if outcome == TickOutcome::Skipped {
                    self.telemetry.event_mix.note_noop_tick();
                }
                self.drain_ctx();
            }
            SystemEvent::Fault { kind } => {
                self.apply_fault(kind);
            }
        }
    }

    /// Applies one fault atomically to the worker fleet, the transport layer
    /// and the controller, and folds it into the telemetry digest. Faults
    /// naming a worker or GPU that does not exist are ignored, as is a
    /// `WorkerJoin` naming a fleet index that already exists.
    fn apply_fault(&mut self, kind: FaultKind) {
        if let FaultKind::WorkerJoin { worker } = kind {
            if !self.admit_worker(worker) {
                return;
            }
            self.finish_fault(kind);
            return;
        }
        let Some(&idx) = self.worker_index.get(&WorkerId(kind.worker())) else {
            return;
        };
        match kind {
            FaultKind::WorkerCrash { .. } => {
                self.workers[idx].crash(self.now);
                // The dead worker will never act again: its pending wake (if
                // any) is disarmed rather than left to fire as a no-op.
                self.schedule_worker_wake(idx);
            }
            FaultKind::WorkerRestart { .. } => {
                self.workers[idx].restart(self.now);
                self.schedule_worker_wake(idx);
            }
            FaultKind::GpuFail { gpu, .. } => {
                if gpu >= self.workers[idx].num_gpus() {
                    return;
                }
                self.workers[idx].fail_gpu(GpuId(gpu));
                // The failure took that GPU's queued work and completions
                // with it; the worker's wake moves later or goes away.
                self.schedule_worker_wake(idx);
            }
            FaultKind::GpuRecover { gpu, .. } => {
                if gpu >= self.workers[idx].num_gpus() {
                    return;
                }
                self.workers[idx].recover_gpu(GpuId(gpu));
                self.schedule_worker_wake(idx);
            }
            FaultKind::LinkDegrade { factor_milli, .. } => {
                self.links[idx].factor_milli = u64::from(factor_milli).max(1);
            }
            FaultKind::LinkRestore { .. } => self.links[idx].factor_milli = 1000,
            FaultKind::PartitionStart { .. } => self.links[idx].partitioned = true,
            FaultKind::PartitionEnd { .. } => {
                self.links[idx].partitioned = false;
                // Held messages were already on the wire; they pay their
                // residual delay from the heal instant.
                let held = std::mem::take(&mut self.links[idx].held);
                for (delay, event) in held {
                    let at = self.now + delay;
                    self.push_event(at, event);
                }
            }
            FaultKind::WorkerJoin { .. } => unreachable!("handled above"),
        }
        self.finish_fault(kind);
    }

    /// The tail every applied fault shares: fold it into the telemetry
    /// digest with the post-fault availability, let the scheduler react, and
    /// drain whatever it emitted.
    fn finish_fault(&mut self, kind: FaultKind) {
        let (alive, total) = self.gpu_availability();
        self.telemetry.record_fault(self.now, &kind, alive, total);
        self.scheduler.on_fault(self.now, &kind, &mut self.ctx);
        self.drain_ctx();
    }

    /// Admits a brand-new cold worker at runtime (elastic scale-up): builds
    /// the machine with the cluster's GPU shape and execution mode, registers
    /// every known model in its host memory, announces its GPUs to the
    /// scheduler, and wires up its link and wake bookkeeping. Returns `false`
    /// — admitting nothing — when the fleet index is already occupied.
    fn admit_worker(&mut self, worker: u32) -> bool {
        let id = WorkerId(worker);
        if self.worker_index.contains_key(&id) {
            return false;
        }
        let mut joined = Self::new_worker(&self.config, self.exec_mode, worker);
        // Known models land in the newcomer's host memory in id order — the
        // registration order is part of the deterministic execution.
        let catalog_bytes = self.models.values().map(|spec| spec.weights_bytes()).sum();
        joined
            .register_shared(
                &self.models,
                self.models.iter().map(|(model, _)| model),
                catalog_bytes,
            )
            .expect("host memory exhausted while admitting a joined worker");
        Self::announce_gpus(self.scheduler.as_mut(), &joined);
        let index = self.workers.len();
        self.workers.push(joined);
        self.worker_index.insert(id, index);
        self.worker_wakes.push(self.queue.add_timer());
        self.links.push(LinkState::healthy());
        true
    }

    /// `(alive, total)` GPU counts across the fleet — the availability that
    /// fault telemetry records per event.
    pub fn gpu_availability(&self) -> (u32, u32) {
        let mut alive = 0;
        let mut total = 0;
        for worker in &self.workers {
            total += worker.num_gpus();
            alive += worker.alive_gpus();
        }
        (alive, total)
    }

    /// Total number of simulation events delivered so far (a wall-clock-free
    /// measure of how much work a run performed; perf harnesses divide it by
    /// elapsed host time to get events/sec).
    pub fn events_processed(&self) -> u64 {
        self.queue.delivered_total()
    }

    /// Number of events still scheduled (pushed but neither delivered nor
    /// cancelled) — the `live` term of the event-mix conservation identity.
    pub fn pending_events(&self) -> u64 {
        self.queue.len() as u64
    }

    /// How many of the pending events are physically in the event heap
    /// (cancelled entries not yet discarded included): the one-shot events
    /// in flight — messages, faults, uploads, closed-loop submissions — as
    /// opposed to trace arrivals still waiting in their sorted run and the
    /// wake and tick timers.
    pub fn heap_len(&self) -> usize {
        self.queue.heap_len()
    }

    /// The event queue's own lifetime counters `(pushed, delivered,
    /// cancelled)`, independent of the per-kind telemetry mix. Tests use
    /// these to pin that the mix accounts for every push site.
    pub fn queue_counters(&self) -> (u64, u64, u64) {
        (
            self.queue.pushed_total(),
            self.queue.delivered_total(),
            self.queue.cancelled_total(),
        )
    }

    /// Runs the system until `until`, or until no events remain.
    pub fn run_until(&mut self, until: Timestamp) {
        self.run_until_events(until, u64::MAX);
    }

    /// Runs the system until `until`, until no events remain, or until
    /// `max_events` further events have been delivered — whichever comes
    /// first. The event cap gives perf harnesses a fixed-work smoke mode
    /// whose cost does not drift as scheduling behaviour evolves.
    pub fn run_until_events(&mut self, until: Timestamp, max_events: u64) {
        let mut budget = max_events;
        while budget > 0 {
            let Some((t, event)) = self.queue.pop_due(until) else {
                break;
            };
            if t > self.now {
                self.now = t;
            }
            budget -= 1;
            self.telemetry.event_mix.note_delivered(event.kind_index());
            self.handle_event(event);
        }
        let drained = self.queue.peek_time().map(|t| t > until).unwrap_or(true);
        if drained && until > self.now && until != Timestamp::MAX {
            self.now = until;
        }
    }

    /// Runs until every event has been processed (all trace requests answered
    /// and all actions completed). Closed-loop clients keep resubmitting
    /// forever, so systems with closed-loop clients should use
    /// [`ServingSystem::run_until`] instead.
    pub fn run_to_completion(&mut self) {
        self.run_until(Timestamp::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_model::zoo::ModelZoo;
    use clockwork_sim::rng::SimRng;
    use clockwork_workload::OpenLoopClient;

    #[test]
    fn single_request_round_trip() {
        let zoo = ModelZoo::new();
        let mut system = ServingSystem::new(SystemConfig::default());
        let model = system.register_model(zoo.resnet50());
        system.submit_request(Timestamp::ZERO, model, Nanos::from_millis(100));
        system.run_to_completion();
        let m = system.telemetry().metrics();
        assert_eq!(m.total_requests, 1);
        assert_eq!(m.successes, 1);
        assert_eq!(m.goodput, 1);
        assert_eq!(m.cold_starts, 1, "first request is a cold start");
        // Cold start: load (~8.3 ms) + exec (~2.6 ms) + network.
        let latency = m.latency.max().as_millis_f64();
        assert!(latency > 10.0 && latency < 20.0, "latency {latency} ms");
    }

    #[test]
    fn warm_requests_meet_tight_slos() {
        let zoo = ModelZoo::new();
        let mut system = ServingSystem::new(SystemConfig {
            seed: 7,
            ..Default::default()
        });
        let model = system.register_model(zoo.resnet50());
        // Warm up.
        system.submit_request(Timestamp::ZERO, model, Nanos::from_millis(100));
        // Steady warm requests every 10 ms with a 10 ms SLO.
        for i in 1..100u64 {
            system.submit_request(
                Timestamp::from_millis(50 + i * 10),
                model,
                Nanos::from_millis(10),
            );
        }
        system.run_to_completion();
        let m = system.telemetry().metrics();
        assert_eq!(m.total_requests, 100);
        assert!(
            m.goodput >= 99,
            "warm requests should meet 10 ms SLOs: goodput {}",
            m.goodput
        );
    }

    #[test]
    fn open_loop_workload_on_multiple_models() {
        let zoo = ModelZoo::new();
        let mut system = ServingSystem::new(SystemConfig {
            seed: 11,
            ..Default::default()
        });
        let models = system.register_copies(zoo.resnet50(), 4);
        let trace = OpenLoopClient::generate_many(
            &models,
            50.0,
            Nanos::from_millis(100),
            Nanos::from_secs(2),
            &mut SimRng::seeded(3),
        );
        let expected = trace.len() as u64;
        system.submit_trace(&trace);
        system.run_to_completion();
        let m = system.telemetry().metrics();
        assert_eq!(m.total_requests, expected);
        assert!(
            m.satisfaction() > 0.95,
            "satisfaction {} with {} requests",
            m.satisfaction(),
            expected
        );
    }

    #[test]
    fn closed_loop_clients_sustain_throughput() {
        let zoo = ModelZoo::new();
        let mut system = ServingSystem::new(SystemConfig {
            seed: 13,
            ..Default::default()
        });
        let model = system.register_model(zoo.resnet50());
        system.add_closed_loop_client(
            ClosedLoopClient::new(model, 8, Nanos::from_millis(250)),
            Timestamp::ZERO,
        );
        system.run_until(Timestamp::from_secs(2));
        let m = system.telemetry().metrics();
        // Batch-8 ResNet50 sustains several hundred requests per second.
        assert!(
            m.throughput_rate() > 300.0,
            "throughput {}",
            m.throughput_rate()
        );
        assert!(m.successes > 500);
    }

    #[test]
    fn fifo_ablation_serves_but_with_less_goodput_under_load() {
        use clockwork_controller::registry::FifoFactory;
        let zoo = ModelZoo::new();
        let run = |factory: &dyn SchedulerFactory| {
            let config = SystemConfig {
                seed: 17,
                ..Default::default()
            };
            let mut system = ServingSystem::with_factory(config, factory);
            let models = system.register_copies(zoo.resnet50(), 4);
            let trace = OpenLoopClient::generate_many(
                &models,
                120.0,
                Nanos::from_millis(50),
                Nanos::from_secs(2),
                &mut SimRng::seeded(5),
            );
            system.submit_trace(&trace);
            system.run_until(Timestamp::from_secs(4));
            system.telemetry().metrics()
        };
        let clockwork = run(&ClockworkFactory::default());
        let fifo = run(&FifoFactory);
        assert!(clockwork.satisfaction() >= fifo.satisfaction());
        assert!(fifo.successes > 0, "fifo still serves requests");
    }

    #[test]
    fn multi_worker_clusters_scale_throughput() {
        let zoo = ModelZoo::new();
        let run = |workers: u32| {
            let mut system = ServingSystem::new(SystemConfig {
                workers,
                seed: 19,
                ..Default::default()
            });
            let models = system.register_copies(zoo.resnet50(), workers as usize * 2);
            for (i, m) in models.iter().enumerate() {
                system.add_closed_loop_client(
                    ClosedLoopClient::new(*m, 8, Nanos::from_millis(500)),
                    Timestamp::from_millis(i as u64),
                );
            }
            system.run_until(Timestamp::from_secs(2));
            system.telemetry().metrics().throughput_rate()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four > one * 2.0,
            "4 workers ({four} r/s) should beat 1 worker ({one} r/s) by >2x"
        );
    }
}
