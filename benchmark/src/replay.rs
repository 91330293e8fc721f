//! Isolated per-layer replays: each layer's public API driven standalone by
//! the benchmark, with the workload's own cluster shape, request stream and
//! operation counts. Every replay makes one untimed warm-up pass first.

use std::collections::VecDeque;
use std::sync::Arc;

use clockwork::prelude::*;
use clockwork::SystemTelemetry;
use clockwork_controller::scheduler::SchedulerCtx;
use clockwork_controller::worker_state::GpuRef;
use clockwork_controller::{RequestOutcome, Response};
use clockwork_metrics::LatencyHistogram;
use clockwork_shard::{ShardAssignment, ShardedSpec};
use clockwork_sim::engine::{EventId, EventQueue};
use clockwork_worker::worker::make_action;
use clockwork_worker::{
    Action, ActionKind, ActionOutcome, ActionResult, ActionTiming, GpuId, PageCache, TimeWindow,
    Worker,
};

use crate::run::Observed;
use crate::stats::{current_rss_kb, median, Clock, PerCall, Samples, BLOCK};
use crate::workloads::Workload;

/// Median host microseconds of `f` over 21 calls.
pub fn median_us<T>(clock: &Clock, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..21)
        .map(|_| {
            let (out, ns) = clock.time(&mut f);
            std::hint::black_box(out);
            ns / 1e3
        })
        .collect();
    median(&mut samples)
}

// ---------------------------------------------------------------- sim

/// `EventQueue` push/pop/cancel cost on the workload's own schedule.
#[derive(Default)]
pub struct Eventq {
    pub push: PerCall,
    pub pop: PerCall,
    pub cancel: PerCall,
}

/// About the size of the facade's private `SystemEvent`, so heap sifts move
/// as many bytes as they do in the real loop.
type Payload = [u64; 15];

/// Replays the event queue's share of a run: the queue is pre-filled with
/// the workload's arrival schedule (what `submit_trace` does), then drained
/// in rounds of pops (`peek_time` + `pop`, as in the facade's loop), each
/// round followed by the follow-up pushes and the cancels the workload's
/// event mix makes per delivered event. Follow-ups land 50 us to 5 ms ahead,
/// the range of the network delays and action durations that schedule the
/// real ones; a cancelled event is cancelled in the round that pushed it,
/// like a superseded wake or tick.
pub fn eventq(clock: &Clock, trace: &Trace, observed: &Observed, seed: u64) -> Eventq {
    const ROUND: usize = 4 * BLOCK;
    let delivered = observed.events_delivered.max(1) as f64;
    let pushes_per_pop =
        observed.events_pushed.saturating_sub(trace.len() as u64) as f64 / delivered;
    let cancels_per_pop = observed.events_cancelled as f64 / delivered;
    let rounds = observed.events_delivered as usize / ROUND;

    let mut rng = SimRng::seeded(seed);
    let mut queue: EventQueue<Payload> = EventQueue::new();
    queue.push_batch(trace.events().iter().map(|e| (e.at, [e.at.as_nanos(); 15])));
    let mut out = Eventq::default();
    let (mut owed_pushes, mut owed_cancels) = (0.0, 0.0);
    let mut now = 0;
    let mut due = Vec::new();
    let mut ids: Vec<EventId> = Vec::new();
    for round in 0.. {
        let pops = ROUND.min(queue.len());
        if pops == 0 {
            break;
        }
        // The first sixteenth of the run is the warm-up pass.
        let timed = round >= rounds / 16;
        let ns = clock.time_block(pops, || {
            for _ in 0..pops {
                queue.peek_time();
                let (at, payload) = queue.pop().expect("live events remain");
                now = at.as_nanos();
                std::hint::black_box(payload);
            }
        });
        owed_pushes += pops as f64 * pushes_per_pop;
        owed_cancels += pops as f64 * cancels_per_pop;
        let pushes = owed_pushes as usize;
        let cancels = (owed_cancels as usize).min(pushes);
        owed_pushes -= pushes as f64;
        owed_cancels -= cancels as f64;
        due.clear();
        due.extend((0..pushes).map(|_| now + 50_000 + rng.uniform_u64(4_950_000)));
        ids.clear();
        let push_ns = clock.time_block(pushes, || {
            for &at in &due {
                ids.push(queue.push(Timestamp::from_nanos(at), [at; 15]));
            }
        });
        let cancel_ns = clock.time_block(cancels, || {
            for &id in &ids[..cancels] {
                std::hint::black_box(queue.cancel(id));
            }
        });
        if timed {
            out.pop.add_block(ns, pops);
            if pushes > 0 {
                out.push.add_block(push_ns, pushes);
            }
            if cancels > 0 {
                out.cancel.add_block(cancel_ns, cancels);
            }
        }
    }
    out
}

/// Resident-set growth of an `EventQueue` held at a constant depth of 1 024,
/// in kB per million operations: the tombstone bitset grows one bit per
/// event ever scheduled, however short the queue stays. Call it before
/// anything else has grown the heap — memory the process already holds hides
/// the growth from `VmRSS`.
pub fn eventq_growth_kb_per_1m_ops() -> f64 {
    const PAIRS: u64 = 8_000_000;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for at in 0..1_024 {
        queue.push(Timestamp::from_nanos(at), at);
    }
    let before = current_rss_kb();
    for _ in 0..PAIRS {
        let (at, payload) = queue.pop().expect("queue held at depth");
        queue.push(at + Nanos::from_micros(1_024), payload);
    }
    let grown = current_rss_kb().saturating_sub(before);
    grown as f64 / (2 * PAIRS) as f64 * 1e6
}

// ---------------------------------------------------------------- controller

/// Host time of every scheduler callback, timed singly (a callback's
/// outputs must be drained before the next one, so calls cannot be batched).
#[derive(Default)]
pub struct Controller {
    pub setup_s: f64,
    pub on_request: Samples,
    pub on_result: Samples,
    pub on_tick_full: Samples,
    pub on_tick_skipped: Samples,
    pub next_tick: Samples,
    pub on_fault: Samples,
    /// Requests fed in and responses that came out; equal when every request
    /// was answered exactly once.
    pub requests: u64,
    pub responses: u64,
}

impl Controller {
    fn all(&self) -> [&Samples; 6] {
        [
            &self.on_request,
            &self.on_result,
            &self.on_tick_full,
            &self.on_tick_skipped,
            &self.next_tick,
            &self.on_fault,
        ]
    }

    pub fn calls(&self) -> usize {
        self.all().iter().map(|s| s.count()).sum()
    }

    pub fn busy_s(&self) -> f64 {
        self.all().iter().map(|s| s.sum_s()).sum()
    }
}

enum ControllerEvent {
    Request(InferenceRequest),
    Result(Box<ActionResult>),
    Tick,
    Fault(FaultKind),
}

/// A successful result for `action`, at `window.earliest + expected_duration`
/// (the idiom of `clockwork-controller/tests/differential.rs`).
fn synthesize_result(
    now: Timestamp,
    worker: WorkerId,
    action: &Action,
) -> (Timestamp, ActionResult) {
    let (model, batch, request_ids) = match &action.kind {
        ActionKind::Load { model } | ActionKind::Unload { model } => (*model, 1, Vec::new()),
        ActionKind::Infer {
            model,
            batch,
            request_ids,
        } => (*model, *batch, request_ids.clone()),
    };
    let start = action.window.earliest.max(now);
    let end = start + action.expected_duration;
    let result = ActionResult {
        action_id: action.id,
        worker,
        gpu: action.gpu,
        model,
        action_type: action.kind.type_name(),
        batch,
        request_ids,
        expected_duration: action.expected_duration,
        outcome: ActionOutcome::Success(ActionTiming {
            received: now,
            start,
            end,
            device_duration: action.expected_duration,
        }),
    };
    (end, result)
}

/// Scheduler-only replay: a fresh scheduler of the workload's discipline,
/// its GPUs and models, the workload's requests at their arrival times,
/// results synthesised from the scheduler's own actions, the fault plan, and
/// one tick handle reconciled against `next_tick` the way the facade does.
fn controller_pass(clock: &Clock, w: &Workload, requests: &[TraceEvent]) -> Controller {
    let spec = &w.spec;
    let mut out = Controller::default();
    let worker_config = WorkerConfig::new(WorkerId(0));
    let zoo = ModelZoo::new();
    let (mut sched, setup_ns) = clock.time(|| {
        let mut sched = w.discipline.factory().build();
        for worker in 0..spec.workers {
            for gpu in 0..spec.gpus_per_worker {
                sched.add_gpu(
                    GpuRef {
                        worker: WorkerId(worker),
                        gpu: GpuId(gpu),
                    },
                    worker_config.pages_per_gpu(),
                    worker_config.page_size,
                );
            }
        }
        let varieties = zoo.all();
        for m in 0..spec.models {
            let model = Arc::new(varieties[m % varieties.len()].clone());
            let load_seed = model.weights_transfer_duration(&worker_config.pcie);
            sched.add_model(ModelId(m as u32), model, load_seed);
        }
        sched
    });
    out.setup_s = setup_ns / 1e9;

    let mut queue: EventQueue<ControllerEvent> = EventQueue::new();
    for fault in spec.faults.events() {
        queue.push(fault.at, ControllerEvent::Fault(fault.kind));
    }
    queue.push_batch(requests.iter().enumerate().map(|(i, e)| {
        let request = InferenceRequest {
            id: RequestId(i as u64),
            model: e.model,
            arrival: e.at,
            slo: e.slo,
            tier: e.tier,
        };
        (e.at, ControllerEvent::Request(request))
    }));
    out.requests = requests.len() as u64;

    let mut ctx = SchedulerCtx::new();
    let mut tick: Option<(Timestamp, EventId)> = None;
    let mut actions = Vec::new();
    let mut responses = Vec::new();
    while let Some((now, event)) = queue.pop() {
        match event {
            ControllerEvent::Request(request) => {
                let ((), ns) = clock.time(|| sched.on_request(now, request, &mut ctx));
                out.on_request.push(ns);
            }
            ControllerEvent::Result(result) => {
                let ((), ns) = clock.time(|| sched.on_result(now, &result, &mut ctx));
                out.on_result.push(ns);
            }
            ControllerEvent::Tick => {
                tick = None;
                let (outcome, ns) = clock.time(|| sched.on_tick(now, &mut ctx));
                match outcome {
                    TickOutcome::Full => out.on_tick_full.push(ns),
                    TickOutcome::Skipped => out.on_tick_skipped.push(ns),
                }
            }
            ControllerEvent::Fault(kind) => {
                let ((), ns) = clock.time(|| sched.on_fault(now, &kind, &mut ctx));
                out.on_fault.push(ns);
            }
        }
        ctx.drain_actions_into(&mut actions);
        for (worker, action) in actions.drain(..) {
            let (end, result) = synthesize_result(now, worker, &action);
            queue.push(end, ControllerEvent::Result(Box::new(result)));
        }
        ctx.drain_responses_into(&mut responses);
        out.responses += responses.len() as u64;

        let (desired, ns) = clock.time(|| sched.next_tick(now));
        out.next_tick.push(ns);
        match (desired, tick) {
            (Some(want), Some((at, _))) if at <= want => {}
            (Some(want), prev) => {
                if let Some((_, id)) = prev {
                    queue.cancel(id);
                }
                tick = Some((want, queue.push(want, ControllerEvent::Tick)));
            }
            (None, Some((_, id))) => {
                queue.cancel(id);
                tick = None;
            }
            (None, None) => {}
        }
    }
    out
}

/// Requests the controller warm-up pass replays before the timed pass.
const CONTROLLER_WARMUP_REQUESTS: usize = 5_000;

pub fn controller(clock: &Clock, w: &Workload, trace: &Trace) -> Controller {
    let events = trace.events();
    controller_pass(
        clock,
        w,
        &events[..events.len().min(CONTROLLER_WARMUP_REQUESTS)],
    );
    controller_pass(clock, w, events)
}

// ---------------------------------------------------------------- worker

/// `Worker::submit` / `next_wakeup` / `poll_into` cost under the workload's
/// LOAD : UNLOAD : INFER mix, plus the page cache on its own.
#[derive(Default)]
pub struct WorkerReplay {
    pub submit: PerCall,
    pub next_wakeup: PerCall,
    pub poll_into: PerCall,
    pub page_cache_cycle: PerCall,
    /// Actions submitted and results that came back successful; equal when
    /// the replayed stream was valid.
    pub actions: u64,
    pub successes: u64,
}

/// One GPU's residency as the replay plans it: models in load order.
struct Lane {
    resident: VecDeque<(ModelId, u64)>,
    free_pages: u64,
}

pub fn worker(clock: &Clock, w: &Workload, observed: &Observed) -> WorkerReplay {
    const BLOCKS: usize = 256;
    let spec = &w.spec;
    let exec_mode = w.discipline.factory().default_exec_mode();
    let config = WorkerConfig::new(WorkerId(0))
        .with_gpus(spec.gpus_per_worker)
        .with_exec_mode(exec_mode)
        .with_variance(spec.variance)
        .with_seed(spec.seed);
    let page_size = config.page_size;
    let pages_per_gpu = config.pages_per_gpu();
    let mut worker = Worker::new(config);
    let zoo = ModelZoo::new();
    let varieties = zoo.all();
    let model_of = |m: usize| &varieties[m % varieties.len()];
    for m in 0..spec.models {
        worker
            .register_model(ModelId(m as u32), Arc::new(model_of(m).clone()))
            .expect("host memory holds the workload's models");
    }

    // Shares of the action stream, from the workload's own worker counters.
    let c = &observed.workers;
    let total = (c.loads_completed + c.unloads_completed + c.infers_completed).max(1) as f64;
    let gpus = spec.gpus_per_worker as usize;
    let per_gpu = BLOCK / gpus;
    let loads_per_block = (per_gpu as f64 * c.loads_completed as f64 / total).round() as usize;
    let evicts = c.unloads_completed > 0;
    // Enough settled models that a block's UNLOADs never reach its INFERs.
    let keep = loads_per_block + 4;

    let mut lanes: Vec<Lane> = (0..gpus)
        .map(|_| Lane {
            resident: VecDeque::new(),
            free_pages: pages_per_gpu,
        })
        .collect();
    let mut out = WorkerReplay::default();
    let mut next_model = 0usize;
    let mut next_action = 0u64;
    let mut now = Timestamp::ZERO;
    let mut results = Vec::new();
    let mut block: Vec<Action> = Vec::with_capacity(2 * BLOCK);
    let mut action = |gpu: usize, kind: ActionKind| {
        next_action += 1;
        make_action(
            next_action,
            GpuId(gpu as u32),
            kind,
            TimeWindow::always(),
            Nanos::from_millis(5),
        )
    };

    // Block 0 loads each lane's initial residents; the next quarter of the
    // blocks is the warm-up pass.
    for b in 0..1 + BLOCKS / 4 + BLOCKS {
        let timed = b > BLOCKS / 4;
        block.clear();
        for (g, lane) in lanes.iter_mut().enumerate() {
            let lane_start = block.len();
            let settled = lane.resident.len();
            let mut unloaded = 0;
            for _ in 0..if b == 0 { keep } else { loads_per_block } {
                let index = next_model % spec.models;
                next_model += 1;
                let model = ModelId(index as u32);
                let pages = model_of(index).weights_pages(page_size).max(1);
                if lane.resident.iter().any(|(m, _)| *m == model) {
                    continue;
                }
                // UNLOADs make room (and hold the resident count when the
                // workload evicts), oldest first, sparing one settled model.
                while (lane.free_pages < pages || evicts && lane.resident.len() > keep)
                    && unloaded + 1 < settled
                {
                    let (victim, freed) = lane.resident.pop_front().expect("settled model");
                    lane.free_pages += freed;
                    unloaded += 1;
                    block.push(action(g, ActionKind::Unload { model: victim }));
                }
                if lane.free_pages >= pages {
                    lane.free_pages -= pages;
                    lane.resident.push_back((model, pages));
                    block.push(action(g, ActionKind::Load { model }));
                }
            }
            // INFERs fill the lane's share of the block, and only target
            // models resident since before it: this block's LOADs have not
            // run yet, and its UNLOADs took the front of the queue.
            let targets = settled - unloaded;
            if targets == 0 {
                continue;
            }
            for i in 0..per_gpu.saturating_sub(block.len() - lane_start) {
                let (model, _) = lane.resident[i % targets];
                let kind = ActionKind::Infer {
                    model,
                    batch: 1,
                    request_ids: vec![i as u64],
                };
                block.push(action(g, kind));
            }
        }
        let calls = block.len();
        let ns = clock.time_block(calls, || {
            for a in block.drain(..) {
                worker.submit(now, a);
            }
        });
        if timed {
            out.submit.add_block(ns, calls);
            out.actions += calls as u64;
        }
        loop {
            let (wake, ns) = clock.time(|| worker.next_wakeup());
            if timed {
                out.next_wakeup.add(ns);
            }
            let Some(at) = wake else { break };
            now = now.max(at);
            results.clear();
            let (_, ns) = clock.time(|| worker.poll_into(now, &mut results));
            if timed {
                out.poll_into.add(ns);
                out.successes += results.iter().filter(|r| r.is_success()).count() as u64;
            }
        }
    }

    out.page_cache_cycle = page_cache(clock, spec.models, model_of, pages_per_gpu * page_size);
    out
}

/// `PageCache` release -> allocate -> touch -> `lru_victims_for`, with as
/// many of the workload's models resident as one GPU holds. The incoming
/// model is the next one not resident; when every model fits, the evicted
/// model itself comes back.
fn page_cache<'a>(
    clock: &Clock,
    models: usize,
    model_of: impl Fn(usize) -> &'a ModelSpec,
    capacity_bytes: u64,
) -> PerCall {
    const BLOCKS: usize = 64;
    let mut cache = PageCache::with_capacity(capacity_bytes);
    let mut resident = VecDeque::new();
    let mut next = 0;
    while next < models
        && cache
            .allocate(
                ModelId(next as u32),
                model_of(next).weights_bytes(),
                Timestamp::ZERO,
            )
            .is_ok()
    {
        resident.push_back(next);
        next += 1;
    }
    let all_fit = next == models;
    let mut cycle = PerCall::default();
    let mut tick = 0;
    for block in 0..BLOCKS + BLOCKS / 4 {
        let ns = clock.time_block(BLOCK, || {
            for _ in 0..BLOCK {
                tick += 1;
                let now = Timestamp::from_nanos(tick);
                let victim = resident.pop_front().expect("cache holds a model");
                cache.release(ModelId(victim as u32));
                let incoming = if all_fit { victim } else { next % models };
                next += 1;
                let id = ModelId(incoming as u32);
                let bytes = model_of(incoming).weights_bytes();
                while cache.allocate(id, bytes, now).is_err() {
                    let victim = resident.pop_front().expect("one model always fits");
                    cache.release(ModelId(victim as u32));
                }
                resident.push_back(incoming);
                cache.touch(id, now);
                std::hint::black_box(cache.lru_victims_for(cache.pages_for(bytes), &[]));
            }
        });
        if block >= BLOCKS / 4 {
            cycle.add_block(ns, BLOCK);
        }
    }
    cycle
}

// ---------------------------------------------------------------- metrics, facade

/// `LatencyHistogram::record` and `RingTracer::record`.
pub fn metrics(clock: &Clock, seed: u64) -> (PerCall, PerCall) {
    const BLOCKS: usize = 512;
    let mut rng = SimRng::seeded(seed);
    let latencies: Vec<Nanos> = (0..BLOCK)
        .map(|_| Nanos::from_nanos(1_000_000 + rng.uniform_u64(99_000_000)))
        .collect();
    let mut histogram = LatencyHistogram::new();
    let mut tracer = RingTracer::new(usize::MAX);
    let (mut record, mut trace) = (PerCall::default(), PerCall::default());
    for block in 0..BLOCKS + BLOCKS / 4 {
        let timed = block >= BLOCKS / 4;
        let ns = clock.time_block(BLOCK, || {
            for &latency in &latencies {
                histogram.record(latency);
            }
        });
        if timed {
            record.add_block(ns, BLOCK);
        }
        let base = (block * BLOCK) as u64;
        let ns = clock.time_block(BLOCK, || {
            for i in 0..BLOCK as u64 {
                tracer.record(
                    base + i,
                    LifecycleEvent::Enqueued {
                        request: base + i,
                        model: i as u32,
                        deadline: base + i + 100_000_000,
                    },
                );
            }
        });
        if timed {
            trace.add_block(ns, BLOCK);
        }
    }
    std::hint::black_box((histogram.count(), tracer.len()));
    (record, trace)
}

/// `SystemTelemetry::record_arrival` + `record_response_with_tier`, one pair
/// per call, over the workload's model count.
pub fn telemetry(clock: &Clock, models: usize) -> PerCall {
    const BLOCKS: usize = 512;
    let mut telemetry = SystemTelemetry::new(false);
    let mut pair = PerCall::default();
    let mut request = 0u64;
    for block in 0..BLOCKS + BLOCKS / 4 {
        let ns = clock.time_block(BLOCK, || {
            for _ in 0..BLOCK {
                request += 1;
                let arrival = Timestamp::from_nanos(request * 1_000_000);
                telemetry.record_arrival(arrival, Tier::Strict);
                let response = Response {
                    request: RequestId(request),
                    model: ModelId((request % models as u64) as u32),
                    arrival,
                    deadline: arrival + Nanos::from_millis(100),
                    outcome: RequestOutcome::Success {
                        completed: arrival + Nanos::from_micros(5_000 + request % 50_000),
                        batch: 1 + (request % 4) as u32,
                        worker: WorkerId((request % 20) as u32),
                        gpu: GpuId((request % 4) as u32),
                        cold_start: request.is_multiple_of(1_000),
                    },
                };
                telemetry.record_response_with_tier(&response, Tier::Strict);
            }
        });
        if block >= BLOCKS / 4 {
            pair.add_block(ns, BLOCK);
        }
    }
    std::hint::black_box(telemetry.response_digest());
    pair
}

// ---------------------------------------------------------------- shard

/// Front-door routing over 4 shards. `None` for workloads `ShardedSpec`
/// cannot partition (it needs a pre-generated trace; open-loop specs
/// generate theirs inside the run).
pub struct Shard {
    pub router_build_us: f64,
    pub route_ns_per_req: f64,
    pub plan_s: f64,
}

pub fn shard(clock: &Clock, w: &Workload, trace: &Trace) -> Option<Shard> {
    if !matches!(w.spec.workload, WorkloadSpec::Azure { .. }) {
        return None;
    }
    let sharded = ShardedSpec::new(w.spec.clone(), 4, ShardAssignment::HashByModel);
    let router_build_us = median_us(clock, || sharded.router());
    let router = sharded.router();
    std::hint::black_box(router.route(trace));
    let mut route_ns: Vec<f64> = (0..3)
        .map(|_| {
            let (parts, ns) = clock.time(|| router.route(trace));
            std::hint::black_box(parts);
            ns / trace.len().max(1) as f64
        })
        .collect();
    let (plans, plan_ns) = clock.time(|| sharded.shard_plans());
    std::hint::black_box(plans);
    Some(Shard {
        router_build_us,
        route_ns_per_req: median(&mut route_ns),
        plan_s: plan_ns / 1e9,
    })
}
