//! A Clipper-like reactive serving discipline.
//!
//! Clipper [NSDI '17] sits in front of framework-managed model containers.
//! Its distinctive mechanisms, reproduced here, are:
//!
//! * **per-model queues** with **adaptive batching**: the batch size grows
//!   (additively) while observed latency stays under the SLO and shrinks
//!   (multiplicatively) when it overshoots — the SLO is a long-term average
//!   target, not a per-request bound. Dispatch *accumulates*: while fewer
//!   than `target_batch` requests are queued, the queue is held up to
//!   [`ClipperConfig::batch_timeout`] (measured from the oldest request's
//!   arrival) so the adaptive target actually translates into formed
//!   batches instead of a stream of singletons;
//! * **static model placement**: each model is pinned to a worker/GPU
//!   (Clipper containers do not migrate), loaded on first use;
//! * **no admission control** and **no execution windows**: every request is
//!   eventually executed, however late; and
//! * dispatch is otherwise best-effort, leaving ordering and concurrency
//!   decisions to the lower layers.

use std::collections::VecDeque;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use clockwork_controller::request::{InferenceRequest, RejectReason, Response};
use clockwork_controller::scheduler::{Scheduler, SchedulerCtx, TickOutcome};
use clockwork_controller::worker_state::{GpuRef, Placement, Resolved, WorkerStateTracker};
use clockwork_model::{ModelId, ModelSpec, ModelTable};
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionOutcome, ActionResult};

/// Configuration of the Clipper-like discipline.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClipperConfig {
    /// Maximum batch size the adaptive controller may reach.
    pub max_batch: u32,
    /// Additive increase step applied when latency is under the SLO.
    pub batch_increase: u32,
    /// Multiplicative decrease factor applied when latency overshoots.
    pub batch_decrease: f64,
    /// Maximum INFER actions in flight per model (pipeline depth).
    pub max_outstanding_per_model: usize,
    /// How long the queue may be held waiting for `target_batch` requests
    /// to accumulate, measured from the oldest queued request's arrival.
    /// Once the oldest request has waited this long — or the queue reaches
    /// the target — whatever is queued is dispatched. Zero disables
    /// accumulation (the pre-batching eager dispatch).
    pub batch_timeout: Nanos,
}

impl Default for ClipperConfig {
    fn default() -> Self {
        ClipperConfig {
            max_batch: 16,
            batch_increase: 1,
            batch_decrease: 0.5,
            max_outstanding_per_model: 4,
            batch_timeout: Nanos::from_millis(2),
        }
    }
}

/// Policy state only: whether the model is loaded (or loading) at its home
/// and how many of its INFERs are in flight are read off the tracker.
struct ModelState {
    spec: Arc<ModelSpec>,
    load_estimate: Nanos,
    queue: VecDeque<InferenceRequest>,
    home: Option<GpuRef>,
    target_batch: u32,
    slo_hint: Nanos,
}

/// The Clipper-like scheduler.
pub struct ClipperScheduler {
    config: ClipperConfig,
    // Dispatch visits models in the table's (ascending id) order, and that
    // order decides which model claims shared capacity first.
    models: ModelTable<ModelState>,
    /// The mirror of the workers; a dispatched batch rides on its INFER's
    /// ledger entry.
    tracker: WorkerStateTracker<Vec<InferenceRequest>>,
    next_home: usize,
}

impl ClipperScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: ClipperConfig) -> Self {
        ClipperScheduler {
            config,
            models: ModelTable::default(),
            tracker: WorkerStateTracker::new(),
            next_home: 0,
        }
    }

    /// Creates a scheduler with default settings.
    pub fn with_defaults() -> Self {
        Self::new(ClipperConfig::default())
    }

    /// The current adaptive batch size of a model (for tests).
    pub fn target_batch(&self, model: ModelId) -> Option<u32> {
        self.models.get(model).map(|m| m.target_batch)
    }

    fn assign_home(&mut self, model: ModelId) -> Option<GpuRef> {
        // An already-assigned home is always live — `on_fault` clears homes
        // on dead capacity — so the common dispatch path pays no scan.
        if let Some(home) = self.models.get(model)?.home {
            return Some(home);
        }
        // Homes are only handed out on live capacity; a model whose home GPU
        // died had its home cleared by `on_fault` and re-lands here.
        let live = self.tracker.live_gpus();
        if live.is_empty() {
            return None;
        }
        let home = live[self.next_home % live.len()];
        self.next_home = self.next_home.wrapping_add(1);
        self.models.get_mut(model)?.home = Some(home);
        Some(home)
    }

    fn dispatch(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        let model_ids: Vec<ModelId> = self.models.iter().map(|(id, _)| id).collect();
        for model_id in model_ids {
            let Some(home) = self.assign_home(model_id) else {
                continue;
            };
            let state = self.models.get_mut(model_id).expect("model exists");
            if state.queue.is_empty() {
                continue;
            }
            // Issue the one-time load if needed (eagerly, on first request):
            // the home neither holds the model nor has a LOAD on its way.
            let track = self.tracker.get(home).expect("homes come from the tracker");
            let loaded = track.is_resident(model_id);
            if !track.has_or_loading(model_id) {
                let at = Placement::unbounded(home, now, state.load_estimate);
                self.tracker
                    .send_load(ctx, at, model_id, state.spec.weights_bytes());
            }
            // Dispatch batches up to the pipeline depth.
            while loaded
                && !state.queue.is_empty()
                && self.tracker.outstanding_infers_of(model_id)
                    < self.config.max_outstanding_per_model
            {
                // Accumulation window: when the adaptive target wants a
                // bigger batch than is queued, hold the queue until the
                // oldest request has waited out the timeout. The 1 ms tick
                // grid (`next_tick`) guarantees a held queue is revisited,
                // so the hold releases within a tick of the deadline.
                let target = state
                    .target_batch
                    .min(self.config.max_batch)
                    .min(state.spec.max_batch())
                    .max(1);
                let oldest = state.queue.front().expect("queue non-empty").arrival;
                if target > 1
                    && (state.queue.len() as u32) < target
                    && now < oldest + self.config.batch_timeout
                {
                    break;
                }
                let batch = state
                    .spec
                    .batch_for_count(state.target_batch.min(state.queue.len() as u32))
                    .map(|p| p.batch)
                    .unwrap_or(1)
                    .min(state.queue.len() as u32)
                    .max(1);
                // Only exact compiled batch sizes can run; round down.
                let batch = state
                    .spec
                    .supported_batches()
                    .into_iter()
                    .filter(|&b| b <= batch)
                    .max()
                    .unwrap_or(1);
                let take = batch as usize;
                let requests: Vec<InferenceRequest> = state.queue.drain(..take).collect();
                let exec_est = state
                    .spec
                    .exec_latency(batch)
                    .unwrap_or(Nanos::from_millis(10));
                let at = Placement::unbounded(home, now, exec_est);
                let request_ids = requests.iter().map(|r| r.id.0).collect();
                self.tracker
                    .send_infer(ctx, at, model_id, batch, request_ids, requests);
            }
        }
    }

    fn adapt_batch(&mut self, model: ModelId, observed_latency: Nanos) {
        let Some(state) = self.models.get_mut(model) else {
            return;
        };
        if observed_latency <= state.slo_hint {
            state.target_batch = (state.target_batch + self.config.batch_increase)
                .min(self.config.max_batch)
                .min(state.spec.max_batch());
        } else {
            let reduced = (state.target_batch as f64 * self.config.batch_decrease).floor() as u32;
            state.target_batch = reduced.max(1);
        }
    }
}

impl Scheduler for ClipperScheduler {
    fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        self.tracker.add_gpu(gpu_ref, total_pages, page_size);
    }

    fn add_model(&mut self, id: ModelId, spec: Arc<ModelSpec>, load_seed: Nanos) {
        self.models.insert(
            id,
            ModelState {
                spec,
                load_estimate: load_seed,
                queue: VecDeque::new(),
                home: None,
                target_batch: 1,
                slo_hint: Nanos::from_millis(100),
            },
        );
    }

    fn on_request(&mut self, now: Timestamp, request: InferenceRequest, ctx: &mut SchedulerCtx) {
        let Some(state) = self.models.get_mut(request.model) else {
            ctx.send_response(Response::rejected(
                &request,
                now,
                RejectReason::UnknownModel,
            ));
            return;
        };
        if request.has_slo() {
            state.slo_hint = request.slo;
        }
        state.queue.push_back(request);
        self.dispatch(now, ctx);
    }

    fn on_result(&mut self, now: Timestamp, result: &ActionResult, ctx: &mut SchedulerCtx) {
        // Only an INFER's riders need handling here. A LOAD result changes
        // what the tracker says about the home, which is all `dispatch`
        // reads; a stale one — the GPU died (and was wiped) after producing
        // it — changes nothing, so it cannot mark the model loaded on a
        // home that no longer exists, and a stale INFER's riders were
        // already requeued (and uncounted) by `on_fault`.
        if let Resolved::Infer(requests) = self.tracker.resolve(result) {
            match &result.outcome {
                ActionOutcome::Success(timing) => {
                    for r in &requests {
                        ctx.send_response(Response::success(r, result, timing.end, false));
                    }
                    if let Some(first) = requests.first() {
                        self.adapt_batch(first.model, timing.end - first.arrival);
                    }
                }
                ActionOutcome::Error { .. } => {
                    // Best effort: retry by putting requests back.
                    if let Some(state) = self.models.get_mut(result.model) {
                        for r in requests.into_iter().rev() {
                            state.queue.push_front(r);
                        }
                    }
                }
            }
        }
        self.dispatch(now, ctx);
    }

    fn on_tick(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) -> TickOutcome {
        self.dispatch(now, ctx);
        TickOutcome::Full
    }

    fn on_fault(
        &mut self,
        now: Timestamp,
        fault: &clockwork_sim::engine::FaultKind,
        ctx: &mut SchedulerCtx,
    ) {
        // Minimal fault awareness: park the dead capacity, requeue the
        // requests whose in-flight batches died with it, and evict any model
        // home that pointed at it so `assign_home` re-places the model on
        // live capacity (reloading from scratch).
        let lost = self.tracker.apply_fault(now, fault);
        for (_, action) in lost.into_iter().rev() {
            if let (Some(requests), Some(state)) =
                (action.riders, self.models.get_mut(action.model))
            {
                for r in requests.into_iter().rev() {
                    state.queue.push_front(r);
                }
            }
        }
        let tracker = &self.tracker;
        for state in self.models.values_mut() {
            if state
                .home
                .is_some_and(|h| !tracker.get(h).is_some_and(|t| t.alive))
            {
                state.home = None;
            }
        }
        self.dispatch(now, ctx);
    }

    fn next_tick(&self, now: Timestamp) -> Option<Timestamp> {
        if self.models.values().any(|m| !m.queue.is_empty()) {
            Some(now + Nanos::from_millis(1))
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        "clipper"
    }
}

/// Factory registering the Clipper-like discipline
/// (see [`clockwork_controller::registry`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClipperFactory {
    /// Configuration every built scheduler starts from.
    pub config: ClipperConfig,
}

impl ClipperFactory {
    /// A factory building Clipper schedulers with the given configuration.
    pub fn new(config: ClipperConfig) -> Self {
        ClipperFactory { config }
    }
}

impl clockwork_controller::registry::SchedulerFactory for ClipperFactory {
    fn name(&self) -> &'static str {
        "clipper"
    }

    fn default_exec_mode(&self) -> clockwork_worker::ExecMode {
        // Clipper runs atop frameworks that execute kernels concurrently.
        clockwork_worker::ExecMode::Concurrent { max_concurrent: 16 }
    }

    fn build(&self) -> Box<dyn Scheduler> {
        Box::new(ClipperScheduler::new(self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_controller::request::RequestId;
    use clockwork_model::zoo::ModelZoo;
    use clockwork_model::Tier;
    use clockwork_worker::{ActionKind, ActionTiming, GpuId, WorkerId};

    const PAGE: u64 = 16 * 1024 * 1024;

    fn gref() -> GpuRef {
        GpuRef {
            worker: WorkerId(0),
            gpu: GpuId(0),
        }
    }

    fn resnet() -> Arc<ModelSpec> {
        Arc::new(ModelZoo::new().resnet50().clone())
    }

    fn request(id: u64, arrival_ms: u64, slo_ms: u64) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(id),
            model: ModelId(1),
            arrival: Timestamp::from_millis(arrival_ms),
            slo: Nanos::from_millis(slo_ms),
            tier: Tier::Strict,
        }
    }

    fn scheduler() -> ClipperScheduler {
        let mut s = ClipperScheduler::with_defaults();
        s.add_gpu(gref(), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        s
    }

    fn success(action: &clockwork_worker::Action, end_ms: u64) -> ActionResult {
        let (model, batch, request_ids) = match &action.kind {
            ActionKind::Infer {
                model,
                batch,
                request_ids,
            } => (*model, *batch, request_ids.clone()),
            ActionKind::Load { model } => (*model, 1, vec![]),
            ActionKind::Unload { model } => (*model, 1, vec![]),
        };
        ActionResult {
            action_id: action.id,
            worker: WorkerId(0),
            gpu: GpuId(0),
            model,
            action_type: action.kind.type_name(),
            batch,
            request_ids,
            expected_duration: action.expected_duration,
            outcome: ActionOutcome::Success(ActionTiming {
                received: Timestamp::ZERO,
                start: Timestamp::from_millis(end_ms.saturating_sub(3)),
                end: Timestamp::from_millis(end_ms),
                device_duration: Nanos::from_millis(3),
            }),
        }
    }

    #[test]
    fn loads_on_first_request_then_serves() {
        let mut s = scheduler();
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        // Only a LOAD: the model is not loaded yet so no INFER can go out.
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].1.kind.type_name(), "LOAD");
        assert!(actions[0].1.window.latest == Timestamp::MAX, "no windows");
        // LOAD completes: the queued request is dispatched.
        s.on_result(
            Timestamp::from_millis(9),
            &success(&actions[0].1, 9),
            &mut ctx,
        );
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].1.kind.type_name(), "INFER");
        // INFER completes: response goes out.
        s.on_result(
            Timestamp::from_millis(13),
            &success(&actions[0].1, 13),
            &mut ctx,
        );
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].outcome.is_success());
    }

    #[test]
    fn never_rejects_requests_up_front() {
        let mut s = scheduler();
        let mut ctx = SchedulerCtx::new();
        // 1 ms SLO on a cold model: Clockwork would reject; Clipper accepts.
        s.on_request(Timestamp::ZERO, request(1, 0, 1), &mut ctx);
        assert!(ctx.take_responses().is_empty());
    }

    #[test]
    fn batch_size_adapts_to_latency_feedback() {
        let mut s = scheduler();
        let mut ctx = SchedulerCtx::new();
        assert_eq!(s.target_batch(ModelId(1)), Some(1));
        // Warm up the model.
        s.on_request(Timestamp::ZERO, request(1, 0, 100), &mut ctx);
        let load = ctx.take_actions().remove(0);
        s.on_result(Timestamp::from_millis(9), &success(&load.1, 9), &mut ctx);
        let mut next_id = 2u64;
        let mut t = 10u64;
        // Fast responses (well under SLO) should grow the batch size.
        for _ in 0..6 {
            s.on_request(
                Timestamp::from_millis(t),
                request(next_id, t, 100),
                &mut ctx,
            );
            next_id += 1;
            for (_, a) in ctx.take_actions() {
                if a.kind.type_name() == "INFER" {
                    s.on_result(Timestamp::from_millis(t + 3), &success(&a, t + 3), &mut ctx);
                }
            }
            let _ = ctx.take_responses();
            t += 5;
        }
        let grown = s.target_batch(ModelId(1)).unwrap();
        assert!(grown > 1, "batch should have grown, is {grown}");
        // A slow response (over SLO) shrinks it multiplicatively. The lone
        // request is held by the accumulation window at first; the next
        // tick past the timeout flushes it.
        s.on_request(Timestamp::from_millis(t), request(next_id, t, 10), &mut ctx);
        let _ = s.on_tick(Timestamp::from_millis(t + 3), &mut ctx);
        for (_, a) in ctx.take_actions() {
            if a.kind.type_name() == "INFER" {
                s.on_result(
                    Timestamp::from_millis(t + 500),
                    &success(&a, t + 500),
                    &mut ctx,
                );
            }
        }
        let shrunk = s.target_batch(ModelId(1)).unwrap();
        assert!(shrunk < grown, "batch should shrink after overshoot");
    }

    #[test]
    fn accumulates_queue_until_target_or_timeout() {
        let mut s = scheduler();
        let mut ctx = SchedulerCtx::new();
        // Warm up: load, serve one request fast so the target grows to 2.
        s.on_request(Timestamp::ZERO, request(1, 0, 100), &mut ctx);
        let load = ctx.take_actions().remove(0);
        s.on_result(Timestamp::from_millis(9), &success(&load.1, 9), &mut ctx);
        for (_, a) in ctx.take_actions() {
            s.on_result(Timestamp::from_millis(12), &success(&a, 12), &mut ctx);
        }
        let _ = ctx.take_responses();
        assert_eq!(s.target_batch(ModelId(1)), Some(2));
        // A single request is held: fewer than target queued, inside the
        // accumulation window.
        s.on_request(Timestamp::from_millis(20), request(2, 20, 100), &mut ctx);
        assert!(ctx.take_actions().is_empty(), "queue held to accumulate");
        // A second arrival fills the target: one batch-2 INFER goes out.
        s.on_request(Timestamp::from_millis(21), request(3, 21, 100), &mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1);
        match &actions[0].1.kind {
            ActionKind::Infer {
                batch, request_ids, ..
            } => {
                assert_eq!(*batch, 2);
                assert_eq!(request_ids, &vec![2, 3]);
            }
            other => panic!("expected INFER, got {other:?}"),
        }
        s.on_result(
            Timestamp::from_millis(25),
            &success(&actions[0].1, 25),
            &mut ctx,
        );
        let _ = ctx.take_responses();
        // A lone request that never reaches the target is still released
        // once the oldest arrival has waited out the timeout.
        s.on_request(Timestamp::from_millis(30), request(4, 30, 100), &mut ctx);
        assert!(ctx.take_actions().is_empty(), "held again");
        let _ = s.on_tick(Timestamp::from_millis(31), &mut ctx);
        assert!(ctx.take_actions().is_empty(), "still inside the window");
        let _ = s.on_tick(Timestamp::from_millis(33), &mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1, "timeout flushes the partial batch");
        match &actions[0].1.kind {
            ActionKind::Infer { batch, .. } => assert_eq!(*batch, 1),
            other => panic!("expected INFER, got {other:?}"),
        }
    }

    #[test]
    fn faults_evict_dead_homes_and_rehome_on_live_capacity() {
        use clockwork_sim::engine::FaultKind;
        let mut s = ClipperScheduler::with_defaults();
        s.add_gpu(gref(), 100, PAGE);
        s.add_gpu(
            GpuRef {
                worker: WorkerId(1),
                gpu: GpuId(0),
            },
            100,
            PAGE,
        );
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        let (home_worker, stale_load) = (actions[0].0, actions[0].1.clone());
        assert_eq!(home_worker, WorkerId(0), "first home is the first GPU");
        // The home worker crashes while its LOAD is in flight: the model is
        // re-homed onto live capacity with a fresh LOAD.
        s.on_fault(
            Timestamp::from_millis(1),
            &FaultKind::WorkerCrash { worker: 0 },
            &mut ctx,
        );
        let actions = ctx.take_actions();
        assert!(
            actions.iter().all(|(w, _)| *w == WorkerId(1)),
            "nothing may be placed on the dead worker: {actions:?}"
        );
        let reload = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .expect("the re-homed model reloads from scratch");
        // A stale success from the dead worker's LOAD must not mark the
        // model loaded — only the new home's LOAD counts.
        s.on_result(
            Timestamp::from_millis(2),
            &success(&stale_load, 2),
            &mut ctx,
        );
        assert!(
            ctx.take_actions().is_empty(),
            "a stale LOAD result must not unblock dispatch"
        );
        let mut fresh = success(&reload.1, 9);
        fresh.worker = WorkerId(1);
        s.on_result(Timestamp::from_millis(9), &fresh, &mut ctx);
        let actions = ctx.take_actions();
        assert!(
            actions
                .iter()
                .any(|(w, a)| *w == WorkerId(1) && a.kind.type_name() == "INFER"),
            "the queued request is served from the new home: {actions:?}"
        );
    }

    #[test]
    fn unknown_model_is_rejected() {
        let mut s = scheduler();
        let mut ctx = SchedulerCtx::new();
        let r = InferenceRequest {
            id: RequestId(9),
            model: ModelId(42),
            arrival: Timestamp::ZERO,
            slo: Nanos::from_millis(10),
            tier: Tier::Strict,
        };
        s.on_request(Timestamp::ZERO, r, &mut ctx);
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(!responses[0].outcome.is_success());
        assert_eq!(s.name(), "clipper");
    }
}
