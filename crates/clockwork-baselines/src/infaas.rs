//! An INFaaS-like reactive serving discipline.
//!
//! INFaaS [ATC '21 / arXiv '19] serves each request with a "model variant"
//! chosen to navigate the cost/latency trade-off, and reacts to load by
//! scaling variants up/down and replicating models across workers. Its
//! distinguishing mechanisms, reproduced here:
//!
//! * **variant selection**: per dispatch, a batch size is picked based on the
//!   queue length and the request SLO (larger, more efficient variants when
//!   the SLO is loose and the queue deep);
//! * **reactive replication**: when a model's queue stays above a threshold,
//!   the model is replicated to the least-loaded GPU; and
//! * like Clipper, **no admission control and no execution windows** — the
//!   SLO steers policy but is never enforced per request.

use std::collections::VecDeque;
use std::sync::Arc;

use clockwork_controller::request::{InferenceRequest, RejectReason, Response};
use clockwork_controller::scheduler::{Scheduler, SchedulerCtx, TickOutcome};
use clockwork_controller::worker_state::{GpuRef, Placement, Resolved, WorkerStateTracker};
use clockwork_model::{ModelId, ModelSpec, ModelTable};
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionOutcome, ActionResult};

/// Queue length at which a model is replicated to another GPU.
const REPLICATION_QUEUE_THRESHOLD: usize = 32;
/// Maximum replicas per model.
const MAX_REPLICAS: usize = 4;
/// Maximum INFER actions in flight per replica.
const MAX_OUTSTANDING_PER_REPLICA: usize = 4;

/// Policy state only: where the model is still loading and how many of its
/// INFERs are in flight are read off the tracker.
struct ModelState {
    spec: Arc<ModelSpec>,
    load_estimate: Nanos,
    queue: VecDeque<InferenceRequest>,
    /// The GPUs confirmed to hold the model, in the order their LOADs
    /// completed: dispatch round-robins over it, so the order is policy
    /// (and frozen in the digests), not a copy of the tracker's holder set.
    replicas: Vec<GpuRef>,
    next_replica: usize,
}

/// The INFaaS-like scheduler.
pub struct InfaasScheduler {
    // Dispatch and replication visit models in the table's (ascending id)
    // order, and that order decides which model claims shared capacity
    // first.
    models: ModelTable<ModelState>,
    /// The mirror of the workers; a dispatched batch rides on its INFER's
    /// ledger entry.
    tracker: WorkerStateTracker<Vec<InferenceRequest>>,
}

impl Default for InfaasScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl InfaasScheduler {
    /// Creates a scheduler with no GPUs and no models.
    pub fn new() -> Self {
        InfaasScheduler {
            models: ModelTable::default(),
            tracker: WorkerStateTracker::new(),
        }
    }

    /// Number of replicas (loaded GPUs) a model currently has.
    pub fn replica_count(&self, model: ModelId) -> usize {
        self.models
            .get(model)
            .map(|m| m.replicas.len())
            .unwrap_or(0)
    }

    /// Picks the batch-size variant for a dispatch: deeper queues and looser
    /// SLOs choose larger (more efficient) variants.
    fn select_variant(spec: &ModelSpec, queue_len: usize, slo: Nanos) -> u32 {
        let by_queue = spec
            .supported_batches()
            .into_iter()
            .filter(|&b| (b as usize) <= queue_len.max(1))
            .max()
            .unwrap_or(1);
        let by_slo = spec
            .largest_batch_within(slo.mul_f64(0.5))
            .map(|p| p.batch)
            .unwrap_or(1);
        by_queue.min(by_slo).max(1)
    }

    fn maybe_replicate(&mut self, now: Timestamp, model_id: ModelId, ctx: &mut SchedulerCtx) {
        let state = self.models.get(model_id).expect("model exists");
        // Every GPU that holds the model or has its LOAD on the way: the
        // replicas plus the still-loading, straight off the tracker.
        let holders = self.tracker.gpus_with_model(model_id);
        let needs_first = holders.is_empty() && !state.queue.is_empty();
        let needs_scale =
            state.queue.len() >= REPLICATION_QUEUE_THRESHOLD && holders.len() < MAX_REPLICAS;
        if !(needs_first || needs_scale) {
            return;
        }
        // Replicate onto the least-loaded GPU not already hosting the model.
        // Only live GPUs are replication targets; a dead GPU would swallow
        // the LOAD without ever answering.
        let existing: Vec<GpuRef> = holders
            .iter()
            .map(|&idx| self.tracker.gpus()[idx].gpu_ref)
            .collect();
        if let Some(target) = self.tracker.least_loaded_gpu(now, &existing) {
            let at = Placement::unbounded(target, now, state.load_estimate);
            self.tracker
                .send_load(ctx, at, model_id, state.spec.weights_bytes());
        }
    }

    fn dispatch(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        let model_ids: Vec<ModelId> = self.models.iter().map(|(id, _)| id).collect();
        for model_id in model_ids {
            self.maybe_replicate(now, model_id, ctx);
            let state = self.models.get_mut(model_id).expect("model exists");
            let limit = state.replicas.len() * MAX_OUTSTANDING_PER_REPLICA;
            while !state.replicas.is_empty()
                && !state.queue.is_empty()
                && self.tracker.outstanding_infers_of(model_id) < limit.max(1)
            {
                let slo = state.queue.front().map(|r| r.slo).unwrap_or(Nanos::MAX);
                let batch = Self::select_variant(&state.spec, state.queue.len(), slo);
                let take = (batch as usize).min(state.queue.len());
                let requests: Vec<InferenceRequest> = state.queue.drain(..take).collect();
                let replica = state.replicas[state.next_replica % state.replicas.len()];
                state.next_replica = state.next_replica.wrapping_add(1);
                let exec_est = state
                    .spec
                    .exec_latency(batch)
                    .unwrap_or(Nanos::from_millis(10));
                let at = Placement::unbounded(replica, now, exec_est);
                let request_ids = requests.iter().map(|r| r.id.0).collect();
                self.tracker
                    .send_infer(ctx, at, model_id, batch, request_ids, requests);
            }
        }
    }
}

impl Scheduler for InfaasScheduler {
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
                replicas: Vec::new(),
                next_replica: 0,
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
        state.queue.push_back(request);
        self.dispatch(now, ctx);
    }

    fn on_result(&mut self, now: Timestamp, result: &ActionResult, ctx: &mut SchedulerCtx) {
        // A result whose action is no longer outstanding is stale — the GPU
        // died (and was wiped) after producing it: a LOAD's must not
        // resurrect a replica on capacity that no longer holds the weights,
        // and an INFER's riders were already requeued (and uncounted) by
        // `on_fault`. One that resolves was outstanding on the GPU it
        // reports, which is therefore the GPU the action was sent to.
        match self.tracker.resolve(result) {
            Resolved::Load => {
                let gpu_ref = GpuRef::of(result);
                if let Some(state) = self.models.get_mut(result.model) {
                    if result.is_success() && !state.replicas.contains(&gpu_ref) {
                        state.replicas.push(gpu_ref);
                    }
                }
            }
            Resolved::Infer(requests) => match &result.outcome {
                ActionOutcome::Success(timing) => {
                    for r in &requests {
                        ctx.send_response(Response::success(r, result, timing.end, false));
                    }
                }
                ActionOutcome::Error { .. } => {
                    if let Some(state) = self.models.get_mut(result.model) {
                        for r in requests.into_iter().rev() {
                            state.queue.push_front(r);
                        }
                    }
                }
            },
            Resolved::Stale => {}
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
        // Minimal fault awareness: park the dead capacity, drop it from every
        // replica set (dispatch and replication only consider live replicas),
        // and requeue the requests whose in-flight batches died with it. The
        // replication path then rebuilds replicas on live GPUs on demand.
        let lost = self.tracker.apply_fault(now, fault);
        let tracker = &self.tracker;
        for state in self.models.values_mut() {
            state
                .replicas
                .retain(|g| tracker.get(*g).is_some_and(|t| t.alive));
        }
        for (_, action) in lost.into_iter().rev() {
            if let (Some(requests), Some(state)) =
                (action.riders, self.models.get_mut(action.model))
            {
                for r in requests.into_iter().rev() {
                    state.queue.push_front(r);
                }
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
        "infaas"
    }
}

/// Factory registering the INFaaS-like discipline
/// (see [`clockwork_controller::registry`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct InfaasFactory;

impl clockwork_controller::registry::SchedulerFactory for InfaasFactory {
    fn name(&self) -> &'static str {
        "infaas"
    }

    fn default_exec_mode(&self) -> clockwork_worker::ExecMode {
        // INFaaS runs atop frameworks that execute kernels concurrently.
        clockwork_worker::ExecMode::Concurrent { max_concurrent: 16 }
    }

    fn build(&self) -> Box<dyn Scheduler> {
        Box::new(InfaasScheduler::new())
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

    fn gref(w: u32) -> GpuRef {
        GpuRef {
            worker: WorkerId(w),
            gpu: GpuId(0),
        }
    }

    fn resnet() -> Arc<ModelSpec> {
        Arc::new(ModelZoo::new().resnet50().clone())
    }

    fn request(id: u64, slo_ms: u64) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(id),
            model: ModelId(1),
            arrival: Timestamp::ZERO,
            slo: Nanos::from_millis(slo_ms),
            tier: Tier::Strict,
        }
    }

    fn success(action: &clockwork_worker::Action, worker: WorkerId, end_ms: u64) -> ActionResult {
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
            worker,
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
    fn variant_selection_scales_with_queue_and_slo() {
        let spec = resnet();
        assert_eq!(
            InfaasScheduler::select_variant(&spec, 1, Nanos::from_millis(100)),
            1
        );
        assert!(InfaasScheduler::select_variant(&spec, 20, Nanos::from_millis(200)) >= 8);
        // Tight SLO caps the variant even with a deep queue.
        assert_eq!(
            InfaasScheduler::select_variant(&spec, 20, Nanos::from_millis(6)),
            1
        );
    }

    #[test]
    fn first_request_triggers_load_then_dispatch() {
        let mut s = InfaasScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 100), &mut ctx);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].1.kind.type_name(), "LOAD");
        s.on_result(
            Timestamp::from_millis(9),
            &success(&actions[0].1, WorkerId(0), 9),
            &mut ctx,
        );
        assert_eq!(s.replica_count(ModelId(1)), 1);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].1.kind.type_name(), "INFER");
        s.on_result(
            Timestamp::from_millis(13),
            &success(&actions[0].1, WorkerId(0), 13),
            &mut ctx,
        );
        assert_eq!(ctx.take_responses().len(), 1);
    }

    #[test]
    fn deep_queues_trigger_replication_to_other_gpus() {
        let mut s = InfaasScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        s.add_gpu(gref(1), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        // Flood with requests while the first replica is still loading,
        // past the replication threshold.
        for i in 0..REPLICATION_QUEUE_THRESHOLD as u64 + 8 {
            s.on_request(Timestamp::ZERO, request(i, 1_000), &mut ctx);
        }
        let actions = ctx.take_actions();
        let load_workers: std::collections::BTreeSet<WorkerId> = actions
            .iter()
            .filter(|(_, a)| a.kind.type_name() == "LOAD")
            .map(|(w, _)| *w)
            .collect();
        assert!(
            load_workers.len() >= 2,
            "expected replication across GPUs, got {load_workers:?}"
        );
    }

    #[test]
    fn faults_drop_dead_replicas_and_rebuild_on_live_capacity() {
        use clockwork_sim::engine::FaultKind;
        let mut s = InfaasScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        s.add_gpu(gref(1), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        // Establish one replica on worker 0.
        s.on_request(Timestamp::ZERO, request(1, 100), &mut ctx);
        let load = ctx.take_actions().remove(0);
        assert_eq!(load.0, WorkerId(0));
        s.on_result(
            Timestamp::from_millis(9),
            &success(&load.1, WorkerId(0), 9),
            &mut ctx,
        );
        assert_eq!(s.replica_count(ModelId(1)), 1);
        let _ = ctx.take_actions();
        // The replica's worker dies: the replica set empties and the queued
        // work triggers a rebuild on the surviving worker only.
        s.on_request(Timestamp::from_millis(10), request(2, 100), &mut ctx);
        let _ = ctx.take_actions();
        s.on_fault(
            Timestamp::from_millis(11),
            &FaultKind::WorkerCrash { worker: 0 },
            &mut ctx,
        );
        assert_eq!(s.replica_count(ModelId(1)), 0, "dead replicas are dropped");
        let actions = ctx.take_actions();
        assert!(
            actions.iter().all(|(w, _)| *w == WorkerId(1)),
            "rebuild must target live capacity: {actions:?}"
        );
        let reload = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .expect("a replacement LOAD is issued");
        s.on_result(
            Timestamp::from_millis(20),
            &success(&reload.1, WorkerId(1), 20),
            &mut ctx,
        );
        assert_eq!(
            s.replica_count(ModelId(1)),
            1,
            "replica rebuilt on worker 1"
        );
        assert!(
            ctx.take_actions()
                .iter()
                .any(|(w, a)| *w == WorkerId(1) && a.kind.type_name() == "INFER"),
            "queued requests drain through the new replica"
        );
    }

    #[test]
    fn never_rejects_slo_violating_requests() {
        let mut s = InfaasScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1), &mut ctx);
        assert!(ctx.take_responses().is_empty());
        assert_eq!(s.name(), "infaas");
    }

    #[test]
    fn unknown_model_is_rejected() {
        let mut s = InfaasScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        let mut ctx = SchedulerCtx::new();
        let r = InferenceRequest {
            id: RequestId(7),
            model: ModelId(9),
            arrival: Timestamp::ZERO,
            slo: Nanos::from_millis(50),
            tier: Tier::Strict,
        };
        s.on_request(Timestamp::ZERO, r, &mut ctx);
        assert_eq!(ctx.take_responses().len(), 1);
    }
}
