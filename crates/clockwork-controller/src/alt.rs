//! Ablation schedulers.
//!
//! The paper's argument is architectural: consolidating choice at the
//! controller is what buys predictability. To quantify how much each piece of
//! the design contributes, the benchmark harness runs the full system with
//! deliberately weakened schedulers:
//!
//! * [`FifoScheduler`] — no batching, no admission control, no proactive
//!   placement: requests are dispatched one at a time, round-robin across
//!   GPUs, with a LOAD issued on demand whenever the target GPU does not hold
//!   the model. This approximates the "ignore the problem" end of §3.
//!
//! Both the ablations and the full [`crate::ClockworkScheduler`] implement
//! the same [`Scheduler`] trait, so they are interchangeable in the system
//! harness and the comparison isolates policy, not plumbing.

use std::collections::VecDeque;
use std::sync::Arc;

use clockwork_model::{ModelId, ModelSpec, ModelTable};
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionOutcome, ActionResult};

use crate::request::{InferenceRequest, RejectReason, Response};
use crate::scheduler::{Scheduler, SchedulerCtx, TickOutcome};
use crate::worker_state::{GpuRef, Placement, Resolved, WorkerStateTracker};

/// A deliberately naive scheduler: FIFO dispatch, batch size 1, round-robin
/// GPU selection, on-demand loads, no admission control, unbounded windows.
pub struct FifoScheduler {
    /// Each model's spec and LOAD-duration estimate.
    models: ModelTable<(Arc<ModelSpec>, Nanos)>,
    /// The mirror of the workers; a dispatched request rides on its INFER's
    /// ledger entry.
    tracker: WorkerStateTracker<InferenceRequest>,
    queue: VecDeque<InferenceRequest>,
    next_gpu: usize,
}

impl Default for FifoScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl FifoScheduler {
    /// Creates an empty FIFO scheduler.
    pub fn new() -> Self {
        FifoScheduler {
            models: ModelTable::default(),
            tracker: WorkerStateTracker::new(),
            queue: VecDeque::new(),
            next_gpu: 0,
        }
    }

    /// Number of requests waiting to be dispatched.
    pub fn queued_requests(&self) -> usize {
        self.queue.len()
    }

    fn dispatch(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        // Round-robin only over live capacity; dead GPUs would swallow the
        // action without ever answering. With no live GPU at all the queue
        // simply waits for a recovery.
        if self.tracker.live_gpus().is_empty() {
            return;
        }
        // Dispatch everything immediately, round-robin, one request per INFER.
        while let Some(request) = self.queue.pop_front() {
            let Some((spec, load_est)) = self.models.get(request.model) else {
                ctx.send_response(Response::rejected(
                    &request,
                    now,
                    RejectReason::UnknownModel,
                ));
                continue;
            };
            let live = self.tracker.live_gpus();
            let gpu_ref = live[self.next_gpu % live.len()];
            self.next_gpu = self.next_gpu.wrapping_add(1);
            let exec_est = spec.exec_latency(1).unwrap_or(Nanos::from_millis(10));
            // Load on demand if the GPU does not already hold the model,
            // evicting LRU models until the load fits (and loading anyway
            // when nothing is left to evict: the tracker then reserves only
            // the pages that are free).
            let needs_load = !self
                .tracker
                .get(gpu_ref)
                .is_some_and(|t| t.has_or_loading(request.model));
            if needs_load {
                let weights = spec.weights_bytes();
                self.tracker
                    .evict_until_fits(ctx, gpu_ref, weights, |_, _| false);
                let at = Placement::unbounded(gpu_ref, now, *load_est);
                self.tracker.send_load(ctx, at, request.model, weights);
            }
            let at = Placement::unbounded(gpu_ref, now, exec_est);
            self.tracker
                .send_infer(ctx, at, request.model, 1, vec![request.id.0], request);
        }
    }
}

impl Scheduler for FifoScheduler {
    fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        self.tracker.add_gpu(gpu_ref, total_pages, page_size);
    }

    fn add_model(&mut self, id: ModelId, spec: Arc<ModelSpec>, load_seed: Nanos) {
        self.models.insert(id, (spec, load_seed));
    }

    fn on_request(&mut self, now: Timestamp, request: InferenceRequest, ctx: &mut SchedulerCtx) {
        self.queue.push_back(request);
        self.dispatch(now, ctx);
    }

    fn on_result(&mut self, now: Timestamp, result: &ActionResult, ctx: &mut SchedulerCtx) {
        if let Resolved::Infer(request) = self.tracker.resolve(result) {
            ctx.send_response(match &result.outcome {
                ActionOutcome::Success(timing) => {
                    Response::success(&request, result, timing.end, false)
                }
                ActionOutcome::Error { at, .. } => {
                    Response::rejected(&request, *at, RejectReason::WorkerRejected)
                }
            });
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
        // Minimal fault awareness: park dead capacity (dispatch skips it),
        // re-admit recovered capacity cold, and requeue the requests whose
        // in-flight actions died with the GPU. Reverse id order + push_front
        // restores the lost requests at the head in their original order.
        let lost = self.tracker.apply_fault(now, fault);
        for request in lost.into_iter().rev().filter_map(|(_, a)| a.riders) {
            self.queue.push_front(request);
        }
        self.dispatch(now, ctx);
    }

    fn next_tick(&self, now: Timestamp) -> Option<Timestamp> {
        if self.queue.is_empty() {
            None
        } else {
            Some(now + Nanos::from_millis(1))
        }
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
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

    fn request(id: u64, model: u32) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(id),
            model: ModelId(model),
            arrival: Timestamp::ZERO,
            slo: Nanos::from_millis(100),
            tier: Tier::Strict,
        }
    }

    #[test]
    fn dispatches_immediately_without_batching() {
        let mut s = FifoScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        for i in 0..4 {
            s.on_request(Timestamp::ZERO, request(i, 1), &mut ctx);
        }
        let actions = ctx.take_actions();
        let infers: Vec<_> = actions
            .iter()
            .filter_map(|(_, a)| match &a.kind {
                ActionKind::Infer { batch, .. } => Some(*batch),
                _ => None,
            })
            .collect();
        assert_eq!(infers.len(), 4, "one INFER per request");
        assert!(infers.iter().all(|&b| b == 1), "never batches");
        assert_eq!(s.queued_requests(), 0);
        assert_eq!(s.name(), "fifo");
    }

    #[test]
    fn round_robins_across_gpus_and_loads_on_demand() {
        let mut s = FifoScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        s.add_gpu(gref(1), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1), &mut ctx);
        s.on_request(Timestamp::ZERO, request(2, 1), &mut ctx);
        let actions = ctx.take_actions();
        let loads = actions
            .iter()
            .filter(|(_, a)| a.kind.type_name() == "LOAD")
            .count();
        assert_eq!(loads, 2, "each GPU loads the model on demand");
        let workers: std::collections::BTreeSet<WorkerId> =
            actions.iter().map(|(w, _)| *w).collect();
        assert_eq!(workers.len(), 2);
    }

    #[test]
    fn responses_are_sent_on_results() {
        let mut s = FifoScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1), &mut ctx);
        let actions = ctx.take_actions();
        let (infer_id, infer_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        let result = ActionResult {
            action_id: infer_id,
            worker: WorkerId(0),
            gpu: GpuId(0),
            model: ModelId(1),
            action_type: "INFER",
            batch: 1,
            request_ids: vec![1],
            expected_duration: infer_action.expected_duration,
            outcome: ActionOutcome::Success(ActionTiming {
                received: Timestamp::ZERO,
                start: Timestamp::from_millis(9),
                end: Timestamp::from_millis(12),
                device_duration: Nanos::from_millis(3),
            }),
        };
        s.on_result(Timestamp::from_millis(12), &result, &mut ctx);
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].outcome.is_success());
    }

    #[test]
    fn faults_drop_dead_gpus_from_placement_and_requeue_lost_work() {
        use clockwork_sim::engine::FaultKind;
        let mut s = FifoScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        s.add_gpu(gref(1), 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis(8));
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1), &mut ctx);
        s.on_request(Timestamp::ZERO, request(2, 1), &mut ctx);
        let _ = ctx.take_actions(); // one request per worker, round-robin
                                    // Worker 0 dies: its in-flight request requeues and goes to worker 1.
        s.on_fault(
            Timestamp::from_millis(1),
            &FaultKind::WorkerCrash { worker: 0 },
            &mut ctx,
        );
        let actions = ctx.take_actions();
        assert!(!actions.is_empty(), "the lost request is redispatched");
        assert!(
            actions.iter().all(|(w, _)| *w == WorkerId(1)),
            "nothing may be placed on the dead worker"
        );
        // New requests also avoid the dead worker.
        s.on_request(Timestamp::from_millis(2), request(3, 1), &mut ctx);
        assert!(ctx.take_actions().iter().all(|(w, _)| *w == WorkerId(1)));
        // The restart re-admits it into the rotation.
        s.on_fault(
            Timestamp::from_millis(3),
            &FaultKind::WorkerRestart { worker: 0 },
            &mut ctx,
        );
        let _ = ctx.take_actions();
        s.on_request(Timestamp::from_millis(4), request(4, 1), &mut ctx);
        s.on_request(Timestamp::from_millis(4), request(5, 1), &mut ctx);
        let workers: std::collections::BTreeSet<WorkerId> =
            ctx.take_actions().iter().map(|(w, _)| *w).collect();
        assert!(
            workers.contains(&WorkerId(0)),
            "recovered worker is back in the round-robin: {workers:?}"
        );
    }

    #[test]
    fn a_discipline_that_never_asks_which_holder_moved_records_nothing() {
        // Room for one model on each of two GPUs, and three models asked for
        // in turn: every request evicts (an UNLOAD) and loads on demand, and
        // every third LOAD fails. Each is a holder-list change the tracker
        // counts, but fifo never asks which one moved, so none is recorded.
        let mut s = FifoScheduler::new();
        s.add_gpu(gref(0), 10, PAGE);
        s.add_gpu(gref(1), 10, PAGE);
        for m in 0..3 {
            s.add_model(ModelId(m), resnet(), Nanos::from_millis(8));
        }
        let mut ctx = SchedulerCtx::new();
        let mut loads = 0;
        for i in 0..300u64 {
            let now = Timestamp::from_millis(i);
            s.on_request(now, request(i, (i % 3) as u32), &mut ctx);
            for (worker, action) in ctx.take_actions() {
                if action.kind.type_name() != "LOAD" {
                    continue;
                }
                loads += 1;
                let outcome = if loads % 3 == 0 {
                    ActionOutcome::Error {
                        error: clockwork_worker::ActionError::WindowElapsed,
                        at: now,
                    }
                } else {
                    ActionOutcome::Success(ActionTiming {
                        received: now,
                        start: now,
                        end: now,
                        device_duration: Nanos::from_millis(8),
                    })
                };
                let result = ActionResult {
                    action_id: action.id,
                    worker,
                    gpu: action.gpu,
                    model: action.kind.model(),
                    action_type: "LOAD",
                    batch: 1,
                    request_ids: vec![],
                    expected_duration: action.expected_duration,
                    outcome,
                };
                s.on_result(now, &result, &mut ctx);
            }
        }
        assert!(loads >= 300, "{loads} LOADs");
        // Each copy joined a holder list and, but for the two still
        // resident, left it again.
        assert!(s.tracker.holders_epoch() >= 2 * loads - 2);
        assert_eq!(s.tracker.recorded_holder_moves(), 0);
    }

    #[test]
    fn unknown_models_are_rejected() {
        let mut s = FifoScheduler::new();
        s.add_gpu(gref(0), 100, PAGE);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 42), &mut ctx);
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(!responses[0].outcome.is_success());
    }
}
