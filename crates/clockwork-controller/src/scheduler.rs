//! The `Scheduler` interface (§5.3).
//!
//! The controller separates mechanism from policy: a thin layer handles
//! networking, forwarding inputs, timestamping and timeouts, while all choice
//! is concentrated behind the [`Scheduler`] trait — `onRequest` and
//! `onResult` callbacks that may emit responses to clients through a
//! [`SchedulerCtx`] and actions to workers through the scheduler's
//! [`WorkerStateTracker`](crate::worker_state::WorkerStateTracker), which
//! writes them into the same context. Different scheduler implementations
//! (the Clockwork scheduler, the ablation schedulers, the baseline
//! disciplines) drop into the same harness.

use std::sync::Arc;

use clockwork_metrics::trace::TraceEvent;
use clockwork_model::{ModelId, ModelSpec};
use clockwork_sim::time::Timestamp;
use clockwork_worker::{Action, ActionId, ActionKind, TimeWindow, WorkerId};

use clockwork_sim::time::Nanos;

use crate::request::{InferenceRequest, Response};
use crate::sched_profile::SchedProfile;
use crate::worker_state::GpuRef;

/// What a tick actually did, reported back to the harness so telemetry can
/// distinguish productive passes from early-outs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickOutcome {
    /// The tick ran the full scheduling pass.
    Full,
    /// The tick returned immediately: nothing changed since the last pass
    /// and no time edge was crossed.
    Skipped,
}

/// The outbound channel a scheduler writes into during a callback.
#[derive(Debug, Default)]
pub struct SchedulerCtx {
    actions: Vec<(WorkerId, Action)>,
    responses: Vec<Response>,
    next_action_id: u64,
    tracing: bool,
    trace: Vec<TraceEvent>,
}

impl SchedulerCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        SchedulerCtx::default()
    }

    /// Mints, builds and queues an action for a worker, returning its id.
    /// Crate-private: a discipline sends through its tracker, which notes
    /// the action in the same call — so no action can leave the controller
    /// that the mirror has not seen.
    pub(crate) fn send_action(
        &mut self,
        to: GpuRef,
        kind: ActionKind,
        window: TimeWindow,
        expected_duration: Nanos,
    ) -> ActionId {
        let id = ActionId(self.next_action_id);
        self.next_action_id += 1;
        self.actions.push((
            to.worker,
            Action {
                id,
                gpu: to.gpu,
                kind,
                window,
                expected_duration,
            },
        ));
        id
    }

    /// Actions minted so far by this context: every INFER, LOAD and UNLOAD
    /// goes through [`Self::send_action`], which mints exactly one id.
    pub(crate) fn actions_sent(&self) -> u64 {
        self.next_action_id
    }

    /// Queues a response to a client.
    pub fn send_response(&mut self, response: Response) {
        self.responses.push(response);
    }

    /// Drains the queued actions (called by the controller harness).
    pub fn take_actions(&mut self) -> Vec<(WorkerId, Action)> {
        std::mem::take(&mut self.actions)
    }

    /// Drains the queued responses (called by the controller harness).
    pub fn take_responses(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.responses)
    }

    /// Drains the queued actions into a caller-provided buffer, reusing its
    /// capacity (the steady-state event loop calls this once per event).
    pub fn drain_actions_into(&mut self, out: &mut Vec<(WorkerId, Action)>) {
        out.clear();
        std::mem::swap(&mut self.actions, out);
    }

    /// Drains the queued responses into a caller-provided buffer, reusing its
    /// capacity.
    pub fn drain_responses_into(&mut self, out: &mut Vec<Response>) {
        out.clear();
        std::mem::swap(&mut self.responses, out);
    }

    /// Enables or disables lifecycle tracing. Off by default; the harness
    /// flips this on when the experiment requests a trace.
    pub fn set_tracing(&mut self, tracing: bool) {
        self.tracing = tracing;
    }

    /// Whether lifecycle tracing is on. Schedulers check this before building
    /// a [`TraceEvent`], so the off path is one predictable branch.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Queues a lifecycle trace event. No-op while tracing is off, so call
    /// sites that pass a cheap event need no guard of their own.
    #[inline]
    pub fn trace(&mut self, event: TraceEvent) {
        if self.tracing {
            self.trace.push(event);
        }
    }

    /// Drains the queued trace events into a caller-provided buffer, reusing
    /// its capacity.
    pub fn drain_trace_into(&mut self, out: &mut Vec<TraceEvent>) {
        out.clear();
        std::mem::swap(&mut self.trace, out);
    }
}

/// A scheduling policy plugged into the controller.
///
/// The harness owns mechanism (networking, timestamping, event delivery) and
/// a scheduler owns policy. Disciplines are constructed behind this trait as
/// `Box<dyn Scheduler>` — usually through a
/// [`SchedulerFactory`](crate::registry::SchedulerFactory) looked up in a
/// [`SchedulerRegistry`](crate::registry::SchedulerRegistry) — so the serving
/// system never needs to know the concrete set of disciplines.
pub trait Scheduler {
    /// Registers a GPU the scheduler may place work on. Called once per GPU
    /// at assembly time, and again at runtime when a new worker joins the
    /// fleet (`FaultKind::WorkerJoin`): a joining GPU must become schedulable
    /// as cold, empty capacity.
    fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64);

    /// Registers a model the scheduler may serve. `load_seed` is the initial
    /// LOAD-duration estimate (typically the PCIe transfer time of the
    /// weights) used until real measurements arrive.
    fn add_model(&mut self, id: ModelId, spec: Arc<ModelSpec>, load_seed: Nanos);

    /// A client request arrived.
    fn on_request(&mut self, now: Timestamp, request: InferenceRequest, ctx: &mut SchedulerCtx);

    /// A worker reported the result of an action.
    fn on_result(
        &mut self,
        now: Timestamp,
        result: &clockwork_worker::ActionResult,
        ctx: &mut SchedulerCtx,
    );

    /// Periodic opportunity to top up worker schedules and expire requests.
    /// Returns whether the tick did real work or early-outed; schedulers
    /// without an incremental core simply return [`TickOutcome::Full`].
    fn on_tick(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) -> TickOutcome;

    /// A fleet fault occurred (worker crash/restart/join, GPU
    /// failure/recovery, link degradation/partition). The scheduler must drop
    /// its view of dead capacity, resolve actions it will never hear back
    /// about, and re-admit recovered capacity as cold. Every discipline —
    /// Clockwork and the baselines alike — is fault-aware; there is
    /// deliberately no default implementation, so a new discipline cannot
    /// silently ignore churn. (Capacity added by a `WorkerJoin` is announced
    /// through [`Scheduler::add_gpu`] before this hook fires; most
    /// disciplines only need to re-run their dispatch pass here.)
    fn on_fault(
        &mut self,
        now: Timestamp,
        fault: &clockwork_sim::engine::FaultKind,
        ctx: &mut SchedulerCtx,
    );

    /// When the scheduler next wants `on_tick` to run, if at all. An
    /// incremental scheduler returns `None` while quiescent so idle ticks
    /// are never scheduled.
    fn next_tick(&self, now: Timestamp) -> Option<Timestamp>;

    /// The scheduler's self-profiling counters. Disciplines without an
    /// incremental core report the default (all-zero) profile. The tick
    /// counts are left at zero: the driver counts the [`TickOutcome`] each
    /// `on_tick` returns.
    fn sched_profile(&self) -> SchedProfile {
        SchedProfile::default()
    }

    /// A short human-readable name (used in experiment output). Required so
    /// experiment output can never show an anonymous discipline.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_model::ModelId;
    use clockwork_worker::GpuId;

    #[test]
    fn context_mints_unique_ids_and_drains() {
        let mut ctx = SchedulerCtx::new();
        let mut send = |worker| {
            let to = GpuRef {
                worker: WorkerId(worker),
                gpu: GpuId(0),
            };
            let load = ActionKind::Load { model: ModelId(3) };
            ctx.send_action(to, load, TimeWindow::always(), Nanos::from_millis(8))
        };
        let (a, b) = (send(0), send(1));
        assert_ne!(a, b);
        let actions = ctx.take_actions();
        assert_eq!(actions.len(), 2);
        assert_eq!(actions[1].0, WorkerId(1));
        assert_eq!(actions[1].1.id, b);
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn responses_queue_and_drain() {
        use crate::request::{RequestId, RequestOutcome};
        let mut ctx = SchedulerCtx::new();
        ctx.send_response(Response {
            request: RequestId(1),
            model: ModelId(1),
            arrival: Timestamp::ZERO,
            deadline: Timestamp::from_millis(100),
            outcome: RequestOutcome::Rejected {
                at: Timestamp::ZERO,
                reason: crate::request::RejectReason::UnknownModel,
            },
        });
        assert_eq!(ctx.take_responses().len(), 1);
        assert!(ctx.take_responses().is_empty());
    }
}
