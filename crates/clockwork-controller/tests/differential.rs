//! Differential test: the change-driven tick pipeline against the
//! rebuild-every-tick oracle.
//!
//! The incremental scheduler's whole correctness argument is "every tick the
//! clean horizon skips would have been a no-op, and `next_tick` only prunes
//! grid points a full pass could not act on". This harness checks that claim
//! the blunt way: drive two copies of [`ClockworkScheduler`] through the same
//! random sequence of requests, synthesized results and fleet faults — one
//! gated exactly the way the facade gates it (`next_tick` + keep-earlier
//! tick reconciliation), the other running [`ClockworkScheduler::
//! run_full_pass`] at every point of the legacy fixed-cadence grid — and
//! require their emitted action and response streams to be byte-identical.
//!
//! The mini event loop here mirrors the facade's semantics precisely: a
//! single queued tick, kept when an earlier one is already pending, cancelled
//! on `None`, FIFO order within a timestamp. Results are synthesized from
//! each side's own actions (success at `window.earliest + expected_duration`)
//! so a divergence cannot cancel itself out.
//!
//! The same sequences also drive the oracles *inside* the pass. In debug
//! builds `ClockworkScheduler` checks, in every pass either side runs, the
//! ledger's charges against demands re-estimated from scratch, every emitted
//! LOAD-priority list — bit for bit — against the positive prefix of the
//! fully sorted list of all priorities, and, whenever the second INFER pass
//! is skipped as a provable repeat, that running it anyway sends nothing and
//! rebuilds no strategy. A drift panics inside the pass that caused it.
//! Release runs of this suite compare the streams only (the scheduler's own
//! unit tests run the ledger and priority oracles in release as well).

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use clockwork_controller::clockwork_scheduler::{
    ClockworkScheduler, ClockworkSchedulerConfig, TICK_INTERVAL,
};
use clockwork_controller::request::{InferenceRequest, RequestId};
use clockwork_controller::scheduler::{Scheduler, SchedulerCtx};
use clockwork_controller::worker_state::GpuRef;
use clockwork_model::zoo::ModelZoo;
use clockwork_model::{ModelId, Tier};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{
    Action, ActionKind, ActionOutcome, ActionResult, ActionTiming, GpuId, WorkerId,
};

const PAGE: u64 = 16 * 1024 * 1024;

/// One externally injected operation.
#[derive(Clone, Debug)]
enum ExternalOp {
    Request { model: u32, slo_us: u64 },
    GpuFail { worker: u32, gpu: u32 },
    GpuRecover { worker: u32, gpu: u32 },
    WorkerCrash { worker: u32 },
    WorkerRestart { worker: u32 },
}

fn external_op() -> impl Strategy<Value = ExternalOp> {
    // A selector in 0..10 rather than a weighted prop_oneof (the vendored
    // proptest has no weight support): 0-5 request, 6 fail, 7 recover,
    // 8 crash, 9 restart — requests dominate so most cases exercise real
    // scheduling.
    (0u32..10, 0u32..5, 500u64..50_000, 0u32..2, 0u32..2).prop_map(
        |(pick, model, slo_us, worker, gpu)| match pick {
            0..=5 => ExternalOp::Request { model, slo_us },
            6 => ExternalOp::GpuFail { worker, gpu },
            7 => ExternalOp::GpuRecover { worker, gpu },
            8 => ExternalOp::WorkerCrash { worker },
            _ => ExternalOp::WorkerRestart { worker },
        },
    )
}

/// Event kinds of the mini event loop.
enum Event {
    External(ExternalOp),
    Result(Box<ActionResult>),
    Tick,
}

/// How ticks are driven.
enum Cadence {
    /// The facade's contract: `next_tick` decides, skipped grid points
    /// early-out inside `on_tick`.
    Gated,
    /// The legacy rebuild-the-world cadence: a full pass at `now + interval`
    /// after every delivery, for as long as work is outstanding.
    Oracle,
}

/// Runs one scheduler through the op sequence and returns the serialized
/// action + response log.
fn run_side(cadence: Cadence, workers: u32, gpus: u32, ops: &[(u64, ExternalOp)]) -> Vec<String> {
    let zoo = ModelZoo::new();
    let spec = Arc::new(zoo.resnet50().clone());
    let mut sched = ClockworkScheduler::new(ClockworkSchedulerConfig::default());
    for w in 0..workers {
        for g in 0..gpus {
            sched.add_gpu(
                GpuRef {
                    worker: WorkerId(w),
                    gpu: GpuId(g),
                },
                810,
                PAGE,
            );
        }
    }
    // Register models 0..4; op model ids reach 4 so UnknownModel rejections
    // are exercised too.
    for m in 0..4u32 {
        sched.add_model(ModelId(m), Arc::clone(&spec), Nanos::from_millis(8));
    }

    // The queue mirrors the facade's: ordered by (time, push sequence),
    // cancellable by key — exactly one tick entry at a time.
    let mut queue: BTreeMap<(u64, u64), Event> = BTreeMap::new();
    let mut seq = 0u64;
    let mut push = |queue: &mut BTreeMap<(u64, u64), Event>, at: u64, event: Event| -> (u64, u64) {
        let key = (at, seq);
        seq += 1;
        queue.insert(key, event);
        key
    };
    let mut at = 0u64;
    for (dt_us, op) in ops {
        at += dt_us * 1_000;
        push(&mut queue, at, Event::External(op.clone()));
    }

    let mut ctx = SchedulerCtx::new();
    let mut log = Vec::new();
    let mut next_request = 0u64;
    let mut tick_key: Option<(u64, u64)> = None;
    let interval = TICK_INTERVAL;

    let mut steps = 0u64;
    while let Some((&key, _)) = queue.iter().next() {
        steps += 1;
        assert!(steps < 200_000, "differential harness did not drain");
        let (at, _) = key;
        let now = Timestamp::from_nanos(at);
        let event = queue.remove(&key).expect("key just observed");
        match event {
            Event::External(op) => match op {
                ExternalOp::Request { model, slo_us } => {
                    let id = RequestId(next_request);
                    next_request += 1;
                    sched.on_request(
                        now,
                        InferenceRequest {
                            id,
                            model: ModelId(model),
                            arrival: now,
                            slo: Nanos::from_micros(slo_us),
                            tier: Tier::Strict,
                        },
                        &mut ctx,
                    );
                }
                ExternalOp::GpuFail { worker, gpu } => {
                    sched.on_fault(now, &FaultKind::GpuFail { worker, gpu }, &mut ctx)
                }
                ExternalOp::GpuRecover { worker, gpu } => {
                    sched.on_fault(now, &FaultKind::GpuRecover { worker, gpu }, &mut ctx)
                }
                ExternalOp::WorkerCrash { worker } => {
                    sched.on_fault(now, &FaultKind::WorkerCrash { worker }, &mut ctx)
                }
                ExternalOp::WorkerRestart { worker } => {
                    sched.on_fault(now, &FaultKind::WorkerRestart { worker }, &mut ctx)
                }
            },
            Event::Result(result) => sched.on_result(now, &result, &mut ctx),
            Event::Tick => {
                tick_key = None;
                match cadence {
                    Cadence::Gated => {
                        sched.on_tick(now, &mut ctx);
                    }
                    Cadence::Oracle => sched.run_full_pass(now, &mut ctx),
                }
            }
        }

        // Drain: log actions/responses and synthesize successful results from
        // this side's own actions.
        for (worker, action) in ctx.take_actions() {
            log.push(describe_action(now, worker, &action));
            let result = synthesize_result(now, worker, &action);
            let end = result.outcome_end();
            push(&mut queue, end, Event::Result(Box::new(result)));
        }
        for response in ctx.take_responses() {
            log.push(format!(
                "{at} response req={} model={} outcome={:?}",
                response.request.0, response.model.0, response.outcome
            ));
        }

        // Reconcile the single queued tick, mirroring the facade: keep an
        // earlier pending tick, replace a later one, cancel on None.
        let desired = match cadence {
            Cadence::Gated => sched.next_tick(now),
            Cadence::Oracle => sched.has_outstanding_work().then(|| now + interval),
        };
        match (desired, tick_key) {
            (Some(tick), Some((pending_at, _))) if pending_at <= tick.as_nanos() => {}
            (Some(tick), prev) => {
                if let Some(key) = prev {
                    queue.remove(&key);
                }
                tick_key = Some(push(&mut queue, tick.as_nanos(), Event::Tick));
            }
            (None, Some(key)) => {
                queue.remove(&key);
                tick_key = None;
            }
            (None, None) => {}
        }
    }
    log
}

fn describe_action(now: Timestamp, worker: WorkerId, action: &Action) -> String {
    let kind = match &action.kind {
        ActionKind::Load { model } => format!("LOAD model={}", model.0),
        ActionKind::Unload { model } => format!("UNLOAD model={}", model.0),
        ActionKind::Infer {
            model,
            batch,
            request_ids,
        } => format!("INFER model={} batch={batch} reqs={request_ids:?}", model.0),
    };
    format!(
        "{} action worker={} gpu={} window=[{},{}] dur={} {kind}",
        now.as_nanos(),
        worker.0,
        action.gpu.0,
        action.window.earliest.as_nanos(),
        action.window.latest.as_nanos(),
        action.expected_duration.as_nanos(),
    )
}

fn synthesize_result(now: Timestamp, worker: WorkerId, action: &Action) -> ActionResult {
    let (model, action_type, batch, request_ids) = match &action.kind {
        ActionKind::Load { model } => (*model, "LOAD", 1, Vec::new()),
        ActionKind::Unload { model } => (*model, "UNLOAD", 1, Vec::new()),
        ActionKind::Infer {
            model,
            batch,
            request_ids,
        } => (*model, "INFER", *batch, request_ids.clone()),
    };
    let start = action.window.earliest.max(now);
    ActionResult {
        action_id: action.id,
        worker,
        gpu: action.gpu,
        model,
        action_type,
        batch,
        request_ids,
        expected_duration: action.expected_duration,
        outcome: ActionOutcome::Success(ActionTiming {
            received: now,
            start,
            end: start + action.expected_duration,
            device_duration: action.expected_duration,
        }),
    }
}

trait OutcomeEnd {
    fn outcome_end(&self) -> u64;
}

impl OutcomeEnd for ActionResult {
    fn outcome_end(&self) -> u64 {
        match &self.outcome {
            ActionOutcome::Success(t) => t.end.as_nanos(),
            _ => unreachable!("harness only synthesizes successes"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The gated incremental pipeline and the rebuild-every-tick oracle make
    /// identical decisions on arbitrary request/result/fault sequences.
    #[test]
    fn gated_ticks_match_rebuild_per_tick_oracle(
        workers in 1u32..3,
        gpus in 1u32..3,
        ops in proptest::collection::vec((1u64..5_000, external_op()), 1..40),
    ) {
        let gated = run_side(Cadence::Gated, workers, gpus, &ops);
        let oracle = run_side(Cadence::Oracle, workers, gpus, &ops);
        prop_assert_eq!(&gated, &oracle,
            "incremental scheduler diverged from the rebuild-per-tick oracle");
    }
}

/// Sustained overload of one model on a four-GPU fleet with SLOs loose
/// enough to queue: the GPU holding the model carries more demand than the
/// priority horizon, so a *held* model's LOAD priority turns positive and
/// replicas spread — the regime where dropping non-positive priorities before
/// the sort, the ledger's charges and the skipped repeat pass all matter.
#[test]
fn differential_overload_spreads_replicas() {
    let ops: Vec<(u64, ExternalOp)> = (0..400)
        .map(|i| {
            (
                25,
                ExternalOp::Request {
                    model: if i % 50 == 49 { 1 + (i / 50) % 3 } else { 0 },
                    slo_us: 400_000,
                },
            )
        })
        .collect();
    let gated = run_side(Cadence::Gated, 2, 2, &ops);
    let oracle = run_side(Cadence::Oracle, 2, 2, &ops);
    assert_eq!(gated, oracle);
    let loads_of_model_0 = gated.iter().filter(|l| l.contains("LOAD model=0")).count();
    assert!(
        loads_of_model_0 >= 2,
        "the overloaded model never earned a replica — the scenario is vacuous"
    );
}

/// A dense burst against one GPU: deep queues, batching, deadline expiry —
/// the regime where the urgency index and strategy cache earn their keep.
#[test]
fn differential_dense_burst_single_gpu() {
    let ops: Vec<(u64, ExternalOp)> = (0..120)
        .map(|i| {
            (
                if i % 7 == 0 { 900 } else { 40 },
                ExternalOp::Request {
                    model: i % 4,
                    slo_us: 3_000 + (i as u64 % 9) * 2_500,
                },
            )
        })
        .collect();
    let gated = run_side(Cadence::Gated, 1, 1, &ops);
    let oracle = run_side(Cadence::Oracle, 1, 1, &ops);
    assert_eq!(gated, oracle);
    assert!(
        gated.iter().any(|l| l.contains("INFER")),
        "burst produced no INFERs — the scenario is vacuous"
    );
}
