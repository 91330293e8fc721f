//! Facade guarantees of the request-lifecycle trace layer.
//!
//! Two properties make the tracer trustworthy enough to blame SLO misses
//! on. *Conservation*: the span stream accounts for every outcome the
//! telemetry recorded — each delivered response produced exactly one
//! terminal span (`Completed` or `DeadlineMissed`), each rejection exactly
//! one `Rejected` span, and the counts reconcile with `SystemTelemetry`.
//! *Zero perturbation*: turning tracing on is pure observation — the
//! response digest and every outcome count are byte-identical to the
//! untraced run of the same spec, and an untraced run carries no tracer
//! at all.
//!
//! A third makes the per-member spans trustworthy: a `MemberDone` is a
//! completion — recorded when the worker hands a successful INFER's result
//! over, never for an INFER a fault destroyed mid-flight.
//!
//! Baseline disciplines are exercised in the bench crate (the facade does
//! not link `clockwork-baselines`); the registry's built-ins plus the
//! no-batch ablation cover all three code paths that emit spans here.

use std::collections::{HashMap, HashSet};

use clockwork::prelude::*;

/// The smoke fleet pushed past its knee so that all three outcome classes
/// (met SLO, missed SLO, rejected) actually occur.
fn overloaded_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec::smoke(seed)
        .named("trace_overload")
        .with_rate_multiplier(3.0)
        .with_trace(true)
}

/// Counts of the span kinds the conservation identity is stated over.
#[derive(Default)]
struct SpanCounts {
    enqueued: HashSet<u64>,
    completed: u64,
    missed: u64,
    rejected: u64,
    terminal_requests: HashSet<u64>,
    rejected_requests: HashSet<u64>,
}

fn count_spans(tracer: &RingTracer) -> SpanCounts {
    let mut counts = SpanCounts::default();
    for record in tracer.records() {
        match &record.event {
            LifecycleEvent::Enqueued { request, .. } => {
                counts.enqueued.insert(*request);
            }
            LifecycleEvent::Completed { request, .. } => {
                counts.completed += 1;
                assert!(
                    counts.terminal_requests.insert(*request),
                    "request {request} got two terminal spans"
                );
            }
            LifecycleEvent::DeadlineMissed { request, .. } => {
                counts.missed += 1;
                assert!(
                    counts.terminal_requests.insert(*request),
                    "request {request} got two terminal spans"
                );
            }
            LifecycleEvent::Rejected { request, .. } => {
                counts.rejected += 1;
                assert!(
                    counts.rejected_requests.insert(*request),
                    "request {request} got two rejected spans"
                );
            }
            _ => {}
        }
    }
    counts
}

#[test]
fn every_outcome_has_exactly_one_terminal_span() {
    let experiment = Experiment::new(overloaded_spec(21));
    let mut registry = SchedulerRegistry::builtin();
    registry.register(Box::new(ClockworkNoBatchFactory));
    for factory in registry.iter() {
        let report = experiment.run(factory);
        let tracer = report.trace().expect("spec asked for tracing");
        assert_eq!(tracer.dropped_spans(), 0, "smoke run must fit the ring");
        let counts = count_spans(tracer);
        let m = report.metrics();

        // All three outcome classes occurred, so the identities below are
        // not vacuous.
        assert!(
            m.goodput > 0,
            "{}: some requests met SLO",
            report.discipline
        );
        assert!(
            counts.missed + counts.rejected > 0,
            "{}: overload produced misses or rejections",
            report.discipline
        );

        // Conservation against telemetry: delivered responses <-> terminal
        // spans, rejections <-> rejected spans, and nothing double-counted.
        assert_eq!(
            counts.completed + counts.missed,
            m.successes,
            "{}: one terminal span per delivered response",
            report.discipline
        );
        assert_eq!(
            counts.completed, m.goodput,
            "{}: completed spans are exactly the SLO-met responses",
            report.discipline
        );
        assert_eq!(
            counts.rejected,
            report.rejected(),
            "{}: one rejected span per rejection",
            report.discipline
        );
        assert_eq!(
            counts.completed + counts.missed + counts.rejected,
            m.total_requests,
            "{}: spans reconcile with the exactly-once identity",
            report.discipline
        );

        // Every terminal or rejected request was first enqueued.
        for request in counts
            .terminal_requests
            .iter()
            .chain(&counts.rejected_requests)
        {
            assert!(
                counts.enqueued.contains(request),
                "{}: request {request} reached an outcome without an Enqueued span",
                report.discipline
            );
        }
    }
}

#[test]
fn tracing_is_pure_observation() {
    let traced_spec = overloaded_spec(22);
    let untraced_spec = traced_spec.clone().with_trace(false);
    let mut registry = SchedulerRegistry::builtin();
    registry.register(Box::new(ClockworkNoBatchFactory));
    for factory in registry.iter() {
        let traced = Experiment::new(traced_spec.clone()).run(factory);
        let untraced = Experiment::new(untraced_spec.clone()).run(factory);
        assert!(traced.trace().is_some());
        assert!(untraced.trace().is_none(), "tracing off carries no tracer");
        assert_eq!(
            traced.digest(),
            untraced.digest(),
            "{}: tracing must not perturb the response stream",
            factory.name()
        );
        let (a, b) = (traced.metrics(), untraced.metrics());
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.goodput, b.goodput);
        assert_eq!(traced.rejected(), untraced.rejected());
        assert_eq!(traced.events_processed(), untraced.events_processed());
    }
}

#[test]
fn traced_runs_are_deterministic() {
    let experiment = Experiment::new(overloaded_spec(23));
    let a = experiment.run(&ClockworkFactory::default());
    let b = experiment.run(&ClockworkFactory::default());
    let (ta, tb) = (a.trace().unwrap(), b.trace().unwrap());
    assert_eq!(ta.digest(), tb.digest(), "same seed, same span stream");
    assert_eq!(ta.len(), tb.len());
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn every_member_done_span_is_a_completion() {
    // The scripted churn crashes a worker and fails GPUs while INFERs are
    // executing on them.
    let smoke = ScenarioSpec::smoke(7).named("trace_churn");
    let spec = smoke
        .clone()
        .with_faults(smoke.scripted_churn())
        .with_trace(true);
    let mut registry = SchedulerRegistry::builtin();
    registry.register(Box::new(ClockworkNoBatchFactory));
    for factory in registry.iter() {
        let report = Experiment::new(spec.clone()).run(factory);
        let name = factory.name();
        assert!(report.drained(), "{name}: the run drains");
        let tracer = report.trace().expect("spec asked for tracing");
        assert_eq!(
            tracer.dropped_spans(),
            0,
            "{name}: smoke run must fit the ring"
        );
        let mut terminal: HashMap<(u64, u32, u64), u32> = HashMap::new();
        for record in tracer.records() {
            if let LifecycleEvent::Completed {
                request,
                batch,
                completed,
                ..
            }
            | LifecycleEvent::DeadlineMissed {
                request,
                batch,
                completed,
                ..
            } = record.event
            {
                *terminal.entry((request, batch, completed)).or_default() += 1;
            }
        }
        let mut members = 0;
        for record in tracer.records() {
            if let LifecycleEvent::MemberDone {
                request,
                batch,
                completed,
                ..
            } = record.event
            {
                members += 1;
                assert_eq!(
                    record.at, completed,
                    "{name}: request {request}'s member span is recorded at its completion"
                );
                assert_eq!(
                    terminal.get(&(request, batch, completed)),
                    Some(&1),
                    "{name}: request {request}'s member span (batch {batch}, at {completed}) \
                     matches exactly one terminal span"
                );
            }
        }
        assert!(members > 0, "{name}: INFERs completed");
    }
}
