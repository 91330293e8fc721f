//! The event-loop diet: wake-chain amplification must stay dead.
//!
//! Before PR 4, every "earlier wake" push left the superseded later wake in
//! the queue, and each of those no-op wakes re-armed the chain on delivery —
//! ~95 % of all simulation events in the fleet scenario were redundant
//! `WorkerWake`s (~29 M of 30.5 M). Now each worker's wake and the tick are
//! re-armable timers of the event queue (`EventQueue::arm`): at most one
//! wake per worker and one tick are ever pending, moved in place when their
//! time changes. These tests pin the diet down:
//! the no-op-wake ratio is bounded, wakes no longer dominate the event
//! stream, and the event-mix counters obey their conservation identity.

use clockwork::prelude::*;

fn run_fleet_smoke(seed: u64) -> ServingSystem {
    let zoo = ModelZoo::new();
    let duration = Nanos::from_secs(10);
    let config = AzureTraceConfig {
        functions: 80,
        models: 20,
        duration,
        target_rate: 400.0,
        slo: Nanos::from_millis(100),
        seed,
    };
    let trace = AzureTraceGenerator::new(config).generate();
    let mut system = ServingSystem::new(SystemConfig {
        workers: 4,
        gpus_per_worker: 2,
        seed,
        keep_responses: false,
        ..Default::default()
    });
    let varieties = zoo.all();
    for i in 0..config.models {
        system.register_model(&varieties[i % varieties.len()]);
    }
    system.submit_trace(&trace);
    system.run_to_completion();
    system
}

#[test]
fn noop_wake_ratio_is_bounded() {
    let system = run_fleet_smoke(7);
    let mix = system.telemetry().event_mix();
    let delivered = mix.delivered();
    assert!(delivered > 10_000, "scenario too small to be meaningful");
    // The satellite bound: WorkerWakes that found nothing actionable must be
    // a small fraction of all delivered events, not the 95 % of the
    // amplified chain.
    let noop_ratio = mix.noop_wakes() as f64 / delivered as f64;
    assert!(
        noop_ratio < 0.10,
        "no-op wakes are {:.1}% of {delivered} delivered events (limit 10%)",
        noop_ratio * 100.0
    );
    // Wakes as a whole must no longer dominate the event stream.
    let wakes = mix.entry("worker_wake").expect("wake kind exists");
    let wake_ratio = wakes.delivered as f64 / delivered as f64;
    assert!(
        wake_ratio < 0.50,
        "worker wakes are {:.1}% of delivered events — amplification is back",
        wake_ratio * 100.0
    );
}

#[test]
fn event_mix_obeys_conservation_and_matches_the_queue() {
    let system = run_fleet_smoke(7);
    let mix = system.telemetry().event_mix();
    // pushed == delivered + cancelled + live, per the mix...
    assert_eq!(
        mix.pushed(),
        mix.delivered() + mix.cancelled() + system.pending_events(),
        "event-mix conservation identity violated"
    );
    // ...and the per-kind mix must account for every push/pop/cancel the
    // queue itself saw (no uninstrumented push site).
    let (pushed, delivered, cancelled) = system.queue_counters();
    assert_eq!(mix.pushed(), pushed, "a push site is missing from the mix");
    assert_eq!(mix.delivered(), delivered);
    assert_eq!(mix.cancelled(), cancelled);
    assert_eq!(mix.delivered(), system.events_processed());
    // Only self-scheduled events (wakes, ticks) are ever cancelled.
    for entry in mix.entries() {
        if entry.kind != "worker_wake" && entry.kind != "scheduler_tick" {
            assert_eq!(entry.cancelled, 0, "{} events were cancelled", entry.kind);
        }
    }
    // A drained run leaves nothing live.
    assert_eq!(system.pending_events(), 0, "run_to_completion drained");
}

#[test]
fn the_diet_does_not_change_serving_outcomes_accounting() {
    // Cancelling redundant wakes removes events, not work: every request
    // still gets exactly one response.
    let system = run_fleet_smoke(7);
    let m = system.telemetry().metrics();
    let rejected: u64 = m.rejections.values().sum();
    assert_eq!(
        m.successes + rejected,
        m.total_requests,
        "successes + rejected must equal total"
    );
    assert!(m.satisfaction() > 0.5, "the fleet still serves its load");
}

// ---------------------------------------------------------------------
// Trace arrivals stay a sorted run beside the event heap: `submit_trace`
// must be indistinguishable — digest, event mix, queue counters — from
// submitting every arrival as its own event, which is what it used to do.
// ---------------------------------------------------------------------

/// Hands a trace to the system whole, or one `submit_request` per arrival
/// (the oracle: every arrival an event in the heap from the start).
fn submit(system: &mut ServingSystem, trace: &Trace, per_arrival: bool) {
    if per_arrival {
        for e in trace.iter() {
            assert_eq!(e.tier, Tier::Strict, "submit_request is strict-only");
            system.submit_request(e.at, e.model, e.slo);
        }
    } else {
        system.submit_trace(trace);
    }
}

/// Runs `spec` in 250 ms slices, checking the conservation identity at every
/// slice boundary and submitting `late` (if any) at the half-way boundary.
/// Returns the finished system and the largest `heap_len()` seen.
fn run_sliced(
    spec: &ScenarioSpec,
    factory: &dyn SchedulerFactory,
    per_arrival: bool,
    late: Option<&Trace>,
) -> (ServingSystem, usize) {
    let trace = spec.generated_trace().expect("smoke is trace-driven");
    let mut system = ServingSystem::from_spec(spec, factory);
    submit(&mut system, &trace, per_arrival);
    let horizon = spec.horizon();
    let half = Timestamp::from_nanos(horizon.as_nanos() / 2);
    let mut peak_heap = system.heap_len();
    let mut until = Timestamp::ZERO;
    while until < horizon {
        until = (until + Nanos::from_millis(250)).min(horizon);
        system.run_until(until);
        peak_heap = peak_heap.max(system.heap_len());
        let mix = system.telemetry().event_mix();
        assert_eq!(
            mix.pushed(),
            mix.delivered() + mix.cancelled() + system.pending_events(),
            "conservation identity violated mid-run at {until:?}"
        );
        if let (true, Some(late)) = (until == half, late) {
            submit(&mut system, late, per_arrival);
        }
    }
    (system, peak_heap)
}

#[test]
fn submit_trace_matches_per_arrival_submission() {
    let plain = ScenarioSpec::smoke(7);
    let churned = plain.clone().with_faults(plain.scripted_churn());
    // Arrivals over the same ten seconds, so a submission at the half-way
    // mark has some already in the past and some still to come.
    let first = plain.generated_trace().unwrap().len();
    assert!(first > 3_000, "scenario too small to be meaningful");
    let late = ScenarioSpec::smoke(8).generated_trace().unwrap();
    assert!(late.iter().next().expect("arrivals").at < Timestamp::from_secs(6));
    assert!(late.iter().last().expect("arrivals").at > Timestamp::from_secs(6));
    let factories: [&dyn SchedulerFactory; 2] = [&ClockworkFactory::default(), &FifoFactory];
    for spec in [&plain, &churned] {
        for factory in factories {
            for late in [None, Some(&late)] {
                let (lazy, lazy_peak) = run_sliced(spec, factory, false, late);
                let (oracle, oracle_peak) = run_sliced(spec, factory, true, late);
                let case = format!(
                    "{} / {} faults / late trace: {}",
                    factory.name(),
                    spec.faults.len(),
                    late.is_some()
                );
                assert_eq!(
                    lazy.telemetry().response_digest(),
                    oracle.telemetry().response_digest(),
                    "{case}"
                );
                assert_eq!(
                    lazy.telemetry().event_mix(),
                    oracle.telemetry().event_mix(),
                    "{case}"
                );
                assert_eq!(lazy.queue_counters(), oracle.queue_counters(), "{case}");
                assert_eq!(lazy.pending_events(), oracle.pending_events(), "{case}");
                let arrivals = lazy.telemetry().metrics().total_requests as usize;
                assert_eq!(arrivals, first + late.map_or(0, Trace::len), "{case}");
                if late.is_none() {
                    // Only what is in flight is ever in the heap.
                    assert!(
                        lazy_peak < arrivals / 10 && oracle_peak > arrivals / 2,
                        "{case}: heap peaked at {lazy_peak} (oracle {oracle_peak}) \
                         for {arrivals} arrivals"
                    );
                }
            }
        }
    }
}
