//! End-to-end property tests over the assembled serving system.
//!
//! These run the full stack — controller, scheduler, simulated workers, GPUs
//! and PCIe links — on small randomly generated workloads and check the
//! guarantees Clockwork makes regardless of workload: every request is
//! answered exactly once, no request is reported as meeting an SLO it missed,
//! admission control never lets an impossible SLO "succeed", runs are
//! deterministic given a seed, and accounting identities between telemetry
//! counters (the per-second rows included) always hold.

use std::collections::HashSet;

use proptest::prelude::*;

use clockwork::prelude::*;
use clockwork_controller::request::RequestOutcome;
use clockwork_workload::trace::{Trace, TraceEvent};

/// A compact description of a randomly generated workload.
#[derive(Clone, Debug)]
struct WorkloadCase {
    /// Number of distinct registered model instances (all ResNet50 copies).
    models: u32,
    /// (model index, arrival ms, slo ms) triples.
    requests: Vec<(u32, u64, u64)>,
    /// RNG seed for the system.
    seed: u64,
}

fn workload_case() -> impl Strategy<Value = WorkloadCase> {
    (1u32..6, 1u64..1_000_000)
        .prop_flat_map(|(models, seed)| {
            let req = (0..models, 0u64..2_000, 5u64..500);
            (
                Just(models),
                proptest::collection::vec(req, 1..80),
                Just(seed),
            )
        })
        .prop_map(|(models, requests, seed)| WorkloadCase {
            models,
            requests,
            seed,
        })
}

/// Builds a single-worker system with `models` ResNet50 copies, replays the
/// case's requests, and returns the system after completion.
fn run_case(case: &WorkloadCase) -> (ServingSystem, Vec<ModelId>) {
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        seed: case.seed,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), case.models as usize);
    let events: Vec<TraceEvent> = case
        .requests
        .iter()
        .map(|&(model, at_ms, slo_ms)| TraceEvent {
            at: Timestamp::from_millis(at_ms),
            model: ids[model as usize],
            slo: Nanos::from_millis(slo_ms),
            tier: Tier::Strict,
        })
        .collect();
    system.submit_trace(&Trace::new(events));
    system.run_to_completion();
    (system, ids)
}

proptest! {
    // End-to-end cases each simulate seconds of virtual time; keep the case
    // count moderate so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_request_is_answered_exactly_once(case in workload_case()) {
        let (system, ids) = run_case(&case);
        let responses = system.telemetry().responses();
        prop_assert_eq!(responses.len(), case.requests.len());
        let mut seen = HashSet::new();
        for r in responses {
            prop_assert!(seen.insert(r.request), "request {} answered twice", r.request);
            prop_assert!(ids.contains(&r.model));
        }
        let metrics = system.telemetry().metrics();
        prop_assert_eq!(metrics.total_requests, case.requests.len() as u64);
    }

    #[test]
    fn no_successful_response_misses_its_deadline_silently(case in workload_case()) {
        let (system, _) = run_case(&case);
        let mut goodput = 0u64;
        for r in system.telemetry().responses() {
            match r.outcome {
                RequestOutcome::Success { completed, .. } => {
                    prop_assert!(completed >= r.arrival, "completed before arrival");
                    if completed <= r.deadline {
                        goodput += 1;
                    }
                    // The served latency matches the completion timestamps.
                    let lat = r.latency().expect("successful responses have a latency");
                    prop_assert_eq!(lat, completed - r.arrival);
                }
                RequestOutcome::Rejected { at, .. } => {
                    prop_assert!(at >= r.arrival, "rejected before arrival");
                    prop_assert_eq!(r.latency(), None);
                }
            }
        }
        // Telemetry's goodput counter agrees with recomputing it from the
        // raw responses.
        let metrics = system.telemetry().metrics();
        prop_assert_eq!(metrics.goodput, goodput);
    }

    #[test]
    fn telemetry_counters_satisfy_accounting_identities(case in workload_case()) {
        let (system, _) = run_case(&case);
        let metrics = system.telemetry().metrics();
        let rejected: u64 = metrics.rejections.values().sum();
        prop_assert_eq!(metrics.successes + rejected, metrics.total_requests,
            "successes + rejections must cover every request");
        prop_assert!(metrics.goodput <= metrics.successes);
        prop_assert!(metrics.cold_starts <= metrics.successes);
        prop_assert!((0.0..=1.0).contains(&metrics.satisfaction()));
        prop_assert!((0.0..=1.0).contains(&metrics.cold_start_fraction()));
        prop_assert!(metrics.goodput_rate() <= metrics.throughput_rate() + 1e-9);
        prop_assert_eq!(metrics.latency.count(), metrics.successes);
        prop_assert_eq!(metrics.goodput_latency.count(), metrics.goodput);
        if metrics.successes > 0 {
            prop_assert!(metrics.mean_batch >= 1.0);
        }
    }

    #[test]
    fn per_second_rows_conserve_the_run_totals(case in workload_case()) {
        let (system, _) = run_case(&case);
        let telemetry = system.telemetry();
        let metrics = telemetry.metrics();
        let rows = telemetry.seconds();
        let sum = |field: fn(&SecondRow) -> u64| rows.iter().map(field).sum::<u64>();
        prop_assert_eq!(sum(|r| r.arrivals), metrics.total_requests);
        prop_assert_eq!(sum(|r| r.successes), metrics.successes);
        prop_assert_eq!(sum(|r| r.goodput), metrics.goodput);
        prop_assert_eq!(sum(|r| r.cold_starts), metrics.cold_starts);
        if metrics.successes > 0 {
            let mean = sum(|r| r.batch_sum) as f64 / metrics.successes as f64;
            prop_assert_eq!(mean, metrics.mean_batch);
        }
    }

    #[test]
    fn impossible_slos_are_rejected_not_served_late(case in workload_case()) {
        // Re-run the case with every SLO forced below the batch-1 execution
        // latency: nothing can be served within such an SLO, and Clockwork's
        // admission control must reject rather than serve late.
        let zoo = ModelZoo::new();
        let mut system = ServingSystem::new(SystemConfig {workers: 1, seed: case.seed, ..Default::default() });
        let ids = system.register_copies(zoo.resnet50(), case.models as usize);
        let events: Vec<TraceEvent> = case
            .requests
            .iter()
            .map(|&(model, at_ms, _)| TraceEvent {
                at: Timestamp::from_millis(at_ms),
                model: ids[model as usize],
                slo: Nanos::from_micros(500),
                tier: Tier::Strict,
            })
            .collect();
        system.submit_trace(&Trace::new(events));
        system.run_to_completion();
        let metrics = system.telemetry().metrics();
        prop_assert_eq!(metrics.goodput, 0, "a sub-execution-time SLO cannot be met");
        for r in system.telemetry().responses() {
            if let RequestOutcome::Success { completed, .. } = r.outcome {
                prop_assert!(completed > r.deadline,
                    "response claims to have met an impossible SLO");
            }
        }
    }

    #[test]
    fn runs_are_deterministic_given_the_seed(case in workload_case()) {
        let (a, _) = run_case(&case);
        let (b, _) = run_case(&case);
        let ra = a.telemetry().responses();
        let rb = b.telemetry().responses();
        prop_assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(rb.iter()) {
            prop_assert_eq!(x, y);
        }
        let ma = a.telemetry().metrics();
        let mb = b.telemetry().metrics();
        prop_assert_eq!(ma.goodput, mb.goodput);
        prop_assert_eq!(ma.successes, mb.successes);
        prop_assert_eq!(ma.cold_starts, mb.cold_starts);
    }

    #[test]
    fn no_slo_batch_requests_are_never_rejected_for_slo_reasons(case in workload_case()) {
        // Requests without an SLO (batch clients, §6.4) may be delayed
        // arbitrarily but must never be rejected by admission control.
        let zoo = ModelZoo::new();
        let mut system = ServingSystem::new(SystemConfig {workers: 1, seed: case.seed, ..Default::default() });
        let ids = system.register_copies(zoo.resnet50(), case.models as usize);
        let events: Vec<TraceEvent> = case
            .requests
            .iter()
            .map(|&(model, at_ms, _)| TraceEvent {
                at: Timestamp::from_millis(at_ms),
                model: ids[model as usize],
                slo: Nanos::MAX,
                tier: Tier::Strict,
            })
            .collect();
        system.submit_trace(&Trace::new(events));
        system.run_to_completion();
        let metrics = system.telemetry().metrics();
        prop_assert_eq!(metrics.successes, case.requests.len() as u64,
            "batch requests were dropped: {:?}", metrics.rejections);
    }
}
