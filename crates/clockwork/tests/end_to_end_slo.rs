//! SLO-focused end-to-end tests: the properties the paper's evaluation
//! highlights, checked as invariants on small scenarios.

use clockwork::prelude::*;

/// Warm, underloaded ResNet50 must meet a 10 ms SLO essentially always
/// (the §6.3 "how low can Clockwork go" property at low rates).
#[test]
fn warm_models_meet_10ms_slos_at_moderate_rate() {
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        seed: 200,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 2);
    // Warm-up requests with a loose SLO.
    for &id in &ids {
        system.submit_request(Timestamp::ZERO, id, Nanos::from_millis(500));
    }
    let trace = OpenLoopClient::generate_many(
        &ids,
        100.0,
        Nanos::from_millis(10),
        Nanos::from_secs(5),
        &mut SimRng::seeded(1),
    );
    // Shift the open-loop trace to start after warm-up.
    let shifted = Trace::new(
        trace
            .iter()
            .map(|e| TraceEvent {
                at: e.at + Nanos::from_millis(100),
                ..e
            })
            .collect(),
    );
    let total = shifted.len() as u64;
    system.submit_trace(&shifted);
    system.run_to_completion();
    let m = system.telemetry().metrics();
    let slo_fraction = m.goodput as f64 / (total + 2) as f64;
    // 200 r/s against one GPU at a 3.8x SLO multiplier sits near the paper's
    // Fig. 7 crossover for this multiplier, so a small number of unlucky
    // arrival bursts are rejected by admission control (~2 % with this seed).
    // The invariant is "almost everything meets 10 ms", not "everything".
    assert!(
        slo_fraction > 0.97,
        "10 ms SLO satisfaction {slo_fraction} over {total} requests"
    );
}

/// Admitted requests never blow through their SLO by more than the network
/// allowance — the "no request exceeded 100 ms" property of Fig. 6/8.
#[test]
fn completed_requests_stay_close_to_their_slo() {
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        seed: 201,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 8);
    let trace = OpenLoopClient::generate_many(
        &ids,
        40.0,
        Nanos::from_millis(100),
        Nanos::from_secs(5),
        &mut SimRng::seeded(2),
    );
    system.submit_trace(&trace);
    system.run_to_completion();
    for response in system.telemetry().responses() {
        if let Some(latency) = response.latency() {
            let slack = Nanos::from_millis(5); // network + output delivery
            assert!(
                response.arrival + latency <= response.deadline + slack,
                "request {} exceeded its SLO: latency {}",
                response.request,
                latency
            );
        }
    }
}

/// Under overload the system sheds load by rejecting requests early instead
/// of serving everything late: goodput stays close to the executed
/// throughput.
#[test]
fn overload_sheds_load_instead_of_missing_slos() {
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        seed: 202,
        keep_responses: false,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 4);
    // ~1500 r/s of batch-1-ish demand on a single GPU is far beyond capacity.
    let trace = OpenLoopClient::generate_many(
        &ids,
        375.0,
        Nanos::from_millis(25),
        Nanos::from_secs(4),
        &mut SimRng::seeded(3),
    );
    system.submit_trace(&trace);
    system.run_until(Timestamp::from_secs(6));
    let m = system.telemetry().metrics();
    let rejected: u64 = m.rejections.values().sum();
    assert!(rejected > 0, "overload must trigger rejections");
    // Of the requests that were executed, the vast majority met the SLO.
    let executed_ok = m.goodput as f64 / m.successes.max(1) as f64;
    assert!(
        executed_ok > 0.9,
        "executed requests should meet SLOs: {executed_ok}"
    );
}

/// Tight SLOs are refused up-front when impossible (1x multiplier in Fig. 7),
/// and accepted once the multiplier leaves room for queueing.
#[test]
fn slo_multiplier_sweep_matches_fig7_shape() {
    let zoo = ModelZoo::new();
    let base_ms = 2.61;
    let satisfaction_at = |mult: f64| {
        let mut system = ServingSystem::new(SystemConfig {
            seed: 203,
            keep_responses: false,
            ..Default::default()
        });
        let ids = system.register_copies(zoo.resnet50(), 4);
        let trace = OpenLoopClient::generate_many(
            &ids,
            50.0,
            Nanos::from_millis_f64(base_ms * mult),
            Nanos::from_secs(3),
            &mut SimRng::seeded(4),
        );
        system.submit_trace(&trace);
        system.run_until(Timestamp::from_secs(5));
        system.telemetry().metrics().satisfaction()
    };
    let tight = satisfaction_at(1.0);
    let medium = satisfaction_at(5.1);
    let loose = satisfaction_at(25.6);
    assert!(
        tight < 0.6,
        "1x the exec latency leaves no headroom: {tight}"
    );
    assert!(medium > tight, "satisfaction should improve with the SLO");
    assert!(
        loose > 0.95,
        "a 25x SLO should be nearly always met: {loose}"
    );
}
