//! Trace-replay integration tests: the Azure-like workload end to end.

use clockwork::prelude::*;

fn azure_system(models: usize, seed: u64) -> (ServingSystem, Trace) {
    let zoo = ModelZoo::new();
    let config = AzureTraceConfig {
        functions: 200,
        models,
        duration: Nanos::from_minutes(2),
        target_rate: 300.0,
        slo: Nanos::from_millis(100),
        seed,
    };
    let trace = AzureTraceGenerator::new(config).generate();
    let mut system = ServingSystem::new(SystemConfig {
        workers: 2,
        seed,
        keep_responses: false,
        ..Default::default()
    });
    for i in 0..models {
        system.register_model(&zoo.all()[i % zoo.len()]);
    }
    (system, trace)
}

#[test]
fn azure_like_trace_is_served_with_high_satisfaction() {
    let (mut system, trace) = azure_system(60, 400);
    let total = trace.len() as u64;
    system.submit_trace(&trace);
    system.run_until(Timestamp::ZERO + Nanos::from_minutes(2) + Nanos::from_secs(2));
    let m = system.telemetry().metrics();
    assert_eq!(m.total_requests, total);
    assert!(
        m.satisfaction() > 0.9,
        "satisfaction {} over {} requests",
        m.satisfaction(),
        total
    );
    assert!(m.cold_starts > 0, "a skewed trace must produce cold starts");
}

#[test]
fn scaling_a_trace_up_increases_load_and_cold_starts() {
    let run = |factor: f64| {
        let (mut system, trace) = azure_system(60, 402);
        // Every arrival time divided by `factor`.
        let scaled = Trace::new(
            trace
                .iter()
                .map(|e| TraceEvent {
                    at: Timestamp::from_nanos((e.at.as_nanos() as f64 / factor).round() as u64),
                    ..e
                })
                .collect(),
        );
        // Scaling compresses arrivals, so the offered rate itself scales.
        let rate = |t: &Trace| t.len() as f64 / t.iter().last().expect("arrivals").at.as_secs_f64();
        assert!(
            rate(&scaled) > rate(&trace) * (factor - 0.01),
            "{factor}x offered {} vs base {}",
            rate(&scaled),
            rate(&trace)
        );
        // Scaling compresses timing only: the set of models touched by the
        // trace itself is unchanged.
        let models = |t: &Trace| {
            t.iter()
                .map(|e| e.model)
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(
            models(&scaled),
            models(&trace),
            "{factor}x must preserve the trace's model set"
        );
        system.submit_trace(&scaled);
        system.run_until(Timestamp::ZERO + Nanos::from_minutes(3));
        let m = system.telemetry().metrics();
        let rejected: u64 = m.rejections.values().sum();
        (
            m.total_requests,
            m.throughput_rate(),
            rejected,
            m.cold_starts,
        )
    };
    let (total_1x, rate_1x, rejected_1x, cold_1x) = run(1.0);
    let (total_2x, rate_2x, rejected_2x, cold_2x) = run(2.0);
    assert_eq!(total_1x, total_2x, "scaling changes timing, not count");
    // The doubled offered load pushes the two-GPU cluster towards its
    // capacity: served throughput rises, but sublinearly, because admission
    // control sheds the excess rather than serving it late.
    assert!(
        rate_2x > rate_1x,
        "2x trace should raise served throughput: {rate_2x} vs {rate_1x}"
    );
    assert!(
        rejected_2x >= rejected_1x,
        "2x trace cannot shed less load: {rejected_2x} vs {rejected_1x}"
    );
    // Cold-start *completions* are not monotone in offered load: compressing
    // arrivals leaves less idle time for evictions between touches, and
    // admission control sheds more cold-model requests outright. Both runs
    // must still pay cold starts for this skewed trace, though.
    assert!(
        cold_1x > 0 && cold_2x > 0,
        "skewed azure traces must produce cold starts at any rate: {cold_1x} / {cold_2x}"
    );
}

#[test]
fn truncated_traces_replay_the_prefix_only() {
    let (mut system, trace) = azure_system(40, 403);
    let cut = Timestamp::from_secs(30);
    let truncated = Trace::new(trace.iter().take_while(|e| e.at < cut).collect());
    assert!(truncated.len() < trace.len());
    assert!(truncated.iter().all(|e| e.at < cut));
    system.submit_trace(&truncated);
    system.run_to_completion();
    assert_eq!(
        system.telemetry().metrics().total_requests,
        truncated.len() as u64
    );
}
