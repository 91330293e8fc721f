//! Integration tests comparing serving disciplines on the same substrate.
//!
//! These lived in the facade crate while it still linked the baselines;
//! since the registry inversion the facade only knows the `Scheduler` trait,
//! so the cross-discipline suites live here, where every discipline crate is
//! in scope. The scenario is declarative: one `ScenarioSpec`, every
//! discipline, via `Experiment::run`.

use clockwork::prelude::*;
use clockwork_baselines::{ClipperFactory, InfaasFactory};

fn closed_loop_spec(copies: usize, slo_ms: u64, seconds: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "baseline_integration".to_string(),
        workers: 1,
        gpus_per_worker: 1,
        models: copies,
        model_set: ModelSet::Resnet50Copies,
        workload: WorkloadSpec::ClosedLoop { concurrency: 16 },
        slo_ms,
        duration_secs: seconds,
        drain_secs: 0,
        keep_responses: false,
        ..ScenarioSpec::smoke(300)
    }
}

fn run_closed_loop(
    factory: &dyn SchedulerFactory,
    copies: usize,
    slo_ms: u64,
    seconds: u64,
) -> ExperimentMetrics {
    Experiment::new(closed_loop_spec(copies, slo_ms, seconds))
        .run(factory)
        .metrics()
}

#[test]
fn all_disciplines_serve_a_light_workload() {
    let mut registry = SchedulerRegistry::builtin();
    clockwork_baselines::register_baselines(&mut registry);
    assert_eq!(
        registry.names(),
        vec!["clockwork", "fifo", "clipper", "infaas"]
    );
    for factory in registry.iter() {
        let label = factory.name();
        let m = run_closed_loop(factory, 2, 500, 3);
        assert!(m.successes > 500, "{label}: successes {}", m.successes);
        assert!(
            m.satisfaction() > 0.5,
            "{label}: satisfaction {}",
            m.satisfaction()
        );
    }
}

#[test]
fn clockwork_beats_baselines_at_tight_slos() {
    // The Fig. 5 headline: below ~100 ms SLO the reactive baselines' goodput
    // collapses while Clockwork keeps serving.
    let clockwork = run_closed_loop(&ClockworkFactory::default(), 15, 50, 8);
    let clipper = run_closed_loop(&ClipperFactory, 15, 50, 8);
    let infaas = run_closed_loop(&InfaasFactory, 15, 50, 8);
    assert!(
        clockwork.goodput_rate() > clipper.goodput_rate(),
        "clockwork {} vs clipper {}",
        clockwork.goodput_rate(),
        clipper.goodput_rate()
    );
    assert!(
        clockwork.goodput_rate() > infaas.goodput_rate(),
        "clockwork {} vs infaas {}",
        clockwork.goodput_rate(),
        infaas.goodput_rate()
    );
    assert!(
        clockwork.satisfaction() > clipper.satisfaction(),
        "clockwork {} vs clipper {}",
        clockwork.satisfaction(),
        clipper.satisfaction()
    );
}

#[test]
fn baselines_tail_latency_exceeds_slo_under_pressure() {
    // Clipper keeps executing late requests, so its p99 blows through the SLO;
    // Clockwork's stays pinned near it.
    let slo_ms = 50u64;
    let clockwork = run_closed_loop(&ClockworkFactory::default(), 15, slo_ms, 6);
    let clipper = run_closed_loop(&ClipperFactory, 15, slo_ms, 6);
    let cw_p99 = clockwork.latency.percentile(99.0).as_millis_f64();
    let cl_p99 = clipper.latency.percentile(99.0).as_millis_f64();
    assert!(
        cw_p99 <= slo_ms as f64 + 5.0,
        "clockwork p99 {cw_p99} should stay near the {slo_ms} ms SLO"
    );
    assert!(
        cl_p99 > cw_p99,
        "clipper p99 {cl_p99} vs clockwork p99 {cw_p99}"
    );
}
