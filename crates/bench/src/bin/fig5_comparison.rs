//! Fig. 5 — Clipper / INFaaS / Clockwork goodput and latency vs. SLO.
//!
//! 15 copies of ResNet50 on one worker, 16 closed-loop clients per model,
//! target SLO swept from 10 ms to 500 ms. Goodput counts only requests that
//! complete within the SLO. The absolute rates differ from the paper (the
//! substrate is simulated), but the shape should hold: the reactive baselines
//! collapse below a ~100 ms SLO while Clockwork keeps serving, and
//! Clockwork's tail latency stays pinned near the SLO.
//!
//! Each cell is one declarative `ScenarioSpec` (the closed-loop §6.1 setup)
//! run through `Experiment::run` under one registered discipline; the sweep
//! is two loops over SLOs and the registry.

use clockwork::prelude::*;
use clockwork_baselines::register_baselines;

/// The Fig. 5 cell: `copies` ResNet50 instances on one worker, closed-loop
/// clients keeping 16 requests in flight per model.
fn cell_spec(copies: usize, slo_ms: u64, duration_secs: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "fig5".to_string(),
        workers: 1,
        gpus_per_worker: 1,
        models: copies,
        model_set: ModelSet::Resnet50Copies,
        workload: WorkloadSpec::ClosedLoop { concurrency: 16 },
        slo_ms,
        duration_secs,
        drain_secs: 0,
        seed,
        workload_seed: seed,
        variance: VarianceConfig::none(),
        keep_responses: true,
        faults: FaultPlan::new(),
        ..ScenarioSpec::smoke(seed)
    }
}

fn main() {
    let slos_ms = [10u64, 25, 50, 100, 250, 500];
    let copies = 15;
    let duration_secs = 20;

    // Clockwork vs the reactive baselines (the FIFO strawman is the
    // ablation binary's business).
    let mut registry = SchedulerRegistry::new();
    registry.register(Box::new(ClockworkFactory::default()));
    register_baselines(&mut registry);

    bench::section("Fig 5: goodput vs SLO (15x ResNet50, 1 worker, 16 closed-loop clients/model)");
    println!("{}", bench::SUMMARY_CSV_HEADER);
    for &slo_ms in &slos_ms {
        for factory in registry.iter() {
            let spec = cell_spec(copies, slo_ms, duration_secs, 50 + slo_ms);
            let report = Experiment::new(spec).run(factory);
            let label = format!("{}_slo{slo_ms}ms", report.discipline);
            println!("{}", bench::summary_csv_row(&label, &report.metrics()));
        }
    }

    bench::section("Fig 5 (right): latency CDF tails at a 100 ms SLO");
    println!("system,p50_ms,p99_ms,p999_ms,p9999_ms,max_ms");
    for factory in registry.iter() {
        let spec = cell_spec(copies, 100, duration_secs, 99);
        let report = Experiment::new(spec).run(factory);
        let hist = report.telemetry().latency_histogram();
        println!(
            "{},{:.2},{:.2},{:.2},{:.2},{:.2}",
            report.discipline,
            hist.percentile(50.0).as_millis_f64(),
            hist.percentile(99.0).as_millis_f64(),
            hist.percentile(99.9).as_millis_f64(),
            hist.percentile(99.99).as_millis_f64(),
            hist.max().as_millis_f64()
        );
    }
}
