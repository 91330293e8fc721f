//! Fig. 8 — replaying a Microsoft-Azure-Functions-like trace.
//!
//! The paper replays 8 hours of the MAF trace against 6 workers with 4 026
//! model instances (61 varieties × 66 copies) and a 100 ms SLO, and reports
//! throughput/goodput, latency, batch size, cold models and cold-start
//! throughput over time. Here the trace is synthetic (see
//! `clockwork_workload::azure`) and scaled to 8 minutes, ~200 model instances
//! and ~800 r/s so it replays in a few minutes of host time on a single core.

use std::collections::BTreeSet;

use clockwork::prelude::*;

fn main() {
    let minutes = 8u64;
    // The whole experiment is one declarative spec: 6 workers, 200 model
    // instances cycling through the zoo varieties (the same heterogeneity as
    // the paper's 61 x 66 instances), an 8-minute Azure-like trace.
    let spec = ScenarioSpec {
        name: "fig8_azure".to_string(),
        workers: 6,
        gpus_per_worker: 1,
        models: 200,
        model_set: ModelSet::ZooCycle,
        workload: WorkloadSpec::Azure {
            functions: 800,
            target_rate: 800.0,
        },
        slo_ms: 100,
        duration_secs: minutes * 60,
        drain_secs: 2,
        seed: 88,
        workload_seed: 8,
        variance: VarianceConfig::none(),
        keep_responses: false,
        faults: FaultPlan::new(),
        ..ScenarioSpec::smoke(88)
    };
    // The generator is rebuilt from the spec's own workload parameters so
    // the function-to-model mapping reported below can never diverge from
    // the workload the experiment actually ran.
    let WorkloadSpec::Azure {
        functions,
        target_rate,
    } = spec.workload
    else {
        unreachable!("fig8 is an Azure-trace experiment");
    };
    let generator = AzureTraceGenerator::new(AzureTraceConfig {
        functions,
        models: spec.models,
        duration: spec.duration(),
        target_rate,
        slo: spec.slo(),
        seed: spec.workload_seed,
    });

    let report = Experiment::new(spec.clone()).run(&ClockworkFactory::default());
    println!(
        "# azure-like trace: {} requests, {} model instances, {} min (discipline: {})",
        report.submitted, spec.models, minutes, report.discipline
    );

    let tel = report.telemetry();
    bench::section("Fig 8 (a)-(e): per-minute series");
    println!("minute,throughput_rps,goodput_rps,mean_batch,cold_start_rps");
    for minute in 0..minutes as usize {
        let mut tp = 0.0;
        let mut gp = 0.0;
        let mut cold = 0.0;
        let mut batch = 0.0;
        for s in minute * 60..(minute + 1) * 60 {
            tp += tel.throughput_series.count_at(s) as f64;
            gp += tel.goodput_series.count_at(s) as f64;
            cold += tel.cold_start_series.count_at(s) as f64;
            batch += tel.batch_series.mean_at(s);
        }
        println!(
            "{minute},{:.1},{:.1},{:.2},{:.1}",
            tp / 60.0,
            gp / 60.0,
            batch / 60.0,
            cold / 60.0
        );
    }

    let m = tel.metrics();
    bench::section("Fig 8 summary");
    println!(
        "requests={} goodput={} satisfaction={:.5} p50_ms={:.2} p99_ms={:.2} max_ms={:.2} cold_fraction={:.3}",
        m.total_requests,
        m.goodput,
        m.satisfaction(),
        m.latency.percentile(50.0).as_millis_f64(),
        m.latency.percentile(99.0).as_millis_f64(),
        m.latency.max().as_millis_f64(),
        m.cold_start_fraction()
    );
    let models_with_cold: BTreeSet<ModelId> =
        generator.functions().iter().map(|f| f.model).collect();
    println!(
        "# distinct models in workload: {} (cold-start fraction of successes: {:.1}%)",
        models_with_cold.len(),
        m.cold_start_fraction() * 100.0
    );
    println!("# paper shape: goodput tracks throughput, no request exceeds the SLO by more than");
    println!("# the network allowance, cold starts are a small fraction of requests.");
}
