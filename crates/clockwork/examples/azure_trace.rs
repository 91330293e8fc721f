//! Replay an Azure-Functions-like workload (the §6.5 scenario, scaled down).
//!
//! ```bash
//! cargo run --release --example azure_trace
//! ```
//!
//! Generates a synthetic serverless workload (heavy sustained, cold, bursty,
//! and periodic-spike functions), maps it onto 100 model instances drawn
//! from the Appendix A zoo, serves it on a 3-worker cluster with a 100 ms
//! SLO, and prints per-minute goodput plus the cold-start breakdown.

use clockwork::prelude::*;

fn main() {
    let zoo = ModelZoo::new();
    let config = AzureTraceConfig {
        functions: 400,
        models: 100,
        duration: Nanos::from_minutes(5),
        target_rate: 600.0,
        slo: Nanos::from_millis(100),
        seed: 2024,
    };
    let generator = AzureTraceGenerator::new(config);
    let trace = generator.generate();
    println!(
        "generated {} requests across {} model instances ({} functions)",
        trace.len(),
        config.models,
        config.functions
    );

    let mut system = ServingSystem::new(SystemConfig {
        workers: 3,
        seed: 3,
        keep_responses: false,
        ..Default::default()
    });
    for i in 0..config.models {
        // Cycle through the zoo so the cluster serves heterogeneous models.
        system.register_model(&zoo.all()[i % zoo.len()]);
    }
    system.submit_trace(&trace);
    system.run_until(Timestamp::ZERO + config.duration + Nanos::from_secs(2));

    let tel = system.telemetry();
    println!("minute  goodput_rps  cold_start_rps  mean_batch");
    for minute in 0..(config.duration.as_secs_f64() / 60.0) as usize {
        let mut goodput = 0.0;
        let mut cold = 0.0;
        let mut batch = 0.0;
        for s in minute * 60..(minute + 1) * 60 {
            let row = tel.second(s);
            goodput += row.goodput as f64;
            cold += row.cold_starts as f64;
            batch += row.mean_batch();
        }
        println!(
            "{minute:>6}  {:>11.1}  {:>14.2}  {:>10.2}",
            goodput / 60.0,
            cold / 60.0,
            batch / 60.0
        );
    }
    let m = tel.metrics();
    println!(
        "\noverall: {} requests, satisfaction {:.3}%, cold-start fraction {:.2}%, p99 {:.1} ms",
        m.total_requests,
        m.satisfaction() * 100.0,
        m.cold_start_fraction() * 100.0,
        m.latency.percentile(99.0).as_millis_f64()
    );
}
