//! Quickstart: serve one model and inspect the results.
//!
//! ```bash
//! cargo run --example quickstart
//! ```
//!
//! Builds a single-worker Clockwork cluster, registers ResNet50 from the
//! Appendix A model zoo, submits a short warm workload with a 25 ms SLO and
//! prints the latency distribution and goodput.

use clockwork::prelude::*;

fn main() {
    // 1. Build a cluster: one worker machine with one simulated Tesla V100,
    //    driven by the Clockwork scheduler.
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        seed: 1,
        ..Default::default()
    });

    // 2. Upload a model. The zoo carries the 60+ models of the paper's
    //    Appendix A with their measured execution profiles.
    let zoo = ModelZoo::new();
    let resnet50 = system.register_model(zoo.resnet50());

    // 3. Submit requests: one cold request, then a steady stream of warm
    //    requests with a 25 ms SLO.
    system.submit_request(Timestamp::ZERO, resnet50, Nanos::from_millis(100));
    for i in 1..=500u64 {
        system.submit_request(
            Timestamp::from_millis(20 + i * 5),
            resnet50,
            Nanos::from_millis(25),
        );
    }

    // 4. Run the virtual-time event loop to completion and read telemetry.
    system.run_to_completion();
    let metrics = system.telemetry().metrics();

    println!("requests:        {}", metrics.total_requests);
    println!("goodput (in SLO): {}", metrics.goodput);
    println!("satisfaction:    {:.2}%", metrics.satisfaction() * 100.0);
    println!("cold starts:     {}", metrics.cold_starts);
    println!(
        "latency p50 / p99 / max: {:.2} / {:.2} / {:.2} ms",
        metrics.latency.percentile(50.0).as_millis_f64(),
        metrics.latency.percentile(99.0).as_millis_f64(),
        metrics.latency.max().as_millis_f64()
    );

    assert!(
        metrics.satisfaction() > 0.99,
        "warm requests should meet a 25 ms SLO"
    );
}
