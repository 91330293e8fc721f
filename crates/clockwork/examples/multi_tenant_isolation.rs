//! Multi-tenant isolation (the §6.4 scenario).
//!
//! ```bash
//! cargo run --release --example multi_tenant_isolation
//! ```
//!
//! Latency-sensitive (LS) tenants with a 30 ms SLO share a 2-worker cluster
//! with batch-client (BC) tenants that submit as fast as they can with no SLO
//! at all. Clockwork's SLO-aware scheduling should keep the LS tenants'
//! satisfaction high while letting the batch clients soak up leftover
//! capacity.

use clockwork::prelude::*;

fn run(with_batch_clients: bool) -> (f64, f64) {
    let zoo = ModelZoo::new();
    let mut system = ServingSystem::new(SystemConfig {
        workers: 2,
        seed: 44,
        keep_responses: false,
        ..Default::default()
    });
    let ls_models = system.register_copies(zoo.resnet50(), 4);
    let bc_models = system.register_copies(zoo.resnet50(), 8);
    let duration = Nanos::from_secs(10);

    // LS tenants: open-loop 150 r/s each with a 30 ms SLO.
    let trace = OpenLoopClient::generate_many(
        &ls_models,
        150.0,
        Nanos::from_millis(30),
        duration,
        &mut SimRng::seeded(5),
    );
    let ls_total = trace.len() as f64;
    system.submit_trace(&trace);

    // BC tenants: closed-loop, 8 outstanding each, no SLO.
    if with_batch_clients {
        for (i, &m) in bc_models.iter().enumerate() {
            system.add_closed_loop_client(
                ClosedLoopClient::new(m, 8, Nanos::MAX),
                Timestamp::from_millis(i as u64),
            );
        }
    }
    system.run_until(Timestamp::ZERO + duration + Nanos::from_secs(1));
    let m = system.telemetry().metrics();
    let ls_satisfaction = m.goodput as f64 / ls_total;
    let bc_throughput = (m.successes - m.goodput) as f64 / duration.as_secs_f64();
    (ls_satisfaction, bc_throughput)
}

fn main() {
    let (alone, _) = run(false);
    let (shared, bc_rps) = run(true);
    println!(
        "LS satisfaction without batch clients: {:.1}%",
        alone * 100.0
    );
    println!(
        "LS satisfaction with batch clients:    {:.1}%",
        shared * 100.0
    );
    println!("batch-client throughput:               {bc_rps:.0} r/s");
    println!(
        "isolation penalty: {:.1} percentage points",
        (alone - shared) * 100.0
    );
    assert!(
        shared > alone - 0.1,
        "latency-sensitive tenants must be isolated from batch tenants"
    );
}
