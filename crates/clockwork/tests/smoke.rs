//! End-to-end smoke test: the smallest meaningful full-system scenario,
//! mirroring the crate-level quick-start doctest. If this fails, everything
//! downstream (figures, property suites, baselines) is suspect.

use clockwork::prelude::*;

/// One worker, three copies of ResNet50, open-loop Poisson clients at
/// 100 r/s per copy with a 100 ms SLO for two virtual seconds. The run must
/// complete, serve every submitted request, and meet the SLO almost always.
#[test]
fn single_worker_resnet50_open_loop_smoke() {
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        seed: 1,
        ..Default::default()
    });

    let zoo = ModelZoo::new();
    let models = system.register_copies(zoo.resnet50(), 3);
    assert_eq!(models.len(), 3);

    let trace = OpenLoopClient::generate_many(
        &models,
        100.0,
        Nanos::from_millis(100),
        Nanos::from_secs(2),
        &mut SimRng::seeded(1),
    );
    let total = trace.len() as u64;
    assert!(total > 0, "open-loop generator must emit requests");

    system.submit_trace(&trace);
    system.run_to_completion();

    let m = system.telemetry().metrics();
    assert_eq!(
        m.total_requests, total,
        "every submitted request must be accounted for"
    );
    assert!(
        m.satisfaction() > 0.99,
        "single-worker ResNet50 at 300 r/s aggregate must meet a 100 ms SLO: \
         satisfaction {} over {} requests",
        m.satisfaction(),
        total
    );
}
