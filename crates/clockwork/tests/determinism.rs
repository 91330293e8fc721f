//! Fixed-seed determinism of the full serving system.
//!
//! The fleet-scale perf work rearchitected the scheduler's hot path around
//! persistent indices and cached strategies; these tests pin down that the
//! simulation stayed a pure function of its seed. The completion-event
//! digest (an order-sensitive FNV-1a over every response) must be identical
//! across two runs of the same configuration, and the fixed-work smoke mode
//! must deliver exactly the requested number of events.

use clockwork::prelude::*;

/// The smoke-fleet scenario is declarative now: `ScenarioSpec::smoke` holds
/// the exact cluster/workload knobs this suite always pinned (4 workers ×
/// 2 GPUs, 20 zoo models, a 10 s Azure-like trace at 400 r/s), and
/// `Experiment` owns the submit/run loop.
fn run_fleet_smoke(seed: u64, max_events: u64) -> (u64, u64) {
    let report = Experiment::new(ScenarioSpec::smoke(seed))
        .run_capped(&ClockworkFactory::default(), max_events);
    (report.digest(), report.events_processed())
}

#[test]
fn same_seed_same_digest() {
    let (digest_a, events_a) = run_fleet_smoke(7, u64::MAX);
    let (digest_b, events_b) = run_fleet_smoke(7, u64::MAX);
    assert_eq!(
        digest_a, digest_b,
        "two runs with the same seed diverged: {digest_a:016x} vs {digest_b:016x}"
    );
    assert_eq!(events_a, events_b, "event counts diverged");
    assert!(events_a > 10_000, "scenario too small to be meaningful");
}

// The fixed-work cap must stay below the scenario's total event count for
// smoke mode to be exercised. PR 4's wake-chain fix cut that total ~7×
// (~300 k events → ~45 k: redundant WorkerWakes are now cancelled instead of
// delivered), so the cap was refreshed from 50 000 alongside the golden
// digests in the BENCH baselines. If an event-loop change shrinks the stream
// again, re-measure `run_fleet_smoke(7, u64::MAX)` and lower this with it.
const SMOKE_CAP: u64 = 20_000;

// The smoke scenario's digests, pinned across commits: a refactor that moves
// a byte of the response stream fails here, in tier-1, not only in the
// ~90 s `--expect-digest` runs. Refresh them (with `SMOKE_CAP` and the BENCH
// baselines) only in a commit that means to change scheduling decisions.
const GOLDEN_FULL: (u64, u64) = (0x03ae_1a15_fb97_4da4, 38_868);
const GOLDEN_CAPPED: u64 = 0x31e0_736e_2922_0b81;

#[test]
fn smoke_digests_match_the_golden_constants() {
    assert_eq!(run_fleet_smoke(7, u64::MAX), GOLDEN_FULL);
    assert_eq!(run_fleet_smoke(7, SMOKE_CAP), (GOLDEN_CAPPED, SMOKE_CAP));
}

/// A cell that lives on the cold path: one GPU, four ResNet50 copies, sixteen
/// closed-loop clients each and a 10 ms SLO — below a cold start (≈ 11 ms),
/// above a warm one — so most arrivals for a model that is not resident are
/// rejected only because it is cold, and those rejections are what drives its
/// LOAD priority (Appendix B).
fn cold_path_cell() -> ScenarioSpec {
    ScenarioSpec {
        name: "cold_path".to_string(),
        workers: 1,
        gpus_per_worker: 1,
        models: 4,
        model_set: ModelSet::Resnet50Copies,
        workload: WorkloadSpec::ClosedLoop { concurrency: 16 },
        slo_ms: 10,
        duration_secs: 2,
        drain_secs: 0,
        variance: VarianceConfig::none(),
        ..ScenarioSpec::smoke(60)
    }
}

#[test]
fn the_cold_path_digest_matches_its_golden_constant() {
    let report = Experiment::new(cold_path_cell()).run(&ClockworkFactory::default());
    // Four LOAD evaluations, each priced with cold-rejection demand on record.
    assert_eq!(report.sched_stats().load_prio_recomputes, 4);
    assert_eq!(report.digest(), 0xf770_262f_90b4_53d2);
}

#[test]
fn smoke_mode_is_fixed_work_and_deterministic() {
    let (digest_a, events_a) = run_fleet_smoke(7, SMOKE_CAP);
    let (digest_b, events_b) = run_fleet_smoke(7, SMOKE_CAP);
    assert_eq!(
        events_a, SMOKE_CAP,
        "smoke mode must deliver exactly the cap"
    );
    assert_eq!(events_b, SMOKE_CAP);
    assert_eq!(digest_a, digest_b, "smoke runs with the same seed diverged");
}

#[test]
fn different_seeds_explore_different_executions() {
    let (digest_a, _) = run_fleet_smoke(7, SMOKE_CAP);
    let (digest_c, _) = run_fleet_smoke(8, SMOKE_CAP);
    // Not a hard guarantee of the digest, but a collision here almost
    // certainly means the seed is being ignored somewhere.
    assert_ne!(digest_a, digest_c, "different seeds produced equal digests");
}
