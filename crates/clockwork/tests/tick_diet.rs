//! The tick diet: the change-driven scheduler core must keep early-outs
//! cheap and rare at the facade level.
//!
//! Before this refactor every delivered `SchedulerTick` rebuilt the world:
//! re-scanned every model queue, recomputed every load priority, rebuilt
//! every strategy list. The tick pipeline is now change-driven — `next_tick`
//! prunes grid points that provably cannot act, and a tick that still lands
//! on unchanged state early-outs in O(1). These tests pin that down with the
//! run's self-profiling counters (the driver's tick counts beside the
//! scheduler's own), the same numbers the bench binaries publish as the
//! `sched` object of `BENCH_*.json`.

use clockwork::prelude::*;

fn run_fleet_smoke(seed: u64) -> ServingSystem {
    let zoo = ModelZoo::new();
    let duration = Nanos::from_secs(10);
    let config = AzureTraceConfig {
        functions: 80,
        models: 20,
        duration,
        target_rate: 400.0,
        slo: Nanos::from_millis(100),
        seed,
    };
    let trace = AzureTraceGenerator::new(config).generate();
    let mut system = SystemBuilder::new()
        .workers(4)
        .gpus_per_worker(2)
        .seed(seed)
        .drop_raw_responses()
        .build();
    let varieties = zoo.all();
    for i in 0..config.models {
        system.register_model(&varieties[i % varieties.len()]);
    }
    system.submit_trace(&trace);
    system.run_to_completion();
    system
}

#[test]
fn early_out_ticks_stay_a_bounded_fraction_of_delivered_events() {
    let system = run_fleet_smoke(7);
    let delivered = system.telemetry().event_mix().delivered();
    assert!(delivered > 10_000, "scenario too small to be meaningful");
    let sched = system.sched_profile();
    assert!(sched.ticks_full > 0, "no full passes ran at all");
    // Skipped ticks exist only because the facade keeps an already-queued
    // earlier tick instead of moving it later; each costs O(1). They must
    // stay a small fraction of the event stream — if they grow, `next_tick`
    // has stopped pruning and the grid is being scheduled blindly.
    let skipped_ratio = sched.ticks_skipped as f64 / delivered as f64;
    assert!(
        skipped_ratio < 0.10,
        "early-out ticks are {:.1}% of {delivered} delivered events (limit 10%)",
        skipped_ratio * 100.0
    );
}

#[test]
fn full_passes_are_far_fewer_than_the_legacy_one_per_grid_point() {
    let system = run_fleet_smoke(7);
    let sched = system.sched_profile();
    // The legacy scheduler ran a full rebuild at every 1 ms grid point while
    // busy — with a 10 s trace and drain tail, >10,000 of them, every one
    // rescanning all 20 models. The change-driven core must do a small
    // multiple of the *productive* tick count, not the grid size.
    let total = sched.ticks();
    assert!(
        total < 10_000,
        "{total} ticks delivered — next_tick is not pruning the grid"
    );
    // Every delivered tick is counted once, as a full pass or an early-out.
    let ticks = system.telemetry().event_mix().entry("scheduler_tick");
    assert_eq!(ticks.map(|e| e.delivered), Some(total));
}

#[test]
fn load_priorities_are_evaluated_about_as_often_as_loads_are_sent() {
    // Every event's pass used to price every queued model at least once —
    // tens of thousands of evaluations here, nearly all of them finding no
    // positive priority. The per-GPU ledger of waiting work proves most
    // passes priceless up front, so what is left is an evaluation or two
    // per LOAD actually sent (one finds the model, one after the dispatch
    // finds nothing more) plus the few passes where a GPU really is charged
    // beyond the priority horizon.
    let system = run_fleet_smoke(7);
    let loads: u64 = system
        .workers()
        .iter()
        .map(|w| w.telemetry().counters.loads_completed)
        .sum();
    assert!(
        loads >= 10,
        "scenario too small to be meaningful: {loads} LOADs"
    );
    let evaluations = system.sched_profile().load_prio_recomputes;
    assert!(evaluations >= loads, "a LOAD is sent only after pricing");
    assert!(
        evaluations <= 4 * loads,
        "{evaluations} LOAD-priority evaluations for {loads} LOADs — the ledger is not skipping"
    );
}

#[test]
fn the_tick_diet_does_not_change_serving_outcomes() {
    // Pruned ticks remove passes, not work: every request still gets exactly
    // one response and the fleet still serves its load.
    let system = run_fleet_smoke(7);
    let m = system.telemetry().metrics();
    let rejected: u64 = m.rejections.values().sum();
    assert_eq!(
        m.successes + rejected,
        m.total_requests,
        "successes + rejected must equal total"
    );
    assert!(m.satisfaction() > 0.5, "the fleet still serves its load");
}
