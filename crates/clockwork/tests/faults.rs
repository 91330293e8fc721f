//! Fleet-churn fault injection against the assembled serving system.
//!
//! `failure_injection.rs` covers *soft* interference (variance, cache
//! pressure, overload); these tests exercise *hard* faults — GPU failures,
//! worker crashes with cold restarts, link degradation and partitions — and
//! pin down the guarantees the controller must keep while the fleet churns:
//!
//! * exactly-once accounting: every request gets exactly one response, even
//!   when the worker serving it dies with the action in flight;
//! * determinism: a fault plan is part of the configuration, so same seed +
//!   same plan ⇒ identical digest (and the fault events themselves are
//!   folded into the digest);
//! * cold re-admission: a recovered worker lost its page cache, so the first
//!   request after a restart pays the weights transfer again.

use clockwork::prelude::*;
use clockwork_controller::request::RequestOutcome;
use clockwork_sim::rng::SimRng;
use clockwork_workload::open_loop::OpenLoopClient;
use clockwork_workload::trace::Trace;

fn open_loop_trace(ids: &[ModelId], rate: f64, slo: Nanos, duration: Nanos, seed: u64) -> Trace {
    let mut rng = SimRng::seeded(seed);
    OpenLoopClient::generate_many(ids, rate, slo, duration, &mut rng)
}

fn counts(system: &ServingSystem) -> (u64, u64, u64, u64) {
    let m = system.telemetry().metrics();
    let rejected: u64 = m.rejections.values().sum();
    (m.total_requests, m.successes, m.goodput, rejected)
}

#[test]
fn worker_crash_preserves_exactly_once_accounting() {
    // 4 workers under steady load; one crashes mid-run with INFER and LOAD
    // actions in flight, and restarts later. Every request must still get
    // exactly one response: successes + rejections == total, no silent loss,
    // no duplicate.
    let zoo = ModelZoo::new();
    let plan =
        FaultPlan::new().crash_worker_for(Timestamp::from_millis(800), 1, Nanos::from_millis(700));
    let mut system = ServingSystem::new(SystemConfig {
        workers: 4,
        seed: 61,
        faults: plan,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 8);
    let trace = open_loop_trace(&ids, 60.0, Nanos::from_millis(100), Nanos::from_secs(3), 41);
    let submitted = trace.len() as u64;
    system.submit_trace(&trace);
    system.run_to_completion();

    let (total, successes, goodput, rejected) = counts(&system);
    assert_eq!(total, submitted);
    assert_eq!(
        successes + rejected,
        total,
        "exactly-once accounting must survive a crash: {:?}",
        system.telemetry().metrics().rejections
    );
    assert!(goodput <= successes);
    // The crash was recorded, availability dipped, and the fleet healed.
    let faults = system.telemetry().fault_records();
    assert_eq!(faults.len(), 2, "crash + restart recorded");
    assert!(system.telemetry().min_availability() < 1.0);
    assert!((system.telemetry().final_availability() - 1.0).abs() < 1e-12);
    // Work kept flowing: the three surviving workers absorb most traffic.
    assert!(
        goodput as f64 > 0.9 * total as f64,
        "goodput {goodput}/{total} collapsed from one worker crash"
    );
    // Goodput really means on-time.
    let m = system.telemetry().metrics();
    assert!(m.goodput_latency.max() <= Nanos::from_millis(100));
}

#[test]
fn same_seed_and_plan_are_deterministic_and_plans_differ_in_digest() {
    let run = |plan: FaultPlan| {
        let zoo = ModelZoo::new();
        let mut system = ServingSystem::new(SystemConfig {
            workers: 2,
            seed: 77,
            faults: plan,
            ..Default::default()
        });
        let ids = system.register_copies(zoo.resnet50(), 4);
        let trace = open_loop_trace(&ids, 80.0, Nanos::from_millis(100), Nanos::from_secs(2), 9);
        system.submit_trace(&trace);
        system.run_to_completion();
        system.telemetry().response_digest()
    };
    let plan = || {
        FaultPlan::new()
            .crash_worker_for(Timestamp::from_millis(400), 0, Nanos::from_millis(300))
            .fail_gpu_for(Timestamp::from_millis(500), 1, 0, Nanos::from_millis(200))
            .partition(Timestamp::from_millis(900), 1, Nanos::from_millis(150))
    };
    let a = run(plan());
    let b = run(plan());
    assert_eq!(
        a, b,
        "same seed + same fault plan must reproduce the same digest"
    );
    let quiet = run(FaultPlan::new());
    assert_ne!(
        a, quiet,
        "fault events are folded into the digest, so a faulted run differs"
    );
}

#[test]
fn recovered_worker_is_cold_and_first_request_pays_the_transfer() {
    // Single worker: warm a model, crash, restart, then serve again with a
    // generous SLO. The post-restart request must be a cold start whose
    // latency covers the ~8.3 ms ResNet50 weights transfer.
    let zoo = ModelZoo::new();
    let plan =
        FaultPlan::new().crash_worker_for(Timestamp::from_millis(200), 0, Nanos::from_millis(100));
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        seed: 5,
        faults: plan,
        ..Default::default()
    });
    let model = system.register_model(zoo.resnet50());
    // Warm-up request, finished well before the crash.
    system.submit_request(Timestamp::ZERO, model, Nanos::from_millis(100));
    // Post-restart request.
    system.submit_request(Timestamp::from_millis(400), model, Nanos::from_millis(100));
    system.run_to_completion();

    let responses = system.telemetry().responses();
    assert_eq!(responses.len(), 2);
    let warm = responses
        .iter()
        .find(|r| r.arrival < Timestamp::from_millis(200))
        .expect("warm-up response");
    let after = responses
        .iter()
        .find(|r| r.arrival > Timestamp::from_millis(300))
        .expect("post-restart response");
    match warm.outcome {
        RequestOutcome::Success { cold_start, .. } => {
            assert!(cold_start, "the very first request is cold")
        }
        other => panic!("warm-up failed: {other:?}"),
    }
    match after.outcome {
        RequestOutcome::Success { cold_start, .. } => assert!(
            cold_start,
            "a restarted worker lost its page cache; the next request must be cold"
        ),
        other => panic!("post-restart request failed: {other:?}"),
    }
    let latency = after.latency().expect("successful response has latency");
    assert!(
        latency > Nanos::from_millis(8),
        "post-restart latency {latency} must include the ~8.3 ms weights transfer"
    );
    let m = system.telemetry().metrics();
    assert_eq!(m.cold_starts, 2, "both requests paid a load");
}

#[test]
fn permanent_gpu_failure_reroutes_to_surviving_capacity() {
    // 2 workers x 2 GPUs; one GPU dies for good mid-run. The scheduler must
    // stop routing there and keep serving on the remaining 3 GPUs, with the
    // accounting identity intact.
    let zoo = ModelZoo::new();
    let plan = FaultPlan::new().fail_gpu(Timestamp::from_millis(600), 0, 1);
    let mut system = ServingSystem::new(SystemConfig {
        workers: 2,
        gpus_per_worker: 2,
        seed: 29,
        faults: plan,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 6);
    let trace = open_loop_trace(&ids, 60.0, Nanos::from_millis(100), Nanos::from_secs(3), 17);
    let submitted = trace.len() as u64;
    system.submit_trace(&trace);
    system.run_to_completion();

    let (total, successes, goodput, rejected) = counts(&system);
    assert_eq!(total, submitted);
    assert_eq!(successes + rejected, total);
    assert!(
        goodput as f64 > 0.85 * total as f64,
        "3 surviving GPUs should absorb the load: {goodput}/{total}"
    );
    // The dead GPU never serves after the failure instant.
    for r in system.telemetry().responses() {
        if let RequestOutcome::Success {
            completed,
            worker,
            gpu,
            ..
        } = r.outcome
        {
            if completed > Timestamp::from_millis(650) {
                assert!(
                    !(worker == WorkerId(0) && gpu.0 == 1),
                    "response served on the dead GPU at {completed}"
                );
            }
        }
    }
    assert!(
        (system.telemetry().final_availability() - 0.75).abs() < 1e-12,
        "3 of 4 GPUs remain"
    );
}

#[test]
fn overlapping_gpu_and_worker_fault_windows_stay_consistent() {
    // Regression test: a GPU failure window overlapping a crash/restart of
    // its own worker, with the restart landing *before* the GPU's scheduled
    // recovery. The restart supersedes the GPU failure on both sides (a
    // machine replacement brings every GPU back cold), and the later
    // spurious GpuRecover is a no-op — so no action is ever routed to
    // capacity that would silently drop it, and every request is resolved.
    let zoo = ModelZoo::new();
    let plan = FaultPlan::new()
        .fail_gpu_for(Timestamp::from_millis(500), 1, 0, Nanos::from_millis(900)) // recovers at 1400
        .crash_worker_for(Timestamp::from_millis(700), 1, Nanos::from_millis(300)); // restarts at 1000
                                                                                    // Each GPU holds only ~2 of the 6 models, so while worker 1 is down the
                                                                                    // survivor cannot keep everything resident — once worker 1 restarts,
                                                                                    // the cold demand must be routed onto its empty caches.
    let spec = zoo.resnet50();
    let two_models = 2 * spec.weights_bytes() + 64 * 1024 * 1024;
    let mut system = ServingSystem::new(SystemConfig {
        workers: 2,
        gpus_per_worker: 2,
        weights_cache_bytes: two_models,
        seed: 47,
        faults: plan,
        ..Default::default()
    });
    let ids = system.register_copies(spec, 6);
    let trace = open_loop_trace(
        &ids,
        150.0,
        Nanos::from_millis(100),
        Nanos::from_secs(3),
        53,
    );
    let submitted = trace.len() as u64;
    system.submit_trace(&trace);
    system.run_to_completion();

    let (total, successes, goodput, rejected) = counts(&system);
    assert_eq!(total, submitted, "the run must drain to completion");
    assert_eq!(
        successes + rejected,
        total,
        "overlapping fault windows must not leak in-flight requests: {:?}",
        system.telemetry().metrics().rejections
    );
    assert!(goodput > 0);
    // After the restart the whole fleet is usable again even though the
    // GPU's own recovery event had not fired yet.
    assert!((system.telemetry().final_availability() - 1.0).abs() < 1e-12);
    // The controller never routed an action to capacity that would silently
    // drop it (the signature of a liveness mismatch between the controller's
    // view and the worker's per-GPU failed flags).
    for worker in system.workers() {
        assert_eq!(
            worker.telemetry().counters.dropped_actions,
            0,
            "actions were routed to dead capacity on {}",
            worker.id()
        );
    }
    // Worker 1 serves again after its restart.
    let served_post_restart = system.telemetry().responses().iter().any(|r| {
        matches!(
            r.outcome,
            RequestOutcome::Success { worker, completed, .. }
                if worker == WorkerId(1) && completed > Timestamp::from_millis(1_100)
        )
    });
    assert!(
        served_post_restart,
        "restarted worker must rejoin the fleet"
    );
}

#[test]
fn partition_holds_messages_without_losing_requests() {
    // 2 workers; worker 0 is partitioned from the controller for 400 ms
    // mid-run. Held messages are delivered when the partition heals, so the
    // run still drains completely and every request is answered exactly once.
    let zoo = ModelZoo::new();
    let plan = FaultPlan::new().partition(Timestamp::from_millis(700), 0, Nanos::from_millis(400));
    let mut system = ServingSystem::new(SystemConfig {
        workers: 2,
        seed: 83,
        faults: plan,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 4);
    let trace = open_loop_trace(&ids, 80.0, Nanos::from_millis(100), Nanos::from_secs(3), 19);
    let submitted = trace.len() as u64;
    system.submit_trace(&trace);
    system.run_to_completion();

    let (total, successes, goodput, rejected) = counts(&system);
    assert_eq!(total, submitted);
    assert_eq!(
        successes + rejected,
        total,
        "a partition may delay or shed work but must not lose it: {:?}",
        system.telemetry().metrics().rejections
    );
    assert!(goodput > 0);
    assert_eq!(system.telemetry().fault_records().len(), 2);
}

#[test]
fn link_degradation_degrades_goodput_not_accounting() {
    // A 10x slower link to worker 0 for a window mid-run: actions arrive
    // late, windows elapse, the controller requeues or sheds — but the
    // accounting identity holds and the system keeps serving via worker 1.
    let zoo = ModelZoo::new();
    let plan = FaultPlan::new().degrade_link_for(
        Timestamp::from_millis(500),
        0,
        10.0,
        Nanos::from_millis(800),
    );
    let mut system = ServingSystem::new(SystemConfig {
        workers: 2,
        seed: 37,
        faults: plan,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 4);
    let trace = open_loop_trace(&ids, 80.0, Nanos::from_millis(100), Nanos::from_secs(3), 23);
    let submitted = trace.len() as u64;
    system.submit_trace(&trace);
    system.run_to_completion();

    let (total, successes, _goodput, rejected) = counts(&system);
    assert_eq!(total, submitted);
    assert_eq!(successes + rejected, total);
    let m = system.telemetry().metrics();
    assert!(m.goodput_latency.max() <= Nanos::from_millis(100));
}

#[test]
fn joined_worker_is_admitted_cold_and_serves_traffic() {
    // Elastic scale-up: a single overloaded worker gets a second machine
    // mid-run via `FaultPlan::join_worker`. The join must be reflected in
    // fleet availability (2 GPUs after, from 1), the newcomer must actually
    // execute work, and the accounting identity must hold throughout.
    let zoo = ModelZoo::new();
    let join_at = Timestamp::from_millis(800);
    let plan = FaultPlan::new().join_worker(join_at, 1);
    assert_eq!(plan.worker_joins(), 1);
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        seed: 73,
        faults: plan,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 6);
    // Heavily overloaded for a single GPU (~2400 r/s offered), so the
    // scheduler's demand-driven LOAD pass must replicate onto the joined
    // capacity rather than just batching harder on the incumbent.
    let trace = open_loop_trace(
        &ids,
        400.0,
        Nanos::from_millis(100),
        Nanos::from_secs(3),
        51,
    );
    let submitted = trace.len() as u64;
    system.submit_trace(&trace);
    system.run_to_completion();

    assert_eq!(
        system.workers().len(),
        2,
        "the joined worker is in the fleet"
    );
    assert_eq!(system.gpu_availability(), (2, 2), "joined capacity counts");
    let joined = &system.workers()[1];
    assert_eq!(joined.id(), WorkerId(1));
    // Its host memory holds exactly the catalog at the time of the join.
    assert_eq!(joined.model_count(), ids.len());
    assert!(joined.has_model(ids[0]) && joined.has_model(ids[ids.len() - 1]));
    let served = joined.telemetry().counters.requests_served;
    assert!(served > 0, "the joined worker must serve traffic");
    assert!(
        joined.gpu_utilization(clockwork_worker::GpuId(0), system.now()) > 0.0,
        "the joined worker's GPU must have executed"
    );

    let (total, successes, _goodput, rejected) = counts(&system);
    assert_eq!(total, submitted);
    assert_eq!(successes + rejected, total);

    // The join is part of the recorded fault history, with capacity *added*.
    let records = system.telemetry().fault_records();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].at, join_at);
    assert_eq!(records[0].total_gpus, 2);
    assert_eq!(records[0].alive_gpus, 2);
}

#[test]
fn joining_an_occupied_fleet_index_is_ignored() {
    // A WorkerJoin naming an existing worker must change nothing — no new
    // machine, no double-registered GPUs, no fault record.
    let zoo = ModelZoo::new();
    let plan = FaultPlan::new().join_worker(Timestamp::from_millis(100), 0);
    let mut system = ServingSystem::new(SystemConfig {
        workers: 1,
        seed: 74,
        faults: plan,
        ..Default::default()
    });
    let ids = system.register_copies(zoo.resnet50(), 2);
    let trace = open_loop_trace(&ids, 40.0, Nanos::from_millis(100), Nanos::from_secs(1), 52);
    system.submit_trace(&trace);
    system.run_to_completion();
    assert_eq!(system.workers().len(), 1);
    assert_eq!(system.gpu_availability(), (1, 1));
    assert!(system.telemetry().fault_records().is_empty());
    let (total, successes, _goodput, rejected) = counts(&system);
    assert_eq!(successes + rejected, total);
}
