//! Property-based tests for the controller's pure state-tracking components.
//!
//! The scheduler's correctness rests on the controller's shadow copy of each
//! worker (pages, residency, executor availability) never drifting from what
//! the worker would compute itself, and on the rolling action profiler always
//! producing estimates bracketed by what was actually observed. These
//! invariants are checked over arbitrary operation sequences here; the
//! end-to-end behaviour of the full scheduler is covered by the system-level
//! tests in `tests/`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use clockwork_controller::clockwork_scheduler::{ClockworkScheduler, ClockworkSchedulerConfig};
use clockwork_controller::profile::{ActionProfiler, ProfileKey};
use clockwork_controller::request::{InferenceRequest, RejectReason, RequestId, RequestOutcome};
use clockwork_controller::scheduler::{Scheduler, SchedulerCtx};
use clockwork_controller::worker_state::{
    Executor, GpuRef, Placement, Resolved, WorkerStateTracker,
};
use clockwork_model::zoo::ModelZoo;
use clockwork_model::{ModelId, Tier};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{
    ActionError, ActionId, ActionKind, ActionOutcome, ActionResult, ActionTiming, GpuId, WorkerId,
};

const PAGE: u64 = 16 * 1024 * 1024;

fn gref(worker: u32, gpu: u32) -> GpuRef {
    GpuRef {
        worker: WorkerId(worker),
        gpu: GpuId(gpu),
    }
}

// ----------------------------------------------------------------------
// ActionProfiler
// ----------------------------------------------------------------------

proptest! {
    #[test]
    fn profiler_estimate_is_bracketed_by_recent_observations(
        window in 1usize..20,
        percentile in 1.0f64..100.0,
        measurements in proptest::collection::vec(1u64..1_000_000_000, 1..100),
    ) {
        let mut profiler = ActionProfiler::with_params(window, percentile);
        let key = ProfileKey::exec(ModelId(1), 4);
        for &m in &measurements {
            profiler.record(key, Nanos::from_nanos(m));
        }
        let recent: Vec<u64> = measurements
            .iter()
            .rev()
            .take(window)
            .copied()
            .collect();
        let est = profiler.estimate(key).expect("measurements recorded");
        prop_assert!(est.as_nanos() >= *recent.iter().min().unwrap());
        prop_assert!(est.as_nanos() <= *recent.iter().max().unwrap());
        prop_assert_eq!(profiler.measurement_count(), measurements.len() as u64);
    }

    #[test]
    fn profiler_measurements_override_seeds_and_keys_are_independent(
        seed_ns in 1u64..1_000_000_000,
        measured_ns in 1u64..1_000_000_000,
    ) {
        let mut profiler = ActionProfiler::new();
        let infer_key = ProfileKey::exec(ModelId(7), 1);
        let load_key = ProfileKey::load(ModelId(7));
        prop_assert_eq!(profiler.estimate(infer_key), None);

        profiler.seed(infer_key, Nanos::from_nanos(seed_ns));
        prop_assert_eq!(profiler.estimate(infer_key), Some(Nanos::from_nanos(seed_ns)));
        // Seeding one key says nothing about the other.
        prop_assert_eq!(profiler.estimate(load_key), None);
        prop_assert_eq!(
            profiler.estimate_or(load_key, Nanos::from_millis(8)),
            Nanos::from_millis(8)
        );

        profiler.record(infer_key, Nanos::from_nanos(measured_ns));
        // A real measurement displaces the seed entirely.
        prop_assert_eq!(profiler.estimate(infer_key), Some(Nanos::from_nanos(measured_ns)));
    }

    #[test]
    fn profiler_p99_with_paper_window_is_close_to_worst_recent_case(
        measurements in proptest::collection::vec(1u64..1_000_000_000, 10..200),
    ) {
        // The paper's configuration: window of 10, 99th percentile. With only
        // ten samples the 99th percentile is the window maximum, which is why
        // Clockwork tends to over-predict slightly (§6.5).
        let mut profiler = ActionProfiler::new();
        let key = ProfileKey::exec(ModelId(3), 8);
        for &m in &measurements {
            profiler.record(key, Nanos::from_nanos(m));
        }
        let window_max = measurements.iter().rev().take(10).max().copied().unwrap();
        prop_assert_eq!(profiler.estimate(key), Some(Nanos::from_nanos(window_max)));
    }
}

// ----------------------------------------------------------------------
// WorkerStateTracker
// ----------------------------------------------------------------------

const WORKERS: u32 = 3;
const GPUS_PER_WORKER: u32 = 2;
const GPUS: usize = (WORKERS * GPUS_PER_WORKER) as usize;

/// One controller-side bookkeeping operation on a multi-GPU tracker. `gpu`
/// is a registration index; faults may also name capacity that does not
/// exist.
#[derive(Clone, Debug)]
enum TrackOp {
    LoadSent {
        gpu: usize,
        model: u32,
        pages: u64,
    },
    /// Replays a stale or never-issued LOAD id, which must be ignored, then
    /// resolves the pending LOAD `model` lands on (see [`landing`]), if any.
    LoadResult {
        gpu: usize,
        model: u32,
        success: bool,
    },
    /// Sends an INFER that `riders` fresh riders ride on.
    InferSent {
        gpu: usize,
        model: u32,
        riders: usize,
    },
    /// Resolves the oldest INFER outstanding on `gpu` if there is one, after
    /// replaying one a fault already resolved (if any): that must be stale.
    InferResult {
        gpu: usize,
        success: bool,
    },
    UnloadSent {
        gpu: usize,
        model: u32,
    },
    EvictUntilFits {
        gpu: usize,
        pages: u64,
    },
    Fault(FaultKind),
}

fn fault_kind() -> impl Strategy<Value = FaultKind> {
    // One worker and one GPU index past the fleet, so unknown capacity is
    // exercised too.
    (0u32..9, 0..WORKERS + 1, 0..GPUS_PER_WORKER + 1).prop_map(|(kind, worker, gpu)| match kind {
        0 => FaultKind::GpuFail { worker, gpu },
        1 => FaultKind::GpuRecover { worker, gpu },
        2 => FaultKind::WorkerCrash { worker },
        3 => FaultKind::WorkerRestart { worker },
        4 => FaultKind::LinkDegrade {
            worker,
            factor_milli: 4000,
        },
        5 => FaultKind::LinkRestore { worker },
        6 => FaultKind::PartitionStart { worker },
        7 => FaultKind::PartitionEnd { worker },
        _ => FaultKind::WorkerJoin { worker },
    })
}

fn track_op() -> impl Strategy<Value = TrackOp> {
    let gpu = || 0..GPUS;
    let model = || 0u32..16;
    prop_oneof![
        (gpu(), model(), 1u64..40).prop_map(|(gpu, model, pages)| TrackOp::LoadSent {
            gpu,
            model,
            pages
        }),
        (gpu(), model(), any::<bool>()).prop_map(|(gpu, model, success)| TrackOp::LoadResult {
            gpu,
            model,
            success
        }),
        // Twice, so that faults and evictions find INFERs outstanding.
        (gpu(), model(), 1usize..4).prop_map(|(gpu, model, riders)| TrackOp::InferSent {
            gpu,
            model,
            riders
        }),
        (gpu(), model(), 1usize..4).prop_map(|(gpu, model, riders)| TrackOp::InferSent {
            gpu,
            model,
            riders
        }),
        (gpu(), any::<bool>()).prop_map(|(gpu, success)| TrackOp::InferResult { gpu, success }),
        (gpu(), model()).prop_map(|(gpu, model)| TrackOp::UnloadSent { gpu, model }),
        (gpu(), 1u64..80).prop_map(|(gpu, pages)| TrackOp::EvictUntilFits { gpu, pages }),
        fault_kind().prop_map(TrackOp::Fault),
    ]
}

/// The slow oracle: what one GPU's state must be, kept by the test from the
/// operations alone, in the plainest containers available.
#[derive(Clone, Debug, Default)]
struct OracleGpu {
    /// model -> (pages reserved, whether it is loading rather than
    /// confirmed resident), for every model holding pages here.
    held: HashMap<u32, (u64, bool)>,
    /// The outstanding LOADs, oldest first: id, model. A model may have
    /// more than one (a LOAD of a model already held).
    loads: Vec<(ActionId, u32)>,
    /// The outstanding INFERs, oldest first: id, model, riders.
    infers: Vec<(ActionId, u32, Riders)>,
    free_at: [Timestamp; 2],
    dead: bool,
}

/// What rides on an INFER in this test: tokens minted once each, so one
/// coming back twice — or not at all — is visible.
type Riders = Vec<u64>;
type Tracker = WorkerStateTracker<Riders>;
/// A lost action as `apply_fault` reports it, riders and all.
type Lost = (usize, ActionId, Option<Riders>);

impl OracleGpu {
    /// The GPU died: returns what was outstanding on it — each INFER with
    /// its riders, each LOAD with none.
    fn wipe(&mut self, now: Timestamp) -> Vec<(ActionId, Option<Riders>)> {
        let mut lost: Vec<_> = self
            .infers
            .drain(..)
            .map(|(id, _, riders)| (id, Some(riders)))
            .collect();
        lost.extend(self.loads.drain(..).map(|(id, _)| (id, None)));
        self.held.clear();
        self.free_at = [now; 2];
        self.dead = true;
        lost
    }

    fn recover(&mut self, now: Timestamp) {
        if self.dead {
            self.dead = false;
            self.free_at = self.free_at.map(|t| t.max(now));
        }
    }

    /// The models confirmed resident.
    fn resident(&self) -> impl Iterator<Item = u32> + '_ {
        self.held
            .iter()
            .filter(|(_, &(_, loading))| !loading)
            .map(|(&m, _)| m)
    }
}

fn worker_of(gpu: usize) -> u32 {
    gpu as u32 / GPUS_PER_WORKER
}

/// Applies `fault` to the oracle; returns the lost actions in action-id
/// order — what `apply_fault` must hand back.
fn oracle_fault(
    oracle: &mut [OracleGpu],
    down: &mut HashSet<u32>,
    now: Timestamp,
    fault: &FaultKind,
) -> Vec<Lost> {
    let named = |worker: u32, gpu: u32| {
        (worker < WORKERS && gpu < GPUS_PER_WORKER)
            .then(|| (worker * GPUS_PER_WORKER + gpu) as usize)
    };
    let mut lost = Vec::new();
    match *fault {
        FaultKind::WorkerCrash { worker } => {
            down.insert(worker);
            for (i, g) in oracle.iter_mut().enumerate() {
                if worker_of(i) == worker {
                    lost.extend(g.wipe(now).into_iter().map(|(id, riders)| (i, id, riders)));
                }
            }
        }
        FaultKind::WorkerRestart { worker } => {
            down.remove(&worker);
            for (i, g) in oracle.iter_mut().enumerate() {
                if worker_of(i) == worker {
                    g.recover(now);
                }
            }
        }
        FaultKind::GpuFail { worker, gpu } => {
            if let Some(i) = named(worker, gpu) {
                lost.extend(
                    oracle[i]
                        .wipe(now)
                        .into_iter()
                        .map(|(id, riders)| (i, id, riders)),
                );
            }
        }
        FaultKind::GpuRecover { worker, gpu } => {
            if let (false, Some(i)) = (down.contains(&worker), named(worker, gpu)) {
                oracle[i].recover(now);
            }
        }
        _ => {}
    }
    lost.sort_unstable_by_key(|&(_, id, _)| id);
    lost
}

/// A worker's report on action `id`. Model and type are deliberately wrong:
/// `resolve` must go by what the ledger knows about the id.
fn report(gpu: GpuRef, id: ActionId, success: bool) -> ActionResult {
    let at = Timestamp::from_millis(1);
    let outcome = if success {
        ActionOutcome::Success(ActionTiming {
            received: at,
            start: at,
            end: at,
            device_duration: Nanos::from_millis(1),
        })
    } else {
        let error = ActionError::WindowElapsed;
        ActionOutcome::Error { error, at }
    };
    ActionResult {
        action_id: id,
        worker: gpu.worker,
        gpu: gpu.gpu,
        model: ModelId(u32::MAX),
        action_type: "UNLOAD",
        batch: 1,
        request_ids: vec![],
        expected_duration: Nanos::ZERO,
        outcome,
    }
}

/// `named` if it is among `present`, else the `named`-th of them in
/// ascending order (`named` itself when there are none): lets a random
/// result or INFER land on state that exists instead of being skipped.
fn landing(named: u32, present: impl Iterator<Item = u32>) -> u32 {
    let mut present: Vec<u32> = present.collect();
    present.sort_unstable();
    if present.is_empty() || present.contains(&named) {
        named
    } else {
        present[named as usize % present.len()]
    }
}

/// The one action the last `send_*` queued, checked against what was asked.
fn sent(ctx: &mut SchedulerCtx, gpu: GpuRef, id: ActionId) -> ActionKind {
    let mut actions = ctx.take_actions();
    assert_eq!(actions.len(), 1, "one send, one action");
    let (worker, action) = actions.remove(0);
    assert_eq!((worker, action.gpu, action.id), (gpu.worker, gpu.gpu, id));
    action.kind
}

/// Every index and column of the tracker against a from-scratch scan.
fn check_tracker_against_oracle(
    tracker: &Tracker,
    oracle: &[OracleGpu],
    total_pages: u64,
    now: Timestamp,
) {
    for (i, (track, expect)) in tracker.gpus().iter().zip(oracle).enumerate() {
        // Residency: the ascending table's held rows are the sorted set of
        // what the oracle holds, with the right loading flags and page
        // counts.
        let mut held: Vec<u32> = expect.held.keys().copied().collect();
        held.sort_unstable();
        let listed: Vec<u32> = track.held().map(|(m, _)| m.0).collect();
        assert_eq!(&listed, &held, "gpu {} residency order", i);
        for (m, r) in track.held() {
            let (pages, loading) = expect.held[&m.0];
            assert_eq!(r.loading, loading);
            assert_eq!(r.pages, pages, "resident/loading model holds its pages");
            assert_eq!(track.residency(m), Some(r));
            assert_eq!(track.is_resident(m), !loading);
            assert!(track.has_or_loading(m));
        }
        // Pages are conserved, exactly: what is free and what is reserved
        // add up to the GPU, with no clamp to hide a mint or a leak.
        let reserved: u64 = track.held().map(|(_, r)| r.pages).sum();
        assert_eq!(
            track.free_pages + reserved,
            total_pages,
            "pages leaked or double-counted"
        );
        assert!((0.0..=1.0).contains(&track.occupancy()));
        // The ledger: every outstanding action, each INFER still carrying
        // exactly the riders it was sent with.
        let mut outstanding: Vec<(ActionId, u32, Option<&Riders>)> = track
            .outstanding
            .values()
            .map(|a| (a.id, a.model.0, a.riders.as_ref()))
            .collect();
        outstanding.sort_unstable();
        let mut expected: Vec<(ActionId, u32, Option<&Riders>)> = expect
            .infers
            .iter()
            .map(|(id, m, riders)| (*id, *m, Some(riders)))
            .chain(expect.loads.iter().map(|(id, m)| (*id, *m, None)))
            .collect();
        expected.sort_unstable();
        assert_eq!(outstanding, expected);
        assert!(track.outstanding.iter().all(|(id, a)| *id == a.id));
        assert_eq!(track.alive, !expect.dead);
        for (e, executor) in [Executor::Infer, Executor::Load].into_iter().enumerate() {
            assert_eq!(
                tracker.next_slot(executor, i, Timestamp::ZERO),
                expect.free_at[e]
            );
        }
    }
    let loads: usize = oracle.iter().map(|g| g.loads.len()).sum();
    assert_eq!(tracker.outstanding_loads(), loads);
    // The INFER counts, fleet-wide and per model, are a scan of the ledger.
    let infers = |m: Option<u32>| -> usize {
        let all = oracle.iter().flat_map(|g| &g.infers);
        all.filter(|i| m.is_none_or(|m| i.1 == m)).count()
    };
    assert_eq!(tracker.outstanding_infers(), infers(None));
    for m in 0..16u32 {
        let counted = tracker.outstanding_infers_of(ModelId(m));
        assert_eq!(counted, infers(Some(m)), "INFERs of model {}", m);
    }
    // The live list is the scan it replaced, in registration order.
    let live: Vec<GpuRef> = tracker
        .gpus()
        .iter()
        .filter(|t| t.alive)
        .map(|t| t.gpu_ref)
        .collect();
    assert_eq!(tracker.live_gpus(), &live[..]);
    // The holder list of every model is the ascending scan of the GPUs that
    // hold it (this is what `gpus_with_model`/`model_available_somewhere`
    // used to compute per call).
    for m in 0..16u32 {
        let scan: Vec<usize> = (0..GPUS)
            .filter(|&i| tracker.gpus()[i].has_or_loading(ModelId(m)))
            .collect();
        assert_eq!(
            tracker.gpus_with_model(ModelId(m)),
            &scan[..],
            "holders of model {}",
            m
        );
    }
    // Readiness queries against a filter/min over the oracle's columns, at
    // horizons around the free times in play.
    let mut actionable = Vec::new();
    for (e, executor) in [Executor::Infer, Executor::Load].into_iter().enumerate() {
        let mut horizons = vec![Timestamp::ZERO, now, now + Nanos::from_millis(5)];
        horizons.extend(oracle.iter().map(|g| g.free_at[e]));
        for horizon in horizons {
            tracker.actionable_into(executor, horizon, &mut actionable);
            let scan: Vec<usize> = (0..GPUS)
                .filter(|&i| !oracle[i].dead && oracle[i].free_at[e] < horizon)
                .collect();
            assert_eq!(&actionable, &scan);
            let beyond = oracle
                .iter()
                .filter(|g| !g.dead && g.free_at[e] >= horizon)
                .map(|g| g.free_at[e])
                .min();
            assert_eq!(tracker.next_beyond(executor, horizon), beyond);
        }
    }
}

proptest! {
    #[test]
    fn gpu_track_conserves_pages_and_keeps_sets_disjoint(
        ops in proptest::collection::vec(track_op(), 0..200),
        total_pages in 16u64..512,
    ) {
        let mut tracker = Tracker::new();
        for w in 0..WORKERS {
            for g in 0..GPUS_PER_WORKER {
                tracker.add_gpu(gref(w, g), total_pages, PAGE);
            }
        }
        let refs: Vec<GpuRef> = tracker.gpus().iter().map(|t| t.gpu_ref).collect();
        let mut oracle = vec![OracleGpu::default(); GPUS];
        let mut down = HashSet::new();
        // Ids whose GPU died before the result arrived, by GPU, with the
        // LOAD's model (`None` = an INFER): replaying one must be ignored
        // the way the schedulers rely on.
        let mut stale: Vec<(usize, Option<u32>, ActionId)> = Vec::new();
        let mut now = Timestamp::ZERO;
        let mut ctx = SchedulerCtx::new();
        // Every rider is minted once and is riding until it comes back;
        // `remove` failing means it came back twice.
        let mut next_rider = 0u64;
        let mut riding: HashSet<u64> = HashSet::new();
        // What is summed over the holder lists is keyed by `holders_epoch`:
        // it must move whenever any list does. And the record of moves,
        // asked for after every operation, must say how.
        let holder_lists = |t: &Tracker| -> Vec<Vec<usize>> {
            (0..16).map(|m| t.gpus_with_model(ModelId(m)).to_vec()).collect()
        };
        let mut holders_at = (tracker.holders_epoch(), holder_lists(&tracker));
        let mut moves = Vec::new();
        prop_assert!(!tracker.holder_moves_since(holders_at.0, &mut moves), "nobody asked yet");

        for op in ops {
            now += Nanos::from_micros(100);
            let fault = matches!(op, TrackOp::Fault(_));
            match op {
                TrackOp::LoadSent { gpu, model, pages } => {
                    // The schedulers only send a LOAD to a live GPU — but
                    // may send one with fewer pages free than it needs (the
                    // FIFO discipline loads anyway when nothing is left to
                    // evict), or of a model the GPU already holds.
                    let m = ModelId(model);
                    if !tracker.gpus()[gpu].alive {
                        continue;
                    }
                    let start = tracker.next_slot(Executor::Load, gpu, now);
                    let stamp = tracker.gpus()[gpu].stamp(m);
                    let at = Placement::unbounded(refs[gpu], start, Nanos::from_millis(8));
                    let id = tracker.send_load(&mut ctx, at, m, pages * PAGE);
                    prop_assert_eq!(sent(&mut ctx, refs[gpu], id), ActionKind::Load { model: m });
                    // The reservation replaces the model's old one, if any,
                    // and is what is free if that is less than it needs.
                    let expect = &mut oracle[gpu];
                    let others: u64 =
                        expect.held.iter().filter(|(&h, _)| h != model).map(|(_, h)| h.0).sum();
                    expect.held.insert(model, (pages.min(total_pages - others), true));
                    expect.loads.push((id, model));
                    expect.free_at[1] = start + Nanos::from_millis(8);
                    // Pinned: a LOAD never overwrites an older LRU stamp.
                    prop_assert_eq!(tracker.gpus()[gpu].stamp(m), Some(stamp.unwrap_or(start)));
                }
                TrackOp::LoadResult { gpu, model, success } => {
                    let model = landing(model, oracle[gpu].loads.iter().map(|&(_, m)| m));
                    let m = ModelId(model);
                    // A stale id (its action was resolved by a fault), or
                    // failing that one never issued, is ignored — even while
                    // a newer LOAD of the same model is pending. The full
                    // check sees an oracle this did not touch.
                    let replay = stale
                        .iter()
                        .position(|&(g, sm, _)| g == gpu && sm == Some(model))
                        .map_or(ActionId(u64::MAX), |pos| stale.swap_remove(pos).2);
                    prop_assert_eq!(tracker.resolve(&report(refs[gpu], replay, success)), Resolved::Stale);
                    check_tracker_against_oracle(&tracker, &oracle, total_pages, now);
                    // The model's oldest LOAD: a success confirms whatever
                    // residency the model has (a newer LOAD's included), a
                    // failure drops it and returns its pages.
                    let expect = &mut oracle[gpu];
                    if let Some(pos) = expect.loads.iter().position(|&(_, lm)| lm == model) {
                        let (id, _) = expect.loads.remove(pos);
                        let stamp = tracker.gpus()[gpu].stamp(m);
                        let result = report(refs[gpu], id, success);
                        prop_assert_eq!(tracker.resolve(&result), Resolved::Load);
                        if !success {
                            expect.held.remove(&model);
                        } else if let Some(held) = expect.held.get_mut(&model) {
                            held.1 = false;
                        }
                        let resident = expect.held.get(&model).is_some_and(|h| !h.1);
                        prop_assert_eq!(tracker.gpus()[gpu].is_resident(m), resident);
                        prop_assert!(success || !tracker.gpus()[gpu].has_or_loading(m));
                        // Pinned: the LRU stamp outlives even a failed LOAD.
                        prop_assert_eq!(tracker.gpus()[gpu].stamp(m), stamp);
                        // And the same result again is a replay.
                        prop_assert_eq!(tracker.resolve(&result), Resolved::Stale);
                    }
                }
                TrackOp::InferSent { gpu, model, riders } => {
                    let model = landing(model, oracle[gpu].resident());
                    let m = ModelId(model);
                    if !tracker.gpus()[gpu].is_resident(m) {
                        continue;
                    }
                    let riders: Riders = (next_rider..next_rider + riders as u64).collect();
                    next_rider += riders.len() as u64;
                    riding.extend(&riders);
                    let start = tracker.next_slot(Executor::Infer, gpu, now);
                    prop_assert!(start >= now);
                    let at = Placement::unbounded(refs[gpu], start, Nanos::from_millis(3));
                    let batch = riders.len() as u32;
                    let id = tracker.send_infer(&mut ctx, at, m, batch, riders.clone(), riders.clone());
                    let kind = ActionKind::Infer { model: m, batch, request_ids: riders.clone() };
                    prop_assert_eq!(sent(&mut ctx, refs[gpu], id), kind);
                    prop_assert!(
                        tracker.next_slot(Executor::Infer, gpu, now) >= start + Nanos::from_millis(3)
                    );
                    prop_assert_eq!(tracker.gpus()[gpu].stamp(m), Some(start));
                    oracle[gpu].infers.push((id, model, riders));
                    oracle[gpu].free_at[0] = start + Nanos::from_millis(3);
                }
                TrackOp::InferResult { gpu, success } => {
                    // A result produced before the crash that resolved its
                    // INFER: the riders already came back with the fault.
                    if let Some(pos) = stale.iter().position(|&(g, m, _)| g == gpu && m.is_none()) {
                        let result = report(refs[gpu], stale.swap_remove(pos).2, success);
                        prop_assert_eq!(tracker.resolve(&result), Resolved::Stale);
                        check_tracker_against_oracle(&tracker, &oracle, total_pages, now);
                    }
                    if oracle[gpu].infers.is_empty() {
                        continue;
                    }
                    let (id, _, riders) = oracle[gpu].infers.remove(0);
                    let result = report(refs[gpu], id, success);
                    // Success or failure, the riders come back — once.
                    let resolved = tracker.resolve(&result);
                    for rider in &riders {
                        prop_assert!(riding.remove(rider), "rider {} came back twice", rider);
                    }
                    prop_assert_eq!(resolved, Resolved::Infer(riders));
                    prop_assert_eq!(tracker.resolve(&result), Resolved::Stale);
                }
                TrackOp::UnloadSent { gpu, model } => {
                    let m = ModelId(model);
                    // The scheduler never unloads a model that is still loading.
                    if oracle[gpu].held.get(&model).is_some_and(|h| h.1) {
                        continue;
                    }
                    tracker.send_unload(&mut ctx, refs[gpu], m);
                    let (worker, unload) = ctx.take_actions().remove(0);
                    prop_assert_eq!((worker, unload.gpu), (refs[gpu].worker, refs[gpu].gpu));
                    prop_assert_eq!(unload.kind, ActionKind::Unload { model: m });
                    oracle[gpu].held.remove(&model);
                    prop_assert!(!tracker.gpus()[gpu].is_resident(m));
                    prop_assert!(!tracker.gpus()[gpu].has_or_loading(m));
                    prop_assert_eq!(tracker.gpus()[gpu].stamp(m), None);
                }
                TrackOp::EvictUntilFits { gpu, pages } => {
                    // Protected: model 0, and whatever an INFER is
                    // outstanding for on this GPU (read off the track).
                    let busy: HashSet<u32> = oracle[gpu].infers.iter().map(|i| i.1).collect();
                    let fits =
                        tracker.evict_until_fits(&mut ctx, refs[gpu], pages * PAGE, |track, m| {
                            m == ModelId(0) || track.outstanding.values().any(|a| a.model == m)
                        });
                    let victims = ctx.take_actions();
                    let expect = &mut oracle[gpu];
                    for (worker, unload) in victims {
                        prop_assert_eq!((worker, unload.gpu), (refs[gpu].worker, refs[gpu].gpu));
                        let ActionKind::Unload { model: victim } = unload.kind else {
                            panic!("eviction sent {:?}", unload.kind);
                        };
                        let held = expect.held.remove(&victim.0);
                        prop_assert!(held.is_some_and(|h| !h.1), "victim {} was not resident", victim);
                        prop_assert!(victim != ModelId(0) && !busy.contains(&victim.0), "protected model evicted");
                    }
                    let track = &tracker.gpus()[gpu];
                    prop_assert_eq!(fits, pages <= track.free_pages);
                    // Eviction stops as soon as the blob fits, and gives up
                    // only once no unprotected resident is left.
                    let spared = |m: ModelId| m == ModelId(0) || busy.contains(&m.0);
                    prop_assert!(fits || track.lru_candidate(spared).is_none());
                }
                TrackOp::Fault(fault) => {
                    let loads: HashMap<ActionId, u32> = oracle
                        .iter()
                        .flat_map(|g| g.loads.iter().copied())
                        .collect();
                    let expected = oracle_fault(&mut oracle, &mut down, now, &fault);
                    let lost: Vec<Lost> = tracker
                        .apply_fault(now, &fault)
                        .into_iter()
                        .map(|(i, a)| (i, a.id, a.riders))
                        .collect();
                    prop_assert_eq!(&lost, &expected, "{:?}", fault);
                    // The fault hands every lost rider back, and the actions
                    // it resolved are stale from here on.
                    for (gpu, id, riders) in lost {
                        prop_assert_eq!(riders.is_none(), loads.contains_key(&id));
                        for rider in riders.iter().flatten() {
                            prop_assert!(riding.remove(rider), "rider {} came back twice", rider);
                        }
                        stale.push((gpu, loads.get(&id).copied(), id));
                    }
                }
            }
            check_tracker_against_oracle(&tracker, &oracle, total_pages, now);
            let holders_now = (tracker.holders_epoch(), holder_lists(&tracker));
            prop_assert!(holders_now.0 >= holders_at.0);
            prop_assert!(
                holders_now.0 != holders_at.0 || holders_now.1 == holders_at.1,
                "a holder list moved under epoch {}", holders_now.0
            );
            // The lists before with the recorded moves applied in order are
            // the lists after — unless a GPU failed, which unlists its whole
            // table unrecorded.
            if tracker.holder_moves_since(holders_at.0, &mut moves) {
                let mut replayed = holders_at.1.clone();
                for moved in &moves {
                    let list = &mut replayed[moved.model.0 as usize];
                    prop_assert_eq!(list.contains(&moved.gpu), !moved.joined);
                    list.retain(|&gpu| gpu != moved.gpu);
                    if moved.joined {
                        list.push(moved.gpu);
                        list.sort_unstable();
                    }
                }
                prop_assert_eq!(&replayed, &holders_now.1);
            } else {
                prop_assert!(fault, "a gap in the record with no GPU failed");
            }
            holders_at = holders_now;
            // Never neither: a rider is either still in the ledger (the
            // check above matched it to the oracle's) or has come back.
            let in_ledger: usize = oracle.iter().flat_map(|g| &g.infers).map(|i| i.2.len()).sum();
            prop_assert_eq!(riding.len(), in_ledger);
        }
    }

    #[test]
    fn gpu_track_lru_candidate_is_least_recently_used_resident(
        ops in proptest::collection::vec((0u32..5, 0u32..8, 0u64..12), 1..80),
        protected in 0u32..256,
        quirk in (0u32..8, 0u64..12, 0u64..12),
    ) {
        // One GPU, eight models. The test keeps its own copy of what is
        // held (`None` absent, `Some(loading)`), which LOAD is outstanding
        // and every stamp, under the tracker's documented rules: an INFER
        // overwrites the stamp, a LOAD sets it only if there is none, an
        // UNLOAD clears it, a failed LOAD leaves it behind. Stamps come
        // from a dozen values so ties are the norm, and any set of models
        // may be protected.
        let gpu = gref(0, 0);
        let mut tracker = WorkerStateTracker::<()>::new();
        let mut ctx = SchedulerCtx::new();
        tracker.add_gpu(gpu, 1024, PAGE);
        let mut held: [Option<bool>; 8] = [None; 8];
        let mut loads: [Option<ActionId>; 8] = [None; 8];
        let mut stamps: [Option<Timestamp>; 8] = [None; 8];
        let protect = |m: ModelId| protected >> m.0 & 1 == 1;
        let stamp_of = |tick: u64| Timestamp::from_millis(1 + tick);
        // The quirk first, so every case has it: a LOAD that fails leaves
        // its stamp with no residency under it, and the re-sent LOAD keeps
        // that older stamp. Then the random operations.
        let (quirk, first, second) = quirk;
        let script = [(0, quirk, first), (2, quirk, 0), (0, quirk, second), (1, quirk, 0)];
        for (step, (kind, model, tick)) in script.into_iter().chain(ops).enumerate() {
            let (m, i) = (ModelId(model), model as usize);
            let at = Placement::unbounded(gpu, stamp_of(tick), Nanos::from_millis(3));
            match (kind, held[i]) {
                (0, None) => {
                    loads[i] = Some(tracker.send_load(&mut ctx, at, m, 4 * PAGE));
                    held[i] = Some(true);
                    stamps[i].get_or_insert(at.start);
                }
                (1 | 2, Some(true)) => {
                    let id = loads[i].take().expect("a loading model has a LOAD outstanding");
                    let success = kind == 1;
                    prop_assert_eq!(tracker.resolve(&report(gpu, id, success)), Resolved::Load);
                    held[i] = success.then_some(false);
                }
                (3, Some(_)) => {
                    tracker.send_infer(&mut ctx, at, m, 1, vec![], ());
                    // The track records the start time of the most recently
                    // *scheduled* INFER, mirroring §5.3's "last used"
                    // bookkeeping.
                    stamps[i] = Some(at.start);
                }
                (4, Some(false)) => {
                    tracker.send_unload(&mut ctx, gpu, m);
                    held[i] = None;
                    stamps[i] = None;
                }
                _ => continue,
            }
            let track = &tracker.gpus()[0];
            let stamped: Vec<(ModelId, Timestamp)> =
                track.table().iter().map(|row| (row.model, row.stamp)).collect();
            let expected: Vec<(ModelId, Timestamp)> = (0..8u32)
                .filter_map(|m| Some((ModelId(m), stamps[m as usize]?)))
                .collect();
            prop_assert_eq!(stamped, expected, "stamps, orphaned ones included");
            match step {
                1 => prop_assert!(!track.has_or_loading(m) && stamps[i] == Some(stamp_of(first))),
                3 => prop_assert!(track.is_resident(m) && stamps[i] == Some(stamp_of(first))),
                _ => {}
            }
            // The oracle, over the test's own copy of the state: filter,
            // then the minimum `(stamp or zero, id)`.
            let oracle = |protect: &dyn Fn(ModelId) -> bool| {
                (0..8u32)
                    .map(ModelId)
                    .filter(|&m| held[m.0 as usize] == Some(false) && !protect(m))
                    .min_by_key(|&m| (stamps[m.0 as usize].unwrap_or(Timestamp::ZERO), m))
            };
            prop_assert_eq!(track.lru_candidate(protect), oracle(&protect));
            prop_assert_eq!(track.lru_candidate(|_| false), oracle(&|_| false));
        }
    }

    #[test]
    fn tracker_routing_queries_are_consistent(
        loads in proptest::collection::vec((0u32..4, 0u32..2, 0u32..12), 0..60),
        probe_model in 0u32..12,
    ) {
        let mut tracker = WorkerStateTracker::<()>::new();
        let mut ctx = SchedulerCtx::new();
        for w in 0..4u32 {
            for g in 0..2u32 {
                tracker.add_gpu(gref(w, g), 256, PAGE);
            }
        }
        prop_assert_eq!(tracker.len(), 8);
        for &(w, g, m) in &loads {
            let r = gref(w, g);
            let track = tracker.get(r).expect("gpu registered");
            if track.has_or_loading(ModelId(m)) || track.free_pages < 4 {
                continue;
            }
            let at = Placement::unbounded(r, Timestamp::ZERO, Nanos::from_millis(1));
            let id = tracker.send_load(&mut ctx, at, ModelId(m), 4 * PAGE);
            tracker.resolve(&report(r, id, true));
        }
        let probe = ModelId(probe_model);
        let holders: Vec<GpuRef> = tracker
            .gpus_with_model(probe)
            .iter()
            .map(|&i| tracker.gpus()[i].gpu_ref)
            .collect();
        prop_assert_eq!(
            tracker.gpus().iter().any(|t| t.has_or_loading(probe)),
            !holders.is_empty()
        );
        for r in &holders {
            prop_assert!(tracker.get(*r).unwrap().is_resident(probe));
        }
        for track in tracker.gpus() {
            if track.is_resident(probe) {
                prop_assert!(holders.contains(&track.gpu_ref));
            }
        }
        // The least-loaded GPU is one of the registered GPUs and has the
        // minimal next exec slot; excluded GPUs are never chosen.
        let now = Timestamp::from_millis(5);
        let least = tracker.least_loaded_gpu(now, &[]).expect("gpus registered");
        let slot = |r: GpuRef| tracker.next_slot(Executor::Infer, tracker.gpu_index(r).unwrap(), now);
        let min_slot = tracker.gpus().iter().map(|t| slot(t.gpu_ref)).min().unwrap();
        prop_assert_eq!(slot(least), min_slot);
        if let Some(other) = tracker.least_loaded_gpu(now, &holders) {
            prop_assert!(!holders.contains(&other));
        } else {
            prop_assert_eq!(holders.len(), 8);
        }
    }
}

/// The residency table against the structure it replaced: the pair of
/// `BTreeMap`s `GpuTrack` kept until PR 25 — residencies by model and LRU
/// stamps by model — with the same writers and `lru_candidate` as the merge
/// walk of the two. The page arithmetic is the exact one on both sides; what
/// is kept is the structure.
mod two_maps {
    use std::cell::Cell;
    use std::collections::BTreeMap;

    use clockwork_controller::worker_state::Residency;

    use super::*;

    const MODELS: u32 = 12;

    #[derive(Debug, Default)]
    struct TwinTrack {
        models: BTreeMap<ModelId, Residency>,
        last_used: BTreeMap<ModelId, Timestamp>,
        free_pages: u64,
    }

    impl TwinTrack {
        fn infer(&mut self, model: ModelId, start: Timestamp) {
            self.last_used.insert(model, start);
        }

        fn load(&mut self, model: ModelId, pages: u64, start: Timestamp) {
            if let Some(replaced) = self.models.get(&model) {
                self.free_pages += replaced.pages;
            }
            let pages = pages.min(self.free_pages);
            self.free_pages -= pages;
            let loading = true;
            self.models.insert(model, Residency { pages, loading });
            self.last_used.entry(model).or_insert(start);
        }

        fn resolve_load(&mut self, model: ModelId, success: bool) {
            if !success {
                self.drop_residency(model);
            } else if let Some(held) = self.models.get_mut(&model) {
                held.loading = false;
            }
        }

        fn drop_residency(&mut self, model: ModelId) {
            if let Some(held) = self.models.remove(&model) {
                self.free_pages += held.pages;
            }
        }

        fn unload(&mut self, model: ModelId) {
            self.drop_residency(model);
            self.last_used.remove(&model);
        }

        fn wipe(&mut self, total_pages: u64) {
            self.models.clear();
            self.last_used.clear();
            self.free_pages = total_pages;
        }

        /// PR 24's `lru_candidate`, verbatim but for the field names.
        fn lru_candidate(&self, protect: impl Fn(ModelId) -> bool) -> Option<ModelId> {
            let mut stamps = self.last_used.iter().peekable();
            let mut best: Option<(Timestamp, ModelId)> = None;
            for (&model, held) in &self.models {
                while stamps.next_if(|&(&stamped, _)| stamped < model).is_some() {}
                let stamp = stamps
                    .next_if(|&(&stamped, _)| stamped == model)
                    .map_or(Timestamp::ZERO, |(_, &at)| at);
                let key = (stamp, model);
                if held.loading || best.is_some_and(|best| key >= best) || protect(model) {
                    continue;
                }
                best = Some(key);
            }
            best.map(|(_, model)| model)
        }

        /// `evict_until_fits` over the twin: whether the blob fits, and the
        /// victims in order.
        fn evict(&mut self, pages: u64, protect: impl Fn(ModelId) -> bool) -> (bool, Vec<ModelId>) {
            let mut victims = Vec::new();
            loop {
                if pages <= self.free_pages {
                    return (true, victims);
                }
                let Some(victim) = self.lru_candidate(&protect) else {
                    return (false, victims);
                };
                self.unload(victim);
                victims.push(victim);
            }
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Load {
            model: u32,
            pages: u64,
            tick: u64,
        },
        Infer {
            model: u32,
            tick: u64,
        },
        /// Resolves the `nth` outstanding LOAD (modulo how many there are).
        LoadResult {
            nth: usize,
            success: bool,
        },
        Unload {
            model: u32,
        },
        Evict {
            pages: u64,
            protected: u32,
        },
        Fault(FaultKind),
    }

    fn op() -> impl Strategy<Value = Op> {
        let model = || 0..MODELS;
        let load = || {
            (model(), 1u64..12, 0u64..16).prop_map(|(model, pages, tick)| Op::Load {
                model,
                pages,
                tick,
            })
        };
        let infer = || (model(), 0u64..16).prop_map(|(model, tick)| Op::Infer { model, tick });
        prop_oneof![
            load(),
            load(),
            infer(),
            infer(),
            (0usize..8, any::<bool>()).prop_map(|(nth, success)| Op::LoadResult { nth, success }),
            (0usize..8).prop_map(|nth| Op::LoadResult { nth, success: true }),
            model().prop_map(|model| Op::Unload { model }),
            (1u64..48, 0u32..1 << MODELS)
                .prop_map(|(pages, protected)| Op::Evict { pages, protected }),
            prop_oneof![
                Just(FaultKind::GpuFail { worker: 0, gpu: 0 }),
                Just(FaultKind::GpuRecover { worker: 0, gpu: 0 }),
                Just(FaultKind::WorkerCrash { worker: 0 }),
                Just(FaultKind::WorkerRestart { worker: 0 }),
            ]
            .prop_map(Op::Fault),
        ]
    }

    /// `track.lru_candidate` or the twin's under `protect`, and how many
    /// times it asked.
    fn counted(
        pick: impl Fn(&dyn Fn(ModelId) -> bool) -> Option<ModelId>,
        mask: u32,
    ) -> (Option<ModelId>, u32) {
        let asked = Cell::new(0);
        let victim = pick(&|m: ModelId| {
            asked.set(asked.get() + 1);
            mask >> m.0 & 1 == 1
        });
        (victim, asked.get())
    }

    proptest! {
        /// After every operation the table and the two maps agree on every
        /// model's residency and stamp and on the free pages, and
        /// `lru_candidate` — alone and inside `evict_until_fits` — picks
        /// the same victims under a random `protect`, asking it the same
        /// number of times.
        #[test]
        fn the_table_answers_what_the_two_maps_did(
            ops in proptest::collection::vec(op(), 0..160),
            total_pages in 8u64..64,
            masks in proptest::collection::vec(0u32..1 << MODELS, 4),
        ) {
            let gpu = gref(0, 0);
            let mut t = WorkerStateTracker::<()>::new();
            t.add_gpu(gpu, total_pages, PAGE);
            let mut twin = TwinTrack { free_pages: total_pages, ..TwinTrack::default() };
            let mut ctx = SchedulerCtx::new();
            let mut loads: Vec<(ActionId, ModelId)> = Vec::new();
            let stamp_of = |tick: u64| Timestamp::from_millis(1 + tick);
            for op in ops {
                match op {
                    Op::Load { model, pages, tick } => {
                        let (m, start) = (ModelId(model), stamp_of(tick));
                        let at = Placement::unbounded(gpu, start, Nanos::from_millis(8));
                        loads.push((t.send_load(&mut ctx, at, m, pages * PAGE), m));
                        twin.load(m, pages, start);
                    }
                    Op::Infer { model, tick } => {
                        let (m, start) = (ModelId(model), stamp_of(tick));
                        let at = Placement::unbounded(gpu, start, Nanos::from_millis(3));
                        t.send_infer(&mut ctx, at, m, 1, vec![], ());
                        twin.infer(m, start);
                    }
                    Op::LoadResult { nth, success } => {
                        if loads.is_empty() {
                            continue;
                        }
                        let (id, m) = loads.remove(nth % loads.len());
                        prop_assert_eq!(t.resolve(&report(gpu, id, success)), Resolved::Load);
                        twin.resolve_load(m, success);
                    }
                    Op::Unload { model } => {
                        t.send_unload(&mut ctx, gpu, ModelId(model));
                        twin.unload(ModelId(model));
                    }
                    Op::Evict { pages, protected } => {
                        let protect = |m: ModelId| protected >> m.0 & 1 == 1;
                        let (asked, twin_asked) = (Cell::new(0), Cell::new(0));
                        let fits =
                            t.evict_until_fits(&mut ctx, gpu, pages * PAGE, |_, m| {
                                asked.set(asked.get() + 1);
                                protect(m)
                            });
                        let (twin_fits, twin_victims) = twin.evict(pages, |m| {
                            twin_asked.set(twin_asked.get() + 1);
                            protect(m)
                        });
                        let victims: Vec<ModelId> =
                            ctx.take_actions().into_iter().map(|(_, a)| a.kind.model()).collect();
                        prop_assert_eq!(fits, twin_fits);
                        prop_assert_eq!(victims, twin_victims);
                        prop_assert_eq!(asked.get(), twin_asked.get(), "protect calls");
                    }
                    Op::Fault(fault) => {
                        t.apply_fault(Timestamp::from_millis(100), &fault);
                        if matches!(fault, FaultKind::GpuFail { .. } | FaultKind::WorkerCrash { .. }) {
                            twin.wipe(total_pages);
                            loads.clear();
                        }
                    }
                }
                ctx.take_actions();
                let track = &t.gpus()[0];
                prop_assert_eq!(track.free_pages, twin.free_pages);
                for m in (0..MODELS).map(ModelId) {
                    let held = twin.models.get(&m).copied();
                    prop_assert_eq!(track.residency(m), held);
                    prop_assert_eq!(track.stamp(m), twin.last_used.get(&m).copied());
                    prop_assert_eq!(track.has_or_loading(m), held.is_some());
                    prop_assert_eq!(track.is_resident(m), held.is_some_and(|r| !r.loading));
                }
                for &mask in &masks {
                    prop_assert_eq!(
                        counted(|protect| track.lru_candidate(protect), mask),
                        counted(|protect| twin.lru_candidate(protect), mask)
                    );
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// ClockworkScheduler black-box admission behaviour
// ----------------------------------------------------------------------

/// Drives the scheduler with `requests` (model, slo) pairs arriving together
/// at t = 1 ms and collects everything it emits over a handful of ticks,
/// without simulating any worker: LOADs are acknowledged as instantly
/// successful so INFER scheduling can proceed.
fn drive_scheduler(
    config: ClockworkSchedulerConfig,
    registered_models: u32,
    requests: &[(u32, Nanos)],
) -> (
    Vec<clockwork_worker::Action>,
    Vec<clockwork_controller::request::Response>,
) {
    let zoo = ModelZoo::new();
    let spec = Arc::new(zoo.resnet50().clone());
    let mut sched = ClockworkScheduler::new(config);
    sched.add_gpu(gref(0, 0), 1620, PAGE);
    for m in 0..registered_models {
        sched.add_model(m.into_model_id(), Arc::clone(&spec), Nanos::from_millis(8));
    }

    let mut ctx = SchedulerCtx::new();
    let mut actions = Vec::new();
    let mut responses = Vec::new();
    let arrival = Timestamp::from_millis(1);
    for (i, &(model, slo)) in requests.iter().enumerate() {
        sched.on_request(
            arrival,
            InferenceRequest {
                id: RequestId(i as u64),
                model: ModelId(model),
                arrival,
                slo,
                tier: Tier::Strict,
            },
            &mut ctx,
        );
    }
    let mut now = arrival;
    for _ in 0..50 {
        sched.on_tick(now, &mut ctx);
        let new_actions = ctx.take_actions();
        responses.extend(ctx.take_responses());
        for (worker, action) in new_actions {
            // Acknowledge LOADs immediately and successfully so the scheduler
            // can make progress; leave INFERs unanswered (we only inspect
            // what was scheduled, not completions).
            if let ActionKind::Load { model } = action.kind {
                let result = clockwork_worker::ActionResult {
                    action_id: action.id,
                    worker,
                    gpu: action.gpu,
                    model,
                    action_type: "LOAD",
                    batch: 1,
                    request_ids: Vec::new(),
                    expected_duration: action.expected_duration,
                    outcome: clockwork_worker::ActionOutcome::Success(
                        clockwork_worker::ActionTiming {
                            received: now,
                            start: action.window.earliest,
                            end: action.window.earliest + action.expected_duration,
                            device_duration: action.expected_duration,
                        },
                    ),
                };
                sched.on_result(now, &result, &mut ctx);
            }
            actions.push(action);
        }
        now += Nanos::from_millis(1);
    }
    responses.extend(ctx.take_responses());
    (actions, responses)
}

/// Helper so the proptest closure can name `ModelId` tersely.
trait IntoModelId {
    fn into_model_id(self) -> ModelId;
}

impl IntoModelId for u32 {
    fn into_model_id(self) -> ModelId {
        ModelId(self)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scheduler_rejects_unknown_models_and_emits_no_actions_for_them(
        unknown in 5u32..50,
        slo_ms in 1u64..1000,
    ) {
        let (actions, responses) = drive_scheduler(
            ClockworkSchedulerConfig::default(),
            4,
            &[(unknown, Nanos::from_millis(slo_ms))],
        );
        prop_assert!(actions.iter().all(|a| a.kind.model() != ModelId(unknown)));
        prop_assert_eq!(responses.len(), 1);
        match responses[0].outcome {
            RequestOutcome::Rejected { reason, .. } => {
                prop_assert_eq!(reason, RejectReason::UnknownModel);
            }
            RequestOutcome::Success { .. } => prop_assert!(false, "unknown model cannot succeed"),
        }
    }

    #[test]
    fn scheduler_admission_control_rejects_impossible_slos_without_wasting_work(
        slo_us in 1u64..2000,
        copies in 1usize..8,
    ) {
        // ResNet50 batch-1 execution alone is ~2.61 ms; an SLO well below
        // that can never be met, and Clockwork rejects it up-front (§4.1).
        let requests: Vec<(u32, Nanos)> = (0..copies).map(|_| (0, Nanos::from_micros(slo_us))).collect();
        let (actions, responses) = drive_scheduler(ClockworkSchedulerConfig::default(), 1, &requests);
        prop_assert!(actions.iter().all(|a| !a.kind.is_infer()),
            "scheduled an INFER that could never meet its SLO");
        prop_assert_eq!(responses.len(), copies);
        for r in &responses {
            match r.outcome {
                RequestOutcome::Rejected { reason, .. } => {
                    prop_assert!(
                        reason == RejectReason::CannotMeetSlo
                            || reason == RejectReason::DeadlineElapsed
                    );
                }
                RequestOutcome::Success { .. } => prop_assert!(false, "impossible SLO reported as met"),
            }
        }
    }

    #[test]
    fn scheduler_serves_each_request_at_most_once_with_supported_batches(
        per_model in proptest::collection::vec(1usize..12, 1..4),
        slo_ms in 50u64..500,
    ) {
        let zoo = ModelZoo::new();
        let max_batch = zoo.resnet50().max_batch();
        let mut requests = Vec::new();
        for (model, &count) in per_model.iter().enumerate() {
            for _ in 0..count {
                requests.push((model as u32, Nanos::from_millis(slo_ms)));
            }
        }
        let (actions, responses) =
            drive_scheduler(ClockworkSchedulerConfig::default(), per_model.len() as u32, &requests);

        let mut seen = HashSet::new();
        for a in &actions {
            prop_assert!(a.window.earliest <= a.window.latest);
            prop_assert!(a.expected_duration > Nanos::ZERO);
            if let ActionKind::Infer { model, batch, request_ids } = &a.kind {
                prop_assert!((model.0 as usize) < per_model.len(), "INFER for unregistered model");
                prop_assert!(*batch >= 1 && *batch <= max_batch);
                prop_assert!(zoo.resnet50().exec_latency(*batch).is_some(),
                    "batch size {} has no compiled kernel", batch);
                prop_assert!(!request_ids.is_empty());
                prop_assert!(request_ids.len() <= *batch as usize,
                    "batch {} smaller than its {} bundled requests", batch, request_ids.len());
                for r in request_ids {
                    prop_assert!(seen.insert(*r), "request {} scheduled twice", r);
                }
            }
        }
        // No request is answered more than once either.
        let mut answered = HashSet::new();
        for r in &responses {
            prop_assert!(answered.insert(r.request), "request {} answered twice", r.request);
        }
    }

    #[test]
    fn scheduler_without_batching_schedules_singleton_batches(
        count in 2usize..16,
        slo_ms in 50u64..200,
    ) {
        let config = ClockworkSchedulerConfig {
            batching: false,
            ..ClockworkSchedulerConfig::default()
        };
        let requests: Vec<(u32, Nanos)> = (0..count).map(|_| (0, Nanos::from_millis(slo_ms))).collect();
        let (actions, _) = drive_scheduler(config, 1, &requests);
        for a in &actions {
            if let ActionKind::Infer { request_ids, .. } = &a.kind {
                prop_assert_eq!(request_ids.len(), 1, "batching disabled but requests were bundled");
            }
        }
    }

    #[test]
    fn scheduler_only_infers_after_load_on_a_cold_gpu(
        count in 1usize..8,
        slo_ms in 50u64..200,
    ) {
        let requests: Vec<(u32, Nanos)> = (0..count).map(|_| (0, Nanos::from_millis(slo_ms))).collect();
        let (actions, _) = drive_scheduler(ClockworkSchedulerConfig::default(), 1, &requests);
        let first_infer = actions.iter().position(|a| a.kind.is_infer());
        let first_load = actions
            .iter()
            .position(|a| matches!(a.kind, ActionKind::Load { .. }));
        if let Some(infer_idx) = first_infer {
            let load_idx = first_load.expect("an INFER on a cold GPU requires a prior LOAD");
            prop_assert!(load_idx < infer_idx,
                "INFER was scheduled before any LOAD on a cold GPU");
        }
    }
}
