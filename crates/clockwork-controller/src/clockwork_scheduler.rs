//! The Clockwork scheduler (§5.3 and Appendix B).
//!
//! All choice in the system is concentrated here. The scheduler keeps a
//! per-model queue of pending requests and, for every (worker, GPU) pair,
//! tops up a *minimal* schedule — by default only 5 ms of work is outstanding
//! on any executor at a time. Keeping the outstanding window small is what
//! lets the controller keep its options open (late binding improves batching
//! opportunities), and it is only possible because worker executions are
//! predictable.
//!
//! INFER scheduling follows the paper's strategy mechanism: for every model
//! with queued requests the scheduler considers each compiled batch size,
//! prefers the largest batch that still meets the earliest deadline of the
//! requests it would serve, and orders candidates by their *required start
//! time* (deadline minus estimated execution time). LOAD scheduling uses the
//! demand/allocation model of Appendix B: a model's load priority is its
//! outstanding work minus the share of GPU capacity already allocated to it
//! on the GPUs where it is resident; UNLOAD victims are chosen
//! least-recently-used. Admission control rejects requests whose SLO cannot
//! be met even in the best case, before any work is wasted on them.
//!
//! The scheduler's state is two things, each with one owner: the mirror of
//! the workers with the ledger of in-flight actions ([`WorkerStateTracker`])
//! and the queued requests (`RequestQueues`, crate-private) — a request is
//! always in exactly one of the two. What is kept here is policy, plus what
//! policy derives from those two.
//!
//! Every callback runs the whole pass (expire → INFER → LOAD → INFER), so
//! the pass re-derives only what moved since the last one. Two caches carry
//! the rest over:
//!
//! * a model's **strategy list** validates itself by key — it remembers the
//!   (queue version, profiler `model_epoch`) it was built from and is rebuilt
//!   on the next read that finds either moved; nothing marks it stale.
//!   `RequestQueues` bumps the version on every push, dispatch, expiry and
//!   requeue of that model, and the profiler bumps the epoch on every seed or
//!   measurement of it — other models' lists are untouched by either;
//! * the pass-local **LOAD priority list** goes stale when residency changes
//!   (a LOAD or eviction dispatched by the LOAD pass itself) and is
//!   recomputed before its next use; between dispatches it is reused across
//!   GPUs and slots.
//!
//! Time passing alone invalidates neither — what it can change (deadlines
//! lapsing, executors entering the lookahead, cold rejections ageing out) is
//! handled by the expiry pass and the clean horizon (`clean_until`, the
//! earliest instant a tick could decide anything; a topology change resets
//! it to zero). And when a pass has sent no action at all by the time its
//! second INFER pass is due, that pass would see exactly the state the first
//! one left and is skipped.
//!
//! Each stage costs what can act, not what is registered — and not what is
//! queued either. Both passes start from the per-GPU ledger of waiting work
//! (`WaitingLedger`, crate-private: every model's LOAD demand — its queue's
//! plus that of its recent cold rejections — and, per GPU, the ascending list
//! of the queued models it holds, an integer upper bound on the demand shares
//! charged to it and, once summed, its load — the paper's per-GPU strategy
//! queues and `l_g`, updated as requests arrive, complete and move). The
//! INFER pass visits the GPUs the ledger lists as holding (or loading) a
//! queued model that are free inside the lookahead — Appendix B puts a
//! model's strategies only on the GPUs where it is loaded — and reads each
//! one's candidates off its list, so an idle GPU holding nothing that waits
//! is never looked at, no queued model's holder list is walked and no
//! residency table is intersected with the queued set. The LOAD pass prices
//! nothing unless a demanded model has no holder or some GPU is charged
//! beyond the priority horizon (otherwise no priority can be positive), nor
//! unless some LOAD executor is inside the lookahead; when it prices, it
//! prices only the unheld models and those waiting on an over-charged GPU —
//! the rest are served more than they demand — reading the load of just the
//! GPUs that hold one of them, kept from the last evaluation unless one of
//! its terms moved; and it visits GPUs only once a model has come back with a
//! positive priority, stopping as soon as the priorities run dry. The expiry
//! pass expires only the queues whose earliest deadline falls before their
//! own cutoff, read off the urgency index. The clean horizon's "next executor to
//! enter the lookahead" reads the top of the tracker's heap of claims past
//! the last horizon asked about, not the fleet. An eviction asks whether a
//! model is protected only when it would otherwise be the least recently used
//! so far.
//!
//! That ledger is the one structure here that is *pushed to* rather than
//! validated by key — visiting its keys is the cost it removes — and its
//! charges are the scheduler's one cache of demand. The scheduler recharges a
//! model wherever its demand can move: every queue mutation goes through
//! `with_queue`, every change to its record of cold rejections through
//! `with_cold_history`, every profiler measurement is followed by
//! `recharge`. A holder-list change (the tracker's `holders_epoch`) is
//! replayed from the tracker's record of which model moved and how, before
//! the next recharge or read: that model's shares move from its old holders
//! to its new ones, so a LOAD or an eviction costs the holders of what moved.
//! Only a GPU joining or failing, or a gap in the record, makes the next read
//! spread the stored charges over the lists afresh. It is kept honest by its
//! oracle, not by trust: debug builds compare every charge, list and kept
//! load with a from-scratch rebuild before every read, the candidates of every
//! INFER slot with the intersection they replaced, and every priced LOAD
//! evaluation with the full walk over every demanded model, bit for bit; and
//! they re-run the full walk behind every skipped LOAD pass. The expiry list
//! and the LOAD pass's visit are checked the same way, against a scan of
//! every queued model and a snapshot of the actionable GPUs.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use clockwork_metrics::trace::TraceEvent;
use clockwork_model::{ModelId, ModelSpec, ModelTable, Tier};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionOutcome, ActionResult, TimeWindow};

use crate::batching;
use crate::profile::{ActionProfiler, ProfileKey};
use crate::request::{InferenceRequest, RejectReason, Response};
use crate::request_queues::{PendingRequest, RequestQueues};
use crate::sched_profile::SchedProfile;
use crate::scheduler::{Scheduler, SchedulerCtx, TickOutcome};
#[cfg(any(test, debug_assertions))]
use crate::waiting_ledger::LedgerTotals;
use crate::waiting_ledger::{merged, WaitingLedger};
use crate::worker_state::{Executor, GpuRef, HolderMove, Placement, Resolved, WorkerStateTracker};

/// How much work to keep outstanding per executor (§5.3: 5 ms).
const LOOKAHEAD: Nanos = Nanos::from_millis(5);
/// Interval between scheduler ticks when work is pending.
pub const TICK_INTERVAL: Nanos = Nanos::from_millis(1);
/// Time reserved for network transfers and output delivery when checking
/// deadlines.
const NETWORK_ALLOWANCE: Nanos = Nanos::from_micros(500);
/// Extra margin added after an outstanding LOAD before an INFER that depends
/// on it may start.
const LOAD_MARGIN: Nanos = Nanos::from_micros(500);
/// Width of the execution window granted to LOAD actions.
const LOAD_WINDOW: Nanos = Nanos::from_millis(20);
/// Horizon over which GPU capacity is compared against model demand when
/// computing load priorities (Appendix B).
const LOAD_PRIORITY_HORIZON: Nanos = Nanos::from_millis(100);
/// The per-GPU bound on charged demand shares (see [`WaitingLedger`]) up to
/// which no load priority can be positive: the horizon less a 10⁻⁶ margin.
/// The bound is an integer sum of rounded-up shares, so it is at least the
/// float `gpu_load` the priorities divide by, up to the ≈ 10⁻¹³ relative
/// error of summing a few hundred doubles; at or below this limit every
/// `capacity / gpu_load` factor is therefore above 1 + 10⁻⁶, which swamps the
/// rounding of `demand / n` summed `n` times, and `served > demand`.
const LOAD_PRICELESS_BOUND: Nanos = Nanos::from_nanos(
    LOAD_PRIORITY_HORIZON.as_nanos() - LOAD_PRIORITY_HORIZON.as_nanos() / 1_000_000,
);
/// Headroom multiplier (in thousandths) applied to the pressure-adjusted
/// best-case serving estimate of best-effort requests at admission: a
/// best-effort request is admitted only if *six times* its best case —
/// including its fair share of the fleet-wide backlog's drain time — still
/// meets its deadline. Under pressure that bar crosses while strict
/// admission is still open, so graceful degradation sheds the discount tier
/// first. Inert for all-strict workloads: the tier check never fires.
const BEST_EFFORT_HEADROOM_MILLI: u64 = 6000;

/// Configuration of the Clockwork scheduler: the two ablation switches.
/// Everything else the paper fixes is a constant of this module; the action
/// profiler uses its own paper defaults (§5.3: last 10 measurements, 99th
/// percentile).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClockworkSchedulerConfig {
    /// Whether to reject requests that cannot meet their SLO (admission
    /// control). Disabled in one of the ablations.
    pub admission_control: bool,
    /// Whether request batching is enabled. Disabled in one of the ablations.
    pub batching: bool,
}

impl Default for ClockworkSchedulerConfig {
    fn default() -> Self {
        ClockworkSchedulerConfig {
            admission_control: true,
            batching: true,
        }
    }
}

/// Per-model policy state: the spec and the strategy cache derived from the
/// model's queue and estimates.
#[derive(Clone, Debug)]
struct ModelEntry {
    spec: Arc<ModelSpec>,
    /// Cached `(batch, required_start, suffix_max_required_start)` strategy
    /// candidates in ascending batch order, mirroring Appendix B's strategy
    /// queue. The third element is the maximum `required_start` from this
    /// entry to the end of the list — non-increasing by construction, which
    /// is what lets [`ClockworkScheduler::strategy_for`] binary-search for
    /// the last feasible entry (`required_start` itself is *usually*
    /// non-increasing, but measured profiles can make a larger batch
    /// faster). Valid while `strategies_for` is still (queue version,
    /// profiler `model_epoch`).
    strategies: Vec<(u32, Timestamp, Timestamp)>,
    strategies_for: (u64, u64),
    /// The model's compiled batch sizes, ascending — cached off the spec so
    /// the admission path's amortized-cost cover never allocates.
    supported: Vec<u32>,
}

impl ModelEntry {
    fn new(spec: Arc<ModelSpec>) -> Self {
        let supported = spec.supported_batches();
        ModelEntry {
            spec,
            // A queue's version is 0 only while it has never held a request,
            // and the strategies of such a queue are the empty list.
            strategies: Vec::new(),
            strategies_for: (0, 0),
            supported,
        }
    }
}

/// The Clockwork scheduler.
pub struct ClockworkScheduler {
    config: ClockworkSchedulerConfig,
    /// Per-model policy state, dense by model id (see [`ModelTable`]).
    models: ModelTable<ModelEntry>,
    /// Every admitted request not yet dispatched (see [`RequestQueues`]).
    queues: RequestQueues,
    /// The mirror of the workers; every dispatched request rides on its
    /// INFER's entry in the tracker's ledger until that resolves.
    tracker: WorkerStateTracker<Vec<PendingRequest>>,
    profiler: ActionProfiler,
    /// Every model's demand and, per GPU, the waiting work it holds (see
    /// [`WaitingLedger`]): pushed to by [`Self::recharge`], moved with the
    /// holder lists by [`Self::replay_holder_moves`] (rebuilt by
    /// [`Self::sync_ledger`] when they cannot be replayed), and both passes
    /// start from it.
    ledger: WaitingLedger,
    /// Recent requests rejected up-front *only because their model was cold*
    /// (they would have fit their SLO on a warm GPU). Appendix B drives LOAD
    /// priorities from estimated SLO violations, so these rejections must
    /// still register as demand — otherwise a model whose SLO is tighter than
    /// its own cold-start time is never loaded and never becomes servable.
    /// A model has a history only while it has no holder: one is started
    /// only for a model held nowhere, and the LOAD that gives it a holder
    /// drops it. Changed only through [`Self::with_cold_history`]; ordered,
    /// so every walk over it is in ascending `ModelId` order by construction.
    cold_rejections: BTreeMap<ModelId, VecDeque<Timestamp>>,
    /// The clean horizon driving the early-out tick path: a completed pass
    /// sets it to the earliest instant pure time passage could change a
    /// decision ([`Timestamp::MAX`] when quiescent), and a tick before it is
    /// a provable no-op. [`Timestamp::ZERO`] — at start, and after a topology
    /// change that ran no pass — means the next tick must run one.
    clean_until: Timestamp,
    /// Self-profiling counters exported through
    /// [`Scheduler::sched_profile`].
    profile: SchedProfile,
    /// Running upper bound on every model's batch-1 execution estimate
    /// (never decreases), bounding how early any queued deadline can expire.
    max_est1: Nanos,
    /// Anchor of the legacy fixed-cadence tick grid, consulted from
    /// `next_tick(&self)` (hence the interior mutability). `None` exactly
    /// when the legacy tick chain would be stopped, so re-anchoring matches
    /// the rebuild-every-tick scheduler's grid and productive passes land
    /// on byte-identical tick times.
    tick_anchor: Cell<Option<Timestamp>>,
    // Reusable scratch buffers: the steady-state scheduling pass moves these
    // out, refills them, and puts them back, so it allocates nothing once the
    // buffers have grown to the fleet's working-set size.
    scratch_models: Vec<ModelId>,
    scratch_gpu_idx: Vec<usize>,
    scratch_expired: Vec<PendingRequest>,
    /// `(model, whether its LOAD here is still outstanding)`.
    scratch_candidates: Vec<(ModelId, bool)>,
    /// The models a localised LOAD evaluation prices.
    scratch_priced: Vec<ModelId>,
    scratch_priorities: Vec<(ModelId, f64)>,
    /// The holder moves the ledger replays.
    scratch_moves: Vec<HolderMove>,
}

impl ClockworkScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: ClockworkSchedulerConfig) -> Self {
        ClockworkScheduler {
            profiler: ActionProfiler::new(),
            config,
            models: ModelTable::default(),
            queues: RequestQueues::default(),
            tracker: WorkerStateTracker::new(),
            ledger: WaitingLedger::new(LOAD_PRICELESS_BOUND),
            cold_rejections: BTreeMap::new(),
            clean_until: Timestamp::ZERO,
            profile: SchedProfile::default(),
            max_est1: Nanos::ZERO,
            tick_anchor: Cell::new(None),
            scratch_models: Vec::new(),
            scratch_gpu_idx: Vec::new(),
            scratch_expired: Vec::new(),
            scratch_candidates: Vec::new(),
            scratch_priced: Vec::new(),
            scratch_priorities: Vec::new(),
            scratch_moves: Vec::new(),
        }
    }

    /// Creates a scheduler with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(ClockworkSchedulerConfig::default())
    }

    /// Number of requests currently queued (not yet dispatched).
    pub fn queued_requests(&self) -> usize {
        self.queues.total()
    }

    /// Number of INFER batches currently in flight.
    pub fn in_flight_batches(&self) -> usize {
        self.tracker.outstanding_infers()
    }

    fn exec_estimate(&self, model: ModelId, batch: u32) -> Nanos {
        Self::exec_estimate_with(
            &self.profiler,
            self.models.get(model).map(|e| e.spec.as_ref()),
            model,
            batch,
        )
    }

    /// Estimated execution duration for `(model, batch)`.
    ///
    /// Falls back from the rolling profile to the model's compiled latency
    /// table: the smallest kernel that covers `batch`, else the largest
    /// kernel scaled linearly. A fixed constant is the estimate of last
    /// resort only for models with no latency table at all — a hard-coded
    /// 10 ms for every unprofiled batch size would systematically
    /// mis-schedule models whose kernels are far from that value.
    fn exec_estimate_with(
        profiler: &ActionProfiler,
        spec: Option<&ModelSpec>,
        model: ModelId,
        batch: u32,
    ) -> Nanos {
        if let Some(est) = profiler.estimate(ProfileKey::exec(model, batch)) {
            return est.max(Nanos::from_micros(1));
        }
        if let Some(spec) = spec {
            if let Some(profile) = spec.batch_for_count(batch.max(1)) {
                return profile.latency.max(Nanos::from_micros(1));
            }
            if let Some(largest) = spec.batch_profiles.last() {
                let scaled =
                    largest.latency * u64::from(batch.max(1)) / u64::from(largest.batch.max(1));
                return scaled.max(Nanos::from_micros(1));
            }
        }
        Nanos::from_millis(10)
    }

    /// Admission price of one more request for a *warm* model: its share of
    /// draining the backlog it joins (queue + itself), covered greedily by
    /// the largest compiled kernels and split across the GPUs currently
    /// holding the weights, floored at the batch-1 estimate (`est1`). The
    /// floor makes the empty-queue case exactly the legacy size-1 price, so
    /// batch-aware admission changes nothing until a backlog actually forms.
    fn amortized_admission_estimate(&self, model: ModelId, est1: Nanos) -> Nanos {
        let Some(entry) = self.models.get(model) else {
            return est1;
        };
        let backlog = self.queues.len(model) as u32 + 1;
        let replicas = self.tracker.gpus_with_model(model).len() as u32;
        let spec = entry.spec.as_ref();
        let profiler = &self.profiler;
        batching::amortized_drain_cost(backlog, &entry.supported, replicas, |batch| {
            Self::exec_estimate_with(profiler, Some(spec), model, batch)
        })
        .max(est1)
    }

    fn load_estimate(&self, model: ModelId) -> Nanos {
        self.profiler
            .estimate_or(ProfileKey::load(model), Nanos::from_millis(10))
            .max(Nanos::from_micros(1))
    }

    /// The instant before which a queued deadline of `model_id` has lapsed
    /// at `now`: not even a batch-1 execution and the network allowance fit.
    fn expiry_cutoff(&self, now: Timestamp, model_id: ModelId) -> Timestamp {
        now + self.exec_estimate(model_id, 1) + NETWORK_ALLOWANCE
    }

    /// Collects into `out`, ascending, the queued models with a request that
    /// has lapsed at `now` — those whose earliest deadline is before their
    /// own [cutoff](Self::expiry_cutoff), exactly the queues
    /// `RequestQueues::expire` drops anything from. The urgency index
    /// yields the models due before the widest cutoff (`max_est1` bounds
    /// every model's estimate) with their earliest deadlines, without
    /// touching the rest of the queued set, and only those past their own
    /// cutoff are kept and sorted — rejections go out in ascending
    /// `ModelId` order, the order the full scan over the queued set used.
    fn lapsing_into(&self, now: Timestamp, out: &mut Vec<ModelId>) {
        let widest = now + self.max_est1 + NETWORK_ALLOWANCE;
        let due = self.queues.due_before(widest);
        let lapsed =
            due.filter(|&(deadline, model_id)| deadline < self.expiry_cutoff(now, model_id));
        out.clear();
        out.extend(lapsed.map(|(_, model_id)| model_id));
        out.sort_unstable();
    }

    /// [`Self::lapsing_into`] the slow way, the oracle it is checked
    /// against: every queued model whose earliest deadline is before its
    /// cutoff, in the queued set's ascending order.
    #[cfg(any(test, debug_assertions))]
    fn reference_lapsing(&self, now: Timestamp) -> Vec<ModelId> {
        let queued = self.queues.queued().iter().copied();
        queued
            .filter(|&m| self.queues.min_deadline(m) < self.expiry_cutoff(now, m))
            .collect()
    }

    /// Drops queued requests that can no longer meet their deadline, and
    /// ages the record of cold rejections.
    fn expire_requests(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        // Forget cold-rejection demand that has aged out of the priority
        // horizon, so long-idle models do not keep attracting LOADs. Every
        // pass runs this first, so whatever the pass prices counts exactly
        // the rejections still inside the horizon at `now`.
        let aged = move |&t: &Timestamp| t + LOAD_PRIORITY_HORIZON < now;
        let mut model_ids = std::mem::take(&mut self.scratch_models);
        model_ids.clear();
        let stale = self
            .cold_rejections
            .iter()
            .filter(|(_, h)| h.front().is_some_and(aged));
        model_ids.extend(stale.map(|(&m, _)| m));
        for &model_id in &model_ids {
            self.with_cold_history(model_id, |history| {
                while history.front().is_some_and(aged) {
                    history.pop_front();
                }
            });
        }
        if self.queues.queued().is_empty() {
            self.scratch_models = model_ids;
            return;
        }
        self.lapsing_into(now, &mut model_ids);
        #[cfg(debug_assertions)]
        assert_eq!(
            model_ids,
            self.reference_lapsing(now),
            "the expiry list is not the queued models that lapse"
        );
        let mut expired = std::mem::take(&mut self.scratch_expired);
        for &model_id in &model_ids {
            let cutoff = self.expiry_cutoff(now, model_id);
            self.with_queue(model_id, |queues| {
                queues.expire(model_id, cutoff, &mut expired)
            });
        }
        for p in expired.drain(..) {
            ctx.send_response(Response::rejected(
                &p.request,
                now,
                RejectReason::DeadlineElapsed,
            ));
        }
        self.scratch_models = model_ids;
        self.scratch_expired = expired;
    }

    /// Estimated completion time of the LOAD currently in flight for a model
    /// on a GPU, if any.
    fn pending_load_completion(&self, gpu_idx: usize, model: ModelId) -> Option<Timestamp> {
        self.tracker.gpus()[gpu_idx]
            .outstanding
            .values()
            .filter(|o| o.is_load() && o.model == model)
            .map(|o| o.expected_completion)
            .max()
    }

    /// Rebuilds a model's cached `(batch, required_start)` strategy list if
    /// the queue changed or any profile estimate moved since the last build
    /// (Appendix B's strategy queue). The list is independent of the GPU: the
    /// per-GPU `exec_start` feasibility check happens at query time in
    /// [`Self::strategy_for`]. Returns whether a rebuild happened (the
    /// self-profiling `strategies_recomputed` counter).
    fn ensure_strategies(
        batching: bool,
        profiler: &ActionProfiler,
        queues: &RequestQueues,
        model_id: ModelId,
        entry: &mut ModelEntry,
    ) -> bool {
        let key = (queues.version(model_id), profiler.model_epoch(model_id));
        if entry.strategies_for == key {
            return false;
        }
        entry.strategies_for = key;
        let ModelEntry {
            spec, strategies, ..
        } = entry;
        batching::build_strategies(
            queues.deadlines(model_id),
            spec.batch_profiles.iter().map(|p| p.batch),
            queues.len(model_id) as u32,
            NETWORK_ALLOWANCE,
            batching,
            |batch| Self::exec_estimate_with(profiler, Some(spec), model_id, batch),
            strategies,
        );
        true
    }

    /// Chooses the best (batch, required-start) strategy for a model given
    /// the earliest time an INFER could start: the largest batch whose
    /// required start has not passed (the paper drops strategies for batch
    /// sizes that are too small when larger ones fit).
    ///
    /// The search itself lives in [`batching::largest_feasible`]: it runs
    /// over the cached suffix maximum of `required_start`, which is
    /// non-increasing by construction (raw `required_start` is *usually*
    /// non-increasing too — each larger batch serves a superset prefix of
    /// the queue with a longer estimate — but measured profiles can invert
    /// that).
    fn strategy_for(entry: &ModelEntry, exec_start: Timestamp) -> Option<(u32, Timestamp)> {
        batching::largest_feasible(&entry.strategies, exec_start)
    }

    /// The one way a queue of this scheduler changes: runs one of
    /// [`RequestQueues`]' four mutators on `model_id`'s queue, then, if the
    /// queue changed (its version moved — an expiry pass mostly finds
    /// nothing lapsed), moves the model's charge on the ledger to what it
    /// now demands.
    fn with_queue<T>(&mut self, model_id: ModelId, op: impl FnOnce(&mut RequestQueues) -> T) -> T {
        let version = self.queues.version(model_id);
        let out = op(&mut self.queues);
        if self.queues.version(model_id) != version {
            self.recharge(model_id);
        }
        out
    }

    /// The one way the record of cold rejections changes — the history's
    /// counterpart of [`Self::with_queue`]: runs `op` on `model_id`'s
    /// history (an empty one if it has none, dropped again if `op` leaves it
    /// empty), then moves the model's charge on the ledger to what it now
    /// demands.
    fn with_cold_history(&mut self, model_id: ModelId, op: impl FnOnce(&mut VecDeque<Timestamp>)) {
        let history = self.cold_rejections.entry(model_id).or_default();
        op(history);
        if history.is_empty() {
            self.cold_rejections.remove(&model_id);
        }
        self.recharge(model_id);
    }

    /// What the ledger is keyed by as a whole: the holder lists and how many
    /// GPUs they index.
    fn ledger_key(&self) -> (u64, usize) {
        (self.tracker.holders_epoch(), self.tracker.len())
    }

    /// Moves `model_id`'s charge on the ledger to its present
    /// [demand](Self::demand), over its present holders. Called wherever
    /// that demand can have moved; O(|holders|). The holder moves since the
    /// ledger was built are replayed first, so the charge taken off is the
    /// one the columns spread; when they cannot be, only the charge is
    /// stored — the rebuild that is due ([`Self::sync_ledger`]) spreads it.
    fn recharge(&mut self, model_id: ModelId) {
        self.replay_holder_moves();
        let (key, demand) = (self.ledger_key(), self.demand(model_id));
        let holders = self.tracker.gpus_with_model(model_id);
        self.ledger.recharge(key, model_id, holders, demand);
    }

    /// When a holder list moved since the ledger was built, hands the
    /// tracker's record of the moves to the ledger to move just those
    /// models ([`WaitingLedger::replay`]). Leaves the ledger behind when the
    /// record has a gap or a GPU joined.
    fn replay_holder_moves(&mut self) {
        let key = self.ledger_key();
        if self.ledger.is_built_on(key) {
            return;
        }
        let mut moves = std::mem::take(&mut self.scratch_moves);
        let since = self.ledger.built_on().0;
        if self.tracker.holder_moves_since(since, &mut moves) {
            let tracker = &self.tracker;
            self.ledger
                .replay(key, &mut moves, |m| tracker.gpus_with_model(m));
        }
        self.scratch_moves = moves;
    }

    /// Brings the ledger up to date before a pass reads it: the holder moves
    /// since it was built replayed, or, when they cannot be, the stored
    /// charges spread over the present holder lists — and, in debug builds,
    /// checked against the from-scratch oracle either way.
    fn sync_ledger(&mut self) {
        self.replay_holder_moves();
        let key = self.ledger_key();
        if !self.ledger.is_built_on(key) {
            let tracker = &self.tracker;
            let charged = merged(
                self.queues.queued().iter().copied(),
                self.cold_rejections.keys().copied(),
            );
            self.ledger
                .rebuild(key, charged.map(|m| (m, tracker.gpus_with_model(m))));
        }
        #[cfg(debug_assertions)]
        {
            let mut cold = self.cold_rejections.keys();
            let held = cold.find(|&&m| !self.tracker.gpus_with_model(m).is_empty());
            assert_eq!(held, None, "a cold-rejected model has a holder");
            assert_eq!(
                self.ledger.totals(),
                self.reference_ledger(),
                "per-GPU ledger of waiting work drifted"
            );
        }
    }

    /// The ledger computed the slow way, the oracle it is checked against:
    /// every demand re-estimated, every holder list walked, the fleet-wide
    /// lists read off the finished columns rather than kept in step with
    /// them, and each GPU's load summed the way the full walk sums it — for
    /// the GPUs whose load the ledger keeps, the rest being `None` there.
    #[cfg(any(test, debug_assertions))]
    fn reference_ledger(&self) -> LedgerTotals {
        let mut totals = LedgerTotals {
            waiting: vec![Vec::new(); self.tracker.len()],
            bounds: vec![0; self.tracker.len()],
            ..LedgerTotals::default()
        };
        let mut loads = vec![0.0; self.tracker.len()];
        let demanded = merged(
            self.queues.queued().iter().copied(),
            self.cold_rejections.keys().copied(),
        );
        for model_id in demanded {
            let Some(demand) = self.demand(model_id) else {
                continue;
            };
            totals.charges.push((model_id, demand));
            let holders = self.tracker.gpus_with_model(model_id);
            if holders.is_empty() {
                totals.unheld.push(model_id);
            }
            for &idx in holders {
                totals.waiting[idx].push(model_id);
                totals.bounds[idx] += demand.as_nanos().div_ceil(holders.len() as u64);
                loads[idx] += Self::demand_share(demand, holders);
            }
        }
        let kept = self.ledger.kept_loads();
        let loads = loads.iter().zip(kept);
        totals.loads = loads.map(|(l, kept)| kept.then(|| l.to_bits())).collect();
        let gpus = 0..self.tracker.len();
        totals.listed = gpus
            .clone()
            .filter(|&idx| !totals.waiting[idx].is_empty())
            .collect();
        totals.over_limit = gpus
            .filter(|&idx| totals.bounds[idx] > LOAD_PRICELESS_BOUND.as_nanos())
            .collect();
        totals
    }

    /// The GPUs an INFER pass can act on, in registration order: those that
    /// hold (or are loading) a model with queued requests, are alive, and
    /// whose INFER executor frees up before `horizon`. Appendix B puts a
    /// model's strategies only on the GPUs where it is loaded, and the
    /// ledger lists exactly those GPUs, ascending and once each — so the
    /// cost is that list, not the fleet and not the queued models' holder
    /// lists: on a warm fleet nearly every GPU is idle enough to act and
    /// almost none of them holds anything that is waiting (the waiting
    /// models sit on a few GPUs claimed past the lookahead). The ledger must
    /// be [in sync](Self::sync_ledger).
    fn infer_gpus_into(&self, horizon: Timestamp, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.ledger
                .listed()
                .iter()
                .copied()
                .filter(|&idx| self.tracker.actionable(Executor::Infer, idx, horizon)),
        );
    }

    /// [`Self::infer_gpus_into`] from the other side, the oracle it is
    /// checked against: scan the whole fleet for actionable GPUs and keep
    /// those whose residency intersects the queued set.
    #[cfg(any(test, debug_assertions))]
    fn reference_infer_gpus(&self, horizon: Timestamp) -> Vec<usize> {
        let mut actionable = Vec::new();
        self.tracker
            .actionable_into(Executor::Infer, horizon, &mut actionable);
        let queued = self.queues.queued();
        actionable.retain(|&idx| {
            let mut held = self.tracker.gpus()[idx].held();
            held.any(|(m, _)| queued.contains(&m))
        });
        actionable
    }

    /// The INFER candidates on GPU `gpu_idx` — `(model, whether its LOAD
    /// here is still outstanding)`, ascending — computed the way they were
    /// before the ledger kept them, the oracle its `waiting` list is checked
    /// against: the queued set intersected with the GPU's residency table,
    /// walking the smaller of the two.
    #[cfg(any(test, debug_assertions))]
    fn reference_candidates(&self, gpu_idx: usize) -> Vec<(ModelId, bool)> {
        let queued = self.queues.queued();
        let track = &self.tracker.gpus()[gpu_idx];
        if track.table().len() <= queued.len() {
            let held = track.held().filter(|(m, _)| queued.contains(m));
            held.map(|(m, held)| (m, held.loading)).collect()
        } else {
            let held = queued
                .iter()
                .filter_map(|&m| Some((m, track.residency(m)?)));
            held.map(|(m, held)| (m, held.loading)).collect()
        }
    }

    /// Tops up INFER schedules on the GPUs that hold queued work (see
    /// [`Self::infer_gpus_into`]).
    ///
    /// A GPU whose executor is already committed past the lookahead horizon
    /// — or that is dead, or holds nothing that is queued — is never
    /// visited: its slot loop would find no candidate. The list is a
    /// snapshot taken before the first dispatch, which is sound because
    /// during the pass queues only shrink, residency does not change and
    /// executor free times only rise, so no GPU outside it can gain a
    /// candidate or become actionable. It is in registration order, exactly
    /// the order a full visit of the fleet would use, so decisions do not
    /// depend on how many GPUs were skipped.
    fn schedule_infers(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        if self.queues.queued().is_empty() {
            return;
        }
        let horizon = now + LOOKAHEAD;
        self.sync_ledger();
        let mut gpu_indices = std::mem::take(&mut self.scratch_gpu_idx);
        self.infer_gpus_into(horizon, &mut gpu_indices);
        #[cfg(debug_assertions)]
        assert_eq!(
            gpu_indices,
            self.reference_infer_gpus(horizon),
            "INFER visit list is not the actionable GPUs holding queued work"
        );
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        for &gpu_idx in &gpu_indices {
            if self.queues.queued().is_empty() {
                break;
            }
            loop {
                let exec_slot = self.tracker.next_slot(Executor::Infer, gpu_idx, now);
                if exec_slot >= horizon {
                    break;
                }
                // Candidate models: queued requests + weights available
                // here — the ledger's list for this GPU, ascending, kept in
                // step by the dispatches of this very loop.
                candidates.clear();
                let track = &self.tracker.gpus()[gpu_idx];
                let waiting = self.ledger.waiting(gpu_idx);
                let loading = |m| track.residency(m).expect("a waiting model is held").loading;
                candidates.extend(waiting.iter().map(|&m| (m, loading(m))));
                #[cfg(debug_assertions)]
                assert_eq!(
                    candidates,
                    self.reference_candidates(gpu_idx),
                    "the ledger's waiting list is not the queued models GPU {gpu_idx} holds"
                );
                let mut best: Option<(ModelId, u32, Timestamp, Timestamp)> = None;
                self.profile.candidates_scanned += candidates.len() as u64;
                for &(model_id, loading) in &candidates {
                    let exec_start = if !loading {
                        exec_slot
                    } else {
                        match self.pending_load_completion(gpu_idx, model_id) {
                            Some(done) => exec_slot.max(done + LOAD_MARGIN),
                            None => exec_slot.max(now + LOAD_MARGIN),
                        }
                    };
                    let Some(entry) = self.models.get_mut(model_id) else {
                        continue;
                    };
                    if Self::ensure_strategies(
                        self.config.batching,
                        &self.profiler,
                        &self.queues,
                        model_id,
                        entry,
                    ) {
                        self.profile.strategies_recomputed += 1;
                    }
                    if let Some((batch, required_start)) = Self::strategy_for(entry, exec_start) {
                        let better = match &best {
                            None => true,
                            Some((_, _, best_required, _)) => required_start < *best_required,
                        };
                        if better {
                            best = Some((model_id, batch, required_start, exec_start));
                        }
                    }
                }
                let Some((model_id, batch, _required, exec_start)) = best else {
                    break;
                };
                let gpu_ref = self.tracker.gpus()[gpu_idx].gpu_ref;
                self.dispatch_infer(gpu_ref, model_id, batch, exec_start, ctx);
            }
        }
        self.scratch_candidates = candidates;
        self.scratch_gpu_idx = gpu_indices;
    }

    fn dispatch_infer(
        &mut self,
        gpu_ref: GpuRef,
        model_id: ModelId,
        batch: u32,
        exec_start: Timestamp,
        ctx: &mut SchedulerCtx,
    ) {
        let est = self.exec_estimate(model_id, batch);
        let requests = self.with_queue(model_id, |queues| {
            queues.take_front(model_id, batch as usize)
        });
        let min_deadline = requests
            .iter()
            .map(|p| p.deadline)
            .min()
            .unwrap_or(Timestamp::MAX);
        let latest = if min_deadline == Timestamp::MAX {
            Timestamp::MAX
        } else {
            (min_deadline - est - NETWORK_ALLOWANCE).max(exec_start)
        };
        let window = TimeWindow {
            earliest: exec_start,
            latest,
        };
        let request_ids: Vec<u64> = requests.iter().map(|p| p.request.id.0).collect();
        let at = Placement {
            gpu: gpu_ref,
            window,
            start: exec_start,
            duration: est,
        };
        self.tracker
            .send_infer(ctx, at, model_id, batch, request_ids, requests);
    }

    /// The LOAD demand of a queue of `count` requests (Appendix B): the
    /// per-request share of the estimated cost of the compiled batch
    /// covering the whole queue, times the queue length.
    fn queue_demand(
        profiler: &ActionProfiler,
        model_id: ModelId,
        spec: &ModelSpec,
        count: u32,
    ) -> Nanos {
        if count == 0 {
            return Nanos::ZERO;
        }
        let batch = spec
            .batch_for_count(count)
            .map(|p| p.batch)
            .unwrap_or(spec.max_batch().max(1));
        let est = Self::exec_estimate_with(profiler, Some(spec), model_id, batch);
        est / u64::from(batch.max(1)) * u64::from(count)
    }

    /// What `model_id` is charged on the ledger — the `demand_m` of its load
    /// priority: its queue's LOAD demand plus a batch-1 execution per cold
    /// rejection on record, or `None` when it has neither (or is not
    /// registered). Cold rejections are unfulfilled demand too (Appendix
    /// B's "estimated SLO violations"): without them a model whose SLO is
    /// tighter than its cold-start time would never be prioritised for a
    /// LOAD even though clients keep asking for it. The record holds only
    /// what the expiry pass has not aged out, and every pass expires before
    /// it prices, so a priced demand counts the rejections inside the
    /// priority horizon at the pass's `now`.
    fn demand(&self, model_id: ModelId) -> Option<Nanos> {
        let entry = self.models.get(model_id)?;
        let len = self.queues.len(model_id);
        let cold = self.cold_rejections.get(&model_id).map_or(0, VecDeque::len) as u64;
        if len == 0 && cold == 0 {
            return None;
        }
        let mut demand = Self::queue_demand(&self.profiler, model_id, &entry.spec, len as u32);
        if cold > 0 {
            demand += self.exec_estimate(model_id, 1) * cold;
        }
        Some(demand)
    }

    /// Adds the demand of the cold rejections recent at `now` to `demands`
    /// — what [`Self::demand`] adds, counted from the timestamps rather than
    /// trusted to the expiry pass.
    #[cfg(any(test, debug_assertions))]
    fn add_cold_demands(&self, now: Timestamp, demands: &mut Vec<(ModelId, Nanos)>) {
        for (&model_id, history) in &self.cold_rejections {
            let recent = history
                .iter()
                .filter(|&&t| t + LOAD_PRIORITY_HORIZON >= now)
                .count() as u64;
            if recent == 0 {
                continue;
            }
            let add = self.exec_estimate(model_id, 1) * recent;
            match demands.binary_search_by_key(&model_id, |&(m, _)| m) {
                Ok(i) => demands[i].1 += add,
                Err(i) => demands.insert(i, (model_id, add)),
            }
        }
    }

    /// Demand (outstanding estimated execution time) per queued or recently
    /// cold-rejected model at `now`, every queue demand re-estimated and the
    /// ledger ignored, in ascending `ModelId` order: what the full walk
    /// prices.
    #[cfg(any(test, debug_assertions))]
    fn reference_demands(&self, now: Timestamp) -> Vec<(ModelId, Nanos)> {
        let queued = self.queues.queued().iter();
        let mut demands: Vec<_> = queued
            .filter_map(|&m| Some((m, self.models.get(m)?)))
            .map(|(m, entry)| {
                let len = self.queues.len(m) as u32;
                (m, Self::queue_demand(&self.profiler, m, &entry.spec, len))
            })
            .collect();
        self.add_cold_demands(now, &mut demands);
        demands
    }

    /// Appendix B's load priority of one model: its demand minus the GPU
    /// capacity already allocated to it on the GPUs `holding` it, each of
    /// which serves the model in proportion to its share of `gpu_load` there.
    /// The one copy of the arithmetic, so the full and the localised walk
    /// agree bit for bit.
    fn load_priority(
        demand: Nanos,
        holding: &[usize],
        mut gpu_load: impl FnMut(usize) -> f64,
    ) -> f64 {
        let capacity = LOAD_PRIORITY_HORIZON.as_secs_f64();
        let share = Self::demand_share(demand, holding);
        let mut served = 0.0;
        for &idx in holding {
            served += share * (capacity / gpu_load(idx).max(1e-12));
        }
        demand.as_secs_f64() - served
    }

    /// What a model demanding `demand` adds to the load of each of the GPUs
    /// `holding` it.
    fn demand_share(demand: Nanos, holding: &[usize]) -> f64 {
        demand.as_secs_f64() / holding.len().max(1) as f64
    }

    /// Appendix B's load priority of each model in `demands`, in `demands`
    /// order. Holder lookups come from the tracker's residency index, and
    /// per-GPU loads accumulate into a dense scratch vector, so the walk is
    /// linear in (demand models + the GPUs holding them) rather than models
    /// × GPUs. This is the full walk, the oracle behind every
    /// [localised](Self::localised_load_priorities_into) evaluation.
    #[cfg(any(test, debug_assertions))]
    fn for_each_load_priority(
        &self,
        demands: &[(ModelId, Nanos)],
        gpu_load: &mut Vec<f64>,
        mut emit: impl FnMut(ModelId, f64),
    ) {
        gpu_load.clear();
        gpu_load.resize(self.tracker.len(), 0.0);
        for &(model_id, demand) in demands {
            let holding = self.tracker.gpus_with_model(model_id);
            let share = Self::demand_share(demand, holding);
            for &idx in holding {
                gpu_load[idx] += share;
            }
        }
        for &(model_id, demand) in demands {
            let holding = self.tracker.gpus_with_model(model_id);
            emit(
                model_id,
                Self::load_priority(demand, holding, |idx| gpu_load[idx]),
            );
        }
    }

    /// The positive load priorities, highest first, priced off the ledger
    /// alone: only the models it says can have one (`priced` — those held
    /// nowhere or waiting on a GPU over the limit, see
    /// [`WaitingLedger::priced_into`]) are priced, and only the GPUs holding
    /// one of those have their load read. A GPU's load is the ledger's
    /// [sum](WaitingLedger::load) over its `waiting` list, ascending, of the
    /// same shares of the same demands [the full
    /// walk](Self::for_each_load_priority) adds in the same order — a
    /// cold-rejected model is held nowhere, so it adds to no GPU's load there
    /// either — kept until one of its terms moves, and each priority is the
    /// full walk's bit for bit. The ledger must be [in
    /// sync](Self::sync_ledger).
    fn localised_load_priorities_into(
        &mut self,
        priced: &mut Vec<ModelId>,
        out: &mut Vec<(ModelId, f64)>,
    ) {
        let (ledger, tracker) = (&mut self.ledger, &self.tracker);
        let share =
            |model_id, charge| Self::demand_share(charge, tracker.gpus_with_model(model_id));
        ledger.priced_into(priced);
        out.clear();
        for &model_id in priced.iter() {
            let charge = ledger.charge(model_id);
            let charge = charge.expect("every model on a list of the ledger is charged");
            let holding = tracker.gpus_with_model(model_id);
            let priority = Self::load_priority(charge, holding, |idx| ledger.load(idx, share));
            if priority > 0.0 {
                out.push((model_id, priority));
            }
        }
        out.sort_by(Self::by_priority_then_id);
    }

    /// Highest priority first; ties break by `ModelId` so the ordering (and
    /// therefore the LOAD placement) is identical across runs.
    fn by_priority_then_id(a: &(ModelId, f64), b: &(ModelId, f64)) -> std::cmp::Ordering {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    }

    /// The positive load priorities at `now`, highest first, by the full
    /// walk over [every demand re-estimated](Self::reference_demands): the
    /// `> 0.0` prefix of the fully sorted list of *every* priority — the
    /// oracle every evaluation and every skipped LOAD pass is checked
    /// against.
    #[cfg(any(test, debug_assertions))]
    fn reference_priorities(&self, now: Timestamp) -> Vec<(ModelId, f64)> {
        let demands = self.reference_demands(now);
        let mut reference = Vec::with_capacity(demands.len());
        self.for_each_load_priority(&demands, &mut Vec::new(), |model_id, priority| {
            reference.push((model_id, priority));
        });
        reference.sort_by(Self::by_priority_then_id);
        reference.truncate(reference.partition_point(|&(_, p)| p > 0.0));
        reference
    }

    /// One evaluation of the LOAD priorities, counted, and checked against
    /// the full walk in debug builds — every evaluation goes through here.
    /// It is priced off the ledger, which is first brought in sync — a
    /// re-evaluation follows a `dispatch_load`, which moved a holder list.
    /// Only the positive priorities are kept: `schedule_loads` never looks
    /// at the rest.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn evaluate_load_priorities(&mut self, now: Timestamp, priorities: &mut Vec<(ModelId, f64)>) {
        self.profile.load_prio_recomputes += 1;
        self.sync_ledger();
        let mut priced = std::mem::take(&mut self.scratch_priced);
        self.localised_load_priorities_into(&mut priced, priorities);
        self.scratch_priced = priced;
        #[cfg(debug_assertions)]
        {
            let bits = |list: &[(ModelId, f64)]| -> Vec<(ModelId, u64)> {
                list.iter().map(|&(m, p)| (m, p.to_bits())).collect()
            };
            assert_eq!(
                bits(priorities),
                bits(&self.reference_priorities(now)),
                "LOAD priorities priced off the ledger are not the full walk's"
            );
        }
    }

    /// Whether the ledger proves that no load priority is positive: every
    /// demanded model has a holder, and every GPU's charged shares sum to
    /// less than the capacity they are measured against. Then each
    /// `capacity / gpu_load[g]` factor in [`Self::for_each_load_priority`]
    /// exceeds 1, so every model is `served` more than it demands (see
    /// [`LOAD_PRICELESS_BOUND`] for the rounding). In particular true when
    /// nothing is queued and no cold rejection is on record. The ledger must
    /// be [in sync](Self::sync_ledger).
    fn loads_are_priceless(&self) -> bool {
        self.ledger.all_within_limit()
    }

    /// Runs the full walk a priceless LOAD pass skipped and checks that it
    /// yields no positive priority — uncounted, so debug and release builds
    /// report the same figures.
    #[cfg(any(test, debug_assertions))]
    fn assert_loads_are_priceless(&self, now: Timestamp) {
        let priorities = self.reference_priorities(now);
        assert!(
            priorities.is_empty(),
            "skipped LOAD pass had positive priorities: {priorities:?}"
        );
    }

    /// Tops up LOAD schedules, evicting LRU models when needed. It asks
    /// "can any model want a GPU" before anything else, and the ledger
    /// answers in O(1): unless a demanded model has no holder or a GPU is
    /// charged more than the priority horizon, no priority is positive and
    /// nothing is priced — on a warm fleet that is nearly every pass.
    /// Otherwise nothing is priced unless some LOAD executor is inside the
    /// lookahead; what is priced is then the neighbourhood of the
    /// over-charged GPUs and the unheld models
    /// ([`Self::localised_load_priorities_into`]). Only once a model has come
    /// back with a positive priority are the GPUs visited, in registration
    /// order (the order of [`ClockworkScheduler::schedule_infers`]), each
    /// skipped unless it is [actionable](WorkerStateTracker::actionable)
    /// when reached — and the visit stops once the priorities run dry, so a
    /// pass that places one LOAD does not scan the rest of the fleet. That
    /// is the visit a snapshot of the actionable GPUs taken up front would
    /// make: a dispatch moves only its own GPU's LOAD executor and table, so
    /// no GPU further on changes whether it is actionable (asserted in debug
    /// builds).
    fn schedule_loads(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        self.sync_ledger();
        if self.loads_are_priceless() {
            #[cfg(debug_assertions)]
            self.assert_loads_are_priceless(now);
            return;
        }
        let horizon = now + LOOKAHEAD;
        let tracker = &self.tracker;
        if !(0..tracker.len()).any(|idx| tracker.actionable(Executor::Load, idx, horizon)) {
            return;
        }
        // Priorities depend only on the charges and on residency, so one
        // evaluation is reused across GPUs and slots — `dispatch_load` is
        // the only thing that can move either mid-pass (it evicts/loads even
        // when it returns `false`, and drops the cold record of what it
        // loads), and it marks them stale. Recomputing from unchanged inputs
        // yields the identical sorted list, so this is decision-preserving.
        let mut priorities = std::mem::take(&mut self.scratch_priorities);
        self.evaluate_load_priorities(now, &mut priorities);
        let mut priorities_fresh = true;
        let gpus = if priorities.is_empty() {
            0..0
        } else {
            0..self.tracker.len()
        };
        #[cfg(debug_assertions)]
        let (mut snapshot, mut visited) = (Vec::new(), Vec::new());
        #[cfg(debug_assertions)]
        self.tracker
            .actionable_into(Executor::Load, horizon, &mut snapshot);
        'gpus: for gpu_idx in gpus {
            if !self.tracker.actionable(Executor::Load, gpu_idx, horizon) {
                continue;
            }
            #[cfg(debug_assertions)]
            visited.push(gpu_idx);
            loop {
                let load_slot = self.tracker.next_slot(Executor::Load, gpu_idx, now);
                if load_slot >= horizon {
                    break;
                }
                if !priorities_fresh {
                    self.evaluate_load_priorities(now, &mut priorities);
                    priorities_fresh = true;
                    // No model with positive unfulfilled demand: no GPU
                    // anywhere can receive a LOAD this pass.
                    if priorities.is_empty() {
                        break 'gpus;
                    }
                }
                // Highest-priority model that is not already available on
                // this GPU.
                let track = &self.tracker.gpus()[gpu_idx];
                let candidate = priorities
                    .iter()
                    .map(|&(model_id, _)| model_id)
                    .find(|&model_id| !track.has_or_loading(model_id));
                let Some(model_id) = candidate else {
                    break;
                };
                priorities_fresh = false;
                if !self.dispatch_load(track.gpu_ref, model_id, load_slot, ctx) {
                    break;
                }
            }
        }
        // Priorities are empty at the end only when they ran dry and the
        // visit stopped early; otherwise it must have seen every GPU.
        #[cfg(debug_assertions)]
        assert!(
            snapshot.starts_with(&visited)
                && (priorities.is_empty() || visited.len() == snapshot.len()),
            "the LOAD pass visited {visited:?} of the actionable {snapshot:?}"
        );
        self.scratch_priorities = priorities;
    }

    fn dispatch_load(
        &mut self,
        gpu_ref: GpuRef,
        model_id: ModelId,
        load_slot: Timestamp,
        ctx: &mut SchedulerCtx,
    ) -> bool {
        let Some(entry) = self.models.get(model_id) else {
            return false;
        };
        let weights_bytes = entry.spec.weights_bytes();
        let est = self.load_estimate(model_id);
        // Make room first: evict least-recently-used models that have no
        // queued requests and no outstanding work on this GPU.
        let queued = self.queues.queued();
        let room = self
            .tracker
            .evict_until_fits(ctx, gpu_ref, weights_bytes, |track, model| {
                queued.contains(&model) || track.outstanding.values().any(|o| o.model == model)
            });
        if !room {
            return false;
        }
        let at = Placement {
            gpu: gpu_ref,
            window: TimeWindow::starting_at(load_slot, LOAD_WINDOW),
            start: load_slot,
            duration: est,
        };
        self.tracker.send_load(ctx, at, model_id, weights_bytes);
        // The cold-start demand that motivated this LOAD is now being acted
        // upon; future cold rejections will re-register if the model is ever
        // evicted again. Dropping the record here, right behind the only
        // call that adds a holder, is what keeps a cold-rejected model held
        // nowhere.
        if self.cold_rejections.contains_key(&model_id) {
            self.with_cold_history(model_id, VecDeque::clear);
        }
        true
    }

    fn schedule(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        self.expire_requests(now, ctx);
        let sent_before = ctx.actions_sent();
        self.schedule_infers(now, ctx);
        self.schedule_loads(now, ctx);
        // Loading decisions may enable further INFERs (cold models), and so
        // may the first pass's own dispatches: serving a queue's head on a
        // later GPU can make its remainder feasible on an earlier one. But
        // when nothing at all was sent, queues, residency and executor free
        // times are exactly what the first pass just saw, and the second is
        // a provable repeat.
        if ctx.actions_sent() != sent_before {
            self.schedule_infers(now, ctx);
        } else {
            #[cfg(debug_assertions)]
            self.assert_infer_pass_is_a_repeat(now, ctx);
        }
        self.refresh_clean_until(now);
    }

    /// Runs the INFER pass that [`Self::schedule`] skipped and checks that
    /// it sends nothing; the self-profiling counters are put back so debug
    /// and release builds report the same figures.
    #[cfg(debug_assertions)]
    fn assert_infer_pass_is_a_repeat(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        let (sent, profile) = (ctx.actions_sent(), self.profile);
        self.schedule_infers(now, ctx);
        assert_eq!(ctx.actions_sent(), sent, "skipped INFER pass had work");
        assert_eq!(
            self.profile.strategies_recomputed, profile.strategies_recomputed,
            "skipped INFER pass rebuilt strategies"
        );
        self.profile = profile;
    }

    /// Runs one full scheduling pass unconditionally, bypassing the
    /// early-out. This is the rebuild-per-tick oracle surface the
    /// differential tests drive; production paths go through the trait
    /// callbacks.
    pub fn run_full_pass(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) {
        self.schedule(now, ctx);
    }

    /// Whether any queued request, in-flight INFER or in-flight LOAD exists
    /// — the "busy" condition under which the rebuild-every-tick scheduler
    /// kept its fixed-cadence chain alive. [`Scheduler::next_tick`] gates on
    /// it, and the differential tests use it to replay the legacy cadence.
    pub fn has_outstanding_work(&self) -> bool {
        !self.queues.queued().is_empty()
            || self.tracker.outstanding_infers() > 0
            || self.tracker.outstanding_loads() > 0
    }

    /// Recomputes the clean horizon after a completed pass: the
    /// earliest future instant at which pure time passage — no request, no
    /// result, no fault — could make another pass produce a decision. Every
    /// time-driven enabler in the pass is covered by one edge below;
    /// everything else is monotone in `now` (rising `exec_start` only
    /// shrinks strategy feasibility; warm demand and residency only change
    /// through events, which run their own pass). Edges err early, never
    /// late: a too-early edge costs a no-op pass at a grid time the
    /// rebuild-every-tick scheduler also ticked, a too-late edge would skip
    /// a decision.
    fn refresh_clean_until(&mut self, now: Timestamp) {
        if self.queues.queued().is_empty() && self.cold_rejections.is_empty() {
            // Every stage of the pass early-returns in this state, at any
            // `now`: the scheduler is quiescent until an event arrives.
            self.clean_until = Timestamp::MAX;
            return;
        }
        let horizon = now + LOOKAHEAD;
        let mut edge = Timestamp::MAX;
        if !self.queues.queued().is_empty() {
            // An INFER executor crossing into the lookahead horizon opens a
            // slot for the queued work.
            if let Some(free_at) = self.tracker.next_beyond(Executor::Infer, horizon) {
                edge = edge.min(free_at - LOOKAHEAD);
            }
            // The earliest queued deadline can lapse (`max_est1` bounds the
            // per-model estimate the expiry cutoff uses).
            if let Some(deadline) = self.queues.earliest().filter(|&d| d != Timestamp::MAX) {
                edge = edge.min(deadline - self.max_est1 - NETWORK_ALLOWANCE);
            }
        }
        // A LOAD executor crossing into the horizon opens a load slot (cold
        // demand alone is enough for the load pass to act).
        if let Some(free_at) = self.tracker.next_beyond(Executor::Load, horizon) {
            edge = edge.min(free_at - LOOKAHEAD);
        }
        // Cold-rejection demand ages out of the priority horizon, which can
        // reorder LOAD priorities.
        for history in self.cold_rejections.values() {
            if let Some(&front) = history.front() {
                edge = edge.min(front + LOAD_PRIORITY_HORIZON);
            }
        }
        self.clean_until = edge;
    }

    fn handle_infer_result(
        &mut self,
        now: Timestamp,
        result: &ActionResult,
        batch: Vec<PendingRequest>,
        ctx: &mut SchedulerCtx,
    ) {
        match &result.outcome {
            ActionOutcome::Success(timing) => {
                self.profiler.record(
                    ProfileKey::exec(result.model, result.batch),
                    timing.device_duration,
                );
                self.recharge(result.model);
                // The batch-1 estimate may have moved; keep the expiry bound
                // a running maximum over every model's current estimate.
                self.max_est1 = self.max_est1.max(self.exec_estimate(result.model, 1));
                for pending in &batch {
                    ctx.send_response(Response::success(
                        &pending.request,
                        result,
                        timing.end,
                        pending.cold,
                    ));
                }
            }
            ActionOutcome::Error { at, .. } => {
                self.requeue_or_reject(now, batch, *at, RejectReason::WorkerRejected, ctx);
            }
        }
    }

    /// Re-queues the requests of a failed batch that still have a chance of
    /// meeting their deadline; rejects the rest at `at` with `reason`. Shared
    /// by worker-reported action errors and fault resolution (a crashed
    /// worker never reports anything, so the controller synthesises the
    /// failure itself).
    fn requeue_or_reject(
        &mut self,
        now: Timestamp,
        requests: Vec<PendingRequest>,
        at: Timestamp,
        reason: RejectReason,
        ctx: &mut SchedulerCtx,
    ) {
        for pending in requests {
            let min_exec = self.exec_estimate(pending.request.model, 1);
            let still_possible = pending.deadline == Timestamp::MAX
                || now + min_exec + NETWORK_ALLOWANCE < pending.deadline;
            if still_possible {
                self.with_queue(pending.request.model, |queues| queues.push_front(pending));
            } else {
                ctx.send_response(Response::rejected(&pending.request, at, reason));
            }
        }
    }
}

impl Scheduler for ClockworkScheduler {
    fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        self.tracker.add_gpu(gpu_ref, total_pages, page_size);
        // Fresh cold capacity is immediately actionable; the next tick must
        // run a full pass (no `schedule()` runs on this path).
        self.clean_until = Timestamp::ZERO;
    }

    /// Registers a model, seeding its execution profiles from the compiled
    /// latency table and its LOAD profile from the given estimate.
    fn add_model(&mut self, id: ModelId, spec: Arc<ModelSpec>, load_seed: Nanos) {
        for profile in &spec.batch_profiles {
            self.profiler
                .seed(ProfileKey::exec(id, profile.batch), profile.latency);
        }
        self.profiler.seed(ProfileKey::load(id), load_seed);
        self.models.insert(id, ModelEntry::new(spec));
        // Re-registering a model that has a queue re-seeds its estimates.
        self.recharge(id);
        self.max_est1 = self.max_est1.max(self.exec_estimate(id, 1));
        self.clean_until = Timestamp::ZERO;
    }

    fn on_request(&mut self, now: Timestamp, request: InferenceRequest, ctx: &mut SchedulerCtx) {
        if self.models.get(request.model).is_none() {
            ctx.send_response(Response::rejected(
                &request,
                now,
                RejectReason::UnknownModel,
            ));
            return;
        }
        let cold = self.tracker.gpus_with_model(request.model).is_empty();
        let deadline = request.deadline();
        let pending = PendingRequest {
            request,
            deadline,
            cold,
        };
        // Admission control: can this request possibly meet its SLO? Warm
        // models are priced against the batch-amortized cost of draining the
        // backlog this request joins (its share of covering the queue with
        // the largest compiled kernels, split across the GPUs holding the
        // weights), not the optimistic batch-1 kernel — so under overload a
        // request doomed by queueing is shed up front instead of polluting
        // the FIFO prefix every formed batch must serve. With an empty queue
        // the amortized price IS the batch-1 estimate, so light load admits
        // identically; with `batching` off the pricing stays pure batch-1
        // (the PR 6 comparator behavior).
        if self.config.admission_control && deadline != Timestamp::MAX {
            let exec = self.exec_estimate(request.model, 1);
            let load = if cold {
                self.load_estimate(request.model)
            } else {
                Nanos::ZERO
            };
            let priced_exec = if cold || !self.config.batching {
                exec
            } else {
                self.amortized_admission_estimate(request.model, exec)
            };
            let best_case = priced_exec + load + NETWORK_ALLOWANCE;
            if now + best_case > deadline {
                let warm_case = exec + NETWORK_ALLOWANCE;
                let doomed_only_by_cold_start = cold && now + warm_case <= deadline;
                // Estimate-bearing rejection span: only the admission path
                // knows the best-case serving estimate that doomed the
                // request, so the facade defers to this span instead of
                // synthesizing an estimate-free one from the response.
                ctx.trace(TraceEvent::Rejected {
                    request: request.id.0,
                    model: request.model.0,
                    reason: RejectReason::CannotMeetSlo.as_str(),
                    estimate: best_case.as_nanos(),
                });
                ctx.send_response(Response::rejected(
                    &pending.request,
                    now,
                    RejectReason::CannotMeetSlo,
                ));
                if doomed_only_by_cold_start {
                    // The rejection is an SLO violation caused purely by the
                    // model not being resident; record it so the LOAD
                    // scheduler sees the demand (Appendix B) and future
                    // requests for this model can be served.
                    self.with_cold_history(request.model, |history| {
                        history.push_back(now);
                        if history.len() > 4096 {
                            history.pop_front();
                        }
                    });
                    self.schedule(now, ctx);
                }
                return;
            }
            // Graceful degradation: best-effort requests must clear the same
            // bar with headroom to spare. The amortized `best_case` grows
            // with the backlog, so under flash-crowd or churn pressure the
            // scaled bar crosses first and the discount tier is shed while
            // strict traffic is still admitted. All-strict workloads never
            // reach this branch.
            if request.tier == Tier::BestEffort {
                // The per-model amortized estimate is blind to cross-model
                // GPU contention: under a fleet-wide burst every model's own
                // queue stays shallow while the GPUs drown in aggregate
                // backlog (found by the flash-crowd zoo scenario — every
                // loss was a queue-deadline miss and not one request was
                // shed). Fold the aggregate backlog's fair drain share into
                // the best-effort bar; strict admission is untouched.
                let queued = self.queues.total() as u64;
                let alive = self.tracker.live_gpus().len().max(1) as u64;
                let pressure = Nanos::from_nanos(exec.as_nanos().saturating_mul(queued) / alive);
                let scaled = Nanos::from_nanos(
                    (best_case + pressure)
                        .as_nanos()
                        .saturating_mul(BEST_EFFORT_HEADROOM_MILLI)
                        / 1000,
                );
                if now + scaled > deadline {
                    ctx.trace(TraceEvent::Rejected {
                        request: request.id.0,
                        model: request.model.0,
                        reason: RejectReason::BestEffortShed.as_str(),
                        estimate: scaled.as_nanos(),
                    });
                    ctx.send_response(Response::rejected(
                        &pending.request,
                        now,
                        RejectReason::BestEffortShed,
                    ));
                    return;
                }
            }
        }
        if ctx.tracing() {
            // The best-case serving estimate that justified admission
            // (batch-1 execution + any pending cold load + network
            // allowance). Recomputed only under tracing so the off path
            // stays untouched.
            let exec = self.exec_estimate(request.model, 1);
            let load = if cold {
                self.load_estimate(request.model)
            } else {
                Nanos::ZERO
            };
            let estimate = exec + load + NETWORK_ALLOWANCE;
            ctx.trace(TraceEvent::Admitted {
                request: request.id.0,
                model: request.model.0,
                estimate: estimate.as_nanos(),
            });
        }
        self.with_queue(request.model, |queues| queues.push_back(pending));
        self.schedule(now, ctx);
        if ctx.tracing() {
            // If the dispatch pass left this request queued, the urgency
            // index deferred it — record when the model's queue next turns
            // urgent (its earliest queued deadline).
            let last = self.queues.requests(request.model).next_back();
            if last.map(|p| p.request.id) == Some(request.id) {
                ctx.trace(TraceEvent::Deferred {
                    request: request.id.0,
                    model: request.model.0,
                    until: self.queues.min_deadline(request.model).as_nanos(),
                });
            }
        }
    }

    fn on_result(&mut self, now: Timestamp, result: &ActionResult, ctx: &mut SchedulerCtx) {
        if let Resolved::Infer(batch) = self.tracker.resolve(result) {
            self.handle_infer_result(now, result, batch, ctx);
        } else if let ("LOAD", ActionOutcome::Success(timing)) =
            (result.action_type, &result.outcome)
        {
            // Read off the result's own type, not the ledger — the one
            // place that still is: a stale LOAD result (its action already
            // resolved by a fault) changed nothing in the tracker, but its
            // measurement is still a measurement, and the frozen digests
            // were taken with it in the profile.
            self.profiler
                .record(ProfileKey::load(result.model), timing.device_duration);
            self.recharge(result.model);
        }
        self.schedule(now, ctx);
    }

    fn on_tick(&mut self, now: Timestamp, ctx: &mut SchedulerCtx) -> TickOutcome {
        if now < self.clean_until {
            // Every event since the last pass ran its own and no time edge
            // was crossed: the pass would be a provable no-op. O(1).
            return TickOutcome::Skipped;
        }
        self.schedule(now, ctx);
        TickOutcome::Full
    }

    /// The one fault path all four disciplines share: the tracker applies
    /// the transition, the scheduler resolves the actions that died with the
    /// capacity (a crashed worker never reports anything, so the controller
    /// synthesises the failure itself). Link faults lose nothing here; the
    /// scheduler observes their effects as late-arriving results and
    /// window-elapsed rejections through the normal result path.
    fn on_fault(&mut self, now: Timestamp, fault: &FaultKind, ctx: &mut SchedulerCtx) {
        let mut lost = self.tracker.apply_fault(now, fault);
        // Requeue order is part of the frozen digests: per GPU in
        // registration order, by action id (issue order) within a GPU — not
        // the global action-id order the baselines resolve in.
        lost.sort_unstable_by_key(|(gpu_idx, action)| (*gpu_idx, action.id));
        for (_, action) in lost {
            if let Some(batch) = action.riders {
                self.requeue_or_reject(now, batch, now, RejectReason::WorkerFailed, ctx);
            }
        }
        self.schedule(now, ctx);
    }

    /// Ticks are scheduled only when (and exactly when) a pass could do
    /// productive work, but always *on the legacy fixed-cadence grid*: the
    /// rebuild-every-tick scheduler ticked at `anchor + k·tick_interval`
    /// for as long as work was pending, with the anchor (re)set whenever
    /// the chain started from idle. Deadline-expiry rejections are stamped
    /// with the tick time they run at, so productive passes must land on
    /// byte-identical instants — this returns only points of that grid,
    /// skipping the prefix the clean horizon proves would early-out, and
    /// `None` when no grid point can ever be productive (quiescent, or
    /// settled until the next event).
    fn next_tick(&self, now: Timestamp) -> Option<Timestamp> {
        if !self.has_outstanding_work() {
            // The legacy chain stopped here; the anchor resets exactly as
            // its grid did.
            self.tick_anchor.set(None);
            return None;
        }
        let anchor = match self.tick_anchor.get() {
            Some(anchor) => anchor,
            None => {
                // Work just appeared from idle: the legacy chain would have
                // scheduled its first tick from this instant.
                self.tick_anchor.set(Some(now));
                now
            }
        };
        let interval = TICK_INTERVAL.as_nanos();
        if self.clean_until == Timestamp::MAX {
            // Busy but settled: every future tick would early-out until an
            // event changes the state — and that event's own pass restarts
            // the chain.
            return None;
        }
        // First grid point strictly after `now` and not before the clean
        // horizon: the whole provably no-op prefix of the grid goes
        // unscheduled (a horizon already reached means "the very next grid
        // point").
        let base = self.clean_until.max(now);
        let elapsed = (base - anchor).as_nanos();
        let k = elapsed / interval;
        let next = if base > now && elapsed.is_multiple_of(interval) {
            k
        } else {
            k + 1
        };
        Some(anchor + TICK_INTERVAL * next)
    }

    fn sched_profile(&self) -> SchedProfile {
        self.profile
    }

    fn name(&self) -> &'static str {
        // The batching switch is a policy difference large enough to be its
        // own discipline: reports and benches must never conflate the two.
        if self.config.batching {
            "clockwork"
        } else {
            "clockwork-nobatch"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, RequestOutcome};
    use clockwork_model::zoo::ModelZoo;
    use clockwork_worker::{ActionId, ActionKind, ActionTiming, GpuId, WorkerId};

    const PAGE: u64 = 16 * 1024 * 1024;

    fn gref() -> GpuRef {
        GpuRef {
            worker: WorkerId(0),
            gpu: GpuId(0),
        }
    }

    fn resnet() -> Arc<ModelSpec> {
        Arc::new(ModelZoo::new().resnet50().clone())
    }

    fn scheduler_with_one_gpu(pages: u64) -> ClockworkScheduler {
        let mut s = ClockworkScheduler::with_defaults();
        s.add_gpu(gref(), pages, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
        s
    }

    fn request(id: u64, model: u32, arrival_ms: u64, slo_ms: u64) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(id),
            model: ModelId(model),
            arrival: Timestamp::from_millis(arrival_ms),
            slo: Nanos::from_millis(slo_ms),
            tier: Tier::Strict,
        }
    }

    fn success_result(
        action_id: ActionId,
        action: &clockwork_worker::Action,
        start_ms: u64,
        dur_us: u64,
    ) -> ActionResult {
        let (model, batch, request_ids) = match &action.kind {
            ActionKind::Infer {
                model,
                batch,
                request_ids,
            } => (*model, *batch, request_ids.clone()),
            ActionKind::Load { model } => (*model, 1, vec![]),
            ActionKind::Unload { model } => (*model, 1, vec![]),
        };
        let start = Timestamp::from_millis(start_ms);
        let dur = Nanos::from_micros(dur_us);
        ActionResult {
            action_id,
            worker: WorkerId(0),
            gpu: GpuId(0),
            model,
            action_type: action.kind.type_name(),
            batch,
            request_ids,
            expected_duration: action.expected_duration,
            outcome: ActionOutcome::Success(ActionTiming {
                received: start,
                start,
                end: start + dur,
                device_duration: dur,
            }),
        }
    }

    /// How many of `actions` are `kind` ("INFER", "LOAD" or "UNLOAD").
    fn sent(actions: &[(WorkerId, clockwork_worker::Action)], kind: &str) -> usize {
        actions
            .iter()
            .filter(|(_, a)| a.kind.type_name() == kind)
            .count()
    }

    /// How many of `responses` completed.
    fn completed(responses: &[Response]) -> usize {
        responses.iter().filter(|r| r.outcome.is_success()).count()
    }

    /// How many of `responses` were rejected for `reason`.
    fn rejected(responses: &[Response], reason: RejectReason) -> usize {
        let is = |r: &&Response| matches!(r.outcome, RequestOutcome::Rejected { reason: why, .. } if why == reason);
        responses.iter().filter(is).count()
    }

    #[test]
    fn unknown_model_is_rejected_immediately() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 99, 0, 100), &mut ctx);
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].outcome,
            RequestOutcome::Rejected {
                reason: RejectReason::UnknownModel,
                ..
            }
        ));
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn cold_request_triggers_load_then_infer() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        // The model is cold: a LOAD must be issued, plus an INFER that waits
        // for the load to complete.
        let kinds: Vec<&str> = actions.iter().map(|(_, a)| a.kind.type_name()).collect();
        assert!(kinds.contains(&"LOAD"), "actions: {kinds:?}");
        assert!(kinds.contains(&"INFER"), "actions: {kinds:?}");
        // Cold at arrival: one LOAD for the model. Admitted: the INFER
        // carries the request.
        assert_eq!(
            actions
                .iter()
                .filter(|(_, a)| a.kind == ActionKind::Load { model: ModelId(1) })
                .count(),
            1
        );
        assert_eq!(infers(&actions), [(GpuId(0), vec![1])]);
        // The INFER must not be scheduled to start before the LOAD finishes.
        let load = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .unwrap();
        let infer = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "INFER")
            .unwrap();
        // The GPU is listed for the INFER pass while its only copy of the
        // model is still loading, and the INFER starts one margin after the
        // LOAD's expected completion.
        assert_eq!(
            infer.1.window.earliest,
            load.1.window.earliest + load.1.expected_duration + LOAD_MARGIN
        );
        // Nothing was resident for the first INFER pass to consider: it is
        // the second one, run because the LOAD pass sent something, that
        // placed the INFER — skipping it here would swallow the request.
        assert_eq!(s.sched_profile().candidates_scanned, 1);
    }

    /// Warms `model` on `gpu` behind the scheduler's back: LOAD sent and
    /// confirmed at time zero, through a context of its own.
    fn warm(s: &mut ClockworkScheduler, gpu: GpuRef, model: u32) {
        let mut ctx = SchedulerCtx::new();
        let at = Placement::unbounded(gpu, Timestamp::ZERO, Nanos::from_millis(8));
        s.tracker.send_load(&mut ctx, at, ModelId(model), 7 * PAGE);
        let (_, load) = ctx.take_actions().remove(0);
        let mut loaded = success_result(load.id, &load, 0, 8_000);
        (loaded.worker, loaded.gpu) = (gpu.worker, gpu.gpu);
        assert!(matches!(s.tracker.resolve(&loaded), Resolved::Load));
    }

    fn infers(actions: &[(WorkerId, clockwork_worker::Action)]) -> Vec<(GpuId, Vec<u64>)> {
        actions
            .iter()
            .filter_map(|(_, a)| match &a.kind {
                ActionKind::Infer { request_ids, .. } => Some((a.gpu, request_ids.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_pass_that_sends_nothing_skips_its_second_infer_pass() {
        let mut ctx = SchedulerCtx::new();
        // The (warm) executor frees up inside the lookahead but too late for
        // the queued request's deadline, and no LOAD helps. The second INFER
        // pass would rescan the same candidate and decide the same; it is
        // skipped, so the candidate counts once.
        let mut s = scheduler_with_one_gpu(100);
        warm(&mut s, gref(), 1);
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        assert_eq!(infers(&ctx.take_actions()).len(), 1);
        let before = s.sched_profile();
        s.on_request(Timestamp::ZERO, request(2, 1, 0, 4), &mut ctx);
        assert!(ctx.take_actions().is_empty(), "nothing to send");
        assert_eq!(s.queued_requests(), 1, "admitted and waiting");
        let after = s.sched_profile();
        assert_eq!(after.candidates_scanned, before.candidates_scanned + 1);
        assert_eq!(
            after.strategies_recomputed,
            before.strategies_recomputed + 1
        );
    }

    #[test]
    fn a_later_gpus_dispatch_can_enable_an_earlier_gpu_in_the_same_pass() {
        // Why the second INFER pass cannot be skipped merely because no LOAD
        // was sent: GPU A (visited first) frees up later than GPU B. The
        // queue's head has a deadline only B can meet, so the first pass
        // finds nothing feasible on A and serves the head on B — after
        // which the remainder (loose deadlines) *is* feasible on A, and the
        // second pass of the same `schedule()` call must place it there.
        let (gpu_a, gpu_b) = (
            gref(),
            GpuRef {
                worker: WorkerId(0),
                gpu: GpuId(1),
            },
        );
        let mut s = ClockworkScheduler::with_defaults();
        s.add_gpu(gpu_a, 100, PAGE);
        s.add_gpu(gpu_b, 100, PAGE);
        // Model 1 lives on A only and keeps it busy; model 2 is on both.
        s.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
        s.add_model(ModelId(2), resnet(), Nanos::from_millis_f64(8.33));
        warm(&mut s, gpu_a, 1);
        warm(&mut s, gpu_a, 2);
        warm(&mut s, gpu_b, 2);
        let exec = s.exec_estimate(ModelId(2), 1);
        assert!(exec > Nanos::from_millis(2) && exec < Nanos::from_millis(3));
        let mut ctx = SchedulerCtx::new();
        // Three back-to-back INFERs commit A until 3·exec; two commit B
        // until 2 ms + 2·exec — earlier than A, both past the lookahead.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 5_000), &mut ctx);
        let at = Timestamp::from_millis(2);
        for (id, model) in [(2, 1), (3, 1), (10, 2), (11, 2)] {
            s.on_request(at, request(id, model, 2, 5_000), &mut ctx);
        }
        let actions = ctx.take_actions();
        let placed = infers(&actions);
        let gpus: Vec<GpuId> = placed.iter().map(|(gpu, _)| *gpu).collect();
        assert_eq!(
            gpus,
            [GpuId(0), GpuId(0), GpuId(0), GpuId(1), GpuId(1)],
            "setup: {placed:?}"
        );
        let a_free = Timestamp::ZERO + exec * 3;
        let b_free = at + exec * 2;
        assert!(b_free < a_free);
        // Request 20's deadline admits a start at B's free time but not at
        // A's; 21 and 22 are loose. All three queue: no executor is inside
        // the lookahead yet.
        let arrival = Timestamp::from_nanos(2_100_000);
        let tight = b_free + Nanos::from_micros(300) + exec + NETWORK_ALLOWANCE;
        assert!(tight - exec - NETWORK_ALLOWANCE < a_free);
        s.on_request(
            arrival,
            InferenceRequest {
                slo: tight - arrival,
                arrival,
                ..request(20, 2, 0, 0)
            },
            &mut ctx,
        );
        for id in [21, 22] {
            s.on_request(
                arrival,
                InferenceRequest {
                    arrival,
                    ..request(id, 2, 0, 5_000)
                },
                &mut ctx,
            );
        }
        assert!(ctx.take_actions().is_empty());
        assert_eq!(s.queued_requests(), 3);
        // One tick later both executors are inside the lookahead.
        let outcome = s.on_tick(Timestamp::from_millis(3), &mut ctx);
        assert_eq!(outcome, TickOutcome::Full);
        let tick = ctx.take_actions();
        let placed = infers(&tick);
        assert!(
            placed
                .iter()
                .any(|(gpu, ids)| *gpu == GpuId(1) && ids.contains(&20)),
            "the head is served on B: {placed:?}"
        );
        assert!(
            placed
                .iter()
                .any(|(gpu, ids)| *gpu == GpuId(0) && ids.contains(&22)),
            "the remainder is placed on A in the same pass: {placed:?}"
        );
        assert!(ctx.take_responses().is_empty(), "nobody expired");
        let loads = sent(&actions, "LOAD") + sent(&tick, "LOAD");
        assert_eq!(loads, 0, "no LOAD was involved");
    }

    /// Queues a request without running a pass — through the path every
    /// queue change takes, so the ledger sees it.
    fn enqueue(s: &mut ClockworkScheduler, id: u64, model: u32) {
        let request = request(id, model, 0, 5_000);
        let pending = PendingRequest {
            deadline: request.deadline(),
            request,
            cold: false,
        };
        s.with_queue(request.model, |queues| queues.push_back(pending));
    }

    /// The INFER visit list at `horizon`, checked against the full scan;
    /// the ledger it is read off is first checked against its rebuild.
    fn infer_gpus(s: &mut ClockworkScheduler, horizon: Timestamp) -> Vec<usize> {
        s.sync_ledger();
        assert_eq!(s.ledger.totals(), s.reference_ledger(), "at {horizon:?}");
        let mut listed = Vec::new();
        s.infer_gpus_into(horizon, &mut listed);
        assert_eq!(listed, s.reference_infer_gpus(horizon), "at {horizon:?}");
        listed
    }

    /// Two workers of two GPUs of `pages` pages each, registration indices
    /// 0..4.
    fn four_gpus(s: &mut ClockworkScheduler, pages: u64) -> [GpuRef; 4] {
        let gpus = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(worker, gpu)| GpuRef {
            worker: WorkerId(worker),
            gpu: GpuId(gpu),
        });
        for gpu in gpus {
            s.add_gpu(gpu, pages, PAGE);
        }
        gpus
    }

    #[test]
    fn the_infer_pass_lists_the_actionable_holders_of_queued_models() {
        let mut s = ClockworkScheduler::with_defaults();
        let gpus = four_gpus(&mut s, 100);
        for m in 1..=4 {
            s.add_model(ModelId(m), resnet(), Nanos::from_millis_f64(8.33));
        }
        // Model 1 on three GPUs, 2 on the fourth, 3 beside 1 on the second.
        for (gpu, model) in [(0, 1), (1, 1), (2, 1), (3, 2), (1, 3)] {
            warm(&mut s, gpus[gpu], model);
        }
        let horizon = Timestamp::ZERO + LOOKAHEAD;
        assert!(infer_gpus(&mut s, horizon).is_empty(), "nothing is queued");
        // Each holder once, in registration order — also the one that holds
        // two queued models; the GPU holding nothing queued is left out.
        enqueue(&mut s, 1, 1);
        enqueue(&mut s, 2, 3);
        assert_eq!(infer_gpus(&mut s, horizon), [0, 1, 2]);
        // A holder claimed past the lookahead is not listed until the
        // horizon reaches its free time.
        let mut ctx = SchedulerCtx::new();
        let busy = Placement::unbounded(gpus[1], Timestamp::ZERO, Nanos::from_millis(20));
        s.tracker
            .send_infer(&mut ctx, busy, ModelId(3), 1, vec![], vec![]);
        assert_eq!(infer_gpus(&mut s, horizon), [0, 2]);
        assert_eq!(infer_gpus(&mut s, Timestamp::from_millis(20)), [0, 2]);
        assert_eq!(infer_gpus(&mut s, Timestamp::from_millis(21)), [0, 1, 2]);
        // A holder whose copy is still loading counts.
        enqueue(&mut s, 3, 4);
        let load = Placement::unbounded(gpus[3], Timestamp::ZERO, Nanos::from_millis(8));
        s.tracker.send_load(&mut ctx, load, ModelId(4), 7 * PAGE);
        assert_eq!(infer_gpus(&mut s, horizon), [0, 2, 3]);
        // A dead GPU is not listed: the crash wiped it from the holder
        // lists, although its executors read free again.
        s.tracker
            .apply_fault(Timestamp::ZERO, &FaultKind::WorkerCrash { worker: 1 });
        assert_eq!(s.tracker.gpus_with_model(ModelId(1)), [0, 1]);
        assert!(s.tracker.gpus_with_model(ModelId(4)).is_empty());
        assert_eq!(infer_gpus(&mut s, horizon), [0]);
    }

    #[test]
    fn a_dispatch_that_empties_the_queue_leaves_the_later_listed_gpus_untouched() {
        let mut s = ClockworkScheduler::with_defaults();
        let gpus = four_gpus(&mut s, 100);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
        for gpu in [0, 2, 3] {
            warm(&mut s, gpus[gpu], 1);
        }
        enqueue(&mut s, 1, 1);
        assert_eq!(infer_gpus(&mut s, Timestamp::ZERO + LOOKAHEAD), [0, 2, 3]);
        let mut ctx = SchedulerCtx::new();
        s.run_full_pass(Timestamp::ZERO, &mut ctx);
        // The first listed GPU took the only request; the other two were
        // listed before that and must cost nothing.
        assert_eq!(infers(&ctx.take_actions()), [(GpuId(0), vec![1])]);
        assert_eq!(s.sched_profile().candidates_scanned, 1);
        assert_eq!(s.sched_profile().strategies_recomputed, 1);
    }

    #[test]
    fn the_infer_visit_list_matches_the_full_scan_under_load_and_faults() {
        // The in-pass assertion compares the two at the pass's own horizon
        // in debug builds; this drives a busy, faulty little fleet and
        // compares them after every callback at horizons on both sides of
        // every executor's free time, in release builds too — and the
        // expiry list with its scan of every queued model at the same
        // instants.
        fn check(s: &mut ClockworkScheduler, now: Timestamp, seen: &mut [usize; 4]) {
            let (mut actionable, mut lapsing) = (Vec::new(), Vec::new());
            for ahead_ms in [0, 1, 5, 8, 20, 1_000] {
                let horizon = now + Nanos::from_millis(ahead_ms);
                let listed = infer_gpus(s, horizon);
                s.tracker
                    .actionable_into(Executor::Infer, horizon, &mut actionable);
                seen[0] += usize::from(!listed.is_empty());
                seen[1] += usize::from(listed.len() < actionable.len());
                s.lapsing_into(horizon, &mut lapsing);
                assert_eq!(lapsing, s.reference_lapsing(horizon), "at {horizon:?}");
                seen[2] += usize::from(!lapsing.is_empty());
                let widest = horizon + s.max_est1 + NETWORK_ALLOWANCE;
                seen[3] += usize::from(s.queues.due_before(widest).count() > lapsing.len());
            }
        }
        let mut s = ClockworkScheduler::with_defaults();
        let gpus = four_gpus(&mut s, 100);
        for m in 0..6 {
            s.add_model(ModelId(m), resnet(), Nanos::from_millis_f64(8.33));
        }
        // Two models a GPU, every model on one or two GPUs.
        for (gpu, model) in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 4), (3, 4)] {
            warm(&mut s, gpus[gpu], model);
        }
        let mut ctx = SchedulerCtx::new();
        let mut seen = [0; 4];
        let mut pending: VecDeque<(WorkerId, clockwork_worker::Action)> = VecDeque::new();
        let (mut loads, mut responses) = (0, Vec::new());
        for i in 0..400u64 {
            let now = Timestamp::from_nanos(250_000 * i);
            // Model 5 is cold and gets loaded; the SLOs straddle what the
            // backlog allows, so queues both drain and expire.
            let (model, slo_ms) = ((i * 7 % 6) as u32, [15, 40, 400][(i % 3) as usize]);
            let arrival = InferenceRequest {
                arrival: now,
                ..request(i, model, 0, slo_ms)
            };
            s.on_request(now, arrival, &mut ctx);
            check(&mut s, now, &mut seen);
            match i {
                150 => s.on_fault(now, &FaultKind::GpuFail { worker: 0, gpu: 1 }, &mut ctx),
                200 => s.on_fault(now, &FaultKind::WorkerCrash { worker: 1 }, &mut ctx),
                250 => s.on_fault(now, &FaultKind::WorkerRestart { worker: 1 }, &mut ctx),
                300 => s.on_fault(now, &FaultKind::GpuRecover { worker: 0, gpu: 1 }, &mut ctx),
                _ if i % 4 == 0 => {
                    s.on_tick(now, &mut ctx);
                }
                _ => {}
            }
            check(&mut s, now, &mut seen);
            let actions = ctx.take_actions();
            loads += sent(&actions, "LOAD");
            pending.extend(actions);
            // Results come back three actions behind the sends.
            while pending.len() > 3 {
                let (worker, action) = pending.pop_front().unwrap();
                if action.kind.type_name() == "UNLOAD" {
                    continue;
                }
                let mut result = success_result(action.id, &action, i / 4, 2_500);
                (result.worker, result.gpu) = (worker, action.gpu);
                s.on_result(now, &result, &mut ctx);
                check(&mut s, now, &mut seen);
                let actions = ctx.take_actions();
                loads += sent(&actions, "LOAD");
                pending.extend(actions);
            }
            responses.extend(ctx.take_responses());
        }
        let expired = rejected(&responses, RejectReason::DeadlineElapsed);
        assert!(completed(&responses) > 100, "{}", completed(&responses));
        assert!(loads > 0 && expired > 0, "{loads} LOADs, {expired} expired");
        // Not vacuous: visit lists were often non-empty, and often shorter
        // than the actionable fleet; expiry lists were often non-empty, and
        // often shorter than what the widest cutoff lets through.
        assert!(seen[0] > 100 && seen[1] > 100, "{seen:?}");
        assert!(seen[2] > 100 && seen[3] > 50, "{seen:?}");
    }

    /// What [`the_ledger_matches_its_rebuild_under_load_eviction_and_faults`]
    /// must have seen for its comparisons to mean anything.
    #[derive(Debug, Default)]
    struct LedgerSightings {
        /// Checks of a ledger that no rebuild had just made true.
        pushed: usize,
        /// Checks with a queued model held nowhere / a GPU over the bound /
        /// a GPU holding several queued models (so the order of its list
        /// is compared, not just its content).
        no_holder: usize,
        over_bound: usize,
        shared_gpu: usize,
        /// Passes over a non-empty queue that the ledger proved priceless
        /// and that priced nothing / passes that did price.
        skipped: usize,
        priced: usize,
        /// Times the columns caught up with the holder lists by moving the
        /// models that moved / by a rebuild (a GPU joined, a GPU failed).
        moved_in_place: usize,
        rebuilt: usize,
    }

    #[test]
    fn the_ledger_matches_its_rebuild_under_load_eviction_and_faults() {
        // The ledger is pushed to, not validated by key, so this is what
        // keeps it honest in release builds too (debug builds also assert
        // inside every pass): a small overloaded fleet with room for two
        // models a GPU, so LOADs evict; results three actions behind the
        // sends, every fifth LOAD failing; faults; a GPU joining mid-run.
        // After every callback the ledger must equal its from-scratch
        // rebuild, and a ledger that says "priceless" must be right.
        fn check(s: &mut ClockworkScheduler, now: Timestamp, seen: &mut LedgerSightings) {
            seen.pushed += usize::from(s.ledger.is_built_on(s.ledger_key()));
            s.sync_ledger();
            let totals = s.ledger.totals();
            assert_eq!(totals, s.reference_ledger(), "at {now:?}");
            seen.no_holder += usize::from(!totals.unheld.is_empty());
            seen.over_bound += usize::from(!totals.over_limit.is_empty());
            seen.shared_gpu += usize::from(totals.waiting.iter().any(|list| list.len() > 1));
            // What each pass reads is what it used to compute: the INFER
            // candidates per listed GPU, and the priced LOAD priorities.
            for &gpu_idx in s.ledger.listed() {
                let track = &s.tracker.gpus()[gpu_idx];
                let waiting = s.ledger.waiting(gpu_idx).iter();
                let loading = |m| track.residency(m).expect("a waiting model is held").loading;
                let candidates: Vec<_> = waiting.map(|&m| (m, loading(m))).collect();
                assert_eq!(candidates, s.reference_candidates(gpu_idx), "at {now:?}");
            }
            assert_localised_pricing_is_the_full_walk(s, now);
            if s.loads_are_priceless() {
                s.assert_loads_are_priceless(now);
            }
        }
        /// One more pass at `now`, watched: priceless going in (the INFER
        /// pass before the LOAD pass can only shrink queues) means nothing
        /// is priced.
        fn pass(
            s: &mut ClockworkScheduler,
            now: Timestamp,
            ctx: &mut SchedulerCtx,
            seen: &mut LedgerSightings,
        ) {
            s.sync_ledger();
            let priceless = s.loads_are_priceless();
            let queued = !s.queues.queued().is_empty();
            let before = s.sched_profile().load_prio_recomputes;
            s.run_full_pass(now, ctx);
            let priced = s.sched_profile().load_prio_recomputes > before;
            assert!(!(priceless && priced), "a priceless pass priced at {now:?}");
            seen.skipped += usize::from(priceless && queued);
            seen.priced += usize::from(priced);
        }
        let mut s = ClockworkScheduler::with_defaults();
        let gpus = four_gpus(&mut s, 15);
        for m in 0..8 {
            s.add_model(ModelId(m), resnet(), Nanos::from_millis_f64(8.33));
        }
        for (gpu, model) in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 4), (3, 4)] {
            warm(&mut s, gpus[gpu], model);
        }
        let mut ctx = SchedulerCtx::new();
        let mut seen = LedgerSightings::default();
        let mut pending: VecDeque<(WorkerId, clockwork_worker::Action)> = VecDeque::new();
        let mut loads_resolved = 0;
        let (mut loads, mut unloads, mut responses) = (0, 0, Vec::new());
        let mut tally = |actions: Vec<_>, pending: &mut VecDeque<_>| {
            loads += sent(&actions, "LOAD");
            unloads += sent(&actions, "UNLOAD");
            pending.extend(actions);
        };
        for i in 0..600u64 {
            let now = Timestamp::from_nanos(250_000 * i);
            // Models 5–7 start cold; tight SLOs expire in the queue, loose
            // ones wait behind the busy executors. While half the fleet is
            // down a burst of SLO-less requests for one model carries its
            // holder over the bound.
            let burst = (300..304).contains(&i);
            for k in 0..if burst { 40 } else { 1 } {
                let (model, slo) = if burst {
                    (0, Nanos::MAX)
                } else {
                    let slo_ms = [15, 40, 400][(i % 3) as usize];
                    ((i * 7 % 8) as u32, Nanos::from_millis(slo_ms))
                };
                let arrival = InferenceRequest {
                    arrival: now,
                    slo,
                    ..request(100 * i + k, model, 0, 0)
                };
                s.on_request(now, arrival, &mut ctx);
                check(&mut s, now, &mut seen);
            }
            pass(&mut s, now, &mut ctx, &mut seen);
            check(&mut s, now, &mut seen);
            match i {
                120 => {
                    let joined = GpuRef {
                        worker: WorkerId(2),
                        gpu: GpuId(0),
                    };
                    s.add_gpu(joined, 15, PAGE);
                }
                200 => s.on_fault(now, &FaultKind::GpuFail { worker: 0, gpu: 1 }, &mut ctx),
                260 => s.on_fault(now, &FaultKind::WorkerCrash { worker: 1 }, &mut ctx),
                380 => s.on_fault(now, &FaultKind::WorkerRestart { worker: 1 }, &mut ctx),
                440 => s.on_fault(now, &FaultKind::GpuRecover { worker: 0, gpu: 1 }, &mut ctx),
                _ if i % 4 == 0 => {
                    s.on_tick(now, &mut ctx);
                }
                _ => {}
            }
            check(&mut s, now, &mut seen);
            tally(ctx.take_actions(), &mut pending);
            while pending.len() > 3 {
                let (worker, action) = pending.pop_front().unwrap();
                if action.kind.type_name() == "UNLOAD" {
                    continue;
                }
                let mut result = success_result(action.id, &action, i / 4, 2_500 + 10 * (i % 50));
                (result.worker, result.gpu) = (worker, action.gpu);
                if action.kind.type_name() == "LOAD" {
                    loads_resolved += 1;
                    if loads_resolved % 5 == 0 {
                        result.outcome = ActionOutcome::Error {
                            error: clockwork_worker::ActionError::WindowElapsed,
                            at: now,
                        };
                    }
                }
                s.on_result(now, &result, &mut ctx);
                check(&mut s, now, &mut seen);
                tally(ctx.take_actions(), &mut pending);
            }
            responses.extend(ctx.take_responses());
        }
        let expired = rejected(&responses, RejectReason::DeadlineElapsed);
        assert!(completed(&responses) > 100, "{}", completed(&responses));
        assert!(expired > 0, "nothing expired");
        assert!(
            loads >= 10 && unloads > 0,
            "{loads} LOADs, {unloads} UNLOADs"
        );
        // Not vacuous: it was mostly the pushed-to ledger that was compared,
        // both reasons to price and both kinds of pass occurred, and the
        // columns followed the holder lists both ways — each LOAD and
        // eviction moved in place, the joined and the failed GPUs rebuilt.
        (seen.moved_in_place, seen.rebuilt) = s.ledger.paths;
        assert!(seen.pushed > 1_000, "{seen:?}");
        assert!(seen.no_holder > 10 && seen.over_bound > 10, "{seen:?}");
        assert!(seen.shared_gpu > 100, "{seen:?}");
        assert!(seen.skipped > 10 && seen.priced > 10, "{seen:?}");
        assert!(seen.moved_in_place > 10 && seen.rebuilt >= 3, "{seen:?}");
    }

    /// Prices the LOAD pass both ways on the scheduler's present state — off
    /// the ledger, and by the full walk over every demand re-estimated — and
    /// compares them bit for bit, after checking every charge and list of
    /// the ledger against its rebuild. It prices twice, the second time off
    /// the loads the first kept, and checks the kept loads against the full
    /// walk's after each. Returns the priorities and how many models the
    /// localised walk priced.
    fn assert_localised_pricing_is_the_full_walk(
        s: &mut ClockworkScheduler,
        now: Timestamp,
    ) -> (Vec<(ModelId, f64)>, usize) {
        let bits = |list: &[(ModelId, f64)]| -> Vec<(ModelId, u64)> {
            list.iter().map(|&(m, p)| (m, p.to_bits())).collect()
        };
        s.sync_ledger();
        assert_eq!(s.ledger.totals(), s.reference_ledger(), "at {now:?}");
        let full = s.reference_priorities(now);
        let (mut priced, mut localised) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            s.localised_load_priorities_into(&mut priced, &mut localised);
            assert_eq!(bits(&localised), bits(&full), "at {now:?}");
            assert_eq!(s.ledger.totals(), s.reference_ledger(), "at {now:?}");
        }
        assert!(priced.len() <= s.reference_demands(now).len());
        (full, priced.len())
    }

    #[test]
    fn localised_pricing_matches_the_full_walk_over_random_queues_and_holders() {
        use clockwork_sim::rng::SimRng;
        // 24 models over 10 GPUs of room for four each, random holder lists
        // (some models held nowhere), random SLO-less queues deep enough that
        // a few GPUs go over the limit while most stay idle. Each round then
        // walks the ways a pass can find the state moved between two reads:
        // a queue grown, a GPU failed (its models unlisted, `holders_epoch`
        // moved), a full pass with LOADs and evictions dispatched mid-pass
        // (in debug builds every re-evaluation inside it is checked against
        // the full walk too), and a cold rejection on record — with and
        // without a queue for the same model.
        let mut rng = SimRng::seeded(24);
        let mut sightings = [0usize; 8];
        for round in 0..40u64 {
            let mut s = ClockworkScheduler::with_defaults();
            let mut gpus = Vec::new();
            for w in 0..5 {
                for g in 0..2 {
                    let gpu = GpuRef {
                        worker: WorkerId(w),
                        gpu: GpuId(g),
                    };
                    s.add_gpu(gpu, 30, PAGE);
                    gpus.push(gpu);
                }
            }
            for m in 0..24 {
                s.add_model(ModelId(m), resnet(), Nanos::from_millis_f64(8.33));
            }
            for m in 0..24 {
                let copies = [0, 1, 1, 2, 3][rng.index(5)];
                for _ in 0..copies {
                    // Skewed towards the first GPUs, so some run hot.
                    let span = 3 + rng.index(gpus.len() - 2);
                    let gpu = gpus[rng.index(span)];
                    let track = s.tracker.get(gpu).unwrap();
                    if !track.has_or_loading(ModelId(m)) && track.free_pages >= 7 {
                        warm(&mut s, gpu, m);
                    }
                }
            }
            let no_slo = |id: u64, model: u32| InferenceRequest {
                slo: Nanos::MAX,
                ..request(id, model, 0, 0)
            };
            let mut ctx = SchedulerCtx::new();
            let mut next_id = 1_000 * round;
            let mut enqueue_some = |s: &mut ClockworkScheduler, rng: &mut SimRng, most: usize| {
                for _ in 0..1 + rng.index(most) {
                    let model = rng.index(24) as u32;
                    for _ in 0..1 + rng.index(240) {
                        let request = no_slo(next_id, model);
                        let pending = PendingRequest {
                            deadline: request.deadline(),
                            request,
                            cold: false,
                        };
                        s.with_queue(request.model, |queues| queues.push_back(pending));
                        next_id += 1;
                    }
                }
            };
            let now = Timestamp::from_millis(10);
            let look = |s: &mut ClockworkScheduler, sightings: &mut [usize; 8]| {
                let (priorities, priced) = assert_localised_pricing_is_the_full_walk(s, now);
                let totals = s.ledger.totals();
                let held_positive = priorities
                    .iter()
                    .any(|&(m, _)| !s.tracker.gpus_with_model(m).is_empty());
                // A positive model with a holder over the limit and another
                // that holds nothing else that waits.
                let straddles = priorities.iter().any(|&(m, _)| {
                    let holders = s.tracker.gpus_with_model(m);
                    holders.iter().any(|g| totals.over_limit.contains(g))
                        && holders.iter().any(|&g| totals.waiting[g] == [m])
                });
                sightings[0] += usize::from(!totals.unheld.is_empty());
                sightings[1] += usize::from(held_positive);
                sightings[2] += usize::from(straddles);
                sightings[3] += usize::from(0 < priced && priced < s.queues.queued().len());
            };
            enqueue_some(&mut s, &mut rng, 12);
            look(&mut s, &mut sightings);
            enqueue_some(&mut s, &mut rng, 3);
            look(&mut s, &mut sightings);
            // A GPU fails between two reads.
            let victim = gpus[rng.index(gpus.len())];
            let epoch = s.tracker.holders_epoch();
            let fault = FaultKind::GpuFail {
                worker: victim.worker.0,
                gpu: victim.gpu.0,
            };
            s.tracker.apply_fault(now, &fault);
            if s.tracker.holders_epoch() != epoch {
                assert!(!s.ledger.is_built_on(s.ledger_key()));
                sightings[4] += 1;
            }
            look(&mut s, &mut sightings);
            // LOADs (and the evictions that make room) dispatched mid-pass.
            s.run_full_pass(now, &mut ctx);
            look(&mut s, &mut sightings);
            sightings[5] += usize::from(sent(&ctx.take_actions(), "LOAD") > 1);
            // A cold rejection on record, for a model held nowhere — in every
            // other round one that is queued too, a case no benchmark workload
            // reaches: its charge is both demands, it is priced off the
            // ledger like any unheld model, and the full walk agrees bit for
            // bit.
            let cold = (0..24)
                .map(ModelId)
                .find(|&m| s.tracker.gpus_with_model(m).is_empty());
            if let Some(cold) = cold {
                if round % 2 == 0 && s.queues.len(cold) == 0 {
                    let request = no_slo(next_id, cold.0);
                    let pending = PendingRequest {
                        deadline: request.deadline(),
                        request,
                        cold: true,
                    };
                    s.with_queue(cold, |queues| queues.push_back(pending));
                }
                s.with_cold_history(cold, |history| history.push_back(now));
                let (priorities, _) = assert_localised_pricing_is_the_full_walk(&mut s, now);
                let demands = s.reference_demands(now);
                let demand = demands.iter().find(|&&(m, _)| m == cold).map(|&(_, d)| d);
                assert_eq!(s.ledger.charge(cold), demand);
                let queued = s.queues.len(cold) > 0;
                assert_eq!(demand > Some(s.exec_estimate(cold, 1)), queued);
                // Held nowhere, it is served nothing: its priority is its demand.
                let demand = demand.expect("a cold-rejected model is demanded");
                assert!(priorities.contains(&(cold, demand.as_secs_f64())));
                sightings[6 + usize::from(queued)] += 1;
                s.run_full_pass(now, &mut ctx);
            }
            ctx.take_actions();
            ctx.take_responses();
        }
        // Not vacuous: every case the walk must get right was met, and the
        // localised walk usually priced a strict subset of what waits.
        let [unheld, held_positive, straddles, subset, failed, mid_pass, cold_only, both] =
            sightings;
        assert!(unheld > 50 && held_positive > 50, "{sightings:?}");
        assert!(straddles > 20 && subset > 40, "{sightings:?}");
        assert!(failed > 20 && mid_pass > 10, "{sightings:?}");
        assert!(cold_only > 5 && both > 5, "{sightings:?}");
    }

    #[test]
    fn a_gpu_charged_up_to_the_bound_skips_the_load_pass_and_one_ns_more_prices_it() {
        // One model held by n GPUs, one request queued, its batch-1 estimate
        // — which is then its whole demand d — swept ns by ns across n times
        // the bound and n times the horizon. Each GPU is charged ceil(d / n):
        // the pass must price exactly when that exceeds the bound, and
        // wherever the float priorities do come out positive (d / n above
        // the horizon; d / 3 · 3 < d is the rounding the margin below it
        // absorbs) the pass must have priced.
        let (limit, horizon) = (
            LOAD_PRICELESS_BOUND.as_nanos(),
            LOAD_PRIORITY_HORIZON.as_nanos(),
        );
        assert_eq!(horizon - limit, 100, "10⁻⁶ of the horizon");
        for n in [1u64, 3, 7] {
            let mut s = ClockworkScheduler::with_defaults();
            s.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
            for gpu in 0..n as u32 {
                let gpu = GpuRef {
                    worker: WorkerId(0),
                    gpu: GpuId(gpu),
                };
                s.add_gpu(gpu, 100, PAGE);
                warm(&mut s, gpu, 1);
            }
            enqueue(&mut s, 1, 1);
            let mut ctx = SchedulerCtx::new();
            // Past the warming LOADs: every LOAD executor is free.
            let now = Timestamp::from_millis(10);
            let mut positive = 0;
            for centre in [limit, horizon] {
                for d in n * centre - 2 * n..=n * centre + 2 * n {
                    s.profiler
                        .seed(ProfileKey::exec(ModelId(1), 1), Nanos::from_nanos(d));
                    s.recharge(ModelId(1));
                    let before = s.sched_profile().load_prio_recomputes;
                    s.schedule_loads(now, &mut ctx);
                    let priced = s.sched_profile().load_prio_recomputes > before;
                    assert_eq!(priced, d.div_ceil(n) > limit, "n = {n}, d = {d}");
                    assert_eq!(s.ledger.totals().bounds, vec![d.div_ceil(n); n as usize]);
                    assert!(ctx.take_actions().is_empty(), "every GPU holds the model");
                    assert_eq!(s.ledger.charge(ModelId(1)), Some(Nanos::from_nanos(d)));
                    let priorities = s.reference_priorities(now);
                    assert!(priorities.is_empty() || priced, "n = {n}, d = {d}");
                    positive += priorities.len();
                }
            }
            assert!(positive > 0, "the sweep never reached a positive priority");
        }
    }

    #[test]
    fn demand_ledger_and_positive_priorities_match_the_from_scratch_oracles() {
        // An overloaded two-GPU fleet: deadline-free requests for model 1
        // pile up behind one busy executor until the GPU holding it carries
        // more demand than the priority horizon, which makes a *held* model's
        // priority positive (and earns it a second replica); models 2 and 3
        // are demanded while cold. After every callback the ledger must equal
        // the re-estimated demands, and the emitted list must be, bit for
        // bit, the positive prefix of the fully sorted priorities — and what
        // the localised walk prices off the waiting ledger. Unlike the debug
        // assertions inside the pass, this also runs in release builds.
        let check = assert_localised_pricing_is_the_full_walk;
        let mut s = ClockworkScheduler::with_defaults();
        s.add_gpu(gref(), 100, PAGE);
        for m in 1..=3 {
            s.add_model(ModelId(m), resnet(), Nanos::from_millis_f64(8.33));
        }
        let mut ctx = SchedulerCtx::new();
        let no_deadline = |id: u64, model: u32, at: Timestamp| InferenceRequest {
            id: RequestId(id),
            model: ModelId(model),
            arrival: at,
            slo: Nanos::MAX,
            tier: Tier::Strict,
        };
        let mut held_positive = false;
        let mut pending = Vec::new();
        for i in 0..240u64 {
            let at = Timestamp::from_nanos(100_000 * i);
            let model = if i % 40 == 39 {
                2 + (i / 40 % 2) as u32
            } else {
                1
            };
            s.on_request(at, no_deadline(i, model, at), &mut ctx);
            pending.extend(ctx.take_actions());
            let (priorities, _) = check(&mut s, at);
            held_positive |= priorities
                .iter()
                .any(|&(m, _)| !s.tracker.gpus_with_model(m).is_empty());
            if i == 120 {
                // A second, empty GPU joins: the over-demanded model spreads.
                s.add_gpu(
                    GpuRef {
                        worker: WorkerId(1),
                        gpu: GpuId(0),
                    },
                    100,
                    PAGE,
                );
            }
        }
        assert!(held_positive, "no held model ever had a positive priority");
        assert!(sent(&pending, "LOAD") >= 3, "{pending:?}");
        // Results move the estimates (profile epochs), which must refresh
        // the ledger entries of exactly the models they concern.
        let (mut t_ms, mut done) = (30, 0);
        while let Some((worker, action)) = pending.pop() {
            if action.kind.type_name() == "UNLOAD" {
                continue;
            }
            let at = Timestamp::from_millis(t_ms);
            let mut result = success_result(action.id, &action, t_ms, 2_000 + 37 * t_ms);
            result.worker = worker;
            result.gpu = action.gpu;
            s.on_result(at, &result, &mut ctx);
            pending.extend(ctx.take_actions());
            done += completed(&ctx.take_responses());
            check(&mut s, at);
            t_ms += 1;
            if t_ms > 400 {
                break;
            }
        }
        assert!(done > 0);
    }

    #[test]
    fn admission_control_rejects_impossible_slos() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // 1 ms SLO on a cold model that needs ~8 ms of loading + ~2.6 ms exec.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 1), &mut ctx);
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].outcome,
            RequestOutcome::Rejected {
                reason: RejectReason::CannotMeetSlo,
                ..
            }
        ));
        assert!(ctx.take_actions().is_empty(), "no fruitless work");
    }

    #[test]
    fn warm_request_is_batched_and_completed() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // Warm the model up with one request.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        let (load_id, load_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        // Report LOAD completion.
        s.on_result(
            Timestamp::from_millis(9),
            &success_result(load_id, &load_action, 0, 8_330),
            &mut ctx,
        );
        // The first request's own INFER (issued together with the LOAD) is
        // still outstanding; keep it so it can be completed below.
        let mut pending_infers: Vec<(ActionId, clockwork_worker::Action)> = actions
            .iter()
            .filter(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .collect();
        // Now send 4 more requests at once; they should be batched together.
        for i in 2..=5 {
            s.on_request(Timestamp::from_millis(10), request(i, 1, 10, 100), &mut ctx);
        }
        let actions = ctx.take_actions();
        pending_infers.extend(
            actions
                .iter()
                .filter(|(_, a)| a.kind.type_name() == "INFER")
                .map(|(_, a)| (a.id, a.clone())),
        );
        assert!(!pending_infers.is_empty());
        let mut responses = ctx.take_responses();
        let mut t_ms = 20;
        while let Some((id, action)) = pending_infers.pop() {
            s.on_result(
                Timestamp::from_millis(t_ms),
                &success_result(id, &action, t_ms, 3_000),
                &mut ctx,
            );
            t_ms += 5;
            for (_, a) in ctx.take_actions() {
                if a.kind.type_name() == "INFER" {
                    pending_infers.push((a.id, a));
                }
            }
            responses.extend(ctx.take_responses());
        }
        let successes = responses.iter().filter(|r| r.outcome.is_success()).count();
        assert_eq!(successes, 5, "all requests served: {responses:?}");
        assert_eq!(s.queued_requests(), 0);
        assert_eq!(s.in_flight_batches(), 0);
    }

    #[test]
    fn batching_prefers_larger_batches() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // Warm model.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 1_000), &mut ctx);
        let actions = ctx.take_actions();
        let (load_id, load_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        // Finish the first INFER too so the executor is free.
        let first_infers: Vec<_> = actions
            .iter()
            .filter(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .collect();
        s.on_result(
            Timestamp::from_millis(9),
            &success_result(load_id, &load_action, 0, 8_330),
            &mut ctx,
        );
        for (id, a) in first_infers {
            s.on_result(
                Timestamp::from_millis(13),
                &success_result(id, &a, 9, 2_610),
                &mut ctx,
            );
        }
        let _ = ctx.take_actions();
        let _ = ctx.take_responses();
        // 16 simultaneous requests for a warm model. The first couple are
        // dispatched at batch 1 (the executor was idle); once those complete,
        // the backlog should be served with a large batch.
        for i in 10..26 {
            s.on_request(Timestamp::from_millis(20), request(i, 1, 20, 200), &mut ctx);
        }
        let mut max_batch = 0u32;
        let mut pending: Vec<(ActionId, clockwork_worker::Action)> = ctx
            .take_actions()
            .iter()
            .filter(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .collect();
        let mut t_ms = 26;
        while let Some((id, action)) = pending.pop() {
            if let ActionKind::Infer { batch, .. } = &action.kind {
                max_batch = max_batch.max(*batch);
            }
            s.on_result(
                Timestamp::from_millis(t_ms),
                &success_result(id, &action, t_ms, 3_000),
                &mut ctx,
            );
            t_ms += 5;
            pending.extend(
                ctx.take_actions()
                    .iter()
                    .filter(|(_, a)| a.kind.type_name() == "INFER")
                    .map(|(_, a)| (a.id, a.clone())),
            );
            let _ = ctx.take_responses();
        }
        assert!(max_batch >= 8, "expected large batch, got {max_batch}");
    }

    #[test]
    fn infer_windows_respect_deadlines() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 50), &mut ctx);
        let actions = ctx.take_actions();
        for (_, a) in &actions {
            if let ActionKind::Infer { .. } = a.kind {
                // latest + exec estimate must not exceed the deadline.
                let est = a.expected_duration;
                assert!(a.window.latest + est <= Timestamp::from_millis(50));
                assert!(a.window.earliest <= a.window.latest);
            }
        }
    }

    #[test]
    fn load_failure_releases_reserved_pages() {
        // Give the GPU so few pages that the load reservation matters.
        let mut s = scheduler_with_one_gpu(7);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        let (load_id, load_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "LOAD")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        let free_before = s.tracker.get(gref()).unwrap().free_pages;
        assert_eq!(free_before, 0, "all 7 pages reserved for the load");
        // The worker reports failure.
        let result = ActionResult {
            outcome: ActionOutcome::Error {
                error: clockwork_worker::ActionError::InsufficientPages {
                    needed: 7,
                    available: 0,
                },
                at: Timestamp::from_millis(1),
            },
            ..success_result(load_id, &load_action, 0, 8_330)
        };
        s.on_result(Timestamp::from_millis(1), &result, &mut ctx);
        assert_eq!(s.tracker.get(gref()).unwrap().free_pages, 7);
    }

    #[test]
    fn worker_rejection_requeues_if_time_allows() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 500), &mut ctx);
        let actions = ctx.take_actions();
        let (infer_id, infer_action) = actions
            .iter()
            .find(|(_, a)| a.kind.type_name() == "INFER")
            .map(|(_, a)| (a.id, a.clone()))
            .unwrap();
        let result = ActionResult {
            outcome: ActionOutcome::Error {
                error: clockwork_worker::ActionError::WindowElapsed,
                at: Timestamp::from_millis(12),
            },
            ..success_result(infer_id, &infer_action, 12, 0)
        };
        s.on_result(Timestamp::from_millis(12), &result, &mut ctx);
        // Deadline is 500 ms away, so the request goes back into the queue
        // and a new INFER is eventually issued rather than a rejection.
        let responses = ctx.take_responses();
        assert!(responses.iter().all(|r| !matches!(
            r.outcome,
            RequestOutcome::Rejected {
                reason: RejectReason::WorkerRejected,
                ..
            }
        )));
        assert!(s.queued_requests() + s.in_flight_batches() >= 1);
    }

    #[test]
    fn queued_requests_expire_when_deadline_passes() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 30), &mut ctx);
        let _ = ctx.take_actions();
        // Pretend nothing happened for 40 ms (the worker never answered).
        s.on_tick(Timestamp::from_millis(40), &mut ctx);
        // The queued copy of the request (if any) must be expired; at minimum
        // no INFER may be scheduled that would start after the deadline.
        for (_, a) in ctx.take_actions() {
            assert!(a.window.earliest <= Timestamp::from_millis(30));
        }
    }

    #[test]
    fn next_tick_only_fires_when_a_tick_could_act() {
        let s = scheduler_with_one_gpu(100);
        assert_eq!(s.next_tick(Timestamp::ZERO), None, "idle: no ticks");
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        // The request was fully planned (LOAD and a dependent INFER are in
        // flight, the queue is empty): busy but settled, so no tick is
        // wanted — the results will re-arm the chain.
        assert!(s.in_flight_batches() >= 1);
        assert_eq!(s.next_tick(Timestamp::ZERO), None, "settled: no ticks");
        // A second request cannot be planned yet — the executor is committed
        // past the lookahead horizon — so a tick is wanted, on the legacy
        // 1 ms grid, no earlier than when the horizon reaches the
        // executor's free time.
        s.on_request(Timestamp::ZERO, request(2, 1, 0, 100), &mut ctx);
        assert!(s.queued_requests() >= 1);
        let tick = s.next_tick(Timestamp::ZERO).expect("queued work pending");
        assert!(tick > Timestamp::ZERO);
        assert_eq!(
            tick.as_nanos() % TICK_INTERVAL.as_nanos(),
            0,
            "ticks stay on the fixed-cadence grid"
        );
        assert_eq!(s.name(), "clockwork");
    }

    #[test]
    fn a_topology_change_makes_the_next_tick_run_a_full_pass() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // Fully planned (LOAD and INFER in flight, nothing queued): busy but
        // settled, so ticks early-out and none is wanted.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        assert_eq!(s.next_tick(Timestamp::ZERO), None);
        let now = Timestamp::from_nanos(2_500_000);
        assert_eq!(s.on_tick(now, &mut ctx), TickOutcome::Skipped);
        // Neither registration runs a pass of its own, so each must make the
        // next tick run one — and ask for it at the very next grid point.
        let changes: [fn(&mut ClockworkScheduler); 2] = [
            |s| {
                let joined = GpuRef {
                    worker: WorkerId(1),
                    gpu: GpuId(0),
                };
                s.add_gpu(joined, 100, PAGE)
            },
            |s| s.add_model(ModelId(2), resnet(), Nanos::from_millis_f64(8.33)),
        ];
        for change in changes {
            change(&mut s);
            assert_eq!(s.next_tick(now), Some(Timestamp::from_millis(3)));
            assert_eq!(s.on_tick(now, &mut ctx), TickOutcome::Full);
            assert_eq!(s.on_tick(now, &mut ctx), TickOutcome::Skipped);
            assert_eq!(s.next_tick(now), None, "settled again");
        }
    }

    #[test]
    fn lru_unload_makes_room_when_cache_is_full() {
        // 8 pages: exactly one ResNet50 (7 pages) fits at a time.
        let mut s = ClockworkScheduler::with_defaults();
        s.add_gpu(gref(), 8, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
        s.add_model(ModelId(2), resnet(), Nanos::from_millis_f64(8.33));
        let mut ctx = SchedulerCtx::new();
        // Load and finish model 1.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 100), &mut ctx);
        let actions = ctx.take_actions();
        for (id, a) in actions.iter().map(|(_, a)| (a.id, a.clone())) {
            let dur = if a.kind.type_name() == "LOAD" {
                8_330
            } else {
                2_610
            };
            s.on_result(
                Timestamp::from_millis(15),
                &success_result(id, &a, 10, dur),
                &mut ctx,
            );
        }
        let _ = ctx.take_actions();
        let _ = ctx.take_responses();
        // A request for model 2 must evict model 1 first.
        s.on_request(Timestamp::from_millis(50), request(2, 2, 50, 100), &mut ctx);
        let actions = ctx.take_actions();
        let kinds: Vec<&str> = actions.iter().map(|(_, a)| a.kind.type_name()).collect();
        assert!(kinds.contains(&"UNLOAD"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"LOAD"), "kinds: {kinds:?}");
        assert_eq!(sent(&actions, "UNLOAD"), 1);
    }

    #[test]
    fn no_slo_requests_are_never_rejected_by_admission() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        let r = InferenceRequest {
            id: RequestId(1),
            model: ModelId(1),
            arrival: Timestamp::ZERO,
            slo: Nanos::MAX,
            tier: Tier::Strict,
        };
        s.on_request(Timestamp::ZERO, r, &mut ctx);
        assert_eq!(infers(&ctx.take_actions()), [(GpuId(0), vec![1])]);
        assert_eq!(ctx.take_responses().len(), 0);
    }

    #[test]
    fn worker_crash_resolves_in_flight_actions_and_clears_residency() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // Cold request: a LOAD and an INFER are outstanding on the only GPU.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 500), &mut ctx);
        let _ = ctx.take_actions();
        assert_eq!(s.in_flight_batches(), 1);
        s.on_fault(
            Timestamp::from_millis(5),
            &FaultKind::WorkerCrash { worker: 0 },
            &mut ctx,
        );
        // The batch was resolved: with 495 ms of slack the request is
        // requeued, not rejected.
        assert_eq!(s.in_flight_batches(), 0);
        assert!(s.queued_requests() >= 1);
        assert!(ctx.take_responses().is_empty());
        let track = s.tracker.get(gref()).unwrap();
        assert!(!track.alive);
        assert!(track.table().is_empty());
        assert_eq!(track.free_pages, track.total_pages, "reservations returned");
        // While the fleet is dead, no actions are issued even on a tick.
        let _ = ctx.take_actions();
        s.on_tick(Timestamp::from_millis(6), &mut ctx);
        assert!(
            ctx.take_actions().is_empty(),
            "no work may be sent to a dead worker"
        );
        // Restart: the queued request is scheduled again, cold (LOAD first).
        s.on_fault(
            Timestamp::from_millis(10),
            &FaultKind::WorkerRestart { worker: 0 },
            &mut ctx,
        );
        let kinds: Vec<&str> = ctx
            .take_actions()
            .iter()
            .map(|(_, a)| a.kind.type_name())
            .collect();
        assert!(
            kinds.contains(&"LOAD"),
            "recovered worker must be treated as cold: {kinds:?}"
        );
        assert!(kinds.contains(&"INFER"), "{kinds:?}");
    }

    #[test]
    fn crash_with_no_slack_rejects_with_worker_failed() {
        let mut s = scheduler_with_one_gpu(100);
        let mut ctx = SchedulerCtx::new();
        // 20 ms SLO: cold start (~8.3 + 2.6 ms) fits, so the request is
        // admitted and dispatched.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 20), &mut ctx);
        let _ = ctx.take_actions();
        assert_eq!(s.in_flight_batches(), 1);
        // The GPU dies at 18 ms: 2.6 ms of exec no longer fits before the
        // 20 ms deadline, so the request must be rejected — exactly once,
        // with the fault-specific reason.
        s.on_fault(
            Timestamp::from_millis(18),
            &FaultKind::GpuFail { worker: 0, gpu: 0 },
            &mut ctx,
        );
        let responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(matches!(
            responses[0].outcome,
            RequestOutcome::Rejected {
                reason: RejectReason::WorkerFailed,
                ..
            }
        ));
        assert_eq!(s.queued_requests(), 0);
        assert_eq!(s.in_flight_batches(), 0);
    }

    #[test]
    fn crash_requeues_per_gpu_in_registration_order_then_by_action_id() {
        // Pinned, because the frozen digests depend on it: the lost batches
        // of a crashed worker are resolved GPU by GPU in registration order
        // and by action id within a GPU — NOT in the global action-id order
        // the baselines use. Two GPUs of one worker hold interleaved action
        // ids for the same model: ids ascend r1, r2 (gpu 0), r3 (gpu 1), r4
        // (gpu 0 again, once its executor is back inside the lookahead).
        let gpu1 = GpuRef {
            worker: WorkerId(0),
            gpu: GpuId(1),
        };
        let mut s = ClockworkScheduler::new(ClockworkSchedulerConfig {
            batching: false,
            ..Default::default()
        });
        s.add_gpu(gref(), 100, PAGE);
        s.add_gpu(gpu1, 100, PAGE);
        s.add_model(ModelId(1), resnet(), Nanos::from_millis_f64(8.33));
        let mut ctx = SchedulerCtx::new();
        // Warm the model on both GPUs without going through the scheduler's
        // own LOAD placement.
        warm(&mut s, gref(), 1);
        warm(&mut s, gpu1, 1);
        for (id, at_ms) in [(1, 10), (2, 10), (3, 10), (4, 13)] {
            let at = Timestamp::from_millis(at_ms);
            s.on_request(at, request(id, 1, at_ms, 5_000), &mut ctx);
        }
        assert_eq!(
            infers(&ctx.take_actions()),
            vec![
                (GpuId(0), vec![1]),
                (GpuId(0), vec![2]),
                (GpuId(1), vec![3]),
                (GpuId(0), vec![4])
            ],
            "setup: interleaved action ids across the worker's two GPUs"
        );
        s.on_fault(
            Timestamp::from_millis(14),
            &FaultKind::WorkerCrash { worker: 0 },
            &mut ctx,
        );
        assert!(
            ctx.take_responses().is_empty(),
            "plenty of slack: all requeued"
        );
        // Each lost batch is pushed to the queue's head in resolution order
        // r1, r2, r4 (gpu 0), r3 (gpu 1), so the queue reads r3, r4, r2, r1.
        // Global action-id order would leave r4, r3, r2, r1.
        let queue: Vec<u64> = s
            .queues
            .requests(ModelId(1))
            .map(|p| p.request.id.0)
            .collect();
        assert_eq!(queue, vec![3, 4, 2, 1]);
    }

    #[test]
    fn cold_rejections_still_drive_load_scheduling() {
        // A model whose SLO is tighter than its own cold-start time: every
        // request is rejected up-front while the model is cold, but those
        // rejections are SLO violations and must still cause the model to be
        // loaded (Appendix B), so that later requests can be served.
        let mut s = scheduler_with_one_gpu(200);
        let mut ctx = SchedulerCtx::new();

        // 5 ms SLO: warm execution (~2.6 ms) fits, cold start (~11 ms) does not.
        s.on_request(Timestamp::from_millis(1), request(1, 1, 1, 5), &mut ctx);
        let mut responses = ctx.take_responses();
        assert_eq!(responses.len(), 1);
        assert!(!responses[0].outcome.is_success());

        // The rejection must have triggered a LOAD for the model anyway.
        let actions = ctx.take_actions();
        let load = actions
            .iter()
            .find(|(_, a)| matches!(a.kind, ActionKind::Load { model } if model == ModelId(1)))
            .expect("cold rejection should schedule a LOAD");
        let (_, load_action) = load;

        // Complete the LOAD; a later request with the same tight SLO is now
        // admitted and scheduled.
        s.on_result(
            Timestamp::from_millis(10),
            &success_result(load_action.id, load_action, 2, 8_330),
            &mut ctx,
        );
        ctx.take_actions();
        responses.extend(ctx.take_responses());
        s.on_request(Timestamp::from_millis(12), request(2, 1, 12, 5), &mut ctx);
        s.on_tick(Timestamp::from_millis(12), &mut ctx);
        let actions = ctx.take_actions();
        assert!(
            actions.iter().any(|(_, a)| a.kind.is_infer()),
            "warm model with a feasible SLO must be scheduled, got {actions:?}"
        );
        responses.extend(ctx.take_responses());
        assert_eq!(rejected(&responses, RejectReason::CannotMeetSlo), 1);
    }

    #[test]
    fn best_effort_is_shed_under_fleet_pressure_while_strict_admits() {
        let mut s = scheduler_with_one_gpu(200);
        let mut ctx = SchedulerCtx::new();
        // Occupy the single GPU with a cold-start request, then pile a
        // backlog into the model queue behind it. Generous SLOs keep plain
        // admission open while the aggregate queue grows.
        s.on_request(Timestamp::ZERO, request(1, 1, 0, 10_000), &mut ctx);
        for i in 0..24 {
            s.on_request(
                Timestamp::from_millis(1),
                request(10 + i, 1, 1, 10_000),
                &mut ctx,
            );
        }
        ctx.take_actions();
        ctx.take_responses();

        // A strict request with a moderate SLO still clears admission: the
        // amortized best case fits inside its deadline.
        let queued_before = s.queued_requests();
        s.on_request(Timestamp::from_millis(2), request(100, 1, 2, 300), &mut ctx);
        assert_eq!(
            s.queued_requests(),
            queued_before + 1,
            "strict request must be admitted under the same backlog"
        );
        assert!(ctx.take_responses().is_empty(), "nothing rejected or shed");

        // The *identical* request at the best-effort tier is shed: the
        // fleet-pressure bar (aggregate backlog's fair drain share, scaled
        // by the headroom factor) crosses its deadline first.
        let mut be = request(101, 1, 2, 300);
        be.tier = Tier::BestEffort;
        s.on_request(Timestamp::from_millis(2), be, &mut ctx);
        let responses = ctx.take_responses();
        let shed = rejected(&responses, RejectReason::BestEffortShed);
        assert_eq!(shed, 1, "best-effort twin must be shed");
        assert!(
            responses.iter().any(|r| matches!(
                r.outcome,
                RequestOutcome::Rejected {
                    reason: RejectReason::BestEffortShed,
                    ..
                }
            )),
            "shed response must carry the BestEffortShed reason"
        );
    }
}
