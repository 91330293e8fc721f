//! The controller's mirror of worker state (§5.3 "Managing worker state").
//!
//! The scheduler never asks a worker what it is doing — it *knows*, because
//! workers only do what they are told and their action latencies are
//! predictable. For every GPU the controller tracks three things: the memory
//! state of the paged weights cache (which models are resident or being
//! loaded, and how many pages are free), the set of outstanding actions, and
//! an estimate of when each executor will next be available. Together with
//! the action profiles this is enough to predict when any candidate action
//! would complete.
//!
//! A GPU's memory state is one table ([`GpuTrack::table`]): one row per
//! model the GPU has stamped, ascending by id, carrying the model's LRU stamp
//! and, while it holds pages there, its [`Residency`]. A look-up is a binary
//! search and choosing an UNLOAD victim ([`GpuTrack::lru_candidate`]) is one
//! walk of contiguous memory. Page accounting is exact: a residency records
//! the pages its LOAD took from the free count, and whatever drops or
//! replaces it returns exactly those.
//!
//! **Ownership rule:** every per-GPU fact lives here; schedulers hold policy
//! state only. Residency (per GPU and, inverted, per model), page
//! reservations, executor free times, liveness and the worker-down set all
//! change through [`WorkerStateTracker`]'s `send_*`,
//! [`WorkerStateTracker::resolve`], [`WorkerStateTracker::evict_until_fits`]
//! and [`WorkerStateTracker::apply_fault`] methods and nowhere else —
//! callers only ever hold `&GpuTrack` — so the indices cannot drift from the
//! tracks they summarise and no discipline keeps a second copy. The inverted
//! index — a model's *holders* — changes in exactly two places (`send_load`
//! lists a GPU, `unlist_holder` takes one off), and each bumps
//! [`WorkerStateTracker::holders_epoch`], so whatever a discipline sums over
//! the holder lists knows when it is stale without visiting them — and, once
//! it has asked, [`WorkerStateTracker::holder_moves_since`] says which model
//! moved and how, so it can move that model's terms instead of rebuilding. The
//! executor free times have a derived index too — per executor, a min-heap of
//! the claims past the last horizon [`WorkerStateTracker::next_beyond`] was
//! asked about — pushed to where a free time can rise and popped by the query
//! itself, so "which executor enters the lookahead next" costs the claims
//! that lapsed since the last query, not the fleet.
//!
//! **In-flight actions** are the same rule applied to what "workers only do
//! what they are told" rests on: the tracker is the ledger of every action
//! sent and not heard back about, and the only way to send one. A `send_*`
//! mints the action, queues it on the [`SchedulerCtx`] and enters it in the
//! ledger in one call (this module is the only non-test caller of
//! `SchedulerCtx::send_action`, which is crate-private); an INFER's entry
//! carries its *riders* — the requests it will answer, of whatever type `R`
//! the discipline queues — and they come back exactly once, from
//! [`WorkerStateTracker::resolve`] or in [`WorkerStateTracker::apply_fault`]'s
//! lost list. A request is therefore always in one of two places: the
//! discipline's queue or this ledger.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use clockwork_model::{ModelId, ModelTable};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::hash::{IdMap, IdSet};
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionId, ActionKind, ActionResult, GpuId, TimeWindow, WorkerId};

use crate::scheduler::SchedulerCtx;

/// A (worker, GPU) pair — the unit of scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GpuRef {
    /// The worker machine.
    pub worker: WorkerId,
    /// The GPU on that worker.
    pub gpu: GpuId,
}

impl GpuRef {
    /// The GPU an action result came from.
    pub fn of(result: &ActionResult) -> Self {
        GpuRef {
            worker: result.worker,
            gpu: result.gpu,
        }
    }
}

impl std::fmt::Display for GpuRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.worker, self.gpu)
    }
}

/// Where and when a LOAD or INFER is sent to run.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// The GPU it is sent to.
    pub gpu: GpuRef,
    /// The execution window the worker enforces.
    pub window: TimeWindow,
    /// When the controller expects it to start: its executor is claimed
    /// from here.
    pub start: Timestamp,
    /// The predicted duration, sent with the action; `start + duration` is
    /// the expected completion.
    pub duration: Nanos,
}

impl Placement {
    /// A placement without an execution window (the baselines never set
    /// one).
    pub fn unbounded(gpu: GpuRef, start: Timestamp, duration: Nanos) -> Self {
        Placement {
            gpu,
            window: TimeWindow::always(),
            start,
            duration,
        }
    }
}

/// An action the controller has sent and not yet heard back about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutstandingAction<R> {
    /// The action id.
    pub id: ActionId,
    /// The model it concerns.
    pub model: ModelId,
    /// The controller's predicted completion time.
    pub expected_completion: Timestamp,
    /// What rides on an INFER — the requests it will answer; `None` for a
    /// LOAD (UNLOADs are not tracked).
    pub riders: Option<R>,
}

impl<R> OutstandingAction<R> {
    /// Whether it is a LOAD (false = INFER).
    pub fn is_load(&self) -> bool {
        self.riders.is_none()
    }
}

/// What [`WorkerStateTracker::resolve`] made of an action result.
#[derive(Debug, PartialEq, Eq)]
pub enum Resolved<R> {
    /// It resolved an outstanding INFER: here are its riders.
    Infer(R),
    /// It resolved an outstanding LOAD, and residency now reflects it.
    Load,
    /// Its action is not outstanding and nothing changed: an UNLOAD's result
    /// (never tracked), a replay, or a result produced just before its GPU
    /// crashed, when the crash already resolved the action — so it cannot
    /// resurrect residency on a GPU whose memory is gone (or clobber a newer
    /// LOAD of the same model issued after the GPU recovered), and its
    /// riders were already handed back with the fault.
    Stale,
}

/// One model's claim on a GPU's weights cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Residency {
    /// Pages reserved for the model's weights: exactly what its LOAD took
    /// from the GPU's free pages, and what dropping it gives back.
    pub pages: u64,
    /// Whether the LOAD is still outstanding (false = confirmed resident).
    pub loading: bool,
}

/// One row of a GPU's residency table: a model the GPU has stamped, with
/// its LRU stamp and, while it holds pages here, its residency. A stamp can
/// outlive its residency — a failed LOAD keeps it — but never the other way
/// round: every LOAD stamps the model if it is not stamped yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamped {
    /// The model.
    pub model: ModelId,
    /// When the last INFER of it was scheduled here (or its first LOAD,
    /// if no INFER has been): what LRU eviction orders by.
    pub stamp: Timestamp,
    /// Its claim on the weights cache, if any.
    pub residency: Option<Residency>,
}

/// Which of a GPU's two executors a readiness query is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// The INFER executor.
    Infer,
    /// The LOAD executor.
    Load,
}

/// The tracked state of one GPU. Plain data: all mutation goes through the
/// owning [`WorkerStateTracker`].
#[derive(Clone, Debug)]
pub struct GpuTrack<R> {
    /// Which GPU this is.
    pub gpu_ref: GpuRef,
    /// Total pages in the weights cache.
    pub total_pages: u64,
    /// Pages not allocated to any resident or loading model.
    pub free_pages: u64,
    /// Page size in bytes.
    pub page_size: u64,
    /// The residency table: every stamped model, in ascending `ModelId`
    /// order, with its LRU stamp and residency side by side — a look-up is
    /// a binary search, and eviction one walk of contiguous memory. Read
    /// through [`GpuTrack::residency`], [`GpuTrack::stamp`] and
    /// [`GpuTrack::table`].
    table: Vec<Stamped>,
    /// Outstanding actions on this GPU, each INFER with its riders.
    pub outstanding: IdMap<ActionId, OutstandingAction<R>>,
    /// Whether the GPU (and its worker) is up. Dead GPUs receive no work.
    pub alive: bool,
}

impl<R> GpuTrack<R> {
    fn new(gpu_ref: GpuRef, total_pages: u64, page_size: u64) -> Self {
        GpuTrack {
            gpu_ref,
            total_pages,
            free_pages: total_pages,
            page_size,
            table: Vec::new(),
            outstanding: IdMap::default(),
            alive: true,
        }
    }

    /// Where `model`'s row is in the table, or where it would go.
    fn find(&self, model: ModelId) -> Result<usize, usize> {
        self.table.binary_search_by_key(&model, |entry| entry.model)
    }

    /// The model's claim on this GPU's weights cache, if it has one.
    pub fn residency(&self, model: ModelId) -> Option<Residency> {
        self.table[self.find(model).ok()?].residency
    }

    /// The model's LRU stamp here, if it has one — a model that no longer
    /// holds pages may (see [`Stamped`]).
    pub fn stamp(&self, model: ModelId) -> Option<Timestamp> {
        Some(self.table[self.find(model).ok()?].stamp)
    }

    /// The residency table: every stamped model, ascending by id.
    pub fn table(&self) -> &[Stamped] {
        &self.table
    }

    /// The models resident or loading here, ascending by id, with their
    /// claims.
    pub fn held(&self) -> impl Iterator<Item = (ModelId, Residency)> + '_ {
        let held = |entry: &Stamped| Some((entry.model, entry.residency?));
        self.table.iter().filter_map(held)
    }

    /// Whether a model is usable for INFER scheduling on this GPU (resident,
    /// or a LOAD is already on its way).
    pub fn has_or_loading(&self, model: ModelId) -> bool {
        self.residency(model).is_some()
    }

    /// Whether the model is confirmed resident.
    pub fn is_resident(&self, model: ModelId) -> bool {
        self.residency(model).is_some_and(|r| !r.loading)
    }

    /// Number of pages a weights blob of `bytes` needs on this GPU.
    pub fn pages_for(&self, bytes: u64) -> u64 {
        if self.page_size == 0 {
            return 0;
        }
        bytes.div_ceil(self.page_size).max(1)
    }

    /// The least-recently-used resident model that `protect` does not hold
    /// back: the minimum `(stamp, id)`. One walk of the table, in id order —
    /// a row without a residency is stepped over — and `protect` is asked
    /// only about a model that would otherwise become the minimum so far,
    /// which on a full cache is a handful of the residents.
    pub fn lru_candidate(&self, protect: impl Fn(ModelId) -> bool) -> Option<ModelId> {
        let mut best: Option<(Timestamp, ModelId)> = None;
        for entry in &self.table {
            let Some(held) = entry.residency else {
                continue;
            };
            let key = (entry.stamp, entry.model);
            if held.loading || best.is_some_and(|best| key >= best) || protect(entry.model) {
                continue;
            }
            best = Some(key);
        }
        best.map(|(_, model)| model)
    }

    /// Fraction of pages in use.
    pub fn occupancy(&self) -> f64 {
        if self.total_pages == 0 {
            return 1.0;
        }
        1.0 - self.free_pages as f64 / self.total_pages as f64
    }
}

/// How many entries per GPU a [`BusyList`] may hold before a note rebuilds
/// it from the column.
const BUSY_ENTRIES_PER_GPU: usize = 4;

/// The GPUs of one executor column that may be free only at or after a
/// watermark, as a min-heap of `(free_at, idx)` claims — what
/// [`WorkerStateTracker::next_beyond`] reads instead of scanning the fleet.
/// Derived from the `free_at` column and never the owner of anything:
/// *every live* GPU whose free time is at or past `watermark` has an entry
/// equal to its column value. A claim is pushed where a live GPU's free time
/// can rise or a GPU comes back to life (`send`, `recover_gpu`); an entry
/// that no longer is the column's value (a later claim superseded it, or
/// `fail_gpu` reset the column to the instant of the failure) or whose GPU
/// died stays in the heap, unread, until it surfaces at the top. A query at
/// or above the watermark raises it to its horizon and pops what surfaces
/// below it, stale or dead, so the top is the answer; a query below the
/// watermark rebuilds the heap from the column. It starts at
/// [`Timestamp::MAX`] over nothing, so a discipline that never asks pays one
/// comparison per send; a note that finds the heap holding more than
/// [`BUSY_ENTRIES_PER_GPU`] entries per GPU rebuilds it at the present
/// watermark.
#[derive(Clone, Debug)]
struct BusyList {
    watermark: Timestamp,
    heap: BinaryHeap<Reverse<(Timestamp, usize)>>,
}

impl Default for BusyList {
    fn default() -> Self {
        BusyList {
            watermark: Timestamp::MAX,
            heap: BinaryHeap::new(),
        }
    }
}

impl BusyList {
    /// GPU `idx`'s free time is now `column[idx]`: pushes the claim if it is
    /// at or past the watermark.
    fn note(&mut self, idx: usize, column: &[Timestamp], alive: impl Fn(usize) -> bool) {
        let free_at = column[idx];
        if free_at >= self.watermark {
            self.heap.push(Reverse((free_at, idx)));
            if self.heap.len() > BUSY_ENTRIES_PER_GPU * column.len() {
                self.rebuild(column, alive);
            }
        }
    }

    /// Re-enters exactly the live GPUs of `column` at or past the
    /// watermark, one current entry each.
    fn rebuild(&mut self, column: &[Timestamp], alive: impl Fn(usize) -> bool) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        let busy = (0..column.len()).filter(|&idx| column[idx] >= self.watermark && alive(idx));
        entries.extend(busy.map(|idx| Reverse((column[idx], idx))));
        self.heap = BinaryHeap::from(entries);
    }

    /// The earliest free time at or past `horizon` among the live GPUs of
    /// `column`: the watermark moves to `horizon` (a rebuild when it falls),
    /// then entries that are not current — below the horizon, superseded in
    /// the column, or of a dead GPU — are popped until the top is one.
    fn next_beyond(
        &mut self,
        column: &[Timestamp],
        alive: impl Fn(usize) -> bool,
        horizon: Timestamp,
    ) -> Option<Timestamp> {
        let fell = horizon < self.watermark;
        self.watermark = horizon;
        if fell {
            self.rebuild(column, &alive);
        }
        while let Some(&Reverse((free_at, idx))) = self.heap.peek() {
            if free_at >= horizon && column[idx] == free_at && alive(idx) {
                return Some(free_at);
            }
            self.heap.pop();
        }
        None
    }
}

/// One change to a model's holder list ([`WorkerStateTracker::gpus_with_model`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HolderMove {
    /// The model whose list changed.
    pub model: ModelId,
    /// The GPU, by registration index, that joined or left it.
    pub gpu: usize,
    /// Whether it joined (a LOAD was sent) rather than left.
    pub joined: bool,
}

/// Every holder change since epoch `from`, oldest first — what
/// [`WorkerStateTracker::holder_moves_since`] hands out. Derived and never the
/// owner of anything. It starts from no epoch, recording nothing, so a
/// discipline that never asks pays one comparison per holder change; a query
/// restarts it at the present epoch. A failed GPU unlists its whole table at
/// once, and that stops it again: a gap, after which the reader rebuilds.
#[derive(Clone, Debug, Default)]
struct HolderMoves {
    from: Option<u64>,
    moves: Vec<HolderMove>,
}

/// The controller's view of every GPU in the cluster: the only owner of
/// per-GPU state and the ledger of in-flight actions (see the module docs).
/// `R` is what a discipline lets ride on an INFER.
#[derive(Clone, Debug)]
pub struct WorkerStateTracker<R> {
    gpus: Vec<GpuTrack<R>>,
    index: IdMap<GpuRef, usize>,
    /// Estimated time each GPU's executors are next free, as dense columns
    /// (`[Executor::Infer, Executor::Load]`, each by registration index) so
    /// the per-GPU readiness queries are an index and the fleet-wide ones a
    /// linear scan over `u64`s. Changes only in `send`, `fail_gpu` and
    /// `recover_gpu`.
    free_at: [Vec<Timestamp>; 2],
    /// Per executor, the claims of the GPUs that may be busy past a
    /// watermark: what [`Self::next_beyond`] reads instead of the column —
    /// and pops, from behind `&self`, hence the cell.
    busy: [RefCell<BusyList>; 2],
    /// GPUs (by registration index, ascending) on which each model is
    /// resident or loading: the inverse of [`GpuTrack::held`], dense by
    /// model id (the LOAD-priority pass looks it up per demanded model).
    holders: ModelTable<Vec<usize>>,
    /// Bumped whenever any model's holder list changes — in `send_load`'s
    /// insert and in `unlist_holder`, the only two places one does, both
    /// through `moved_holder`.
    holders_epoch: u64,
    /// The changes since the last reader asked, once one has.
    holder_moves: HolderMoves,
    /// LOAD actions outstanding across the fleet.
    outstanding_loads: usize,
    /// INFER actions outstanding across the fleet, and per model. Exact
    /// arithmetic: a count that drifts from the ledger underflows, which a
    /// debug build turns into a panic.
    outstanding_infers: usize,
    infers_by_model: ModelTable<usize>,
    /// The GPUs currently alive, in registration order; changes only in
    /// `add_gpu`, `fail_gpu` and `recover_gpu`.
    live: Vec<GpuRef>,
    /// Workers currently crashed. While a worker is down, a lone GPU
    /// recovery cannot make its GPUs reachable — only the worker restart
    /// re-admits them (the worker would silently drop actions sent earlier,
    /// leaking their requests).
    down_workers: IdSet<WorkerId>,
}

impl<R> Default for WorkerStateTracker<R> {
    fn default() -> Self {
        WorkerStateTracker {
            gpus: Vec::new(),
            index: IdMap::default(),
            free_at: Default::default(),
            busy: Default::default(),
            holders: ModelTable::default(),
            holders_epoch: 0,
            holder_moves: HolderMoves::default(),
            outstanding_loads: 0,
            outstanding_infers: 0,
            infers_by_model: ModelTable::default(),
            live: Vec::new(),
            down_workers: IdSet::default(),
        }
    }
}

impl<R> WorkerStateTracker<R> {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a GPU, alive, empty and free at time zero.
    pub fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        self.index.insert(gpu_ref, self.gpus.len());
        self.gpus
            .push(GpuTrack::new(gpu_ref, total_pages, page_size));
        self.live.push(gpu_ref);
        let gpus = &self.gpus;
        for (column, busy) in self.free_at.iter_mut().zip(&mut self.busy) {
            column.push(Timestamp::ZERO);
            busy.get_mut()
                .note(column.len() - 1, column, |idx| gpus[idx].alive);
        }
    }

    /// All tracked GPUs, in registration order.
    pub fn gpus(&self) -> &[GpuTrack<R>] {
        &self.gpus
    }

    /// Number of GPUs.
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// Whether no GPUs are registered.
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// Looks a GPU up by reference.
    pub fn get(&self, gpu_ref: GpuRef) -> Option<&GpuTrack<R>> {
        self.index.get(&gpu_ref).map(|&i| &self.gpus[i])
    }

    /// The dense registration index of a GPU (its position in
    /// [`WorkerStateTracker::gpus`]).
    pub fn gpu_index(&self, gpu_ref: GpuRef) -> Option<usize> {
        self.index.get(&gpu_ref).copied()
    }

    /// The registration index of a GPU an action is being sent to. Every GPU
    /// a discipline names comes from this tracker, so an unknown one is a
    /// routing bug — and noting nothing while the action goes out anyway
    /// would leave the mirror silently wrong.
    fn sent_to(&self, gpu_ref: GpuRef) -> usize {
        self.gpu_index(gpu_ref)
            .unwrap_or_else(|| panic!("action sent to unknown GPU {gpu_ref}"))
    }

    /// Registration indices of the GPUs on which a model is resident or
    /// loading, ascending. Empty means the model is cold everywhere.
    pub fn gpus_with_model(&self, model: ModelId) -> &[usize] {
        self.holders.get(model).map_or(&[], Vec::as_slice)
    }

    /// How many times any model's holder list ([`Self::gpus_with_model`]) has
    /// changed. Never repeats, so something summed over the holder lists —
    /// the scheduler's per-GPU ledger of waiting work — is current exactly
    /// while the epoch it was built at still equals this (and the GPU count
    /// has not moved).
    pub fn holders_epoch(&self) -> u64 {
        self.holders_epoch
    }

    /// Moves into `out`, oldest first, every holder-list change since
    /// `epoch` — a past [`Self::holders_epoch`] — and records afresh from the
    /// present one. `false`, with `out` empty, when the record does not reach
    /// back to `epoch`: it starts only once asked, and a failed GPU unlisting
    /// its whole table stops it.
    pub fn holder_moves_since(&mut self, epoch: u64, out: &mut Vec<HolderMove>) -> bool {
        let record = &mut self.holder_moves;
        out.clear();
        let complete = record.from == Some(epoch);
        if complete {
            debug_assert_eq!(record.moves.len() as u64, self.holders_epoch - epoch);
            std::mem::swap(out, &mut record.moves);
        }
        record.moves.clear();
        record.from = Some(self.holders_epoch);
        complete
    }

    /// How many holder changes are on record: none unless someone asks.
    #[cfg(test)]
    pub(crate) fn recorded_holder_moves(&self) -> usize {
        self.holder_moves.moves.len()
    }

    /// The GPUs currently alive, in registration order.
    pub fn live_gpus(&self) -> &[GpuRef] {
        &self.live
    }

    /// Number of LOAD actions outstanding across the fleet.
    pub fn outstanding_loads(&self) -> usize {
        self.outstanding_loads
    }

    /// Number of INFER actions outstanding across the fleet.
    pub fn outstanding_infers(&self) -> usize {
        self.outstanding_infers
    }

    /// Number of INFER actions outstanding for one model, fleet-wide.
    pub fn outstanding_infers_of(&self, model: ModelId) -> usize {
        self.infers_by_model.get(model).copied().unwrap_or(0)
    }

    /// The time an action could start on GPU `idx`'s executor if sent now,
    /// given outstanding work.
    pub fn next_slot(&self, executor: Executor, idx: usize, now: Timestamp) -> Timestamp {
        self.free_at[executor as usize][idx].max(now)
    }

    /// Whether GPU `idx` can accept work on `executor` in a pass looking as
    /// far as `horizon`: it is alive and the executor frees up strictly
    /// before then. The per-GPU form of [`Self::actionable_into`], for a pass
    /// that already knows which GPUs it cares about.
    pub fn actionable(&self, executor: Executor, idx: usize, horizon: Timestamp) -> bool {
        self.free_at[executor as usize][idx] < horizon && self.gpus[idx].alive
    }

    /// Collects the registration indices of every [actionable](Self::actionable)
    /// GPU into `out`, ascending — so a pass visits exactly the GPUs that
    /// can accept work, in the order a full scan would.
    pub fn actionable_into(&self, executor: Executor, horizon: Timestamp, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.gpus.len()).filter(|&i| self.actionable(executor, i, horizon)));
    }

    /// The earliest executor free time at or after `horizon` among live
    /// GPUs: the next instant at which pure time passage makes a currently
    /// non-actionable GPU actionable. Read off the top of the executor's
    /// heap of claims (see `BusyList`), so the cost is the claims that
    /// lapsed or were superseded since the last query, not the fleet — a
    /// scheduler asks at `now` plus its lookahead, which only rises. Any
    /// horizon gets the answer of the filter-and-minimum over the whole
    /// column (asserted in debug builds); one below the last rebuilds the
    /// heap first.
    pub fn next_beyond(&self, executor: Executor, horizon: Timestamp) -> Option<Timestamp> {
        let free_at = &self.free_at[executor as usize];
        let alive = |idx: usize| self.gpus[idx].alive;
        let next = self.busy[executor as usize]
            .borrow_mut()
            .next_beyond(free_at, alive, horizon);
        #[cfg(debug_assertions)]
        assert_eq!(next, self.reference_next_beyond(executor, horizon));
        next
    }

    /// [`Self::next_beyond`] the slow way, the oracle it is checked against:
    /// filter the whole column, take the minimum.
    #[cfg(any(test, debug_assertions))]
    fn reference_next_beyond(&self, executor: Executor, horizon: Timestamp) -> Option<Timestamp> {
        let free_at = &self.free_at[executor as usize];
        (0..free_at.len())
            .filter(|&i| free_at[i] >= horizon && self.gpus[i].alive)
            .map(|i| free_at[i])
            .min()
    }

    /// The live GPU outside `exclude` whose INFER executor frees up soonest.
    pub fn least_loaded_gpu(&self, now: Timestamp, exclude: &[GpuRef]) -> Option<GpuRef> {
        self.gpus
            .iter()
            .enumerate()
            .filter(|(_, g)| g.alive && !exclude.contains(&g.gpu_ref))
            .min_by_key(|&(i, g)| (self.next_slot(Executor::Infer, i, now), g.gpu_ref))
            .map(|(_, g)| g.gpu_ref)
    }

    /// Sends an INFER with its riders: claims the INFER executor from
    /// `at.start` for `at.duration`, touches LRU and counts it. Panics on a
    /// GPU the tracker does not know, as does every other `send_*`.
    pub fn send_infer(
        &mut self,
        ctx: &mut SchedulerCtx,
        at: Placement,
        model: ModelId,
        batch: u32,
        request_ids: Vec<u64>,
        riders: R,
    ) -> ActionId {
        let kind = ActionKind::Infer {
            model,
            batch,
            request_ids,
        };
        let (idx, id) = self.send(ctx, at, kind, Some(riders));
        self.outstanding_infers += 1;
        *self.infers_by_model.get_or_default(model) += 1;
        let track = &mut self.gpus[idx];
        match track.find(model) {
            Ok(row) => track.table[row].stamp = at.start,
            Err(row) => track.table.insert(
                row,
                Stamped {
                    model,
                    stamp: at.start,
                    residency: None,
                },
            ),
        }
        id
    }

    /// Sends a LOAD: reserves the pages `weights_bytes` needs, claims the
    /// LOAD executor, and lists the GPU among the model's holders. The
    /// reservation is what is free, if that is less (a discipline may load
    /// with nothing left to evict), and a LOAD of a model the GPU already
    /// holds gives the old reservation back first — so the pages free plus
    /// the pages reserved always add up to the GPU's total.
    pub fn send_load(
        &mut self,
        ctx: &mut SchedulerCtx,
        at: Placement,
        model: ModelId,
        weights_bytes: u64,
    ) -> ActionId {
        let (idx, id) = self.send(ctx, at, ActionKind::Load { model }, None);
        self.outstanding_loads += 1;
        let track = &mut self.gpus[idx];
        let row = match track.find(model) {
            Ok(row) => row,
            Err(row) => {
                // Stamped only if not stamped yet, and neither a failed
                // LOAD nor its result clears the stamp: a re-LOAD after a
                // failure keeps the older LRU position. The frozen digests
                // depend on it; do not "fix" it in passing.
                let entry = Stamped {
                    model,
                    stamp: at.start,
                    residency: None,
                };
                track.table.insert(row, entry);
                row
            }
        };
        if let Some(replaced) = track.table[row].residency {
            track.free_pages += replaced.pages;
        }
        let pages = track.pages_for(weights_bytes).min(track.free_pages);
        track.free_pages -= pages;
        track.table[row].residency = Some(Residency {
            pages,
            loading: true,
        });
        let holders = self.holders.get_or_default(model);
        if let Err(pos) = holders.binary_search(&idx) {
            holders.insert(pos, idx);
            self.moved_holder(model, idx, true);
        }
        id
    }

    /// The one place a tracked action leaves the controller: mints it,
    /// queues it for its worker, claims its executor until the expected
    /// completion and enters it in the ledger (riders ⇔ INFER).
    fn send(
        &mut self,
        ctx: &mut SchedulerCtx,
        at: Placement,
        kind: ActionKind,
        riders: Option<R>,
    ) -> (usize, ActionId) {
        let idx = self.sent_to(at.gpu);
        let executor = match riders {
            Some(_) => Executor::Infer,
            None => Executor::Load,
        };
        let model = kind.model();
        let id = ctx.send_action(at.gpu, kind, at.window, at.duration);
        let expected_completion = at.start + at.duration;
        let column = &mut self.free_at[executor as usize];
        column[idx] = column[idx].max(expected_completion);
        let gpus = &self.gpus;
        self.busy[executor as usize]
            .get_mut()
            .note(idx, column, |i| gpus[i].alive);
        self.gpus[idx].outstanding.insert(
            id,
            OutstandingAction {
                id,
                model,
                expected_completion,
                riders,
            },
        );
        (idx, id)
    }

    /// Sends an UNLOAD and frees the pages immediately: it always succeeds
    /// and is metadata-only on the worker, so it may run at any time, is
    /// expected to take microseconds and is not tracked. Unloading
    /// something the GPU does not hold is harmless.
    pub fn send_unload(&mut self, ctx: &mut SchedulerCtx, gpu_ref: GpuRef, model: ModelId) {
        let idx = self.sent_to(gpu_ref);
        let (unload, anytime) = (ActionKind::Unload { model }, TimeWindow::always());
        ctx.send_action(gpu_ref, unload, anytime, Nanos::from_micros(5));
        let track = &mut self.gpus[idx];
        if let Ok(row) = track.find(model) {
            let dropped = track.table.remove(row).residency;
            self.give_back(idx, model, dropped);
        }
    }

    /// Returns a dropped residency's pages to the pool — exactly what its
    /// LOAD took — and takes the GPU off the model's holder list.
    fn give_back(&mut self, idx: usize, model: ModelId, dropped: Option<Residency>) {
        if let Some(held) = dropped {
            let track = &mut self.gpus[idx];
            track.free_pages += held.pages;
            debug_assert!(track.free_pages <= track.total_pages, "pages minted");
            self.unlist_holder(idx, model);
        }
    }

    /// Takes GPU `idx` off `model`'s holder list: with `send_load`'s insert,
    /// one of the two places a holder list changes.
    fn unlist_holder(&mut self, idx: usize, model: ModelId) {
        let holders = self.holders.get_mut(model);
        holders
            .expect("a held model is listed")
            .retain(|&i| i != idx);
        self.moved_holder(model, idx, false);
    }

    /// Counts a holder-list change and, while someone is reading the record
    /// of them, records it.
    fn moved_holder(&mut self, model: ModelId, gpu: usize, joined: bool) {
        self.holders_epoch += 1;
        if self.holder_moves.from.is_some() {
            let moved = HolderMove { model, gpu, joined };
            self.holder_moves.moves.push(moved);
        }
    }

    /// Takes an action that left the ledger out of the counts.
    fn uncount(&mut self, action: &OutstandingAction<R>) {
        if action.is_load() {
            self.outstanding_loads -= 1;
        } else {
            self.outstanding_infers -= 1;
            *self
                .infers_by_model
                .get_mut(action.model)
                .expect("counted when sent") -= 1;
        }
    }

    /// Records an action result, told apart by what the ledger knows about
    /// its id rather than by what the result says it is. An INFER (success
    /// or failure) gives up its executor claim and its riders; a successful
    /// LOAD confirms residency and a failed one returns the reservation (the
    /// worker did not allocate pages); anything else is [`Resolved::Stale`].
    pub fn resolve(&mut self, result: &ActionResult) -> Resolved<R> {
        let Some(idx) = self.gpu_index(GpuRef::of(result)) else {
            return Resolved::Stale;
        };
        let Some(action) = self.gpus[idx].outstanding.remove(&result.action_id) else {
            return Resolved::Stale;
        };
        self.uncount(&action);
        match action.riders {
            Some(riders) => Resolved::Infer(riders),
            None => {
                let track = &mut self.gpus[idx];
                if let Ok(row) = track.find(action.model) {
                    let residency = &mut track.table[row].residency;
                    if !result.is_success() {
                        let dropped = residency.take();
                        self.give_back(idx, action.model, dropped);
                    } else if let Some(held) = residency {
                        held.loading = false;
                    }
                }
                Resolved::Load
            }
        }
    }

    /// Makes room for a weights blob of `weights_bytes` on a GPU: sends an
    /// UNLOAD for the least-recently-used resident model that
    /// `protect(track, model)` does not hold back, again and again, until
    /// the blob fits. Returns whether it fits — `false` means victims ran
    /// out first, and whatever was evicted stays evicted.
    pub fn evict_until_fits(
        &mut self,
        ctx: &mut SchedulerCtx,
        gpu_ref: GpuRef,
        weights_bytes: u64,
        protect: impl Fn(&GpuTrack<R>, ModelId) -> bool,
    ) -> bool {
        let idx = self.sent_to(gpu_ref);
        let pages = self.gpus[idx].pages_for(weights_bytes);
        loop {
            let track = &self.gpus[idx];
            if pages <= track.free_pages {
                return true;
            }
            let Some(victim) = track.lru_candidate(|m| protect(track, m)) else {
                return false;
            };
            self.send_unload(ctx, gpu_ref, victim);
        }
    }

    /// Applies a fleet fault — the one fault transition every discipline
    /// shares.
    ///
    /// Failures mark the affected GPU(s) dead, wipe their residency, page
    /// reservations and outstanding actions, and return those actions — which
    /// will never produce a result — each with its riders and its GPU's
    /// registration index, in ascending action-id order; the caller resolves
    /// them (requeue or reject) in whatever deterministic order its digest
    /// was frozen with. Recoveries re-admit dead GPUs cold (nothing
    /// resident); a recovery naming a GPU that is already alive — e.g. a
    /// `GpuRecover` whose failure window a worker restart already
    /// superseded — is a no-op, and one naming a GPU of a crashed worker is
    /// ignored: the machine is gone, only its restart brings the GPUs back.
    /// Link faults are a transport matter, and a join's GPUs were already
    /// registered through `add_gpu`; neither touches anything here.
    pub fn apply_fault(
        &mut self,
        now: Timestamp,
        fault: &FaultKind,
    ) -> Vec<(usize, OutstandingAction<R>)> {
        let worker = WorkerId(fault.worker());
        let on_worker = |g: &GpuTrack<R>| g.gpu_ref.worker == worker;
        let mut lost = Vec::new();
        match *fault {
            FaultKind::WorkerCrash { .. } => {
                self.down_workers.insert(worker);
                for idx in 0..self.gpus.len() {
                    if on_worker(&self.gpus[idx]) {
                        self.fail_gpu(idx, now, &mut lost);
                    }
                }
            }
            FaultKind::WorkerRestart { .. } => {
                self.down_workers.remove(&worker);
                for idx in 0..self.gpus.len() {
                    if on_worker(&self.gpus[idx]) {
                        self.recover_gpu(idx, now);
                    }
                }
            }
            FaultKind::GpuFail { gpu, .. } => {
                let gpu = GpuId(gpu);
                if let Some(idx) = self.gpu_index(GpuRef { worker, gpu }) {
                    self.fail_gpu(idx, now, &mut lost);
                }
            }
            FaultKind::GpuRecover { gpu, .. } => {
                let gpu = GpuId(gpu);
                if !self.down_workers.contains(&worker) {
                    if let Some(idx) = self.gpu_index(GpuRef { worker, gpu }) {
                        self.recover_gpu(idx, now);
                    }
                }
            }
            FaultKind::LinkDegrade { .. }
            | FaultKind::LinkRestore { .. }
            | FaultKind::PartitionStart { .. }
            | FaultKind::PartitionEnd { .. }
            | FaultKind::WorkerJoin { .. } => {}
        }
        lost.sort_unstable_by_key(|(_, action)| action.id);
        lost
    }

    /// The GPU died: its memory comes back empty, its outstanding actions
    /// move to `lost`, and it is unschedulable until it recovers. Its whole
    /// table leaves the holder lists at once, unrecorded: a reader of the
    /// record rebuilds.
    fn fail_gpu(
        &mut self,
        idx: usize,
        now: Timestamp,
        lost: &mut Vec<(usize, OutstandingAction<R>)>,
    ) {
        self.holder_moves = HolderMoves::default();
        let table = std::mem::take(&mut self.gpus[idx].table);
        for entry in table.iter().filter(|entry| entry.residency.is_some()) {
            self.unlist_holder(idx, entry.model);
        }
        for (_, action) in std::mem::take(&mut self.gpus[idx].outstanding) {
            self.uncount(&action);
            lost.push((idx, action));
        }
        let track = &mut self.gpus[idx];
        track.free_pages = track.total_pages;
        if track.alive {
            track.alive = false;
            self.live.retain(|&g| g != track.gpu_ref);
        }
        for column in &mut self.free_at {
            column[idx] = now;
        }
    }

    fn recover_gpu(&mut self, idx: usize, now: Timestamp) {
        if !self.gpus[idx].alive {
            self.gpus[idx].alive = true;
            let pos = self.live.partition_point(|g| self.index[g] < idx);
            self.live.insert(pos, self.gpus[idx].gpu_ref);
            let gpus = &self.gpus;
            for (column, busy) in self.free_at.iter_mut().zip(&mut self.busy) {
                column[idx] = column[idx].max(now);
                busy.get_mut().note(idx, column, |i| gpus[i].alive);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_worker::{ActionError, ActionOutcome, ActionTiming};

    const PAGE: u64 = 16 * 1024 * 1024;

    fn gref(w: u32, g: u32) -> GpuRef {
        GpuRef {
            worker: WorkerId(w),
            gpu: GpuId(g),
        }
    }

    fn ms(t: u64) -> Timestamp {
        Timestamp::from_millis(t)
    }

    /// Riders are plain tags here: what comes back must be what went in.
    type Tracker = WorkerStateTracker<u64>;

    /// A tracker with one GPU `gref(0, 0)` of `pages` pages.
    fn one_gpu(pages: u64) -> Tracker {
        let mut t = Tracker::new();
        t.add_gpu(gref(0, 0), pages, PAGE);
        t
    }

    /// Sends a LOAD of `pages` pages for `model` at time zero (8 ms long).
    fn load(
        t: &mut Tracker,
        ctx: &mut SchedulerCtx,
        gpu: GpuRef,
        model: u32,
        pages: u64,
    ) -> ActionId {
        let at = Placement::unbounded(gpu, Timestamp::ZERO, Nanos::from_millis(8));
        t.send_load(ctx, at, ModelId(model), pages * PAGE)
    }

    /// Sends a 3 ms INFER for `model` starting at `start_ms`, ridden by the
    /// tag `100 + model`.
    fn infer(
        t: &mut Tracker,
        ctx: &mut SchedulerCtx,
        gpu: GpuRef,
        model: u32,
        start_ms: u64,
    ) -> ActionId {
        infer_for(t, ctx, gpu, model, start_ms, 3)
    }

    fn infer_for(
        t: &mut Tracker,
        ctx: &mut SchedulerCtx,
        gpu: GpuRef,
        model: u32,
        start_ms: u64,
        dur_ms: u64,
    ) -> ActionId {
        let at = Placement::unbounded(gpu, ms(start_ms), Nanos::from_millis(dur_ms));
        t.send_infer(ctx, at, ModelId(model), 1, vec![7], 100 + u64::from(model))
    }

    /// A worker's report on action `id`. Model and type are deliberately
    /// wrong: `resolve` goes by what the ledger knows about the id.
    fn result(gpu: GpuRef, id: ActionId, success: bool) -> ActionResult {
        let outcome = if success {
            ActionOutcome::Success(ActionTiming {
                received: Timestamp::ZERO,
                start: Timestamp::ZERO,
                end: ms(8),
                device_duration: Nanos::from_millis(8),
            })
        } else {
            ActionOutcome::Error {
                error: ActionError::WindowElapsed,
                at: ms(8),
            }
        };
        ActionResult {
            action_id: id,
            worker: gpu.worker,
            gpu: gpu.gpu,
            model: ModelId(999),
            action_type: "UNLOAD",
            batch: 1,
            request_ids: vec![],
            expected_duration: Nanos::ZERO,
            outcome,
        }
    }

    /// Sends a LOAD at time zero and confirms it.
    fn warm(t: &mut Tracker, ctx: &mut SchedulerCtx, gpu: GpuRef, model: u32, pages: u64) {
        let id = load(t, ctx, gpu, model, pages);
        assert_eq!(t.resolve(&result(gpu, id, true)), Resolved::Load);
    }

    fn actionable(t: &Tracker, executor: Executor, horizon_ms: u64) -> Vec<usize> {
        let mut out = vec![99];
        t.actionable_into(executor, ms(horizon_ms), &mut out);
        out
    }

    #[test]
    fn add_and_lookup_gpus() {
        let mut t = Tracker::new();
        assert!(t.is_empty());
        t.add_gpu(gref(0, 0), 100, 16);
        t.add_gpu(gref(0, 1), 100, 16);
        t.add_gpu(gref(1, 0), 50, 16);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(gref(1, 0)).unwrap().total_pages, 50);
        assert_eq!(t.gpu_index(gref(1, 0)), Some(2));
        assert!(t.get(gref(9, 9)).is_none());
        assert_eq!(format!("{}", gref(1, 0)), "w1/g0");
    }

    #[test]
    fn load_reserves_pages_and_result_confirms_residency() {
        let mut t = one_gpu(10);
        let mut ctx = SchedulerCtx::new();
        let model = ModelId(7);
        assert_eq!(t.gpus()[0].pages_for(100 * 1024 * 1024), 7);
        let at = Placement::unbounded(gref(0, 0), ms(10), Nanos::from_millis(8));
        let id = t.send_load(&mut ctx, at, model, 100 * 1024 * 1024);
        // The send is the action: minted, addressed and queued in one call.
        let sent = ctx.take_actions();
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].0, sent[0].1.gpu), (WorkerId(0), GpuId(0)));
        assert_eq!(
            (sent[0].1.id, &sent[0].1.kind),
            (id, &ActionKind::Load { model })
        );
        assert_eq!(sent[0].1.expected_duration, Nanos::from_millis(8));
        let g = &t.gpus()[0];
        assert_eq!(g.free_pages, 3);
        assert!(g.has_or_loading(model));
        assert!(!g.is_resident(model));
        assert!(g.outstanding[&id].is_load());
        assert_eq!(g.outstanding[&id].expected_completion, ms(18));
        assert_eq!(t.next_slot(Executor::Load, 0, Timestamp::ZERO), ms(18));
        assert_eq!(t.gpus_with_model(model), [0]);
        assert_eq!(t.outstanding_loads(), 1);
        assert_eq!(t.resolve(&result(gref(0, 0), id, true)), Resolved::Load);
        let g = &t.gpus()[0];
        assert!(g.is_resident(model));
        assert_eq!(g.free_pages, 3, "pages stay allocated after success");
        assert!(g.outstanding.is_empty());
        assert_eq!(t.outstanding_loads(), 0);
        // A replay of the same result finds nothing to resolve.
        assert_eq!(t.resolve(&result(gref(0, 0), id, false)), Resolved::Stale);
        assert!(t.gpus()[0].is_resident(model));
    }

    #[test]
    fn failed_load_returns_pages_but_keeps_the_lru_stamp() {
        let mut t = one_gpu(10);
        let mut ctx = SchedulerCtx::new();
        let id = load(&mut t, &mut ctx, gref(0, 0), 7, 4);
        assert_eq!(t.gpus()[0].free_pages, 6);
        assert_eq!(t.resolve(&result(gref(0, 0), id, false)), Resolved::Load);
        assert_eq!(t.gpus()[0].free_pages, 10);
        assert!(!t.gpus()[0].has_or_loading(ModelId(7)));
        assert!(t.gpus_with_model(ModelId(7)).is_empty());
        // Pinned quirk: the LRU stamp outlives the failed LOAD, and the
        // re-LOAD's `or_insert` keeps it instead of stamping the new start.
        let at = Placement::unbounded(gref(0, 0), ms(50), Nanos::from_millis(8));
        t.send_load(&mut ctx, at, ModelId(7), 4 * PAGE);
        assert_eq!(t.gpus()[0].stamp(ModelId(7)), Some(Timestamp::ZERO));
    }

    #[test]
    fn unload_frees_pages_immediately() {
        let mut t = one_gpu(10);
        let mut ctx = SchedulerCtx::new();
        warm(&mut t, &mut ctx, gref(0, 0), 7, 4);
        let _ = ctx.take_actions();
        t.send_unload(&mut ctx, gref(0, 0), ModelId(7));
        assert_eq!(t.gpus()[0].free_pages, 10);
        assert!(!t.gpus()[0].is_resident(ModelId(7)));
        assert!(t.gpus_with_model(ModelId(7)).is_empty());
        // Unloading something unknown is harmless.
        t.send_unload(&mut ctx, gref(0, 0), ModelId(99));
        assert_eq!(t.gpus()[0].free_pages, 10);
        let kinds: Vec<ActionKind> = ctx
            .take_actions()
            .into_iter()
            .map(|(_, a)| a.kind)
            .collect();
        let unload = |m| ActionKind::Unload { model: ModelId(m) };
        assert_eq!(kinds, vec![unload(7), unload(99)]);
        assert!(
            t.gpus()[0].outstanding.is_empty(),
            "UNLOADs are not tracked"
        );
    }

    #[test]
    fn infer_occupies_executor_and_touches_lru() {
        let mut t = one_gpu(10);
        let mut ctx = SchedulerCtx::new();
        let id = infer(&mut t, &mut ctx, gref(0, 0), 3, 10);
        assert_eq!(t.next_slot(Executor::Infer, 0, ms(5)), ms(13));
        assert_eq!(t.next_slot(Executor::Infer, 0, ms(20)), ms(20));
        assert_eq!(t.gpus()[0].stamp(ModelId(3)), Some(ms(10)));
        assert_eq!(t.gpus()[0].outstanding[&id].expected_completion, ms(13));
        assert_eq!(t.gpus()[0].outstanding[&id].riders, Some(103));
        assert_eq!(
            (t.outstanding_infers(), t.outstanding_infers_of(ModelId(3))),
            (1, 1)
        );
        assert_eq!(t.outstanding_infers_of(ModelId(4)), 0);
        let (_, sent) = ctx.take_actions().remove(0);
        let kind = ActionKind::Infer {
            model: ModelId(3),
            batch: 1,
            request_ids: vec![7],
        };
        assert_eq!((sent.id, sent.kind), (id, kind));
        // Success or failure, the result hands the riders back — once.
        assert_eq!(
            t.resolve(&result(gref(0, 0), id, false)),
            Resolved::Infer(103)
        );
        assert!(t.gpus()[0].outstanding.is_empty());
        assert_eq!(
            (t.outstanding_infers(), t.outstanding_infers_of(ModelId(3))),
            (0, 0)
        );
        assert_eq!(t.resolve(&result(gref(0, 0), id, false)), Resolved::Stale);
        // A result naming a GPU the tracker never heard of is stale too.
        assert_eq!(t.resolve(&result(gref(9, 9), id, true)), Resolved::Stale);
    }

    #[test]
    #[should_panic(expected = "action sent to unknown GPU w9/g9")]
    fn sending_to_an_unknown_gpu_panics() {
        infer(&mut one_gpu(10), &mut SchedulerCtx::new(), gref(9, 9), 1, 0);
    }

    /// Models 1, 2, 3 resident on `gref(0, 0)` with `pages` pages each, last
    /// used at 30, 10 and 20 ms.
    fn three_residents(pages: u64, total: u64) -> (Tracker, SchedulerCtx) {
        let (mut t, mut ctx) = (one_gpu(total), SchedulerCtx::new());
        for (model, used_ms) in [(1u32, 30u64), (2, 10), (3, 20)] {
            warm(&mut t, &mut ctx, gref(0, 0), model, pages);
            infer(&mut t, &mut ctx, gref(0, 0), model, used_ms);
        }
        let _ = ctx.take_actions();
        (t, ctx)
    }

    #[test]
    fn lru_candidate_respects_protection_and_order() {
        let (mut t, mut ctx) = three_residents(2, 20);
        // A model that is still loading is never a candidate.
        load(&mut t, &mut ctx, gref(0, 0), 4, 2);
        let g = &t.gpus()[0];
        assert_eq!(g.lru_candidate(|_| false), Some(ModelId(2)));
        assert_eq!(g.lru_candidate(|m| m == ModelId(2)), Some(ModelId(3)));
        assert_eq!(g.lru_candidate(|m| m.0 <= 3), None);
    }

    #[test]
    fn evict_until_fits_unloads_lru_victims_until_the_blob_fits() {
        let (mut t, mut ctx) = three_residents(3, 10);
        assert_eq!(t.gpus()[0].free_pages, 1);
        // The predicate sees the track: model 3 is protected by name, and
        // what has an action outstanding here would be — nothing does.
        let outstanding = std::cell::Cell::new(usize::MAX);
        let protect = |track: &GpuTrack<u64>, m: ModelId| {
            outstanding.set(track.outstanding.len());
            m == ModelId(3)
        };
        // 5 pages: evicting model 2 (LRU) gives 4, then model 1 gives 7.
        assert!(t.evict_until_fits(&mut ctx, gref(0, 0), 5 * PAGE, protect));
        assert_eq!(outstanding.get(), 3);
        let victims: Vec<ActionKind> = ctx
            .take_actions()
            .into_iter()
            .map(|(_, a)| a.kind)
            .collect();
        let unload = |m| ActionKind::Unload { model: ModelId(m) };
        assert_eq!(victims, vec![unload(2), unload(1)]);
        assert_eq!(t.gpus()[0].free_pages, 7);
        assert!(
            t.gpus_with_model(ModelId(1)).is_empty() && t.gpus_with_model(ModelId(2)).is_empty()
        );
        // 9 pages cannot fit while model 3 is protected: nothing to evict.
        assert!(!t.evict_until_fits(&mut ctx, gref(0, 0), 9 * PAGE, protect));
        assert!(ctx.take_actions().is_empty());
        assert!(t.gpus()[0].is_resident(ModelId(3)));
    }

    #[test]
    fn fault_wipes_state_and_recovery_restores_cold() {
        let mut t = one_gpu(10);
        let mut ctx = SchedulerCtx::new();
        warm(&mut t, &mut ctx, gref(0, 0), 7, 4);
        let lost_infer = infer(&mut t, &mut ctx, gref(0, 0), 7, 10);
        let lost_load = load(&mut t, &mut ctx, gref(0, 0), 8, 2);
        assert!(t.gpus()[0].alive);
        assert_eq!(t.live_gpus(), [gref(0, 0)]);
        let fail = FaultKind::GpuFail { worker: 0, gpu: 0 };
        let lost = t.apply_fault(ms(20), &fail);
        // Each lost action comes back with its riders (a LOAD has none).
        assert_eq!(
            lost.iter()
                .map(|(i, a)| (*i, a.id, a.riders))
                .collect::<Vec<_>>(),
            vec![(0, lost_infer, Some(107)), (0, lost_load, None)]
        );
        let g = &t.gpus()[0];
        assert!(!g.alive);
        assert_eq!(g.free_pages, 10);
        assert!(g.table().is_empty(), "residencies and stamps alike");
        assert!(g.outstanding.is_empty());
        assert!(
            t.gpus_with_model(ModelId(7)).is_empty() && t.gpus_with_model(ModelId(8)).is_empty()
        );
        assert_eq!((t.outstanding_loads(), t.outstanding_infers()), (0, 0));
        assert_eq!(t.outstanding_infers_of(ModelId(7)), 0);
        assert!(t.live_gpus().is_empty());
        assert_eq!(t.next_slot(Executor::Infer, 0, Timestamp::ZERO), ms(20));
        // Stale results (produced pre-crash) must not resurrect residency
        // on the wiped GPU or hand the riders out a second time, and must
        // report that they were ignored.
        assert_eq!(
            t.resolve(&result(gref(0, 0), lost_load, true)),
            Resolved::Stale
        );
        assert_eq!(
            t.resolve(&result(gref(0, 0), lost_infer, true)),
            Resolved::Stale
        );
        assert!(!t.gpus()[0].has_or_loading(ModelId(8)));
        let recover = FaultKind::GpuRecover { worker: 0, gpu: 0 };
        t.apply_fault(ms(50), &recover);
        assert!(t.gpus()[0].alive);
        assert_eq!(t.live_gpus(), [gref(0, 0)]);
        assert!(t.gpus()[0].table().is_empty(), "recovery is cold");
        assert_eq!(t.next_slot(Executor::Infer, 0, Timestamp::ZERO), ms(50));
        assert_eq!(t.next_slot(Executor::Load, 0, Timestamp::ZERO), ms(50));
    }

    #[test]
    fn spurious_recovery_of_a_live_gpu_is_a_no_op() {
        // Pinned: a recovery whose failure window was already superseded
        // (the GPU is alive) must not push the GPU's free times forward.
        let mut t = one_gpu(10);
        infer(&mut t, &mut SchedulerCtx::new(), gref(0, 0), 7, 0);
        let before = t.clone();
        for fault in [
            FaultKind::GpuRecover { worker: 0, gpu: 0 },
            FaultKind::WorkerRestart { worker: 0 },
        ] {
            assert!(t.apply_fault(ms(500), &fault).is_empty());
            for executor in [Executor::Infer, Executor::Load] {
                assert_eq!(
                    t.next_slot(executor, 0, Timestamp::ZERO),
                    before.next_slot(executor, 0, Timestamp::ZERO)
                );
            }
            assert_eq!(t.gpus()[0].outstanding.len(), 1);
            assert_eq!(t.live_gpus(), [gref(0, 0)]);
        }
    }

    #[test]
    fn actionable_gpus_come_back_live_and_in_registration_order() {
        let mut t = Tracker::new();
        let mut ctx = SchedulerCtx::new();
        for g in 0..4 {
            t.add_gpu(gref(g, 0), 10, PAGE);
        }
        // GPU 0 busy until 50 ms, GPU 2 until 5 ms, GPU 3 dead.
        infer_for(&mut t, &mut ctx, gref(0, 0), 1, 0, 50);
        infer_for(&mut t, &mut ctx, gref(2, 0), 1, 0, 5);
        t.apply_fault(Timestamp::ZERO, &FaultKind::GpuFail { worker: 3, gpu: 0 });
        assert_eq!(
            actionable(&t, Executor::Infer, 10),
            vec![1, 2],
            "free-at 0 and 5ms are actionable, ascending; the dead GPU is not"
        );
        // The horizon bound is strict: a GPU free exactly at the horizon is
        // not actionable, matching the scan's `slot >= horizon` break.
        assert_eq!(actionable(&t, Executor::Infer, 5), vec![1]);
        // The LOAD executor is tracked separately.
        assert_eq!(actionable(&t, Executor::Load, 5), vec![0, 1, 2]);
        t.apply_fault(
            Timestamp::ZERO,
            &FaultKind::GpuRecover { worker: 3, gpu: 0 },
        );
        assert_eq!(actionable(&t, Executor::Infer, 10), vec![1, 2, 3]);
    }

    #[test]
    fn next_beyond_skips_dead_gpus() {
        let mut t = Tracker::new();
        let mut ctx = SchedulerCtx::new();
        for g in 0..3 {
            t.add_gpu(gref(g, 0), 10, PAGE);
        }
        for (g, until_ms) in [(0, 50), (1, 5), (2, 70)] {
            infer_for(&mut t, &mut ctx, gref(g, 0), 1, 0, until_ms);
        }
        // A dead GPU never becomes actionable by time passing alone.
        t.apply_fault(ms(70), &FaultKind::GpuFail { worker: 2, gpu: 0 });
        assert_eq!(t.next_beyond(Executor::Infer, ms(10)), Some(ms(50)));
        // Inclusive at the horizon: a GPU free exactly at the horizon is the
        // first to become actionable once time passes it.
        assert_eq!(t.next_beyond(Executor::Infer, ms(5)), Some(ms(5)));
        assert_eq!(t.next_beyond(Executor::Infer, ms(51)), None);
        assert_eq!(t.next_beyond(Executor::Load, ms(1)), None);
        assert_eq!(
            Tracker::new().next_beyond(Executor::Infer, Timestamp::ZERO),
            None
        );
    }

    #[test]
    fn the_busy_list_holds_what_is_claimed_past_the_last_horizon_asked() {
        let mut t = Tracker::new();
        let mut ctx = SchedulerCtx::new();
        for g in 0..4 {
            t.add_gpu(gref(g, 0), 10, PAGE);
        }
        // The watermark and the heap's `(free_at ms, GPU)` entries, ascending.
        let busy = |t: &Tracker| {
            let list = t.busy[Executor::Infer as usize].borrow();
            let mut entries: Vec<(u64, usize)> = list
                .heap
                .iter()
                .map(|&Reverse((free_at, idx))| (free_at.as_nanos() / 1_000_000, idx))
                .collect();
            entries.sort_unstable();
            (list.watermark, entries)
        };
        // Nobody has asked: nothing is entered, whatever is sent.
        infer_for(&mut t, &mut ctx, gref(0, 0), 1, 0, 50);
        assert_eq!(busy(&t), (Timestamp::MAX, vec![]));
        // The first query builds the heap from the column.
        assert_eq!(t.next_beyond(Executor::Infer, ms(10)), Some(ms(50)));
        assert_eq!(busy(&t), (ms(10), vec![(50, 0)]));
        // Every send past the watermark pushes its claim, superseded or
        // not; one below it pushes nothing.
        infer_for(&mut t, &mut ctx, gref(1, 0), 1, 0, 30);
        infer_for(&mut t, &mut ctx, gref(1, 0), 1, 30, 10);
        infer_for(&mut t, &mut ctx, gref(2, 0), 1, 0, 5);
        assert_eq!(busy(&t), (ms(10), vec![(30, 1), (40, 1), (50, 0)]));
        // A query pops the superseded claim that surfaces at the top and
        // stops at the first current one, leaving the rest unread.
        assert_eq!(t.next_beyond(Executor::Infer, ms(10)), Some(ms(40)));
        assert_eq!(busy(&t), (ms(10), vec![(40, 1), (50, 0)]));
        // A rising horizon pops what it passes...
        assert_eq!(t.next_beyond(Executor::Infer, ms(45)), Some(ms(50)));
        assert_eq!(busy(&t), (ms(45), vec![(50, 0)]));
        // ...and a passed GPU re-enters with its next claim.
        infer_for(&mut t, &mut ctx, gref(1, 0), 1, 40, 20);
        assert_eq!(busy(&t), (ms(45), vec![(50, 0), (60, 1)]));
        // A failure resets the column without a push: the dead GPU's old
        // claim stays, unread, until it surfaces; recovering pushes the
        // recovery instant.
        t.apply_fault(ms(46), &FaultKind::GpuFail { worker: 0, gpu: 0 });
        assert_eq!(busy(&t), (ms(45), vec![(50, 0), (60, 1)]));
        assert_eq!(t.next_beyond(Executor::Infer, ms(45)), Some(ms(60)));
        assert_eq!(busy(&t), (ms(45), vec![(60, 1)]));
        t.apply_fault(ms(48), &FaultKind::GpuRecover { worker: 0, gpu: 0 });
        assert_eq!(busy(&t), (ms(45), vec![(48, 0), (60, 1)]));
        assert_eq!(t.next_beyond(Executor::Infer, ms(47)), Some(ms(48)));
        // A falling horizon rebuilds: GPU 2's 5 ms claim is back in view.
        assert_eq!(t.next_beyond(Executor::Infer, ms(1)), Some(ms(5)));
        assert_eq!(busy(&t), (ms(1), vec![(5, 2), (48, 0), (60, 1)]));
        // The LOAD column has a heap of its own.
        assert!(t.busy[Executor::Load as usize].borrow().heap.is_empty());
    }

    /// Sends `count` INFERs round-robin over the tracker's GPUs, each from
    /// its GPU's present free time, 1–3 ms long.
    fn send_round_robin(t: &mut Tracker, ctx: &mut SchedulerCtx, from: usize, count: usize) {
        for i in from..from + count {
            let idx = i % t.len();
            let start = t.next_slot(Executor::Infer, idx, Timestamp::ZERO);
            let dur = Nanos::from_millis(1 + i as u64 % 3);
            let at = Placement::unbounded(t.gpus()[idx].gpu_ref, start, dur);
            t.send_infer(ctx, at, ModelId(1), 1, vec![], 0);
            ctx.take_actions();
        }
    }

    #[test]
    fn a_tracker_never_asked_keeps_its_heap_empty_across_a_thousand_sends() {
        let mut t = Tracker::new();
        let mut ctx = SchedulerCtx::new();
        for g in 0..4 {
            t.add_gpu(gref(g, 0), 10, PAGE);
        }
        send_round_robin(&mut t, &mut ctx, 0, 1_000);
        for executor in [Executor::Infer, Executor::Load] {
            let busy = t.busy[executor as usize].borrow();
            assert_eq!(busy.watermark, Timestamp::MAX);
            assert!(busy.heap.is_empty(), "{executor:?} entered a claim");
        }
    }

    #[test]
    fn the_heap_stays_under_its_guard_and_answers_across_forced_rebuilds() {
        let mut t = Tracker::new();
        let mut ctx = SchedulerCtx::new();
        for g in 0..4 {
            t.add_gpu(gref(g, 0), 10, PAGE);
        }
        let guard = BUSY_ENTRIES_PER_GPU * t.len();
        let entries = |t: &Tracker| t.busy[Executor::Infer as usize].borrow().heap.len();
        let (mut rebuilds, mut answered) = (0, 0);
        // Every GPU's free time rises about as fast as the horizon, which is
        // asked every eighth send — except for the last hundred sends of
        // every thousand, where superseded claims pile up unread until the
        // guard rebuilds.
        for i in 0..10_000 {
            let before = entries(&t);
            send_round_robin(&mut t, &mut ctx, i, 1);
            let after = entries(&t);
            assert!(after <= guard, "{after} entries after send {i}");
            rebuilds += usize::from(after < before);
            if i % 8 == 7 && i % 1_000 < 900 {
                let horizon = ms(i as u64 / 2);
                let next = t.next_beyond(Executor::Infer, horizon);
                assert_eq!(next, t.reference_next_beyond(Executor::Infer, horizon));
                answered += usize::from(next.is_some());
            }
        }
        assert!(rebuilds >= 10, "the guard fired {rebuilds} times");
        assert!(answered > 1_000, "{answered} queries found a claim");
    }

    mod busy_list {
        use super::*;
        use proptest::prelude::*;

        const GPUS: u32 = 6;

        #[derive(Clone, Copy, Debug)]
        enum Op {
            Send {
                gpu: u32,
                load: bool,
                start_ms: u64,
                dur_ms: u64,
            },
            Fault(FaultKind),
            Ask {
                load: bool,
                horizon_ms: u64,
            },
            Advance(u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            // Three workers of two GPUs.
            let gpu = || 0..GPUS;
            let send = |load| {
                (gpu(), 0u64..40, 1u64..30).prop_map(move |(gpu, start_ms, dur_ms)| Op::Send {
                    gpu,
                    load,
                    start_ms,
                    dur_ms,
                })
            };
            prop_oneof![
                send(false),
                send(false),
                send(true),
                (any::<bool>(), 0u64..80)
                    .prop_map(|(load, horizon_ms)| Op::Ask { load, horizon_ms }),
                (any::<bool>(), 0u64..80)
                    .prop_map(|(load, horizon_ms)| Op::Ask { load, horizon_ms }),
                (0u64..6).prop_map(Op::Advance),
                gpu().prop_map(|g| Op::Fault(FaultKind::GpuFail {
                    worker: g / 2,
                    gpu: g % 2
                })),
                gpu().prop_map(|g| Op::Fault(FaultKind::GpuRecover {
                    worker: g / 2,
                    gpu: g % 2
                })),
                (0..GPUS / 2).prop_map(|worker| Op::Fault(FaultKind::WorkerCrash { worker })),
                (0..GPUS / 2).prop_map(|worker| Op::Fault(FaultKind::WorkerRestart { worker })),
            ]
        }

        proptest! {
            /// `next_beyond` is the filter-and-minimum over the column at
            /// every horizon — asked in any order, rising (the pruning
            /// path) and falling (the rebuild) — under sends on both
            /// executors, failures and recoveries; and after every
            /// operation every live GPU at or past the watermark still has
            /// an entry equal to its column value.
            #[test]
            fn next_beyond_is_the_filter_min_at_rising_and_falling_horizons(
                ops in proptest::collection::vec(op(), 0..150),
            ) {
                let mut t = Tracker::new();
                let mut ctx = SchedulerCtx::new();
                let mut now = 0;
                for op in ops {
                    // A GPU joins mid-run, free at zero.
                    if t.len() < GPUS as usize {
                        t.add_gpu(gref(t.len() as u32 / 2, t.len() as u32 % 2), 10, PAGE);
                    }
                    let known = |gpu: u32| (gpu as usize) < t.len();
                    match op {
                        Op::Send { gpu, load, start_ms, dur_ms } if known(gpu) => {
                            let gpu = gref(gpu / 2, gpu % 2);
                            let at = Placement::unbounded(
                                gpu,
                                ms(now + start_ms),
                                Nanos::from_millis(dur_ms),
                            );
                            if load {
                                t.send_load(&mut ctx, at, ModelId(1), PAGE);
                            } else {
                                t.send_infer(&mut ctx, at, ModelId(1), 1, vec![], 0);
                            }
                        }
                        Op::Send { .. } => {}
                        Op::Fault(fault) => {
                            t.apply_fault(ms(now), &fault);
                        }
                        Op::Advance(by_ms) => now += by_ms,
                        Op::Ask { load, horizon_ms } => {
                            let executor = if load { Executor::Load } else { Executor::Infer };
                            let horizon = ms(now + horizon_ms);
                            prop_assert_eq!(
                                t.next_beyond(executor, horizon),
                                t.reference_next_beyond(executor, horizon)
                            );
                        }
                    }
                    ctx.take_actions();
                    for executor in [Executor::Infer, Executor::Load] {
                        let busy = t.busy[executor as usize].borrow();
                        let column = &t.free_at[executor as usize];
                        for (idx, track) in t.gpus().iter().enumerate() {
                            let past = column[idx] >= busy.watermark && track.alive;
                            let current = busy.heap.iter().any(|&Reverse(e)| e == (column[idx], idx));
                            prop_assert!(!past || current, "GPU {} has no current entry", idx);
                        }
                        prop_assert!(busy.heap.len() <= BUSY_ENTRIES_PER_GPU * t.len());
                    }
                }
            }
        }
    }

    #[test]
    fn apply_fault_parks_capacity_and_returns_lost_actions_sorted() {
        let mut t = Tracker::new();
        let mut ctx = SchedulerCtx::new();
        t.add_gpu(gref(0, 0), 10, PAGE);
        t.add_gpu(gref(0, 1), 10, PAGE);
        t.add_gpu(gref(1, 0), 10, PAGE);
        let ids: Vec<ActionId> = [gref(0, 0), gref(0, 1), gref(0, 0), gref(1, 0)]
            .into_iter()
            .map(|gpu| infer(&mut t, &mut ctx, gpu, 1, 0))
            .collect();
        assert_eq!(t.outstanding_infers_of(ModelId(1)), 4);
        let now = ms(10);
        let lost = t.apply_fault(now, &FaultKind::WorkerCrash { worker: 0 });
        assert_eq!(
            lost.iter().map(|(i, a)| (*i, a.id)).collect::<Vec<_>>(),
            vec![(0, ids[0]), (1, ids[1]), (0, ids[2])],
            "lost actions cover every GPU of the worker, in action-id order, \
             each with its GPU index"
        );
        assert_eq!(t.outstanding_infers_of(ModelId(1)), 1, "the survivor's");
        assert!(!t.get(gref(0, 0)).unwrap().alive);
        assert!(!t.get(gref(0, 1)).unwrap().alive);
        assert!(t.get(gref(1, 0)).unwrap().alive, "other workers untouched");
        assert_eq!(t.live_gpus(), [gref(1, 0)]);
        // A lone GPU recovery cannot revive a GPU of a crashed worker.
        t.apply_fault(now, &FaultKind::GpuRecover { worker: 0, gpu: 0 });
        assert!(!t.get(gref(0, 0)).unwrap().alive);
        // The restart re-admits every GPU, cold, back in registration order.
        let lost = t.apply_fault(now, &FaultKind::WorkerRestart { worker: 0 });
        assert!(lost.is_empty());
        assert!(t.get(gref(0, 0)).unwrap().alive);
        assert!(t.get(gref(0, 1)).unwrap().alive);
        assert_eq!(t.live_gpus(), [gref(0, 0), gref(0, 1), gref(1, 0)]);
        // Single-GPU failure and standalone recovery.
        let lost = t.apply_fault(now, &FaultKind::GpuFail { worker: 0, gpu: 1 });
        assert!(lost.is_empty());
        assert!(!t.get(gref(0, 1)).unwrap().alive);
        assert_eq!(t.live_gpus(), [gref(0, 0), gref(1, 0)]);
        t.apply_fault(now, &FaultKind::GpuRecover { worker: 0, gpu: 1 });
        assert!(t.get(gref(0, 1)).unwrap().alive);
        assert_eq!(t.live_gpus(), [gref(0, 0), gref(0, 1), gref(1, 0)]);
        // Link faults touch nothing.
        t.apply_fault(now, &FaultKind::PartitionStart { worker: 1 });
        assert!(t.get(gref(1, 0)).unwrap().alive);
        // Faults naming unknown capacity are ignored.
        assert!(t
            .apply_fault(now, &FaultKind::GpuFail { worker: 9, gpu: 9 })
            .is_empty());
    }

    #[test]
    fn cluster_queries() {
        let mut t = Tracker::new();
        let mut ctx = SchedulerCtx::new();
        t.add_gpu(gref(0, 0), 10, PAGE);
        t.add_gpu(gref(1, 0), 10, PAGE);
        load(&mut t, &mut ctx, gref(1, 0), 5, 2);
        assert_eq!(t.gpus_with_model(ModelId(5)), [1]);
        assert!(t.gpus_with_model(ModelId(6)).is_empty());
        load(&mut t, &mut ctx, gref(0, 0), 5, 2);
        assert_eq!(
            t.gpus_with_model(ModelId(5)),
            [0, 1],
            "ascending registration index"
        );
        // Occupy gpu 0's exec engine; least loaded should be gpu 1 — unless
        // it is excluded or dead.
        infer_for(&mut t, &mut ctx, gref(0, 0), 5, 0, 50);
        assert_eq!(t.least_loaded_gpu(Timestamp::ZERO, &[]), Some(gref(1, 0)));
        assert_eq!(
            t.least_loaded_gpu(Timestamp::ZERO, &[gref(1, 0)]),
            Some(gref(0, 0))
        );
        t.apply_fault(Timestamp::ZERO, &FaultKind::GpuFail { worker: 1, gpu: 0 });
        assert_eq!(t.least_loaded_gpu(Timestamp::ZERO, &[]), Some(gref(0, 0)));
        assert_eq!(t.least_loaded_gpu(Timestamp::ZERO, &[gref(0, 0)]), None);
        assert!((t.get(gref(1, 0)).unwrap().occupancy() - 0.0).abs() < 1e-12);
    }
}
