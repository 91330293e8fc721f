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
//! **Ownership rule:** every per-GPU fact lives here; schedulers hold policy
//! state only. Residency (per GPU and, inverted, per model), page
//! reservations, executor free times, outstanding actions, liveness and the
//! worker-down set all change through [`WorkerStateTracker`]'s `note_*`,
//! [`WorkerStateTracker::evict_until_fits`] and
//! [`WorkerStateTracker::apply_fault`] methods and nowhere else — callers
//! only ever hold `&GpuTrack` — so the indices cannot drift from the tracks
//! they summarise and no discipline keeps a second copy.

use std::collections::{BTreeMap, HashMap, HashSet};

use clockwork_model::ModelId;
use clockwork_sim::engine::FaultKind;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionId, ActionResult, GpuId, WorkerId};

use crate::model_table::ModelTable;

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

/// An action the controller has sent and not yet heard back about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutstandingAction {
    /// The action id.
    pub id: ActionId,
    /// The model it concerns.
    pub model: ModelId,
    /// The controller's predicted completion time.
    pub expected_completion: Timestamp,
    /// Whether it is a LOAD (false = INFER; UNLOADs are not tracked).
    pub is_load: bool,
}

/// One model's claim on a GPU's weights cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Residency {
    /// Pages reserved for the model's weights.
    pub pages: u64,
    /// Whether the LOAD is still outstanding (false = confirmed resident).
    pub loading: bool,
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
pub struct GpuTrack {
    /// Which GPU this is.
    pub gpu_ref: GpuRef,
    /// Total pages in the weights cache.
    pub total_pages: u64,
    /// Pages not allocated to any resident or loading model.
    pub free_pages: u64,
    /// Page size in bytes.
    pub page_size: u64,
    /// Models resident or loading here, in ascending `ModelId` order (the
    /// order candidate scans visit them in).
    pub models: BTreeMap<ModelId, Residency>,
    /// Last time an INFER was scheduled per model (drives LRU eviction).
    pub last_used: HashMap<ModelId, Timestamp>,
    /// Outstanding actions on this GPU.
    pub outstanding: HashMap<ActionId, OutstandingAction>,
    /// Whether the GPU (and its worker) is up. Dead GPUs receive no work.
    pub alive: bool,
}

impl GpuTrack {
    fn new(gpu_ref: GpuRef, total_pages: u64, page_size: u64) -> Self {
        GpuTrack {
            gpu_ref,
            total_pages,
            free_pages: total_pages,
            page_size,
            models: BTreeMap::new(),
            last_used: HashMap::new(),
            outstanding: HashMap::new(),
            alive: true,
        }
    }

    /// Whether a model is usable for INFER scheduling on this GPU (resident,
    /// or a LOAD is already on its way).
    pub fn has_or_loading(&self, model: ModelId) -> bool {
        self.models.contains_key(&model)
    }

    /// Whether the model is confirmed resident.
    pub fn is_resident(&self, model: ModelId) -> bool {
        self.models.get(&model).is_some_and(|r| !r.loading)
    }

    /// Number of pages a weights blob of `bytes` needs on this GPU.
    pub fn pages_for(&self, bytes: u64) -> u64 {
        if self.page_size == 0 {
            return 0;
        }
        bytes.div_ceil(self.page_size).max(1)
    }

    /// The least-recently-used resident model, excluding `protect`ed ones.
    pub fn lru_candidate(&self, protect: &HashSet<ModelId>) -> Option<ModelId> {
        self.models
            .iter()
            .filter(|(m, r)| !r.loading && !protect.contains(m))
            .map(|(&m, _)| m)
            .min_by_key(|m| {
                (
                    self.last_used.get(m).copied().unwrap_or(Timestamp::ZERO),
                    *m,
                )
            })
    }

    /// Fraction of pages in use.
    pub fn occupancy(&self) -> f64 {
        if self.total_pages == 0 {
            return 1.0;
        }
        1.0 - self.free_pages as f64 / self.total_pages as f64
    }
}

/// The controller's view of every GPU in the cluster, and the only owner of
/// per-GPU state (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct WorkerStateTracker {
    gpus: Vec<GpuTrack>,
    index: HashMap<GpuRef, usize>,
    /// Estimated time each GPU's executors are next free, as dense columns
    /// (`[Executor::Infer, Executor::Load]`, each by registration index) so
    /// the readiness queries are a linear scan over `u64`s.
    free_at: [Vec<Timestamp>; 2],
    /// GPUs (by registration index, ascending) on which each model is
    /// resident or loading: the inverse of [`GpuTrack::models`], dense by
    /// model id (the LOAD-priority pass looks it up per demanded model).
    holders: ModelTable<Vec<usize>>,
    /// LOAD actions outstanding across the fleet.
    outstanding_loads: usize,
    /// GPUs currently alive; changes only in `add_gpu`, `fail_gpu` and
    /// `recover_gpu`.
    alive_gpus: usize,
    /// Workers currently crashed. While a worker is down, a lone GPU
    /// recovery cannot make its GPUs reachable — only the worker restart
    /// re-admits them (the worker would silently drop actions sent earlier,
    /// leaking their requests).
    down_workers: HashSet<WorkerId>,
}

impl WorkerStateTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a GPU, alive, empty and free at time zero.
    pub fn add_gpu(&mut self, gpu_ref: GpuRef, total_pages: u64, page_size: u64) {
        self.index.insert(gpu_ref, self.gpus.len());
        self.gpus
            .push(GpuTrack::new(gpu_ref, total_pages, page_size));
        self.alive_gpus += 1;
        for column in &mut self.free_at {
            column.push(Timestamp::ZERO);
        }
    }

    /// All tracked GPUs, in registration order.
    pub fn gpus(&self) -> &[GpuTrack] {
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
    pub fn get(&self, gpu_ref: GpuRef) -> Option<&GpuTrack> {
        self.index.get(&gpu_ref).map(|&i| &self.gpus[i])
    }

    /// The dense registration index of a GPU (its position in
    /// [`WorkerStateTracker::gpus`]).
    pub fn gpu_index(&self, gpu_ref: GpuRef) -> Option<usize> {
        self.index.get(&gpu_ref).copied()
    }

    /// Registration indices of the GPUs on which a model is resident or
    /// loading, ascending. Empty means the model is cold everywhere.
    pub fn gpus_with_model(&self, model: ModelId) -> &[usize] {
        self.holders.get(model).map_or(&[], Vec::as_slice)
    }

    /// Number of GPUs currently alive.
    pub fn alive_gpus(&self) -> usize {
        self.alive_gpus
    }

    /// Number of LOAD actions outstanding across the fleet.
    pub fn outstanding_loads(&self) -> usize {
        self.outstanding_loads
    }

    /// The time an action could start on GPU `idx`'s executor if sent now,
    /// given outstanding work.
    pub fn next_slot(&self, executor: Executor, idx: usize, now: Timestamp) -> Timestamp {
        self.free_at[executor as usize][idx].max(now)
    }

    /// Collects the registration indices of every live GPU whose executor
    /// frees up strictly before `horizon` into `out`, ascending — so a pass
    /// visits exactly the GPUs that can accept work, in the order a full
    /// scan would.
    pub fn actionable_into(&self, executor: Executor, horizon: Timestamp, out: &mut Vec<usize>) {
        out.clear();
        let free_at = &self.free_at[executor as usize];
        out.extend((0..free_at.len()).filter(|&i| free_at[i] < horizon && self.gpus[i].alive));
    }

    /// The earliest executor free time at or after `horizon` among live
    /// GPUs: the next instant at which pure time passage makes a currently
    /// non-actionable GPU actionable.
    pub fn next_beyond(&self, executor: Executor, horizon: Timestamp) -> Option<Timestamp> {
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

    /// Marks an INFER as sent: occupies the executor from `start` for
    /// `duration` and touches LRU. Unknown GPUs are ignored, here and in
    /// every other `note_*`.
    pub fn note_infer_sent(
        &mut self,
        gpu_ref: GpuRef,
        id: ActionId,
        model: ModelId,
        start: Timestamp,
        duration: Nanos,
    ) {
        let Some(idx) = self.gpu_index(gpu_ref) else {
            return;
        };
        self.occupy(Executor::Infer, idx, id, model, start + duration);
        self.gpus[idx].last_used.insert(model, start);
    }

    /// Marks a LOAD as sent: reserves the pages `weights_bytes` needs,
    /// occupies the load executor, and lists the GPU among the model's
    /// holders.
    pub fn note_load_sent(
        &mut self,
        gpu_ref: GpuRef,
        id: ActionId,
        model: ModelId,
        weights_bytes: u64,
        start: Timestamp,
        duration: Nanos,
    ) {
        let Some(idx) = self.gpu_index(gpu_ref) else {
            return;
        };
        self.occupy(Executor::Load, idx, id, model, start + duration);
        self.outstanding_loads += 1;
        let track = &mut self.gpus[idx];
        let pages = track.pages_for(weights_bytes);
        track.free_pages = track.free_pages.saturating_sub(pages);
        track.models.insert(
            model,
            Residency {
                pages,
                loading: true,
            },
        );
        // `or_insert`, and neither a failed LOAD nor its result clears the
        // stamp: a re-LOAD after a failure keeps the older LRU position.
        // The frozen digests depend on it; do not "fix" it in passing.
        track.last_used.entry(model).or_insert(start);
        let holders = self.holders.get_or_default(model);
        if let Err(pos) = holders.binary_search(&idx) {
            holders.insert(pos, idx);
        }
    }

    fn occupy(
        &mut self,
        executor: Executor,
        idx: usize,
        id: ActionId,
        model: ModelId,
        expected_completion: Timestamp,
    ) {
        let free_at = &mut self.free_at[executor as usize][idx];
        *free_at = (*free_at).max(expected_completion);
        self.gpus[idx].outstanding.insert(
            id,
            OutstandingAction {
                id,
                model,
                expected_completion,
                is_load: executor == Executor::Load,
            },
        );
    }

    /// Marks an UNLOAD as sent: frees the pages immediately (UNLOAD always
    /// succeeds and is metadata-only). Unloading something the GPU does not
    /// hold is harmless.
    pub fn note_unload_sent(&mut self, gpu_ref: GpuRef, model: ModelId) {
        if let Some(idx) = self.gpu_index(gpu_ref) {
            self.drop_residency(idx, model);
            self.gpus[idx].last_used.remove(&model);
        }
    }

    /// Drops a model's residency entry on a GPU, if it has one, and returns
    /// its pages to the pool.
    fn drop_residency(&mut self, idx: usize, model: ModelId) {
        let track = &mut self.gpus[idx];
        if let Some(held) = track.models.remove(&model) {
            track.free_pages = (track.free_pages + held.pages).min(track.total_pages);
            self.unlist_holder(idx, model);
        }
    }

    fn unlist_holder(&mut self, idx: usize, model: ModelId) {
        let holders = self.holders.get_mut(model);
        holders
            .expect("a held model is listed")
            .retain(|&i| i != idx);
    }

    /// Records a LOAD result and hands back the action it resolves. `None`
    /// means the result is stale — its action is no longer outstanding,
    /// e.g. it was produced just before the GPU crashed and the crash
    /// already resolved the action — and was ignored entirely, so it cannot
    /// resurrect residency on a GPU whose memory is gone (or clobber a newer
    /// LOAD of the same model issued after the GPU recovered).
    pub fn note_load_result(
        &mut self,
        gpu_ref: GpuRef,
        id: ActionId,
        model: ModelId,
        success: bool,
    ) -> Option<OutstandingAction> {
        let idx = self.gpu_index(gpu_ref)?;
        let action = self.gpus[idx].outstanding.remove(&id)?;
        self.outstanding_loads -= usize::from(action.is_load);
        if success {
            if let Some(held) = self.gpus[idx].models.get_mut(&model) {
                held.loading = false;
            }
        } else {
            // The worker did not allocate pages; return our reservation.
            self.drop_residency(idx, model);
        }
        Some(action)
    }

    /// Records an INFER result (success or failure frees the executor claim).
    pub fn note_infer_result(&mut self, gpu_ref: GpuRef, id: ActionId) {
        if let Some(idx) = self.gpu_index(gpu_ref) {
            self.gpus[idx].outstanding.remove(&id);
        }
    }

    /// Makes room for a weights blob of `weights_bytes` on a GPU: evicts
    /// least-recently-used resident models outside `protect`, calling
    /// `unload` for each victim (so the caller sends the UNLOAD action),
    /// until the blob fits. Returns whether it fits; `false` means victims
    /// ran out first — whatever was evicted stays evicted.
    pub fn evict_until_fits(
        &mut self,
        gpu_ref: GpuRef,
        weights_bytes: u64,
        protect: &HashSet<ModelId>,
        mut unload: impl FnMut(ModelId),
    ) -> bool {
        let Some(idx) = self.gpu_index(gpu_ref) else {
            return false;
        };
        let pages = self.gpus[idx].pages_for(weights_bytes);
        loop {
            let track = &self.gpus[idx];
            if pages <= track.free_pages {
                return true;
            }
            let Some(victim) = track.lru_candidate(protect) else {
                return false;
            };
            self.note_unload_sent(gpu_ref, victim);
            unload(victim);
        }
    }

    /// Applies a fleet fault — the one fault transition every discipline
    /// shares.
    ///
    /// Failures mark the affected GPU(s) dead, wipe their residency, page
    /// reservations and outstanding actions, and return those actions — which
    /// will never produce a result — each with its GPU's registration
    /// index, in ascending action-id order; the caller resolves them
    /// (requeue or reject) in whatever deterministic order its digest was
    /// frozen with. Recoveries re-admit dead GPUs cold (nothing resident); a
    /// recovery naming a GPU that is already alive — e.g. a `GpuRecover`
    /// whose failure window a worker restart already superseded — is a
    /// no-op, and one naming a GPU of a crashed worker is ignored: the
    /// machine is gone, only its restart brings the GPUs back. Link faults
    /// are a transport matter, and a join's GPUs were already registered
    /// through `add_gpu`; neither touches anything here.
    pub fn apply_fault(
        &mut self,
        now: Timestamp,
        fault: &FaultKind,
    ) -> Vec<(usize, OutstandingAction)> {
        let worker = WorkerId(fault.worker());
        let on_worker = |g: &GpuTrack| g.gpu_ref.worker == worker;
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
        lost.sort_unstable_by_key(|&(_, action)| action.id);
        lost
    }

    /// The GPU died: its memory comes back empty, its outstanding actions
    /// move to `lost`, and it is unschedulable until it recovers.
    fn fail_gpu(&mut self, idx: usize, now: Timestamp, lost: &mut Vec<(usize, OutstandingAction)>) {
        for model in std::mem::take(&mut self.gpus[idx].models).into_keys() {
            self.unlist_holder(idx, model);
        }
        let track = &mut self.gpus[idx];
        for (_, action) in track.outstanding.drain() {
            self.outstanding_loads -= usize::from(action.is_load);
            lost.push((idx, action));
        }
        track.last_used.clear();
        track.free_pages = track.total_pages;
        self.alive_gpus -= usize::from(track.alive);
        track.alive = false;
        for column in &mut self.free_at {
            column[idx] = now;
        }
    }

    fn recover_gpu(&mut self, idx: usize, now: Timestamp) {
        if !self.gpus[idx].alive {
            self.gpus[idx].alive = true;
            self.alive_gpus += 1;
            for column in &mut self.free_at {
                column[idx] = column[idx].max(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A tracker with one GPU `gref(0, 0)` of `pages` pages.
    fn one_gpu(pages: u64) -> WorkerStateTracker {
        let mut t = WorkerStateTracker::new();
        t.add_gpu(gref(0, 0), pages, PAGE);
        t
    }

    /// Sends a LOAD of `pages` pages for `model` at time zero (8 ms long).
    fn load(t: &mut WorkerStateTracker, gpu: GpuRef, id: u64, model: u32, pages: u64) {
        t.note_load_sent(
            gpu,
            ActionId(id),
            ModelId(model),
            pages * PAGE,
            Timestamp::ZERO,
            Nanos::from_millis(8),
        );
    }

    fn infer(t: &mut WorkerStateTracker, gpu: GpuRef, id: u64, model: u32, start_ms: u64) {
        t.note_infer_sent(
            gpu,
            ActionId(id),
            ModelId(model),
            ms(start_ms),
            Nanos::from_millis(3),
        );
    }

    fn actionable(t: &WorkerStateTracker, executor: Executor, horizon_ms: u64) -> Vec<usize> {
        let mut out = vec![99];
        t.actionable_into(executor, ms(horizon_ms), &mut out);
        out
    }

    #[test]
    fn add_and_lookup_gpus() {
        let mut t = WorkerStateTracker::new();
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
        let model = ModelId(7);
        assert_eq!(t.gpus()[0].pages_for(100 * 1024 * 1024), 7);
        t.note_load_sent(
            gref(0, 0),
            ActionId(1),
            model,
            100 * 1024 * 1024,
            ms(10),
            Nanos::from_millis(8),
        );
        let g = &t.gpus()[0];
        assert_eq!(g.free_pages, 3);
        assert!(g.has_or_loading(model));
        assert!(!g.is_resident(model));
        assert_eq!(t.next_slot(Executor::Load, 0, Timestamp::ZERO), ms(18));
        assert_eq!(t.gpus_with_model(model), [0]);
        assert_eq!(t.outstanding_loads(), 1);
        let resolved = t
            .note_load_result(gref(0, 0), ActionId(1), model, true)
            .expect("outstanding");
        assert!(resolved.is_load);
        assert_eq!(resolved.expected_completion, ms(18));
        let g = &t.gpus()[0];
        assert!(g.is_resident(model));
        assert_eq!(g.free_pages, 3, "pages stay allocated after success");
        assert!(g.outstanding.is_empty());
        assert_eq!(t.outstanding_loads(), 0);
    }

    #[test]
    fn failed_load_returns_pages_but_keeps_the_lru_stamp() {
        let mut t = one_gpu(10);
        load(&mut t, gref(0, 0), 1, 7, 4);
        assert_eq!(t.gpus()[0].free_pages, 6);
        assert!(t
            .note_load_result(gref(0, 0), ActionId(1), ModelId(7), false)
            .is_some());
        assert_eq!(t.gpus()[0].free_pages, 10);
        assert!(!t.gpus()[0].has_or_loading(ModelId(7)));
        assert!(t.gpus_with_model(ModelId(7)).is_empty());
        // Pinned quirk: the LRU stamp outlives the failed LOAD, and the
        // re-LOAD's `or_insert` keeps it instead of stamping the new start.
        t.note_load_sent(
            gref(0, 0),
            ActionId(2),
            ModelId(7),
            4 * PAGE,
            ms(50),
            Nanos::from_millis(8),
        );
        assert_eq!(
            t.gpus()[0].last_used.get(&ModelId(7)),
            Some(&Timestamp::ZERO)
        );
    }

    #[test]
    fn unload_frees_pages_immediately() {
        let mut t = one_gpu(10);
        load(&mut t, gref(0, 0), 1, 7, 4);
        t.note_load_result(gref(0, 0), ActionId(1), ModelId(7), true);
        t.note_unload_sent(gref(0, 0), ModelId(7));
        assert_eq!(t.gpus()[0].free_pages, 10);
        assert!(!t.gpus()[0].is_resident(ModelId(7)));
        assert!(t.gpus_with_model(ModelId(7)).is_empty());
        // Unloading something unknown is harmless.
        t.note_unload_sent(gref(0, 0), ModelId(99));
        assert_eq!(t.gpus()[0].free_pages, 10);
    }

    #[test]
    fn infer_occupies_executor_and_touches_lru() {
        let mut t = one_gpu(10);
        infer(&mut t, gref(0, 0), 5, 3, 10);
        assert_eq!(t.next_slot(Executor::Infer, 0, ms(5)), ms(13));
        assert_eq!(t.next_slot(Executor::Infer, 0, ms(20)), ms(20));
        assert_eq!(t.gpus()[0].last_used.get(&ModelId(3)), Some(&ms(10)));
        assert_eq!(
            t.gpus()[0].outstanding[&ActionId(5)].expected_completion,
            ms(13)
        );
        t.note_infer_result(gref(0, 0), ActionId(5));
        assert!(t.gpus()[0].outstanding.is_empty());
    }

    #[test]
    fn lru_candidate_respects_protection_and_order() {
        let mut t = one_gpu(20);
        for (i, used_ms) in [(1u32, 30u64), (2, 10), (3, 20)] {
            load(&mut t, gref(0, 0), u64::from(i), i, 2);
            t.note_load_result(gref(0, 0), ActionId(u64::from(i)), ModelId(i), true);
            infer(&mut t, gref(0, 0), 10 + u64::from(i), i, used_ms);
        }
        // A model that is still loading is never a candidate.
        load(&mut t, gref(0, 0), 4, 4, 2);
        let g = &t.gpus()[0];
        let none = HashSet::new();
        assert_eq!(g.lru_candidate(&none), Some(ModelId(2)));
        let protect: HashSet<ModelId> = [ModelId(2)].into_iter().collect();
        assert_eq!(g.lru_candidate(&protect), Some(ModelId(3)));
        let all: HashSet<ModelId> = [ModelId(1), ModelId(2), ModelId(3)].into_iter().collect();
        assert_eq!(g.lru_candidate(&all), None);
    }

    #[test]
    fn evict_until_fits_unloads_lru_victims_until_the_blob_fits() {
        let mut t = one_gpu(10);
        for (i, used_ms) in [(1u32, 30u64), (2, 10), (3, 20)] {
            load(&mut t, gref(0, 0), u64::from(i), i, 3);
            t.note_load_result(gref(0, 0), ActionId(u64::from(i)), ModelId(i), true);
            infer(&mut t, gref(0, 0), 10 + u64::from(i), i, used_ms);
        }
        assert_eq!(t.gpus()[0].free_pages, 1);
        let mut victims = Vec::new();
        let protect: HashSet<ModelId> = [ModelId(3)].into_iter().collect();
        // 5 pages: evicting model 2 (LRU) gives 4, then model 1 gives 7.
        assert!(t.evict_until_fits(gref(0, 0), 5 * PAGE, &protect, |m| victims.push(m)));
        assert_eq!(victims, vec![ModelId(2), ModelId(1)]);
        assert_eq!(t.gpus()[0].free_pages, 7);
        assert!(
            t.gpus_with_model(ModelId(1)).is_empty() && t.gpus_with_model(ModelId(2)).is_empty()
        );
        // 9 pages cannot fit while model 3 is protected: nothing to evict.
        assert!(!t.evict_until_fits(gref(0, 0), 9 * PAGE, &protect, |m| victims.push(m)));
        assert_eq!(victims.len(), 2);
        assert!(t.gpus()[0].is_resident(ModelId(3)));
    }

    #[test]
    fn fault_wipes_state_and_recovery_restores_cold() {
        let mut t = one_gpu(10);
        load(&mut t, gref(0, 0), 1, 7, 4);
        t.note_load_result(gref(0, 0), ActionId(1), ModelId(7), true);
        infer(&mut t, gref(0, 0), 2, 7, 10);
        load(&mut t, gref(0, 0), 3, 8, 2);
        assert!(t.gpus()[0].alive);
        let fail = FaultKind::GpuFail { worker: 0, gpu: 0 };
        let lost = t.apply_fault(ms(20), &fail);
        assert_eq!(
            lost.iter().map(|&(i, a)| (i, a.id)).collect::<Vec<_>>(),
            vec![(0, ActionId(2)), (0, ActionId(3))]
        );
        let g = &t.gpus()[0];
        assert!(!g.alive);
        assert_eq!(g.free_pages, 10);
        assert!(g.models.is_empty() && g.last_used.is_empty());
        assert!(g.outstanding.is_empty());
        assert!(
            t.gpus_with_model(ModelId(7)).is_empty() && t.gpus_with_model(ModelId(8)).is_empty()
        );
        assert_eq!(t.outstanding_loads(), 0);
        assert_eq!(t.next_slot(Executor::Infer, 0, Timestamp::ZERO), ms(20));
        // A stale LOAD result (produced pre-crash) must not resurrect
        // residency on the wiped GPU, and must report that it was ignored.
        assert!(t
            .note_load_result(gref(0, 0), ActionId(3), ModelId(8), true)
            .is_none());
        assert!(!t.gpus()[0].has_or_loading(ModelId(8)));
        let recover = FaultKind::GpuRecover { worker: 0, gpu: 0 };
        t.apply_fault(ms(50), &recover);
        assert!(t.gpus()[0].alive);
        assert!(t.gpus()[0].models.is_empty(), "recovery is cold");
        assert_eq!(t.next_slot(Executor::Infer, 0, Timestamp::ZERO), ms(50));
        assert_eq!(t.next_slot(Executor::Load, 0, Timestamp::ZERO), ms(50));
    }

    #[test]
    fn spurious_recovery_of_a_live_gpu_is_a_no_op() {
        // Pinned: a recovery whose failure window was already superseded
        // (the GPU is alive) must not push the GPU's free times forward.
        let mut t = one_gpu(10);
        infer(&mut t, gref(0, 0), 1, 7, 0);
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
        }
    }

    #[test]
    fn actionable_gpus_come_back_live_and_in_registration_order() {
        let mut t = WorkerStateTracker::new();
        for g in 0..4 {
            t.add_gpu(gref(g, 0), 10, PAGE);
        }
        // GPU 0 busy until 50 ms, GPU 2 until 5 ms, GPU 3 dead.
        t.note_infer_sent(
            gref(0, 0),
            ActionId(1),
            ModelId(1),
            Timestamp::ZERO,
            Nanos::from_millis(50),
        );
        t.note_infer_sent(
            gref(2, 0),
            ActionId(2),
            ModelId(1),
            Timestamp::ZERO,
            Nanos::from_millis(5),
        );
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
        let mut t = WorkerStateTracker::new();
        for g in 0..3 {
            t.add_gpu(gref(g, 0), 10, PAGE);
        }
        for (g, until_ms) in [(0, 50), (1, 5), (2, 70)] {
            t.note_infer_sent(
                gref(g, 0),
                ActionId(u64::from(g)),
                ModelId(1),
                Timestamp::ZERO,
                Nanos::from_millis(until_ms),
            );
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
            WorkerStateTracker::new().next_beyond(Executor::Infer, Timestamp::ZERO),
            None
        );
    }

    #[test]
    fn apply_fault_parks_capacity_and_returns_lost_actions_sorted() {
        let mut t = WorkerStateTracker::new();
        t.add_gpu(gref(0, 0), 10, PAGE);
        t.add_gpu(gref(0, 1), 10, PAGE);
        t.add_gpu(gref(1, 0), 10, PAGE);
        for (gpu, id) in [(gref(0, 0), 9u64), (gref(0, 0), 2), (gref(0, 1), 5)] {
            infer(&mut t, gpu, id, 1, 0);
        }
        let now = ms(10);
        let lost = t.apply_fault(now, &FaultKind::WorkerCrash { worker: 0 });
        assert_eq!(
            lost.iter().map(|&(i, a)| (i, a.id)).collect::<Vec<_>>(),
            vec![(0, ActionId(2)), (1, ActionId(5)), (0, ActionId(9))],
            "lost actions cover every GPU of the worker, in action-id order, \
             each with its GPU index"
        );
        assert!(!t.get(gref(0, 0)).unwrap().alive);
        assert!(!t.get(gref(0, 1)).unwrap().alive);
        assert!(t.get(gref(1, 0)).unwrap().alive, "other workers untouched");
        // A lone GPU recovery cannot revive a GPU of a crashed worker.
        t.apply_fault(now, &FaultKind::GpuRecover { worker: 0, gpu: 0 });
        assert!(!t.get(gref(0, 0)).unwrap().alive);
        // The restart re-admits every GPU, cold.
        let lost = t.apply_fault(now, &FaultKind::WorkerRestart { worker: 0 });
        assert!(lost.is_empty());
        assert!(t.get(gref(0, 0)).unwrap().alive);
        assert!(t.get(gref(0, 1)).unwrap().alive);
        // Single-GPU failure and standalone recovery.
        let lost = t.apply_fault(now, &FaultKind::GpuFail { worker: 1, gpu: 0 });
        assert!(lost.is_empty());
        assert!(!t.get(gref(1, 0)).unwrap().alive);
        t.apply_fault(now, &FaultKind::GpuRecover { worker: 1, gpu: 0 });
        assert!(t.get(gref(1, 0)).unwrap().alive);
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
        let mut t = WorkerStateTracker::new();
        t.add_gpu(gref(0, 0), 10, PAGE);
        t.add_gpu(gref(1, 0), 10, PAGE);
        load(&mut t, gref(1, 0), 1, 5, 2);
        assert_eq!(t.gpus_with_model(ModelId(5)), [1]);
        assert!(t.gpus_with_model(ModelId(6)).is_empty());
        load(&mut t, gref(0, 0), 2, 5, 2);
        assert_eq!(
            t.gpus_with_model(ModelId(5)),
            [0, 1],
            "ascending registration index"
        );
        // Occupy gpu 0's exec engine; least loaded should be gpu 1 — unless
        // it is excluded or dead.
        t.note_infer_sent(
            gref(0, 0),
            ActionId(3),
            ModelId(5),
            Timestamp::ZERO,
            Nanos::from_millis(50),
        );
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
