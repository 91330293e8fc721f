//! The paged device weights cache (§5.2 "Managing model weights in memory").
//!
//! Clockwork pre-allocates all GPU memory and carves the bulk of it into
//! fixed 16 MiB pages used exclusively for model weights. Paging has two
//! properties the paper leans on:
//!
//! * it eliminates external fragmentation, so the *only* piece of memory
//!   state the controller has to track per worker is the number of free
//!   pages; and
//! * allocation/free become trivially predictable metadata operations,
//!   removing the variable-latency allocator from the critical path (C1).
//!
//! Admission and eviction decisions belong to the controller; the cache
//! nevertheless keeps each resident's last use so best-effort baselines (and
//! the controller's own LRU policy for UNLOAD) can query a victim.
//!
//! The residents are one `Vec` sorted by model id: a look-up — two per
//! INFER — is a binary search over contiguous memory, and a LOAD or UNLOAD
//! shifts at most the GPU's few hundred residents.

use serde::{Deserialize, Serialize};

use clockwork_model::ModelId;
use clockwork_sim::time::Timestamp;

/// Default page size: 16 MiB (§5.2).
pub const DEFAULT_PAGE_SIZE: u64 = 16 * 1024 * 1024;

/// Error returned when a page allocation cannot be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InsufficientPages {
    /// Pages requested.
    pub needed: u64,
    /// Pages currently free.
    pub available: u64,
}

impl std::fmt::Display for InsufficientPages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "insufficient pages: need {}, have {}",
            self.needed, self.available
        )
    }
}

impl std::error::Error for InsufficientPages {}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct Residency {
    pages: u64,
    last_used: Timestamp,
    loaded_at: Timestamp,
    /// In-flight references (executing INFERs holding the weights). A model
    /// cannot be unloaded while its reference count is above zero.
    refs: u32,
}

impl Residency {
    /// [`PageCache::touch`] and [`PageCache::pin`] on an entry already in
    /// hand: what an INFER does to its model's weights once its kernel is
    /// scheduled.
    pub(crate) fn touch_and_pin(&mut self, now: Timestamp) {
        self.last_used = self.last_used.max(now);
        self.refs += 1;
    }
}

/// A fixed-size paged cache for model weights on one GPU.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PageCache {
    page_size: u64,
    total_pages: u64,
    free_pages: u64,
    /// The resident models and their entries, ascending by id.
    resident: Vec<(ModelId, Residency)>,
}

impl PageCache {
    /// Creates a cache with the given total capacity in bytes and page size.
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    pub fn new(capacity_bytes: u64, page_size: u64) -> Self {
        assert!(page_size > 0, "page size must be positive");
        let total_pages = capacity_bytes / page_size;
        PageCache {
            page_size,
            total_pages,
            free_pages: total_pages,
            resident: Vec::new(),
        }
    }

    /// Where `model`'s entry is, or where it would go.
    fn find(&self, model: ModelId) -> Result<usize, usize> {
        self.resident.binary_search_by_key(&model, |&(id, _)| id)
    }

    fn get_mut(&mut self, model: ModelId) -> Option<&mut Residency> {
        let at = self.find(model).ok()?;
        Some(&mut self.resident[at].1)
    }

    /// Creates a cache with the default 16 MiB page size.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        PageCache::new(capacity_bytes, DEFAULT_PAGE_SIZE)
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Total number of pages.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Number of free pages.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Number of allocated pages.
    pub fn used_pages(&self) -> u64 {
        self.total_pages - self.free_pages
    }

    /// Number of pages a weights blob of `bytes` bytes occupies.
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_size)
    }

    /// Whether a model's weights are resident.
    pub fn contains(&self, model: ModelId) -> bool {
        self.find(model).is_ok()
    }

    /// Number of models currently resident.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// The resident models, in ascending id order.
    pub fn resident_models(&self) -> Vec<ModelId> {
        self.resident.iter().map(|&(id, _)| id).collect()
    }

    /// Allocates pages for a model's weights.
    ///
    /// Fails without side effects if the model is already resident or there
    /// are not enough free pages; the caller (controller) is responsible for
    /// evicting first — the cache itself never makes that choice.
    pub fn allocate(
        &mut self,
        model: ModelId,
        weights_bytes: u64,
        now: Timestamp,
    ) -> Result<u64, InsufficientPages> {
        let at = match self.find(model) {
            Ok(_) => {
                // Re-loading a resident model costs nothing; treat as touch.
                self.touch(model, now);
                return Ok(0);
            }
            Err(at) => at,
        };
        let needed = self.pages_for(weights_bytes).max(1);
        if needed > self.free_pages {
            return Err(InsufficientPages {
                needed,
                available: self.free_pages,
            });
        }
        self.free_pages -= needed;
        let entry = Residency {
            pages: needed,
            last_used: now,
            loaded_at: now,
            refs: 0,
        };
        self.resident.insert(at, (model, entry));
        Ok(needed)
    }

    /// Releases a model's pages. Returns the number of pages freed: 0 if the
    /// model was not resident, or if it is pinned by an in-flight reference —
    /// a referenced model's pages stay mapped and accounted, so an UNLOAD
    /// racing an executing INFER can never free weights out from under the
    /// kernel (and can never double-count the pages when the INFER finishes).
    pub fn release(&mut self, model: ModelId) -> u64 {
        let Ok(at) = self.find(model) else {
            return 0;
        };
        if self.resident[at].1.refs > 0 {
            return 0;
        }
        let (_, r) = self.resident.remove(at);
        self.free_pages += r.pages;
        r.pages
    }

    /// Takes a reference on a resident model's weights (an INFER starting
    /// execution). Returns `false` (and takes nothing) if the model is not
    /// resident. While the reference is held, [`PageCache::release`] refuses
    /// to free the pages and the LRU queries skip the model.
    pub fn pin(&mut self, model: ModelId) -> bool {
        match self.get_mut(model) {
            Some(r) => {
                r.refs += 1;
                true
            }
            None => false,
        }
    }

    /// A resident model's entry, for a caller that checks residency first and
    /// acts on it later: [`Residency::touch_and_pin`] then costs no second
    /// descent of the table. `None` if the model is not resident.
    pub(crate) fn resident_mut(&mut self, model: ModelId) -> Option<&mut Residency> {
        self.get_mut(model)
    }

    /// Drops a reference taken by [`PageCache::pin`]. Unknown or unpinned
    /// models are a no-op: a crash resets the whole cache (dropping every
    /// reference with it), so a completion drained after recovery may
    /// legitimately unpin a model the fresh cache has never seen.
    pub fn unpin(&mut self, model: ModelId) {
        if let Some(r) = self.get_mut(model) {
            r.refs = r.refs.saturating_sub(1);
        }
    }

    /// The number of in-flight references currently pinning a model
    /// (0 if not resident).
    pub fn ref_count(&self, model: ModelId) -> u32 {
        self.find(model).map_or(0, |at| self.resident[at].1.refs)
    }

    /// Pages held by resident models, recomputed from the residency table
    /// rather than derived from the free counter — so the conservation
    /// invariant `free_pages + held_pages == total_pages` actually
    /// cross-checks the two accountings instead of restating one of them.
    pub fn held_pages(&self) -> u64 {
        self.resident.iter().map(|(_, r)| r.pages).sum()
    }

    /// Marks a model as used at `now` (INFER touches its weights).
    pub fn touch(&mut self, model: ModelId, now: Timestamp) {
        if let Some(r) = self.get_mut(model) {
            if now > r.last_used {
                r.last_used = now;
            }
        }
    }

    /// The least recently used resident model, if any. Pinned models are
    /// skipped — their UNLOAD would refuse anyway. Ties break by model id
    /// for determinism.
    pub fn lru_victim(&self) -> Option<ModelId> {
        self.resident
            .iter()
            .filter(|(_, r)| r.refs == 0)
            .min_by_key(|(id, r)| (r.last_used, *id))
            .map(|&(id, _)| id)
    }

    /// The least recently used resident models, excluding `protect` and any
    /// pinned model, in eviction order, whose combined pages are at least
    /// `pages_needed`. Returns `None` if even evicting everything else would
    /// not free enough.
    pub fn lru_victims_for(&self, pages_needed: u64, protect: &[ModelId]) -> Option<Vec<ModelId>> {
        let mut candidates: Vec<&(ModelId, Residency)> = self
            .resident
            .iter()
            .filter(|(id, r)| !protect.contains(id) && r.refs == 0)
            .collect();
        candidates.sort_by_key(|(id, r)| (r.last_used, *id));
        let mut freed = self.free_pages;
        let mut victims = Vec::new();
        for (id, r) in candidates {
            if freed >= pages_needed {
                break;
            }
            freed += r.pages;
            victims.push(*id);
        }
        if freed >= pages_needed {
            Some(victims)
        } else {
            None
        }
    }

    /// Fraction of pages in use, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.total_pages == 0 {
            return 1.0;
        }
        self.used_pages() as f64 / self.total_pages as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_with_pages(pages: u64) -> PageCache {
        PageCache::new(pages * DEFAULT_PAGE_SIZE, DEFAULT_PAGE_SIZE)
    }

    const MB: u64 = 1024 * 1024;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_page_size_panics() {
        let _ = PageCache::new(1024, 0);
    }

    #[test]
    fn v100_page_count_matches_paper_capacity() {
        // A 32 GB V100 minus the 1 GB of workspace + IO cache leaves room for
        // roughly 2000 16 MiB pages; the paper observes GPU capacity is
        // reached at ~201 resident ResNet50s (7 pages each) plus headroom.
        let capacity = 31 * 1024 * MB;
        let cache = PageCache::with_capacity(capacity);
        assert_eq!(cache.total_pages(), 1984);
        assert_eq!(cache.page_size(), DEFAULT_PAGE_SIZE);
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let mut c = cache_with_pages(10);
        let t = Timestamp::from_millis(1);
        let pages = c.allocate(ModelId(1), 100 * MB, t).unwrap();
        assert_eq!(pages, 7);
        assert!(c.contains(ModelId(1)));
        assert_eq!(c.free_pages(), 3);
        assert_eq!(c.used_pages(), 7);
        assert_eq!(c.resident_count(), 1);
        assert_eq!(c.release(ModelId(1)), 7);
        assert_eq!(c.free_pages(), 10);
        assert_eq!(c.release(ModelId(1)), 0, "double release is a no-op");
    }

    #[test]
    fn allocation_failure_has_no_side_effects() {
        let mut c = cache_with_pages(5);
        c.allocate(ModelId(1), 64 * MB, Timestamp::ZERO).unwrap(); // 4 pages
        let err = c
            .allocate(ModelId(2), 48 * MB, Timestamp::ZERO)
            .unwrap_err(); // needs 3
        assert_eq!(err.needed, 3);
        assert_eq!(err.available, 1);
        assert!(!c.contains(ModelId(2)));
        assert_eq!(c.free_pages(), 1);
    }

    #[test]
    fn reloading_a_resident_model_is_free() {
        let mut c = cache_with_pages(10);
        c.allocate(ModelId(1), 32 * MB, Timestamp::ZERO).unwrap();
        let again = c
            .allocate(ModelId(1), 32 * MB, Timestamp::from_millis(5))
            .unwrap();
        assert_eq!(again, 0);
        assert_eq!(c.used_pages(), 2);
    }

    #[test]
    fn tiny_models_still_use_one_page() {
        let mut c = cache_with_pages(4);
        assert_eq!(c.allocate(ModelId(1), 100, Timestamp::ZERO).unwrap(), 1);
        assert_eq!(c.pages_for(0), 0);
        assert_eq!(c.pages_for(1), 1);
        assert_eq!(c.pages_for(DEFAULT_PAGE_SIZE), 1);
        assert_eq!(c.pages_for(DEFAULT_PAGE_SIZE + 1), 2);
    }

    #[test]
    fn lru_victim_follows_usage_order() {
        let mut c = cache_with_pages(10);
        c.allocate(ModelId(1), 16 * MB, Timestamp::from_millis(1))
            .unwrap();
        c.allocate(ModelId(2), 16 * MB, Timestamp::from_millis(2))
            .unwrap();
        c.allocate(ModelId(3), 16 * MB, Timestamp::from_millis(3))
            .unwrap();
        assert_eq!(c.lru_victim(), Some(ModelId(1)));
        c.touch(ModelId(1), Timestamp::from_millis(10));
        assert_eq!(c.lru_victim(), Some(ModelId(2)));
        // Touching with an older timestamp does not move a model backwards.
        c.touch(ModelId(3), Timestamp::from_millis(1));
        assert_eq!(c.lru_victim(), Some(ModelId(2)));
        // Touching an absent model is a no-op.
        c.touch(ModelId(99), Timestamp::from_millis(99));
    }

    #[test]
    fn lru_victims_for_frees_just_enough() {
        let mut c = cache_with_pages(10);
        c.allocate(ModelId(1), 48 * MB, Timestamp::from_millis(1))
            .unwrap(); // 3 pages
        c.allocate(ModelId(2), 48 * MB, Timestamp::from_millis(2))
            .unwrap(); // 3 pages
        c.allocate(ModelId(3), 48 * MB, Timestamp::from_millis(3))
            .unwrap(); // 3 pages
                       // 1 page free; need 4 -> evict the single LRU model (3 pages).
        let victims = c.lru_victims_for(4, &[]).unwrap();
        assert_eq!(victims, vec![ModelId(1)]);
        // Need 7 -> evict two models.
        let victims = c.lru_victims_for(7, &[]).unwrap();
        assert_eq!(victims, vec![ModelId(1), ModelId(2)]);
        // Protecting a model skips it.
        let victims = c.lru_victims_for(4, &[ModelId(1)]).unwrap();
        assert_eq!(victims, vec![ModelId(2)]);
        // Impossible requests return None.
        assert!(c.lru_victims_for(100, &[]).is_none());
        // Already-satisfiable requests need no victims.
        assert_eq!(c.lru_victims_for(1, &[]).unwrap(), Vec::<ModelId>::new());
    }

    #[test]
    fn pinned_models_cannot_be_released_and_pages_conserve() {
        let mut c = cache_with_pages(10);
        c.allocate(ModelId(1), 48 * MB, Timestamp::ZERO).unwrap(); // 3 pages
        c.allocate(ModelId(2), 32 * MB, Timestamp::ZERO).unwrap(); // 2 pages
        assert!(c.pin(ModelId(1)));
        assert!(c.pin(ModelId(1)), "references stack");
        assert_eq!(c.ref_count(ModelId(1)), 2);

        // Release refuses while pinned; nothing leaks, nothing frees.
        assert_eq!(c.release(ModelId(1)), 0);
        assert!(c.contains(ModelId(1)));
        assert_eq!(c.free_pages() + c.held_pages(), c.total_pages());

        // Dropping one reference still protects; dropping the last releases.
        c.unpin(ModelId(1));
        assert_eq!(c.release(ModelId(1)), 0);
        c.unpin(ModelId(1));
        assert_eq!(c.ref_count(ModelId(1)), 0);
        assert_eq!(c.release(ModelId(1)), 3);
        assert_eq!(c.free_pages() + c.held_pages(), c.total_pages());

        // Unpinned model 2 releases normally throughout.
        assert_eq!(c.release(ModelId(2)), 2);
        assert_eq!(c.free_pages(), 10);
        assert_eq!(c.held_pages(), 0);
    }

    #[test]
    fn pin_unpin_edge_cases_are_safe() {
        let mut c = cache_with_pages(4);
        assert!(!c.pin(ModelId(9)), "absent model cannot be pinned");
        c.unpin(ModelId(9)); // no-op
        c.allocate(ModelId(1), 16 * MB, Timestamp::ZERO).unwrap();
        c.unpin(ModelId(1)); // unpin below zero saturates
        assert_eq!(c.ref_count(ModelId(1)), 0);
        assert_eq!(c.release(ModelId(1)), 1);
    }

    #[test]
    fn touch_and_pin_is_touch_then_pin() {
        let mut one = cache_with_pages(4);
        one.allocate(ModelId(1), 16 * MB, Timestamp::from_millis(5))
            .unwrap();
        let mut two = one.clone();
        // Later, earlier (does not move the model backwards) and equal times.
        for ms in [9, 3, 9] {
            let now = Timestamp::from_millis(ms);
            one.resident_mut(ModelId(1)).unwrap().touch_and_pin(now);
            two.touch(ModelId(1), now);
            assert!(two.pin(ModelId(1)));
            assert_eq!(one, two);
        }
        assert_eq!(one.ref_count(ModelId(1)), 3);
        assert!(one.resident_mut(ModelId(9)).is_none());
    }

    #[test]
    fn lru_queries_skip_pinned_models() {
        let mut c = cache_with_pages(10);
        c.allocate(ModelId(1), 48 * MB, Timestamp::from_millis(1))
            .unwrap(); // 3 pages, oldest
        c.allocate(ModelId(2), 48 * MB, Timestamp::from_millis(2))
            .unwrap(); // 3 pages
        c.pin(ModelId(1));
        assert_eq!(c.lru_victim(), Some(ModelId(2)));
        // 4 free pages + 3 from evicting model 2 covers 7; model 1's pages
        // are unreachable while pinned, so 8 is impossible.
        assert_eq!(c.lru_victims_for(7, &[]).unwrap(), vec![ModelId(2)]);
        assert!(c.lru_victims_for(8, &[]).is_none());
        c.unpin(ModelId(1));
        assert_eq!(c.lru_victim(), Some(ModelId(1)));
    }

    #[test]
    fn held_pages_cross_checks_free_counter_under_churn() {
        let mut c = cache_with_pages(16);
        for round in 0..50u64 {
            let id = ModelId((round % 7) as u32);
            let t = Timestamp::from_millis(round);
            if c.contains(id) && round % 3 == 0 {
                c.release(id);
            } else {
                let _ = c.allocate(id, (round % 5 + 1) * 16 * MB, t);
            }
            assert_eq!(
                c.free_pages() + c.held_pages(),
                c.total_pages(),
                "page accounting drifted at round {round}"
            );
        }
    }

    #[test]
    fn occupancy_tracks_usage() {
        let mut c = cache_with_pages(4);
        assert_eq!(c.occupancy(), 0.0);
        c.allocate(ModelId(1), 32 * MB, Timestamp::ZERO).unwrap();
        assert!((c.occupancy() - 0.5).abs() < 1e-12);
        let empty = PageCache::new(0, DEFAULT_PAGE_SIZE);
        assert_eq!(empty.occupancy(), 1.0);
    }

    #[test]
    fn resident_models_lists_everything() {
        let mut c = cache_with_pages(10);
        for id in [7, 5, 9, 1] {
            c.allocate(ModelId(id), 16 * MB, Timestamp::ZERO).unwrap();
        }
        let ids = |c: &PageCache| c.resident_models().iter().map(|m| m.0).collect::<Vec<_>>();
        assert_eq!(ids(&c), vec![1, 5, 7, 9], "ascending, not insertion order");
        c.release(ModelId(5));
        assert_eq!(ids(&c), vec![1, 7, 9]);
    }
}
