//! Property-based tests for the predictable-worker building blocks.
//!
//! The worker's predictability rests on a handful of invariants: the paged
//! weights cache conserves pages and never evicts on its own, the IO staging
//! area never over-commits, executors dequeue chronologically and never start
//! an action before its `earliest` bound, and execution windows behave like
//! closed intervals. These properties are exercised here over arbitrary
//! operation sequences.

use proptest::prelude::*;

use clockwork_model::ModelId;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::action::{Action, ActionId, ActionKind, GpuId, TimeWindow};
use clockwork_worker::executor::Executor;
use clockwork_worker::io_cache::IoCache;
use clockwork_worker::page_cache::PageCache;

const DAY_NS: u64 = 86_400_000_000_000;
const PAGE: u64 = 16 * 1024 * 1024;

fn timestamp() -> impl Strategy<Value = Timestamp> {
    (0u64..DAY_NS).prop_map(Timestamp::from_nanos)
}

/// An arbitrary page-cache operation.
#[derive(Clone, Debug)]
enum CacheOp {
    Allocate { model: u32, weights_mb: u64 },
    Release { model: u32 },
    Touch { model: u32 },
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u32..40, 1u64..600)
            .prop_map(|(model, weights_mb)| CacheOp::Allocate { model, weights_mb }),
        (0u32..40).prop_map(|model| CacheOp::Release { model }),
        (0u32..40).prop_map(|model| CacheOp::Touch { model }),
    ]
}

proptest! {
    // ------------------------------------------------------------------
    // PageCache
    // ------------------------------------------------------------------

    #[test]
    fn page_cache_conserves_pages_under_arbitrary_ops(
        ops in proptest::collection::vec(cache_op(), 0..300),
        capacity_pages in 1u64..2048,
    ) {
        let mut cache = PageCache::new(capacity_pages * PAGE, PAGE);
        prop_assert_eq!(cache.total_pages(), capacity_pages);
        let mut now = Timestamp::ZERO;
        for op in ops {
            now += Nanos::from_micros(10);
            match op {
                CacheOp::Allocate { model, weights_mb } => {
                    let model = ModelId(model);
                    let bytes = weights_mb * 1024 * 1024;
                    let was_resident = cache.contains(model);
                    let needed = cache.pages_for(bytes).max(1);
                    let free_before = cache.free_pages();
                    match cache.allocate(model, bytes, now) {
                        Ok(pages) => {
                            if was_resident {
                                // Re-loading a resident model is a no-op touch.
                                prop_assert_eq!(pages, 0);
                                prop_assert_eq!(cache.free_pages(), free_before);
                            } else {
                                prop_assert_eq!(pages, needed);
                                prop_assert_eq!(cache.free_pages(), free_before - needed);
                            }
                            prop_assert!(cache.contains(model));
                        }
                        Err(e) => {
                            // Rejected allocations have no side effects.
                            prop_assert!(!was_resident);
                            prop_assert_eq!(e.needed, needed);
                            prop_assert_eq!(e.available, free_before);
                            prop_assert_eq!(cache.free_pages(), free_before);
                            prop_assert!(!cache.contains(model));
                        }
                    }
                }
                CacheOp::Release { model } => {
                    let model = ModelId(model);
                    let was_resident = cache.contains(model);
                    let free_before = cache.free_pages();
                    let freed = cache.release(model);
                    if was_resident {
                        prop_assert!(freed > 0);
                    } else {
                        prop_assert_eq!(freed, 0);
                    }
                    prop_assert_eq!(cache.free_pages(), free_before + freed);
                    prop_assert!(!cache.contains(model));
                }
                CacheOp::Touch { model } => {
                    let free_before = cache.free_pages();
                    cache.touch(ModelId(model), now);
                    prop_assert_eq!(cache.free_pages(), free_before);
                }
            }
            // Global conservation: free + used == total, occupancy in [0, 1].
            prop_assert_eq!(cache.free_pages() + cache.used_pages(), cache.total_pages());
            prop_assert!(cache.free_pages() <= cache.total_pages());
            prop_assert!((0.0..=1.0).contains(&cache.occupancy()));
            prop_assert_eq!(cache.resident_models().len(), cache.resident_count());
        }
    }

    #[test]
    fn page_cache_lru_victim_is_least_recently_touched(
        n in 2usize..20,
        touch_order in proptest::collection::vec(0usize..20, 1..60),
    ) {
        let mut cache = PageCache::new(1024 * PAGE, PAGE);
        let mut now = Timestamp::ZERO;
        let mut last_touch = vec![Timestamp::ZERO; n];
        for (i, touch) in last_touch.iter_mut().enumerate() {
            now += Nanos::from_millis(1);
            cache
                .allocate(ModelId(i as u32), 4 * PAGE, now)
                .expect("cache sized to fit all models");
            *touch = now;
        }
        for &idx in &touch_order {
            if idx >= n {
                continue;
            }
            now += Nanos::from_millis(1);
            cache.touch(ModelId(idx as u32), now);
            last_touch[idx] = now;
        }
        let expected = (0..n)
            .min_by_key(|&i| (last_touch[i], i))
            .map(|i| ModelId(i as u32));
        prop_assert_eq!(cache.lru_victim(), expected);
    }

    #[test]
    fn page_cache_victim_selection_frees_enough_and_respects_protection(
        residents in proptest::collection::vec(1u64..50, 2..30),
        needed_pages in 1u64..400,
        protect_idx in any::<prop::sample::Index>(),
    ) {
        let total: u64 = 4096;
        let mut cache = PageCache::new(total * PAGE, PAGE);
        let mut now = Timestamp::ZERO;
        for (i, pages) in residents.iter().enumerate() {
            now += Nanos::from_millis(1);
            cache
                .allocate(ModelId(i as u32), pages * PAGE, now)
                .expect("within capacity");
        }
        let protect = ModelId(protect_idx.index(residents.len()) as u32);
        match cache.lru_victims_for(needed_pages, &[protect]) {
            Some(victims) => {
                prop_assert!(!victims.contains(&protect));
                // Evicting the victims frees at least the requested pages.
                let mut sim = cache.clone();
                for v in &victims {
                    sim.release(*v);
                }
                prop_assert!(sim.free_pages() >= needed_pages);
            }
            None => {
                // Even evicting everything except the protected model would
                // not be enough.
                let mut sim = cache.clone();
                for m in sim.resident_models() {
                    if m != protect {
                        sim.release(m);
                    }
                }
                prop_assert!(sim.free_pages() < needed_pages);
            }
        }
    }

    // ------------------------------------------------------------------
    // IoCache
    // ------------------------------------------------------------------

    #[test]
    fn io_cache_never_over_commits(
        capacity in 1u64..1u64 << 30,
        ops in proptest::collection::vec((any::<bool>(), 1u64..1u64 << 24), 0..200),
    ) {
        let mut cache = IoCache::new(capacity);
        let mut live: Vec<u64> = Vec::new();
        for (is_acquire, bytes) in ops {
            if is_acquire {
                let fits = bytes <= cache.available();
                match cache.acquire(bytes) {
                    Ok(()) => {
                        prop_assert!(fits);
                        live.push(bytes);
                    }
                    Err(_) => prop_assert!(!fits),
                }
            } else if let Some(bytes) = live.pop() {
                cache.release(bytes);
            }
            let used: u64 = live.iter().sum();
            prop_assert_eq!(cache.used(), used);
            prop_assert_eq!(cache.available(), capacity - used);
            prop_assert!(cache.peak() >= cache.used());
            prop_assert!(cache.used() <= cache.capacity());
        }
        prop_assert_eq!(cache.acquires() as usize + cache.rejections() as usize,
            // Every acquire attempt is counted exactly once.
            cache.acquires() as usize + cache.rejections() as usize);
    }

    // ------------------------------------------------------------------
    // TimeWindow
    // ------------------------------------------------------------------

    #[test]
    fn window_is_a_closed_interval(start in timestamp(), width_ns in 0u64..DAY_NS, probe in timestamp()) {
        let w = TimeWindow::starting_at(start, Nanos::from_nanos(width_ns));
        prop_assert_eq!(w.width(), Nanos::from_nanos(width_ns));
        prop_assert!(w.contains(w.earliest));
        prop_assert!(w.contains(w.latest));
        prop_assert_eq!(w.contains(probe), probe >= w.earliest && probe <= w.latest);
        prop_assert_eq!(w.expired(probe), probe > w.latest);
        // A window is never simultaneously open and expired.
        prop_assert!(!(w.contains(probe) && w.expired(probe)));
    }

    #[test]
    fn always_window_never_expires(probe in timestamp()) {
        let w = TimeWindow::always();
        prop_assert!(w.contains(probe));
        prop_assert!(!w.expired(probe));
    }

    // ------------------------------------------------------------------
    // Executor
    // ------------------------------------------------------------------

    #[test]
    fn executor_dequeues_by_earliest_and_never_starts_early(
        actions in proptest::collection::vec((0u64..DAY_NS, 0u64..DAY_NS, 0u64..1_000_000u64), 1..100),
    ) {
        let mut exec = Executor::new();
        for (i, (received, earliest, width_us)) in actions.iter().enumerate() {
            let action = Action {
                id: ActionId(i as u64),
                gpu: GpuId(0),
                kind: ActionKind::Load { model: ModelId(i as u32) },
                window: TimeWindow::starting_at(
                    Timestamp::from_nanos(*earliest),
                    Nanos::from_micros(*width_us),
                ),
                expected_duration: Nanos::from_millis(1),
            };
            exec.push(action, Timestamp::from_nanos(*received));
        }
        prop_assert_eq!(exec.queue_len(), actions.len());

        // Drain by repeatedly advancing "now" to the next feasible start.
        let mut now = Timestamp::ZERO;
        let mut popped = 0usize;
        let mut last_earliest = Timestamp::ZERO;
        while let Some(next) = exec.next_start_time() {
            if next > now {
                // Before the feasible start time, nothing may be released.
                prop_assert!(exec.pop_ready(now).is_none(),
                    "pop_ready returned an action before its feasible start");
                now = next;
            }
            let qa = exec.pop_ready(now).expect("feasible action must pop");
            // Never started before its earliest bound or before it arrived.
            prop_assert!(now >= qa.action.window.earliest);
            prop_assert!(now >= qa.received);
            // Heap order: earliest bounds are non-decreasing.
            prop_assert!(qa.action.window.earliest >= last_earliest);
            last_earliest = qa.action.window.earliest;
            popped += 1;
        }
        prop_assert_eq!(popped, actions.len());
        prop_assert_eq!(exec.started(), actions.len() as u64);
        prop_assert!(exec.is_empty());
    }

    #[test]
    fn executor_busy_until_is_monotone(marks in proptest::collection::vec(0u64..DAY_NS, 0..100)) {
        let mut exec = Executor::new();
        let mut high_water = Timestamp::ZERO;
        for m in marks {
            let t = Timestamp::from_nanos(m);
            exec.occupy_until(t);
            high_water = high_water.max(t);
            prop_assert_eq!(exec.busy_until(), high_water);
        }
    }

    #[test]
    fn executor_respects_occupancy_before_releasing_work(
        busy_ns in 1u64..DAY_NS,
        earliest_ns in 0u64..DAY_NS,
    ) {
        let mut exec = Executor::new();
        exec.occupy_until(Timestamp::from_nanos(busy_ns));
        let action = Action {
            id: ActionId(1),
            gpu: GpuId(0),
            kind: ActionKind::Load { model: ModelId(1) },
            window: TimeWindow::starting_at(Timestamp::from_nanos(earliest_ns), Nanos::from_secs(3600)),
            expected_duration: Nanos::from_millis(1),
        };
        exec.push(action, Timestamp::ZERO);
        let feasible = exec.next_start_time().expect("one action queued");
        prop_assert_eq!(
            feasible,
            Timestamp::from_nanos(busy_ns).max(Timestamp::from_nanos(earliest_ns))
        );
        // One nanosecond before the feasible start nothing pops.
        if feasible > Timestamp::ZERO {
            prop_assert!(exec.pop_ready(feasible - Nanos::from_nanos(1)).is_none());
        }
        prop_assert!(exec.pop_ready(feasible).is_some());
    }
}

/// The sorted `Vec` against the structure it replaced: `PageCache` as it was
/// until PR 25, over a `BTreeMap`, driven through every public method with
/// the same random operations.
mod btree_twin {
    use std::collections::BTreeMap;

    use clockwork_worker::page_cache::InsufficientPages;

    use super::*;

    const MODELS: u32 = 10;
    const MB: u64 = 1024 * 1024;

    struct Entry {
        pages: u64,
        last_used: Timestamp,
        refs: u32,
    }

    struct Twin {
        free_pages: u64,
        resident: BTreeMap<ModelId, Entry>,
    }

    impl Twin {
        fn allocate(
            &mut self,
            model: ModelId,
            bytes: u64,
            now: Timestamp,
        ) -> Result<u64, InsufficientPages> {
            if self.resident.contains_key(&model) {
                self.touch(model, now);
                return Ok(0);
            }
            let needed = bytes.div_ceil(PAGE).max(1);
            if needed > self.free_pages {
                let available = self.free_pages;
                return Err(InsufficientPages { needed, available });
            }
            self.free_pages -= needed;
            let entry = Entry {
                pages: needed,
                last_used: now,
                refs: 0,
            };
            self.resident.insert(model, entry);
            Ok(needed)
        }

        fn release(&mut self, model: ModelId) -> u64 {
            if self.resident.get(&model).is_some_and(|r| r.refs > 0) {
                return 0;
            }
            let Some(r) = self.resident.remove(&model) else {
                return 0;
            };
            self.free_pages += r.pages;
            r.pages
        }

        fn pin(&mut self, model: ModelId) -> bool {
            let Some(r) = self.resident.get_mut(&model) else {
                return false;
            };
            r.refs += 1;
            true
        }

        fn unpin(&mut self, model: ModelId) {
            if let Some(r) = self.resident.get_mut(&model) {
                r.refs = r.refs.saturating_sub(1);
            }
        }

        fn touch(&mut self, model: ModelId, now: Timestamp) {
            if let Some(r) = self.resident.get_mut(&model) {
                r.last_used = r.last_used.max(now);
            }
        }

        fn lru_victim(&self) -> Option<ModelId> {
            let unpinned = self.resident.iter().filter(|(_, r)| r.refs == 0);
            unpinned
                .min_by_key(|(id, r)| (r.last_used, **id))
                .map(|(id, _)| *id)
        }

        fn lru_victims_for(&self, pages_needed: u64, protect: &[ModelId]) -> Option<Vec<ModelId>> {
            let mut candidates: Vec<(&ModelId, &Entry)> = self
                .resident
                .iter()
                .filter(|(id, r)| !protect.contains(id) && r.refs == 0)
                .collect();
            candidates.sort_by_key(|(id, r)| (r.last_used, **id));
            let mut freed = self.free_pages;
            let mut victims = Vec::new();
            for (id, r) in candidates {
                if freed >= pages_needed {
                    break;
                }
                freed += r.pages;
                victims.push(*id);
            }
            (freed >= pages_needed).then_some(victims)
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Allocate { model: u32, mb: u64, ms: u64 },
        Release { model: u32 },
        Pin { model: u32 },
        Unpin { model: u32 },
        Touch { model: u32, ms: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        let model = || 0..MODELS;
        let allocate = || {
            (model(), 1u64..120, 0u64..20).prop_map(|(model, mb, ms)| Op::Allocate {
                model,
                mb,
                ms,
            })
        };
        prop_oneof![
            allocate(),
            allocate(),
            model().prop_map(|model| Op::Release { model }),
            model().prop_map(|model| Op::Pin { model }),
            model().prop_map(|model| Op::Unpin { model }),
            (model(), 0u64..20).prop_map(|(model, ms)| Op::Touch { model, ms }),
            (model(), 0u64..20).prop_map(|(model, ms)| Op::Touch { model, ms }),
        ]
    }

    proptest! {
        /// After every operation both caches return the same from every
        /// mutator and every query, the LRU ones under random protect sets
        /// and page counts.
        #[test]
        fn every_method_answers_what_the_btree_cache_did(
            ops in proptest::collection::vec(op(), 0..160),
            pages in 4u64..40,
            asks in proptest::collection::vec((0u64..48, 0u32..1 << MODELS), 3),
        ) {
            let mut c = PageCache::new(pages * PAGE, PAGE);
            let mut twin = Twin { free_pages: pages, resident: BTreeMap::new() };
            for op in ops {
                match op {
                    Op::Allocate { model, mb, ms } => {
                        let (m, now) = (ModelId(model), Timestamp::from_millis(ms));
                        prop_assert_eq!(c.allocate(m, mb * MB, now), twin.allocate(m, mb * MB, now));
                    }
                    Op::Release { model } => {
                        prop_assert_eq!(c.release(ModelId(model)), twin.release(ModelId(model)));
                    }
                    Op::Pin { model } => {
                        prop_assert_eq!(c.pin(ModelId(model)), twin.pin(ModelId(model)));
                    }
                    Op::Unpin { model } => {
                        c.unpin(ModelId(model));
                        twin.unpin(ModelId(model));
                    }
                    Op::Touch { model, ms } => {
                        c.touch(ModelId(model), Timestamp::from_millis(ms));
                        twin.touch(ModelId(model), Timestamp::from_millis(ms));
                    }
                }
                let held: Vec<ModelId> = twin.resident.keys().copied().collect();
                prop_assert_eq!(c.resident_models(), held);
                prop_assert_eq!(c.resident_count(), twin.resident.len());
                prop_assert_eq!(c.free_pages(), twin.free_pages);
                prop_assert_eq!(c.used_pages(), pages - twin.free_pages);
                let twin_held: u64 = twin.resident.values().map(|r| r.pages).sum();
                prop_assert_eq!(c.held_pages(), twin_held);
                for m in (0..MODELS).map(ModelId) {
                    prop_assert_eq!(c.contains(m), twin.resident.contains_key(&m));
                    prop_assert_eq!(c.ref_count(m), twin.resident.get(&m).map_or(0, |r| r.refs));
                }
                prop_assert_eq!(c.lru_victim(), twin.lru_victim());
                for &(needed, mask) in &asks {
                    let protect: Vec<ModelId> =
                        (0..MODELS).filter(|m| mask >> m & 1 == 1).map(ModelId).collect();
                    prop_assert_eq!(
                        c.lru_victims_for(needed, &protect),
                        twin.lru_victims_for(needed, &protect)
                    );
                }
            }
        }
    }
}
