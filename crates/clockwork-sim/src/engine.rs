//! Discrete-event simulation core.
//!
//! The experiments in the paper run for minutes to hours of wall-clock time;
//! we replay them in virtual time instead. [`EventQueue`] is a priority queue
//! of timestamped events with deterministic FIFO tie-breaking, and
//! [`SimClock`] tracks the current virtual instant.
//!
//! Higher layers (the system assembly in the `clockwork` crate) define their
//! own event payload type and drive the loop:
//!
//! ```
//! use clockwork_sim::engine::EventQueue;
//! use clockwork_sim::time::{Nanos, Timestamp};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push(Timestamp::from_millis(5), Ev::Tick(2));
//! q.push(Timestamp::from_millis(1), Ev::Tick(1));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, Timestamp::from_millis(1));
//! assert_eq!(ev, Ev::Tick(1));
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::time::{Nanos, Timestamp};

/// A fleet-churn fault delivered by the simulation.
///
/// Faults are part of the simulated world, not of the system under test: a
/// production fleet *will* lose GPUs and whole workers, and links between the
/// controller and workers *will* degrade or partition. Higher layers compile
/// a fault plan into timestamped `FaultKind` events on their event queue and
/// react to each one (drop in-flight work, invalidate residency state,
/// re-admit recovered capacity cold).
///
/// Identifiers are raw indices — the worker's index in the fleet and the GPU's
/// index within that worker — because the sim layer sits below the
/// worker/controller vocabulary. Faults naming workers or GPUs that do not
/// exist are ignored by the layers above.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// One GPU fails: its weights cache and in-flight actions are lost.
    GpuFail {
        /// Fleet index of the worker owning the GPU.
        worker: u32,
        /// GPU index within the worker.
        gpu: u32,
    },
    /// A failed GPU comes back, with an empty (cold) weights cache.
    GpuRecover {
        /// Fleet index of the worker owning the GPU.
        worker: u32,
        /// GPU index within the worker.
        gpu: u32,
    },
    /// The whole worker process crashes: every GPU's cache and every queued
    /// or in-flight action is lost.
    WorkerCrash {
        /// Fleet index of the crashed worker.
        worker: u32,
    },
    /// A crashed worker restarts with cold page caches on every GPU.
    WorkerRestart {
        /// Fleet index of the restarting worker.
        worker: u32,
    },
    /// The controller↔worker link degrades: message delays are multiplied by
    /// `factor_milli / 1000` (integer math keeps the simulation exact).
    LinkDegrade {
        /// Fleet index of the affected worker.
        worker: u32,
        /// Delay multiplier in thousandths (4000 = 4× slower).
        factor_milli: u32,
    },
    /// The link returns to its healthy delay.
    LinkRestore {
        /// Fleet index of the affected worker.
        worker: u32,
    },
    /// The controller↔worker link partitions: messages in either direction
    /// are held (not lost) until the partition heals.
    PartitionStart {
        /// Fleet index of the partitioned worker.
        worker: u32,
    },
    /// The partition heals; held messages are delivered.
    PartitionEnd {
        /// Fleet index of the partitioned worker.
        worker: u32,
    },
    /// A brand-new worker joins the fleet at runtime (elastic scale-up). The
    /// worker is admitted cold: empty page caches, no residency, no history.
    /// Joins naming a fleet index that already exists are ignored.
    WorkerJoin {
        /// Fleet index the new worker will occupy.
        worker: u32,
    },
}

impl FaultKind {
    /// The fleet index of the worker this fault concerns.
    pub fn worker(&self) -> u32 {
        match *self {
            FaultKind::GpuFail { worker, .. }
            | FaultKind::GpuRecover { worker, .. }
            | FaultKind::WorkerCrash { worker }
            | FaultKind::WorkerRestart { worker }
            | FaultKind::LinkDegrade { worker, .. }
            | FaultKind::LinkRestore { worker }
            | FaultKind::PartitionStart { worker }
            | FaultKind::PartitionEnd { worker }
            | FaultKind::WorkerJoin { worker } => worker,
        }
    }

    /// A short snake_case label for telemetry and experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::GpuFail { .. } => "gpu_fail",
            FaultKind::GpuRecover { .. } => "gpu_recover",
            FaultKind::WorkerCrash { .. } => "worker_crash",
            FaultKind::WorkerRestart { .. } => "worker_restart",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::LinkRestore { .. } => "link_restore",
            FaultKind::PartitionStart { .. } => "partition_start",
            FaultKind::PartitionEnd { .. } => "partition_end",
            FaultKind::WorkerJoin { .. } => "worker_join",
        }
    }

    /// A stable numeric code per variant, used when folding fault events into
    /// determinism digests.
    pub fn digest_code(&self) -> u64 {
        match self {
            FaultKind::GpuFail { .. } => 1,
            FaultKind::GpuRecover { .. } => 2,
            FaultKind::WorkerCrash { .. } => 3,
            FaultKind::WorkerRestart { .. } => 4,
            FaultKind::LinkDegrade { .. } => 5,
            FaultKind::LinkRestore { .. } => 6,
            FaultKind::PartitionStart { .. } => 7,
            FaultKind::PartitionEnd { .. } => 8,
            FaultKind::WorkerJoin { .. } => 9,
        }
    }

    /// The variant's auxiliary payload (GPU index or delay factor; 0 for
    /// worker-level faults), used alongside [`FaultKind::digest_code`].
    pub fn aux(&self) -> u64 {
        match *self {
            FaultKind::GpuFail { gpu, .. } | FaultKind::GpuRecover { gpu, .. } => u64::from(gpu),
            FaultKind::LinkDegrade { factor_milli, .. } => u64::from(factor_milli),
            _ => 0,
        }
    }

    /// Whether this fault restores capacity or connectivity rather than
    /// removing it.
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            FaultKind::GpuRecover { .. }
                | FaultKind::WorkerRestart { .. }
                | FaultKind::LinkRestore { .. }
                | FaultKind::PartitionEnd { .. }
        )
    }
}

const RUN_ENDED_EARLY: &str = "a sorted run's source yields as many entries as it reported";

/// A handle identifying a scheduled event, usable for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

struct Scheduled<E> {
    at: Timestamp,
    seq: u64,
    id: EventId,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break by insertion order (seq) for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-sorted batch kept beside the heap instead of heapified into it.
///
/// The earliest undelivered entry is materialised in `at` / `payload`; the
/// rest are still in `rest`, which builds each one only when it becomes the
/// head. The batch's ids and `seq` numbers were reserved as one block at
/// submission, so the head's `seq` is all that is needed to order it against
/// the heap exactly as if every entry had been pushed one by one.
struct Run<E> {
    at: Timestamp,
    seq: u64,
    payload: E,
    rest: Box<dyn Iterator<Item = (Timestamp, E)> + Send>,
    /// Entries `rest` still owes after the head.
    owed: usize,
}

/// A deterministic, cancellable priority queue of timestamped events.
///
/// Events pushed one at a time live in a binary heap; a batch submitted in
/// time order ([`EventQueue::push_run`], or a sorted
/// [`EventQueue::push_batch`]) stays a sorted run beside it, and delivery
/// takes the smaller `(time, seq)` of the run's head and the heap's top. The
/// heap therefore holds only what is in flight — a push or pop sifts
/// `log(in-flight)` levels however many arrivals a replayed trace still has
/// to deliver — and a run entry costs one comparison and no sift at all.
///
/// Event ids are dense (0, 1, 2, …), so liveness is tracked in a bitset of
/// *dead* ids rather than a hash set of live ones: pushes touch only the
/// heap, cancellation flips one bit (the tombstone), and delivery skips
/// tombstoned heap entries when they surface — one bit per event ever
/// scheduled instead of a hash insert + remove per event. Run entries hand
/// out no [`EventId`], so nothing can cancel them: their ids are born dead
/// and they are never probed.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// The pending sorted run, if any. At most one: a run submitted while
    /// another is pending is spilled to the heap.
    run: Option<Run<E>>,
    next_seq: u64,
    next_id: u64,
    /// Bit `i` is set once event `i` can no longer be cancelled: delivered,
    /// cancelled, or a run entry.
    dead: Vec<u64>,
    /// Number of scheduled events that are neither delivered nor cancelled.
    live: usize,
    /// Events delivered by `pop` so far.
    delivered: u64,
    /// Events cancelled before delivery so far.
    cancelled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            run: None,
            next_seq: 0,
            next_id: 0,
            dead: Vec::new(),
            live: 0,
            delivered: 0,
            cancelled: 0,
        }
    }

    fn is_dead(&self, id: EventId) -> bool {
        let (word, bit) = (id.0 / 64, id.0 % 64);
        self.dead
            .get(word as usize)
            .is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Marks an id dead; returns `false` if it already was.
    fn mark_dead(&mut self, id: EventId) -> bool {
        let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
        if word >= self.dead.len() {
            self.dead.resize(word + 1, 0);
        }
        let fresh = self.dead[word] & (1 << bit) == 0;
        self.dead[word] |= 1 << bit;
        fresh
    }

    /// Schedules an event at an absolute virtual time.
    pub fn push(&mut self, at: Timestamp, payload: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.heap.push(Scheduled {
            at,
            seq,
            id,
            payload,
        });
        id
    }

    /// Schedules a batch of events in one call.
    ///
    /// Equivalent to pushing each `(at, payload)` pair in order — same
    /// delivery order, same counters. A batch whose times are non-decreasing
    /// becomes a sorted run ([`EventQueue::push_run`]) and never enters the
    /// heap; any other batch is pushed entry by entry.
    pub fn push_batch<I>(&mut self, events: I)
    where
        I: IntoIterator<Item = (Timestamp, E)>,
        E: Send + 'static,
    {
        let events: Vec<(Timestamp, E)> = events.into_iter().collect();
        if events.windows(2).all(|pair| pair[0].0 <= pair[1].0) {
            self.push_run(events.into_iter());
        } else {
            self.heap.reserve(events.len());
            for (at, payload) in events {
                self.push(at, payload);
            }
        }
    }

    /// Schedules every event of `source`, whose times must be non-decreasing,
    /// without heapifying them: the batch stays a sorted run beside the heap
    /// and `source` is asked for each entry only when it becomes the run's
    /// head, so a replayed trace can build its event payloads on demand.
    ///
    /// Equivalent to pushing each `(at, payload)` pair in order: the batch's
    /// ids and tie-breaking sequence numbers are reserved here, as one block,
    /// and [`EventQueue::len`] / [`EventQueue::pushed_total`] count the whole
    /// batch from now on. Run entries return no [`EventId`] and cannot be
    /// cancelled. A run submitted while another is still pending is spilled
    /// to the heap entry by entry, which keeps the global `(time, seq)`
    /// delivery order with one comparison per pop.
    ///
    /// # Panics
    ///
    /// When a pending run's source yields fewer entries than it reported, or
    /// one earlier than its predecessor.
    pub fn push_run<I>(&mut self, source: I)
    where
        I: ExactSizeIterator<Item = (Timestamp, E)> + Send + 'static,
    {
        if self.run.is_some() {
            for (at, payload) in source {
                self.push(at, payload);
            }
            return;
        }
        let len = source.len();
        if len == 0 {
            return;
        }
        let mut rest = Box::new(source);
        let (at, payload) = rest.next().expect(RUN_ENDED_EARLY);
        self.run = Some(Run {
            at,
            seq: self.next_seq,
            payload,
            rest,
            owed: len - 1,
        });
        // No handle to a run entry exists, so its id is born dead: a foreign
        // `EventId` must not be able to cancel what will still be delivered.
        for id in self.next_id..self.next_id + len as u64 {
            self.mark_dead(EventId(id));
        }
        self.next_id += len as u64;
        self.next_seq += len as u64;
        self.live += len;
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet been delivered or cancelled.
    /// The entry stays in the heap as a tombstone and is discarded when it
    /// surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_id {
            return false; // never scheduled
        }
        if self.mark_dead(id) {
            self.live -= 1;
            self.cancelled += 1;
            true
        } else {
            false
        }
    }

    /// Moves a scheduled event: cancels `prev` (a no-op if it was already
    /// delivered or cancelled) and schedules `payload` at `at` in its place,
    /// returning the new handle.
    ///
    /// This is the decrease-key of the tombstone scheme — the superseded
    /// entry stays in the heap as a tombstone instead of being sifted out, so
    /// a reschedule costs one bitset flip plus one push. Equivalent to
    /// `cancel(prev)` followed by `push(at, payload)`; at most one of the two
    /// entries is ever delivered.
    pub fn reschedule(&mut self, prev: EventId, at: Timestamp, payload: E) -> EventId {
        self.cancel(prev);
        self.push(at, payload)
    }

    /// Removes and returns the earliest live event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.pop_due(Timestamp::MAX)
    }

    /// Removes and returns the earliest event if it is scheduled at or before
    /// `now`: one run-head-versus-heap-top comparison and, for a heap entry,
    /// one tombstone probe per delivered event.
    pub fn pop_due(&mut self, now: Timestamp) -> Option<(Timestamp, E)> {
        loop {
            let Some(top) = self.heap.peek() else {
                return self.pop_run_due(now);
            };
            if let Some(run) = &self.run {
                if (run.at, run.seq) < (top.at, top.seq) {
                    return self.pop_run_due(now);
                }
            }
            // A tombstone on top still bounds everything behind it, run
            // head included, so "not due" needs no probe.
            if top.at > now {
                return None;
            }
            let ev = self.heap.pop().expect("peeked entry exists");
            if self.mark_dead(ev.id) {
                self.live -= 1;
                self.delivered += 1;
                return Some((ev.at, ev.payload));
            }
        }
    }

    /// Delivers the pending run's head if there is one and it is due by
    /// `now`, materialising the entry behind it.
    fn pop_run_due(&mut self, now: Timestamp) -> Option<(Timestamp, E)> {
        let run = self.run.as_mut()?;
        if run.at > now {
            return None;
        }
        self.live -= 1;
        self.delivered += 1;
        if run.owed == 0 {
            return self.run.take().map(|run| (run.at, run.payload));
        }
        run.owed -= 1;
        let (at, payload) = run.rest.next().expect(RUN_ENDED_EARLY);
        assert!(at >= run.at, "a sorted run's source went back in time");
        run.seq += 1;
        Some((
            std::mem::replace(&mut run.at, at),
            std::mem::replace(&mut run.payload, payload),
        ))
    }

    /// The timestamp of the earliest live event, without removing it.
    pub fn peek_time(&mut self) -> Option<Timestamp> {
        while let Some(ev) = self.heap.peek() {
            if !self.is_dead(ev.id) {
                break;
            }
            self.heap.pop();
        }
        let top = self.heap.peek().map(|ev| ev.at);
        let head = self.run.as_ref().map(|run| run.at);
        match (head, top) {
            (Some(head), Some(top)) => Some(head.min(top)),
            (head, top) => head.or(top),
        }
    }

    /// Entries physically in the heap, tombstones included — a diagnostic
    /// for how much of [`EventQueue::len`] is in flight rather than waiting
    /// in a sorted run.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Number of live (not yet delivered, not cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total events ever scheduled on this queue.
    ///
    /// The counters satisfy `pushed_total == delivered_total +
    /// cancelled_total + len()` at every instant — the conservation identity
    /// the perf harnesses assert over a whole run.
    pub fn pushed_total(&self) -> u64 {
        self.next_id
    }

    /// Total events delivered by [`EventQueue::pop`].
    pub fn delivered_total(&self) -> u64 {
        self.delivered
    }

    /// Total events cancelled before delivery.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled
    }
}

/// The virtual clock of a simulation.
///
/// The clock only moves forward; [`SimClock::advance_to`] with an earlier
/// timestamp is a no-op, which makes it safe to advance from out-of-order
/// notification sources.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimClock {
    now: Timestamp,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock {
            now: Timestamp::ZERO,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advances the clock to `t` if `t` is in the future.
    pub fn advance_to(&mut self, t: Timestamp) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Advances the clock by a duration and returns the new time.
    pub fn advance_by(&mut self, d: Nanos) -> Timestamp {
        self.now += d;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp::from_millis(30), "c");
        q.push(Timestamp::from_millis(10), "a");
        q.push(Timestamp::from_millis(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Timestamp::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancellation_removes_events() {
        let mut q = EventQueue::new();
        let a = q.push(Timestamp::from_millis(1), "a");
        let b = q.push(Timestamp::from_millis(2), "b");
        q.push(Timestamp::from_millis(3), "c");
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double cancel reports false");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(!q.cancel(a), "cancelling a delivered event is a no-op");
        assert!(!q.cancel(EventId(999)), "unknown ids are rejected");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(Timestamp::from_millis(1), 1);
        q.push(Timestamp::from_millis(2), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Timestamp::from_millis(2)));
    }

    #[test]
    fn push_batch_matches_individual_pushes() {
        // An unsorted batch takes the heap: descending times, each twice, so
        // the ties must break by batch position.
        let mut q = EventQueue::new();
        q.push_batch((0..50u32).map(|i| (Timestamp::from_millis(u64::from(100 - i / 2)), i)));
        assert_eq!((q.len(), q.heap_len()), (50, 50));
        let mut seen = Vec::new();
        while let Some((_, ev)) = q.pop() {
            seen.push(ev);
        }
        let expected: Vec<u32> = (0..25).rev().flat_map(|i| [2 * i, 2 * i + 1]).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn a_sorted_batch_never_enters_the_heap() {
        let mut q = EventQueue::new();
        let early = q.push(Timestamp::from_millis(7), u64::MAX);
        q.push_batch((0..100_000u64).map(|i| (Timestamp::from_millis(i / 3), i)));
        assert!(q.cancel(early));
        assert_eq!(q.peek_time(), Some(Timestamp::ZERO));
        assert_eq!((q.len(), q.heap_len()), (100_000, 0));
        assert_eq!((q.pushed_total(), q.cancelled_total()), (100_001, 1));
        for i in 0..100_000u64 {
            assert_eq!(q.pop(), Some((Timestamp::from_millis(i / 3), i)));
            assert_eq!(q.heap_len(), 0);
        }
        assert!(q.pop().is_none() && q.is_empty());
        assert_eq!(q.delivered_total(), 100_000);
    }

    #[test]
    fn run_entries_tie_with_heap_entries_by_submission_order() {
        let t = Timestamp::from_millis(5);
        let mut q = EventQueue::new();
        q.push(t, "before");
        q.push_batch([(t, "run 0"), (t, "run 1")]);
        q.push(t, "after");
        // A second sorted batch while the first is pending spills to the heap.
        q.push_batch([(Timestamp::ZERO, "spilled early"), (t, "spilled tie")]);
        assert_eq!(q.heap_len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop_due(t))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(
            order,
            [
                "spilled early",
                "before",
                "run 0",
                "run 1",
                "after",
                "spilled tie"
            ]
        );
        assert_eq!(q.pushed_total(), q.delivered_total());
    }

    #[test]
    fn run_ids_are_reserved_but_have_no_handle() {
        let mut q = EventQueue::new();
        let before: Vec<_> = (0..5).map(|i| q.push(Timestamp::ZERO, i)).collect();
        // Ids 5..135: the block straddles three words of the bitset.
        q.push_batch((5..135).map(|i| (Timestamp::ZERO, i)));
        let after = q.push(Timestamp::ZERO, 135);
        assert_eq!((before[4], after), (EventId(4), EventId(135)));
        for id in 5..135 {
            assert!(!q.cancel(EventId(id)), "run entry {id} was cancellable");
        }
        assert!(q.cancel(before[4]) && q.cancel(after));
        assert_eq!((q.len(), q.cancelled_total()), (134, 2));
        let delivered: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(delivered, (0..4).chain(5..135).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_after_delivery_and_unknown_ids_are_rejected() {
        let mut q = EventQueue::new();
        let a = q.push(Timestamp::from_millis(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(!q.cancel(a), "delivered events cannot be cancelled");
        assert!(!q.cancel(EventId(u64::MAX)), "unknown ids are rejected");
        assert!(q.is_empty());
    }

    #[test]
    fn reschedule_supersedes_the_previous_entry() {
        let mut q = EventQueue::new();
        let a = q.push(Timestamp::from_millis(50), "late");
        q.push(Timestamp::from_millis(20), "other");
        let b = q.reschedule(a, Timestamp::from_millis(5), "early");
        assert_ne!(a, b);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap(), (Timestamp::from_millis(5), "early"));
        assert_eq!(q.pop().unwrap().1, "other");
        assert!(q.pop().is_none(), "the superseded entry is never delivered");
        // Rescheduling a delivered event degenerates to a plain push.
        let c = q.reschedule(b, Timestamp::from_millis(9), "again");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(c));
    }

    #[test]
    fn counters_satisfy_conservation() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10u64)
            .map(|i| q.push(Timestamp::from_millis(i), i))
            .collect();
        assert!(q.cancel(ids[3]));
        let moved = q.reschedule(ids[7], Timestamp::from_millis(99), 77);
        assert_eq!(q.pushed_total(), 11);
        assert_eq!(q.cancelled_total(), 2);
        while q.pop().is_some() {}
        assert_eq!(q.delivered_total(), 9);
        assert_eq!(
            q.pushed_total(),
            q.delivered_total() + q.cancelled_total() + q.len() as u64
        );
        assert!(!q.cancel(moved), "already delivered");
    }

    #[test]
    fn pop_due_only_returns_past_events() {
        let mut q = EventQueue::new();
        q.push(Timestamp::from_millis(10), 1);
        assert!(q.pop_due(Timestamp::from_millis(5)).is_none());
        assert!(q.pop_due(Timestamp::from_millis(10)).is_some());
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = SimClock::new();
        c.advance_to(Timestamp::from_millis(10));
        c.advance_to(Timestamp::from_millis(5));
        assert_eq!(c.now(), Timestamp::from_millis(10));
        assert_eq!(
            c.advance_by(Nanos::from_millis(3)),
            Timestamp::from_millis(13)
        );
    }
}
