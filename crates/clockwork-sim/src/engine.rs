//! Discrete-event simulation core.
//!
//! The experiments in the paper run for minutes to hours of wall-clock time;
//! we replay them in virtual time instead. [`EventQueue`] is a priority queue
//! of timestamped events with deterministic FIFO tie-breaking; the loop that
//! pops it keeps the current virtual instant itself.
//!
//! Events come from three sources, delivered as one stream in `(time, seq)`
//! order: one-shot events in a binary heap ([`EventQueue::push`]), a sorted
//! run beside it ([`EventQueue::push_run`]), and re-armable timers
//! ([`EventQueue::arm`]) — one pending event per timer, moved rather than
//! cancelled and re-pushed when its time changes.
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

use crate::time::Timestamp;

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
///
/// Opaque: the slab slot the event's payload was written to and the event's
/// sequence number. A sequence number is never reused, so a handle outlives
/// its event harmlessly — once the slot is vacated or recycled the pair no
/// longer matches anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    slot: u32,
    seq: u64,
}

/// What the heap orders: when, the tie-break, and where the payload sits.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: Timestamp,
    seq: u64,
    slot: u32,
}

// A sift copies one entry per level, and entries past the size the compiler
// copies inline go through a libc `memcpy` call each time.
const _: () = assert!(std::mem::size_of::<Key>() <= 24);

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        // Ties break by insertion order (seq) for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One slab slot: the payload of the heap entry with sequence number `seq`,
/// until it is delivered or cancelled.
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

/// A time-sorted batch kept beside the heap instead of heapified into it.
///
/// The earliest undelivered entry is materialised in `at` / `payload`; the
/// rest are still in `rest`, which builds each one only when it becomes the
/// head. The batch's `seq` numbers were reserved as one block at submission,
/// so the head's `seq` is all that is needed to order it against the heap
/// exactly as if every entry had been pushed one by one.
struct Run<E> {
    at: Timestamp,
    seq: u64,
    payload: E,
    rest: Box<dyn Iterator<Item = (Timestamp, E)> + Send>,
    /// Entries `rest` still owes after the head.
    owed: usize,
}

/// A re-armable timer of one [`EventQueue`], from [`EventQueue::add_timer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u32);

/// An event's place in the delivery order, `(time, seq)` packed into one
/// integer so that ordering two is one integer comparison.
#[inline]
fn order(at: Timestamp, seq: u64) -> u128 {
    u128::from(at.as_nanos()) << 64 | u128::from(seq)
}

/// The place of an idle timer or an empty source: after every event, even
/// one at [`Timestamp::MAX`], because no event gets the last `seq`.
const NEVER: u128 = u128::MAX;

/// The instant an [`order`] stands for.
fn time_of(order: u128) -> Timestamp {
    Timestamp::from_nanos((order >> 64) as u64)
}

/// The timers: a complete binary tree over the timer slots in which every
/// internal node names whichever of its two children's timers is due first,
/// so the root names the earliest. Nodes are 1-based (node `n`'s children
/// are `2n` and `2n + 1`), and leaf `width + i` names timer `i`.
struct Timers<E> {
    /// `2 * width` timer indices; node 0 is unused.
    tree: Vec<u32>,
    /// Each slot's [`order`], [`NEVER`] while idle; `width` of them, the
    /// slots past the last timer idle for good.
    keys: Vec<u128>,
    /// Each timer's pending payload, `None` while it is idle.
    payloads: Vec<Option<E>>,
}

impl<E> Timers<E> {
    fn new() -> Self {
        Timers {
            tree: vec![0; 2],
            keys: vec![NEVER],
            payloads: Vec::new(),
        }
    }

    /// The earliest armed timer and its [`order`] ([`NEVER`] if none is).
    #[inline]
    fn first(&self) -> (TimerId, u128) {
        let timer = self.tree[1];
        (TimerId(timer), self.keys[timer as usize])
    }

    /// Of two timers, the one due first.
    #[inline]
    fn earlier(&self, a: u32, b: u32) -> u32 {
        if self.keys[a as usize] <= self.keys[b as usize] {
            a
        } else {
            b
        }
    }

    /// Adds an idle timer, doubling the tree when every slot is taken.
    fn add(&mut self) -> TimerId {
        let timer = u32::try_from(self.payloads.len()).expect("under 2^32 timers");
        let width = self.keys.len();
        if timer as usize == width {
            self.keys.resize(2 * width, NEVER);
            self.tree = vec![0; 4 * width];
            for slot in 0..2 * width {
                self.tree[2 * width + slot] = slot as u32;
            }
            for node in (1..2 * width).rev() {
                self.tree[node] = self.earlier(self.tree[2 * node], self.tree[2 * node + 1]);
            }
        }
        self.payloads.push(None);
        TimerId(timer)
    }

    /// Sets `timer`'s [`order`] and replays its matches up to the root.
    fn set(&mut self, timer: TimerId, order: u128) {
        self.keys[timer.0 as usize] = order;
        let mut node = (self.keys.len() + timer.0 as usize) / 2;
        while node > 0 {
            self.tree[node] = self.earlier(self.tree[2 * node], self.tree[2 * node + 1]);
            node /= 2;
        }
    }
}

/// A deterministic, cancellable priority queue of timestamped events.
///
/// Three sources feed one delivery order, the `(time, seq)` of every event:
///
/// * **The heap** holds events pushed one at a time ([`EventQueue::push`]):
///   what is in flight.
/// * **The run** is a batch submitted in time order
///   ([`EventQueue::push_run`], or a sorted [`EventQueue::push_batch`]) and
///   kept beside the heap, so a run entry costs one comparison and no sift,
///   however many arrivals a replayed trace still has to deliver.
/// * **The timers** ([`EventQueue::add_timer`]) each hold at most one
///   pending event, re-armed in place when its time moves: a tournament
///   tree over the timer slots whose root names the earliest armed timer,
///   so arming, disarming and firing each rewrite one timer's key and the
///   `log(timers)` nodes above it. A periodic or self-rescheduling event —
///   a worker's wake, a scheduler tick — lives here and never piles
///   tombstones into the heap.
///
/// [`EventQueue::pop_due`] delivers the least of the run's head, the heap's
/// top and the tree's root. Every event takes one sequence number when it is
/// scheduled — a run reserves its block at submission, [`EventQueue::arm`]
/// takes one per arming — so the order is exactly that of pushing every
/// event, and of cancelling and re-pushing a timer's event to move it.
///
/// Counting follows the same equivalence, and the counters satisfy
/// `pushed_total == delivered_total + cancelled_total + len()` throughout:
/// a push, a run entry and an arming each count one push; re-arming an
/// armed timer also counts one cancellation, and [`EventQueue::disarm`] of
/// an armed timer counts one; a delivery from any source counts one.
/// [`EventQueue::len`] and [`EventQueue::peek_time`] include armed timers.
///
/// In the heap, ordering and storage are separate: it sifts three-word keys
/// `(time, seq, slot)`, and each payload is written once into a slab slot
/// and read once when it is delivered. The slot also records the `seq` of
/// its occupant, which makes the slab the liveness record: cancellation
/// drops the payload and frees the slot at once, and a key whose slot no
/// longer holds its `seq` is a tombstone, discarded when it surfaces. Slots
/// are recycled, so the queue's memory follows the events in flight, not the
/// events ever scheduled. Run entries and timers take no slot and hand out
/// no [`EventId`], so [`EventQueue::cancel`] reaches neither.
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Payloads of the live heap entries, each stamped with its occupant.
    slab: Vec<Slot<E>>,
    /// Vacant slab slots, reused last-freed first.
    free: Vec<u32>,
    /// The pending sorted run, if any. At most one: a run submitted while
    /// another is pending is spilled to the heap.
    run: Option<Run<E>>,
    timers: Timers<E>,
    /// The next event's sequence number: one per event ever scheduled.
    next_seq: u64,
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
            slab: Vec::new(),
            free: Vec::new(),
            run: None,
            timers: Timers::new(),
            next_seq: 0,
            live: 0,
            delivered: 0,
            cancelled: 0,
        }
    }

    /// Whether `slot` still holds the payload of event `seq`.
    fn holds(&self, slot: u32, seq: u64) -> bool {
        self.slab
            .get(slot as usize)
            .is_some_and(|s| s.seq == seq && s.payload.is_some())
    }

    /// Takes event `seq`'s payload out of `slot` and frees the slot, if the
    /// slot still holds it.
    fn vacate(&mut self, slot: u32, seq: u64) -> Option<E> {
        let entry = self.slab.get_mut(slot as usize)?;
        if entry.seq != seq {
            return None;
        }
        let payload = entry.payload.take()?;
        self.free.push(slot);
        Some(payload)
    }

    /// Schedules an event at an absolute virtual time.
    pub fn push(&mut self, at: Timestamp, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        let entry = Slot {
            seq,
            payload: Some(payload),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 events in flight");
                self.slab.push(entry);
                slot
            }
        };
        self.heap.push(Key { at, seq, slot });
        EventId { slot, seq }
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
    /// tie-breaking sequence numbers are reserved here, as one block, and
    /// [`EventQueue::len`] / [`EventQueue::pushed_total`] count the whole
    /// batch from now on. Run entries occupy no slab slot, so no
    /// [`EventId`] — issued or forged — names one and they cannot be
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
        self.next_seq += len as u64;
        self.live += len;
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet been delivered or cancelled —
    /// that is, if its slab slot still holds it. The payload is dropped and
    /// the slot freed here; the event's key stays in the heap as a tombstone
    /// and is discarded when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.vacate(id.slot, id.seq).is_some();
        if hit {
            self.live -= 1;
            self.cancelled += 1;
        }
        hit
    }

    /// Moves a scheduled event: cancels `prev` (a no-op if it was already
    /// delivered or cancelled) and schedules `payload` at `at` in its place,
    /// returning the new handle.
    ///
    /// This is the decrease-key of the tombstone scheme — the superseded
    /// key stays in the heap instead of being sifted out, and the new event
    /// usually takes over the slot the old one just freed, so a reschedule
    /// costs one slot write plus one push. Equivalent to `cancel(prev)`
    /// followed by `push(at, payload)`; at most one of the two entries is
    /// ever delivered.
    pub fn reschedule(&mut self, prev: EventId, at: Timestamp, payload: E) -> EventId {
        self.cancel(prev);
        self.push(at, payload)
    }

    /// Adds an idle timer: a slot for at most one pending event, armed and
    /// re-armed with [`EventQueue::arm`]. Timers can be added at any time.
    pub fn add_timer(&mut self) -> TimerId {
        self.timers.add()
    }

    /// Schedules `timer`'s event at `at`, replacing its pending one if it
    /// has one.
    ///
    /// Equivalent to cancelling the pending event and pushing `payload` at
    /// `at`: the event takes the next sequence number, and the counters see
    /// one push, plus one cancellation when the timer was armed.
    ///
    /// # Panics
    ///
    /// On a timer this queue did not add.
    pub fn arm(&mut self, timer: TimerId, at: Timestamp, payload: E) {
        let pending = &mut self.timers.payloads[timer.0 as usize];
        if pending.is_some() {
            self.cancelled += 1;
        } else {
            self.live += 1;
        }
        *pending = Some(payload);
        self.timers.set(timer, order(at, self.next_seq));
        self.next_seq += 1;
    }

    /// Cancels `timer`'s pending event. Returns `true`, counting one
    /// cancellation, if the timer was armed.
    ///
    /// # Panics
    ///
    /// On a timer this queue did not add.
    pub fn disarm(&mut self, timer: TimerId) -> bool {
        if self.timers.payloads[timer.0 as usize].take().is_none() {
            return false;
        }
        self.live -= 1;
        self.cancelled += 1;
        self.timers.set(timer, NEVER);
        true
    }

    /// When `timer`'s pending event is due, or `None` if the timer is idle —
    /// never armed, disarmed, or fired since it was last armed.
    ///
    /// # Panics
    ///
    /// On a timer this queue did not add.
    pub fn timer_due(&self, timer: TimerId) -> Option<Timestamp> {
        let key = self.timers.keys[timer.0 as usize];
        (key != NEVER).then(|| time_of(key))
    }

    /// Removes and returns the earliest live event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.pop_due(Timestamp::MAX)
    }

    /// Removes and returns the earliest event if it is scheduled at or before
    /// `now`: the least `(time, seq)` of the run's head, the heap's top and
    /// the timers' root, and for a heap entry one slab read per delivered
    /// event.
    pub fn pop_due(&mut self, now: Timestamp) -> Option<(Timestamp, E)> {
        loop {
            let top = self.heap.peek().map_or(NEVER, |top| order(top.at, top.seq));
            let head = self
                .run
                .as_ref()
                .map_or(NEVER, |run| order(run.at, run.seq));
            let timer = self.timers.first().1;
            let first = top.min(head).min(timer);
            // A tombstone on top still bounds everything behind it, so "not
            // due" needs no probe.
            if first == NEVER || time_of(first) > now {
                return None;
            }
            if first == head {
                return self.pop_run_due(now);
            }
            if first == timer {
                return Some(self.fire());
            }
            let top = self.heap.pop().expect("the heap's top was peeked");
            if let Some(payload) = self.vacate(top.slot, top.seq) {
                self.live -= 1;
                self.delivered += 1;
                return Some((top.at, payload));
            }
        }
    }

    /// Delivers the earliest armed timer's event, leaving the timer idle.
    fn fire(&mut self) -> (Timestamp, E) {
        let (timer, key) = self.timers.first();
        let payload = self.timers.payloads[timer.0 as usize]
            .take()
            .expect("an armed timer holds its payload");
        self.timers.set(timer, NEVER);
        self.live -= 1;
        self.delivered += 1;
        (time_of(key), payload)
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

    /// The timestamp of the earliest live event, armed timers included,
    /// without removing it.
    pub fn peek_time(&mut self) -> Option<Timestamp> {
        while let Some(&top) = self.heap.peek() {
            if self.holds(top.slot, top.seq) {
                break;
            }
            self.heap.pop();
        }
        let top = self.heap.peek().map(|ev| ev.at);
        let head = self.run.as_ref().map(|run| run.at);
        let earliest = match (head, top) {
            (Some(head), Some(top)) => Some(head.min(top)),
            (head, top) => head.or(top),
        };
        let timer = self.timers.first().1;
        if timer == NEVER {
            return earliest;
        }
        let timer = time_of(timer);
        Some(earliest.map_or(timer, |at| at.min(timer)))
    }

    /// Entries physically in the heap, tombstones included — a diagnostic
    /// for how much of [`EventQueue::len`] is one-shot events in flight,
    /// rather than arrivals waiting in a sorted run or armed timers.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Number of live (not yet delivered, not cancelled) events, armed
    /// timers included.
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
        self.next_seq
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    /// The queue [`EventQueue`] replaced, kept as its oracle: the heap holds
    /// whole events, ids are dense (an event's id is its `seq`) and liveness
    /// is a bitset of *dead* ids — one bit per event ever scheduled, run
    /// entries' bits set at submission because no handle to them exists.
    mod reference {
        use super::super::{Run, RUN_ENDED_EARLY};
        use crate::time::Timestamp;
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct EventId(pub u64);

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
                other
                    .at
                    .cmp(&self.at)
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }

        pub struct EventQueue<E> {
            heap: BinaryHeap<Scheduled<E>>,
            run: Option<Run<E>>,
            next_seq: u64,
            next_id: u64,
            dead: Vec<u64>,
            live: usize,
            delivered: u64,
            cancelled: u64,
        }

        impl<E> EventQueue<E> {
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

            fn mark_dead(&mut self, id: EventId) -> bool {
                let (word, bit) = ((id.0 / 64) as usize, id.0 % 64);
                if word >= self.dead.len() {
                    self.dead.resize(word + 1, 0);
                }
                let fresh = self.dead[word] & (1 << bit) == 0;
                self.dead[word] |= 1 << bit;
                fresh
            }

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

            pub fn push_batch<I>(&mut self, events: I)
            where
                I: IntoIterator<Item = (Timestamp, E)>,
                E: Send + 'static,
            {
                let events: Vec<(Timestamp, E)> = events.into_iter().collect();
                if events.windows(2).all(|pair| pair[0].0 <= pair[1].0) {
                    self.push_run(events.into_iter());
                } else {
                    for (at, payload) in events {
                        self.push(at, payload);
                    }
                }
            }

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
                for id in self.next_id..self.next_id + len as u64 {
                    self.mark_dead(EventId(id));
                }
                self.next_id += len as u64;
                self.next_seq += len as u64;
                self.live += len;
            }

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

            pub fn reschedule(&mut self, prev: EventId, at: Timestamp, payload: E) -> EventId {
                self.cancel(prev);
                self.push(at, payload)
            }

            pub fn pop(&mut self) -> Option<(Timestamp, E)> {
                self.pop_due(Timestamp::MAX)
            }

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

            pub fn heap_len(&self) -> usize {
                self.heap.len()
            }

            pub fn len(&self) -> usize {
                self.live
            }

            pub fn pushed_total(&self) -> u64 {
                self.next_id
            }

            pub fn delivered_total(&self) -> u64 {
                self.delivered
            }

            pub fn cancelled_total(&self) -> u64 {
                self.cancelled
            }
        }
    }

    /// A reference timer's pending event: its due time, handle and payload.
    type Pending = Option<(Timestamp, reference::EventId, u32)>;

    proptest! {
        #[test]
        fn every_step_matches_the_reference_queue(
            // (op, time, batch times, pick). Times are drawn from a range far
            // smaller than the op count, so ties, tombstones on top and
            // batches landing before times already popped are the norm.
            ops in proptest::collection::vec(
                (
                    0u8..19,
                    0u64..40,
                    proptest::collection::vec(0u64..40, 0..12),
                    any::<prop::sample::Index>(),
                ),
                1..200,
            ),
            // Without timers the heaps of both queues hold the same entries,
            // so their lengths are compared too.
            timers_on in any::<bool>(),
        ) {
            let mut real: EventQueue<u32> = EventQueue::new();
            let mut oracle: reference::EventQueue<u32> = reference::EventQueue::new();
            // Every handle ever issued, whatever became of its event. The
            // reference numbers events densely, so its id is the handle's seq.
            let mut issued: Vec<EventId> = Vec::new();
            let twin = |id: EventId| reference::EventId(id.seq);
            // Sequence numbers that went to a sorted run: reserved, never in
            // a slot, and no handle to them was ever issued.
            let mut run_seqs: Vec<u64> = Vec::new();
            // The reference keeps a timer the way the serving loop once kept
            // a worker's wake: the due time and handle of its one pending
            // event, cancelled and re-pushed to move it, and forgotten once
            // that event is delivered — recognised by its payload, which no
            // other event has.
            let mut timers: Vec<(TimerId, Pending)> = Vec::new();
            let forget = |timers: &mut Vec<(TimerId, Pending)>, popped: Option<(Timestamp, u32)>| {
                if let Some((_, payload)) = popped {
                    for (_, pending) in timers.iter_mut() {
                        if pending.is_some_and(|(_, _, p)| p == payload) {
                            *pending = None;
                        }
                    }
                }
            };
            let mut next_payload = 0u32;
            let at = Timestamp::from_nanos;
            for (op, t, mut times, pick) in ops {
                let op = if timers_on { op } else { op % 14 };
                // Ops 2..=5 submit `times` as batches, payloads numbering the
                // entries in submission order: 2 as drawn (unsorted, or sorted
                // by chance), 3 sorted, 4 sorted through `push_run`, 5 sorted
                // and twice over, so that the second one spills to the heap.
                let (sorted, via_run, twice) = (matches!(op, 3..=5), op == 4, op == 5);
                if sorted {
                    times.sort_unstable();
                }
                match op {
                    0 | 1 => {
                        issued.push(real.push(at(t), next_payload));
                        oracle.push(at(t), next_payload);
                        next_payload += 1;
                    }
                    2..=5 => {
                        for _ in 0..=usize::from(twice) {
                            let entries: Vec<_> = times
                                .iter()
                                .map(|&t| at(t))
                                .zip(next_payload..)
                                .collect();
                            next_payload += entries.len() as u32;
                            if real.run.is_none() && times.windows(2).all(|w| w[0] <= w[1]) {
                                let first = real.pushed_total();
                                run_seqs.extend(first..first + entries.len() as u64);
                            }
                            if via_run {
                                real.push_run(entries.clone().into_iter());
                                oracle.push_run(entries.into_iter());
                            } else {
                                real.push_batch(entries.clone());
                                oracle.push_batch(entries);
                            }
                        }
                    }
                    // A handle whose event is live, delivered or cancelled.
                    6 | 7 => {
                        if !issued.is_empty() {
                            let id = issued[pick.index(issued.len())];
                            prop_assert_eq!(real.cancel(id), oracle.cancel(twin(id)));
                        }
                    }
                    // Never-issued handles: a sequence number from the future,
                    // or a run entry's, paired with any slot in or out of range.
                    8 | 9 => {
                        let slot = pick.index(real.slab.len() + 2) as u32;
                        let seq = match run_seqs.get(t as usize % run_seqs.len().max(1)) {
                            Some(&seq) if op == 9 => seq,
                            _ => real.pushed_total() + t,
                        };
                        let forged = EventId { slot, seq };
                        prop_assert!(!real.cancel(forged));
                        prop_assert!(!oracle.cancel(twin(forged)));
                    }
                    10 => {
                        if !issued.is_empty() {
                            let prev = issued[pick.index(issued.len())];
                            issued.push(real.reschedule(prev, at(t), next_payload));
                            oracle.reschedule(twin(prev), at(t), next_payload);
                            next_payload += 1;
                        }
                    }
                    11 => {
                        let popped = oracle.pop_due(at(t));
                        prop_assert_eq!(real.pop_due(at(t)), popped);
                        forget(&mut timers, popped);
                    }
                    12 => {
                        let popped = oracle.pop();
                        prop_assert_eq!(real.pop(), popped);
                        forget(&mut timers, popped);
                    }
                    13 => prop_assert_eq!(real.peek_time(), oracle.peek_time()),
                    14 => timers.push((real.add_timer(), None)),
                    // Arm, idle or armed, at a time before, at or after
                    // anything pending.
                    15 | 16 => {
                        if !timers.is_empty() {
                            let k = pick.index(timers.len());
                            let (timer, pending) = &mut timers[k];
                            real.arm(*timer, at(t), next_payload);
                            if let Some((_, id, _)) = pending.take() {
                                prop_assert!(oracle.cancel(id));
                            }
                            let id = oracle.push(at(t), next_payload);
                            *pending = Some((at(t), id, next_payload));
                            next_payload += 1;
                        }
                    }
                    17 => {
                        if !timers.is_empty() {
                            let k = pick.index(timers.len());
                            let (timer, pending) = &mut timers[k];
                            let was_armed = pending.take().is_some_and(|(_, id, _)| oracle.cancel(id));
                            prop_assert_eq!(real.disarm(*timer), was_armed);
                        }
                    }
                    _ => {
                        for &(timer, pending) in &timers {
                            prop_assert_eq!(real.timer_due(timer), pending.map(|(due, _, _)| due));
                        }
                    }
                }
                prop_assert_eq!(real.len(), oracle.len());
                if timers_on {
                    // The reference's heap also holds the timers' events and
                    // their tombstones.
                    prop_assert!(real.heap_len() <= oracle.heap_len());
                } else {
                    prop_assert_eq!(real.heap_len(), oracle.heap_len());
                }
                prop_assert_eq!(real.pushed_total(), oracle.pushed_total());
                prop_assert_eq!(real.delivered_total(), oracle.delivered_total());
                prop_assert_eq!(real.cancelled_total(), oracle.cancelled_total());
                // No slot leaks: the occupied ones are the live events that
                // are neither waiting in the run nor armed timers.
                let in_run = real.run.as_ref().map_or(0, |run| run.owed + 1);
                let armed = timers.iter().filter(|(_, pending)| pending.is_some()).count();
                prop_assert_eq!(real.slab.len() - real.free.len(), real.len() - in_run - armed);
            }
            while let Some(delivered) = oracle.pop() {
                prop_assert_eq!(real.pop(), Some(delivered));
            }
            for (timer, _) in timers {
                prop_assert_eq!(real.timer_due(timer), None);
            }
            prop_assert_eq!(real.pop(), None);
            prop_assert_eq!(real.free.len(), real.slab.len());
        }
    }

    #[test]
    fn a_recycled_slot_is_not_its_previous_occupant() {
        let ms = Timestamp::from_millis;
        let mut q = EventQueue::new();
        let stale = q.push(ms(5), "cancelled");
        q.push(ms(7), "bystander");
        assert!(q.cancel(stale));
        // Push until the freed slot comes back, under a new sequence number.
        let fresh = loop {
            let id = q.push(ms(9), "new occupant");
            if id.slot == stale.slot {
                break id;
            }
        };
        assert_ne!(fresh.seq, stale.seq);
        assert!(
            !q.cancel(stale),
            "a stale handle cancelled the new occupant"
        );
        // The stale key (5 ms) is still in the heap and must read as a
        // tombstone, not as the slot's new occupant.
        assert_eq!((q.len(), q.heap_len()), (2, 3));
        assert_eq!(q.peek_time(), Some(ms(7)));
        let delivered: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(delivered, [(ms(7), "bystander"), (ms(9), "new occupant")]);
        assert!(!q.cancel(fresh), "already delivered");
        assert_eq!(
            (q.pushed_total(), q.delivered_total(), q.cancelled_total()),
            (3, 2, 1)
        );
    }

    /// A payload that counts its drops.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Relaxed);
        }
    }

    #[test]
    fn every_payload_is_dropped_exactly_once() {
        let ms = Timestamp::from_millis;
        let drops = Arc::new(AtomicUsize::new(0));
        let payload = || Counted(Arc::clone(&drops));
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.push(ms(10 + i), payload())).collect();
        q.push_batch((0..5).map(|i| (ms(12 + i), payload())).collect::<Vec<_>>());
        // Cancelled: dropped at once, not when the tombstone surfaces.
        assert!(q.cancel(ids[0]) && q.cancel(ids[4]) && q.cancel(ids[9]));
        assert_eq!(drops.load(Relaxed), 3);
        q.reschedule(ids[1], ms(30), payload());
        assert_eq!(drops.load(Relaxed), 4);
        // Delivered: the queue hands the payload over and keeps no copy.
        for dropped in 4..10 {
            let delivered = q.pop().expect("live events remain");
            assert_eq!(drops.load(Relaxed), dropped);
            drop(delivered);
        }
        assert_eq!(drops.load(Relaxed), 10);
        // Replaced in place while holding heap and run entries — what
        // `Worker::crash` does to its queue of completions.
        assert_eq!(q.len(), 6);
        q = EventQueue::new();
        assert_eq!(drops.load(Relaxed), 16);
        // Left in a queue that goes out of scope.
        q.push(ms(1), payload());
        drop(q);
        assert_eq!(drops.load(Relaxed), 17);
    }

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
        let unknown = EventId {
            slot: 999,
            seq: 999,
        };
        assert!(!q.cancel(unknown), "unknown ids are rejected");
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
    fn timers_heap_and_run_entries_due_together_pop_in_seq_order() {
        let t = Timestamp::from_millis(5);
        let mut q = EventQueue::new();
        let (early, late) = (q.add_timer(), q.add_timer());
        q.arm(late, t, "late timer");
        q.push(t, "heap 0");
        q.push_batch([(t, "run 0"), (t, "run 1")]);
        q.arm(early, Timestamp::from_millis(9), "moved away");
        q.push(t, "heap 1");
        // Re-arming takes a fresh seq: this timer now ties after "heap 1".
        q.arm(early, t, "early timer");
        q.push(t, "heap 2");
        assert_eq!((q.len(), q.heap_len()), (7, 3));
        assert_eq!(q.timer_due(early), Some(t));
        assert_eq!(q.peek_time(), Some(t));
        let order: Vec<_> = std::iter::from_fn(|| q.pop_due(t))
            .map(|(_, p)| p)
            .collect();
        assert_eq!(
            order,
            [
                "late timer",
                "heap 0",
                "run 0",
                "run 1",
                "heap 1",
                "early timer",
                "heap 2"
            ]
        );
        assert_eq!((q.timer_due(early), q.timer_due(late)), (None, None));
        assert!(!q.disarm(early), "a fired timer is idle");
        // Eight pushes (one re-arm among them), seven delivered.
        assert_eq!(
            (q.pushed_total(), q.delivered_total(), q.cancelled_total()),
            (8, 7, 1)
        );
    }

    #[test]
    fn adding_timers_keeps_every_armed_one() {
        let ms = Timestamp::from_millis;
        let mut q = EventQueue::new();
        let mut timers = Vec::new();
        // Each addition past a power of two doubles the tree while the
        // earlier timers are armed, some earlier and some later than the
        // newcomers.
        for i in 0..37u64 {
            let timer = q.add_timer();
            q.arm(timer, ms(100 - i * 2 % 50), i);
            timers.push(timer);
        }
        assert!(q.disarm(timers[3]));
        assert_eq!(q.len(), 36);
        for (i, &timer) in timers.iter().enumerate() {
            let due = (i != 3).then(|| ms(100 - i as u64 * 2 % 50));
            assert_eq!(q.timer_due(timer), due);
        }
        let mut expected: Vec<_> = (0..37u64)
            .filter(|&i| i != 3)
            .map(|i| (ms(100 - i * 2 % 50), i))
            .collect();
        expected.sort();
        let delivered: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(delivered, expected);
        assert!(q.is_empty() && q.peek_time().is_none());
    }

    #[test]
    fn run_ids_are_reserved_but_have_no_handle() {
        let mut q = EventQueue::new();
        let before: Vec<_> = (0..5).map(|i| q.push(Timestamp::ZERO, i)).collect();
        // Sequence numbers 5..135 go to the run, which takes no slot.
        q.push_batch((5..135).map(|i| (Timestamp::ZERO, i)));
        let after = q.push(Timestamp::ZERO, 135);
        assert_eq!(before[4], EventId { slot: 4, seq: 4 });
        assert_eq!(after, EventId { slot: 5, seq: 135 });
        for seq in 5..135 {
            for slot in 0..7 {
                let forged = EventId { slot, seq };
                assert!(!q.cancel(forged), "run entry {seq} was cancellable");
            }
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
        let unknown = EventId {
            slot: u32::MAX,
            seq: u64::MAX,
        };
        assert!(!q.cancel(unknown), "unknown ids are rejected");
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
}
