//! Request traces: a time-ordered list of request arrivals.
//!
//! Traces decouple workload generation from the serving system: generators
//! (open-loop, Azure-like) produce a [`Trace`], and the system harness replays
//! it against whichever scheduler is under test. A trace is read in order,
//! through its cursor ([`Trace::iter`]), as the paper's controller sees each
//! request once, on arrival. The paper's 8-hour experiments are shrunk to
//! simulation budgets by generating shorter traces (each figure's doc comment
//! in `crates/bench/src/bin/paper.rs` records its scaling).
//!
//! A trace is read as its arrivals' sort keys, one `u64` each (see
//! `KeyLayout`): the arrival's offset from an origin in the high bits, then
//! its model id, then its rank in a table of the trace's distinct
//! `(SLO, tier)` classes. Among keys that share an origin, key order is
//! arrival order. Arrival order is total (time, model, SLO, tier): events
//! that tie are identical, so every sort gives the same bytes. A trace keeps
//! its arrivals in one of two ways.
//!
//! - **Drawn.** A trace from a generator of this crate is its recipe, a
//!   `SegmentSource`: the generator's config, the starting state of each of
//!   its random streams, and the trace's exact length, counted when the
//!   trace is built without keeping the arrivals. A cursor draws one time
//!   segment at a time into one buffer it reuses: each key's origin is the
//!   segment's start, and the segment is sorted in place. An arrival whose
//!   offset rounds onto the next segment's start is held back and sorted
//!   with that segment. So reading a drawn trace holds its largest segment's
//!   keys, however long it is, and the trace itself stores no key.
//! - **Stored.** [`Trace::new`], [`Trace::partitioned`],
//!   [`Trace::with_models_mapped`] and an Azure trace shorter than a minute
//!   store the keys in one block, where an origin is the start of an
//!   *epoch*. The model id and the class rank take the bits their largest
//!   value needs, and the offset takes every bit they leave, so an epoch is
//!   2^(offset bits) ns: 2^56 ns (about 2.3 years) for 200 models and one
//!   class, 2^52 (52 days) for 3 000, 2^36 (69 s) for 2^28. A sparse table
//!   holds an `(epoch, first index)` row for each epoch that has an arrival,
//!   so an arrival costs 8 B however many classes the trace mixes. At worst,
//!   model ids up to `u32::MAX` and `c` classes leave 32 − ⌈log2 c⌉ bits of
//!   offset (2^32 ns, about 4.3 s, for one class; 2^26 ns, 67 ms, for 64),
//!   and every arrival may open an epoch of its own: the table then holds a
//!   16 B row per arrival, 24 B in all. The table never has more rows than
//!   the trace has arrivals.
//!
//! Either kind builds the 24 B-per-arrival [`Trace::events`] view only when
//! asked, from the cursor.

use std::collections::BTreeSet;
use std::fmt;
use std::mem::{size_of, size_of_val};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use clockwork_model::{ModelId, Tier};
use clockwork_sim::time::{Nanos, Timestamp};

/// One request arrival in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Arrival time relative to trace start.
    pub at: Timestamp,
    /// The model instance the request targets.
    pub model: ModelId,
    /// The latency SLO for this request ([`Nanos::MAX`] = no SLO).
    pub slo: Nanos,
    /// The service tier of the issuing client ([`Tier::Strict`] unless the
    /// workload models multi-tenant classes).
    pub tier: Tier,
}

/// A request's `(SLO, tier)` pair: what an arrival carries besides its time
/// and model.
pub(crate) type Class = (Nanos, Tier);

/// A time-ordered sequence of request arrivals.
///
/// A trace from a generator is drawn a segment at a time whenever it is
/// read, and any other trace is a block of stored keys (see the module
/// docs). Either is immutable once built and held behind an [`Arc`], so a
/// clone shares it: the serving system replays a trace from a clone instead
/// of a copy. Read it in order with [`Trace::iter`], which holds at most
/// one segment of a drawn trace.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    inner: Arc<Inner>,
}

/// What a trace holds: stored keys, or a recipe to draw them from.
enum Inner {
    Stored(Block),
    Drawn(Drawn),
}

impl Default for Inner {
    fn default() -> Inner {
        Inner::Stored(Block::default())
    }
}

/// A trace's stored keys. Epochs ascend, and within an epoch the keys
/// ascend, which is arrival order because `classes` ascends.
struct Block {
    /// Each arrival's key under `layout`.
    keys: Vec<u64>,
    /// Each epoch that has an arrival, and the index of its first arrival.
    epochs: Vec<(u64, usize)>,
    layout: KeyLayout,
    /// The distinct `(SLO, tier)` pairs of the arrivals, ascending.
    classes: Vec<Class>,
    /// The array-of-structs view [`Trace::events`] builds on first call.
    view: OnceLock<Vec<TraceEvent>>,
}

impl Default for Block {
    fn default() -> Block {
        let layout = KeyLayout::new(0, 0).expect("one model and no class fit a key");
        Block::new(layout, Vec::new())
    }
}

/// A generated trace: the generator standing before its first segment, and
/// what it counted when it built the trace.
struct Drawn {
    /// Every cursor draws from a fork of it.
    source: Box<dyn SegmentSource>,
    /// The layout of the keys the source draws.
    layout: KeyLayout,
    /// The classes a key's rank indexes, ascending.
    classes: Vec<Class>,
    /// How many arrivals the source draws.
    len: usize,
    /// The most arrivals one segment draws: a cursor's buffer is allocated
    /// once, this long.
    widest: usize,
    /// The array-of-structs view [`Trace::events`] builds on first call.
    view: OnceLock<Vec<TraceEvent>>,
}

/// A generator that draws its trace one time segment at a time, in order:
/// what a drawn [`Trace`] keeps instead of its arrivals.
pub(crate) trait SegmentSource: Send + Sync {
    /// Draws the next segment: appends each of its arrivals' keys to `keys`,
    /// with the arrival's offset from the segment's start, and returns the
    /// segment's start and end in ns; `None` once every segment is drawn,
    /// and on every call after.
    /// The keys need no order. Keys whose offsets reach the end are held
    /// back and sorted with the next segment, which must start there.
    fn draw(&mut self, keys: &mut Vec<u64>) -> Option<(u64, u64)>;

    /// A copy that draws what this one has still to draw.
    fn fork(&self) -> Box<dyn SegmentSource>;

    /// The heap bytes the source holds beyond its own box, which the trace
    /// counts: what its shared plan and its vectors hold (see
    /// [`arc_bytes`]).
    fn heap_bytes(&self) -> usize;
}

/// The bytes of the allocation an `Arc<T>` points to: its two reference
/// counts and the `T`, without what the `T` itself holds on the heap.
pub(crate) fn arc_bytes<T>(_: &Arc<T>) -> usize {
    2 * size_of::<usize>() + size_of::<T>()
}

impl Trace {
    /// Creates a trace from events, sorting them in place into arrival
    /// order (time, model, SLO, tier) first when they are not in it.
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        if !events.is_sorted_by_key(arrival_order) {
            events.sort_unstable_by_key(arrival_order);
        }
        let classes = class_table(events.iter().map(class_of));
        let max_model = events.iter().map(|e| e.model.0).max().unwrap_or(0);
        let mut block = Block::new(KeyLayout::wide_enough(max_model, &classes), classes);
        block.keys.reserve_exact(events.len());
        for e in &events {
            let class = rank(&block.classes, class_of(e));
            block.push(e.at.as_nanos(), e.model, class);
        }
        block.finish()
    }

    /// A trace drawn from `source` whenever it is read: `len` arrivals, at
    /// most `widest` of them in one segment, keyed under `layout` with ranks
    /// into `classes` (ascending, distinct). A source that draws nothing
    /// makes the empty stored trace.
    pub(crate) fn drawn(
        source: impl SegmentSource + 'static,
        layout: KeyLayout,
        classes: Vec<Class>,
        len: usize,
        widest: usize,
    ) -> Trace {
        if len == 0 {
            return Trace::default();
        }
        debug_assert!(classes.is_sorted(), "class table out of order");
        Trace {
            inner: Arc::new(Inner::Drawn(Drawn {
                source: Box::new(source),
                layout,
                classes,
                len,
                widest,
                view: OnceLock::new(),
            })),
        }
    }

    /// The stored trace of `keys`, under `layout` with ranks into
    /// `classes` (ascending, distinct), whose offsets are times: sorts them
    /// and splits them into epochs in place.
    pub(crate) fn sorted(layout: KeyLayout, classes: Vec<Class>, mut keys: Vec<u64>) -> Trace {
        keys.sort_unstable();
        let mut block = Block::new(layout, classes);
        for (i, key) in keys.iter_mut().enumerate() {
            let (epoch, offset) = layout.split(layout.offset(*key));
            block.open_epoch(epoch, i);
            *key = layout.with_offset(*key, offset);
        }
        block.keys = keys;
        block.finish()
    }

    /// The arrivals, in arrival order, from a cursor that shares the
    /// trace. Over a drawn trace, the cursor draws each segment into one
    /// buffer when it reaches it, so it holds the largest segment's keys at
    /// most; two cursors draw the same arrivals, each its own way along.
    pub fn iter(&self) -> Arrivals {
        let reader = match &*self.inner {
            Inner::Stored(_) => Reader::Stored {
                row: 0,
                epoch_end: 0,
                epoch_start: 0,
            },
            Inner::Drawn(drawn) => Reader::Drawn(Segment {
                source: drawn.source.fork(),
                keys: Vec::with_capacity(drawn.widest),
                at: 0,
                cut: 0,
                start: 0,
                end: 0,
                last: None,
            }),
        };
        Arrivals {
            inner: Arc::clone(&self.inner),
            layout: self.inner.layout(),
            next: 0,
            reader,
        }
    }

    /// The arrivals as a slice of [`TraceEvent`]s: a compatibility view at
    /// 24 B per arrival, collected from a cursor on the first call and kept
    /// until the last clone drops. Prefer [`Trace::iter`], which builds
    /// nothing.
    pub fn events(&self) -> &[TraceEvent] {
        self.inner.view().get_or_init(|| self.iter().collect())
    }

    /// The heap bytes the trace holds: the shared box with its two
    /// reference counts; a stored trace's keys, epoch table and class
    /// table, or a drawn trace's source and class table; and the
    /// [`Trace::events`] view once built. Clones share all of it.
    pub fn heap_bytes(&self) -> usize {
        let view = self
            .inner
            .view()
            .get()
            .map_or(0, |view| view.capacity() * size_of::<TraceEvent>());
        arc_bytes(&self.inner)
            + view
            + match &*self.inner {
                Inner::Stored(block) => block.heap_bytes(),
                Inner::Drawn(drawn) => {
                    size_of_val(&*drawn.source)
                        + drawn.source.heap_bytes()
                        + drawn.classes.capacity() * size_of::<Class>()
                }
            }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distinct models appearing in the trace.
    pub fn models(&self) -> Vec<ModelId> {
        let layout = self.inner.layout();
        let mut models: Vec<ModelId> = self.timed_keys().map(|(_, k)| layout.model(k)).collect();
        models.sort_unstable();
        models.dedup();
        models
    }

    /// Splits the trace into `shards` traces by a model-owner function,
    /// preserving arrival order within each shard (shard-stable: an event's
    /// destination depends only on its model, never on its position, so
    /// re-merging the partitions reproduces the original trace exactly).
    ///
    /// Owners returned outside `0..shards` panic — routing must be total.
    pub fn partitioned(
        &self,
        shards: usize,
        mut owner: impl FnMut(ModelId) -> usize,
    ) -> Vec<Trace> {
        let layout = self.inner.layout();
        let mut parts: Vec<Block> = (0..shards)
            .map(|_| Block::new(layout, self.inner.classes().to_vec()))
            .collect();
        for (at, key) in self.timed_keys() {
            let model = layout.model(key);
            let shard = owner(model);
            assert!(
                shard < shards,
                "trace partition routed {model:?} to shard {shard} of {shards}"
            );
            // Each partition is a subsequence of an ordered trace, so it
            // stays in order.
            parts[shard].push_key(at, key);
        }
        parts.into_iter().map(Block::finish).collect()
    }

    /// Returns a copy with every event's model id remapped; `map` is asked
    /// once for each distinct model. With a monotone map (as when
    /// compacting a shard's owned models to dense local ids) the event
    /// order is preserved byte for byte; a non-monotone map still yields a
    /// valid trace: only arrivals at one instant can change order, and they
    /// are re-sorted.
    pub fn with_models_mapped(&self, mut map: impl FnMut(ModelId) -> ModelId) -> Trace {
        let layout = self.inner.layout();
        let from = self.models();
        let to: Vec<ModelId> = from.iter().map(|&m| map(m)).collect();
        let max_model = to.iter().map(|m| m.0).max().unwrap_or(0);
        let classes = self.inner.classes().to_vec();
        let mut out = Block::new(KeyLayout::wide_enough(max_model, &classes), classes);
        out.keys.reserve_exact(self.len());
        for (at, key) in self.timed_keys() {
            let index = from.binary_search(&layout.model(key));
            let model = to[index.expect("every model is listed")];
            out.push(at, model, layout.class(key));
        }
        out.sort_tied_runs();
        out.finish()
    }

    /// Each arrival's time and key, in arrival order.
    fn timed_keys(&self) -> impl Iterator<Item = (u64, u64)> {
        let mut cursor = self.iter();
        std::iter::from_fn(move || cursor.next_timed())
    }
}

/// Two traces are equal when they hold the same arrivals in the same order.
impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Inner {
    /// The layout of the keys a cursor reads.
    fn layout(&self) -> KeyLayout {
        match self {
            Inner::Stored(block) => block.layout,
            Inner::Drawn(drawn) => drawn.layout,
        }
    }

    /// The classes a key's rank indexes, ascending.
    fn classes(&self) -> &[Class] {
        match self {
            Inner::Stored(block) => &block.classes,
            Inner::Drawn(drawn) => &drawn.classes,
        }
    }

    fn len(&self) -> usize {
        match self {
            Inner::Stored(block) => block.keys.len(),
            Inner::Drawn(drawn) => drawn.len,
        }
    }

    /// Where the [`Trace::events`] view is kept.
    fn view(&self) -> &OnceLock<Vec<TraceEvent>> {
        match self {
            Inner::Stored(block) => &block.view,
            Inner::Drawn(drawn) => &drawn.view,
        }
    }
}

/// A cursor over a trace's arrivals, in order. It holds a share of the
/// trace, so it outlives the [`Trace`] it came from, and decodes each
/// arrival as it is reached.
pub struct Arrivals {
    inner: Arc<Inner>,
    /// The layout of the keys the cursor reads.
    layout: KeyLayout,
    /// The index of the next arrival.
    next: usize,
    reader: Reader,
}

/// Where a cursor stands in the keys it reads.
enum Reader {
    /// In a stored block's epoch table.
    Stored {
        /// The row of the epoch table the cursor enters next.
        row: usize,
        /// The index where the epoch the cursor is in ends: the first
        /// arrival of row `row`.
        epoch_end: usize,
        /// The time the epoch the cursor is in starts at.
        epoch_start: u64,
    },
    /// In a drawn trace's segments.
    Drawn(Segment),
}

/// The segment a cursor over a drawn trace is in: the cursor's own fork of
/// the source, and one buffer, reused for every segment.
struct Segment {
    source: Box<dyn SegmentSource>,
    /// The segment's keys, sorted, then the keys held back for the next.
    keys: Vec<u64>,
    /// The index of the next key to read.
    at: usize,
    /// The index where the keys held back begin.
    cut: usize,
    /// The segment's start and end, in ns.
    start: u64,
    end: u64,
    /// The last arrival read before this segment, as its time and its key
    /// without the offset: the segment's first must not precede it.
    last: Option<(u64, u64)>,
}

impl Arrivals {
    /// The next arrival's time and key.
    fn next_timed(&mut self) -> Option<(u64, u64)> {
        let timed = match &mut self.reader {
            Reader::Stored {
                row,
                epoch_end,
                epoch_start,
            } => {
                let Inner::Stored(b) = &*self.inner else {
                    unreachable!("a stored cursor reads a stored block");
                };
                let &key = b.keys.get(self.next)?;
                // Every row holds an arrival, so the cursor enters each in
                // turn.
                if self.next == *epoch_end {
                    *epoch_start = b.layout.time(b.epochs[*row].0, 0);
                    *row += 1;
                    *epoch_end = b.epochs.get(*row).map_or(usize::MAX, |&(_, first)| first);
                }
                (*epoch_start | b.layout.offset(key), key)
            }
            Reader::Drawn(segment) => {
                let timed = segment.next(self.layout);
                debug_assert!(
                    timed.is_some() == (self.next < self.inner.len()),
                    "a drawn trace of {} arrivals ended after {}",
                    self.inner.len(),
                    self.next
                );
                timed?
            }
        };
        self.next += 1;
        Some(timed)
    }
}

impl Segment {
    /// The next arrival's time and key, drawing the next segment that has
    /// any when this one is read.
    fn next(&mut self, layout: KeyLayout) -> Option<(u64, u64)> {
        while self.at == self.cut {
            if !self.draw(layout) {
                return None;
            }
        }
        let key = self.keys[self.at];
        self.at += 1;
        Some((self.start + layout.offset(key), key))
    }

    /// Draws the next segment: carries the keys held back to the front of
    /// the buffer, as offsets into the next segment, which starts where
    /// this one ends, and sorts them with the segment's own. False past the
    /// last segment.
    fn draw(&mut self, layout: KeyLayout) -> bool {
        if let Some(&key) = self.cut.checked_sub(1).map(|i| &self.keys[i]) {
            self.last = Some(layout.arrival(self.start, key));
        }
        let (length, held) = (self.end - self.start, self.keys.len() - self.cut);
        self.keys.copy_within(self.cut.., 0);
        self.keys.truncate(held);
        for key in &mut self.keys {
            *key = layout.with_offset(*key, layout.offset(*key) - length);
        }
        let Some((start, end)) = self.source.draw(&mut self.keys) else {
            debug_assert_eq!(held, 0, "arrivals held back past the last segment");
            // Read to its end: a later call asks the source again, and
            // draws nothing.
            (self.at, self.cut) = (0, 0);
            return false;
        };
        debug_assert!(held == 0 || start == self.end, "held back into a gap");
        self.keys.sort_unstable();
        self.cut = self
            .keys
            .partition_point(|&k| layout.offset(k) < end - start);
        (self.at, self.start, self.end) = (0, start, end);
        debug_assert!(
            self.cut == 0 || self.last <= Some(layout.arrival(start, self.keys[0])),
            "the segment from {start} ns starts before the last one ended"
        );
        true
    }
}

impl Iterator for Arrivals {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let (at, key) = self.next_timed()?;
        Some(event(self.layout, self.inner.classes(), at, key))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.inner.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Arrivals {}

impl Block {
    /// An empty block under `layout` over a class table, which must be
    /// ascending.
    fn new(layout: KeyLayout, classes: Vec<Class>) -> Block {
        debug_assert!(classes.is_sorted(), "class table out of order");
        Block {
            keys: Vec::new(),
            epochs: Vec::new(),
            layout,
            classes,
            view: OnceLock::new(),
        }
    }

    /// The heap bytes of the keys and the epoch and class tables.
    fn heap_bytes(&self) -> usize {
        self.keys.capacity() * size_of::<u64>()
            + self.epochs.capacity() * size_of::<(u64, usize)>()
            + self.classes.capacity() * size_of::<Class>()
    }

    /// Opens a row for `epoch` at arrival `first`, unless the last row is
    /// that epoch's.
    fn open_epoch(&mut self, epoch: u64, first: usize) {
        if self.epochs.last().is_none_or(|&(last, _)| last != epoch) {
            self.epochs.push((epoch, first));
        }
    }

    /// Appends an arrival at `at` ns, no earlier than any arrival held.
    fn push(&mut self, at: u64, model: ModelId, class: u32) {
        self.push_key(at, self.layout.pack(0, model, class));
    }

    /// Appends an arrival at `at` ns carrying `key`'s model and class.
    fn push_key(&mut self, at: u64, key: u64) {
        let (epoch, offset) = self.layout.split(at);
        self.open_epoch(epoch, self.keys.len());
        self.keys.push(self.layout.with_offset(key, offset));
    }

    /// Restores arrival order after writing that kept times ascending but
    /// may have reordered arrivals at one instant: each run of equal times
    /// found out of order is sorted as keys.
    fn sort_tied_runs(&mut self) {
        let Block {
            keys: all,
            epochs,
            layout,
            ..
        } = self;
        let ends = epochs.iter().skip(1).map(|&(_, first)| first);
        for (&(_, first), end) in epochs.iter().zip(ends.chain([all.len()])) {
            let keys = &mut all[first..end];
            let mut i = 1;
            while i < keys.len() {
                if keys[i - 1] <= keys[i] {
                    i += 1;
                    continue;
                }
                // Offsets ascend within an epoch, so only a run of keys
                // with one offset can be out of order.
                let offset = layout.offset(keys[i]);
                let lo = keys[..i].partition_point(|&k| layout.offset(k) < offset);
                let hi = i + keys[i..].partition_point(|&k| layout.offset(k) == offset);
                keys[lo..hi].sort_unstable();
                i = hi;
            }
        }
    }

    /// Drops the classes no arrival carries and renumbers the class ranks
    /// left, and trims every buffer to its length.
    fn trimmed(mut self) -> Block {
        if self.keys.is_empty() {
            self.classes.clear();
        }
        if self.classes.len() > 1 {
            let layout = self.layout;
            let mut used = vec![false; self.classes.len()];
            for &key in &self.keys {
                used[layout.class(key) as usize] = true;
            }
            if used.contains(&false) {
                // A kept class's new rank: how many kept classes precede it.
                let renumber: Vec<u32> = used
                    .iter()
                    .scan(0, |kept, &u| {
                        *kept += u32::from(u);
                        Some(*kept - u32::from(u))
                    })
                    .collect();
                for key in &mut self.keys {
                    *key = layout.with_class(*key, renumber[layout.class(*key) as usize]);
                }
                let mut keep = used.iter();
                self.classes.retain(|_| keep.next() == Some(&true));
            }
        }
        self.keys.shrink_to_fit();
        self.epochs.shrink_to_fit();
        self.classes.shrink_to_fit();
        self
    }

    /// Trims the block and shares it as a stored trace.
    fn finish(self) -> Trace {
        Trace {
            inner: Arc::new(Inner::Stored(self.trimmed())),
        }
    }
}

/// How an arrival packs into a `u64` sort key: an offset in the high bits,
/// then its model id, then its class rank in the low bits. Key order is
/// then arrival order among arrivals whose offsets share an origin: a time
/// segment's start in a drawn trace, an epoch's start in a stored one. The
/// offset takes every bit the model id and class rank leave, so an epoch is
/// 2^[`KeyLayout::offset_bits`] ns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct KeyLayout {
    /// Bits below the offset: the model id's and the class rank's.
    offset_shift: u32,
    /// Bits below the model id: the class rank's.
    class_bits: u32,
}

impl KeyLayout {
    /// The layout for model ids up to `max_model` and `classes` class
    /// ranks, or an error when they leave the offset no bit.
    pub(crate) fn new(max_model: u64, classes: usize) -> Result<Self, String> {
        let model_bits = (u64::BITS - max_model.leading_zeros()).max(1);
        let class_bits = usize::BITS - (classes.max(1) - 1).leading_zeros();
        if model_bits + class_bits >= u64::BITS {
            return Err(format!(
                "model ids up to {max_model} ({model_bits} bits) and {classes} classes \
                 ({class_bits} bits) leave an arrival key no bit of offset"
            ));
        }
        Ok(KeyLayout {
            offset_shift: model_bits + class_bits,
            class_bits,
        })
    }

    /// The layout of a generator's keys: offsets into its segments reach at
    /// most `max_offset` ns, and arrivals carry model ids up to `max_model`
    /// and one of `classes` class ranks. Fails when such a key does not fit
    /// 64 bits.
    pub(crate) fn for_segments(
        max_offset: u64,
        max_model: u64,
        classes: usize,
    ) -> Result<Self, String> {
        let layout = KeyLayout::new(max_model, classes)?;
        let offset_bits = u64::BITS - max_offset.leading_zeros();
        if offset_bits > layout.offset_bits() {
            return Err(format!(
                "an arrival key needs {offset_bits} bits of offset (up to {max_offset} ns), \
                 {} of model id (up to {max_model}) and {} of class: more than 64",
                layout.offset_shift - layout.class_bits,
                layout.class_bits
            ));
        }
        Ok(layout)
    }

    /// The layout of a trace's keys: a model id is a `u32`, and a class
    /// table never holds 2^31 classes, one for each of 2^31 arrivals.
    fn wide_enough(max_model: u32, classes: &[Class]) -> KeyLayout {
        KeyLayout::new(u64::from(max_model), classes.len())
            .expect("a model id and a class rank leave a key offset bits")
    }

    /// The bits an offset may take.
    pub(crate) fn offset_bits(self) -> u32 {
        u64::BITS - self.offset_shift
    }

    /// The key of an arrival `offset` ns from its origin.
    pub(crate) fn pack(self, offset: u64, model: ModelId, class: u32) -> u64 {
        debug_assert!(
            offset.leading_zeros() >= self.offset_shift,
            "offset {offset}"
        );
        debug_assert!(
            u64::from(model.0) >> (self.offset_shift - self.class_bits) == 0,
            "{model:?}"
        );
        debug_assert!(u64::from(class) >> self.class_bits == 0, "class {class}");
        offset << self.offset_shift | u64::from(model.0) << self.class_bits | u64::from(class)
    }

    fn offset(self, key: u64) -> u64 {
        key >> self.offset_shift
    }

    fn model(self, key: u64) -> ModelId {
        ModelId(((key & low_bits(self.offset_shift)) >> self.class_bits) as u32)
    }

    fn class(self, key: u64) -> u32 {
        (key & low_bits(self.class_bits)) as u32
    }

    /// The arrival `key` packs, its offset taken from `origin`, as its time
    /// and its model and class bits: arrival order, whatever the origin.
    fn arrival(self, origin: u64, key: u64) -> (u64, u64) {
        (origin + self.offset(key), key & low_bits(self.offset_shift))
    }

    /// `key` with its offset replaced by `offset`.
    fn with_offset(self, key: u64, offset: u64) -> u64 {
        debug_assert!(offset >> self.offset_bits() == 0, "offset {offset}");
        offset << self.offset_shift | key & low_bits(self.offset_shift)
    }

    /// `key` with its class rank replaced by `class`.
    fn with_class(self, key: u64, class: u32) -> u64 {
        key & !low_bits(self.class_bits) | u64::from(class)
    }

    /// The epoch of the time `at` ns and the offset into it.
    fn split(self, at: u64) -> (u64, u64) {
        (at >> self.offset_bits(), at & low_bits(self.offset_bits()))
    }

    /// The time of the arrival `key` packs, in `epoch`.
    fn time(self, epoch: u64, key: u64) -> u64 {
        epoch << self.offset_bits() | self.offset(key)
    }
}

/// The arrival at `at` ns whose key, under `layout`, is `key`, with a rank
/// into `classes`.
fn event(layout: KeyLayout, classes: &[Class], at: u64, key: u64) -> TraceEvent {
    let (slo, tier) = classes[layout.class(key) as usize];
    TraceEvent {
        at: Timestamp::from_nanos(at),
        model: layout.model(key),
        slo,
        tier,
    }
}

/// A mask of the `bits` low bits, for `bits` below 64.
fn low_bits(bits: u32) -> u64 {
    (1 << bits) - 1
}

/// The order of a trace: arrival time, then model, SLO and tier. It is
/// total over distinct events, so equal keys mean identical events.
pub(crate) fn arrival_order(e: &TraceEvent) -> (Timestamp, ModelId, Nanos, Tier) {
    (e.at, e.model, e.slo, e.tier)
}

fn class_of(e: &TraceEvent) -> Class {
    (e.slo, e.tier)
}

/// The distinct classes among `classes`, ascending. Inserted one by one: a
/// set collected from an iterator would buffer the whole iterator first.
fn class_table(classes: impl IntoIterator<Item = Class>) -> Vec<Class> {
    let mut table = BTreeSet::new();
    for class in classes {
        table.insert(class);
    }
    table.into_iter().collect()
}

/// The index of `class` in an ascending table that holds it.
fn rank(classes: &[Class], class: Class) -> u32 {
    classes
        .binary_search(&class)
        .expect("every class is in the table") as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(ms: u64, model: u32) -> TraceEvent {
        TraceEvent {
            at: Timestamp::from_millis(ms),
            model: ModelId(model),
            slo: Nanos::from_millis(100),
            tier: Tier::Strict,
        }
    }

    fn events(trace: &Trace) -> Vec<TraceEvent> {
        trace.iter().collect()
    }

    /// The keys of a stored trace.
    fn stored(trace: &Trace) -> &Block {
        match &*trace.inner {
            Inner::Stored(block) => block,
            Inner::Drawn(_) => panic!("a drawn trace stores no keys"),
        }
    }

    #[test]
    fn events_are_sorted_by_time() {
        let t = Trace::new(vec![event(30, 1), event(10, 2), event(20, 1)]);
        assert_eq!(events(&t), vec![event(10, 2), event(20, 1), event(30, 1)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.models(), vec![ModelId(1), ModelId(2)]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.iter().len(), 0);
        assert!(t.events().is_empty());
        assert!(t.models().is_empty());
        assert_eq!(t, Trace::new(Vec::new()));
        // Segments with no arrival, and every operation, make it.
        let layout = KeyLayout::for_segments(1_000, 3, 1).unwrap();
        let segments = vec![(0, 1_000, vec![]), (1_000, 2_000, vec![])];
        let drawn = listed(layout, vec![class_of(&event(0, 0))], segments);
        let one = Trace::new(vec![event(5, 1)]);
        for empty in [
            drawn,
            t.with_models_mapped(|m| m),
            one.partitioned(2, |_| 1).swap_remove(0),
        ] {
            assert!(empty.is_empty() && stored(&empty).epochs.is_empty());
            assert!(stored(&empty).classes.is_empty());
            assert_eq!(empty, t);
        }
    }

    /// A trace holds 8 B per arrival however many classes it mixes, and
    /// the view is the iterator's events, charged once built.
    #[test]
    fn keys_cost_what_they_hold() {
        let one: Vec<TraceEvent> = (0..1_000).map(|i| event(i, (i % 7) as u32)).collect();
        let mut two = one.clone();
        for e in two.iter_mut().step_by(3) {
            e.tier = Tier::BestEffort;
        }
        for events in [one, two] {
            let trace = Trace::new(events.clone());
            let fixed = trace.heap_bytes() - 8 * trace.len();
            assert!(fixed <= 256, "{fixed} B beyond 8 B per arrival");
            assert_eq!(trace.events(), events.as_slice());
            assert_eq!(
                trace.heap_bytes(),
                fixed + (8 + size_of::<TraceEvent>()) * trace.len(),
                "the view is charged to the trace"
            );
        }
    }

    /// A class no arrival carries leaves the table, and the ranks of the
    /// classes left are rewritten in every key.
    #[test]
    fn finishing_drops_unused_classes() {
        let mut tiered = event(20, 2);
        tiered.tier = Tier::BestEffort;
        let mut slow = event(30, 3);
        slow.slo = Nanos::MAX;
        let t = Trace::new(vec![event(10, 1), tiered, slow]);
        assert_eq!(stored(&t).classes.len(), 3);
        // The middle class goes to its own part, so the other part's last
        // class moves down a rank.
        let parts = t.partitioned(2, |m| usize::from(m.0 == 2));
        assert_eq!(events(&parts[0]), vec![event(10, 1), slow]);
        assert_eq!(stored(&parts[0]).classes.len(), 2);
        assert_eq!(events(&parts[1]), vec![tiered]);
        assert_eq!(stored(&parts[1]).classes.len(), 1);
    }

    #[test]
    fn partitioning_is_shard_stable_and_lossless() {
        let t = Trace::new((0..60).map(|i| event(i * 10, (i % 5) as u32)).collect());
        let parts = t.partitioned(2, |m| (m.0 % 2) as usize);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len() + parts[1].len(), t.len());
        for (shard, part) in parts.iter().enumerate() {
            assert!(part.iter().all(|e| (e.model.0 % 2) as usize == shard));
            let times: Vec<u64> = part.iter().map(|e| e.at.as_nanos()).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "order preserved");
        }
        // Re-merging the partitions reproduces the original trace exactly.
        assert_eq!(
            Trace::new([events(&parts[0]), events(&parts[1])].concat()),
            t
        );
        // Partitioning is per-model, so it commutes with popularity skew:
        // routing everything to one shard leaves the other empty.
        let all_one = t.partitioned(3, |_| 1);
        assert!(all_one[0].is_empty() && all_one[2].is_empty());
        assert_eq!(all_one[1], t);
    }

    #[test]
    #[should_panic(expected = "routed")]
    fn partitioning_rejects_non_total_routing() {
        let t = Trace::new(vec![event(1, 0)]);
        let _ = t.partitioned(2, |_| 7);
    }

    #[test]
    fn model_remapping_preserves_order_for_monotone_maps() {
        let t = Trace::new((0..20).map(|i| event(100, (i % 4) as u32 * 2)).collect());
        // Compact global ids {0,2,4,6} to dense local ids {0,1,2,3}.
        let local = t.with_models_mapped(|m| ModelId(m.0 / 2));
        assert_eq!(local.len(), t.len());
        for (a, b) in t.iter().zip(local.iter()) {
            assert_eq!(b.model.0, a.model.0 / 2, "same event, remapped id");
            assert_eq!(b.at, a.at);
            assert_eq!(b.slo, a.slo);
        }
        // A reversing map re-sorts the arrivals of each instant.
        let reversed = t.with_models_mapped(|m| ModelId(10 - m.0));
        let mut twin: Vec<TraceEvent> = t
            .iter()
            .map(|e| TraceEvent {
                model: ModelId(10 - e.model.0),
                ..e
            })
            .collect();
        twin.sort_by_key(arrival_order);
        assert_eq!(events(&reversed), twin);
    }

    /// Keys round-trip and sort in arrival order at the edges of Azure's
    /// budget (a 60 s minute, 28 bits of model id, one class) and of a
    /// tiered shaped second (two classes).
    #[test]
    fn keys_pack_losslessly_and_sort_in_arrival_order() {
        let minute = 60_000_000_000;
        let azure = KeyLayout::new((1 << 28) - 1, 1).expect("Azure's budget fits");
        assert_eq!(
            azure,
            KeyLayout {
                offset_shift: 28,
                class_bits: 0
            }
        );
        assert_eq!(azure.offset_bits(), 36);
        let widest = ModelId((1 << 28) - 1);
        let shaped = KeyLayout::new(u64::from(u32::MAX), 2).expect("fits");
        // Offset, model id and class rank, in arrival order.
        type Arrival = (u64, ModelId, u32);
        let cases: [(KeyLayout, &[Arrival]); 2] = [
            (
                azure,
                &[
                    (0, ModelId(0), 0),
                    (0, ModelId(1), 0),
                    (0, widest, 0),
                    (1, ModelId(0), 0),
                    (minute - 1, widest, 0),
                    (minute, ModelId(0), 0),
                    (minute, ModelId(0), 0),
                    (minute, widest, 0),
                ],
            ),
            (
                shaped,
                &[
                    (0, ModelId(0), 0),
                    (0, ModelId(0), 1),
                    (0, ModelId(0), 1),
                    (0, ModelId(1), 0),
                    (0, ModelId(u32::MAX), 1),
                    (1, ModelId(0), 0),
                    (999_999_999, ModelId(2), 1),
                    (1_000_000_000, ModelId(1), 0),
                    (1_000_000_000, ModelId(1), 1),
                    (1_000_000_000, ModelId(u32::MAX), 1),
                ],
            ),
        ];
        for (layout, arrivals) in cases {
            let keys: Vec<u64> = arrivals
                .iter()
                .map(|&(offset, model, class)| layout.pack(offset, model, class))
                .collect();
            for (&arrival, &key) in arrivals.iter().zip(&keys) {
                let unpacked = (layout.offset(key), layout.model(key), layout.class(key));
                assert_eq!(unpacked, arrival, "{layout:?}");
            }
            // The arrivals are listed in arrival order, ties included.
            for (w, pair) in keys.windows(2).zip(arrivals.windows(2)) {
                assert_eq!(w[0].cmp(&w[1]), pair[0].cmp(&pair[1]), "{pair:?}");
            }
        }
        assert!(KeyLayout::for_segments(minute, (1 << 28) - 1, 1).is_ok());
        assert!(KeyLayout::for_segments(minute, 1 << 28, 1).is_err());
        assert!(KeyLayout::for_segments(1_000_000_000, u64::from(u32::MAX), 2).is_ok());
        assert!(KeyLayout::for_segments(u64::from(u32::MAX), u64::from(u32::MAX), 2).is_err());
        // 2^31 classes of u32 ids leave the offset one bit; 2^32, none.
        assert_eq!(
            KeyLayout::new(u64::from(u32::MAX), 1 << 31).map(KeyLayout::offset_bits),
            Ok(1)
        );
        assert!(KeyLayout::new(u64::from(u32::MAX), (1 << 31) + 1).is_err());
    }

    /// The epoch of model ids up to `u32::MAX` and one class: 2^32 ns.
    const EPOCH: u64 = 1 << 32;

    fn at(ns: u64, model: u32) -> TraceEvent {
        TraceEvent {
            at: Timestamp::from_nanos(ns),
            ..event(0, model)
        }
    }

    /// The epoch table a trace of `arrivals` (in arrival order) holds
    /// under the layout of `trace`.
    fn epoch_rows(trace: &Trace, arrivals: &[TraceEvent]) -> Vec<(u64, usize)> {
        let bits = stored(trace).layout.offset_bits();
        let mut rows: Vec<(u64, usize)> = Vec::new();
        for (i, e) in arrivals.iter().enumerate() {
            let epoch = e.at.as_nanos() >> bits;
            if rows.last().is_none_or(|&(last, _)| last != epoch) {
                rows.push((epoch, i));
            }
        }
        rows
    }

    /// Arrivals at an epoch's last nanosecond, its end and the nanosecond
    /// after keep their times through every read and operation, and the
    /// table holds a row for each epoch that has an arrival.
    #[test]
    fn arrivals_at_an_epoch_edge_keep_their_times() {
        let widest = u32::MAX;
        let arrivals = vec![
            at(0, 1),
            at(EPOCH - 1, widest),
            at(EPOCH, 0),
            at(EPOCH, widest),
            at(EPOCH + 1, 2),
            at(3 * EPOCH + 5, 7),
        ];
        let trace = Trace::new(arrivals.clone());
        assert_eq!(stored(&trace).layout.offset_bits(), 32);
        assert_eq!(stored(&trace).epochs, vec![(0, 0), (1, 2), (3, 5)]);
        assert_eq!(events(&trace), arrivals);
        assert_eq!(trace.events(), arrivals);
        // Each part keeps a row for each epoch it has an arrival in.
        let parts = trace.partitioned(2, |m| (m.0 % 2) as usize);
        for (shard, part) in parts.iter().enumerate() {
            let mine: Vec<TraceEvent> = arrivals
                .iter()
                .filter(|e| (e.model.0 % 2) as usize == shard)
                .copied()
                .collect();
            assert_eq!(events(part), mine, "shard {shard}");
            assert_eq!(stored(part).epochs, epoch_rows(part, &mine));
        }
        // Reversed ids keep the epochs and swap the two arrivals tied at
        // epoch 1's first nanosecond.
        let reversed = trace.with_models_mapped(|m| ModelId(widest - m.0));
        let mut twin: Vec<TraceEvent> = arrivals
            .iter()
            .map(|e| at(e.at.as_nanos(), widest - e.model.0))
            .collect();
        twin.sort_by_key(arrival_order);
        assert_eq!(events(&reversed), twin);
        assert_eq!(stored(&reversed).epochs, stored(&trace).epochs);
        // Narrower ids widen the epoch until one holds the trace, and the
        // map's ties are re-sorted.
        let narrow = trace.with_models_mapped(|m| ModelId(2 - m.0 % 3));
        let mut twin: Vec<TraceEvent> = arrivals
            .iter()
            .map(|e| at(e.at.as_nanos(), 2 - e.model.0 % 3))
            .collect();
        twin.sort_by_key(arrival_order);
        assert_eq!(events(&narrow), twin);
        assert_eq!(stored(&narrow).epochs, vec![(0, 0)]);
    }

    /// Segments listed in full: each one's start, end and keys.
    #[derive(Clone)]
    struct Listed {
        segments: Arc<Vec<(u64, u64, Vec<u64>)>>,
        next: usize,
    }

    impl SegmentSource for Listed {
        fn draw(&mut self, keys: &mut Vec<u64>) -> Option<(u64, u64)> {
            let (start, end, listed) = self.segments.get(self.next)?;
            self.next += 1;
            keys.extend_from_slice(listed);
            Some((*start, *end))
        }

        fn fork(&self) -> Box<dyn SegmentSource> {
            Box::new(self.clone())
        }

        fn heap_bytes(&self) -> usize {
            0
        }
    }

    /// A segment's start, its end and its arrivals' offsets, model ids and
    /// class ranks.
    type Listing = (u64, u64, Vec<(u64, u32, u32)>);

    /// The trace drawn from `segments`.
    fn listed(layout: KeyLayout, classes: Vec<Class>, segments: Vec<Listing>) -> Trace {
        let segments: Vec<(u64, u64, Vec<u64>)> = segments
            .into_iter()
            .map(|(start, end, arrivals)| {
                let keys = arrivals
                    .into_iter()
                    .map(|(offset, model, class)| layout.pack(offset, ModelId(model), class))
                    .collect();
                (start, end, keys)
            })
            .collect();
        let len = segments.iter().map(|(_, _, keys)| keys.len()).sum();
        let widest = segments.iter().map(|(_, _, keys)| keys.len()).max();
        let source = Listed {
            segments: Arc::new(segments),
            next: 0,
        };
        Trace::drawn(source, layout, classes, len, widest.unwrap_or(0))
    }

    /// A drawn trace whose segments span epochs' starts reads as the trace
    /// [`Trace::new`] makes of its arrivals, which splits them at those
    /// epochs' starts, and its arrivals tied at a segment's start are read
    /// in order, whether the start is inside an epoch or opens one.
    #[test]
    fn segments_split_at_epoch_edges_and_keep_their_ties() {
        /// Offsets and model ids.
        type Arrivals<'a> = &'a [(u64, u32)];
        let strict = vec![class_of(&event(0, 0))];
        let layout = KeyLayout::for_segments(EPOCH - 1, u64::from(u32::MAX), 1).unwrap();
        let q = EPOCH / 4;
        // Each segment's start and end, and its arrivals' offsets and
        // models.
        let segments: [(u64, u64, Arrivals<'_>); 4] = [
            // Ends tied with the next segment's start, inside epoch 0.
            (0, 3 * q, &[(3 * q, 9), (5, 1), (3 * q, 2)]),
            // Ends on epoch 0's last nanosecond and, tied with the next
            // segment's start, on epoch 1's first.
            (
                3 * q,
                EPOCH,
                &[(0, 4), (q, 8), (q - 1, u32::MAX), (0, 1), (q, 6), (1, 0)],
            ),
            // Opens epoch 1 and ends on its last nanosecond.
            (EPOCH, 2 * EPOCH, &[(0, 7), (EPOCH - 1, 5), (0, 0), (1, 3)]),
            // Spans from epoch 2 into epoch 3.
            (
                2 * EPOCH + q,
                3 * EPOCH + q,
                &[(EPOCH - 1, 2), (2 * q, 1), (3 * q, 9)],
            ),
        ];
        let mut twin = Vec::new();
        for (start, _, arrivals) in segments {
            for &(offset, model) in arrivals {
                twin.push(at(start + offset, model));
            }
        }
        twin.sort_by_key(arrival_order);
        let segments = segments
            .iter()
            .map(|&(start, end, arrivals)| {
                let keys = arrivals.iter().map(|&(offset, model)| (offset, model, 0));
                (start, end, keys.collect())
            })
            .collect();
        let trace = listed(layout, strict, segments);
        assert_eq!(events(&trace), twin);
        assert_eq!(trace.events(), twin);
        let built = Trace::new(twin.clone());
        assert_eq!(trace, built, "one trace, however it is kept");
        assert_eq!(stored(&built).epochs, epoch_rows(&built, &twin));
        assert_eq!(stored(&built).epochs.len(), 4);
    }

    /// A segment's offset may round onto the next segment's start; the
    /// arrival is held back, and the arrivals at that instant still come
    /// out in arrival order, however often the trace is read.
    #[test]
    fn segments_tied_at_a_boundary_are_reordered() {
        let second = 1_000_000_000;
        let classes = vec![
            (Nanos::from_millis(100), Tier::Strict),
            (Nanos::from_millis(250), Tier::BestEffort),
        ];
        let layout = KeyLayout::for_segments(second, 9, classes.len()).unwrap();
        let segments = vec![
            (0, second, vec![(second, 7, 1), (5, 1, 0), (second, 3, 0)]),
            (second, 2 * second, vec![(0, 3, 1), (0, 2, 0), (9, 0, 0)]),
        ];
        let trace = listed(layout, classes, segments);
        let at = |ns, model, tier| TraceEvent {
            at: Timestamp::from_nanos(ns),
            model: ModelId(model),
            slo: Nanos::from_millis(if tier == Tier::Strict { 100 } else { 250 }),
            tier,
        };
        let expected = vec![
            at(5, 1, Tier::Strict),
            at(second, 2, Tier::Strict),
            at(second, 3, Tier::Strict),
            at(second, 3, Tier::BestEffort),
            at(second, 7, Tier::BestEffort),
            at(second + 9, 0, Tier::Strict),
        ];
        assert_eq!(events(&trace), expected);
        assert_eq!(events(&trace), expected, "read again");
        assert_eq!(trace.iter().len(), expected.len());
        assert_eq!(trace.events(), expected, "the view");
        assert_eq!(trace.iter().nth(4), Some(expected[4]), "a new cursor");
        let mut cursor = trace.iter();
        cursor.by_ref().for_each(drop);
        assert_eq!(cursor.next(), None, "read past its end");
    }
}
