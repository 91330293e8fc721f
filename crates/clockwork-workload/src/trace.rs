//! Request traces: a time-ordered list of request arrivals.
//!
//! Traces decouple workload generation from the serving system: generators
//! (open-loop, Azure-like) produce a [`Trace`], and the system harness replays
//! it against whichever scheduler is under test. Traces can be scaled in rate
//! and truncated in duration, which is how the paper's 8-hour / 1.5×-rate
//! experiments are shrunk to simulation budgets (each figure's doc comment in
//! `crates/bench/src/bin/paper.rs` records its scaling).
//!
//! A trace is stored as its arrivals' sort keys, one `u64` each (see
//! [`KeyLayout`]): the arrival's offset from the start of its *epoch* in the
//! high bits, then its model id, then its rank in a table of the trace's
//! distinct `(SLO, tier)` classes. The model id and the class rank take the
//! bits their largest value needs, and the offset takes every bit they
//! leave, so an epoch is 2^(offset bits) ns: 2^56 ns (about 2.3 years) for
//! 200 models and one class, 2^52 (52 days) for 3 000, 2^36 (69 s) for
//! 2^28. A sparse table holds an `(epoch, first index)` row for each epoch
//! that has an arrival, so an arrival costs 8 B however many classes the
//! trace mixes. At worst, model ids up to `u32::MAX` and `c` classes leave
//! 32 − ⌈log2 c⌉ bits of offset (2^32 ns, about 4.3 s, for one class; 2^26
//! ns, 67 ms, for 64), and every arrival may open an epoch of its own: the
//! table then holds a 16 B row per arrival, 24 B in all. The table never
//! has more rows than the trace has arrivals.
//!
//! Arrival order is total (time, model, SLO, tier): events that tie are
//! identical, and within an epoch key order is arrival order, so every sort
//! gives the same bytes and none needs a buffer. Every generator in this
//! crate writes its arrivals one time segment at a time through a
//! [`SegmentWriter`]: each arrival's key holds its offset into the segment,
//! the segment's keys are sorted in place in the buffer that becomes the
//! trace, and then rewritten in place as offsets into their epochs.

use std::collections::BTreeSet;
use std::fmt;
use std::mem::size_of;
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
type Class = (Nanos, Tier);

/// A time-ordered sequence of request arrivals.
///
/// The keys are immutable once built and held behind an [`Arc`], so a clone
/// shares the storage: the serving system replays a trace from a clone
/// instead of a copy. Read it with [`Trace::iter`] or [`Trace::get`].
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    block: Arc<Block>,
}

/// A trace's storage. Epochs ascend, and within an epoch the keys ascend,
/// which is arrival order because `classes` ascends.
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

    /// The arrival at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<TraceEvent> {
        let b = &*self.block;
        let &key = b.keys.get(index)?;
        let row = b.epochs.partition_point(|&(_, first)| first <= index) - 1;
        Some(b.event(b.layout.time(b.epochs[row].0, key), key))
    }

    /// The arrivals, in arrival order, from a cursor that shares the
    /// trace's storage.
    pub fn iter(&self) -> Arrivals {
        Arrivals {
            block: Arc::clone(&self.block),
            next: 0,
            row: 0,
            epoch_end: 0,
            epoch_start: 0,
        }
    }

    /// The arrivals as a slice of [`TraceEvent`]s: a compatibility view at
    /// 24 B per arrival, built on the first call and kept beside the shared
    /// keys until the last clone drops. Prefer [`Trace::iter`], which
    /// builds nothing.
    pub fn events(&self) -> &[TraceEvent] {
        self.block.view.get_or_init(|| self.iter().collect())
    }

    /// The heap bytes the trace holds: its keys, its epoch table and its
    /// class table, the shared block with its two reference counts, and the
    /// [`Trace::events`] view once built. Clones share all of it.
    pub fn heap_bytes(&self) -> usize {
        let b = &*self.block;
        2 * size_of::<usize>()
            + size_of::<Block>()
            + b.keys.capacity() * size_of::<u64>()
            + b.epochs.capacity() * size_of::<(u64, usize)>()
            + b.classes.capacity() * size_of::<Class>()
            + b.view
                .get()
                .map_or(0, |view| view.capacity() * size_of::<TraceEvent>())
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.block.keys.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.block.keys.is_empty()
    }

    /// The arrival time of the last request, or zero for an empty trace.
    pub fn duration(&self) -> Timestamp {
        let last = self.len().checked_sub(1).and_then(|i| self.get(i));
        last.map_or(Timestamp::ZERO, |e| e.at)
    }

    /// Mean request rate over the trace duration, in requests per second.
    pub fn mean_rate(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d <= 0.0 {
            return 0.0;
        }
        self.len() as f64 / d
    }

    /// The distinct models appearing in the trace.
    pub fn models(&self) -> Vec<ModelId> {
        let layout = self.block.layout;
        let mut models: Vec<ModelId> = self.block.keys.iter().map(|&k| layout.model(k)).collect();
        models.sort_unstable();
        models.dedup();
        models
    }

    /// Returns a copy truncated to arrivals before `cutoff`.
    pub fn truncated(&self, cutoff: Timestamp) -> Trace {
        let b = &*self.block;
        let cutoff = cutoff.as_nanos();
        let keep = self.timed_keys().take_while(|&(at, _)| at < cutoff).count();
        let mut out = Block::new(b.layout, b.classes.clone());
        out.keys = b.keys[..keep].to_vec();
        out.epochs = b
            .epochs
            .iter()
            .copied()
            .take_while(|&(_, first)| first < keep)
            .collect();
        out.finish()
    }

    /// Returns a copy with all arrival times compressed by `factor` (2.0
    /// doubles the request rate). Factors that are not finite and positive
    /// are ignored.
    pub fn rate_scaled(&self, factor: f64) -> Trace {
        if !(factor.is_finite() && factor > 0.0) {
            return self.clone();
        }
        let b = &*self.block;
        let mut out = Block::new(b.layout, b.classes.clone());
        out.keys.reserve_exact(self.len());
        for (at, key) in self.timed_keys() {
            out.push_key((at as f64 / factor).round() as u64, key);
        }
        // Rounding keeps times in order but can tie two arrivals of
        // different models.
        out.sort_tied_runs(0);
        out.finish()
    }

    /// Merges two traces into one ordered trace: the trace [`Trace::new`]
    /// makes of the two concatenated.
    pub fn merged(&self, other: &Trace) -> Trace {
        let (a, b) = (&*self.block, &*other.block);
        let classes = class_table(a.classes.iter().chain(&b.classes).copied());
        let max_model = a.layout.max_model().max(b.layout.max_model());
        let layout = KeyLayout::wide_enough(max_model, &classes);
        // Each side's arrivals as (time, model, class rank in `classes`).
        let side = |trace: &Trace| {
            let block = &*trace.block;
            let ranks: Vec<u32> = block.classes.iter().map(|&k| rank(&classes, k)).collect();
            let layout = block.layout;
            trace
                .timed_keys()
                .map(move |(at, key)| (at, layout.model(key), ranks[layout.class(key) as usize]))
        };
        let (mut xs, mut ys) = (side(self).peekable(), side(other).peekable());
        let mut out = Block::new(layout, classes);
        out.keys.reserve_exact(a.keys.len() + b.keys.len());
        while let Some((at, model, class)) = match (xs.peek(), ys.peek()) {
            (Some(x), Some(y)) if y < x => ys.next(),
            (Some(_), _) => xs.next(),
            (None, _) => ys.next(),
        } {
            out.push(at, model, class);
        }
        out.finish()
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
        let b = &*self.block;
        let mut parts: Vec<Block> = (0..shards)
            .map(|_| Block::new(b.layout, b.classes.clone()))
            .collect();
        for (at, key) in self.timed_keys() {
            let model = b.layout.model(key);
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
        let b = &*self.block;
        let from = self.models();
        let to: Vec<ModelId> = from.iter().map(|&m| map(m)).collect();
        let max_model = to.iter().map(|m| m.0).max().unwrap_or(0);
        let mut out = Block::new(
            KeyLayout::wide_enough(max_model, &b.classes),
            b.classes.clone(),
        );
        out.keys.reserve_exact(self.len());
        for (at, key) in self.timed_keys() {
            let index = from.binary_search(&b.layout.model(key));
            let model = to[index.expect("every model is listed")];
            out.push(at, model, b.layout.class(key));
        }
        out.sort_tied_runs(0);
        out.finish()
    }

    /// Each arrival's time and key, in arrival order.
    fn timed_keys(&self) -> impl Iterator<Item = (u64, u64)> {
        let mut cursor = self.iter();
        std::iter::from_fn(move || cursor.next_timed())
    }

    /// Serialises the trace to a simple CSV (`at_ns,model,slo_ns,tier`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("at_ns,model,slo_ns,tier\n");
        for e in self.iter() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                e.at.as_nanos(),
                e.model.0,
                e.slo.as_nanos(),
                e.tier.index()
            ));
        }
        out
    }

    /// Parses a trace from the CSV format produced by [`Trace::to_csv`].
    ///
    /// The `tier` column is optional: three-field lines (the pre-tier
    /// format) parse as [`Tier::Strict`]. A tier other than 0 (strict) or 1
    /// (best effort) is an error.
    pub fn from_csv(text: &str) -> Result<Trace, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 3 && fields.len() != 4 {
                return Err(format!(
                    "line {}: expected 3 or 4 fields, got {}",
                    i + 1,
                    fields.len()
                ));
            }
            let at: u64 = fields[0]
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad timestamp: {e}", i + 1))?;
            let model: u32 = fields[1]
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad model id: {e}", i + 1))?;
            let slo: u64 = fields[2]
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad slo: {e}", i + 1))?;
            let tier = match fields.get(3).map(|raw| raw.trim().parse()) {
                None => Tier::Strict,
                Some(Ok(index @ (0 | 1))) => Tier::from_index(index),
                Some(_) => return Err(format!("line {}: bad tier: expected 0 or 1", i + 1)),
            };
            events.push(TraceEvent {
                at: Timestamp::from_nanos(at),
                model: ModelId(model),
                slo: Nanos::from_nanos(slo),
                tier,
            });
        }
        Ok(Trace::new(events))
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

/// A cursor over a trace's arrivals, in order. It holds a share of the
/// trace's storage, so it outlives the [`Trace`] it came from, and decodes
/// each arrival as it is reached.
pub struct Arrivals {
    block: Arc<Block>,
    /// The index of the next arrival.
    next: usize,
    /// The row of the epoch table the cursor enters next.
    row: usize,
    /// The index where the epoch the cursor is in ends: the first arrival
    /// of row `row`.
    epoch_end: usize,
    /// The time the epoch the cursor is in starts at.
    epoch_start: u64,
}

impl Arrivals {
    /// The next arrival's time and key.
    fn next_timed(&mut self) -> Option<(u64, u64)> {
        let b = &*self.block;
        let &key = b.keys.get(self.next)?;
        // Every row holds an arrival, so the cursor enters each in turn.
        if self.next == self.epoch_end {
            self.epoch_start = b.layout.time(b.epochs[self.row].0, 0);
            self.row += 1;
            self.epoch_end = b
                .epochs
                .get(self.row)
                .map_or(usize::MAX, |&(_, first)| first);
        }
        self.next += 1;
        Some((self.epoch_start | b.layout.offset(key), key))
    }
}

impl Iterator for Arrivals {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let (at, key) = self.next_timed()?;
        Some(self.block.event(at, key))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.block.keys.len() - self.next;
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

    /// The arrival at `at` ns whose key is `key`.
    fn event(&self, at: u64, key: u64) -> TraceEvent {
        let (slo, tier) = self.classes[self.layout.class(key) as usize];
        TraceEvent {
            at: Timestamp::from_nanos(at),
            model: self.layout.model(key),
            slo,
            tier,
        }
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

    /// Restores arrival order among the arrivals from index `from` on and
    /// the ones before them, after writing that kept times ascending but
    /// may have reordered arrivals at one instant: each run of equal times
    /// found out of order is sorted as keys.
    fn sort_tied_runs(&mut self, from: usize) {
        let Block {
            keys: all,
            epochs,
            layout,
            ..
        } = self;
        let row = epochs
            .partition_point(|&(_, first)| first <= from)
            .saturating_sub(1);
        let ends = epochs[row..].iter().skip(1).map(|&(_, first)| first);
        for (&(_, first), end) in epochs[row..].iter().zip(ends.chain([all.len()])) {
            let keys = &mut all[first..end];
            let mut i = from.saturating_sub(first).max(1);
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
    /// left, trims every buffer to its length and shares the block as a
    /// trace.
    fn finish(mut self) -> Trace {
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
        Trace {
            block: Arc::new(self),
        }
    }
}

/// How an arrival packs into a `u64` sort key: an offset in the high bits,
/// then its model id, then its class rank in the low bits. Key order is
/// then arrival order among arrivals whose offsets share an origin: a time
/// segment's start while a generator sorts it, an epoch's start once it is
/// in a trace. The offset takes every bit the model id and class rank
/// leave, so an epoch is 2^[`KeyLayout::offset_bits`] ns.
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

    /// The largest model id the layout holds.
    fn max_model(self) -> u32 {
        ((1u64 << (self.offset_shift - self.class_bits)) - 1) as u32
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

/// A mask of the `bits` low bits, for `bits` below 64.
fn low_bits(bits: u32) -> u64 {
    (1 << bits) - 1
}

/// Writes a trace one time segment at a time. Each arrival goes into the
/// trace's key buffer keyed by its offset into the open segment, and
/// closing the segment sorts its keys in place and rewrites them, in
/// place, as offsets into their epochs. So no segment needs a buffer of
/// its own, and the key buffer is the one buffer that grows: the allocator
/// can extend it where it lies, and a generator that bounds its trace's
/// length allocates it once.
pub(crate) struct SegmentWriter {
    block: Block,
    /// How many keys the closed segments hold: where the open one begins.
    closed: usize,
}

impl SegmentWriter {
    /// A writer for segments whose offsets reach at most `max_offset` ns,
    /// of arrivals for model ids up to `max_model` in one of `classes`
    /// (ascending, distinct; a class rank is an index into it). Fails when
    /// their key does not fit 64 bits.
    pub(crate) fn new(
        max_offset: u64,
        max_model: u64,
        classes: Vec<Class>,
    ) -> Result<Self, String> {
        let layout = KeyLayout::new(max_model, classes.len())?;
        let offset_bits = u64::BITS - max_offset.leading_zeros();
        if offset_bits > layout.offset_bits() {
            return Err(format!(
                "an arrival key needs {offset_bits} bits of offset (up to {max_offset} ns), \
                 {} of model id (up to {max_model}) and {} of class: more than 64",
                layout.offset_shift - layout.class_bits,
                layout.class_bits
            ));
        }
        Ok(SegmentWriter {
            block: Block::new(layout, classes),
            closed: 0,
        })
    }

    /// Makes room for `arrivals` more arrivals at once. A generator that
    /// can bound its trace's length ahead allocates the key buffer once;
    /// [`SegmentWriter::finish`] trims what the bound overshot.
    pub(crate) fn reserve(&mut self, arrivals: usize) {
        self.block.keys.reserve_exact(arrivals);
    }

    /// Adds an arrival `offset` ns into the open segment. The key buffer
    /// grows by a sixteenth at a time, so appends stay amortised while it
    /// never holds more than about a sixteenth of itself spare.
    pub(crate) fn push(&mut self, offset: u64, model: ModelId, class: u32) {
        let keys = &mut self.block.keys;
        if keys.len() == keys.capacity() {
            keys.reserve_exact((keys.len() / 16).max(256));
        }
        keys.push(self.block.layout.pack(offset, model, class));
    }

    /// Closes the open segment, which starts at `start`: sorts its keys and
    /// rewrites them as offsets into their epochs. An offset may round onto
    /// the next segment's start, so the arrivals of the segment before at
    /// this one's start are re-sorted with this one's own arrivals there.
    pub(crate) fn close_segment(&mut self, start: Timestamp) {
        let (block, closed) = (&mut self.block, self.closed);
        let layout = block.layout;
        let start = start.as_nanos();
        let (epoch, cut) = layout.split(start);
        let keys = &mut block.keys[closed..];
        keys.sort_unstable();
        // Adding the start moves each offset into the start's epoch. The
        // offset bits wrap, so an arrival past that epoch's end, in the
        // next one (a segment is shorter than an epoch), gets its offset
        // into that epoch, below the start's own offset `cut`.
        for key in keys.iter_mut() {
            *key = key.wrapping_add(start << layout.offset_shift);
        }
        let wrapped = closed + keys.partition_point(|&k| layout.offset(k) >= cut);
        if wrapped > closed {
            block.open_epoch(epoch, closed);
        }
        if wrapped < block.keys.len() {
            block.open_epoch(epoch + 1, wrapped);
        }
        // Only arrivals at this segment's start can tie with the last
        // segment's.
        let last = closed.checked_sub(1).map(|i| block.keys[i]);
        if block.keys.get(closed).is_some_and(|&k| Some(k) < last) {
            block.sort_tied_runs(closed);
        }
        self.closed = block.keys.len();
    }

    /// The trace written, every segment closed.
    pub(crate) fn finish(self) -> Trace {
        debug_assert_eq!(self.closed, self.block.keys.len(), "a segment left open");
        self.block.finish()
    }
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

    #[test]
    fn events_are_sorted_by_time() {
        let t = Trace::new(vec![event(30, 1), event(10, 2), event(20, 1)]);
        let times: Vec<u64> = t.iter().map(|e| e.at.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t.len(), 3);
        assert_eq!(t.duration(), Timestamp::from_millis(30));
        assert_eq!(t.models(), vec![ModelId(1), ModelId(2)]);
        assert_eq!(t.get(1), Some(event(20, 1)));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.mean_rate(), 0.0);
        assert_eq!(t.duration(), Timestamp::ZERO);
        assert_eq!(t.get(0), None);
        assert_eq!(t.iter().len(), 0);
        assert!(t.models().is_empty());
        assert_eq!(t, Trace::new(Vec::new()));
        // Closed segments with no arrival, and every operation, make it.
        let mut writer = SegmentWriter::new(1_000, 3, vec![class_of(&event(0, 0))]).unwrap();
        writer.close_segment(Timestamp::ZERO);
        writer.close_segment(Timestamp::from_nanos(1_000));
        let written = writer.finish();
        let one = Trace::new(vec![event(5, 1)]);
        for empty in [
            written,
            one.truncated(Timestamp::ZERO),
            t.rate_scaled(2.0),
            t.merged(&t),
            t.with_models_mapped(|m| m),
            one.partitioned(2, |_| 1).swap_remove(0),
            Trace::from_csv("at_ns,model,slo_ns\n").unwrap(),
        ] {
            assert!(empty.is_empty() && empty.block.epochs.is_empty());
            assert!(empty.block.classes.is_empty());
            assert_eq!(empty, t);
        }
        assert_eq!(t.merged(&one), one);
    }

    #[test]
    fn mean_rate() {
        let events: Vec<TraceEvent> = (1..=100).map(|i| event(i * 10, 1)).collect();
        let t = Trace::new(events);
        // 100 events over 1 second.
        assert!((t.mean_rate() - 100.0).abs() < 1.0);
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
        let mut slow = event(30, 2);
        slow.slo = Nanos::MAX;
        let t = Trace::new(vec![event(10, 1), tiered, slow]);
        assert_eq!(t.block.classes.len(), 3);
        let head = t.truncated(Timestamp::from_millis(25));
        assert_eq!(head.block.classes.len(), 2);
        assert_eq!(events(&head), vec![event(10, 1), tiered]);
        let first = t.truncated(Timestamp::from_millis(15));
        assert_eq!(first.block.classes.len(), 1);
        assert_eq!(events(&first), vec![event(10, 1)]);
        let parts = t.partitioned(2, |m| m.0 as usize - 1);
        assert_eq!(events(&parts[1]), vec![tiered, slow]);
        assert_eq!(parts[1].block.classes.len(), 2);
        assert_eq!(parts[0].merged(&parts[1]), t);
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
        assert_eq!(parts[0].merged(&parts[1]), t);
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

    #[test]
    fn truncation_and_scaling() {
        let t = Trace::new((0..100).map(|i| event(i * 10, 1)).collect());
        let first_half = t.truncated(Timestamp::from_millis(500));
        assert_eq!(first_half.len(), 50);
        let double = t.rate_scaled(2.0);
        assert_eq!(double.duration(), Timestamp::from_millis(495));
        for invalid in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(t.rate_scaled(invalid), t, "factor {invalid} is ignored");
        }
    }

    #[test]
    fn scaling_that_ties_two_arrivals_keeps_model_order() {
        let at = |ns, model| TraceEvent {
            at: Timestamp::from_nanos(ns),
            ..event(0, model)
        };
        // 1 ns and 2 ns both halve to 1 ns (0.5 rounds up).
        let scaled = Trace::new(vec![at(1, 5), at(2, 3)]).rate_scaled(2.0);
        assert_eq!(scaled, Trace::new(vec![at(1, 3), at(1, 5)]));
        assert_eq!(scaled.get(0).map(|e| e.model), Some(ModelId(3)));
    }

    #[test]
    fn merging_interleaves() {
        let a = Trace::new(vec![event(10, 1), event(30, 1)]);
        let b = Trace::new(vec![event(20, 2)]);
        let m = a.merged(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(1).map(|e| e.model), Some(ModelId(2)));
        // On a tie in time and model the shorter SLO comes first, from
        // either side.
        let mut slow = event(10, 1);
        slow.slo = Nanos::from_millis(900);
        let c = Trace::new(vec![slow]);
        assert_eq!(events(&a.merged(&c))[..2], [event(10, 1), slow]);
        assert_eq!(events(&c.merged(&a))[..2], [event(10, 1), slow]);
    }

    #[test]
    fn csv_round_trip() {
        let mut tiered = event(20, 2);
        tiered.tier = Tier::BestEffort;
        let t = Trace::new(vec![event(10, 1), tiered]);
        let csv = t.to_csv();
        let parsed = Trace::from_csv(&csv).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn csv_without_tier_column_reads_strict() {
        let parsed = Trace::from_csv("at_ns,model,slo_ns\n1000,2,3000\n").unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed.get(0).map(|e| e.tier), Some(Tier::Strict));
    }

    #[test]
    fn csv_parse_errors_are_reported() {
        assert!(Trace::from_csv("at_ns,model,slo_ns\n1,2\n").is_err());
        assert!(Trace::from_csv("at_ns,model,slo_ns\nx,2,3\n").is_err());
        assert!(Trace::from_csv("at_ns,model,slo_ns,tier\n1,2,3,x\n").is_err());
        for tier in ["2", "7", "-1"] {
            let err = Trace::from_csv(&format!("at_ns,model,slo_ns,tier\n1,2,3,1\n4,5,6,{tier}\n"));
            assert_eq!(err, Err("line 3: bad tier: expected 0 or 1".to_string()));
        }
        let empty = Trace::from_csv("at_ns,model,slo_ns\n").unwrap();
        assert!(empty.is_empty());
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
        let strict = || vec![class_of(&event(0, 0))];
        assert!(SegmentWriter::new(minute, (1 << 28) - 1, strict()).is_ok());
        assert!(SegmentWriter::new(minute, 1 << 28, strict()).is_err());
        let two = vec![(Nanos::ZERO, Tier::Strict), (Nanos::ZERO, Tier::BestEffort)];
        assert!(SegmentWriter::new(1_000_000_000, u64::from(u32::MAX), two.clone()).is_ok());
        assert!(SegmentWriter::new(u64::from(u32::MAX), u64::from(u32::MAX), two).is_err());
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
        let bits = trace.block.layout.offset_bits();
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
        assert_eq!(trace.block.layout.offset_bits(), 32);
        assert_eq!(trace.block.epochs, vec![(0, 0), (1, 2), (3, 5)]);
        assert_eq!(events(&trace), arrivals);
        for (i, e) in arrivals.iter().enumerate() {
            assert_eq!(trace.get(i), Some(*e), "arrival {i}");
        }
        assert_eq!(trace.duration(), Timestamp::from_nanos(3 * EPOCH + 5));
        for (cut, keep) in [(EPOCH - 1, 1), (EPOCH, 2), (EPOCH + 1, 4), (2 * EPOCH, 5)] {
            let head = trace.truncated(Timestamp::from_nanos(cut));
            assert_eq!(events(&head), arrivals[..keep], "cut at {cut}");
            assert_eq!(head.block.epochs, epoch_rows(&head, &arrivals[..keep]));
        }
        // Halving the times ties the three arrivals about the first edge.
        let mut halved: Vec<TraceEvent> = arrivals
            .iter()
            .map(|e| at((e.at.as_nanos() as f64 / 2.0).round() as u64, e.model.0))
            .collect();
        halved.sort_by_key(arrival_order);
        let scaled = trace.rate_scaled(2.0);
        assert_eq!(events(&scaled), halved);
        assert_eq!(scaled.block.epochs, epoch_rows(&scaled, &halved));
        // Narrower ids widen the epoch until one holds the trace, and the
        // map's ties are re-sorted.
        let narrow = trace.with_models_mapped(|m| ModelId(2 - m.0 % 3));
        let mut twin: Vec<TraceEvent> = arrivals
            .iter()
            .map(|e| at(e.at.as_nanos(), 2 - e.model.0 % 3))
            .collect();
        twin.sort_by_key(arrival_order);
        assert_eq!(events(&narrow), twin);
        assert_eq!(narrow.block.epochs, vec![(0, 0)]);
        let parts = trace.partitioned(2, |m| (m.0 % 2) as usize);
        assert_eq!(parts[0].merged(&parts[1]), trace);
        assert_eq!(narrow.merged(&trace).len(), 2 * arrivals.len());
    }

    /// A segment that spans an epoch's start is split between the two
    /// epochs, and arrivals tied at a segment's start are re-sorted,
    /// whether the start is inside an epoch or opens one.
    #[test]
    fn segments_split_at_epoch_edges_and_keep_their_ties() {
        let strict = vec![class_of(&event(0, 0))];
        let mut writer = SegmentWriter::new(EPOCH - 1, u64::from(u32::MAX), strict).unwrap();
        let q = EPOCH / 4;
        // Each segment's start, and its arrivals' offsets and models.
        let segments: [(u64, &[(u64, u32)]); 4] = [
            // Ends tied with the next segment's start, inside epoch 0.
            (0, &[(3 * q, 9), (5, 1), (3 * q, 2)]),
            // Ends on epoch 0's last nanosecond and, tied with the next
            // segment's start, on epoch 1's first.
            (
                3 * q,
                &[(0, 4), (q, 8), (q - 1, u32::MAX), (0, 1), (q, 6), (1, 0)],
            ),
            // Opens epoch 1 and ends on its last nanosecond.
            (EPOCH, &[(0, 7), (EPOCH - 1, 5), (0, 0), (1, 3)]),
            // Spans from epoch 2 into epoch 3.
            (2 * EPOCH + q, &[(EPOCH - 1, 2), (2 * q, 1), (3 * q, 9)]),
        ];
        let mut twin = Vec::new();
        for (start, arrivals) in segments {
            for &(offset, model) in arrivals {
                writer.push(offset, ModelId(model), 0);
                twin.push(at(start + offset, model));
            }
            writer.close_segment(Timestamp::from_nanos(start));
        }
        twin.sort_by_key(arrival_order);
        let trace = writer.finish();
        assert_eq!(events(&trace), twin);
        assert_eq!(trace.block.epochs, epoch_rows(&trace, &twin));
        assert_eq!(trace.block.epochs.len(), 4);
        let built = Trace::new(twin);
        assert_eq!(
            trace.block.keys, built.block.keys,
            "one trace, one set of keys"
        );
        assert_eq!(trace.block.epochs, built.block.epochs);
    }

    /// A segment's offset may round onto the next segment's start; the
    /// arrivals at that instant still come out in arrival order.
    #[test]
    fn segments_tied_at_a_boundary_are_reordered() {
        let second = 1_000_000_000;
        let classes = vec![
            (Nanos::from_millis(100), Tier::Strict),
            (Nanos::from_millis(250), Tier::BestEffort),
        ];
        let mut writer = SegmentWriter::new(second, 9, classes).unwrap();
        writer.push(second, ModelId(7), 1);
        writer.push(5, ModelId(1), 0);
        writer.push(second, ModelId(3), 0);
        writer.close_segment(Timestamp::ZERO);
        writer.push(0, ModelId(3), 1);
        writer.push(0, ModelId(2), 0);
        writer.push(9, ModelId(0), 0);
        writer.close_segment(Timestamp::from_nanos(second));
        let trace = writer.finish();
        let at = |ns, model, tier| TraceEvent {
            at: Timestamp::from_nanos(ns),
            model: ModelId(model),
            slo: Nanos::from_millis(if tier == Tier::Strict { 100 } else { 250 }),
            tier,
        };
        assert_eq!(
            events(&trace),
            vec![
                at(5, 1, Tier::Strict),
                at(second, 2, Tier::Strict),
                at(second, 3, Tier::Strict),
                at(second, 3, Tier::BestEffort),
                at(second, 7, Tier::BestEffort),
                at(second + 9, 0, Tier::Strict),
            ]
        );
    }
}
