//! Request traces: a time-ordered list of request arrivals.
//!
//! Traces decouple workload generation from the serving system: generators
//! (open-loop, Azure-like) produce a [`Trace`], and the system harness replays
//! it against whichever scheduler is under test. Traces can be scaled in rate
//! and truncated in duration, which is how the paper's 8-hour / 1.5×-rate
//! experiments are shrunk to simulation budgets (each figure's doc comment in
//! `crates/bench/src/bin/paper.rs` records its scaling).
//!
//! A trace is stored as columns: arrival times (8 B), model ids (4 B) and,
//! only when the trace mixes several `(SLO, tier)` classes, a class index
//! (4 B) into a table of the distinct classes. A single-class trace, as
//! every generated one but a tiered shaped workload is, costs 12 B per
//! arrival.
//!
//! Arrival order is total (time, model, SLO, tier): events that tie are
//! identical, so every sort gives the same bytes and none needs a buffer.
//! Every generator in this crate writes its arrivals one time segment at a
//! time through a [`SegmentWriter`]: each arrival is a `u64` key packing its
//! offset into the segment above its model and class (see [`KeyLayout`]),
//! the segment's keys are sorted in place in the time column itself, and
//! then rewritten as arrival times beside their models and classes.

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
/// The columns are immutable once built and held behind an [`Arc`], so a
/// clone shares the storage: the serving system replays a trace from a clone
/// instead of a copy. Read it with [`Trace::iter`] or [`Trace::get`].
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    columns: Arc<Columns>,
}

/// A trace's storage. Times ascend, and within one time the `(model,
/// class)` pairs ascend, which is arrival order because `classes` ascends.
#[derive(Default)]
struct Columns {
    /// Arrival times in nanoseconds from the trace's start.
    at: Vec<u64>,
    /// The model each arrival targets.
    model: Vec<ModelId>,
    /// Each arrival's index into `classes`; empty when `classes` holds at
    /// most one pair, which every arrival then carries.
    class: Vec<u32>,
    /// The distinct `(SLO, tier)` pairs of the arrivals, ascending.
    classes: Vec<Class>,
    /// The array-of-structs view [`Trace::events`] builds on first call.
    view: OnceLock<Vec<TraceEvent>>,
}

impl Trace {
    /// Creates a trace from events, sorting them in place into arrival
    /// order (time, model, SLO, tier) first when they are not in it.
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        if !events.is_sorted_by_key(arrival_order) {
            events.sort_unstable_by_key(arrival_order);
        }
        let classes = class_table(events.iter().map(class_of));
        let class = if classes.len() > 1 {
            events.iter().map(|e| rank(&classes, class_of(e))).collect()
        } else {
            Vec::new()
        };
        Columns {
            at: events.iter().map(|e| e.at.as_nanos()).collect(),
            model: events.iter().map(|e| e.model).collect(),
            class,
            classes,
            view: OnceLock::new(),
        }
        .finish()
    }

    /// The arrival at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<TraceEvent> {
        (index < self.len()).then(|| self.columns.event(index))
    }

    /// The arrivals, in arrival order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        (0..self.len()).map(|i| self.columns.event(i))
    }

    /// The arrivals as a slice of [`TraceEvent`]s: a compatibility view at
    /// 24 B per arrival, built on the first call and kept beside the shared
    /// columns until the last clone drops. Prefer [`Trace::iter`], which
    /// builds nothing.
    pub fn events(&self) -> &[TraceEvent] {
        self.columns.view.get_or_init(|| self.iter().collect())
    }

    /// The heap bytes the trace holds: its columns' buffers, the class
    /// table, the shared block with its two reference counts, and the
    /// [`Trace::events`] view once built. Clones share all of it.
    pub fn heap_bytes(&self) -> usize {
        let c = &*self.columns;
        2 * size_of::<usize>()
            + size_of::<Columns>()
            + c.at.capacity() * size_of::<u64>()
            + c.model.capacity() * size_of::<ModelId>()
            + c.class.capacity() * size_of::<u32>()
            + c.classes.capacity() * size_of::<Class>()
            + c.view
                .get()
                .map_or(0, |view| view.capacity() * size_of::<TraceEvent>())
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.columns.at.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.columns.at.is_empty()
    }

    /// The arrival time of the last request, or zero for an empty trace.
    pub fn duration(&self) -> Timestamp {
        Timestamp::from_nanos(self.columns.at.last().copied().unwrap_or(0))
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
        let mut models = self.columns.model.clone();
        models.sort_unstable();
        models.dedup();
        models
    }

    /// Returns a copy truncated to arrivals before `cutoff`.
    pub fn truncated(&self, cutoff: Timestamp) -> Trace {
        let c = &*self.columns;
        let keep = c.at.partition_point(|&at| at < cutoff.as_nanos());
        self.with_columns(
            c.at[..keep].to_vec(),
            c.model[..keep].to_vec(),
            c.class[..keep.min(c.class.len())].to_vec(),
        )
    }

    /// Returns a copy with all arrival times compressed by `factor` (2.0
    /// doubles the request rate). Factors that are not finite and positive
    /// are ignored.
    pub fn rate_scaled(&self, factor: f64) -> Trace {
        if !(factor.is_finite() && factor > 0.0) {
            return self.clone();
        }
        let c = &*self.columns;
        // Rounding keeps times in order but can tie two arrivals of
        // different models.
        self.with_columns(
            c.at.iter()
                .map(|&at| (at as f64 / factor).round() as u64)
                .collect(),
            c.model.clone(),
            c.class.clone(),
        )
    }

    /// Merges two traces into one ordered trace: the trace [`Trace::new`]
    /// makes of the two concatenated.
    pub fn merged(&self, other: &Trace) -> Trace {
        let (a, b) = (&*self.columns, &*other.columns);
        let classes = class_table(a.classes.iter().chain(&b.classes).copied());
        let ranks = |side: &Columns| -> Vec<u32> {
            side.classes.iter().map(|&k| rank(&classes, k)).collect()
        };
        let (ranks_a, ranks_b) = (ranks(a), ranks(b));
        let key = |side: &Columns, ranks: &[u32], i: usize| {
            (side.at[i], side.model[i], ranks[side.class_index(i)])
        };
        let mut out = Columns::with_classes(classes);
        out.reserve_exact(a.at.len() + b.at.len());
        let (mut i, mut j) = (0, 0);
        while i < a.at.len() || j < b.at.len() {
            let from_b =
                i == a.at.len() || (j < b.at.len() && key(b, &ranks_b, j) < key(a, &ranks_a, i));
            let (at, model, class) = if from_b {
                j += 1;
                key(b, &ranks_b, j - 1)
            } else {
                i += 1;
                key(a, &ranks_a, i - 1)
            };
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
        let c = &*self.columns;
        let mut parts: Vec<Columns> = (0..shards)
            .map(|_| Columns::with_classes(c.classes.clone()))
            .collect();
        for (i, (&at, &model)) in c.at.iter().zip(&c.model).enumerate() {
            let shard = owner(model);
            assert!(
                shard < shards,
                "trace partition routed {model:?} to shard {shard} of {shards}"
            );
            // Each partition is a subsequence of an ordered trace, so it
            // stays in order.
            parts[shard].push(at, model, c.class_index(i) as u32);
        }
        parts.into_iter().map(Columns::finish).collect()
    }

    /// Returns a copy with every event's model id remapped. With a monotone
    /// map (as when compacting a shard's owned models to dense local ids)
    /// the event order is preserved byte for byte; a non-monotone map still
    /// yields a valid trace: only arrivals at one instant can change order,
    /// and they are re-sorted.
    pub fn with_models_mapped(&self, mut map: impl FnMut(ModelId) -> ModelId) -> Trace {
        let c = &*self.columns;
        let model = c.model.iter().map(|&m| map(m)).collect();
        self.with_columns(c.at.clone(), model, c.class.clone())
    }

    /// A trace of the given columns over this trace's classes. Their times
    /// must ascend; the arrivals of each instant are re-sorted.
    fn with_columns(&self, at: Vec<u64>, model: Vec<ModelId>, class: Vec<u32>) -> Trace {
        let mut columns = Columns {
            at,
            model,
            class,
            classes: self.columns.classes.clone(),
            view: OnceLock::new(),
        };
        columns.sort_tied_runs();
        columns.finish()
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

impl Columns {
    /// Empty columns over a class table, which must be ascending.
    fn with_classes(classes: Vec<Class>) -> Columns {
        debug_assert!(classes.is_sorted(), "class table out of order");
        Columns {
            classes,
            ..Columns::default()
        }
    }

    /// Whether the class column is kept: only for several classes.
    fn keeps_classes(&self) -> bool {
        self.classes.len() > 1
    }

    /// Arrival `i`'s index into the class table.
    fn class_index(&self, i: usize) -> usize {
        self.class.get(i).map_or(0, |&k| k as usize)
    }

    /// Arrival `i`, which must be in range.
    fn event(&self, i: usize) -> TraceEvent {
        let (slo, tier) = self.classes[self.class_index(i)];
        TraceEvent {
            at: Timestamp::from_nanos(self.at[i]),
            model: self.model[i],
            slo,
            tier,
        }
    }

    /// Makes room for exactly `additional` more arrivals in every column
    /// kept.
    fn reserve_exact(&mut self, additional: usize) {
        self.at.reserve_exact(additional);
        self.model.reserve_exact(additional);
        if self.keeps_classes() {
            self.class.reserve_exact(additional);
        }
    }

    /// Appends an arrival after every arrival already held.
    fn push(&mut self, at: u64, model: ModelId, class: u32) {
        self.at.push(at);
        self.model.push(model);
        if self.keeps_classes() {
            self.class.push(class);
        }
    }

    /// Restores arrival order within every run of equal times, after an
    /// operation that kept times ascending but may have reordered the
    /// models or classes of arrivals at one instant.
    fn sort_tied_runs(&mut self) {
        let key = |c: &Columns, i: usize| (c.model[i], c.class_index(i));
        let mut lo = 0;
        while lo < self.at.len() {
            let mut hi = lo + 1;
            while hi < self.at.len() && self.at[hi] == self.at[lo] {
                hi += 1;
            }
            if (lo + 1..hi).any(|i| key(self, i - 1) > key(self, i)) {
                self.sort_tied_run(lo, hi);
            }
            lo = hi;
        }
    }

    /// Sorts arrivals `lo..hi`, which share one time, by model and then
    /// class, in place: their time slots hold `(model, class)` keys while
    /// they sort.
    fn sort_tied_run(&mut self, lo: usize, hi: usize) {
        let at = self.at[lo];
        for i in lo..hi {
            self.at[i] = u64::from(self.model[i].0) << 32 | self.class_index(i) as u64;
        }
        self.at[lo..hi].sort_unstable();
        for i in lo..hi {
            let key = self.at[i];
            self.model[i] = ModelId((key >> 32) as u32);
            if self.keeps_classes() {
                self.class[i] = key as u32;
            }
            self.at[i] = at;
        }
    }

    /// Drops the classes no arrival carries, and the class column with
    /// them when one class is left, trims every buffer to its length and
    /// shares the columns as a trace.
    fn finish(mut self) -> Trace {
        if self.at.is_empty() {
            self.classes.clear();
        }
        if self.keeps_classes() {
            let mut used = vec![false; self.classes.len()];
            for &k in &self.class {
                used[k as usize] = true;
            }
            // A kept class's new index: how many kept classes precede it.
            let renumber: Vec<u32> = used
                .iter()
                .scan(0, |kept, &u| {
                    *kept += u32::from(u);
                    Some(*kept - u32::from(u))
                })
                .collect();
            let mut keep = used.iter();
            self.classes.retain(|_| keep.next() == Some(&true));
            if !self.keeps_classes() {
                self.class = Vec::new();
            } else if used.contains(&false) {
                for k in &mut self.class {
                    *k = renumber[*k as usize];
                }
            }
        }
        self.at.shrink_to_fit();
        self.model.shrink_to_fit();
        self.class.shrink_to_fit();
        self.classes.shrink_to_fit();
        Trace {
            columns: Arc::new(self),
        }
    }
}

/// How a generator packs one arrival of a time segment into a `u64` sort
/// key: its offset from the segment's start in the high bits, then its
/// model id, then its class rank in the low bits. Key order is then arrival
/// order within the segment, so sorting the keys sorts the segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct KeyLayout {
    /// Bits below the offset: the model id's and the class rank's.
    offset_shift: u32,
    /// Bits below the model id: the class rank's.
    class_bits: u32,
}

impl KeyLayout {
    /// The layout for offsets up to `max_offset` ns, model ids up to
    /// `max_model` and `classes` class ranks, or an error saying why they
    /// do not fit 64 bits.
    pub(crate) fn new(max_offset: u64, max_model: u64, classes: usize) -> Result<Self, String> {
        let bits = |max: u64| (u64::BITS - max.leading_zeros()).max(1);
        let (offset_bits, model_bits) = (bits(max_offset), bits(max_model));
        let class_bits = u64::BITS - (classes.max(1) as u64 - 1).leading_zeros();
        if offset_bits + model_bits + class_bits > u64::BITS {
            return Err(format!(
                "an arrival key needs {offset_bits} bits of offset (up to {max_offset} ns), \
                 {model_bits} of model id (up to {max_model}) and {class_bits} of class: \
                 more than 64"
            ));
        }
        Ok(KeyLayout {
            offset_shift: model_bits + class_bits,
            class_bits,
        })
    }

    /// The key of an arrival `offset` ns into its segment.
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

    /// The offset, model and class rank a key packs.
    pub(crate) fn unpack(self, key: u64) -> (u64, ModelId, u32) {
        let below = key & ((1 << self.offset_shift) - 1);
        (
            key >> self.offset_shift,
            ModelId((below >> self.class_bits) as u32),
            (below & ((1 << self.class_bits) - 1)) as u32,
        )
    }
}

/// Writes a trace one time segment at a time. Each arrival goes into the
/// time column as a [`KeyLayout`] key, and closing a segment sorts its keys
/// in place, so no segment needs a buffer of its own. The keys become
/// arrival times, models and classes only when the trace is finished: until
/// then the time column is the one buffer that grows, so the allocator can
/// extend it where it lies, and the other columns are allocated once, at
/// their final length.
pub(crate) struct SegmentWriter {
    columns: Columns,
    layout: KeyLayout,
    /// Each closed segment's first index in the time column and its start.
    segments: Vec<(usize, u64)>,
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
        Ok(SegmentWriter {
            layout: KeyLayout::new(max_offset, max_model, classes.len())?,
            columns: Columns::with_classes(classes),
            segments: Vec::new(),
            closed: 0,
        })
    }

    /// Makes room for `arrivals` more arrivals at once. A generator that
    /// can bound its trace's length ahead allocates the time column once;
    /// [`SegmentWriter::finish`] trims what the bound overshot.
    pub(crate) fn reserve(&mut self, arrivals: usize) {
        self.columns.at.reserve_exact(arrivals);
    }

    /// Adds an arrival `offset` ns into the open segment. The time column
    /// grows by a sixteenth at a time, so appends stay amortised while it
    /// never holds more than about a sixteenth of itself spare.
    pub(crate) fn push(&mut self, offset: u64, model: ModelId, class: u32) {
        let at = &mut self.columns.at;
        if at.len() == at.capacity() {
            at.reserve_exact((at.len() / 16).max(256));
        }
        at.push(self.layout.pack(offset, model, class));
    }

    /// Closes the open segment, which starts at `start`, sorting its keys.
    pub(crate) fn close_segment(&mut self, start: Timestamp) {
        self.columns.at[self.closed..].sort_unstable();
        self.segments.push((self.closed, start.as_nanos()));
        self.closed = self.columns.at.len();
    }

    /// The trace written, every segment closed: rewrites each segment's
    /// keys as arrivals. An offset may round onto the next segment's start,
    /// so the arrivals of one segment at the next one's start are re-sorted
    /// with that segment's own arrivals there.
    pub(crate) fn finish(self) -> Trace {
        let SegmentWriter {
            mut columns,
            layout,
            segments,
            closed,
        } = self;
        let len = columns.at.len();
        debug_assert_eq!(closed, len, "a segment left open");
        let keeps_classes = columns.keeps_classes();
        columns.model = Vec::with_capacity(len);
        if keeps_classes {
            columns.class = Vec::with_capacity(len);
        }
        for (k, &(first, start)) in segments.iter().enumerate() {
            let end = segments.get(k + 1).map_or(len, |&(next, _)| next);
            for key in &mut columns.at[first..end] {
                let (offset, model, class) = layout.unpack(*key);
                *key = start + offset;
                columns.model.push(model);
                if keeps_classes {
                    columns.class.push(class);
                }
            }
            if first > 0 && columns.at[first - 1] == start {
                let lo = columns.at[..first].partition_point(|&t| t < start);
                let hi = first + columns.at[first..end].partition_point(|&t| t == start);
                columns.sort_tied_run(lo, hi);
            }
        }
        columns.finish()
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
        assert_eq!(t, Trace::new(Vec::new()));
    }

    #[test]
    fn mean_rate() {
        let events: Vec<TraceEvent> = (1..=100).map(|i| event(i * 10, 1)).collect();
        let t = Trace::new(events);
        // 100 events over 1 second.
        assert!((t.mean_rate() - 100.0).abs() < 1.0);
    }

    /// A one-class trace holds 12 B per arrival, a two-class one 16 B, and
    /// the view is the iterator's events, charged once built.
    #[test]
    fn columns_cost_what_they_hold() {
        let one: Vec<TraceEvent> = (0..1_000).map(|i| event(i, (i % 7) as u32)).collect();
        let mut two = one.clone();
        for e in two.iter_mut().step_by(3) {
            e.tier = Tier::BestEffort;
        }
        for (events, per_arrival) in [(one, 12), (two, 16)] {
            let trace = Trace::new(events.clone());
            let fixed = trace.heap_bytes() - per_arrival * trace.len();
            assert!(fixed <= 256, "{fixed} B beyond {per_arrival} B per arrival");
            assert_eq!(trace.events(), events.as_slice());
            assert_eq!(
                trace.heap_bytes(),
                fixed + (per_arrival + size_of::<TraceEvent>()) * trace.len(),
                "the view is charged to the trace"
            );
        }
    }

    /// A class no arrival carries leaves the table, and the class column
    /// goes with the second-last class.
    #[test]
    fn finishing_drops_unused_classes() {
        let mut tiered = event(20, 2);
        tiered.tier = Tier::BestEffort;
        let mut slow = event(30, 2);
        slow.slo = Nanos::MAX;
        let t = Trace::new(vec![event(10, 1), tiered, slow]);
        assert_eq!(t.columns.classes.len(), 3);
        let head = t.truncated(Timestamp::from_millis(25));
        assert_eq!(head.columns.classes.len(), 2);
        assert_eq!(events(&head), vec![event(10, 1), tiered]);
        let first = t.truncated(Timestamp::from_millis(15));
        assert!(first.columns.class.is_empty());
        assert_eq!(events(&first), vec![event(10, 1)]);
        let parts = t.partitioned(2, |m| m.0 as usize - 1);
        assert_eq!(events(&parts[1]), vec![tiered, slow]);
        assert_eq!(parts[1].columns.classes.len(), 2);
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
        let azure = KeyLayout::new(minute, (1 << 28) - 1, 1).expect("Azure's budget fits");
        assert_eq!(
            azure,
            KeyLayout {
                offset_shift: 28,
                class_bits: 0
            }
        );
        let widest = ModelId((1 << 28) - 1);
        let shaped = KeyLayout::new(1_000_000_000, u64::from(u32::MAX), 2).expect("fits");
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
                assert_eq!(layout.unpack(key), arrival, "{layout:?}");
            }
            // The arrivals are listed in arrival order, ties included.
            for (w, pair) in keys.windows(2).zip(arrivals.windows(2)) {
                assert_eq!(w[0].cmp(&w[1]), pair[0].cmp(&pair[1]), "{pair:?}");
            }
        }
        assert!(KeyLayout::new(minute, 1 << 28, 1).is_err());
        assert!(KeyLayout::new(u64::from(u32::MAX), u64::from(u32::MAX), 2).is_err());
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
