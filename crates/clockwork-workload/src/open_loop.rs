//! Open-loop (Poisson) clients.
//!
//! §6.3 drives each model instance with an independent open-loop client using
//! Poisson inter-arrival times: requests arrive at a fixed average rate
//! regardless of how the system is doing, which is what exposes SLO
//! violations under overload. [`OpenLoopClient`] generates a [`Trace`]
//! that is a pure function of the seed, so experiments remain
//! deterministic. Many clients' arrivals are drawn in order, one time
//! segment at a time, each segment sorted in place as packed keys, whenever
//! the trace is read.
//!
//! Building the trace counts its arrivals and keeps none. The count walks
//! one client at a time and never takes a logarithm: a client's arrival `k`
//! lies `1/rate · −ln(v₁ ⋯ v_k)` seconds after its first, where each
//! `vᵢ = 1 − uᵢ` is a gap's uniform draw, so the running product of the
//! draws says which segment the arrival falls in, compared against each
//! segment boundary's `exp(−offset · rate)`. Every gap is rounded to a whole
//! nanosecond and the floating point adds its own error, so the comparison
//! keeps a margin far above both: an arrival within it of a boundary counts
//! in the segments on both sides, and a client whose arrival falls within
//! it of the trace's end is recounted one gap at a time, as the cursor draws
//! it. The length is exact, and every client's stream ends where drawing
//! its arrivals leaves it; the widest segment's count is an upper bound
//! that meets the exact one unless an arrival lands within the margin of a
//! boundary.

use std::mem::size_of;
use std::sync::Arc;

use clockwork_model::{ModelId, Tier};
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::{Nanos, Timestamp};

use crate::trace::{arc_bytes, KeyLayout, SegmentSource, Trace};

/// An open-loop Poisson request generator for one model instance.
#[derive(Clone, Debug)]
pub struct OpenLoopClient {
    /// The model this client targets.
    pub model: ModelId,
    /// Average request rate in requests per second.
    pub rate_per_sec: f64,
    /// The SLO attached to every request.
    pub slo: Nanos,
}

impl OpenLoopClient {
    /// Creates a client.
    pub fn new(model: ModelId, rate_per_sec: f64, slo: Nanos) -> Self {
        OpenLoopClient {
            model,
            rate_per_sec,
            slo,
        }
    }

    /// Generates this client's arrivals over `[0, duration)`. `rng` moves
    /// past every draw the arrivals take, as if they were drawn here.
    pub fn generate(&self, duration: Nanos, rng: &mut SimRng) -> Trace {
        if self.rate_per_sec <= 0.0 {
            return Trace::default();
        }
        let first = Timestamp::ZERO + rng.poisson_gap(self.rate_per_sec);
        let clients = vec![(rng.clone(), first)];
        drawn(
            clients,
            &[self.model],
            self.rate_per_sec,
            self.slo,
            duration,
            |ended| *rng = ended,
        )
    }

    /// Generates a combined trace for many clients, one per model, each with
    /// the given per-client rate.
    ///
    /// Client `i` draws its arrivals from `rng.derive(i + 1)`, as
    /// [`OpenLoopClient::generate`] would.
    pub fn generate_many(
        models: &[ModelId],
        rate_per_client: f64,
        slo: Nanos,
        duration: Nanos,
        rng: &mut SimRng,
    ) -> Trace {
        if rate_per_client <= 0.0 {
            return Trace::default();
        }
        // Each client's stream and its next arrival.
        let clients: Vec<(SimRng, Timestamp)> = (0..models.len())
            .map(|i| {
                let mut client_rng = rng.derive(i as u64 + 1);
                let first = Timestamp::ZERO + client_rng.poisson_gap(rate_per_client);
                (client_rng, first)
            })
            .collect();
        drawn(clients, models, rate_per_client, slo, duration, |_| {})
    }
}

/// The longest segment: its offsets take at most 32 bits, which leaves 32
/// for any model id.
const MAX_SEGMENT: Nanos = Nanos::from_nanos(1 << 32);

/// The trace of the arrivals before `duration` of clients, each a stream
/// and its next arrival, for `models` (one per client) at `rate` each.
/// Building it counts the arrivals ([`count`], or [`segment_major_count`]
/// when its margin is too wide) and keeps none; `ended` is handed each
/// client's stream where drawing its arrivals leaves it, in client order.
fn drawn(
    clients: Vec<(SimRng, Timestamp)>,
    models: &[ModelId],
    rate: f64,
    slo: Nanos,
    duration: Nanos,
    mut ended: impl FnMut(SimRng),
) -> Trace {
    let segment = Nanos::from_secs_f64((1.0 / rate).max(1.0)).min(MAX_SEGMENT);
    let max_model = models.iter().map(|m| u64::from(m.0)).max().unwrap_or(0);
    let layout = KeyLayout::for_segments(segment.as_nanos() - 1, max_model, 1)
        .expect("32 bits of offset leave 32 for any model id");
    let plan = Plan {
        models: models.to_vec(),
        rate,
        segment,
        end: Timestamp::ZERO + duration,
        layout,
    };
    let segments = Segments {
        plan: Arc::new(plan),
        clients,
        start: Timestamp::ZERO,
    };
    #[cfg(debug_assertions)]
    let mut streams = 0;
    let counted = count(&segments, |rng| {
        #[cfg(debug_assertions)]
        {
            streams = stream_print(streams, &rng);
        }
        ended(rng)
    });
    let (len, widest) = match counted {
        Some((len, widest)) => {
            #[cfg(debug_assertions)]
            counted_as_drawn(&segments, len, widest, streams);
            (len, widest)
        }
        None => {
            let (len, widest, exact) = segment_major_count(&segments);
            exact.clients.into_iter().for_each(|(rng, _)| ended(rng));
            (len, widest)
        }
    };
    let classes = vec![(slo, Tier::Strict)];
    Trace::drawn(segments, layout, classes, len, widest)
}

/// What every segment of an open-loop trace draws from.
struct Plan {
    /// Each client's model.
    models: Vec<ModelId>,
    /// Each client's rate, in requests per second.
    rate: f64,
    /// A segment's length: long enough that each client expects about one
    /// arrival in it, and at least a second, so a pass over the clients
    /// costs about what it emits; but at most [`MAX_SEGMENT`].
    segment: Nanos,
    /// The end of the trace.
    end: Timestamp,
    layout: KeyLayout,
}

/// An open-loop trace's cursor through its segments: every client's stream
/// and next arrival, and where the next segment starts.
#[derive(Clone)]
struct Segments {
    plan: Arc<Plan>,
    clients: Vec<(SimRng, Timestamp)>,
    start: Timestamp,
}

impl Segments {
    /// Draws the next segment: every client hands each of its arrivals
    /// before the segment's end to `keep`, in client order, as its offset
    /// into the segment and its model. Returns the segment's start and end,
    /// or `None` past the trace's end. Segments split time at whole
    /// nanoseconds, so the trace is exactly the sort of all clients'
    /// arrivals.
    fn advance(&mut self, mut keep: impl FnMut(u64, ModelId)) -> Option<(u64, u64)> {
        let plan = &*self.plan;
        if self.start >= plan.end {
            return None;
        }
        let (start, end) = (self.start, (self.start + plan.segment).min(plan.end));
        for ((client_rng, next), &model) in self.clients.iter_mut().zip(&plan.models) {
            while *next < end {
                keep((*next - start).as_nanos(), model);
                *next += client_rng.poisson_gap(plan.rate);
            }
        }
        self.start = end;
        Some((start.as_nanos(), end.as_nanos()))
    }
}

impl SegmentSource for Segments {
    fn draw(&mut self, keys: &mut Vec<u64>) -> Option<(u64, u64)> {
        let layout = self.plan.layout;
        self.advance(|offset, model| keys.push(layout.pack(offset, model, 0)))
    }

    fn fork(&self) -> Box<dyn SegmentSource> {
        Box::new(self.clone())
    }

    fn heap_bytes(&self) -> usize {
        arc_bytes(&self.plan)
            + self.clients.capacity() * size_of::<(SimRng, Timestamp)>()
            + self.plan.models.capacity() * size_of::<ModelId>()
    }
}

/// A window of the count spans at most this many mean gaps, so that every
/// product and threshold in it, taken from the window's start, stays far
/// inside f64's range with no rescaling: `e^−256` is about `2^−369`.
const SPAN: f64 = 256.0;

/// A margin wider than this many mean gaps, or than a quarter segment,
/// makes the products no cheaper than drawing the trace, and would take
/// the thresholds towards the edge of f64's range: the trace is then
/// counted as the cursor draws it ([`segment_major_count`]). A client at
/// `r` requests a second reaches it after about `64 · 10⁹ / r` arrivals,
/// 6.4 million at 10 000 r/s; above about `6 · 10⁷` r/s, at once.
const WIDEST_MARGIN: f64 = 64.0;

/// How many boundaries an arrival's step is compared with at once, without
/// a branch; a step over more takes a loop.
const LOOK_AHEAD: usize = 4;

/// Counts the arrivals the cursor would draw from `segments`: returns the
/// trace's length and an upper bound on its widest segment, having handed
/// `ended` each client's stream where drawing its arrivals leaves it, in
/// client order; or `None`, having handed it nothing, when the margin would
/// be too wide ([`WIDEST_MARGIN`]).
///
/// Time is cut into windows of whole segments, or of parts of one segment
/// when a segment spans more than [`SPAN`] mean gaps; in each, every client
/// is walked in turn ([`Window::walk`]), one uniform draw per arrival and no
/// logarithm. A trace of more than one window keeps each client's stream
/// and its pending arrival's offset between windows: the 24 bytes per
/// client the cursor keeps.
fn count(segments: &Segments, mut ended: impl FnMut(SimRng)) -> Option<(usize, usize)> {
    if segments.plan.end == Timestamp::ZERO {
        let clients = segments.clients.iter();
        clients.for_each(|(rng, _)| ended(rng.clone()));
        return Some((0, 0));
    }
    let walker = Walker::new(&segments.plan, segments.clients.len())?;
    walk_windows(&walker, segments, ended)
}

/// [`count`] over a trace that ends after its start, window by window.
fn walk_windows(
    walker: &Walker,
    segments: &Segments,
    mut ended: impl FnMut(SimRng),
) -> Option<(usize, usize)> {
    let plan = &*segments.plan;
    let clients = &segments.clients;
    let mut window = walker.window(0, 0, 0, 0, Buffers::new(walker.most_segments))?;
    let mut carried: Vec<(SimRng, f64)> =
        Vec::with_capacity(if window.last { 0 } else { clients.len() });
    let (mut len, mut widest) = (0, 0);
    // Arrivals a client may have had before the window: the margin grows
    // with them.
    let mut before = 0;
    loop {
        let mut most_credited = 0;
        for (i, (first_rng, first)) in clients.iter().enumerate() {
            let (rng, start) = if window.index == 0 {
                (first_rng.clone(), Start::Exact(*first))
            } else {
                let (rng, offset) = &carried[i];
                (rng.clone(), Start::Carried(*offset))
            };
            match window.walk(rng.clone(), start)? {
                Walked::Ended { kept, rng } => {
                    len += kept;
                    ended(rng);
                }
                Walked::Undecided { walked } => {
                    // Draw the client again one gap at a time, and count
                    // the arrivals the walk had not reached.
                    let mut exact = first_rng.clone();
                    let (kept, credited) =
                        exact_client(&mut exact, *first, plan, &rng, |index, at| {
                            if index >= walked {
                                window.add(at);
                            }
                        });
                    len += (kept - credited) as usize;
                    ended(exact);
                }
                Walked::Carried {
                    credited,
                    rng,
                    offset,
                } => {
                    len += credited as usize;
                    most_credited = most_credited.max(credited);
                    if window.index == 0 {
                        carried.push((rng, offset));
                    } else {
                        carried[i] = (rng, offset);
                    }
                }
            }
        }
        let (most, open) = window.widest();
        widest = widest.max(most);
        if window.last {
            return Some((len, widest));
        }
        before += most_credited;
        let next = (window.end, window.index + 1);
        window = walker.window(next.0, next.1, before, open, window.buffers)?;
    }
}

/// One client's arrivals before the end of `plan`, drawn one gap at a time
/// from `rng` from its first at `first`, as the cursor draws them: how many
/// there are, and how many come before the stream stands at `mark`. Each
/// arrival from there on goes to `each` with its index counted from there.
/// `rng` ends where the arrivals leave it.
fn exact_client(
    rng: &mut SimRng,
    first: Timestamp,
    plan: &Plan,
    mark: &SimRng,
    mut each: impl FnMut(u64, Timestamp),
) -> (u64, u64) {
    let (mut next, mut kept, mut credited) = (first, 0, None);
    loop {
        if credited.is_none() && rng == mark {
            credited = Some(kept);
        }
        if next >= plan.end {
            break;
        }
        if let Some(credited) = credited {
            each(kept - credited, next);
        }
        kept += 1;
        next += rng.poisson_gap(plan.rate);
    }
    (
        kept,
        credited.expect("the mark stands on the stream before its end"),
    )
}

/// What a client's walk through its window starts from.
#[derive(Clone, Copy)]
enum Start {
    /// Its first arrival, at this exact time.
    Exact(Timestamp),
    /// An arrival carried from the window before, at about this many mean
    /// gaps past the window's start (negative when it may lie before it).
    Carried(f64),
}

/// Where a client's walk through a window ended.
enum Walked {
    /// The window ends the trace and the client keeps `kept` arrivals in
    /// it; `rng` is where they leave its stream.
    Ended { kept: usize, rng: SimRng },
    /// The window ends the trace, and its arrival `walked` falls within the
    /// margin of the end or beyond the arrivals the margin covers: the
    /// arrivals before it are counted.
    Undecided { walked: u64 },
    /// The client's arrivals go on past the window: `credited` of them
    /// surely lie before its end, and the next, at `offset` mean gaps past
    /// the end (as [`Start::Carried`]), is drawn from `rng`.
    Carried {
        credited: u64,
        rng: SimRng,
        offset: f64,
    },
}

/// What every window shares: the trace's segments and rate.
struct Walker {
    /// A segment's length in ns.
    segment: u64,
    /// The trace's end in ns.
    end: u64,
    /// A mean gap in ns, `1e9 / rate`, and its inverse.
    mean_gap: f64,
    per_ns: f64,
    /// The most segments in one window: 24 bytes of tables each, which
    /// the clients' own 28 bytes each pay for.
    most_segments: u64,
    /// A window's margin starts out covering `cap_per_gap` arrivals per
    /// mean gap it spans and `cap_spare` more: twice what a client expects
    /// and some. A client with more widens it.
    cap_per_gap: f64,
    cap_spare: u64,
}

impl Walker {
    /// The walker for a trace of `clients` clients, or `None` when a mean
    /// gap is under a nanosecond: every gap then rounds to a whole one.
    fn new(plan: &Plan, clients: usize) -> Option<Walker> {
        let mean_gap = (1.0 / plan.rate) * 1e9;
        (mean_gap >= 1.0).then(|| Walker {
            segment: plan.segment.as_nanos(),
            end: plan.end.as_nanos(),
            mean_gap,
            per_ns: 1.0 / mean_gap,
            most_segments: 64 + clients as u64 / 16,
            cap_per_gap: 2.0,
            cap_spare: 64,
        })
    }

    /// The margin, in ns, that holds a client's arrivals in window `index`
    /// within reach of where its product puts them, when it has had at
    /// most `arrivals` since its first. Each gap rounds to the nanosecond,
    /// by up to a half; each gap, product, threshold and carried offset
    /// also rounds by a few units in the last place of a mean gap or of
    /// the time it covers. So the margin holds a microsecond, a nanosecond
    /// and 2^−48 of a mean gap per arrival, 2^−40 of a mean gap per window
    /// and 2^−40 of the trace's length: thousands of times those errors.
    fn margin(&self, arrivals: u64, index: u64) -> f64 {
        const TINY: f64 = 1.0 / (1u64 << 40) as f64;
        1_000.0
            + arrivals as f64 * (1.0 + self.mean_gap * TINY / 256.0)
            + (index + 2) as f64 * self.mean_gap * TINY
            + self.end as f64 * TINY
    }

    /// Window `index`, from `start` to the next segment boundary no more
    /// than [`SPAN`] mean gaps and [`Walker::most_segments`] segments on,
    /// or to the last point within [`SPAN`] when that passes no boundary,
    /// or to the trace's end; for clients that may have had `before`
    /// arrivals before it, and with `open` arrivals counted in its first
    /// segment by the windows before. `None` when its margin is too wide.
    fn window(
        &self,
        start: u64,
        index: u64,
        before: u64,
        open: i64,
        buffers: Buffers,
    ) -> Option<Window<'_>> {
        let first = start / self.segment;
        let by_span = start.saturating_add((SPAN * self.mean_gap) as u64);
        let by_memory = (first + self.most_segments).saturating_mul(self.segment);
        let mut end = by_span.min(by_memory).min(self.end);
        if end < self.end && end > (first + 1).saturating_mul(self.segment) {
            end -= end % self.segment;
        }
        let span = (end - start) as f64 * self.per_ns;
        let mut window = Window {
            walker: self,
            index,
            start,
            end,
            last: end == self.end,
            first,
            segments: ((end - 1) / self.segment - first + 1) as usize,
            before,
            cap: (self.cap_per_gap * span) as u64 + self.cap_spare,
            span,
            may_end: 0.0,
            ends: 0.0,
            buffers,
        };
        let steps = &mut window.buffers.steps;
        steps.clear();
        steps.resize(window.segments + 1, 0);
        (steps[0], steps[1]) = (open, -open);
        window.fill()?;
        Some(window)
    }
}

/// A window's thresholds and counters, reused from window to window.
struct Buffers {
    /// The product at or below which an arrival may be past the window's
    /// boundary `j` (`j` from 1; then zeros).
    may_pass: Vec<f64>,
    /// The product below which it is surely past boundary `j`.
    passes: Vec<f64>,
    /// How many arrivals may fall in the window's segment `j`, less how
    /// many may fall in segment `j − 1`.
    steps: Vec<i64>,
}

impl Buffers {
    fn new(most_segments: u64) -> Buffers {
        let thresholds = most_segments as usize + LOOK_AHEAD + 1;
        Buffers {
            may_pass: Vec::with_capacity(thresholds),
            passes: Vec::with_capacity(thresholds),
            steps: Vec::with_capacity(most_segments as usize + 1),
        }
    }
}

/// A stretch of the trace that every client walks in turn.
struct Window<'a> {
    walker: &'a Walker,
    index: u64,
    /// The window's start and end in ns, and the segment its start is in.
    start: u64,
    end: u64,
    /// Whether the window ends the trace.
    last: bool,
    first: u64,
    /// How many segments it reaches into.
    segments: usize,
    /// Arrivals a client may have had before the window.
    before: u64,
    /// The arrivals the margin covers.
    cap: u64,
    /// The window's length in mean gaps.
    span: f64,
    /// The product at or below which an arrival may be past the window's
    /// end, and below which it surely is.
    may_end: f64,
    ends: f64,
    buffers: Buffers,
}

impl Window<'_> {
    /// Sets the thresholds for a margin that covers `cap` arrivals, keeping
    /// the counts; `None` when it is too wide.
    fn fill(&mut self) -> Option<()> {
        let walker = self.walker;
        let margin = walker.margin(self.before.saturating_add(self.cap), self.index);
        if margin * 4.0 >= walker.segment as f64 || margin * walker.per_ns > WIDEST_MARGIN {
            return None;
        }
        let margin = margin * walker.per_ns;
        let (late, early) = (margin.exp(), (-margin).exp());
        let b = &mut self.buffers;
        b.may_pass.clear();
        b.passes.clear();
        b.may_pass.push(f64::INFINITY);
        b.passes.push(f64::INFINITY);
        for j in 1..self.segments as u64 {
            let at = (self.first + j) * walker.segment - self.start;
            let product = (-(at as f64) * walker.per_ns).exp();
            b.may_pass.push(product * late);
            b.passes.push(product * early);
        }
        b.may_pass.resize(self.segments + LOOK_AHEAD + 1, 0.0);
        b.passes.resize(self.segments + LOOK_AHEAD + 1, 0.0);
        let end = (-self.span).exp();
        (self.may_end, self.ends) = (end * late, end * early);
        Some(())
    }

    /// Walks one client from `start` through the window, drawing from
    /// `rng`: one draw per arrival, the product of the draws against the
    /// window's thresholds. Each arrival counts in every segment it may
    /// fall in. The walk stops at the first arrival surely past the
    /// window's end. `None` when the client's arrivals outrun the margin
    /// and a wide enough one is too wide.
    fn walk(&mut self, mut rng: SimRng, start: Start) -> Option<Walked> {
        let walker = self.walker;
        let (segment, offset) = match start {
            Start::Exact(at) => {
                let at = at.as_nanos();
                if at >= self.end {
                    return Some(if self.last {
                        Walked::Ended { kept: 0, rng }
                    } else {
                        let offset = (at - self.end) as f64 * walker.per_ns;
                        Walked::Carried {
                            credited: 0,
                            rng,
                            offset,
                        }
                    });
                }
                (
                    (at / walker.segment - self.first) as usize,
                    (at - self.start) as f64 * walker.per_ns,
                )
            }
            Start::Carried(offset) => (0, offset),
        };
        let mut p = (-offset).exp();
        // The last segment the arrival may fall in.
        let mut l = segment;
        let mut k = 0;
        // The first arrival that may be past the window's end, and what it
        // carries into the next window.
        let mut pending = None;
        loop {
            if p <= self.may_end || k == self.cap {
                if k == self.cap {
                    if self.last {
                        return Some(Walked::Undecided { walked: k });
                    }
                    self.cap = self.cap.saturating_mul(2);
                    self.fill()?;
                }
                if p <= self.may_end {
                    if pending.is_none() {
                        let carry = (!self.last).then(|| (rng.clone(), -p.ln() - self.span));
                        pending = Some((k, carry));
                    }
                    if p < self.ends {
                        break;
                    }
                    if self.last {
                        return Some(Walked::Undecided { walked: k });
                    }
                }
            }
            // Count the arrival and walk on, until an arrival may be past
            // the window's end or outruns the margin.
            let (may_end, cap) = (self.may_end, self.cap);
            let b = &mut self.buffers;
            let (may_pass, passes, steps) = (&b.may_pass[..], &b.passes[..], &mut b.steps[..]);
            loop {
                l = reach(may_pass, l, p);
                // And the first: a margin under a quarter segment puts an
                // arrival that may be past a boundary surely past the one
                // before it.
                let f = l - usize::from(p >= passes[l]);
                steps[f] += 1;
                steps[l + 1] -= 1;
                p *= 1.0 - rng.uniform();
                k += 1;
                if p <= may_end || k == cap {
                    break;
                }
            }
        }
        let (credited, carry) = pending.expect("an arrival surely past the end may be past it");
        Some(match carry {
            Some((rng, offset)) => Walked::Carried {
                credited,
                rng,
                offset,
            },
            None => Walked::Ended {
                kept: k as usize,
                rng,
            },
        })
    }

    /// Counts an arrival at the exact time `at`, before the window's end.
    fn add(&mut self, at: Timestamp) {
        let segment = (at.as_nanos() / self.walker.segment).saturating_sub(self.first) as usize;
        self.buffers.steps[segment] += 1;
        self.buffers.steps[segment + 1] -= 1;
    }

    /// The most arrivals that may fall in one of the window's segments that
    /// end in it, and how many may fall in its last segment so far when the
    /// next window goes on with that segment.
    fn widest(&self) -> (usize, i64) {
        let steps = &self.buffers.steps[..self.segments];
        let open = !self.last && !self.end.is_multiple_of(self.walker.segment);
        let (mut run, mut widest) = (0, 0);
        for &step in &steps[..steps.len() - usize::from(open)] {
            run += step;
            widest = widest.max(run);
        }
        if open {
            run += steps[steps.len() - 1];
            (widest as usize, run)
        } else {
            (widest as usize, 0)
        }
    }
}

/// The last boundary from `from` on whose threshold the product `p` is at
/// or below: `thresholds` fall, and end in zeros. The next [`LOOK_AHEAD`]
/// are compared without a branch.
#[inline(always)]
fn reach(thresholds: &[f64], from: usize, p: f64) -> usize {
    let ahead = &thresholds[from + 1..from + 1 + LOOK_AHEAD];
    let mut to = from + ahead.iter().map(|&t| usize::from(p <= t)).sum::<usize>();
    while p <= thresholds[to + 1] {
        to += 1;
    }
    to
}

/// The count as the cursor draws the trace: every client one gap at a
/// time, a segment at a time. Returns the length, the widest segment's
/// count and the cursor past the end. It counts a trace whose margin would
/// be too wide for [`count`], and is [`count`]'s twin in debug builds and
/// tests.
fn segment_major_count(segments: &Segments) -> (usize, usize, Segments) {
    let mut counting = segments.clone();
    let (mut len, mut widest) = (0, 0);
    loop {
        let mut drawn = 0;
        if counting.advance(|_, _| drawn += 1).is_none() {
            break;
        }
        len += drawn;
        widest = widest.max(drawn);
    }
    (len, widest, counting)
}

/// `print` folded with where `rng` stands: equal prints over the same
/// clients say, but for a 2^−64 chance, that every stream stands alike.
#[cfg(debug_assertions)]
fn stream_print(print: u64, rng: &SimRng) -> u64 {
    (print ^ rng.clone().next_u64()).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Asserts that [`count`] counted `segments` as the cursor draws them: the
/// same length, a widest segment no narrower, and every client's stream,
/// folded into `streams` by [`stream_print`], where drawing leaves it.
#[cfg(debug_assertions)]
fn counted_as_drawn(segments: &Segments, len: usize, widest: usize, streams: u64) {
    let (exact_len, exact_widest, exact) = segment_major_count(segments);
    assert_eq!(len, exact_len, "the count's length is the drawn one");
    assert!(
        widest >= exact_widest,
        "the count's widest segment, {widest}, is below the drawn {exact_widest}"
    );
    let exact_streams = exact
        .clients
        .iter()
        .fold(0, |print, (rng, _)| stream_print(print, rng));
    assert_eq!(
        streams, exact_streams,
        "every client's stream ends where drawing leaves it"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{arrival_order, TraceEvent};

    /// One client's arrivals drawn one at a time, as events: the reference
    /// [`OpenLoopClient::generate`] must reproduce.
    fn client_reference(
        client: &OpenLoopClient,
        duration: Nanos,
        rng: &mut SimRng,
    ) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        if client.rate_per_sec <= 0.0 {
            return events;
        }
        let mut t = Timestamp::ZERO + rng.poisson_gap(client.rate_per_sec);
        while t < Timestamp::ZERO + duration {
            events.push(TraceEvent {
                at: t,
                model: client.model,
                slo: client.slo,
                tier: Tier::Strict,
            });
            t += rng.poisson_gap(client.rate_per_sec);
        }
        events
    }

    /// Every client's reference arrivals, concatenated and sorted as a
    /// whole: the reference [`OpenLoopClient::generate_many`] must
    /// reproduce event for event.
    fn whole_sort_reference(
        models: &[ModelId],
        rate_per_client: f64,
        slo: Nanos,
        duration: Nanos,
        rng: &mut SimRng,
    ) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for (i, &model) in models.iter().enumerate() {
            let mut client_rng = rng.derive(i as u64 + 1);
            let client = OpenLoopClient::new(model, rate_per_client, slo);
            all.extend(client_reference(&client, duration, &mut client_rng));
        }
        all.sort_by_key(arrival_order);
        all
    }

    #[test]
    fn segmented_generation_matches_the_whole_sort() {
        let model_sets: [Vec<ModelId>; 5] = [
            vec![],
            vec![ModelId(4)],
            (0..24).map(ModelId).collect(),
            // Repeated ids: several clients share a model.
            [3, 1, 3, 0, 1, 3].map(ModelId).to_vec(),
            // Unsorted, sparse ids up to the widest a key holds.
            [u32::MAX, 7, 1 << 31, 0, 90_001, u32::MAX - 1]
                .map(ModelId)
                .to_vec(),
        ];
        // Rates on both sides of one arrival per client per second, which
        // sets the segment length (at 0.05 r/s it is the longest), and
        // rates that generate nothing.
        let rates = [0.05, 0.7, 2.5, 12.0, 0.0, -1.0];
        for seed in 0..20 {
            for models in &model_sets {
                for rate in rates {
                    for duration_ms in [400, 61_500, 179_900] {
                        let duration = Nanos::from_millis(duration_ms);
                        let slo = Nanos::from_millis(100);
                        let mut rng = SimRng::seeded(seed);
                        let trace =
                            OpenLoopClient::generate_many(models, rate, slo, duration, &mut rng);
                        assert_eq!(
                            trace.iter().collect::<Vec<_>>(),
                            whole_sort_reference(models, rate, slo, duration, &mut rng),
                            "{} clients at {rate} r/s, {duration_ms} ms, seed {seed}",
                            models.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_client_matches_its_draws() {
        for (seed, rate, secs) in [(1, 200.0, 30), (2, 0.3, 40), (3, 5.0, 9), (4, 0.0, 5)] {
            let client = OpenLoopClient::new(ModelId(seed as u32 * 1_000), rate, Nanos::MAX);
            let duration = Nanos::from_secs(secs);
            let (mut a, mut b) = (SimRng::seeded(seed), SimRng::seeded(seed));
            let trace = client.generate(duration, &mut a);
            assert_eq!(
                trace.iter().collect::<Vec<_>>(),
                client_reference(&client, duration, &mut b),
                "seed {seed}"
            );
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "the caller's stream moved alike"
            );
        }
    }

    #[test]
    fn rate_is_respected_on_average() {
        let client = OpenLoopClient::new(ModelId(1), 200.0, Nanos::from_millis(100));
        let mut rng = SimRng::seeded(1);
        let trace = client.generate(Nanos::from_secs(30), &mut rng);
        let rate = trace.len() as f64 / 30.0;
        assert!((rate - 200.0).abs() < 10.0, "rate {rate}");
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let client = OpenLoopClient::new(ModelId(1), 0.0, Nanos::from_millis(100));
        let mut rng = SimRng::seeded(2);
        assert!(client.generate(Nanos::from_secs(10), &mut rng).is_empty());
    }

    #[test]
    fn arrivals_look_poisson() {
        // Coefficient of variation of exponential inter-arrival gaps is 1.
        let client = OpenLoopClient::new(ModelId(1), 1000.0, Nanos::from_millis(10));
        let mut rng = SimRng::seeded(3);
        let trace = client.generate(Nanos::from_secs(20), &mut rng);
        let times: Vec<Timestamp> = trace.iter().map(|e| e.at).collect();
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "cv {cv}");
    }

    #[test]
    fn generate_many_is_deterministic_and_covers_all_models() {
        let models: Vec<ModelId> = (0..12).map(ModelId).collect();
        let mut rng_a = SimRng::seeded(7);
        let mut rng_b = SimRng::seeded(7);
        let a = OpenLoopClient::generate_many(
            &models,
            50.0,
            Nanos::from_millis(100),
            Nanos::from_secs(10),
            &mut rng_a,
        );
        let b = OpenLoopClient::generate_many(
            &models,
            50.0,
            Nanos::from_millis(100),
            Nanos::from_secs(10),
            &mut rng_b,
        );
        assert_eq!(a, b);
        assert_eq!(a.models().len(), 12);
        // Cumulative rate N * R.
        let rate = a.len() as f64 / 10.0;
        assert!((rate - 600.0).abs() < 60.0, "rate {rate}");
    }

    /// A trace's clients as `generate_many` builds them, and the cursor
    /// before their first segment.
    fn cursor(clients: usize, rate: f64, duration: Nanos, seed: u64) -> Segments {
        let rng = SimRng::seeded(seed);
        let streams = (0..clients)
            .map(|i| {
                let mut client_rng = rng.derive(i as u64 + 1);
                let first = Timestamp::ZERO + client_rng.poisson_gap(rate);
                (client_rng, first)
            })
            .collect();
        let segment = Nanos::from_secs_f64((1.0 / rate).max(1.0)).min(MAX_SEGMENT);
        let plan = Plan {
            models: (0..clients as u32).map(ModelId).collect(),
            rate,
            segment,
            end: Timestamp::ZERO + duration,
            layout: KeyLayout::for_segments(segment.as_nanos() - 1, clients as u64, 1).unwrap(),
        };
        Segments {
            plan: Arc::new(plan),
            clients: streams,
            start: Timestamp::ZERO,
        }
    }

    /// The count on products against its twin, the count as the cursor
    /// draws: the same length, a widest segment at least the drawn one,
    /// and every client's stream where drawing leaves it. Returns both
    /// widest counts.
    fn matches_the_twin(segments: &Segments, label: &str) -> (usize, usize) {
        let mut ended = Vec::new();
        let (len, widest) = count(segments, |rng| ended.push(rng))
            .unwrap_or_else(|| panic!("{label}: the margin is narrow enough"));
        let (exact_len, exact_widest, exact) = segment_major_count(segments);
        assert_eq!(len, exact_len, "{label}: length");
        assert!(
            widest >= exact_widest,
            "{label}: widest {widest} below the drawn {exact_widest}"
        );
        let drawn: Vec<SimRng> = exact.clients.into_iter().map(|(rng, _)| rng).collect();
        assert!(ended == drawn, "{label}: a client's stream ends elsewhere");
        (widest, exact_widest)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(160))]
        /// Any seed, up to 40 clients, rates from one request in 1 000 s to
        /// 10 000 a second and lengths from a nanosecond to hours, with the
        /// expected arrivals kept under 20 000; one length in four ends on
        /// a segment boundary.
        #[test]
        fn the_count_on_products_is_the_drawn_count(
            seed in 0u64..1_000_000,
            clients in 0usize..=40,
            log_rate in -3.0f64..4.0,
            log_duration in 0.0f64..13.2,
            on_boundary in 0u32..4,
        ) {
            let rate = 10f64.powf(log_rate);
            let budget = 20_000.0 / (clients.max(1) as f64 * rate) * 1e9;
            let mut duration = 10f64.powf(log_duration).min(budget).max(1.0) as u64;
            let segment = Nanos::from_secs_f64((1.0 / rate).max(1.0))
                .min(MAX_SEGMENT)
                .as_nanos();
            if on_boundary == 0 && duration > segment {
                duration -= duration % segment;
            }
            let label = format!("{clients} clients at {rate} r/s for {duration} ns, seed {seed}");
            matches_the_twin(&cursor(clients, rate, Nanos::from_nanos(duration), seed), &label);
        }
    }

    #[test]
    fn busy_clients_cross_many_windows() {
        // (clients, rate, duration): a segment of 1 s over 3 000 s, which
        // takes windows of 64 segments; a segment split into windows of 256
        // mean gaps, ending on a boundary; and a 1 ns trace, whose first
        // arrivals all land past its end.
        for (clients, rate, duration) in [
            (3, 5.0, Nanos::from_secs(3_000)),
            (2, 2_000.0, Nanos::from_secs(10)),
            (1, 9_000.0, Nanos::from_millis(2_345)),
            (20, 0.001, Nanos::from_secs(40_000)),
            (7, 3.0, Nanos::from_nanos(1)),
        ] {
            for seed in 0..3 {
                let label =
                    format!("{clients} clients at {rate} r/s for {duration:?}, seed {seed}");
                matches_the_twin(&cursor(clients, rate, duration, seed), &label);
            }
        }
    }

    #[test]
    fn a_client_that_outruns_its_margin_widens_it_or_is_drawn_again() {
        // Margins that start out covering one arrival: every window widens
        // its margin again and again, and in the last one every client
        // with a second arrival is drawn again one gap at a time.
        for (clients, rate, duration) in [
            (5, 0.2, Nanos::from_secs(600)),
            (4, 3.0, Nanos::from_secs(400)),
            (2, 1_500.0, Nanos::from_millis(1_700)),
        ] {
            for seed in 0..3 {
                let label =
                    format!("{clients} clients at {rate} r/s for {duration:?}, seed {seed}");
                let segments = cursor(clients, rate, duration, seed);
                let mut walker = Walker::new(&segments.plan, clients).unwrap();
                (walker.cap_per_gap, walker.cap_spare) = (0.0, 1);
                let mut ended = Vec::new();
                let (len, widest) = walk_windows(&walker, &segments, |rng| ended.push(rng))
                    .unwrap_or_else(|| panic!("{label}: the margin is narrow enough"));
                let (exact_len, exact_widest, exact) = segment_major_count(&segments);
                assert_eq!(len, exact_len, "{label}: length");
                assert!(widest >= exact_widest, "{label}: widest");
                let drawn: Vec<SimRng> = exact.clients.into_iter().map(|(rng, _)| rng).collect();
                assert!(ended == drawn, "{label}: a client's stream ends elsewhere");
            }
        }
    }

    #[test]
    fn the_widest_segment_is_the_drawn_one_at_cold_start_scale() {
        // The benchmark's cold-start shape at a tenth of its clients.
        for seed in [2020, 4242] {
            let label = format!("seed {seed}");
            let (widest, exact) =
                matches_the_twin(&cursor(300, 0.2, Nanos::from_secs(600), seed), &label);
            assert_eq!(widest, exact, "{label}");
        }
    }

    #[test]
    fn a_margin_too_wide_counts_as_the_cursor_draws() {
        // A mean gap of 10 ns, well inside a microsecond's margin: the
        // products give way to the cursor's own count.
        let models: Vec<ModelId> = (0..3).map(ModelId).collect();
        let (rate, duration) = (1e8, Nanos::from_micros(5));
        assert!(count(&cursor(3, rate, duration, 1), |_| {}).is_none());
        let slo = Nanos::from_millis(1);
        let mut rng = SimRng::seeded(1);
        let trace = OpenLoopClient::generate_many(&models, rate, slo, duration, &mut rng);
        assert_eq!(
            trace.iter().collect::<Vec<_>>(),
            whole_sort_reference(&models, rate, slo, duration, &mut rng)
        );
        let client = OpenLoopClient::new(ModelId(0), rate, slo);
        let (mut a, mut b) = (SimRng::seeded(2), SimRng::seeded(2));
        let trace = client.generate(duration, &mut a);
        assert_eq!(
            trace.iter().collect::<Vec<_>>(),
            client_reference(&client, duration, &mut b)
        );
        assert_eq!(a, b, "the caller's stream moved alike");
    }
}
