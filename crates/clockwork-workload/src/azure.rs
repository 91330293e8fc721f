//! A synthetic Microsoft-Azure-Functions-like workload (§6.5).
//!
//! The paper replays the MAF 2019 trace: ~17 000 function workloads with
//! per-minute invocation counts over two weeks, interleaving "heavy sustained
//! workloads, low utilization cold workloads, bursty workloads that fluctuate
//! over time, and workloads with periodic spikes" (hourly and 15-minute
//! periods). The raw trace is not redistributable, so this module generates a
//! workload with the same structure: each function is assigned a class with
//! its own rate process, per-minute invocation counts are drawn from that
//! process, and individual arrivals are spread uniformly within each minute.
//! Functions are mapped onto model instances round-robin, several functions
//! per model, exactly as the paper maps 4–5 function workloads onto each of
//! its 4 026 model instances.
//!
//! A generated trace is drawn in order, one minute at a time, whenever it is
//! read: every function draws its minute, the minute alone is sorted in
//! place as packed keys, and the next minute follows.

use std::mem::size_of;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use clockwork_model::{ModelId, Tier};
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::{Nanos, Timestamp};

use crate::trace::{arc_bytes, KeyLayout, SegmentSource, Trace};

/// The workload classes observed in the MAF trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FunctionClass {
    /// Steady, heavy load (a small fraction of functions carry most traffic).
    HeavySustained,
    /// Moderate steady load.
    Sustained,
    /// Rarely invoked; nearly always a cold start.
    Cold,
    /// Rate fluctuates over tens of minutes.
    Bursty,
    /// Quiet baseline with a large spike every hour.
    PeriodicHourly,
    /// Quiet baseline with a spike every 15 minutes.
    PeriodicQuarterHourly,
}

impl FunctionClass {
    /// All classes, in the mixture proportions used by the generator.
    pub fn mixture() -> &'static [(FunctionClass, f64)] {
        &[
            (FunctionClass::HeavySustained, 0.02),
            (FunctionClass::Sustained, 0.18),
            (FunctionClass::Cold, 0.45),
            (FunctionClass::Bursty, 0.20),
            (FunctionClass::PeriodicHourly, 0.10),
            (FunctionClass::PeriodicQuarterHourly, 0.05),
        ]
    }
}

/// Configuration of the synthetic MAF-like generator.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AzureTraceConfig {
    /// Number of function workloads.
    pub functions: usize,
    /// Number of model instances the functions are mapped onto.
    pub models: usize,
    /// Trace duration.
    pub duration: Nanos,
    /// Target aggregate request rate (requests per second, averaged).
    pub target_rate: f64,
    /// The SLO attached to every request.
    pub slo: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl AzureTraceConfig {
    /// The most models a trace can target: a minute's offset takes 36 bits
    /// of an arrival's 64-bit sort key, which leaves 28 for the model id.
    pub const MAX_MODELS: usize = 1 << 28;
}

impl Default for AzureTraceConfig {
    fn default() -> Self {
        AzureTraceConfig {
            functions: 400,
            models: 100,
            duration: Nanos::from_minutes(10),
            target_rate: 1000.0,
            slo: Nanos::from_millis(100),
            seed: 0xa2b3,
        }
    }
}

/// One generated function workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FunctionWorkload {
    /// Index of the function.
    pub index: usize,
    /// The class it belongs to.
    pub class: FunctionClass,
    /// The model instance its invocations are served by.
    pub model: ModelId,
    /// Relative weight of this function within the aggregate rate.
    pub weight: f64,
}

/// The synthetic MAF-like trace generator.
#[derive(Clone, Debug)]
pub struct AzureTraceGenerator {
    config: AzureTraceConfig,
    functions: Vec<FunctionWorkload>,
}

impl AzureTraceGenerator {
    /// Creates a generator, assigning every function a class and a model.
    pub fn new(config: AzureTraceConfig) -> Self {
        let mut rng = SimRng::seeded(config.seed);
        let mixture = FunctionClass::mixture();
        let mut functions = Vec::with_capacity(config.functions);
        for index in 0..config.functions {
            let mut pick = rng.uniform();
            let mut class = FunctionClass::Cold;
            for &(c, share) in mixture {
                if pick < share {
                    class = c;
                    break;
                }
                pick -= share;
            }
            // Heavy-tailed per-function weights: heavy-sustained functions
            // carry orders of magnitude more traffic than cold ones.
            let weight = match class {
                FunctionClass::HeavySustained => 200.0 + rng.uniform() * 800.0,
                FunctionClass::Sustained => 20.0 + rng.uniform() * 60.0,
                FunctionClass::Cold => 0.02 + rng.uniform() * 0.2,
                FunctionClass::Bursty => 5.0 + rng.uniform() * 30.0,
                FunctionClass::PeriodicHourly => 2.0 + rng.uniform() * 10.0,
                FunctionClass::PeriodicQuarterHourly => 2.0 + rng.uniform() * 10.0,
            };
            let model = ModelId((index % config.models.max(1)) as u32);
            functions.push(FunctionWorkload {
                index,
                class,
                model,
                weight,
            });
        }
        AzureTraceGenerator { config, functions }
    }

    /// The generated function workloads.
    pub fn functions(&self) -> &[FunctionWorkload] {
        &self.functions
    }

    /// The configuration.
    pub fn config(&self) -> &AzureTraceConfig {
        &self.config
    }

    /// The per-minute rate multiplier of a class at a given minute.
    fn class_multiplier(class: FunctionClass, minute: u64, rng: &mut SimRng) -> f64 {
        match class {
            FunctionClass::HeavySustained | FunctionClass::Sustained => 1.0,
            FunctionClass::Cold => 1.0,
            FunctionClass::Bursty => {
                // Slow sinusoidal drift plus multiplicative noise.
                let phase = minute as f64 / 23.0;
                (1.0 + 0.8 * (phase * std::f64::consts::TAU).sin()).max(0.05)
                    * rng.lognormal_factor(0.5)
            }
            FunctionClass::PeriodicHourly => {
                if minute.is_multiple_of(60) {
                    30.0
                } else {
                    0.15
                }
            }
            FunctionClass::PeriodicQuarterHourly => {
                if minute.is_multiple_of(15) {
                    12.0
                } else {
                    0.2
                }
            }
        }
    }

    /// How many arrivals a function of `class` draws from its stream in
    /// `minute`, at `base_per_minute` before the class's multiplier.
    fn draw_count(
        class: FunctionClass,
        base_per_minute: f64,
        minute: u64,
        frng: &mut SimRng,
    ) -> u64 {
        let mult = Self::class_multiplier(class, minute, frng);
        frng.poisson_count(base_per_minute * mult)
    }

    /// Generates the trace: a recipe that draws it one minute at a time
    /// whenever it is read.
    ///
    /// Each function draws from its own stream, `derive(function index)`,
    /// so visiting the functions minute by minute draws the same numbers as
    /// visiting them one function at a time. Each minute is drawn function
    /// by function and then sorted on its own, as packed keys: an offset
    /// into the minute (36 bits hold up to 60 s) above a model id, which
    /// leaves 28 bits for the model id. Arrival order is total, so the trace
    /// is the sort of all its arrivals.
    ///
    /// Building the trace counts its arrivals and keeps none. Only the last
    /// minute can lose arrivals to the end, so every minute before it
    /// counts what its functions' Poisson counts say, and its streams skip
    /// the offsets without drawing them. The last minute is drawn on those
    /// copies of the streams and counted on its draws' top words where they
    /// decide (`Plan::count`). A trace shorter than a minute is that
    /// minute's keys, stored.
    ///
    /// # Panics
    ///
    /// When the configured models' ids do not fit those 28 bits.
    pub fn generate(&self) -> Trace {
        let max_model = self.config.models.max(1) as u64 - 1;
        let layout = KeyLayout::for_segments(MINUTE.as_nanos(), max_model, 1)
            .unwrap_or_else(|e| panic!("an Azure trace over {} models: {e}", self.config.models));
        let rng = SimRng::seeded(self.config.seed ^ 0x5117);
        let mut streams: Vec<SimRng> = (0..self.functions.len())
            .map(|fi| rng.derive(fi as u64))
            .collect();
        let total_weight: f64 = self.functions.iter().map(|f| f.weight).sum();
        let per_minute_budget = self.config.target_rate * 60.0;
        let functions = self
            .functions
            .iter()
            .map(|f| {
                (
                    f.class,
                    per_minute_budget * f.weight / total_weight,
                    f.model,
                )
            })
            .collect();
        let plan = Plan {
            functions,
            minutes: (self.config.duration.as_secs_f64() / 60.0).ceil() as u64,
            end: Timestamp::ZERO + self.config.duration,
            layout,
        };
        let classes = vec![(self.config.slo, Tier::Strict)];
        if plan.minutes == 1 && self.config.duration < MINUTE {
            // A trace inside its first minute is that minute's keys, drawn
            // once and stored: a cursor would copy them into its buffer
            // beside the kept ones.
            return Trace::sorted(layout, classes, plan.cut_keys(0, &mut streams));
        }
        let mut counting = streams.clone();
        let (mut len, mut widest) = (0, 0);
        for minute in 0..plan.minutes.saturating_sub(1) {
            let mut drawn = 0;
            for (&(class, base_per_minute, _), frng) in plan.functions.iter().zip(&mut counting) {
                let count = Self::draw_count(class, base_per_minute, minute, frng);
                frng.skip_uniforms(count);
                drawn += count as usize;
            }
            len += drawn;
            widest = widest.max(drawn);
        }
        if let Some(last) = plan.minutes.checked_sub(1) {
            let drawn = plan.count(last, &mut counting);
            len += drawn;
            widest = widest.max(drawn);
        }
        let minutes = Minutes {
            plan: Arc::new(plan),
            streams,
            minute: 0,
        };
        Trace::drawn(minutes, layout, classes, len, widest)
    }
}

/// The length of the trace's segments, a minute: every offset of one is at
/// most this long.
const MINUTE: Nanos = Nanos::from_minutes(1);

/// What every minute of a trace draws from.
struct Plan {
    /// Each function's class, its arrivals per minute before the class's
    /// multiplier, and its model.
    functions: Vec<(FunctionClass, f64, ModelId)>,
    /// How many minutes the trace spans, the last perhaps in part.
    minutes: u64,
    /// The end of the trace.
    end: Timestamp,
    layout: KeyLayout,
}

impl Plan {
    /// Draws `minute` from `streams`, one for each function, function by
    /// function, and hands every arrival the end keeps to `keep`, as its
    /// offset into the minute and its model.
    ///
    /// A minute cut by the trace's end still draws every offset, so each
    /// stream stays where it was; but an offset that lands past the end is
    /// dropped before it is converted to a timestamp, and one whose draw's
    /// top word is at or above the minute's [`top_word_limit`] before its
    /// low word or `f64` is formed.
    fn draw(&self, minute: u64, streams: &mut [SimRng], mut keep: impl FnMut(u64, ModelId)) {
        let room = self.room(minute);
        let limit = top_word_limit(room as f64);
        for (&(class, base_per_minute, model), frng) in self.functions.iter().zip(streams) {
            let count = AzureTraceGenerator::draw_count(class, base_per_minute, minute, frng);
            for _ in 0..count {
                let draw = frng.split_draw();
                if u64::from(draw.top()) >= limit {
                    continue;
                }
                if let Some(offset) = kept_offset(draw.uniform(), room) {
                    keep(offset, model);
                }
            }
        }
    }

    /// How many arrivals [`Plan::draw`] keeps of `minute`, drawing from
    /// `streams` alike. A draw whose top word is below the minute's
    /// [`top_word_kept`] is kept whatever its low word, so it counts before
    /// its low word or `f64` is formed; one at or above [`top_word_limit`]
    /// is dropped as `draw` drops it.
    fn count(&self, minute: u64, streams: &mut [SimRng]) -> usize {
        let room = self.room(minute);
        let (kept, limit) = (top_word_kept(room), top_word_limit(room as f64));
        let mut counted = 0;
        for (&(class, base_per_minute, _), frng) in self.functions.iter().zip(streams) {
            let count = AzureTraceGenerator::draw_count(class, base_per_minute, minute, frng);
            for _ in 0..count {
                let draw = frng.split_draw();
                let top = u64::from(draw.top());
                if top < kept || (top < limit && kept_offset(draw.uniform(), room).is_some()) {
                    counted += 1;
                }
            }
        }
        counted
    }

    /// The whole nanoseconds of `minute` before the trace's end, capped at
    /// two minutes, above any offset (at most 60 s): a whole number below
    /// 2^53, exact in an f64.
    fn room(&self, minute: u64) -> u64 {
        let minute_start = Timestamp::from_secs(minute * 60);
        (self.end - minute_start)
            .min(Nanos::from_minutes(2))
            .as_nanos()
    }

    /// The keys `minute` draws from `streams`, for a trace that ends inside
    /// its first minute. Grown a sixteenth at a time: a minute cut early keeps a
    /// sliver of what it draws, so no count bounds it ahead.
    fn cut_keys(&self, minute: u64, streams: &mut [SimRng]) -> Vec<u64> {
        let mut keys: Vec<u64> = Vec::new();
        self.draw(minute, streams, |offset, model| {
            if keys.len() == keys.capacity() {
                keys.reserve_exact((keys.len() / 16).max(256));
            }
            keys.push(self.layout.pack(offset, model, 0))
        });
        keys.shrink_to_fit();
        keys
    }
}

/// An Azure trace's cursor through its minutes: each function's stream,
/// where the next minute draws from.
#[derive(Clone)]
struct Minutes {
    plan: Arc<Plan>,
    streams: Vec<SimRng>,
    /// The next minute to draw.
    minute: u64,
}

impl SegmentSource for Minutes {
    fn draw(&mut self, keys: &mut Vec<u64>) -> Option<(u64, u64)> {
        let plan = &*self.plan;
        let minute = self.minute;
        if minute == plan.minutes {
            return None;
        }
        self.minute += 1;
        plan.draw(minute, &mut self.streams, |offset, model| {
            keys.push(plan.layout.pack(offset, model, 0))
        });
        let start = Timestamp::from_secs(minute * 60).as_nanos();
        Some((start, start + MINUTE.as_nanos()))
    }

    fn fork(&self) -> Box<dyn SegmentSource> {
        Box::new(self.clone())
    }

    fn heap_bytes(&self) -> usize {
        arc_bytes(&self.plan)
            + self.streams.capacity() * size_of::<SimRng>()
            + self.plan.functions.capacity() * size_of::<(FunctionClass, f64, ModelId)>()
    }
}

/// Whether an arrival drawn at `u` (a uniform draw, the fraction of its
/// minute) lands at or past the end of a trace that leaves `room` whole
/// nanoseconds of the minute, read before the offset `(u · 60) · 1e9` is
/// rounded: it does when the offset is at or past `room`. Rounding never
/// takes a value at or above a whole number below it, so every arrival
/// this drops is one the end drops. Those within half a nanosecond below
/// `room` round up onto the end, and are left for the caller's own test.
fn lands_past(u: f64, room: f64) -> bool {
    u * 60.0 * 1e9 >= room
}

/// The offset in ns of an arrival drawn at `u` into a minute that leaves
/// `room` whole nanoseconds before the trace's end, when the end keeps it.
/// An offset within half a nanosecond of the room rounds up onto the end.
fn kept_offset(u: f64, room: u64) -> Option<u64> {
    if lands_past(u, room as f64) {
        return None;
    }
    let offset = Nanos::from_secs_f64(u * 60.0).as_nanos();
    (offset < room).then_some(offset)
}

/// The least top word `hi` whose largest draw, with low word `u32::MAX`,
/// the end does not keep in a minute that leaves it `room` ns, `2^32` when
/// it keeps every draw. An arrival the end drops never comes back as `u`
/// rises, so the end keeps every draw whose top word is below it.
fn top_word_kept(room: u64) -> u64 {
    least_top_word(|hi| kept_offset(SimRng::uniform_from_words(hi, u32::MAX), room).is_none())
}

/// The least top word `hi` whose draw `lands_past` the `room` whatever its
/// low word, `2^32` when none does: the smallest `hi` with
/// `lands_past(u(hi, 0), room)`. `lands_past` never turns false as `u`
/// rises, so every draw whose top word is at or above it is one
/// `lands_past` drops.
fn top_word_limit(room: f64) -> u64 {
    least_top_word(|hi| lands_past(SimRng::uniform_from_words(hi, 0), room))
}

/// The least top word for which `past` holds, `2^32` when it holds for
/// none, found by binary search: `past` must never turn false as the top
/// word rises, which holds of any test on a draw's `u` that never turns
/// false as `u` rises, since `u` never falls as its words rise.
fn least_top_word(past: impl Fn(u32) -> bool) -> u64 {
    let (mut below, mut at) = (0u64, 1u64 << 32);
    while below < at {
        let mid = below + (at - below) / 2;
        if past(mid as u32) {
            at = mid;
        } else {
            below = mid + 1;
        }
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{arrival_order, TraceEvent};

    fn small_config() -> AzureTraceConfig {
        AzureTraceConfig {
            functions: 200,
            models: 50,
            duration: Nanos::from_minutes(5),
            target_rate: 500.0,
            slo: Nanos::from_millis(100),
            seed: 42,
        }
    }

    /// The function-major generator with one sort of the whole trace, as
    /// events: the reference [`AzureTraceGenerator::generate`] must
    /// reproduce event for event.
    fn whole_sort_reference(gen: &AzureTraceGenerator) -> Vec<TraceEvent> {
        let config = gen.config();
        let rng = SimRng::seeded(config.seed ^ 0x5117);
        let total_weight: f64 = gen.functions().iter().map(|f| f.weight).sum();
        let minutes = (config.duration.as_secs_f64() / 60.0).ceil() as u64;
        let per_minute_budget = config.target_rate * 60.0;
        let mut events = Vec::new();
        for (fi, f) in gen.functions().iter().enumerate() {
            let mut frng = rng.derive(fi as u64);
            let base_per_minute = per_minute_budget * f.weight / total_weight;
            for minute in 0..minutes {
                let mult = AzureTraceGenerator::class_multiplier(f.class, minute, &mut frng);
                let mean = base_per_minute * mult;
                let count = frng.poisson_count(mean);
                for _ in 0..count {
                    let offset = Nanos::from_secs_f64(frng.uniform() * 60.0);
                    let at = Timestamp::from_secs(minute * 60) + offset;
                    if at < Timestamp::ZERO + config.duration {
                        events.push(TraceEvent {
                            at,
                            model: f.model,
                            slo: config.slo,
                            tier: Tier::Strict,
                        });
                    }
                }
            }
        }
        events.sort_by_key(arrival_order);
        events
    }

    #[test]
    fn minute_major_generation_matches_the_whole_sort() {
        let matches = |config: AzureTraceConfig| {
            let gen = AzureTraceGenerator::new(config);
            let trace = gen.generate();
            let events: Vec<TraceEvent> = trace.iter().collect();
            assert_eq!(trace.len(), events.len(), "the count, {config:?}");
            assert_eq!(events, whole_sort_reference(&gen), "{config:?}");
        };
        // Durations that end mid-minute, including inside the first one, a
        // nanosecond either side of a whole minute, and on it.
        let minute = Nanos::from_minutes(1);
        let durations = [
            Nanos::from_nanos(1),
            Nanos::from_millis(1),
            Nanos::from_millis(400),
            Nanos::from_secs(1),
            Nanos::from_secs(1) + Nanos::from_nanos(1),
            Nanos::from_secs(30),
            Nanos::from_secs(59),
            minute - Nanos::from_nanos(1),
            minute,
            minute + Nanos::from_nanos(1),
            Nanos::from_millis(61_500),
            Nanos::from_millis(179_900),
        ];
        for duration in durations {
            for seed in 0..20 {
                matches(AzureTraceConfig {
                    functions: 60 + 7 * seed as usize,
                    models: 1 + seed as usize % 4 * 10,
                    duration,
                    target_rate: 200.0,
                    seed,
                    ..small_config()
                });
            }
        }
        // The most models a key holds: 36 bits of offset, so an epoch
        // (2^36 ns, about 69 s) ends inside a minute.
        for seed in 0..4 {
            matches(AzureTraceConfig {
                models: AzureTraceConfig::MAX_MODELS,
                duration: Nanos::from_millis(179_900),
                seed,
                ..small_config()
            });
        }
        // Zero and negative rates, no functions, and no models (every
        // function then maps to model 0).
        for (functions, models, target_rate) in [
            (50, 10, 0.0),
            (50, 10, -5.0),
            (0, 10, 500.0),
            (50, 0, 500.0),
        ] {
            matches(AzureTraceConfig {
                functions,
                models,
                target_rate,
                ..small_config()
            });
        }
    }

    /// `lands_past` against the exact path, `minute_start + offset < end`,
    /// at the draws either side of where the offset crosses `room − 0.5`
    /// (where rounding starts to put it on the end) and `room`.
    #[test]
    fn lands_past_drops_only_what_the_end_drops() {
        let offset = |u: f64| u * 60.0 * 1e9;
        // The least `u` whose offset is at or past `target`: offsets rise
        // with `u`, so walk from an estimate to the crossing.
        let crossing = |target: f64| {
            let mut u = target / 6e10;
            while offset(u) >= target {
                u = f64::from_bits(u.to_bits() - 1);
            }
            while offset(u) < target {
                u = f64::from_bits(u.to_bits() + 1);
            }
            u
        };
        let minute_start = Timestamp::from_secs(120);
        let (mut fired, mut rounded_up) = (0, 0);
        for room_ns in [1, 1_000_000, 1_000_000_000, 59_999_999_999, 60_000_000_000] {
            let end = minute_start + Nanos::from_nanos(room_ns);
            let room = room_ns as f64;
            for target in [room - 0.5, room] {
                let at = crossing(target);
                for step in -4i64..=4 {
                    let u = f64::from_bits(at.to_bits().wrapping_add_signed(step));
                    let kept = minute_start + Nanos::from_secs_f64(u * 60.0) < end;
                    let cut = lands_past(u, room);
                    let case = format!("room {room_ns} ns, u {u:e}, offset {:e}", offset(u));
                    // Sound: every arrival the cut drops, the end drops.
                    assert!(!(cut && kept), "cut a kept arrival: {case}");
                    // Tight: it drops exactly the offsets whose whole
                    // nanoseconds are at or past the room.
                    assert_eq!(cut, offset(u) as u64 >= room_ns, "{case}");
                    fired += usize::from(cut);
                    rounded_up += usize::from(!cut && !kept);
                }
            }
        }
        // Both sides of both crossings were visited.
        assert!(
            fired > 0 && rounded_up > 0,
            "{fired} cut, {rounded_up} rounded up"
        );
    }

    /// `top_word_limit` at its edge: the draw that starts at the limit lands
    /// past the room, and the last one below it does not.
    #[test]
    fn the_top_word_limit_is_the_first_that_lands_past() {
        let u = |hi: u64| SimRng::uniform_from_words(hi as u32, 0);
        for room_ns in [
            1u64,
            1_000_000,
            1_000_000_000,
            1_000_000_001,
            59_999_999_999,
            60_000_000_000,
            120_000_000_000,
        ] {
            let room = room_ns as f64;
            let limit = top_word_limit(room);
            if limit < 1 << 32 {
                assert!(
                    lands_past(u(limit), room),
                    "room {room_ns} ns, limit {limit}"
                );
            }
            if limit > 0 {
                assert!(
                    !lands_past(u(limit - 1), room),
                    "room {room_ns} ns, limit {limit}"
                );
            }
        }
    }

    /// `top_word_kept` at its edge: the largest draw under the bound's top
    /// word is one the end drops, and the largest draw below it is kept;
    /// and no draw the bound keeps is one the limit drops.
    #[test]
    fn the_top_word_kept_is_the_first_whose_largest_draw_is_dropped() {
        let u = |hi: u64| SimRng::uniform_from_words(hi as u32, u32::MAX);
        for (room, expected) in [
            (1u64, None),
            (1_000_000, None),
            (1_000_000_000, None),
            (1_000_000_001, None),
            (59_999_999_999, None),
            // A whole minute drops only an offset that rounds onto 60 s.
            (60_000_000_000, Some(u32::MAX as u64)),
            (120_000_000_000, Some(1 << 32)),
        ] {
            let kept = top_word_kept(room);
            if kept < 1 << 32 {
                assert!(
                    kept_offset(u(kept), room).is_none(),
                    "room {room} ns, bound {kept}"
                );
            }
            if kept > 0 {
                assert!(
                    kept_offset(u(kept - 1), room).is_some(),
                    "room {room} ns, bound {kept}"
                );
            }
            assert!(kept <= top_word_limit(room as f64), "room {room} ns");
            if let Some(expected) = expected {
                assert_eq!(kept, expected, "room {room} ns");
            }
        }
    }

    /// The budget the generator's keys leave is the published one.
    #[test]
    fn max_models_is_what_a_minute_leaves_a_key() {
        let fits = |models: usize| {
            KeyLayout::for_segments(MINUTE.as_nanos(), models as u64 - 1, 1).is_ok()
        };
        assert!(fits(AzureTraceConfig::MAX_MODELS));
        assert!(!fits(AzureTraceConfig::MAX_MODELS + 1));
    }

    /// 60 s of offset take 36 bits of a key, which leaves 28 for model ids.
    #[test]
    #[should_panic(expected = "an Azure trace over 268435457 models")]
    fn model_ids_beyond_the_key_budget_are_rejected() {
        let fits = AzureTraceConfig {
            functions: 10,
            models: 1 << 28,
            ..small_config()
        };
        assert!(!AzureTraceGenerator::new(fits).generate().is_empty());
        AzureTraceGenerator::new(AzureTraceConfig {
            models: (1 << 28) + 1,
            ..fits
        })
        .generate();
    }

    #[test]
    fn mixture_sums_to_one() {
        let total: f64 = FunctionClass::mixture().iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn functions_are_assigned_classes_and_models() {
        let gen = AzureTraceGenerator::new(small_config());
        assert_eq!(gen.functions().len(), 200);
        let classes: std::collections::HashSet<_> =
            gen.functions().iter().map(|f| f.class).collect();
        assert!(
            classes.len() >= 4,
            "expected a diverse mixture: {classes:?}"
        );
        assert!(gen.functions().iter().all(|f| (f.model.0 as usize) < 50));
    }

    #[test]
    fn aggregate_rate_is_near_target() {
        let gen = AzureTraceGenerator::new(small_config());
        let trace = gen.generate();
        let rate = trace.len() as f64 / gen.config().duration.as_secs_f64();
        // Periodic spikes near the start of a short trace inflate the mean;
        // only the order of magnitude is pinned down.
        assert!(
            rate > 150.0 && rate < 1_000.0,
            "rate {rate} too far from target 500"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = AzureTraceGenerator::new(small_config()).generate();
        let b = AzureTraceGenerator::new(small_config()).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn workload_is_skewed_across_models() {
        // A few models should carry much more traffic than the median model,
        // mirroring the skew of the MAF trace.
        let gen = AzureTraceGenerator::new(small_config());
        let trace = gen.generate();
        let mut per_model = std::collections::HashMap::new();
        for e in trace.iter() {
            *per_model.entry(e.model).or_insert(0u64) += 1;
        }
        let mut counts: Vec<u64> = per_model.values().copied().collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        let max = *counts.last().unwrap();
        assert!(max > median * 4, "max {max} median {median}");
    }

    #[test]
    fn periodic_classes_spike_on_schedule() {
        let config = AzureTraceConfig {
            functions: 50,
            models: 10,
            duration: Nanos::from_minutes(120),
            target_rate: 200.0,
            ..small_config()
        };
        let gen = AzureTraceGenerator::new(config);
        let trace = gen.generate();
        // Count arrivals per minute; minute 60 should be noticeably above the
        // surrounding minutes because hourly-periodic functions spike there.
        let mut per_minute = vec![0u64; 121];
        for e in trace.iter() {
            let m = (e.at.as_secs_f64() / 60.0) as usize;
            if m < per_minute.len() {
                per_minute[m] += 1;
            }
        }
        let spike = per_minute[60] as f64;
        let neighbours =
            (per_minute[58] + per_minute[59] + per_minute[61] + per_minute[62]) as f64 / 4.0;
        assert!(
            spike > neighbours * 1.2,
            "expected hourly spike: minute 60 = {spike}, neighbours = {neighbours}"
        );
    }

    #[test]
    fn cold_functions_generate_few_requests() {
        let gen = AzureTraceGenerator::new(small_config());
        let trace = gen.generate();
        let cold_models: std::collections::BTreeSet<ModelId> = gen
            .functions()
            .iter()
            .filter(|f| f.class == FunctionClass::Cold)
            .map(|f| f.model)
            .collect();
        // Requests belonging to cold-only models should be a small share.
        let cold_only: Vec<ModelId> = cold_models
            .iter()
            .copied()
            .filter(|m| {
                gen.functions()
                    .iter()
                    .filter(|f| f.model == *m)
                    .all(|f| f.class == FunctionClass::Cold)
            })
            .collect();
        if cold_only.is_empty() {
            return; // mixture did not produce a cold-only model this seed
        }
        let cold_requests = trace
            .iter()
            .filter(|e| cold_only.contains(&e.model))
            .count();
        let share = cold_requests as f64 / trace.len() as f64;
        assert!(share < 0.2, "cold share {share}");
    }
}
