//! Request traces: a time-ordered list of request arrivals.
//!
//! Traces decouple workload generation from the serving system: generators
//! (open-loop, Azure-like) produce a [`Trace`], and the system harness replays
//! it against whichever scheduler is under test. Traces can be scaled in rate
//! and truncated in duration, which is how the paper's 8-hour / 1.5×-rate
//! experiments are shrunk to simulation budgets (each figure's doc comment in
//! `crates/bench/src/bin/paper.rs` records its scaling).
//!
//! Arrival order is total (time, model, SLO, tier): events that tie are
//! identical, so every sort gives the same bytes and none needs a buffer.
//! Every generator in this crate emits its arrivals in order, sorting only
//! the time segment it has just drawn, so [`Trace::new`] sorts only input
//! that is not already in order and a trace is never held twice.

use std::sync::Arc;

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

/// A time-ordered sequence of request arrivals.
///
/// The events are immutable once built and held behind an [`Arc`], so a
/// clone shares the storage: the serving system replays a trace from a clone
/// instead of a copy.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Arc<Vec<TraceEvent>>,
}

impl Trace {
    /// Creates a trace from events, sorting them in place into arrival
    /// order (time, model, SLO, tier). Input already in that order is kept
    /// as it is.
    pub fn new(mut events: Vec<TraceEvent>) -> Self {
        if !events.is_sorted_by_key(arrival_order) {
            sort_arrivals(&mut events);
        }
        Trace::presorted(events)
    }

    /// Wraps events that are already in arrival order.
    fn presorted(events: Vec<TraceEvent>) -> Self {
        Trace {
            events: Arc::new(events),
        }
    }

    /// The events, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The arrival time of the last request, or zero for an empty trace.
    pub fn duration(&self) -> Timestamp {
        self.events.last().map(|e| e.at).unwrap_or(Timestamp::ZERO)
    }

    /// Mean request rate over the trace duration, in requests per second.
    pub fn mean_rate(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d <= 0.0 {
            return 0.0;
        }
        self.events.len() as f64 / d
    }

    /// The distinct models appearing in the trace.
    pub fn models(&self) -> Vec<ModelId> {
        let mut models: Vec<ModelId> = self.events.iter().map(|e| e.model).collect();
        models.sort_unstable();
        models.dedup();
        models
    }

    /// Returns a copy truncated to arrivals before `cutoff`.
    pub fn truncated(&self, cutoff: Timestamp) -> Trace {
        Trace::presorted(
            self.events
                .iter()
                .copied()
                .filter(|e| e.at < cutoff)
                .collect(),
        )
    }

    /// Returns a copy with all arrival times compressed by `factor` (2.0
    /// doubles the request rate). Factors that are not finite and positive
    /// are ignored.
    pub fn rate_scaled(&self, factor: f64) -> Trace {
        if !(factor.is_finite() && factor > 0.0) {
            return self.clone();
        }
        // Rounding keeps times in order but can tie two arrivals of
        // different models, so arrival order is restored by `new`.
        Trace::new(
            self.events
                .iter()
                .map(|e| TraceEvent {
                    at: Timestamp::from_nanos((e.at.as_nanos() as f64 / factor).round() as u64),
                    ..*e
                })
                .collect(),
        )
    }

    /// Merges two traces into one ordered trace: the trace [`Trace::new`]
    /// makes of the two concatenated.
    pub fn merged(&self, other: &Trace) -> Trace {
        let (mut a, mut b) = (self.events(), other.events());
        let mut events = Vec::with_capacity(a.len() + b.len());
        while let (Some(x), Some(y)) = (a.first(), b.first()) {
            if arrival_order(y) < arrival_order(x) {
                events.push(*y);
                b = &b[1..];
            } else {
                events.push(*x);
                a = &a[1..];
            }
        }
        events.extend_from_slice(a);
        events.extend_from_slice(b);
        Trace::presorted(events)
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
        let mut parts: Vec<Vec<TraceEvent>> = vec![Vec::new(); shards];
        for e in self.events.iter() {
            let shard = owner(e.model);
            assert!(
                shard < shards,
                "trace partition routed {:?} to shard {shard} of {shards}",
                e.model
            );
            parts[shard].push(*e);
        }
        // Each partition is a subsequence of an ordered trace, so it is
        // already sorted; construct directly rather than re-sorting.
        parts.into_iter().map(Trace::presorted).collect()
    }

    /// Returns a copy with every event's model id remapped. With a monotone
    /// map (as when compacting a shard's owned models to dense local ids)
    /// the event order is preserved byte for byte; a non-monotone map still
    /// yields a valid trace via re-sorting.
    pub fn with_models_mapped(&self, mut map: impl FnMut(ModelId) -> ModelId) -> Trace {
        Trace::new(
            self.events
                .iter()
                .map(|e| TraceEvent {
                    model: map(e.model),
                    ..*e
                })
                .collect(),
        )
    }

    /// Serialises the trace to a simple CSV (`at_ns,model,slo_ns,tier`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("at_ns,model,slo_ns,tier\n");
        for e in self.events.iter() {
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

/// The order of a trace: arrival time, then model, SLO and tier. It is
/// total over distinct events, so equal keys mean identical events.
pub(crate) fn arrival_order(e: &TraceEvent) -> (Timestamp, ModelId, Nanos, Tier) {
    (e.at, e.model, e.slo, e.tier)
}

/// Sorts arrivals into trace order in place. Generators call it on the
/// segment they have just drawn.
pub(crate) fn sort_arrivals(events: &mut [TraceEvent]) {
    events.sort_unstable_by_key(arrival_order);
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

    #[test]
    fn events_are_sorted_by_time() {
        let t = Trace::new(vec![event(30, 1), event(10, 2), event(20, 1)]);
        let times: Vec<u64> = t.events().iter().map(|e| e.at.as_nanos()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(t.len(), 3);
        assert_eq!(t.duration(), Timestamp::from_millis(30));
        assert_eq!(t.models(), vec![ModelId(1), ModelId(2)]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.mean_rate(), 0.0);
        assert_eq!(t.duration(), Timestamp::ZERO);
    }

    #[test]
    fn mean_rate() {
        let events: Vec<TraceEvent> = (1..=100).map(|i| event(i * 10, 1)).collect();
        let t = Trace::new(events);
        // 100 events over 1 second.
        assert!((t.mean_rate() - 100.0).abs() < 1.0);
    }

    #[test]
    fn partitioning_is_shard_stable_and_lossless() {
        let t = Trace::new((0..60).map(|i| event(i * 10, (i % 5) as u32)).collect());
        let parts = t.partitioned(2, |m| (m.0 % 2) as usize);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len() + parts[1].len(), t.len());
        for (shard, part) in parts.iter().enumerate() {
            assert!(part
                .events()
                .iter()
                .all(|e| (e.model.0 % 2) as usize == shard));
            let times: Vec<u64> = part.events().iter().map(|e| e.at.as_nanos()).collect();
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
        for (a, b) in t.events().iter().zip(local.events()) {
            assert_eq!(b.model.0, a.model.0 / 2, "same event, remapped id");
            assert_eq!(b.at, a.at);
            assert_eq!(b.slo, a.slo);
        }
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
        assert_eq!(scaled.events()[0].model, ModelId(3));
    }

    #[test]
    fn merging_interleaves() {
        let a = Trace::new(vec![event(10, 1), event(30, 1)]);
        let b = Trace::new(vec![event(20, 2)]);
        let m = a.merged(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.events()[1].model, ModelId(2));
        // On a tie in time and model the shorter SLO comes first, from
        // either side.
        let mut slow = event(10, 1);
        slow.slo = Nanos::from_millis(900);
        let c = Trace::new(vec![slow]);
        assert_eq!(a.merged(&c).events()[..2], [event(10, 1), slow]);
        assert_eq!(c.merged(&a).events()[..2], [event(10, 1), slow]);
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
        assert_eq!(parsed.events()[0].tier, Tier::Strict);
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
}
