//! Shaped workload generator: rate profiles, popularity skew, SLO tiers.
//!
//! The open-loop and Azure generators cover the paper's own experiments;
//! this module covers the *scenario zoo* beyond them — diurnal load cycles,
//! flash crowds, Zipf-distributed model popularity with drift, and
//! multi-tenant SLO tiers. A [`ShapedWorkload`] is a small composable spec:
//! a base Poisson rate shaped over time by a [`RateProfile`], spread over
//! models by a [`PopularityModel`], and split into client classes by a
//! [`TierMix`].
//!
//! Generation is segmented: time is cut into one-second segments and each
//! segment draws from an RNG derived via a splitmix step from the workload
//! seed (`rng.derive(segment_index)`), so every segment is independently
//! reproducible — extending the duration of a spec leaves all earlier
//! segments byte-identical, and a flash-crowd window can be regenerated in
//! isolation. A generated trace draws each segment, and sorts it in place,
//! when a reader reaches it, so arrivals are read in order.

use std::mem::size_of;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use clockwork_model::{ModelId, Tier};
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::{Nanos, Timestamp};

use crate::trace::{arc_bytes, KeyLayout, SegmentSource, Trace};

/// How the aggregate request rate evolves over the trace duration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum RateProfile {
    /// Flat rate for the whole duration.
    Constant,
    /// A smooth day/night cycle: rate swings sinusoidally between
    /// `(1 - amplitude)` and `(1 + amplitude)` times the base rate, with
    /// `cycles` full periods over the trace duration.
    Diurnal {
        /// Relative swing around the base rate, in `[0, 1]`.
        amplitude: f64,
        /// Number of full day/night periods across the duration.
        cycles: f64,
    },
    /// A flash crowd: baseline rate everywhere except a window
    /// `[start_frac, start_frac + len_frac)` of the duration where the rate
    /// jumps to `multiplier` times the base.
    FlashCrowd {
        /// Start of the spike window as a fraction of the duration.
        start_frac: f64,
        /// Length of the spike window as a fraction of the duration.
        len_frac: f64,
        /// Rate multiplier inside the window (the zoo preset uses 10×).
        multiplier: f64,
    },
}

impl RateProfile {
    /// The rate multiplier at time `frac` (fraction of the duration elapsed).
    pub fn multiplier_at(&self, frac: f64) -> f64 {
        match *self {
            RateProfile::Constant => 1.0,
            RateProfile::Diurnal { amplitude, cycles } => {
                let amp = amplitude.clamp(0.0, 1.0);
                // Start at the trough so short runs see the ramp-up.
                (1.0 - amp * (frac * cycles * std::f64::consts::TAU).cos()).max(0.0)
            }
            RateProfile::FlashCrowd {
                start_frac,
                len_frac,
                multiplier,
            } => {
                if frac >= start_frac && frac < start_frac + len_frac {
                    multiplier.max(0.0)
                } else {
                    1.0
                }
            }
        }
    }
}

/// How requests are spread across the model set.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PopularityModel {
    /// Every model gets the same share.
    Uniform,
    /// Zipf-distributed popularity: the model of rank `k` (1-based) gets a
    /// share proportional to `k^-exponent`. With `drift_segments > 0` the
    /// rank order rotates by one every that many seconds, so the hot set
    /// moves over time (popularity drift).
    Zipf {
        /// Skew exponent in thousandths (1000 = classic Zipf `s = 1`).
        /// Stored as an integer so the spec stays `Eq`-friendly and
        /// JSON-exact.
        exponent_milli: u32,
        /// Seconds between one-step rotations of the popularity ranking;
        /// zero disables drift.
        drift_segments: u32,
    },
}

impl PopularityModel {
    /// The cumulative distribution over `models` ranks at `segment`
    /// (used for inverse-CDF sampling). Returns an empty vector for an
    /// empty model set.
    fn cdf(&self, models: usize, segment: u64) -> Vec<f64> {
        if models == 0 {
            return Vec::new();
        }
        let weights: Vec<f64> = match *self {
            PopularityModel::Uniform => vec![1.0; models],
            PopularityModel::Zipf {
                exponent_milli,
                drift_segments,
            } => {
                let s = exponent_milli as f64 / 1000.0;
                let shift = if drift_segments == 0 {
                    0
                } else {
                    (segment / drift_segments as u64) as usize % models
                };
                // Model `(rank + shift) % models` holds rank `rank` in this
                // segment; rotating the assignment drifts the hot set.
                let mut w = vec![0.0; models];
                for rank in 0..models {
                    w[(rank + shift) % models] = 1.0 / ((rank + 1) as f64).powf(s);
                }
                w
            }
        };
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    }
}

/// The split of traffic into SLO tiers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TierMix {
    /// Share of requests issued by strict-tier clients, in thousandths
    /// (1000 = everything strict, the tier-less behaviour).
    pub strict_share_milli: u32,
    /// SLO of best-effort requests, in milliseconds. Typically looser than
    /// the scenario's strict SLO.
    pub best_effort_slo_ms: u64,
}

impl TierMix {
    /// All traffic strict — the tier-less default.
    pub const ALL_STRICT: TierMix = TierMix {
        strict_share_milli: 1000,
        best_effort_slo_ms: 0,
    };

    /// Whether this mix actually produces best-effort traffic.
    pub fn is_tiered(&self) -> bool {
        self.strict_share_milli < 1000
    }
}

/// A shaped open-loop workload: Poisson arrivals at `base_rate` requests per
/// second, shaped by a rate profile, spread by a popularity model, split by
/// a tier mix.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShapedWorkload {
    /// Baseline aggregate request rate (requests per second).
    pub base_rate: f64,
    /// Rate shape over time.
    pub profile: RateProfile,
    /// Popularity distribution over models.
    pub popularity: PopularityModel,
    /// Tier split.
    pub tiers: TierMix,
}

impl ShapedWorkload {
    /// A flat, uniform, all-strict workload — equivalent in law to
    /// [`crate::OpenLoopClient`] aggregated over the model set.
    pub fn constant(base_rate: f64) -> Self {
        ShapedWorkload {
            base_rate,
            profile: RateProfile::Constant,
            popularity: PopularityModel::Uniform,
            tiers: TierMix::ALL_STRICT,
        }
    }

    /// Generates the trace over `[0, duration)`: a recipe that draws it one
    /// segment at a time whenever it is read.
    ///
    /// `strict_slo` is attached to strict-tier requests; best-effort
    /// requests carry the mix's `best_effort_slo_ms`. Each one-second
    /// segment uses `rng.derive(segment_index)`, so segment `k` of a longer
    /// run is identical to segment `k` of a shorter one. Each segment is
    /// sorted on its own, as keys packing an offset into the second (30
    /// bits) above a model id (32) and, when the mix is tiered, a class bit.
    /// Arrival order is total, so the trace is the sort of all its arrivals.
    ///
    /// Building the trace counts its arrivals and keeps none. Only the last
    /// segment can lose arrivals to the end, so every segment before it
    /// counts its Poisson count, its first draw, and the last is drawn.
    pub fn generate(
        &self,
        models: &[ModelId],
        strict_slo: Nanos,
        duration: Nanos,
        rng: &SimRng,
    ) -> Trace {
        if models.is_empty() || self.base_rate <= 0.0 || duration == Nanos::ZERO {
            return Trace::default();
        }
        let be_slo = Nanos::from_millis(self.tiers.best_effort_slo_ms);
        // The class table ascends, so best effort ranks first when its SLO
        // is the tighter one.
        let strict_class = (strict_slo, Tier::Strict);
        let be_class = (be_slo, Tier::BestEffort);
        let (classes, strict_rank, be_rank) = if !self.tiers.is_tiered() {
            (vec![strict_class], 0, 0)
        } else if be_class < strict_class {
            (vec![be_class, strict_class], 1, 0)
        } else {
            (vec![strict_class, be_class], 0, 1)
        };
        let max_model = models.iter().map(|m| u64::from(m.0)).max().unwrap_or(0);
        let layout = KeyLayout::for_segments(SECOND.as_nanos(), max_model, classes.len())
            .expect("30 bits of offset, 32 of model id and a class bit fit");
        let total_secs = duration.as_secs_f64();
        let plan = Plan {
            shape: *self,
            models: models.to_vec(),
            ranks: [strict_rank, be_rank],
            duration,
            total_secs,
            segments: total_secs.ceil() as u64,
            rng: rng.clone(),
            layout,
        };
        let (mut len, mut widest) = (0, 0);
        let last = plan.segments - 1;
        for segment in 0..last {
            let count = plan.open(segment).3 as usize;
            len += count;
            widest = widest.max(count);
        }
        let mut drawn = 0;
        plan.draw(last, |_, _, _| drawn += 1);
        len += drawn;
        widest = widest.max(drawn);
        let seconds = Seconds {
            plan: Arc::new(plan),
            segment: 0,
        };
        Trace::drawn(seconds, layout, classes, len, widest)
    }
}

/// The length of a segment: every offset of one is at most this long.
const SECOND: Nanos = Nanos::from_secs(1);

/// What every segment of a shaped trace draws from.
struct Plan {
    shape: ShapedWorkload,
    models: Vec<ModelId>,
    /// The class ranks of strict and of best-effort arrivals.
    ranks: [u32; 2],
    duration: Nanos,
    /// The duration in seconds, and how many segments it spans, the last
    /// perhaps in part.
    total_secs: f64,
    segments: u64,
    /// The stream each segment's stream is derived from.
    rng: SimRng,
    layout: KeyLayout,
}

impl Plan {
    /// A segment's stream, start, length and arrival count.
    fn open(&self, segment: u64) -> (SimRng, Timestamp, f64, u64) {
        // Splitmix-derived sub-seed per segment: independent streams.
        let mut seg_rng = self.rng.derive(segment);
        let seg_len = (self.total_secs - segment as f64).min(1.0);
        // Rate sampled at the segment midpoint.
        let frac = (segment as f64 + 0.5 * seg_len) / self.total_secs;
        let rate = self.shape.base_rate * self.shape.profile.multiplier_at(frac);
        let count = seg_rng.poisson_count(rate * seg_len);
        (seg_rng, Timestamp::from_secs(segment), seg_len, count)
    }

    /// Draws `segment` and hands every arrival the end keeps to `keep`, as
    /// its offset into the segment, its model and its class rank.
    fn draw(&self, segment: u64, mut keep: impl FnMut(u64, ModelId, u32)) {
        let (mut seg_rng, seg_start, seg_len, count) = self.open(segment);
        let (models, tiers) = (&self.models, self.shape.tiers);
        let cdf = self.shape.popularity.cdf(models.len(), segment);
        for _ in 0..count {
            let offset = Nanos::from_secs_f64(seg_rng.uniform() * seg_len);
            if seg_start + offset >= Timestamp::ZERO + self.duration {
                continue;
            }
            let pick = seg_rng.uniform();
            let idx = cdf.partition_point(|&c| c < pick).min(models.len() - 1);
            let strict = seg_rng.uniform() * 1000.0 < tiers.strict_share_milli as f64;
            let class = self.ranks[usize::from(!strict && tiers.is_tiered())];
            keep(offset.as_nanos(), models[idx], class);
        }
    }
}

/// A shaped trace's cursor through its segments.
#[derive(Clone)]
struct Seconds {
    plan: Arc<Plan>,
    /// The next segment to draw.
    segment: u64,
}

impl SegmentSource for Seconds {
    fn draw(&mut self, keys: &mut Vec<u64>) -> Option<(u64, u64)> {
        let plan = &*self.plan;
        let segment = self.segment;
        if segment == plan.segments {
            return None;
        }
        self.segment += 1;
        plan.draw(segment, |offset, model, class| {
            keys.push(plan.layout.pack(offset, model, class))
        });
        let start = Timestamp::from_secs(segment).as_nanos();
        Some((start, start + SECOND.as_nanos()))
    }

    fn fork(&self) -> Box<dyn SegmentSource> {
        Box::new(self.clone())
    }

    fn heap_bytes(&self) -> usize {
        arc_bytes(&self.plan) + self.plan.models.capacity() * size_of::<ModelId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{arrival_order, TraceEvent};

    /// The generator with one sort of the whole trace, as events: the
    /// reference [`ShapedWorkload::generate`] must reproduce event for
    /// event.
    fn whole_sort_reference(
        shape: &ShapedWorkload,
        models: &[ModelId],
        strict_slo: Nanos,
        duration: Nanos,
        rng: &SimRng,
    ) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        if models.is_empty() || shape.base_rate <= 0.0 || duration == Nanos::ZERO {
            return events;
        }
        let total_secs = duration.as_secs_f64();
        let segments = total_secs.ceil() as u64;
        let be_slo = Nanos::from_millis(shape.tiers.best_effort_slo_ms);
        for segment in 0..segments {
            let mut seg_rng = rng.derive(segment);
            let seg_start = Timestamp::from_secs(segment);
            let seg_len = (total_secs - segment as f64).min(1.0);
            let frac = (segment as f64 + 0.5 * seg_len) / total_secs;
            let rate = shape.base_rate * shape.profile.multiplier_at(frac);
            let count = seg_rng.poisson_count(rate * seg_len);
            let cdf = shape.popularity.cdf(models.len(), segment);
            for _ in 0..count {
                let at = seg_start + Nanos::from_secs_f64(seg_rng.uniform() * seg_len);
                if at >= Timestamp::ZERO + duration {
                    continue;
                }
                let pick = seg_rng.uniform();
                let idx = cdf.partition_point(|&c| c < pick).min(models.len() - 1);
                let strict = seg_rng.uniform() * 1000.0 < shape.tiers.strict_share_milli as f64;
                let (tier, slo) = if strict || !shape.tiers.is_tiered() {
                    (Tier::Strict, strict_slo)
                } else {
                    (Tier::BestEffort, be_slo)
                };
                events.push(TraceEvent {
                    at,
                    model: models[idx],
                    slo,
                    tier,
                });
            }
        }
        events.sort_by_key(arrival_order);
        events
    }

    #[test]
    fn segment_sorted_generation_matches_the_whole_sort() {
        let tiered_zipf = ShapedWorkload {
            base_rate: 40.0,
            profile: RateProfile::FlashCrowd {
                start_frac: 0.3,
                len_frac: 0.2,
                multiplier: 10.0,
            },
            popularity: PopularityModel::Zipf {
                exponent_milli: 1100,
                drift_segments: 3,
            },
            tiers: TierMix {
                strict_share_milli: 600,
                best_effort_slo_ms: 250,
            },
        };
        let diurnal = ShapedWorkload {
            profile: RateProfile::Diurnal {
                amplitude: 0.7,
                cycles: 2.0,
            },
            ..ShapedWorkload::constant(30.0)
        };
        // Best effort with the tighter SLO: its class ranks first.
        let tiered_tight = ShapedWorkload {
            tiers: TierMix {
                strict_share_milli: 300,
                best_effort_slo_ms: 40,
            },
            ..ShapedWorkload::constant(60.0)
        };
        let shapes = [
            tiered_zipf,
            tiered_tight,
            diurnal,
            ShapedWorkload::constant(0.0),
            ShapedWorkload::constant(-3.0),
        ];
        // Ids up to the widest a key holds leave a tiered trace's offset
        // 31 bits, so its epochs (2^31 ns) end inside segments.
        let wide = [u32::MAX, 5, 1 << 31].map(ModelId).to_vec();
        let model_sets = [models(0), models(1), models(8), wide];
        for seed in 0..20 {
            let rng = SimRng::seeded(seed);
            for shape in &shapes {
                for model_set in &model_sets {
                    for duration_ms in [400, 61_500, 179_900] {
                        let args = (
                            model_set.as_slice(),
                            Nanos::from_millis(100),
                            Nanos::from_millis(duration_ms),
                        );
                        let trace = shape.generate(args.0, args.1, args.2, &rng);
                        assert_eq!(
                            trace.iter().collect::<Vec<_>>(),
                            whole_sort_reference(shape, args.0, args.1, args.2, &rng),
                            "{shape:?} over {} models, {duration_ms} ms, seed {seed}",
                            model_set.len()
                        );
                    }
                }
            }
        }
    }

    fn models(n: u32) -> Vec<ModelId> {
        (0..n).map(ModelId).collect()
    }

    fn gen(shape: &ShapedWorkload, secs: u64, seed: u64) -> Trace {
        shape.generate(
            &models(8),
            Nanos::from_millis(100),
            Nanos::from_secs(secs),
            &SimRng::seeded(seed),
        )
    }

    #[test]
    fn constant_rate_is_respected() {
        let trace = gen(&ShapedWorkload::constant(500.0), 20, 1);
        let rate = trace.len() as f64 / 20.0;
        assert!((rate - 500.0).abs() < 50.0, "rate {rate}");
        assert!(trace.iter().all(|e| e.tier == Tier::Strict));
    }

    #[test]
    fn same_seed_same_trace() {
        let shape = ShapedWorkload {
            base_rate: 300.0,
            profile: RateProfile::FlashCrowd {
                start_frac: 0.4,
                len_frac: 0.2,
                multiplier: 10.0,
            },
            popularity: PopularityModel::Zipf {
                exponent_milli: 900,
                drift_segments: 5,
            },
            tiers: TierMix {
                strict_share_milli: 600,
                best_effort_slo_ms: 250,
            },
        };
        assert_eq!(gen(&shape, 10, 42), gen(&shape, 10, 42));
        assert_ne!(gen(&shape, 10, 42), gen(&shape, 10, 43));
    }

    #[test]
    fn segments_are_prefix_stable() {
        // Extending the duration must not perturb earlier segments: segment
        // RNGs are derived per segment, not threaded through the whole run.
        let shape = ShapedWorkload::constant(200.0);
        let short = gen(&shape, 5, 7);
        let long = gen(&shape, 10, 7);
        let cutoff = Timestamp::from_secs(5);
        let long_prefix: Vec<TraceEvent> = long.iter().filter(|e| e.at < cutoff).collect();
        assert_eq!(short.iter().collect::<Vec<_>>(), long_prefix);
    }

    #[test]
    fn flash_crowd_spikes_inside_the_window() {
        let shape = ShapedWorkload {
            base_rate: 200.0,
            profile: RateProfile::FlashCrowd {
                start_frac: 0.5,
                len_frac: 0.25,
                multiplier: 10.0,
            },
            popularity: PopularityModel::Uniform,
            tiers: TierMix::ALL_STRICT,
        };
        let trace = gen(&shape, 40, 9);
        let window = |from: u64, to: u64| {
            trace
                .iter()
                .filter(|e| e.at >= Timestamp::from_secs(from) && e.at < Timestamp::from_secs(to))
                .count() as f64
        };
        let baseline = window(0, 20) / 20.0;
        let spike = window(20, 30) / 10.0;
        assert!(
            spike > baseline * 5.0,
            "spike {spike} r/s vs baseline {baseline} r/s"
        );
    }

    #[test]
    fn diurnal_rate_swings() {
        let shape = ShapedWorkload {
            base_rate: 400.0,
            profile: RateProfile::Diurnal {
                amplitude: 0.8,
                cycles: 1.0,
            },
            popularity: PopularityModel::Uniform,
            tiers: TierMix::ALL_STRICT,
        };
        let trace = gen(&shape, 40, 11);
        let count = |from: u64, to: u64| {
            trace
                .iter()
                .filter(|e| e.at >= Timestamp::from_secs(from) && e.at < Timestamp::from_secs(to))
                .count() as f64
        };
        // Trough at the start/end, peak in the middle.
        let trough = count(0, 8);
        let peak = count(16, 24);
        assert!(peak > trough * 2.0, "peak {peak} vs trough {trough}");
    }

    #[test]
    fn zipf_concentrates_and_drifts() {
        let mut per_model = [0usize; 8];
        let shape = ShapedWorkload {
            base_rate: 1000.0,
            profile: RateProfile::Constant,
            popularity: PopularityModel::Zipf {
                exponent_milli: 1200,
                drift_segments: 0,
            },
            tiers: TierMix::ALL_STRICT,
        };
        let trace = gen(&shape, 10, 13);
        for e in trace.iter() {
            per_model[e.model.0 as usize] += 1;
        }
        let hottest = *per_model.iter().max().unwrap() as f64;
        assert!(
            hottest > trace.len() as f64 * 0.3,
            "hottest model got {hottest} of {}",
            trace.len()
        );
        // With drift the hot model changes between early and late segments.
        let drifting = ShapedWorkload {
            popularity: PopularityModel::Zipf {
                exponent_milli: 1200,
                drift_segments: 2,
            },
            ..shape
        };
        let trace = gen(&drifting, 16, 13);
        let hot_in = |from: u64, to: u64| {
            let mut counts = [0usize; 8];
            for e in trace.iter() {
                if e.at >= Timestamp::from_secs(from) && e.at < Timestamp::from_secs(to) {
                    counts[e.model.0 as usize] += 1;
                }
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(m, _)| m)
                .unwrap()
        };
        assert_ne!(hot_in(0, 2), hot_in(14, 16), "popularity should drift");
    }

    #[test]
    fn tier_mix_splits_and_assigns_slos() {
        let shape = ShapedWorkload {
            base_rate: 800.0,
            profile: RateProfile::Constant,
            popularity: PopularityModel::Uniform,
            tiers: TierMix {
                strict_share_milli: 700,
                best_effort_slo_ms: 250,
            },
        };
        let trace = gen(&shape, 20, 17);
        let strict = trace.iter().filter(|e| e.tier == Tier::Strict).count() as f64;
        let share = strict / trace.len() as f64;
        assert!((share - 0.7).abs() < 0.05, "strict share {share}");
        for e in trace.iter() {
            match e.tier {
                Tier::Strict => assert_eq!(e.slo, Nanos::from_millis(100)),
                Tier::BestEffort => assert_eq!(e.slo, Nanos::from_millis(250)),
            }
        }
    }

    #[test]
    fn empty_inputs_produce_empty_traces() {
        let shape = ShapedWorkload::constant(100.0);
        let empty_models = shape.generate(
            &[],
            Nanos::from_millis(100),
            Nanos::from_secs(5),
            &SimRng::seeded(1),
        );
        assert!(empty_models.is_empty());
        let zero_rate = gen(&ShapedWorkload::constant(0.0), 5, 1);
        assert!(zero_rate.is_empty());
    }
}
