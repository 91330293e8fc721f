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
        let (trace, counted) = drawn(
            clients,
            &[self.model],
            self.rate_per_sec,
            self.slo,
            duration,
        );
        *rng = counted.clients[0].0.clone();
        trace
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
        drawn(clients, models, rate_per_client, slo, duration).0
    }
}

/// The longest segment: its offsets take at most 32 bits, which leaves 32
/// for any model id.
const MAX_SEGMENT: Nanos = Nanos::from_nanos(1 << 32);

/// The trace of the arrivals before `duration` of clients, each a stream
/// and its next arrival, for `models` (one per client) at `rate` each; and
/// the clients where drawing the trace leaves them. Building it draws every
/// gap, to count the arrivals, and keeps none.
fn drawn(
    clients: Vec<(SimRng, Timestamp)>,
    models: &[ModelId],
    rate: f64,
    slo: Nanos,
    duration: Nanos,
) -> (Trace, Segments) {
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
    let classes = vec![(slo, Tier::Strict)];
    (
        Trace::drawn(segments, layout, classes, len, widest),
        counting,
    )
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
}
