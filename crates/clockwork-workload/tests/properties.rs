//! Property-based tests for workload generation and trace handling.
//!
//! Every experiment in the repository is driven by a [`Trace`]; these tests
//! pin down its keys (ordering, partitioning, model mapping, the cursor and
//! the events view) and the statistical sanity of the open-loop,
//! closed-loop and Azure-like generators.

use proptest::prelude::*;

use clockwork_model::{ModelId, Tier};
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_workload::azure::{AzureTraceConfig, AzureTraceGenerator};
use clockwork_workload::closed_loop::ClosedLoopClient;
use clockwork_workload::open_loop::OpenLoopClient;
use clockwork_workload::shapes;
use clockwork_workload::trace::{Trace, TraceEvent};

const HOUR_NS: u64 = 3_600_000_000_000;

/// Events spread over an hour, each with its own SLO, some with none
/// ([`Nanos::MAX`]) and some best effort: a class table as long as the
/// trace.
fn arb_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        (0u64..HOUR_NS, 0u32..50, 1u64..1_000_000_000u64, 0u8..8),
        0..300,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(at, model, slo, kind)| TraceEvent {
                at: Timestamp::from_nanos(at),
                model: ModelId(model),
                slo: if kind % 4 == 0 {
                    Nanos::MAX
                } else {
                    Nanos::from_nanos(slo)
                },
                tier: if kind >= 4 {
                    Tier::BestEffort
                } else {
                    Tier::Strict
                },
            })
            .collect()
    })
}

/// Events crowded into a microsecond over a few models and classes, so
/// that arrivals tie in time, and in time and model.
fn arb_dense_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((0u64..1_000, 0u32..6, 0u8..4), 0..300).prop_map(|raw| {
        raw.into_iter()
            .map(|(at, model, kind)| TraceEvent {
                at: Timestamp::from_nanos(at),
                model: ModelId(model * 1_000),
                slo: Nanos::from_millis(if kind % 2 == 0 { 100 } else { 25 }),
                tier: Tier::from_index(u64::from(kind / 2)),
            })
            .collect()
    })
}

/// Events over model ids up to `u32::MAX` and up to 48 classes, so an
/// arrival's offset keeps as few as 26 bits and an hour spans tens of
/// thousands of epochs. Half the times fall on an epoch's first
/// nanosecond, or the one before or after it, for every epoch length
/// such ids and classes leave, and half the models are one of two ids
/// next to `u32::MAX`, so those arrivals tie.
fn arb_wide_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        (
            (0u64..HOUR_NS, 0u64..8, 26u32..33, 0u64..3),
            (any::<u32>(), 0u32..4),
            (1u64..25, 0u8..2),
        ),
        0..300,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(
                |((at, epoch, bits, edge), (model, near_max), (slo, tier))| TraceEvent {
                    at: Timestamp::from_nanos(if epoch < 4 {
                        at
                    } else {
                        ((epoch - 3) << bits) + edge - 1
                    }),
                    model: ModelId(if near_max < 2 {
                        model
                    } else {
                        u32::MAX - (near_max - 2)
                    }),
                    slo: Nanos::from_millis(slo),
                    tier: Tier::from_index(u64::from(tier)),
                },
            )
            .collect()
    })
}

/// Any kind of event list.
fn arb_any_events() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop_oneof![arb_events(), arb_dense_events(), arb_wide_events()]
}

/// Arrival order: time, then model, SLO and tier.
fn order(e: &TraceEvent) -> (Timestamp, ModelId, Nanos, Tier) {
    (e.at, e.model, e.slo, e.tier)
}

/// The array-of-structs twin of a trace built from `events`: the events
/// sorted the slow way.
fn twin(mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    events.sort_by_key(order);
    events
}

/// A trace's arrivals, read through its iterator.
fn listed(trace: &Trace) -> Vec<TraceEvent> {
    trace.iter().collect()
}

proptest! {
    // ------------------------------------------------------------------
    // Trace algebra
    // ------------------------------------------------------------------

    // Every operation on the keys against the same operation on the
    // events' array-of-structs twin, event for event.

    #[test]
    fn keys_match_their_twin(events in arb_any_events()) {
        let trace = Trace::new(events.clone());
        let expected = twin(events);
        prop_assert_eq!(listed(&trace), expected.clone());
        prop_assert_eq!(trace.len(), expected.len());
        prop_assert_eq!(trace.events(), expected.as_slice());
    }

    #[test]
    fn partitioning_matches_its_twin(events in arb_any_events(), shards in 1usize..5) {
        let owner = |m: ModelId| (m.0 as usize / 7 + m.0 as usize) % shards;
        let parts = Trace::new(events.clone()).partitioned(shards, owner);
        prop_assert_eq!(parts.len(), shards);
        for (shard, part) in parts.iter().enumerate() {
            let expected: Vec<TraceEvent> = twin(events.clone())
                .into_iter()
                .filter(|e| owner(e.model) == shard)
                .collect();
            prop_assert_eq!(listed(part), expected);
        }
    }

    #[test]
    fn model_mapping_matches_its_twin(events in arb_any_events(), salt in 0u32..64) {
        let trace = Trace::new(events.clone());
        // Monotone (a shard's dense local ids) and scrambling maps.
        let maps: [&dyn Fn(ModelId) -> ModelId; 2] = [
            &|m: ModelId| ModelId(m.0 / 3),
            &|m: ModelId| ModelId((m.0 ^ salt).wrapping_mul(2_654_435_761) >> 7),
        ];
        for map in maps {
            let mapped: Vec<TraceEvent> =
                events.iter().map(|e| TraceEvent { model: map(e.model), ..*e }).collect();
            prop_assert_eq!(listed(&trace.with_models_mapped(map)), twin(mapped));
        }
    }

    #[test]
    fn trace_is_sorted_and_preserves_every_event(events in arb_events()) {
        let trace = Trace::new(events.clone());
        prop_assert_eq!(trace.len(), events.len());
        let listed = listed(&trace);
        for w in listed.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        // Same multiset of events, just reordered.
        let mut original: Vec<_> = events.iter().map(|e| (e.at, e.model, e.slo)).collect();
        let mut sorted: Vec<_> = listed.iter().map(|e| (e.at, e.model, e.slo)).collect();
        original.sort();
        sorted.sort();
        prop_assert_eq!(original, sorted);
        // The last arrival is the latest event.
        let latest = events.iter().map(|e| e.at).max();
        prop_assert_eq!(trace.iter().last().map(|e| e.at), latest);
        // The model list is deduplicated and covers every referenced model.
        let models = trace.models();
        for e in trace.iter() {
            prop_assert!(models.contains(&e.model));
        }
        let mut deduped = models.clone();
        deduped.sort();
        deduped.dedup();
        prop_assert_eq!(deduped.len(), models.len());
    }

    // ------------------------------------------------------------------
    // Open-loop (Poisson) clients
    // ------------------------------------------------------------------

    #[test]
    fn open_loop_rate_is_respected_within_statistical_bounds(rate in 50.0f64..2000.0, seed in any::<u64>()) {
        let slo = Nanos::from_millis(100);
        let duration = Nanos::from_secs(20);
        let client = OpenLoopClient::new(ModelId(3), rate, slo);
        let mut rng = SimRng::seeded(seed);
        let trace = client.generate(duration, &mut rng);
        // All events target the right model, carry the right SLO, and lie
        // within the requested duration.
        for e in trace.iter() {
            prop_assert_eq!(e.model, ModelId(3));
            prop_assert_eq!(e.slo, slo);
            prop_assert!(e.at <= Timestamp::ZERO + duration);
        }
        // The realised rate is within 20 % of the requested rate (Poisson
        // with >= 1000 expected events).
        let expected = rate * duration.as_secs_f64();
        let got = trace.len() as f64;
        prop_assert!((got - expected).abs() < expected * 0.2,
            "requested ~{} events, generated {}", expected, got);
    }

    #[test]
    fn open_loop_generate_many_covers_every_model(
        n_models in 1usize..30,
        rate in 1.0f64..50.0,
        seed in any::<u64>(),
    ) {
        let models: Vec<ModelId> = (0..n_models as u32).map(ModelId).collect();
        let mut rng = SimRng::seeded(seed);
        let trace = OpenLoopClient::generate_many(
            &models,
            rate,
            Nanos::from_millis(100),
            Nanos::from_secs(30),
            &mut rng,
        );
        for e in trace.iter() {
            prop_assert!(models.contains(&e.model));
        }
        for w in listed(&trace).windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
    }

    // ------------------------------------------------------------------
    // Closed-loop clients
    // ------------------------------------------------------------------

    #[test]
    fn closed_loop_client_never_exceeds_its_concurrency(
        concurrency in 1u32..32,
        responses in 0usize..200,
    ) {
        let mut client = ClosedLoopClient::new(ModelId(1), concurrency, Nanos::from_millis(100));
        let initial = client.initial_submissions(Timestamp::ZERO);
        // A closed-loop client opens exactly `concurrency` requests up front.
        prop_assert_eq!(initial.len(), concurrency as usize);
        prop_assert_eq!(client.in_flight(), concurrency);
        prop_assert_eq!(client.submitted(), u64::from(concurrency));

        let mut now = Timestamp::ZERO;
        for i in 0..responses {
            now += Nanos::from_millis(5);
            let next = client.on_response(now);
            // Every completed request is immediately replaced by exactly one
            // new submission, keeping in-flight constant.
            prop_assert!(next.is_some());
            prop_assert_eq!(client.in_flight(), concurrency);
            prop_assert_eq!(client.completed(), i as u64 + 1);
            prop_assert_eq!(client.submitted(), u64::from(concurrency) + i as u64 + 1);
        }
    }

}

// ----------------------------------------------------------------------
// Azure-like trace generator (fewer cases: each one synthesises minutes of
// trace)
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn azure_generator_is_deterministic_and_shaped_like_its_config(
        functions in 20usize..200,
        models in 5usize..60,
        rate in 50.0f64..500.0,
        seed in any::<u64>(),
    ) {
        let config = AzureTraceConfig {
            functions,
            models,
            duration: Nanos::from_minutes(2),
            target_rate: rate,
            slo: Nanos::from_millis(100),
            seed,
        };
        let generator = AzureTraceGenerator::new(config);
        prop_assert_eq!(generator.functions().len(), functions);
        for f in generator.functions() {
            prop_assert!((f.model.0 as usize) < models, "function mapped to unknown model");
            prop_assert!(f.weight >= 0.0);
        }

        let trace = generator.generate();
        // Determinism: the same config yields byte-identical traces.
        let again = AzureTraceGenerator::new(config).generate();
        prop_assert_eq!(trace.len(), again.len());
        prop_assert_eq!(listed(&trace), listed(&again));

        // Shape: events are ordered, within duration, target known models,
        // and carry the configured SLO.
        for e in trace.iter() {
            prop_assert!((e.model.0 as usize) < models);
            prop_assert_eq!(e.slo, config.slo);
            prop_assert!(e.at <= Timestamp::ZERO + config.duration);
        }
        for w in listed(&trace).windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        // The realised aggregate rate is in the same order of magnitude as
        // the target. The generator deliberately trades rate exactness for
        // realistic class mixtures (hourly spikes land inside short windows,
        // cold functions contribute a minimum trickle), so the band here is
        // wide; each experiment binary prints its realised rate.
        prop_assert!(!trace.is_empty());
        let last = trace.iter().last().expect("arrivals").at;
        let realised = trace.len() as f64 / last.as_secs_f64();
        prop_assert!(realised > rate * 0.2 && realised < rate * 10.0,
            "target {} r/s but realised {} r/s", rate, realised);
    }
}

// ----------------------------------------------------------------------
// Generator properties over five seeds
// ----------------------------------------------------------------------

const SEEDS: [u64; 5] = [2020, 4242, 0, 7, 42];

/// Whether a trace is in arrival order: time, then model, SLO and tier.
fn in_arrival_order(trace: &Trace) -> bool {
    listed(trace).is_sorted_by_key(order)
}

#[test]
fn azure_traces_keep_their_rate_and_their_hourly_burst_over_two_hours() {
    for seed in SEEDS {
        // The fleet's function mix at 100 r/s.
        let config = AzureTraceConfig {
            functions: 800,
            models: 200,
            duration: Nanos::from_minutes(120),
            target_rate: 100.0,
            slo: Nanos::from_millis(100),
            seed,
        };
        let trace = AzureTraceGenerator::new(config).generate();
        assert!(in_arrival_order(&trace), "seed {seed}");
        let rate = trace.len() as f64 / config.duration.as_secs_f64();
        assert!(
            (rate / config.target_rate - 1.0).abs() <= 0.05,
            "seed {seed}: {rate} r/s against a target of {}",
            config.target_rate
        );
        let mut per_minute = [0u64; 120];
        for e in trace.iter() {
            per_minute[(e.at.as_nanos() / 60_000_000_000) as usize] += 1;
        }
        // Minute 0 of each hour carries the hourly spike: the busiest
        // minute of its hour, at about twice the target.
        let target_per_minute = config.target_rate * 60.0;
        for (hour, minutes) in per_minute.chunks(60).enumerate() {
            let burst = minutes[0] as f64 / target_per_minute;
            assert!(
                (1.5..=2.5).contains(&burst),
                "seed {seed}, hour {hour}: minute 0 at {burst}x the target"
            );
            assert!(
                minutes[1..].iter().all(|&n| n < minutes[0]),
                "seed {seed}, hour {hour}: minute 0 is not the busiest"
            );
        }
    }
}

#[test]
fn every_generator_emits_arrival_order() {
    let models: Vec<ModelId> = (0..40).map(ModelId).collect();
    let tiered = shapes::ShapedWorkload {
        popularity: shapes::PopularityModel::Zipf {
            exponent_milli: 1100,
            drift_segments: 5,
        },
        tiers: shapes::TierMix {
            strict_share_milli: 600,
            best_effort_slo_ms: 250,
        },
        ..shapes::ShapedWorkload::constant(400.0)
    };
    for seed in SEEDS {
        let slo = Nanos::from_millis(100);
        let duration = Nanos::from_secs(60);
        let open_loop =
            OpenLoopClient::generate_many(&models, 5.0, slo, duration, &mut SimRng::seeded(seed));
        assert!(in_arrival_order(&open_loop), "open loop, seed {seed}");
        let shaped = tiered.generate(&models, slo, duration, &SimRng::seeded(seed));
        assert!(in_arrival_order(&shaped), "shaped, seed {seed}");
        assert!(
            shaped.iter().any(|e| e.tier == Tier::BestEffort),
            "the tiered mix produced no best-effort arrival, seed {seed}"
        );
    }
}

// ----------------------------------------------------------------------
// Streaming changes nothing: every generator's trace, read as its cursor
// draws it segment by segment, is the same from every cursor and in its
// events view
// ----------------------------------------------------------------------

/// `SimRng`'s multiplier, and its inverse mod 2^64.
const PCG_MULT: u64 = 6_364_136_223_846_793_005;

fn inverse(odd: u64) -> u64 {
    let mut x = odd;
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(x)));
    }
    x
}

/// The seed `SimRng::new(seed, stream)` takes to stand at `state`: `new`
/// steps from zero, adds the seed and steps again.
fn seed_for(state: u64, stream: u64) -> u64 {
    let inc = stream << 1 | 1;
    state
        .wrapping_sub(inc)
        .wrapping_mul(inverse(PCG_MULT))
        .wrapping_sub(inc)
}

/// The inverse of `x ^= x >> shift`.
fn unshift(y: u64, shift: u32) -> u64 {
    let mut x = y;
    for _ in 0..64 / shift {
        x = y ^ (x >> shift);
    }
    x
}

/// A state whose next uniform draw is within a ten-billionth of 1, so
/// that `u · 60 s` rounds onto 60 s: a first output of all ones, and a
/// second output that is almost so, found among the states that make the
/// first one.
fn state_before_one(stream: u64) -> u64 {
    // Output bits 27..58 of `x ^ (x >> 18)`, rotated by bits 59..63 (here
    // 0), are all ones when each of bits 58 down to 27 differs from the
    // bit 18 above it.
    let mut high = 0u64;
    for bit in (27..59).rev() {
        let above = if bit + 18 < 64 {
            high >> (bit + 18) & 1
        } else {
            0
        };
        high |= (1 ^ above) << bit;
    }
    (0..1u64 << 27)
        .map(|low| high | low)
        .find(|&state| {
            let u = SimRng::new(seed_for(state, stream), stream).uniform();
            Nanos::from_secs_f64(u * 60.0) == Nanos::from_secs(60)
        })
        .expect("a state draws an offset that rounds onto the minute's end")
}

/// An Azure config of one function whose first offset of minute 0 rounds
/// onto 60 s, minute 1's start: the seed that puts the function's stream
/// (`seeded(seed ^ 0x5117).derive(0)`) some draws before such a state,
/// as many as minute 0's count takes.
fn azure_rounding_onto_a_minute() -> AzureTraceConfig {
    let derived_stream = 0x1405_7b7e;
    let target = state_before_one(derived_stream);
    let inc = derived_stream << 1 | 1;
    let mut state = target;
    for draws in 1..=64 {
        // Two steps of the generator back: one uniform draw.
        for _ in 0..2 {
            state = state.wrapping_sub(inc).wrapping_mul(inverse(PCG_MULT));
        }
        // Undo `derive(0)`'s SplitMix64 finaliser, then `seeded`.
        let mut z = unshift(seed_for(state, derived_stream), 31);
        z = unshift(z.wrapping_mul(inverse(0x94d0_49bb_1331_11eb)), 27);
        z = unshift(z.wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9)), 30);
        let config = AzureTraceConfig {
            functions: 1,
            models: 3,
            duration: Nanos::from_minutes(2),
            target_rate: 0.05,
            slo: Nanos::from_millis(100),
            seed: seed_for(z, 0xda3e_39cb_94b9_5bdb) ^ 0x5117,
        };
        // Counted without a cursor: minute 0's arrivals, less those its
        // one-minute trace drops on its end.
        let two = AzureTraceGenerator::new(config).generate();
        let one = AzureTraceGenerator::new(AzureTraceConfig {
            duration: Nanos::from_minutes(1),
            ..config
        })
        .generate();
        let minute_1 = two.iter().filter(|e| e.at > Timestamp::from_secs(60));
        if two.len() - minute_1.count() > one.len() {
            assert!(draws > 1, "{draws} draws");
            return config;
        }
    }
    panic!("no count of draws before the state put an arrival on minute 1's start");
}

/// Checks a generated trace read as it streams: the count read is its
/// length, in arrival order, the same twice, from two cursors read in turns
/// and from two clones on two threads, and event for event its
/// [`Trace::events`] view.
fn streams_its_stored_keys(name: &str, trace: &Trace) {
    let first = listed(trace);
    prop_assert_eq!(first.len(), trace.len(), "{}: read the length", name);
    prop_assert!(first.is_sorted_by_key(order), "{}: in arrival order", name);
    prop_assert_eq!(&listed(trace), &first, "{}: read twice", name);
    let threads = [trace.clone(), trace.clone()].map(|t| std::thread::spawn(move || listed(&t)));
    for thread in threads {
        prop_assert_eq!(
            &thread.join().unwrap(),
            &first,
            "{}: read on a thread",
            name
        );
    }
    prop_assert_eq!(
        trace.events(),
        first.as_slice(),
        "{}: the events view",
        name
    );
    // Two cursors read in turns, one 97 arrivals ahead of the other, each
    // draw their own way along.
    let mut ahead = trace.iter().skip(97);
    for (i, e) in trace.iter().enumerate() {
        prop_assert_eq!(e, first[i], "{}: the cursor behind", name);
        if let Some(a) = ahead.next() {
            prop_assert_eq!(a, first[i + 97], "{}: the cursor ahead", name);
        }
    }
    prop_assert_eq!(listed(trace), first, "{}: read once viewed", name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn streamed_traces_match_their_stored_keys(seed in any::<u64>()) {
        let nanos = Nanos::from_nanos;
        let minute = Nanos::from_minutes(1);
        let durations = [
            nanos(1),
            Nanos::from_millis(1),
            Nanos::from_millis(400),
            minute - nanos(1),
            minute,
            minute + nanos(1),
            Nanos::from_minutes(2),
            Nanos::from_minutes(8),
        ];
        let longest = Nanos::from_minutes(8);
        let models: Vec<ModelId> = (0..10).map(ModelId).collect();
        let slo = Nanos::from_millis(100);
        let azure = |duration| AzureTraceGenerator::new(AzureTraceConfig {
            functions: 60,
            models: 10,
            duration,
            target_rate: 20.0,
            slo,
            seed,
        }).generate();
        let open_loop = |duration| OpenLoopClient::generate_many(
            &models, 2.0, slo, duration, &mut SimRng::seeded(seed),
        );
        let tiered = shapes::ShapedWorkload {
            tiers: shapes::TierMix {
                strict_share_milli: 600,
                best_effort_slo_ms: 250,
            },
            ..shapes::ShapedWorkload::constant(20.0)
        };
        let shaped = |duration| tiered.generate(&models, slo, duration, &SimRng::seeded(seed));
        let (azure_all, open_loop_all, shaped_all) =
            (azure(longest), open_loop(longest), shaped(longest));
        for duration in durations {
            let cut = Timestamp::ZERO + duration;
            for (name, trace, whole) in [
                ("azure", azure(duration), Some(&azure_all)),
                ("open loop", open_loop(duration), Some(&open_loop_all)),
                // A shaped segment's count follows its length, so only
                // whole seconds are a longer trace's prefix.
                (
                    "shaped",
                    shaped(duration),
                    (duration.as_nanos() % 1_000_000_000 == 0).then_some(&shaped_all),
                ),
            ] {
                let name = format!("{name} over {duration:?}");
                streams_its_stored_keys(&name, &trace);
                // The minutes and clients a longer trace draws are the same.
                if let Some(whole) = whole {
                    let prefix = whole.iter().take_while(|e| e.at < cut);
                    prop_assert!(trace.iter().eq(prefix), "{}: a prefix", name);
                }
            }
        }
        prop_assert!(shaped_all.iter().any(|e| e.tier == Tier::BestEffort));
        streams_its_stored_keys("empty", &azure(Nanos::ZERO));
        prop_assert!(azure(Nanos::ZERO).is_empty());
        // An offset that rounds onto the next minute's start is held back
        // into that minute, read once and counted.
        let rounding = AzureTraceGenerator::new(azure_rounding_onto_a_minute()).generate();
        streams_its_stored_keys("azure, rounding onto a minute", &rounding);
        let on_the_minute = Timestamp::from_secs(60);
        prop_assert_eq!(rounding.iter().filter(|e| e.at == on_the_minute).count(), 1);
    }
}
