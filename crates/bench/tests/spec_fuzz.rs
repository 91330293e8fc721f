//! Chaos-fuzzed differential testing: random valid scenarios, every
//! discipline, universal invariants.
//!
//! Proptest strategies generate small but fully random [`ScenarioSpec`]s —
//! every workload kind (Azure-like, open-loop, closed-loop, shaped with all
//! rate-profile / popularity / tier-mix variants), hostile execution
//! variance, and randomized fault plans (churn plus mid-run worker joins) —
//! and run each one under **all five** registered disciplines: clockwork,
//! clockwork-nobatch, fifo, and the Clipper- and INFaaS-like baselines.
//!
//! The assertions are exactly the universal invariants every bench harness
//! enforces (`bench::invariants`, reused verbatim): exactly-once accounting
//! when drained, no SLO over-delivery, event-mix conservation, and digest
//! stability across two same-seed runs. No discipline-specific behavior is
//! asserted — the point is that *no* reachable scenario can make any
//! discipline break the rules every discipline must obey.
//!
//! Minimized-repro machinery: every assertion message embeds the failing
//! spec as `ScenarioSpec::to_json()`. Paste that JSON into
//! `ScenarioSpec::from_json` (as `tests/shed_regression.rs` does) to replay
//! a failure deterministically; the vendored proptest stub seeds each case
//! from the property name, so reruns also reproduce in place.

use clockwork::prelude::*;
use clockwork_baselines::register_baselines;
use proptest::prelude::*;

fn rate_profile() -> impl Strategy<Value = RateProfile> {
    prop_oneof![
        Just(RateProfile::Constant),
        (0.1f64..1.0, 0.5f64..4.0)
            .prop_map(|(amplitude, cycles)| RateProfile::Diurnal { amplitude, cycles }),
        (0.1f64..0.7, 0.05f64..0.3, 2.0f64..12.0).prop_map(|(start_frac, len_frac, multiplier)| {
            RateProfile::FlashCrowd {
                start_frac,
                len_frac,
                multiplier,
            }
        }),
    ]
}

fn popularity() -> impl Strategy<Value = PopularityModel> {
    prop_oneof![
        Just(PopularityModel::Uniform),
        (500u32..2000, 0u32..4).prop_map(|(exponent_milli, drift_segments)| {
            PopularityModel::Zipf {
                exponent_milli,
                drift_segments,
            }
        }),
    ]
}

fn tier_mix() -> impl Strategy<Value = TierMix> {
    prop_oneof![
        Just(TierMix::ALL_STRICT),
        (100u32..1000, 150u64..600).prop_map(|(strict_share_milli, best_effort_slo_ms)| {
            TierMix {
                strict_share_milli,
                best_effort_slo_ms,
            }
        }),
    ]
}

fn workload() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        (4usize..32, 50.0f64..300.0).prop_map(|(functions, target_rate)| WorkloadSpec::Azure {
            functions,
            target_rate,
        }),
        (5.0f64..60.0).prop_map(|rate_per_model| WorkloadSpec::OpenLoop { rate_per_model }),
        (1u32..4).prop_map(|concurrency| WorkloadSpec::ClosedLoop { concurrency }),
        (50.0f64..300.0, rate_profile(), popularity(), tier_mix()).prop_map(
            |(base_rate, profile, popularity, tiers)| WorkloadSpec::Shaped {
                base_rate,
                profile,
                popularity,
                tiers,
            }
        ),
    ]
}

/// A randomized fault plan scaled to the fuzzed fleet: bounded churn drawn
/// from [`FaultPlan::random_churn`] plus up to one mid-run worker join —
/// the same ingredients as the zoo's autoscale scenario, at fuzz size.
fn fault_plan(
    workers: u32,
    gpus_per_worker: u32,
    duration_secs: u64,
) -> impl Strategy<Value = FaultPlan> {
    (
        0u32..2, // worker crash/restart pairs
        0u32..3, // gpu fail/recover pairs
        0u32..2, // link degradations
        0u32..2, // partitions
        any::<bool>(),
        0u64..u64::MAX,
    )
        .prop_map(
            move |(worker_crashes, gpu_failures, link_degradations, partitions, join, seed)| {
                let window = Nanos::from_millis(duration_secs * 1000 / 2);
                let mut plan = FaultPlan::random_churn(&ChurnConfig {
                    workers,
                    gpus_per_worker,
                    start: Timestamp::from_millis(duration_secs * 1000 / 4),
                    duration: window,
                    worker_crashes,
                    gpu_failures,
                    link_degradations,
                    partitions,
                    min_downtime: Nanos::from_millis(100),
                    max_downtime: Nanos::from_millis(500),
                    seed,
                });
                if join {
                    // Joins address workers past the initial fleet.
                    plan =
                        plan.join_worker(Timestamp::from_millis(duration_secs * 1000 / 3), workers);
                }
                plan
            },
        )
}

fn spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        1u32..=3,   // workers
        1u32..=2,   // gpus per worker
        1usize..=4, // models
        1u64..=2,   // duration (virtual seconds)
        30u64..200, // strict SLO ms
        workload(),
        any::<bool>(), // hostile execution variance?
        0u64..u64::MAX,
    )
        .prop_flat_map(
            |(workers, gpus, models, secs, slo_ms, workload, hostile, seed)| {
                (
                    Just((workers, gpus, models, secs, slo_ms, workload, hostile, seed)),
                    fault_plan(workers, gpus, secs),
                )
            },
        )
        .prop_map(
            |(
                (workers, gpus_per_worker, models, duration_secs, slo_ms, workload, hostile, seed),
                faults,
            )| {
                let mut spec = ScenarioSpec::smoke(seed);
                spec.name = "fuzz".to_string();
                spec.workers = workers;
                spec.gpus_per_worker = gpus_per_worker;
                spec.models = models;
                spec.duration_secs = duration_secs;
                spec.slo_ms = slo_ms;
                spec.workload = workload;
                spec.variance = if hostile {
                    VarianceConfig::hostile()
                } else {
                    VarianceConfig::none()
                };
                spec.faults = faults;
                spec
            },
        )
}

proptest! {
    // Each case runs 5 disciplines x 2 same-seed replays of a 1-2 virtual
    // second scenario; 32 cases keeps the suite meaningful and CI-fast.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_discipline_upholds_universal_invariants(spec in spec()) {
        let mut registry = SchedulerRegistry::builtin();
        registry.register(Box::new(ClockworkNoBatchFactory::default()));
        register_baselines(&mut registry);

        let experiment = Experiment::new(spec.clone());
        for factory in registry.iter() {
            let label = format!("fuzz/{}", factory.name());
            let report = experiment.run(factory);
            prop_assert!(
                bench::invariants::check_run(&label, &report, &spec),
                "[{}] invariant violation; minimized repro spec:\n{}",
                label,
                spec.to_json()
            );
            let rerun = experiment.run(factory);
            prop_assert!(
                bench::invariants::check_determinism(&label, &report.outcome(), &rerun.outcome()),
                "[{}] nondeterminism; minimized repro spec:\n{}",
                label,
                spec.to_json()
            );
        }
    }

    #[test]
    fn every_generated_spec_round_trips_through_json(spec in spec()) {
        let json = spec.to_json();
        let parsed = ScenarioSpec::from_json(&json).expect("generated spec must parse");
        prop_assert_eq!(
            parsed.to_json(),
            json,
            "JSON round-trip not a fixed point for spec:\n{}",
            spec.to_json()
        );
    }
}
