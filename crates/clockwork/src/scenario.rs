//! Declarative experiment scenarios.
//!
//! A [`ScenarioSpec`] is pure data: cluster shape, model population, workload
//! source (including the Azure-derived MAF-like load), SLO, fault plan,
//! seeds and horizon. It says *what* to run; it deliberately does not say
//! *which discipline* runs it — the discipline arrives separately as a
//! [`SchedulerFactory`], which is what lets one spec drive the paper's
//! headline comparison (the same chaos scenario across Clockwork, FIFO,
//! Clipper and INFaaS).
//!
//! Specs are plain-old data with a JSON form ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::from_json`], through [`crate::json`]), so they can be
//! stored alongside results: a document that embeds its spec is a complete,
//! replayable description of the experiment that produced it.
//!
//! [`ServingSystem::from_spec`] builds the cluster (discipline injected);
//! [`Experiment`](crate::experiment::Experiment) owns the full
//! submit/run/drain loop on top.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use clockwork_controller::registry::SchedulerFactory;
use clockwork_faults::{FaultKind, FaultPlan};
use clockwork_model::zoo::ModelZoo;
use clockwork_model::{ModelId, ModelSpec};
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_sim::variance::VarianceConfig;
use clockwork_workload::{
    AzureTraceConfig, AzureTraceGenerator, OpenLoopClient, PopularityModel, RateProfile,
    ShapedWorkload, TierMix, Trace,
};

use crate::config::SystemConfig;
use crate::json::{self, Value};
use crate::system::ServingSystem;

/// Which model population a scenario registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSet {
    /// `models` instances cycling through the full Appendix A zoo — the
    /// heterogeneous population of the fleet-scale and Azure experiments.
    ZooCycle,
    /// `models` copies of ResNet50 — the homogeneous population of the
    /// Fig. 5 comparison.
    Resnet50Copies,
}

/// Where a scenario's requests come from.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// An Azure-Functions-like open-loop trace (`AzureTraceGenerator`):
    /// `functions` workloads with realistic popularity skew and burstiness
    /// mapped onto the scenario's models, at an aggregate `target_rate`
    /// requests/second.
    Azure {
        /// Number of function workloads mapped onto the models.
        functions: usize,
        /// Aggregate request rate in requests/second.
        target_rate: f64,
    },
    /// Independent open-loop Poisson clients, one per model.
    OpenLoop {
        /// Per-model request rate in requests/second.
        rate_per_model: f64,
    },
    /// Closed-loop clients, one per model, each keeping `concurrency`
    /// requests in flight (the §6.1 setup).
    ClosedLoop {
        /// Requests kept in flight per model.
        concurrency: u32,
    },
    /// A shaped open-loop workload ([`ShapedWorkload`]): Poisson arrivals at
    /// an aggregate `base_rate`, shaped over time by a [`RateProfile`]
    /// (diurnal cycles, flash crowds), spread over models by a
    /// [`PopularityModel`] (Zipf skew with drift) and split into SLO tiers
    /// by a [`TierMix`]. The workload zoo presets are all of this kind.
    Shaped {
        /// Baseline aggregate request rate in requests/second.
        base_rate: f64,
        /// How the rate evolves over the duration.
        profile: RateProfile,
        /// How requests spread across the model set.
        popularity: PopularityModel,
        /// Strict/best-effort client split.
        tiers: TierMix,
    },
}

/// A declarative, serializable experiment scenario.
///
/// Build one with a preset ([`ScenarioSpec::fleet_scale`],
/// [`ScenarioSpec::chaos_fleet`], [`ScenarioSpec::smoke`]) or field by
/// field, then hand it to [`Experiment`](crate::experiment::Experiment)
/// together with any registered discipline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name, used in experiment output and result files.
    pub name: String,
    /// Number of worker machines.
    pub workers: u32,
    /// GPUs per worker.
    pub gpus_per_worker: u32,
    /// Model instances registered (see [`ScenarioSpec::model_set`]).
    pub models: usize,
    /// Which model population to register.
    pub model_set: ModelSet,
    /// Where requests come from.
    pub workload: WorkloadSpec,
    /// Per-request latency SLO in milliseconds.
    pub slo_ms: u64,
    /// Virtual duration of the workload in seconds.
    pub duration_secs: u64,
    /// Extra virtual time after the workload ends for in-flight tails to
    /// resolve.
    pub drain_secs: u64,
    /// System seed (workers and their variance).
    pub seed: u64,
    /// Workload-generation seed (kept separate so a workload can be replayed
    /// against differently-seeded clusters; presets set both equal).
    pub workload_seed: u64,
    /// External interference profile applied to every worker
    /// (`VarianceConfig::none()` for the deterministic-baseline scenarios).
    pub variance: VarianceConfig,
    /// Keep every individual response in memory (disable for large traces).
    pub keep_responses: bool,
    /// Scheduled fleet faults (empty for fault-free runs).
    pub faults: FaultPlan,
    /// Record request-lifecycle trace spans (admission, batch formation,
    /// LOAD/INFER issue and completion, terminal outcomes). Off by default:
    /// the no-op tracer compiles away and the run is byte-identical to an
    /// untraced one — presets all ship with `trace: false` so goldens never
    /// move. Enable with [`ScenarioSpec::with_trace`].
    pub trace: bool,
    /// Span retention when `trace` is on: the wired
    /// [`RingTracer`](clockwork_metrics::RingTracer) keeps at most this many
    /// spans, dropping oldest first and counting every drop. Ignored while
    /// `trace` is off.
    pub trace_capacity: usize,
}

/// Default span retention of a traced scenario (~2 M spans; a traced
/// 10-second smoke emits well under half that, so smokes never wrap).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 21;

impl ScenarioSpec {
    /// The fleet-scale scenario shared by the benchmark's `fleet_steady`
    /// workload and the `grid chaos`, `grid batch` and `trace_blame`
    /// harnesses: 20 workers × 4 GPUs, 200 model instances cycling through
    /// the Appendix A zoo, and an open-loop Azure-derived trace at 1 500 r/s
    /// for 120 virtual seconds.
    pub fn fleet_scale() -> Self {
        ScenarioSpec {
            name: "fleet_scale".to_string(),
            workers: 20,
            gpus_per_worker: 4,
            models: 200,
            model_set: ModelSet::ZooCycle,
            workload: WorkloadSpec::Azure {
                functions: 800,
                target_rate: 1_500.0,
            },
            slo_ms: 100,
            duration_secs: 120,
            drain_secs: 2,
            seed: 2020,
            workload_seed: 2020,
            variance: VarianceConfig::none(),
            keep_responses: false,
            faults: FaultPlan::new(),
            trace: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// The fleet-scale scenario overlaid with the scripted churn schedule
    /// (see [`ScenarioSpec::scripted_churn`]); the chaos run differs from
    /// the perf run *only* by its fault plan.
    pub fn chaos_fleet() -> Self {
        let mut spec = ScenarioSpec::fleet_scale();
        spec.name = "chaos_fleet".to_string();
        spec.faults = spec.scripted_churn();
        spec
    }

    /// A small fleet for fast smoke and determinism tests: 4 workers ×
    /// 2 GPUs, 20 zoo models, a 10 s Azure-like trace at 400 r/s.
    pub fn smoke(seed: u64) -> Self {
        ScenarioSpec {
            name: "smoke".to_string(),
            workers: 4,
            gpus_per_worker: 2,
            models: 20,
            model_set: ModelSet::ZooCycle,
            workload: WorkloadSpec::Azure {
                functions: 80,
                target_rate: 400.0,
            },
            slo_ms: 100,
            duration_secs: 10,
            drain_secs: 2,
            seed,
            workload_seed: seed,
            variance: VarianceConfig::none(),
            keep_responses: false,
            faults: FaultPlan::new(),
            trace: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// The shared shell of the workload-zoo presets: a mid-sized fleet of
    /// 8 workers × 2 GPUs serving 40 zoo models for 60 virtual seconds at a
    /// 100 ms strict SLO, seed 2020. Each preset swaps in its own workload
    /// (and, for the churn preset, fault plan).
    fn zoo_base(name: &str, workload: WorkloadSpec) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            workers: 8,
            gpus_per_worker: 2,
            models: 40,
            model_set: ModelSet::ZooCycle,
            workload,
            slo_ms: 100,
            duration_secs: 60,
            drain_secs: 2,
            seed: 2020,
            workload_seed: 2020,
            variance: VarianceConfig::none(),
            keep_responses: false,
            faults: FaultPlan::new(),
            trace: false,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }

    /// Workload-zoo preset: a smooth day/night load cycle — the rate swings
    /// sinusoidally between 0.2× and 1.8× of 600 r/s over two full periods,
    /// so the run sees two troughs and two peaks.
    pub fn diurnal() -> Self {
        ScenarioSpec::zoo_base(
            "diurnal",
            WorkloadSpec::Shaped {
                base_rate: 600.0,
                profile: RateProfile::Diurnal {
                    amplitude: 0.8,
                    cycles: 2.0,
                },
                popularity: PopularityModel::Uniform,
                tiers: TierMix::ALL_STRICT,
            },
        )
    }

    /// Workload-zoo preset: a flash crowd — baseline 300 r/s with a 10×
    /// spike over `[40 %, 50 %)` of the run, on a tiered client population
    /// (60 % strict at the scenario SLO, 40 % best-effort at 250 ms). This
    /// is the graceful-degradation scenario: inside the spike the fleet is
    /// far over capacity and tier-aware admission must shed best-effort
    /// traffic first, keeping strict-tier retention at or above best-effort
    /// retention.
    pub fn flash_crowd() -> Self {
        ScenarioSpec::zoo_base(
            "flash_crowd",
            WorkloadSpec::Shaped {
                base_rate: 300.0,
                profile: RateProfile::FlashCrowd {
                    start_frac: 0.4,
                    len_frac: 0.1,
                    multiplier: 10.0,
                },
                popularity: PopularityModel::Uniform,
                tiers: TierMix {
                    strict_share_milli: 600,
                    best_effort_slo_ms: 250,
                },
            },
        )
    }

    /// Workload-zoo preset: heavy-tailed model popularity — Zipf with
    /// exponent 1.1 over the 40 models, with the ranking rotating one step
    /// every 10 seconds so the hot set drifts across the zoo over the run.
    pub fn zipf_drift() -> Self {
        ScenarioSpec::zoo_base(
            "zipf_drift",
            WorkloadSpec::Shaped {
                base_rate: 600.0,
                profile: RateProfile::Constant,
                popularity: PopularityModel::Zipf {
                    exponent_milli: 1100,
                    drift_segments: 10,
                },
                tiers: TierMix::ALL_STRICT,
            },
        )
    }

    /// Workload-zoo preset: multi-tenant SLO tiers — a flat uniform load
    /// split evenly between strict clients at the scenario's 100 ms SLO and
    /// best-effort clients at 250 ms, with no overload. Under nominal load
    /// both tiers should retain essentially everything; the preset exists to
    /// pin that tier-aware admission is inert without pressure.
    pub fn multi_tenant() -> Self {
        ScenarioSpec::zoo_base(
            "multi_tenant",
            WorkloadSpec::Shaped {
                base_rate: 600.0,
                profile: RateProfile::Constant,
                popularity: PopularityModel::Uniform,
                tiers: TierMix {
                    strict_share_milli: 500,
                    best_effort_slo_ms: 250,
                },
            },
        )
    }

    /// Workload-zoo preset: autoscale under churn — the Azure-derived trace
    /// at 700 r/s while the fleet both grows and breaks: two brand-new cold
    /// workers join at indices beyond the initial fleet, interleaved with
    /// two worker crashes and a GPU failure, all recovered by 70 % of the
    /// run.
    pub fn autoscale_churn() -> Self {
        let mut spec = ScenarioSpec::zoo_base(
            "autoscale_churn",
            WorkloadSpec::Azure {
                functions: 160,
                target_rate: 700.0,
            },
        );
        spec.faults = spec.elastic_churn();
        spec
    }

    /// The autoscale-under-churn schedule, scaled to the scenario duration
    /// (see [`ScenarioSpec::autoscale_churn`]): two cold workers join at
    /// indices beyond the current fleet size, interleaved with two worker
    /// crashes and a GPU failure, everything recovered by 70 % of the run.
    /// Like [`ScenarioSpec::scripted_churn`], call this *after* any duration
    /// change so the plan scales with it.
    pub fn elastic_churn(&self) -> FaultPlan {
        let span = self.duration_secs as f64 * 1e9;
        let at = |f: f64| Timestamp::from_nanos((f * span) as u64);
        let lasting = |f: f64| Nanos::from_nanos((f * span) as u64);
        let worker = |i: u32| i % self.workers.max(1);
        FaultPlan::new()
            .join_worker(at(0.15), self.workers)
            .crash_worker_for(at(0.25), worker(2), lasting(0.20))
            .fail_gpu_for(
                at(0.35),
                worker(1),
                1 % self.gpus_per_worker.max(1),
                lasting(0.20),
            )
            .join_worker(at(0.40), self.workers + 1)
            .crash_worker_for(at(0.50), worker(5), lasting(0.20))
    }

    /// Workload-zoo preset: a correlated rack outage — the Azure-derived
    /// trace at 700 r/s while a three-machine rack (workers 2–4 of the
    /// 8-worker zoo fleet) loses power as one at 30 % of the run, restarts
    /// cold 20 % later, and resyncs over a 4× degraded shared uplink. The
    /// correlated-failure counterpart of `autoscale_churn`'s independent
    /// faults: three simultaneous crashes remove 3/8 of capacity in one
    /// instant instead of spreading the damage out.
    pub fn rack_outage() -> Self {
        let mut spec = ScenarioSpec::zoo_base(
            "rack_outage",
            WorkloadSpec::Azure {
                functions: 160,
                target_rate: 700.0,
            },
        );
        spec.faults = spec.rack_churn();
        spec
    }

    /// The rack-outage schedule, scaled to the scenario duration (see
    /// [`ScenarioSpec::rack_outage`]): workers 2–4 (mod fleet size) crash
    /// simultaneously at 30 % of the run for 20 % of it, then resync over a
    /// 4× degraded link for another 10 %. Like
    /// [`ScenarioSpec::scripted_churn`], call this *after* any duration
    /// change so the plan scales with it.
    pub fn rack_churn(&self) -> FaultPlan {
        let span = self.duration_secs as f64 * 1e9;
        let at = |f: f64| Timestamp::from_nanos((f * span) as u64);
        let lasting = |f: f64| Nanos::from_nanos((f * span) as u64);
        let n = self.workers.max(1);
        let rack: Vec<u32> = (2..5).map(|i| i % n).collect();
        FaultPlan::new().rack_failure(at(0.30), &rack, 4.0, lasting(0.20))
    }

    /// The duration-scaled fault plan belonging to a zoo preset, dispatched
    /// by preset name — the regeneration hook harnesses use after shortening
    /// a preset (`grid scenarios --duration-secs`, the zoo-matrix tests):
    /// `autoscale_churn` regenerates its elastic churn, `rack_outage` its
    /// rack failure, every other preset is fault-free.
    pub fn zoo_faults(&self) -> FaultPlan {
        match self.name.as_str() {
            "autoscale_churn" => self.elastic_churn(),
            "rack_outage" => self.rack_churn(),
            _ => FaultPlan::new(),
        }
    }

    /// Every workload-zoo preset, in a stable order — the scenario matrix
    /// iterates this against every registered discipline.
    pub fn zoo() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::diurnal(),
            ScenarioSpec::flash_crowd(),
            ScenarioSpec::zipf_drift(),
            ScenarioSpec::multi_tenant(),
            ScenarioSpec::autoscale_churn(),
            ScenarioSpec::rack_outage(),
        ]
    }

    /// Renames the scenario (builder style).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets both the system and workload seed (builder style) — the usual
    /// meaning of an experiment's `--seed` flag.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.workload_seed = seed;
        self
    }

    /// Scales the scenario duration (builder style). Call *before*
    /// generating a churn plan so the plan scales with it.
    pub fn with_duration_secs(mut self, duration_secs: u64) -> Self {
        self.duration_secs = duration_secs;
        self
    }

    /// Installs a fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Turns request-lifecycle tracing on or off (builder style). A traced
    /// run wires a bounded ring tracer (capacity
    /// [`ScenarioSpec::trace_capacity`]) whose JSONL export and digest are
    /// reachable through
    /// [`RunReport::trace`](crate::experiment::RunReport::trace).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the traced-run span retention (builder style); implies nothing
    /// about [`ScenarioSpec::trace`] itself.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Scales the offered load by `multiplier` (builder style): the Azure
    /// aggregate target rate, the open-loop per-model rate, or the
    /// closed-loop client count (rounded, floored at 1). This is the knob
    /// behind load sweeps — the workload *shape* (trace mixture, model
    /// popularity, seeds) is untouched, only its intensity moves.
    pub fn with_rate_multiplier(mut self, multiplier: f64) -> Self {
        match &mut self.workload {
            WorkloadSpec::Azure { target_rate, .. } => *target_rate *= multiplier,
            WorkloadSpec::OpenLoop { rate_per_model } => *rate_per_model *= multiplier,
            WorkloadSpec::ClosedLoop { concurrency } => {
                *concurrency = (((*concurrency as f64) * multiplier).round() as u32).max(1);
            }
            WorkloadSpec::Shaped { base_rate, .. } => *base_rate *= multiplier,
        }
        self
    }

    /// The scripted churn schedule, scaled to the scenario duration: two
    /// worker crashes, four extra GPU failures, one partition window and one
    /// degraded link, all recovered by 60 % of the run so the tail measures
    /// recovery.
    pub fn scripted_churn(&self) -> FaultPlan {
        let span = self.duration_secs as f64 * 1e9;
        let at = |f: f64| Timestamp::from_nanos((f * span) as u64);
        let lasting = |f: f64| Nanos::from_nanos((f * span) as u64);
        let worker = |i: u32| i % self.workers.max(1);
        let gpu = |g: u32| g % self.gpus_per_worker.max(1);
        FaultPlan::new()
            .crash_worker_for(at(0.20), worker(3), lasting(0.30))
            .crash_worker_for(at(0.25), worker(11), lasting(0.30))
            .fail_gpu_for(at(0.30), worker(0), gpu(1), lasting(0.30))
            .fail_gpu_for(at(0.32), worker(5), gpu(2), lasting(0.26))
            .fail_gpu_for(at(0.34), worker(8), gpu(0), lasting(0.24))
            .fail_gpu_for(at(0.36), worker(14), gpu(3), lasting(0.22))
            .partition(at(0.35), worker(7), lasting(0.10))
            .degrade_link_for(at(0.40), worker(16), 4.0, lasting(0.15))
    }

    /// The workload duration in virtual time.
    pub fn duration(&self) -> Nanos {
        Nanos::from_secs(self.duration_secs)
    }

    /// The virtual horizon a run is driven to: the workload duration plus
    /// the drain slack.
    pub fn horizon(&self) -> Timestamp {
        Timestamp::ZERO + self.duration() + Nanos::from_secs(self.drain_secs)
    }

    /// The SLO in virtual time.
    pub fn slo(&self) -> Nanos {
        Nanos::from_millis(self.slo_ms)
    }

    /// Generates the full up-front trace of any pre-generated workload:
    /// [`WorkloadSpec::Azure`] and [`WorkloadSpec::Shaped`] scenarios
    /// produce their whole trace here (a pure function of the spec).
    /// Open-loop and closed-loop scenarios return `None`: an open-loop
    /// scenario's requests are drawn by [`ScenarioSpec::arrivals`], one
    /// client per model, and closed-loop clients generate theirs inside the
    /// run.
    pub fn generated_trace(&self) -> Option<Trace> {
        match self.workload {
            WorkloadSpec::Azure {
                functions,
                target_rate,
            } => Some(
                AzureTraceGenerator::new(AzureTraceConfig {
                    functions,
                    models: self.models,
                    duration: self.duration(),
                    target_rate,
                    slo: self.slo(),
                    seed: self.workload_seed,
                })
                .generate(),
            ),
            WorkloadSpec::Shaped {
                base_rate,
                profile,
                popularity,
                tiers,
            } => {
                let models: Vec<ModelId> = (0..self.models as u32).map(ModelId).collect();
                let shape = ShapedWorkload {
                    base_rate,
                    profile,
                    popularity,
                    tiers,
                };
                Some(shape.generate(
                    &models,
                    self.slo(),
                    self.duration(),
                    &SimRng::seeded(self.workload_seed),
                ))
            }
            WorkloadSpec::OpenLoop { .. } | WorkloadSpec::ClosedLoop { .. } => None,
        }
    }

    /// Every arrival of the whole model population, as
    /// [`Experiment::run`](crate::experiment::Experiment::run) submits them:
    /// the pre-generated trace, or one open-loop client per model. Closed-loop
    /// scenarios return an empty trace; their clients generate their load
    /// inside the run.
    pub fn arrivals(&self) -> Trace {
        match self.workload {
            WorkloadSpec::OpenLoop { rate_per_model } => {
                let models: Vec<ModelId> = (0..self.models as u32).map(ModelId).collect();
                OpenLoopClient::generate_many(
                    &models,
                    rate_per_model,
                    self.slo(),
                    self.duration(),
                    &mut SimRng::seeded(self.workload_seed),
                )
            }
            _ => self.generated_trace().unwrap_or_default(),
        }
    }

    /// Serializes the spec to a self-contained JSON document —
    /// [`ScenarioSpec::from_json`] inverts it exactly. Stored alongside
    /// results, the document is a complete, replayable description of the
    /// experiment that produced them; on invariant violations the fuzz
    /// harness writes the offending spec through this so failures arrive
    /// with their minimized repro attached.
    pub fn to_json(&self) -> String {
        spec_value(self).to_compact()
    }

    /// Parses a spec previously written by [`ScenarioSpec::to_json`]. Any
    /// field order is accepted; a missing, mistyped or unknown-variant field
    /// is an error naming it, and so is an Azure workload over more than
    /// [`AzureTraceConfig::MAX_MODELS`] models.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, String> {
        spec_from_value(&json::parse(text)?)
    }

    /// The cluster configuration this spec describes.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            workers: self.workers,
            gpus_per_worker: self.gpus_per_worker,
            variance: self.variance,
            keep_responses: self.keep_responses,
            faults: self.faults.clone(),
            trace_capacity: self.trace.then_some(self.trace_capacity),
            seed: self.seed,
            ..SystemConfig::default()
        }
    }
}

impl ServingSystem {
    /// Builds the cluster a [`ScenarioSpec`] describes, driven by the given
    /// discipline, with the scenario's model population registered and its
    /// fault plan installed. The caller (usually
    /// [`Experiment`](crate::experiment::Experiment)) submits the workload.
    pub fn from_spec(spec: &ScenarioSpec, factory: &dyn SchedulerFactory) -> ServingSystem {
        ServingSystem::with_population(spec, factory, 0..spec.models as u32)
    }

    /// [`ServingSystem::from_spec`] for a system that owns only part of the
    /// scenario's model population: registers the models with the given
    /// global indices, in the order given, so the `i`-th becomes local
    /// model `i`.
    pub fn with_population(
        spec: &ScenarioSpec,
        factory: &dyn SchedulerFactory,
        population: impl IntoIterator<Item = u32>,
    ) -> ServingSystem {
        let mut system = ServingSystem::with_factory(spec.system_config(), factory);
        let zoo = ModelZoo::new();
        // Every instance of a variety shares the variety's one spec.
        let varieties: Vec<Arc<ModelSpec>> = match spec.model_set {
            ModelSet::ZooCycle => zoo.all().iter().cloned().map(Arc::new).collect(),
            ModelSet::Resnet50Copies => vec![Arc::new(zoo.resnet50().clone())],
        };
        system.register_shared(
            population
                .into_iter()
                .map(|global| Arc::clone(&varieties[global as usize % varieties.len()])),
        );
        system
    }
}

// The spec's JSON form: `spec_value` writes the members in a fixed order,
// `spec_from_value` reads them in any order. Durations and timestamps are
// integer nanoseconds.

fn spec_value(spec: &ScenarioSpec) -> Value {
    let model_set = match spec.model_set {
        ModelSet::ZooCycle => "zoo_cycle",
        ModelSet::Resnet50Copies => "resnet50_copies",
    };
    let v = &spec.variance;
    let throttle = v
        .throttle_mean_interval
        .map_or(Value::Null, |interval| interval.as_nanos().into());
    let variance = Value::obj([
        ("spike_probability", v.spike_probability.into()),
        ("max_spike_ns", v.max_spike.as_nanos().into()),
        ("throttle_mean_interval_ns", throttle),
        (
            "throttle_duration_ns",
            v.throttle_duration.as_nanos().into(),
        ),
        ("throttle_factor", v.throttle_factor.into()),
    ]);
    let faults = spec.faults.events().iter();
    let faults = faults.map(|e| fault_value(e.at, &e.kind)).collect();
    Value::obj([
        ("name", spec.name.as_str().into()),
        ("workers", spec.workers.into()),
        ("gpus_per_worker", spec.gpus_per_worker.into()),
        ("models", spec.models.into()),
        ("model_set", model_set.into()),
        ("workload", workload_value(&spec.workload)),
        ("slo_ms", spec.slo_ms.into()),
        ("duration_secs", spec.duration_secs.into()),
        ("drain_secs", spec.drain_secs.into()),
        ("seed", spec.seed.into()),
        ("workload_seed", spec.workload_seed.into()),
        ("variance", variance),
        ("keep_responses", spec.keep_responses.into()),
        ("faults", faults),
        ("trace", spec.trace.into()),
        ("trace_capacity", spec.trace_capacity.into()),
    ])
}

fn workload_value(workload: &WorkloadSpec) -> Value {
    let kind = |name: &str| ("kind", Value::from(name));
    match *workload {
        WorkloadSpec::Azure {
            functions,
            target_rate,
        } => Value::obj([
            kind("azure"),
            ("functions", functions.into()),
            ("target_rate", target_rate.into()),
        ]),
        WorkloadSpec::OpenLoop { rate_per_model } => {
            Value::obj([kind("open_loop"), ("rate_per_model", rate_per_model.into())])
        }
        WorkloadSpec::ClosedLoop { concurrency } => {
            Value::obj([kind("closed_loop"), ("concurrency", concurrency.into())])
        }
        WorkloadSpec::Shaped {
            base_rate,
            profile,
            popularity,
            tiers,
        } => {
            let profile = match profile {
                RateProfile::Constant => Value::obj([kind("constant")]),
                RateProfile::Diurnal { amplitude, cycles } => Value::obj([
                    kind("diurnal"),
                    ("amplitude", amplitude.into()),
                    ("cycles", cycles.into()),
                ]),
                RateProfile::FlashCrowd {
                    start_frac,
                    len_frac,
                    multiplier,
                } => Value::obj([
                    kind("flash_crowd"),
                    ("start_frac", start_frac.into()),
                    ("len_frac", len_frac.into()),
                    ("multiplier", multiplier.into()),
                ]),
            };
            let popularity = match popularity {
                PopularityModel::Uniform => Value::obj([kind("uniform")]),
                PopularityModel::Zipf {
                    exponent_milli,
                    drift_segments,
                } => Value::obj([
                    kind("zipf"),
                    ("exponent_milli", exponent_milli.into()),
                    ("drift_segments", drift_segments.into()),
                ]),
            };
            let tiers = Value::obj([
                ("strict_share_milli", tiers.strict_share_milli.into()),
                ("best_effort_slo_ms", tiers.best_effort_slo_ms.into()),
            ]);
            Value::obj([
                kind("shaped"),
                ("base_rate", base_rate.into()),
                ("profile", profile),
                ("popularity", popularity),
                ("tiers", tiers),
            ])
        }
    }
}

fn fault_value(at: Timestamp, kind: &FaultKind) -> Value {
    let mut members = vec![
        ("at_ns", at.as_nanos().into()),
        ("kind", kind.label().into()),
        ("worker", kind.worker().into()),
    ];
    match *kind {
        FaultKind::GpuFail { gpu, .. } | FaultKind::GpuRecover { gpu, .. } => {
            members.push(("gpu", gpu.into()));
        }
        FaultKind::LinkDegrade { factor_milli, .. } => {
            members.push(("factor_milli", factor_milli.into()));
        }
        _ => {}
    }
    Value::obj(members)
}

fn u64_of(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)?.as_u64(key)
}

fn f64_of(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)?.as_f64(key)
}

fn workload_from_value(v: &Value) -> Result<WorkloadSpec, String> {
    match v.get("kind")?.as_str("workload.kind")? {
        "azure" => Ok(WorkloadSpec::Azure {
            functions: u64_of(v, "functions")? as usize,
            target_rate: f64_of(v, "target_rate")?,
        }),
        "open_loop" => Ok(WorkloadSpec::OpenLoop {
            rate_per_model: f64_of(v, "rate_per_model")?,
        }),
        "closed_loop" => Ok(WorkloadSpec::ClosedLoop {
            concurrency: u64_of(v, "concurrency")? as u32,
        }),
        "shaped" => {
            let profile = v.get("profile")?;
            let profile = match profile.get("kind")?.as_str("profile.kind")? {
                "constant" => RateProfile::Constant,
                "diurnal" => RateProfile::Diurnal {
                    amplitude: f64_of(profile, "amplitude")?,
                    cycles: f64_of(profile, "cycles")?,
                },
                "flash_crowd" => RateProfile::FlashCrowd {
                    start_frac: f64_of(profile, "start_frac")?,
                    len_frac: f64_of(profile, "len_frac")?,
                    multiplier: f64_of(profile, "multiplier")?,
                },
                other => return Err(format!("unknown rate profile `{other}`")),
            };
            let popularity = v.get("popularity")?;
            let popularity = match popularity.get("kind")?.as_str("popularity.kind")? {
                "uniform" => PopularityModel::Uniform,
                "zipf" => PopularityModel::Zipf {
                    exponent_milli: u64_of(popularity, "exponent_milli")? as u32,
                    drift_segments: u64_of(popularity, "drift_segments")? as u32,
                },
                other => return Err(format!("unknown popularity model `{other}`")),
            };
            let tiers = v.get("tiers")?;
            Ok(WorkloadSpec::Shaped {
                base_rate: f64_of(v, "base_rate")?,
                profile,
                popularity,
                tiers: TierMix {
                    strict_share_milli: u64_of(tiers, "strict_share_milli")? as u32,
                    best_effort_slo_ms: u64_of(tiers, "best_effort_slo_ms")?,
                },
            })
        }
        other => Err(format!("unknown workload kind `{other}`")),
    }
}

fn fault_from_value(v: &Value) -> Result<(Timestamp, FaultKind), String> {
    let at = Timestamp::from_nanos(u64_of(v, "at_ns")?);
    let worker = u64_of(v, "worker")? as u32;
    let kind = match v.get("kind")?.as_str("fault.kind")? {
        "gpu_fail" => FaultKind::GpuFail {
            worker,
            gpu: u64_of(v, "gpu")? as u32,
        },
        "gpu_recover" => FaultKind::GpuRecover {
            worker,
            gpu: u64_of(v, "gpu")? as u32,
        },
        "worker_crash" => FaultKind::WorkerCrash { worker },
        "worker_restart" => FaultKind::WorkerRestart { worker },
        "link_degrade" => FaultKind::LinkDegrade {
            worker,
            factor_milli: u64_of(v, "factor_milli")? as u32,
        },
        "link_restore" => FaultKind::LinkRestore { worker },
        "partition_start" => FaultKind::PartitionStart { worker },
        "partition_end" => FaultKind::PartitionEnd { worker },
        "worker_join" => FaultKind::WorkerJoin { worker },
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok((at, kind))
}

fn spec_from_value(root: &Value) -> Result<ScenarioSpec, String> {
    let variance = root.get("variance")?;
    let throttle = match variance.get("throttle_mean_interval_ns")? {
        Value::Null => None,
        v => Some(Nanos::from_nanos(v.as_u64("throttle_mean_interval_ns")?)),
    };
    let mut faults = FaultPlan::new();
    for item in root.get("faults")?.as_arr("faults")? {
        let (at, kind) = fault_from_value(item)?;
        faults.push(at, kind);
    }
    let spec = ScenarioSpec {
        name: root.get("name")?.as_str("name")?.to_string(),
        workers: u64_of(root, "workers")? as u32,
        gpus_per_worker: u64_of(root, "gpus_per_worker")? as u32,
        models: u64_of(root, "models")? as usize,
        model_set: match root.get("model_set")?.as_str("model_set")? {
            "zoo_cycle" => ModelSet::ZooCycle,
            "resnet50_copies" => ModelSet::Resnet50Copies,
            other => return Err(format!("unknown model set `{other}`")),
        },
        workload: workload_from_value(root.get("workload")?)?,
        slo_ms: u64_of(root, "slo_ms")?,
        duration_secs: u64_of(root, "duration_secs")?,
        drain_secs: u64_of(root, "drain_secs")?,
        seed: u64_of(root, "seed")?,
        workload_seed: u64_of(root, "workload_seed")?,
        variance: VarianceConfig {
            spike_probability: f64_of(variance, "spike_probability")?,
            max_spike: Nanos::from_nanos(u64_of(variance, "max_spike_ns")?),
            throttle_mean_interval: throttle,
            throttle_duration: Nanos::from_nanos(u64_of(variance, "throttle_duration_ns")?),
            throttle_factor: f64_of(variance, "throttle_factor")?,
        },
        keep_responses: root.get("keep_responses")?.as_bool("keep_responses")?,
        faults,
        trace: root.get("trace")?.as_bool("trace")?,
        trace_capacity: u64_of(root, "trace_capacity")? as usize,
    };
    if matches!(spec.workload, WorkloadSpec::Azure { .. })
        && spec.models > AzureTraceConfig::MAX_MODELS
    {
        return Err(format!(
            "`models`: an Azure workload targets at most {} models, not {}",
            AzureTraceConfig::MAX_MODELS,
            spec.models
        ));
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_controller::registry::ClockworkFactory;

    #[test]
    fn fleet_preset_matches_the_published_scenario() {
        let spec = ScenarioSpec::fleet_scale();
        assert_eq!(spec.workers, 20);
        assert_eq!(spec.gpus_per_worker, 4);
        assert_eq!(spec.models, 200);
        assert_eq!(spec.slo_ms, 100);
        assert_eq!(spec.seed, 2020);
        assert!(spec.faults.is_empty());
        assert_eq!(spec.horizon(), Timestamp::from_secs(122));
    }

    #[test]
    fn chaos_preset_is_fleet_plus_scripted_churn_only() {
        let chaos = ScenarioSpec::chaos_fleet();
        let fleet = ScenarioSpec::fleet_scale()
            .named("chaos_fleet")
            .with_faults(chaos.scripted_churn());
        assert_eq!(chaos, fleet, "chaos differs from fleet only by faults");
        assert_eq!(chaos.faults.worker_crashes(), 2);
        assert_eq!(chaos.faults.gpu_failures(), 4);
        assert_eq!(chaos.faults.partitions(), 1);
        assert_eq!(chaos.faults.link_degradations(), 1);
    }

    #[test]
    fn churn_scales_with_duration() {
        let short = ScenarioSpec::fleet_scale().with_duration_secs(10);
        let plan = short.scripted_churn();
        assert_eq!(plan.first_at(), Some(Timestamp::from_secs(2)));
        assert!(plan.last_at().unwrap() <= Timestamp::from_secs(10));
    }

    #[test]
    fn azure_traces_are_deterministic_functions_of_the_spec() {
        let spec = ScenarioSpec::smoke(7);
        let a = spec.generated_trace().expect("azure workload");
        let b = spec.generated_trace().expect("azure workload");
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
    }

    #[test]
    fn tracing_knobs_flow_into_the_system_config() {
        let off = ScenarioSpec::smoke(3);
        assert!(!off.trace, "presets ship untraced");
        assert_eq!(off.system_config().trace_capacity, None);
        let on = ScenarioSpec::smoke(3)
            .with_trace(true)
            .with_trace_capacity(512);
        assert_eq!(on.system_config().trace_capacity, Some(512));
    }

    #[test]
    fn zoo_presets_cover_the_advertised_diversity() {
        let zoo = ScenarioSpec::zoo();
        assert_eq!(zoo.len(), 6);
        let names: Vec<&str> = zoo.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "diurnal",
                "flash_crowd",
                "zipf_drift",
                "multi_tenant",
                "autoscale_churn",
                "rack_outage"
            ]
        );
        for spec in &zoo {
            assert_eq!(spec.seed, 2020, "{}: presets share the seed", spec.name);
            assert!(!spec.trace, "{}: presets ship untraced", spec.name);
        }
        // The flash crowd is the tiered overload scenario.
        let flash = &zoo[1];
        match flash.workload {
            WorkloadSpec::Shaped { profile, tiers, .. } => {
                assert!(matches!(
                    profile,
                    RateProfile::FlashCrowd { multiplier, .. } if multiplier == 10.0
                ));
                assert!(tiers.is_tiered());
            }
            ref other => panic!("flash_crowd should be shaped, got {other:?}"),
        }
        // The churn preset joins workers beyond the initial fleet while
        // crashing existing ones.
        let churn = &zoo[4];
        assert_eq!(churn.faults.worker_joins(), 2);
        assert_eq!(churn.faults.worker_crashes(), 2);
        assert_eq!(churn.faults.gpu_failures(), 1);
        // The rack preset is the correlated-failure scenario: three workers
        // crash at the same instant and resync over degraded links.
        let rack = &zoo[5];
        assert_eq!(rack.faults.worker_crashes(), 3);
        assert_eq!(rack.faults.link_degradations(), 3);
        let crash_times: Vec<Timestamp> = rack
            .faults
            .events()
            .iter()
            .filter_map(|e| {
                matches!(e.kind, clockwork_faults::FaultKind::WorkerCrash { .. }).then_some(e.at)
            })
            .collect();
        assert_eq!(crash_times.len(), 3);
        assert!(
            crash_times.windows(2).all(|w| w[0] == w[1]),
            "the rack dies as one"
        );
        // zoo_faults re-derives each preset's plan, scaled to duration.
        for spec in &zoo {
            assert_eq!(
                spec.zoo_faults(),
                spec.faults,
                "{}: plan mismatch",
                spec.name
            );
            let short = spec.clone().with_duration_secs(6);
            if let Some(last) = short.zoo_faults().last_at() {
                assert!(last <= short.horizon(), "{}: scaled plan fits", spec.name);
            }
        }
    }

    #[test]
    fn shaped_scenarios_generate_their_traces() {
        for spec in ScenarioSpec::zoo() {
            let spec = spec.with_duration_secs(5);
            let trace = spec.generated_trace().expect("zoo workloads pre-generate");
            assert!(!trace.is_empty(), "{}", spec.name);
            let again = spec.generated_trace().unwrap();
            assert_eq!(trace, again, "{}: trace is a pure function", spec.name);
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        let mut all = ScenarioSpec::zoo();
        all.push(ScenarioSpec::fleet_scale());
        all.push(ScenarioSpec::chaos_fleet());
        all.push(ScenarioSpec::smoke(7));
        all.push(
            ScenarioSpec::smoke(9)
                .named("hostile \"quoted\"\nname")
                .with_trace(true),
        );
        let mut hostile = ScenarioSpec::smoke(11);
        hostile.variance = VarianceConfig::hostile();
        hostile.workload = WorkloadSpec::OpenLoop {
            rate_per_model: 12.5,
        };
        all.push(hostile);
        let mut closed = ScenarioSpec::smoke(13);
        closed.workload = WorkloadSpec::ClosedLoop { concurrency: 4 };
        all.push(closed);
        for spec in all {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{}: {e}\n{json}", spec.name));
            assert_eq!(spec, back, "{} round-trips", spec.name);
        }
    }

    #[test]
    fn malformed_spec_json_is_rejected_not_defaulted() {
        assert!(ScenarioSpec::from_json("").is_err());
        assert!(ScenarioSpec::from_json("{}").is_err());
        assert!(ScenarioSpec::from_json("not json").is_err());
        let good = ScenarioSpec::flash_crowd().to_json();
        assert!(ScenarioSpec::from_json(&good[..good.len() - 1]).is_err());
        let tampered = good.replace("\"flash_crowd\"", "\"no_such_profile\"");
        assert!(ScenarioSpec::from_json(&tampered).is_err());
        let trailing = format!("{good} extra");
        assert!(ScenarioSpec::from_json(&trailing).is_err());
    }

    /// An Azure population whose ids do not fit the generator's arrival
    /// keys is an input error naming the field, not a panic at generation.
    #[test]
    fn an_azure_population_beyond_the_key_budget_is_rejected() {
        let with_models = |models| {
            ScenarioSpec {
                models,
                ..ScenarioSpec::smoke(7)
            }
            .to_json()
        };
        let most = AzureTraceConfig::MAX_MODELS;
        assert!(ScenarioSpec::from_json(&with_models(most)).is_ok());
        let err = ScenarioSpec::from_json(&with_models(most + 1)).unwrap_err();
        assert!(err.starts_with("`models`:"), "{err}");
        // Other workloads draw no Azure keys.
        let open = ScenarioSpec {
            models: most + 1,
            workload: WorkloadSpec::OpenLoop {
                rate_per_model: 1.0,
            },
            ..ScenarioSpec::smoke(7)
        };
        assert!(ScenarioSpec::from_json(&open.to_json()).is_ok());
    }

    #[test]
    fn rate_multiplier_scales_shaped_workloads() {
        let spec = ScenarioSpec::flash_crowd().with_rate_multiplier(2.0);
        match spec.workload {
            WorkloadSpec::Shaped { base_rate, .. } => assert_eq!(base_rate, 600.0),
            ref other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    fn from_spec_builds_the_described_cluster() {
        let spec = ScenarioSpec {
            workers: 2,
            gpus_per_worker: 1,
            models: 4,
            ..ScenarioSpec::smoke(3)
        };
        let system = ServingSystem::from_spec(&spec, &ClockworkFactory::default());
        assert_eq!(system.config().workers, 2);
        assert_eq!(system.config().gpus_per_worker, 1);
        assert_eq!(system.scheduler_name(), "clockwork");
    }
}
