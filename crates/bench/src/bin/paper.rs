//! The paper's evaluation (§6 and Appendix A), one figure per argument.
//!
//! ```text
//! cargo run --release -p bench --bin paper -- [FIGURE...]
//! ```
//!
//! Prints the CSV rows of each named figure, and of all of them in the order
//! of [`FIGURES`] when given none. Every serving run is built from a
//! [`ScenarioSpec`] and held to [`bench::invariants`]: a violation goes to
//! stderr, so stdout stays the figure, and the exit status is 1. An unknown
//! figure name prints the usage and exits 2. The substrate is simulated, so
//! absolute rates differ from the paper's; the shapes are what reproduce.

use std::collections::HashMap;
use std::time::Instant;

use bench::invariants;
use clockwork::prelude::*;
use clockwork_baselines::register_baselines;
use clockwork_controller::RejectReason;
use clockwork_metrics::percentile::percentile_f64;
use clockwork_metrics::LatencyHistogram;
use clockwork_sim::gpu::{GpuSpec, GpuTimingModel};
use clockwork_sim::pcie::PcieLink;
use clockwork_worker::GpuId;

const USAGE: &str =
    "paper [FIGURE...], FIGURE one of: fig2 fig5 fig6 fig7 fig8 fig9 table1 table_scale ablation";

/// A figure: prints its rows and returns whether all its runs kept the
/// invariants.
type Figure = fn() -> bool;

/// Every figure, in the order a bare `paper` prints them.
const FIGURES: [(&str, Figure); 9] = [
    ("fig2", fig2),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table1", table1),
    ("table_scale", table_scale),
    ("ablation", ablation),
];

fn main() {
    let mut selected = bench::cli::parse(USAGE, |cli| {
        let mut selected = Vec::new();
        while let Some(&(_, run)) = cli.choice("figure", &FIGURES)? {
            selected.push(run);
        }
        Ok(selected)
    });
    if selected.is_empty() {
        selected = FIGURES.iter().map(|&(_, run)| run).collect();
    }
    // Run every figure, so every violation prints, not just the first.
    let ok = selected.into_iter().fold(true, |ok, run| run() & ok);
    if !ok {
        std::process::exit(1);
    }
}

/// Drives a hand-assembled system to the spec's horizon and wraps it in a
/// [`RunReport`], so it is checked like an [`Experiment`] run.
fn run_to_horizon(mut system: ServingSystem, spec: &ScenarioSpec, submitted: u64) -> RunReport {
    let started = Instant::now();
    system.run_until(spec.horizon());
    RunReport {
        discipline: system.scheduler_name().to_string(),
        submitted,
        wall_secs: started.elapsed().as_secs_f64(),
        max_events: u64::MAX,
        system,
    }
}

/// One minute of a run's per-second rows: counts as per-second rates,
/// the mean of the per-second mean batch sizes, and the worst per-second
/// mean latency.
struct Minute {
    goodput_rps: f64,
    throughput_rps: f64,
    cold_start_rps: f64,
    mean_batch: f64,
    max_latency_ms: f64,
}

fn per_minute(tel: &SystemTelemetry, minutes: u64) -> impl Iterator<Item = Minute> + '_ {
    (0..minutes as usize).map(move |minute| {
        let mut m = Minute {
            goodput_rps: 0.0,
            throughput_rps: 0.0,
            cold_start_rps: 0.0,
            mean_batch: 0.0,
            max_latency_ms: 0.0,
        };
        for s in minute * 60..(minute + 1) * 60 {
            let row = tel.second(s);
            m.goodput_rps += row.goodput as f64;
            m.throughput_rps += row.successes as f64;
            m.cold_start_rps += row.cold_starts as f64;
            m.mean_batch += row.mean_batch();
            m.max_latency_ms = m.max_latency_ms.max(row.mean_latency_ms());
        }
        m.goodput_rps /= 60.0;
        m.throughput_rps /= 60.0;
        m.cold_start_rps /= 60.0;
        m.mean_batch /= 60.0;
        m
    })
}

/// Fig. 2: DNN inference is predictable in isolation (a, the CDF of 1 M
/// batch-1 ResNet50 executions) and unpredictable once the GPU runs 1–16
/// inferences concurrently (b).
fn fig2() -> bool {
    let zoo = ModelZoo::new();
    let base = zoo.resnet50().exec_latency(1).expect("batch-1 kernel");

    bench::section("Fig 2a: CDF of 1-thread ResNet50 inference latency");
    let mut gpu = GpuTimingModel::new(GpuSpec::tesla_v100(), SimRng::seeded(2));
    let mut hist = LatencyHistogram::new();
    for _ in 0..1_000_000 {
        hist.record(gpu.exec_duration(base));
    }
    println!("percentile,latency_ms");
    for p in [50.0, 90.0, 99.0, 99.9, 99.99, 99.999] {
        println!("{p},{:.4}", hist.percentile(p).as_millis_f64());
    }
    let median = hist.percentile(50.0).as_millis_f64();
    let p9999 = hist.percentile(99.99).as_millis_f64();
    println!(
        "# p99.99 is within {:.3}% of the median (paper: 0.03%)",
        (p9999 - median) / median * 100.0
    );

    bench::section("Fig 2b: throughput and latency vs. GPU concurrency");
    println!("concurrency,throughput_rps,median_ms,p99_ms");
    for concurrency in [1u32, 2, 4, 8, 16] {
        let mut gpu = GpuTimingModel::new(GpuSpec::tesla_v100(), SimRng::seeded(3));
        let mut hist = LatencyHistogram::new();
        let mut busy = Nanos::ZERO;
        let rounds = 20_000;
        for _ in 0..rounds {
            // `concurrency` kernels share the GPU; the round finishes when
            // the slowest finishes.
            let mut slowest = Nanos::ZERO;
            for _ in 0..concurrency {
                let d = gpu.exec_duration_concurrent(base, concurrency);
                hist.record(d);
                slowest = slowest.max(d);
            }
            busy += slowest;
        }
        let throughput = (rounds * u64::from(concurrency)) as f64 / busy.as_secs_f64();
        println!(
            "{concurrency},{:.0},{:.2},{:.2}",
            throughput,
            hist.percentile(50.0).as_millis_f64(),
            hist.percentile(99.0).as_millis_f64()
        );
    }
    println!("# concurrency buys ~25% throughput but orders of magnitude more latency variance");
    true
}

/// Fig. 5: Clockwork against the Clipper- and INFaaS-like baselines on 15
/// ResNet50 copies, one worker, 16 closed-loop clients per model, the SLO
/// swept from 10 to 500 ms. Goodput counts only responses within the SLO.
fn fig5() -> bool {
    let cell = |slo_ms: u64, seed: u64| ScenarioSpec {
        name: "fig5".to_string(),
        workers: 1,
        gpus_per_worker: 1,
        models: 15,
        model_set: ModelSet::Resnet50Copies,
        workload: WorkloadSpec::ClosedLoop { concurrency: 16 },
        slo_ms,
        duration_secs: 20,
        drain_secs: 0,
        keep_responses: true,
        ..ScenarioSpec::smoke(seed)
    };
    // Clockwork vs the reactive baselines (the FIFO strawman is the
    // ablation's business).
    let mut registry = SchedulerRegistry::new();
    registry.register(Box::new(ClockworkFactory::default()));
    register_baselines(&mut registry);
    let mut ok = true;

    bench::section("Fig 5: goodput vs SLO (15x ResNet50, 1 worker, 16 closed-loop clients/model)");
    println!("{}", bench::SUMMARY_CSV_HEADER);
    for slo_ms in [10u64, 25, 50, 100, 250, 500] {
        for factory in registry.iter() {
            let spec = cell(slo_ms, 50 + slo_ms);
            let report = Experiment::new(spec.clone()).run(factory);
            let label = format!("{}_slo{slo_ms}ms", report.discipline);
            ok &= invariants::check_run(&format!("fig5/{label}"), &report, &spec);
            println!("{}", bench::summary_csv_row(&label, &report.metrics()));
        }
    }

    bench::section("Fig 5 (right): latency CDF tails at a 100 ms SLO");
    println!("system,p50_ms,p99_ms,p999_ms,p9999_ms,max_ms");
    for factory in registry.iter() {
        let spec = cell(100, 99);
        let report = Experiment::new(spec.clone()).run(factory);
        ok &= invariants::check_run(&format!("fig5/{}_tail", report.discipline), &report, &spec);
        let hist = report.telemetry().latency_histogram();
        println!(
            "{},{:.2},{:.2},{:.2},{:.2},{:.2}",
            report.discipline,
            hist.percentile(50.0).as_millis_f64(),
            hist.percentile(99.0).as_millis_f64(),
            hist.percentile(99.9).as_millis_f64(),
            hist.percentile(99.99).as_millis_f64(),
            hist.max().as_millis_f64()
        );
    }
    ok
}

/// Fig. 6: thousands of models on one worker. A Minor workload (one model
/// at a steady 200 r/s) shares the worker with a Major workload whose 1 000
/// r/s spreads over ever more active models, so batching vanishes, the
/// bottleneck moves from the GPU to PCIe and cold starts climb, while no
/// request exceeds the 100 ms SLO. Scaled from the paper's 3 600 models /
/// 60 min to 600 models / 5 min.
fn fig6() -> bool {
    const MAJOR_MODELS: usize = 600;
    const MAJOR_RATE: f64 = 1000.0;
    const MINOR_RATE: f64 = 200.0;
    let minutes = 5u64;
    let spec = ScenarioSpec {
        name: "fig6".to_string(),
        workers: 1,
        gpus_per_worker: 1,
        models: 1 + MAJOR_MODELS,
        model_set: ModelSet::Resnet50Copies,
        // The mean offered rate; the ramp trace itself is built below.
        workload: WorkloadSpec::OpenLoop {
            rate_per_model: (MINOR_RATE + MAJOR_RATE) / (1 + MAJOR_MODELS) as f64,
        },
        slo_ms: 100,
        duration_secs: minutes * 60,
        drain_secs: 2,
        keep_responses: false,
        ..ScenarioSpec::smoke(6)
    };
    let (slo, duration) = (spec.slo(), spec.duration());

    // Minor workload, model 0: steady Poisson arrivals for the whole run.
    let rng = SimRng::seeded(61);
    let minor =
        OpenLoopClient::new(ModelId(0), MINOR_RATE, slo).generate(duration, &mut rng.derive(1));
    // Major workload, models 1..=600: one more model becomes active every
    // `activation_interval`, and the 1 000 r/s is split across the active
    // ones.
    let end = duration.as_secs_f64();
    let activation_interval = end / MAJOR_MODELS as f64;
    let mut major = Vec::new();
    for i in 0..MAJOR_MODELS {
        let mut t = i as f64 * activation_interval;
        let mut mrng = rng.derive(1000 + i as u64);
        while t < end {
            let active = ((t / activation_interval).floor() as usize + 1).min(MAJOR_MODELS);
            let rate = MAJOR_RATE / active as f64;
            t += mrng.exponential(1.0 / rate);
            if t < end {
                major.push(TraceEvent {
                    at: Timestamp::from_nanos((t * 1e9) as u64),
                    model: ModelId(1 + i as u32),
                    slo,
                    tier: Tier::Strict,
                });
            }
        }
    }
    major.extend(minor.iter());
    let trace = Trace::new(major);
    println!(
        "# {} requests over {} min ({} major models + 1 minor model)",
        trace.len(),
        minutes,
        MAJOR_MODELS
    );
    let population: Vec<u32> = (0..spec.models as u32).collect();
    let experiment = Experiment::new(spec);
    let report =
        experiment.run_prepared(&ClockworkFactory::default(), &population, &trace, u64::MAX);
    let ok = invariants::check_run("fig6", &report, experiment.spec());

    let tel = report.telemetry();
    bench::section("Fig 6: per-minute goodput, latency, cold starts, utilization");
    println!("minute,goodput_rps,throughput_rps,cold_start_rps,mean_batch,p_latency_ms_max");
    for (minute, m) in per_minute(tel, minutes).enumerate() {
        println!(
            "{minute},{:.1},{:.1},{:.1},{:.2},{:.2}",
            m.goodput_rps, m.throughput_rps, m.cold_start_rps, m.mean_batch, m.max_latency_ms
        );
    }

    let metrics = tel.metrics();
    bench::section("Fig 6 summary");
    println!(
        "total={} goodput={} satisfaction={:.4} cold_fraction={:.3} max_latency_ms={:.2}",
        metrics.total_requests,
        metrics.goodput,
        metrics.satisfaction(),
        metrics.cold_start_fraction(),
        metrics.latency.max().as_millis_f64()
    );
    let horizon = Timestamp::ZERO + duration;
    for (i, w) in report.system.workers().iter().enumerate() {
        println!(
            "worker {i}: gpu_util={:.2} pcie_util={:.2}",
            w.gpu_utilization(GpuId(0), horizon),
            w.pcie_utilization(GpuId(0), horizon)
        );
    }
    println!("# the SLO ceiling should hold: max latency <= 100 ms plus network");
    ok
}

/// Fig. 7: how low the SLO can go, and whether batch clients disturb
/// latency-sensitive ones. (left) LS open-loop satisfaction as the SLO grows
/// from 1× to ~86× the batch-1 ResNet50 latency, for N ∈ {12, 48} models and
/// R ∈ {600, 1200, 2400} r/s on 6 workers. (right) The same with closed-loop
/// batch clients (BC, no SLO) beside them: M=0, M=12/C=16 and M=48/C=4.
fn fig7() -> bool {
    const BASE_LATENCY_MS: f64 = 2.61; // batch-1 ResNet50, Appendix A
                                       // 1.0, 1.5, 2.2, 3.4, ... the paper's 1.5x geometric ladder.
    let mut multipliers = vec![1.0f64];
    while *multipliers.last().unwrap() < 90.0 {
        multipliers.push(multipliers.last().unwrap() * 1.5);
    }
    let mut ok = true;

    bench::section("Fig 7 (left): LS workload satisfaction vs SLO multiplier (6 workers)");
    println!("slo_multiplier,slo_ms,n12_r600,n12_r1200,n12_r2400,n48_r600,n48_r1200,n48_r2400");
    for &mult in &multipliers {
        let slo = Nanos::from_millis_f64(BASE_LATENCY_MS * mult);
        let mut row = format!("{mult:.1},{:.2}", slo.as_millis_f64());
        for (n, r) in [
            (12usize, 600.0),
            (12, 1200.0),
            (12, 2400.0),
            (48, 600.0),
            (48, 1200.0),
            (48, 2400.0),
        ] {
            let (sat, _) = fig7_run(n, r, slo, (0, 0), 7_000 + n as u64 + r as u64, &mut ok);
            row.push_str(&format!(",{sat:.3}"));
        }
        println!("{row}");
    }

    bench::section(
        "Fig 7 (right): isolation of LS clients from batch clients (N=6 LS @ 200 r/s each)",
    );
    println!(
        "slo_multiplier,slo_ms,ls_sat_m0,ls_sat_m12_c16,bc_rps_m12_c16,ls_sat_m48_c4,bc_rps_m48_c4"
    );
    for &mult in &multipliers {
        let slo = Nanos::from_millis_f64(BASE_LATENCY_MS * mult);
        let (a, _) = fig7_run(6, 1200.0, slo, (0, 0), 9_100 + mult as u64, &mut ok);
        let (b, b_tp) = fig7_run(6, 1200.0, slo, (12, 16), 9_200 + mult as u64, &mut ok);
        let (c, c_tp) = fig7_run(6, 1200.0, slo, (48, 4), 9_300 + mult as u64, &mut ok);
        println!(
            "{mult:.1},{:.2},{a:.3},{b:.3},{b_tp:.0},{c:.3},{c_tp:.0}",
            slo.as_millis_f64()
        );
    }
    println!("# LS satisfaction should be essentially unaffected by batch clients,");
    println!("# while BC throughput fills whatever capacity the LS clients leave idle.");
    ok
}

/// One Fig. 7 run: `n_models` latency-sensitive models offered `rate` r/s
/// in all, beside `bc` batch-client models keeping `concurrency` requests
/// in flight each. Returns the LS satisfaction and the BC throughput.
fn fig7_run(
    n_models: usize,
    rate: f64,
    slo: Nanos,
    (bc, concurrency): (usize, u32),
    seed: u64,
    ok: &mut bool,
) -> (f64, f64) {
    let rate_per_model = rate / n_models as f64;
    let spec = ScenarioSpec {
        name: "fig7".to_string(),
        workers: 6,
        gpus_per_worker: 1,
        models: n_models + bc,
        model_set: ModelSet::Resnet50Copies,
        workload: WorkloadSpec::OpenLoop { rate_per_model },
        slo_ms: slo.as_millis_f64().ceil() as u64,
        duration_secs: 10,
        drain_secs: 1,
        keep_responses: false,
        ..ScenarioSpec::smoke(seed)
    };
    let mut system = ServingSystem::from_spec(&spec, &ClockworkFactory::default());
    let ls_models: Vec<ModelId> = (0..n_models as u32).map(ModelId).collect();
    let bc_models: Vec<ModelId> = (n_models as u32..spec.models as u32).map(ModelId).collect();
    let trace = OpenLoopClient::generate_many(
        &ls_models,
        rate_per_model,
        slo,
        spec.duration(),
        &mut SimRng::seeded(seed),
    );
    system.submit_trace(&trace);
    for (i, &m) in bc_models.iter().enumerate() {
        system.add_closed_loop_client(
            ClosedLoopClient::new(m, concurrency, Nanos::MAX),
            Timestamp::from_millis(i as u64),
        );
    }
    let report = run_to_horizon(system, &spec, trace.len() as u64);
    let outcome = report.outcome();
    // BC clients carry no SLO and their successes count as goodput, so the
    // scenario-SLO bound of goodput honesty does not apply to this figure.
    let label = format!("fig7/n{n_models}_r{rate}_bc{bc}_seed{seed}");
    *ok &= invariants::check_event_mix(&label, &outcome)
        & invariants::check_overdelivery(&label, &outcome);
    // Subtract the BC successes from goodput to get the LS clients'
    // satisfaction alone.
    let successes = report.telemetry().per_model_successes();
    let bc_successes: u64 = bc_models.iter().filter_map(|&id| successes.get(id)).sum();
    let ls_goodput = outcome.metrics.goodput.saturating_sub(bc_successes);
    (
        ls_goodput as f64 / (trace.len() as u64).max(1) as f64,
        bc_successes as f64 / spec.duration().as_secs_f64(),
    )
}

/// Fig. 8: replaying an Azure-Functions-like trace. The paper replays 8
/// hours of the MAF trace on 6 workers with 4 026 model instances at a
/// 100 ms SLO; here a synthetic trace runs 8 minutes over 200 instances
/// cycling through the zoo at ~800 r/s.
fn fig8() -> bool {
    let minutes = 8u64;
    let spec = ScenarioSpec {
        name: "fig8_azure".to_string(),
        workers: 6,
        gpus_per_worker: 1,
        models: 200,
        model_set: ModelSet::ZooCycle,
        workload: WorkloadSpec::Azure {
            functions: 800,
            target_rate: 800.0,
        },
        slo_ms: 100,
        duration_secs: minutes * 60,
        drain_secs: 2,
        workload_seed: 8,
        ..ScenarioSpec::smoke(88)
    };
    let report = Experiment::new(spec.clone()).run(&ClockworkFactory::default());
    let ok = invariants::check_run("fig8", &report, &spec);
    println!(
        "# azure-like trace: {} requests, {} model instances, {} min (discipline: {})",
        report.submitted, spec.models, minutes, report.discipline
    );

    let tel = report.telemetry();
    bench::section("Fig 8 (a)-(e): per-minute series");
    println!("minute,throughput_rps,goodput_rps,mean_batch,cold_start_rps");
    for (minute, m) in per_minute(tel, minutes).enumerate() {
        println!(
            "{minute},{:.1},{:.1},{:.2},{:.1}",
            m.throughput_rps, m.goodput_rps, m.mean_batch, m.cold_start_rps
        );
    }

    let m = tel.metrics();
    bench::section("Fig 8 summary");
    println!(
        "requests={} goodput={} satisfaction={:.5} p50_ms={:.2} p99_ms={:.2} max_ms={:.2} cold_fraction={:.3}",
        m.total_requests,
        m.goodput,
        m.satisfaction(),
        m.latency.percentile(50.0).as_millis_f64(),
        m.latency.percentile(99.0).as_millis_f64(),
        m.latency.max().as_millis_f64(),
        m.cold_start_fraction()
    );
    // Counted as the models that served a request.
    println!(
        "# distinct models in workload: {} (cold-start fraction of successes: {:.1}%)",
        tel.per_model_successes().len(),
        m.cold_start_fraction() * 100.0
    );
    println!("# paper shape: goodput tracks throughput, no request exceeds the SLO by more than");
    println!("# the network allowance, cold starts are a small fraction of requests.");
    ok
}

/// Per-action prediction errors of one traced run, in microseconds.
/// Positive means under-prediction (the action ran longer, or finished
/// later, than estimated), the paper's convention.
#[derive(Default)]
struct PredictionErrors {
    infer_duration: Vec<f64>,
    load_duration: Vec<f64>,
    infer_completion: Vec<f64>,
    load_completion: Vec<f64>,
}

/// Harvests the errors from the tracer's spans: each `*Done` span carries
/// the estimate and the actual duration, and the predicted completion is
/// the `*Issued` instant plus the estimate.
fn harvest(tracer: &RingTracer) -> PredictionErrors {
    let mut issued_at: HashMap<u64, u64> = HashMap::new();
    let mut errors = PredictionErrors::default();
    for record in tracer.records() {
        match &record.event {
            LifecycleEvent::InferIssued { action, .. }
            | LifecycleEvent::LoadIssued { action, .. } => {
                issued_at.insert(*action, record.at);
            }
            LifecycleEvent::InferDone {
                action,
                est,
                actual,
                end,
                ok: true,
                ..
            } => {
                errors
                    .infer_duration
                    .push((*actual as f64 - *est as f64) / 1e3);
                if let Some(at) = issued_at.get(action) {
                    errors
                        .infer_completion
                        .push((*end as f64 - (*at + *est) as f64) / 1e3);
                }
            }
            LifecycleEvent::LoadDone {
                action,
                est,
                actual,
                end,
                ok: true,
                ..
            } => {
                errors
                    .load_duration
                    .push((*actual as f64 - *est as f64) / 1e3);
                if let Some(at) = issued_at.get(action) {
                    errors
                        .load_completion
                        .push((*end as f64 - (*at + *est) as f64) / 1e3);
                }
            }
            _ => {}
        }
    }
    errors
}

fn error_summary(label: &str, errors_us: &[f64]) {
    if errors_us.is_empty() {
        println!("{label}: no samples");
        return;
    }
    let over: Vec<f64> = errors_us.iter().filter(|e| **e < 0.0).map(|e| -e).collect();
    let under: Vec<f64> = errors_us.iter().filter(|e| **e >= 0.0).copied().collect();
    let p = |v: &[f64], q: f64| percentile_f64(v, q).unwrap_or(0.0);
    println!(
        "{label}: n={} under={} over={} p50_under_us={:.0} p99_under_us={:.0} p50_over_us={:.0} p99_over_us={:.0} max_us={:.0}",
        errors_us.len(),
        under.len(),
        over.len(),
        p(&under, 50.0),
        p(&under, 99.0),
        p(&over, 50.0),
        p(&over, 99.0),
        errors_us.iter().map(|e| e.abs()).fold(0.0, f64::max),
    );
}

/// Fig. 9: how accurate the controller's predictions are. A traced
/// Azure-like run per registered discipline reports the over- and
/// under-prediction errors of INFER and LOAD durations and completion
/// times; any discipline that issues actions gets a profile from its spans.
fn fig9() -> bool {
    let spec = ScenarioSpec {
        name: "fig9_prediction_error".to_string(),
        workers: 6,
        gpus_per_worker: 1,
        models: 120,
        model_set: ModelSet::ZooCycle,
        workload: WorkloadSpec::Azure {
            functions: 400,
            target_rate: 800.0,
        },
        slo_ms: 100,
        duration_secs: 5 * 60,
        drain_secs: 2,
        workload_seed: 9,
        variance: VarianceConfig::default(),
        ..ScenarioSpec::smoke(99)
    }
    .with_trace(true)
    .with_trace_capacity(1 << 22);
    let experiment = Experiment::new(spec);
    let mut ok = true;

    for factory in bench::disciplines().iter() {
        let report = experiment.run(factory);
        ok &= invariants::check_run(
            &format!("fig9/{}", report.discipline),
            &report,
            experiment.spec(),
        );
        let tracer = report.trace().expect("fig9 runs are traced");
        let errors = harvest(tracer);
        bench::section(&format!(
            "{}: prediction error over {} requests ({} spans, {} dropped)",
            report.discipline,
            report.submitted,
            tracer.len(),
            tracer.dropped_spans(),
        ));
        println!("action duration error (microseconds):");
        error_summary("  INFER duration", &errors.infer_duration);
        error_summary("  LOAD duration", &errors.load_duration);
        println!("completion time error (microseconds):");
        error_summary("  INFER completion", &errors.infer_completion);
        error_summary("  LOAD completion", &errors.load_completion);
    }
    println!();
    println!("# paper shape (clockwork): p99 duration errors of a few hundred microseconds,");
    println!("# more underprediction than overprediction, completion errors a small multiple.");
    ok
}

/// Appendix A, Table 1: the model catalogue as the simulator is fed it — IO
/// and weight sizes, the PCIe model's transfer time beside its deviation
/// from the paper's measured value, and the execution latency at batch
/// sizes 1–16.
fn table1() -> bool {
    let zoo = ModelZoo::new();
    let link = PcieLink::v100_pcie3();
    println!("family,model,input_kb,output_kb,weights_mb,transfer_ms,transfer_err_pct,b1_ms,b2_ms,b4_ms,b8_ms,b16_ms");
    for spec in zoo.all() {
        let transfer = spec.weights_transfer_duration(&link).as_millis_f64();
        let reported = zoo.reported_transfer_ms(&spec.name).unwrap_or(transfer);
        let lat = |batch: u32| {
            spec.exec_latency(batch)
                .map_or(f64::NAN, |l| l.as_millis_f64())
        };
        println!(
            "{},{},{:.0},{:.2},{:.1},{:.2},{:+.1},{:.2},{:.2},{:.2},{:.2},{:.2}",
            spec.family,
            spec.name,
            spec.input_kb,
            spec.output_kb,
            spec.weights_mb,
            transfer,
            (transfer - reported) / reported * 100.0,
            lat(1),
            lat(2),
            lat(4),
            lat(8),
            lat(16)
        );
    }
    println!("# {} model varieties (paper: 61)", zoo.len());
    true
}

/// §6.5 scale table: 10 workers × 2 GPUs under a scaled Azure-like trace
/// (~1 500 r/s, 4 minutes), once at a 100 ms and once at a 25 ms SLO. The
/// 100 ms run should miss essentially nothing; the 25 ms run rejects a
/// small share up front (`cannot_meet_slo`, the only reason
/// `rejected_upfront` counts) and keeps the served tail under the SLO.
fn table_scale() -> bool {
    let mut ok = true;
    bench::section("Section 6.5 table: 10 workers x 2 GPUs, scaled Azure-like trace");
    println!(
        "slo_ms,goodput_rps,missed_slo_after_admission,rejected_upfront,p50_ms,p9999_ms,max_ms,\
         rejected_by_reason"
    );
    for slo_ms in [100u64, 25] {
        let spec = ScenarioSpec {
            name: "table_scale".to_string(),
            workers: 10,
            gpus_per_worker: 2,
            models: 150,
            model_set: ModelSet::ZooCycle,
            workload: WorkloadSpec::Azure {
                functions: 600,
                target_rate: 1_500.0,
            },
            slo_ms,
            duration_secs: 4 * 60,
            drain_secs: 2,
            workload_seed: 65,
            ..ScenarioSpec::smoke(650)
        };
        let report = Experiment::new(spec.clone()).run(&ClockworkFactory::default());
        ok &= invariants::check_run(&format!("table_scale/slo{slo_ms}ms"), &report, &spec);
        let m = report.metrics();
        let upfront = m.rejections.get(RejectReason::CannotMeetSlo.as_str());
        println!(
            "{slo_ms},{:.0},{},{},{:.2},{:.2},{:.2},{}",
            m.goodput_rate(),
            m.successes - m.goodput,
            upfront.unwrap_or(&0),
            m.latency.percentile(50.0).as_millis_f64(),
            m.latency.percentile(99.99).as_millis_f64(),
            m.latency.max().as_millis_f64(),
            bench::rejected_by_reason_field(&m)
        );
    }
    println!("# paper: 100 ms -> 6174 r/s, 0 missed, P50 6.28 ms, P99.99 49.92 ms");
    println!("#        25 ms -> 6060 r/s, 361 missed (0.00002%), P50 5.77 ms, P99.99 21.60 ms");
    ok
}

/// Ablation: the four consolidation-of-choice mechanisms (§4–5) removed one
/// at a time under one moderately overloaded load — an open-loop trace on 8
/// ResNet50 copies plus closed-loop clients on two of them. This load never
/// makes admission control reject, so `no_admission_control` prints the
/// same row as `clockwork_full` (a known deviation, see the README).
fn ablation() -> bool {
    let rate_per_model = 60.0;
    let spec = ScenarioSpec {
        name: "ablation".to_string(),
        workers: 1,
        gpus_per_worker: 1,
        models: 8,
        model_set: ModelSet::Resnet50Copies,
        workload: WorkloadSpec::OpenLoop { rate_per_model },
        slo_ms: 50,
        duration_secs: 10,
        drain_secs: 1,
        workload_seed: 17,
        keep_responses: true,
        ..ScenarioSpec::smoke(424)
    };
    let no_admission = ClockworkSchedulerConfig {
        admission_control: false,
        ..Default::default()
    };
    let no_batching = ClockworkSchedulerConfig {
        batching: false,
        ..Default::default()
    };
    let concurrent = Some(ExecMode::Concurrent { max_concurrent: 8 });
    let rows: [(&str, &dyn SchedulerFactory, Option<ExecMode>); 5] = [
        ("clockwork_full", &ClockworkFactory::default(), None),
        (
            "no_admission_control",
            &ClockworkFactory::new(no_admission),
            None,
        ),
        ("no_batching", &ClockworkFactory::new(no_batching), None),
        ("concurrent_exec", &ClockworkFactory::default(), concurrent),
        ("fifo_strawman", &FifoFactory, None),
    ];
    let mut ok = true;

    bench::section("Ablation: contribution of each consolidation-of-choice mechanism");
    println!("{},rejected_by_reason", bench::SUMMARY_CSV_HEADER);
    for (label, factory, exec_mode) in rows {
        let config = SystemConfig {
            exec_mode,
            ..spec.system_config()
        };
        let mut system = ServingSystem::with_factory(config, factory);
        let models = system.register_copies(ModelZoo::new().resnet50(), spec.models);
        let trace = spec.arrivals();
        system.submit_trace(&trace);
        for (i, &model) in models[..2].iter().enumerate() {
            system.add_closed_loop_client(
                ClosedLoopClient::new(model, 4, spec.slo()),
                Timestamp::from_nanos(i as u64 * 1_000),
            );
        }
        let report = run_to_horizon(system, &spec, trace.len() as u64);
        ok &= invariants::check_run(&format!("ablation/{label}"), &report, &spec);
        let m = report.metrics();
        println!(
            "{},{}",
            bench::summary_csv_row(label, &m),
            bench::rejected_by_reason_field(&m)
        );
    }
    println!("# expected shape: removing admission control and batching hurts goodput under");
    println!("# overload; concurrent EXEC inflates tail latency; FIFO does both.");
    ok
}
