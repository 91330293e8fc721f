//! Fig. 9 — how accurate are the controller's predictions?
//!
//! Runs an Azure-like workload with request-lifecycle tracing enabled and
//! reports the distribution of over- and under-prediction errors for INFER
//! and LOAD action durations, and of completion-time errors — for *every*
//! registered discipline, not just clockwork. The estimates come from the
//! tracer's `InferIssued`/`InferDone` and `LoadIssued`/`LoadDone` spans
//! (each `*Done` span carries est vs actual), so any discipline that issues
//! actions gets a prediction-error profile for free; no scheduler downcast
//! is involved.
//!
//! The paper's key observations (for clockwork): the p99 duration error is
//! a few hundred microseconds, the controller deliberately over-predicts
//! slightly more than it under-predicts (it uses a rolling p99), and
//! completion errors compound only a few times the duration error.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin fig9_prediction_error -- \
//!     [--duration-secs N]
//! ```

use std::collections::HashMap;

use clockwork::prelude::*;
use clockwork_baselines::register_baselines;
use clockwork_metrics::percentile::percentile_f64;

const USAGE: &str = "fig9_prediction_error [--duration-secs N]";

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

/// Per-action errors harvested from one traced run, microseconds. Positive
/// means under-prediction (the action ran longer / finished later than
/// estimated), matching the paper's convention.
#[derive(Default)]
struct PredictionErrors {
    infer_duration: Vec<f64>,
    load_duration: Vec<f64>,
    infer_completion: Vec<f64>,
    load_completion: Vec<f64>,
}

fn harvest(report: &RunReport) -> PredictionErrors {
    let tracer = report.trace().expect("fig9 runs are traced");
    // Issue timestamps by action id, for completion-time errors (predicted
    // completion = issue instant + estimate).
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

fn main() {
    let duration_secs: u64 = bench::cli::parse(USAGE, |cli| {
        Ok(cli.value("--duration-secs")?.unwrap_or(5 * 60))
    });

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
        duration_secs,
        drain_secs: 2,
        seed: 99,
        workload_seed: 9,
        variance: VarianceConfig::default(),
        keep_responses: false,
        faults: FaultPlan::new(),
        ..ScenarioSpec::smoke(99)
    }
    .with_trace(true)
    .with_trace_capacity(1 << 22);

    let mut registry = SchedulerRegistry::builtin();
    registry.register(Box::new(ClockworkNoBatchFactory::default()));
    register_baselines(&mut registry);
    let experiment = Experiment::new(spec);

    for factory in registry.iter() {
        let report = experiment.run(factory);
        let tracer = report.trace().expect("traced");
        let errors = harvest(&report);
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
}
