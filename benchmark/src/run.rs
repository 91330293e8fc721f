//! One repetition of a workload on the real system, driven through the
//! facade's public API with a benchmark-side span around each call.

use std::time::Instant;

use clockwork::prelude::*;
use clockwork::RunReport;
use clockwork_metrics::LatencyHistogram;
use clockwork_worker::telemetry::WorkerCounters;

use crate::spans::SpanLog;
use crate::stats::{hist_percentile_ms, percentile_sorted, quiet_sum, quiet_sum_spread};
use crate::workloads::{generate_trace, Workload};

/// How a repetition is driven.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the end-to-end reps.
    Plain,
    /// The program's `RingTracer` on and a benchmark-side span per slice:
    /// the per-layer rep. `export` keeps the tracer's JSONL.
    Traced { export: bool },
}

/// Host seconds of each phase of a repetition.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    pub generate_s: f64,
    pub build_s: f64,
    pub submit_s: f64,
    pub loop_s: f64,
    pub report_s: f64,
    /// Host milliseconds per slice.
    pub slice_ms: Vec<f64>,
    /// `pending_events()` at each slice end.
    pub queue_depth: Vec<u64>,
}

impl Timing {
    /// Everything before the first event is delivered.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.submit_s
    }
}

/// Virtual-time figures read from the program's own `RingTracer` stream.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    pub spans: u64,
    pub dropped: u64,
    pub queue_wait_ms_p50: f64,
    pub queue_wait_ms_p99: f64,
    pub queue_wait_samples: usize,
    pub pred_err_us_p50: f64,
    pub pred_err_us_p99: f64,
    pub pred_err_samples: usize,
    /// `RingTracer::export_jsonl()`, kept only on request.
    pub jsonl: Option<String>,
}

/// What a finished repetition shows through the program's public counters.
#[derive(Clone, Debug)]
pub struct Observed {
    pub digest: u64,
    pub invariants_ok: bool,
    pub total_requests: u64,
    pub successes: u64,
    pub goodput: u64,
    pub rejected: u64,
    pub cold_start_frac: f64,
    pub mean_batch: f64,
    pub latency_p50_ms: f64,
    pub latency_p999_ms: f64,
    pub latency_samples: u64,
    pub events_pushed: u64,
    pub events_delivered: u64,
    pub events_cancelled: u64,
    pub worker_actions: u64,
    pub worker_wakes: u64,
    pub fault_events: u64,
    pub sched: SchedProfile,
    pub workers: WorkerCounters,
    pub gpu_util_mean: f64,
    pub pcie_util_mean: f64,
    pub exec_ms_p50: f64,
    pub load_ms_p50: f64,
    pub trace: Option<TraceStats>,
}

impl Observed {
    /// Requests that never got a response of any kind.
    pub fn unanswered(&self) -> u64 {
        self.total_requests
            .saturating_sub(self.successes + self.rejected)
    }
}

/// A finished repetition. The request stream is handed back so the replays
/// can feed each layer the workload's own inputs.
pub struct Rep {
    pub timing: Timing,
    pub observed: Observed,
    pub trace: Trace,
}

/// Generates the trace, builds the system and submits the trace: the
/// workload's whole set-up, as three spans.
fn set_up(
    spec: &ScenarioSpec,
    factory: &dyn SchedulerFactory,
    log: &mut SpanLog,
) -> (Trace, ServingSystem, Timing) {
    let (trace, generate_s) = log.span("workload.generate", "workload", |_| generate_trace(spec));
    let (mut system, build_s) = log.span("facade.build", "facade", |_| {
        ServingSystem::from_spec(spec, factory)
    });
    let ((), submit_s) = log.span("facade.submit_trace", "facade", |_| {
        system.submit_trace(&trace)
    });
    let timing = Timing {
        generate_s,
        build_s,
        submit_s,
        ..Timing::default()
    };
    (trace, system, timing)
}

/// Set-up alone, torn down again: an extra `setup_s` sample.
pub fn set_up_only(w: &Workload, log: &mut SpanLog) -> f64 {
    let factory = w.discipline.factory();
    let (_trace, _system, timing) = set_up(&w.spec, factory.as_ref(), log);
    timing.setup_s()
}

/// `run_wall_s` of a set of identical repetitions: host seconds to simulate
/// the whole workload, each slice taken from the repetition that ran it
/// fastest ([`quiet_sum`]); and how far one missing repetition would have
/// moved it ([`quiet_sum_spread`]).
pub fn run_wall_s(reps: &[Rep]) -> (f64, f64) {
    let slices: Vec<&[f64]> = reps.iter().map(|r| r.timing.slice_ms.as_slice()).collect();
    (quiet_sum(&slices) / 1e3, quiet_sum_spread(&slices))
}

/// Runs one repetition, `run_until` in slices of simulated time (slicing
/// leaves the digest unchanged), and checks the per-run invariants
/// (`bench::invariants::check_run`).
pub fn run_rep(w: &Workload, mode: Mode, log: &mut SpanLog) -> Rep {
    let traced = mode != Mode::Plain;
    let spec = if traced {
        // The ring only drops when full, so an unbounded capacity makes
        // `trace_dropped` count upstream losses alone.
        w.spec
            .clone()
            .with_trace(true)
            .with_trace_capacity(usize::MAX)
    } else {
        w.spec.clone()
    };
    let factory = w.discipline.factory();
    let (trace, mut system, mut timing) = set_up(&spec, factory.as_ref(), log);

    let horizon = spec.horizon();
    let ((), loop_s) = log.span("facade.loop", "facade", |log| {
        let slice = Nanos::from_millis(w.slice_ms);
        let mut until = Timestamp::ZERO;
        let mut k = 0;
        while until < horizon {
            until = (until + slice).min(horizon);
            let s = if traced {
                log.span(format!("facade.slice[{k}]"), "facade", |_| {
                    system.run_until(until)
                })
                .1
            } else {
                let start = Instant::now();
                system.run_until(until);
                start.elapsed().as_secs_f64()
            };
            timing.slice_ms.push(s * 1e3);
            timing.queue_depth.push(system.pending_events());
            k += 1;
        }
    });
    timing.loop_s = loop_s;

    let (observed, report_s) = log.span("facade.report", "facade", |_| {
        let report = RunReport {
            discipline: system.scheduler_name().to_string(),
            submitted: trace.len() as u64,
            wall_secs: loop_s,
            max_events: u64::MAX,
            system,
        };
        observe(w, &spec, &report, mode)
    });
    timing.report_s = report_s;
    Rep {
        timing,
        observed,
        trace,
    }
}

fn observe(w: &Workload, spec: &ScenarioSpec, report: &RunReport, mode: Mode) -> Observed {
    let m = report.metrics();
    let mix = report.event_mix();
    let delivered_of = |kind: &str| mix.entry(kind).map_or(0, |e| e.delivered);

    let mut workers = WorkerCounters::default();
    let mut exec = LatencyHistogram::new();
    let mut load = LatencyHistogram::new();
    let (mut gpu_util, mut pcie_util) = (0.0, 0.0);
    let fleet = report.system.workers();
    for worker in fleet {
        let t = worker.telemetry();
        let c = &t.counters;
        workers.loads_completed += c.loads_completed;
        workers.unloads_completed += c.unloads_completed;
        workers.infers_completed += c.infers_completed;
        workers.window_rejections += c.window_rejections;
        workers.dropped_actions += c.dropped_actions;
        exec.merge(&t.exec_durations);
        load.merge(&t.load_durations);
        gpu_util += t.mean_gpu_utilization(spec.horizon());
        pcie_util += t.mean_pcie_utilization(spec.horizon());
    }
    let n = fleet.len().max(1) as f64;

    Observed {
        digest: report.digest(),
        invariants_ok: bench::invariants::check_run(w.name, report, spec),
        total_requests: m.total_requests,
        successes: m.successes,
        goodput: m.goodput,
        rejected: report.rejected(),
        cold_start_frac: m.cold_start_fraction(),
        mean_batch: m.mean_batch,
        latency_p50_ms: hist_percentile_ms(&m.latency, 50.0),
        latency_p999_ms: hist_percentile_ms(&m.latency, 99.9),
        latency_samples: m.latency.count(),
        events_pushed: mix.pushed(),
        events_delivered: mix.delivered(),
        events_cancelled: mix.cancelled(),
        worker_actions: delivered_of("worker_action"),
        worker_wakes: delivered_of("worker_wake"),
        fault_events: spec.faults.len() as u64,
        sched: report.sched_stats(),
        workers,
        gpu_util_mean: gpu_util / n,
        pcie_util_mean: pcie_util / n,
        exec_ms_p50: hist_percentile_ms(&exec, 50.0),
        load_ms_p50: hist_percentile_ms(&load, 50.0),
        trace: report.trace().map(|tracer| {
            trace_stats(
                tracer,
                m.total_requests,
                mode == Mode::Traced { export: true },
            )
        }),
    }
}

/// Queue wait (controller arrival to batch dispatch, per member) and INFER
/// prediction error (the paper's Fig. 9 claim), from the lifecycle stream.
fn trace_stats(tracer: &RingTracer, requests: u64, export: bool) -> TraceStats {
    let mut enqueued_at = vec![0u64; requests as usize];
    let mut queue_wait_ms = Vec::new();
    let mut pred_err_us = Vec::new();
    for record in tracer.records() {
        match &record.event {
            LifecycleEvent::Enqueued { request, .. } => {
                if let Some(slot) = enqueued_at.get_mut(*request as usize) {
                    *slot = record.at;
                }
            }
            LifecycleEvent::BatchFormed { members, .. } => {
                for member in members {
                    if let Some(at) = enqueued_at.get(*member as usize) {
                        queue_wait_ms.push(record.at.saturating_sub(*at) as f64 / 1e6);
                    }
                }
            }
            LifecycleEvent::InferDone {
                est,
                actual,
                ok: true,
                ..
            } => pred_err_us.push(est.abs_diff(*actual) as f64 / 1e3),
            _ => {}
        }
    }
    queue_wait_ms.sort_by(f64::total_cmp);
    pred_err_us.sort_by(f64::total_cmp);
    TraceStats {
        spans: tracer.len() as u64,
        dropped: tracer.dropped_spans(),
        queue_wait_ms_p50: percentile_sorted(&queue_wait_ms, 50.0),
        queue_wait_ms_p99: percentile_sorted(&queue_wait_ms, 99.0),
        queue_wait_samples: queue_wait_ms.len(),
        pred_err_us_p50: percentile_sorted(&pred_err_us, 50.0),
        pred_err_us_p99: percentile_sorted(&pred_err_us, 99.0),
        pred_err_samples: pred_err_us.len(),
        jsonl: export.then(|| tracer.export_jsonl()),
    }
}
