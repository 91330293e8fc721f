//! SLO-blame attribution: *why* did each request miss, per discipline.
//!
//! The aggregate metrics say how many requests violated their SLO; this
//! binary answers the question they cannot: which lifecycle stage ate the
//! budget. Every (scenario × discipline) cell runs with request-lifecycle
//! tracing on, the recorded spans are reassembled into per-request span
//! trees, each completed request's latency is decomposed into stages —
//! queue wait, cold load, batch wait, execution, network — and every SLO
//! violation is blamed on its dominant stage. Rejections are blamed by
//! their recorded reason (admission estimate, queue deadline expiry,
//! unknown model, fleet fault). Two scenarios are covered: the fleet
//! scenario at 5× its nominal rate (pure overload) and the scripted-churn
//! chaos scenario (faults), across every registered discipline.
//!
//! Conservation is enforced, not assumed: when no spans were dropped, the
//! terminal spans must equal the run's successes, the `rejected` spans its
//! rejections, and at most 1 % of violations+rejections may remain
//! unattributed — any violation exits non-zero. `--check-determinism`
//! reruns every cell and requires identical trace digests and response
//! digests. Every run's span ring holds `DEFAULT_TRACE_CAPACITY` spans.
//!
//! Results go to `BENCH_blame.json` (schema in `crates/bench/README.md`).
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin trace_blame -- \
//!     [--duration-secs N] [--seed N] [--out PATH] [--check-determinism]
//! ```

use std::collections::{BTreeMap, HashMap};

use bench::cli::MatrixArgs;
use bench::grid::Grid;
use clockwork::json::Value;
use clockwork::prelude::*;
use clockwork::scenario::DEFAULT_TRACE_CAPACITY;

const USAGE: &str = "trace_blame [--duration-secs N] [--seed N] [--out PATH] [--check-determinism]";

/// The blame stages a completed request's latency decomposes into, in the
/// fixed tie-break order used when two stages are equally dominant.
const STAGES: [&str; 5] = [
    "queue_wait",
    "cold_load",
    "batch_wait",
    "execution",
    "network",
];

/// The index in [`STAGES`] of the largest of one request's stage times,
/// ties resolved in [`STAGES`] order.
fn dominant(stages: &[u64; 5]) -> usize {
    (1..stages.len()).fold(0, |best, i| if stages[i] > stages[best] { i } else { best })
}

/// Running mean/max over one stage across a cell's completed requests.
#[derive(Clone, Copy, Default)]
struct StageStats {
    sum: u64,
    max: u64,
    count: u64,
}

impl StageStats {
    fn record(&mut self, v: u64) {
        self.sum += v;
        self.max = self.max.max(v);
        self.count += 1;
    }

    fn mean_ms(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64 / 1e6
    }

    fn max_ms(&self) -> f64 {
        self.max as f64 / 1e6
    }
}

/// Everything one (scenario, discipline) cell contributes to the table and
/// the JSON, extracted so the run's `ServingSystem` drops before the next.
struct BlameCell {
    run: RunOutcome,
    violations: u64,
    spans: u64,
    dropped_spans: u64,
    trace_digest: u64,
    terminal_spans: u64,
    rejected_spans: u64,
    stages: [StageStats; 5],
    /// Dominant-stage counts over SLO violations, [`STAGES`] order.
    violation_blame: [u64; 5],
    /// Violations whose span tree was too incomplete to decompose.
    unattributed: u64,
    /// Rejection counts by blame category.
    rejection_blame: BTreeMap<&'static str, u64>,
}

/// Maps a rejection reason key to its blame category.
fn rejection_category(reason: &str) -> &'static str {
    match reason {
        "cannot_meet_slo" => "admission_estimate",
        "deadline_elapsed" => "queue_deadline",
        "unknown_model" => "unknown_model",
        // Worker-side rejection is backpressure under overload but can
        // also follow a crash; the mid-flight failure case is separate.
        "worker_rejected" => "worker_backpressure",
        "worker_failed" => "fault",
        // Tier-aware graceful degradation: best-effort traffic shed to
        // protect strict-tier SLOs.
        "best_effort_shed" => "shed",
        _ => "other",
    }
}

fn analyze_cell(report: &RunReport) -> BlameCell {
    let tracer = report.trace().expect("trace_blame runs are always traced");

    // First pass: index the span stream by request and action.
    let mut enqueued_at: HashMap<u64, u64> = HashMap::new();
    let mut member_action: HashMap<u64, u64> = HashMap::new();
    let mut batch_members: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut infer_issued_at: HashMap<u64, u64> = HashMap::new();
    let mut infer_actual: HashMap<u64, u64> = HashMap::new();
    // (worker, gpu, model) -> completed LOADs as (end, actual), record order
    // (so ends are non-decreasing per key).
    let mut loads: HashMap<(u32, u32, u32), Vec<(u64, u64)>> = HashMap::new();
    let mut terminal_spans = 0u64;
    let mut rejected_spans = 0u64;
    let mut rejection_blame: BTreeMap<&'static str, u64> = BTreeMap::new();
    for record in tracer.records() {
        match &record.event {
            LifecycleEvent::Enqueued { request, .. } => {
                enqueued_at.insert(*request, record.at);
            }
            LifecycleEvent::BatchFormed {
                action, members, ..
            } => {
                for member in members {
                    member_action.insert(*member, *action);
                }
                batch_members.insert(*action, members.clone());
            }
            LifecycleEvent::InferIssued { action, .. } => {
                infer_issued_at.insert(*action, record.at);
            }
            LifecycleEvent::InferDone {
                action,
                actual,
                ok: true,
                ..
            } => {
                infer_actual.insert(*action, *actual);
            }
            LifecycleEvent::LoadDone {
                model,
                worker,
                gpu,
                actual,
                end,
                ok: true,
                ..
            } => {
                loads
                    .entry((*worker, *gpu, *model))
                    .or_default()
                    .push((*end, *actual));
            }
            LifecycleEvent::Rejected { reason, .. } => {
                rejected_spans += 1;
                *rejection_blame
                    .entry(rejection_category(reason))
                    .or_insert(0) += 1;
            }
            LifecycleEvent::Completed { .. } | LifecycleEvent::DeadlineMissed { .. } => {
                terminal_spans += 1;
            }
            _ => {}
        }
    }

    // Second pass: decompose every terminal span, blaming violations on
    // their dominant stage. Spans are visited in record order, which is
    // deterministic for a given seed.
    let mut stages = [StageStats::default(); 5];
    let mut violation_blame = [0u64; 5];
    let mut violations = 0u64;
    let mut unattributed = 0u64;
    for record in tracer.records() {
        let (LifecycleEvent::Completed {
            request,
            model,
            arrival,
            completed,
            worker,
            gpu,
            cold,
            ..
        }
        | LifecycleEvent::DeadlineMissed {
            request,
            model,
            arrival,
            completed,
            worker,
            gpu,
            cold,
            ..
        }) = record.event
        else {
            continue;
        };
        let missed = matches!(record.event, LifecycleEvent::DeadlineMissed { .. });
        violations += u64::from(missed);
        // Reassemble the span tree; a hole (evicted span) leaves the
        // request unattributable.
        let tree = (|| {
            let t0 = *enqueued_at.get(&request)?;
            let action = *member_action.get(&request)?;
            let t1 = *infer_issued_at.get(&action)?;
            let execution = *infer_actual.get(&action)?;
            // Batch wait: the part of [t0, t1] spent waiting for the
            // batch's last member to arrive; the rest is queue/executor
            // wait.
            let last_arrival = batch_members
                .get(&action)
                .into_iter()
                .flatten()
                .filter_map(|member| enqueued_at.get(member))
                .copied()
                .max()
                .unwrap_or(t0);
            let dispatch_wait = t1.saturating_sub(t0);
            let batch_wait = last_arrival.min(t1).saturating_sub(t0);
            let queue_wait = dispatch_wait - batch_wait;
            // Cold load: the most recent completed LOAD of this model on
            // the serving executor that finished by the completion instant.
            let cold_load = if cold {
                loads
                    .get(&(worker, gpu, model))
                    .and_then(|ends| {
                        ends.iter()
                            .rev()
                            .find(|(end, _)| *end <= completed)
                            .map(|(_, actual)| *actual)
                    })
                    .unwrap_or(0)
            } else {
                0
            };
            let total = completed.saturating_sub(arrival);
            let network = total
                .saturating_sub(queue_wait)
                .saturating_sub(batch_wait)
                .saturating_sub(execution)
                .saturating_sub(cold_load);
            // In `STAGES` order.
            Some([queue_wait, cold_load, batch_wait, execution, network])
        })();
        match tree {
            Some(breakdown) => {
                for (stats, time) in stages.iter_mut().zip(breakdown) {
                    stats.record(time);
                }
                if missed {
                    violation_blame[dominant(&breakdown)] += 1;
                }
            }
            None => unattributed += u64::from(missed),
        }
    }

    BlameCell {
        run: report.outcome(),
        violations,
        spans: tracer.len() as u64,
        dropped_spans: tracer.dropped_spans(),
        trace_digest: tracer.digest(),
        terminal_spans,
        rejected_spans,
        stages,
        violation_blame,
        unattributed,
        rejection_blame,
    }
}

/// The span-conservation and attribution gates one cell must pass, on top
/// of the universal checks in `bench::invariants`. Prints a loud line per
/// violation and returns `false` if any failed.
fn check_cell(scenario: &str, cell: &BlameCell) -> bool {
    let label = format!("{scenario}/{}", cell.run.discipline);
    let mut ok = true;
    if cell.dropped_spans > 0 {
        // Attribution is best-effort once the ring wrapped; the drop count
        // is reported, never hidden, and the hard checks below need the
        // full stream.
        println!(
            "# [{label}] {} spans dropped (capacity) -- conservation checks skipped",
            cell.dropped_spans
        );
        return ok;
    }
    if cell.terminal_spans != cell.run.metrics.successes {
        eprintln!(
            "[{label}] TRACE CONSERVATION VIOLATION: {} terminal spans != {} successes",
            cell.terminal_spans, cell.run.metrics.successes
        );
        ok = false;
    }
    if cell.rejected_spans != cell.run.rejected() {
        eprintln!(
            "[{label}] TRACE CONSERVATION VIOLATION: {} rejected spans != {} rejections",
            cell.rejected_spans,
            cell.run.rejected()
        );
        ok = false;
    }
    let outcomes = cell.violations + cell.run.rejected();
    if outcomes > 0 {
        let unattributed_frac = cell.unattributed as f64 / outcomes as f64;
        if unattributed_frac > 0.01 {
            eprintln!(
                "[{label}] ATTRIBUTION VIOLATION: {:.2}% of violations+rejections unattributed (max 1%)",
                100.0 * unattributed_frac
            );
            ok = false;
        }
    }
    ok
}

fn cell_json(cell: &BlameCell) -> (&str, Value) {
    let trace = Value::obj([
        ("spans", cell.spans.into()),
        ("dropped_spans", cell.dropped_spans.into()),
        ("digest", bench::digest_json(cell.trace_digest)),
    ]);
    let stages = STAGES.iter().zip(&cell.stages).map(|(&name, stage)| {
        let times = Value::obj([
            ("mean_ms", Value::fixed(stage.mean_ms(), 3)),
            ("max_ms", Value::fixed(stage.max_ms(), 3)),
        ]);
        (name, times)
    });
    let violation_blame = STAGES
        .iter()
        .zip(cell.violation_blame)
        .map(|(&name, count)| (name, count.into()))
        .chain([("unattributed", cell.unattributed.into())]);
    let rejection_blame = cell
        .rejection_blame
        .iter()
        .map(|(&category, &n)| (category, n.into()));
    let json = Value::obj([
        ("total", cell.run.metrics.total_requests.into()),
        ("successes", cell.run.metrics.successes.into()),
        ("rejected", cell.run.rejected().into()),
        ("goodput", cell.run.metrics.goodput.into()),
        ("violations", cell.violations.into()),
        ("trace", trace),
        ("stages", Value::obj(stages)),
        ("violation_blame", Value::obj(violation_blame)),
        ("rejection_blame", Value::obj(rejection_blame)),
        ("digest", bench::digest_json(cell.run.digest)),
    ]);
    (&cell.run.discipline, json)
}

fn main() {
    let args = bench::cli::parse(USAGE, MatrixArgs::claim);
    let grid = Grid::new("trace-blame", "BENCH_blame.json", args);

    let base = |name: &str, multiplier: f64, churn: bool| {
        let preset = ScenarioSpec::fleet_scale()
            .named(name)
            .with_duration_secs(10);
        let mut spec = grid
            .args
            .apply(preset)
            .with_rate_multiplier(multiplier)
            .with_trace(true);
        if churn {
            spec.faults = spec.scripted_churn();
        }
        spec
    };
    let scenarios = [base("overload_5x", 5.0, false), base("chaos", 1.0, true)];
    grid.header_disciplines(format_args!(
        "{} scenarios, {}s, seed {}, trace capacity {}",
        scenarios.len(),
        scenarios[0].duration_secs,
        scenarios[0].seed,
        DEFAULT_TRACE_CAPACITY,
    ));

    let mut doc = vec![
        ("stages", STAGES.iter().map(|&s| Value::from(s)).collect()),
        ("trace_capacity", DEFAULT_TRACE_CAPACITY.into()),
        ("determinism_checked", grid.args.check_determinism.into()),
    ];
    for spec in &scenarios {
        bench::section(&format!(
            "{}: dominant-stage blame per discipline",
            spec.name
        ));
        println!(
            "{:<18} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
            "discipline",
            "total",
            "viol",
            "rejected",
            "queue",
            "cold",
            "batch",
            "exec",
            "net",
            "unattr",
            "spans"
        );
        let label = |name: &str| format!("{}/{name}", spec.name);
        let (cells, _) = grid.disciplines(spec, false, label, |report| {
            let cell = analyze_cell(report);
            grid.gate(check_cell(&spec.name, &cell));
            println!(
                "{:<18} {:>8} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
                cell.run.discipline,
                cell.run.metrics.total_requests,
                cell.violations,
                cell.run.rejected(),
                cell.violation_blame[0],
                cell.violation_blame[1],
                cell.violation_blame[2],
                cell.violation_blame[3],
                cell.violation_blame[4],
                cell.unattributed,
                cell.spans,
            );
            cell
        });
        let scenario = Value::obj([
            ("scenario", bench::scenario_json(spec)),
            ("disciplines", Value::obj(cells.iter().map(cell_json))),
        ]);
        doc.push((spec.name.as_str(), scenario));
    }
    grid.finish(&Value::obj(doc));
}
