//! Shared helpers for the experiment binaries.
//!
//! `paper` regenerates the paper's tables and figures; the matrix harnesses
//! beside it, `grid` and `trace_blame`, write the `BENCH_*.json` artifacts
//! (see this crate's `README.md` for the index and the schemas). The heavy
//! lifting lives in the facade: a declarative [`ScenarioSpec`] describes the
//! experiment, a [`SchedulerRegistry`] names the disciplines, and
//! [`Experiment::run`] owns the build/submit/run loop. What remains here is
//! the harnesses' one discipline list ([`disciplines`]), cell runner
//! ([`run_cell`]) and grid runner ([`grid`]), reporting (summary rows, the
//! chaos-phase analysis, the `BENCH_*.json` plumbing), and the argument
//! parser ([`cli`]) every binary shares.

use clockwork::json::Value;
use clockwork::prelude::*;
use clockwork_baselines::register_baselines;
use clockwork_controller::RejectReason;

pub mod cli;
pub mod grid;
pub mod invariants;

/// The five disciplines every matrix harness compares, in row order: the
/// built-in registry (`clockwork`, `fifo`), `clockwork-nobatch` (the same
/// scheduler pinned to batch size 1) and the Clipper- and INFaaS-like
/// baselines.
pub fn disciplines() -> SchedulerRegistry {
    let mut registry = SchedulerRegistry::builtin();
    registry.register(Box::new(ClockworkNoBatchFactory));
    register_baselines(&mut registry);
    registry
}

/// Runs one cell of a matrix — `factory` on `experiment` — and holds it to
/// [`invariants::check_outcome`]. With `check_determinism` the cell runs
/// again and must reproduce its response digest, and its trace digest when
/// the spec is traced. Returns the first run and whether every check
/// passed; violations are printed under `label`.
pub fn run_cell(
    label: &str,
    experiment: &Experiment,
    factory: &dyn SchedulerFactory,
    check_determinism: bool,
) -> (RunReport, bool) {
    let report = experiment.run(factory);
    let run = report.outcome();
    let mut ok = invariants::check_outcome(label, &run, experiment.spec());
    if check_determinism {
        let rerun = experiment.run(factory);
        ok &= invariants::check_determinism(label, &run, &rerun.outcome());
        let trace_digest = |r: &RunReport| r.trace().map(|t| t.digest());
        if let (Some(first), Some(again)) = (trace_digest(&report), trace_digest(&rerun)) {
            if first != again {
                eprintln!(
                    "[{label}] DETERMINISM VIOLATION: trace digest {first:016x} != rerun {again:016x}"
                );
                ok = false;
            }
        }
    }
    (report, ok)
}

/// The scenario `grid chaos` runs: [`ScenarioSpec::chaos_fleet`] under the
/// name `chaos_compare`, with the flag overrides applied before the scripted
/// churn is laid over it, so the churn scales with `--duration-secs`.
pub fn chaos_compare_spec(args: &cli::MatrixArgs) -> ScenarioSpec {
    let mut spec = args.apply(ScenarioSpec::fleet_scale().named("chaos_compare"));
    spec.faults = spec.scripted_churn();
    spec
}

/// The CSV header matching [`summary_csv_row`].
pub const SUMMARY_CSV_HEADER: &str =
    "label,total,goodput,goodput_rps,satisfaction,p50_ms,p99_ms,p9999_ms,max_ms,cold_fraction,mean_batch";

/// The result row shared by most experiments: one CSV row of a run's
/// aggregate metrics.
pub fn summary_csv_row(label: &str, m: &ExperimentMetrics) -> String {
    let t = m.latency.tail_summary();
    format!(
        "{label},{},{},{:.1},{:.4},{:.2},{:.2},{:.2},{:.2},{:.4},{:.2}",
        m.total_requests,
        m.goodput,
        m.goodput_rate(),
        m.satisfaction(),
        t.p50.as_millis_f64(),
        t.p99.as_millis_f64(),
        t.p9999.as_millis_f64(),
        t.max.as_millis_f64(),
        m.cold_start_fraction(),
        m.mean_batch
    )
}

/// Prints a section header so a figure's output reads like the paper's.
pub fn section(title: &str) {
    println!();
    println!("## {title}");
}

/// Per-second goodput/arrivals fraction that counts as "recovered" in the
/// chaos analyses.
pub const STEADY_FRACTION: f64 = 0.9;

/// One phase (pre-churn / churn / post-churn) of a chaos run.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStats {
    /// Phase length in virtual seconds.
    pub secs: f64,
    /// Requests that arrived during the phase.
    pub arrivals: u64,
    /// SLO-met responses during the phase.
    pub goodput: u64,
}

impl PhaseStats {
    /// Goodput rate over the phase, in requests/second.
    pub fn rate(&self) -> f64 {
        self.goodput as f64 / self.secs.max(1e-9)
    }

    /// Goodput over offered load — satisfaction that is meaningful even
    /// though the Azure-like offered rate is non-stationary.
    pub fn satisfaction(&self) -> f64 {
        self.goodput as f64 / (self.arrivals.max(1) as f64)
    }
}

/// The chaos figures of one `grid chaos` row: phase breakdown around the
/// fault window, the availability floor, and the recovery time from the
/// last repair until goodput tracks offered load.
#[derive(Clone, Copy, Debug)]
pub struct ChaosAnalysis {
    /// When the first fault fires, in virtual seconds.
    pub first_fault_secs: f64,
    /// When the last recovery lands, in virtual seconds.
    pub last_recovery_secs: f64,
    /// Before the first fault.
    pub pre: PhaseStats,
    /// Between first fault and last recovery.
    pub churn: PhaseStats,
    /// After the last recovery.
    pub post: PhaseStats,
    /// Minimum fleet availability observed across the run.
    pub min_availability: f64,
    /// Fleet availability after the last fault event.
    pub final_availability: f64,
    /// Seconds from the last repair until a per-second bucket's goodput is
    /// back to ≥ [`STEADY_FRACTION`] of that bucket's arrivals (−1.0 when
    /// steady goodput is never reached within the run).
    pub recovery_secs: f64,
}

impl ChaosAnalysis {
    /// Churn-phase satisfaction retained relative to the pre-churn phase.
    pub fn retention(&self) -> f64 {
        let pre = self.pre.satisfaction();
        if pre > 0.0 {
            self.churn.satisfaction() / pre
        } else {
            0.0
        }
    }
}

/// The churn window of a fault plan: its first fault, and its last recovery
/// — or the first fault again when nothing recovers, so the churn phase is
/// empty rather than negative.
fn fault_window(plan: &FaultPlan) -> (Timestamp, Timestamp) {
    let first_fault = plan.first_at().unwrap_or(Timestamp::ZERO);
    (first_fault, plan.last_recovery_at().unwrap_or(first_fault))
}

fn secs(t: Timestamp) -> f64 {
    t.as_nanos() as f64 / 1e9
}

/// Computes the chaos phase/availability/recovery analysis of a finished
/// run against the scenario's fault plan.
pub fn analyze_chaos(report: &RunReport, spec: &ScenarioSpec) -> ChaosAnalysis {
    let telemetry = report.telemetry();
    let (first_fault, last_recovery) = fault_window(&spec.faults);
    let end = Timestamp::ZERO + spec.duration();
    let tick = Nanos::from_secs(1);

    let phase = |from: Timestamp, to: Timestamp, secs: f64| PhaseStats {
        secs: secs.max(1e-9),
        arrivals: telemetry.arrivals_between(from, to),
        goodput: telemetry.goodput_between(from, to),
    };
    let first_fault_secs = secs(first_fault);
    let last_recovery_secs = secs(last_recovery);
    let pre = phase(Timestamp::ZERO, first_fault - tick, first_fault_secs);
    let churn = phase(
        first_fault,
        last_recovery - tick,
        last_recovery_secs - first_fault_secs,
    );
    let post = phase(
        last_recovery,
        end,
        spec.duration_secs as f64 - last_recovery_secs,
    );

    // Recovery time: from the last repair until a per-second bucket's
    // goodput is back to >= STEADY_FRACTION of the requests that arrived in
    // that bucket. The offered load is non-stationary, so steadiness is
    // relative to arrivals rather than to an absolute pre-churn rate.
    let from_bucket = (last_recovery.as_nanos() / tick.as_nanos()) as usize;
    let to_bucket = (end.as_nanos() / tick.as_nanos()) as usize;
    let mut recovery_secs = -1.0;
    for bucket in from_bucket..=to_bucket {
        let row = telemetry.second(bucket);
        if row.arrivals == 0 {
            continue;
        }
        if row.goodput as f64 >= STEADY_FRACTION * row.arrivals as f64 {
            let bucket_start = bucket as f64; // 1 s buckets
            recovery_secs = (bucket_start - last_recovery_secs).max(0.0);
            break;
        }
    }

    ChaosAnalysis {
        first_fault_secs,
        last_recovery_secs,
        pre,
        churn,
        post,
        min_availability: telemetry.min_availability(),
        final_availability: telemetry.final_availability(),
        recovery_secs,
    }
}

/// The event mix as the `"events"` object of the `BENCH_*.json` schemas
/// (see `crates/bench/README.md`); `by_kind` lists the kinds that occurred.
pub fn event_mix_json(run: &RunOutcome) -> Value {
    let mix = &run.mix;
    let by_kind = mix
        .entries()
        .iter()
        .filter(|e| e.pushed != 0 || e.delivered != 0 || e.cancelled != 0)
        .map(|e| {
            let counts = Value::obj([
                ("pushed", e.pushed.into()),
                ("delivered", e.delivered.into()),
                ("cancelled", e.cancelled.into()),
            ]);
            (e.kind, counts)
        });
    Value::obj([
        ("pushed", mix.pushed().into()),
        ("delivered", mix.delivered().into()),
        ("cancelled", mix.cancelled().into()),
        ("live", run.live_events.into()),
        ("noop_wakes", mix.noop_wakes().into()),
        ("by_kind", Value::obj(by_kind)),
    ])
}

/// The scheduler self-profiling counters as the `"sched"` object of the
/// `BENCH_*.json` schemas (see `crates/bench/README.md`).
pub fn sched_json(sched: &SchedProfile) -> Value {
    Value::obj([
        ("ticks_full", sched.ticks_full.into()),
        ("ticks_skipped", sched.ticks_skipped.into()),
        ("candidates_scanned", sched.candidates_scanned.into()),
        ("strategies_recomputed", sched.strategies_recomputed.into()),
        ("load_prio_recomputes", sched.load_prio_recomputes.into()),
    ])
}

/// Prints one scheduler self-profiling row: how many ticks did real work vs
/// early-outed, and how much the work-proportional stages actually scanned.
/// The early-out fraction is the direct measure of the change-driven core —
/// a rebuild-the-world scheduler would show `skipped=0`.
pub fn report_sched_profile(label: &str, sched: &SchedProfile) {
    let ticks = sched.ticks();
    let skipped_frac = if ticks > 0 {
        sched.ticks_skipped as f64 / ticks as f64
    } else {
        0.0
    };
    println!(
        "{:<18} ticks={:<9} full={:<9} skipped={:<9} ({:>5.1}% early-out) candidates={:<11} strat_rebuilds={:<9} load_prio={}",
        label,
        ticks,
        sched.ticks_full,
        sched.ticks_skipped,
        100.0 * skipped_frac,
        sched.candidates_scanned,
        sched.strategies_recomputed,
        sched.load_prio_recomputes,
    );
}

/// A [`ScenarioSpec`] as the `"scenario"` object shared by the
/// `BENCH_*.json` schemas.
pub fn scenario_json(spec: &ScenarioSpec) -> Value {
    let (functions, target_rate) = match spec.workload {
        WorkloadSpec::Azure {
            functions,
            target_rate,
        } => (functions, target_rate),
        WorkloadSpec::OpenLoop { rate_per_model } => (0, rate_per_model * spec.models as f64),
        WorkloadSpec::ClosedLoop { .. } => (0, 0.0),
        WorkloadSpec::Shaped { base_rate, .. } => (0, base_rate),
    };
    Value::obj([
        ("name", spec.name.as_str().into()),
        ("workers", spec.workers.into()),
        ("gpus_per_worker", spec.gpus_per_worker.into()),
        ("models", spec.models.into()),
        ("functions", functions.into()),
        ("duration_secs", spec.duration_secs.into()),
        ("target_rate", target_rate.into()),
        ("slo_ms", spec.slo_ms.into()),
        ("seed", spec.seed.into()),
    ])
}

/// The `"churn"` object of `BENCH_chaos_compare.json`: the plan's fault
/// counts and the window [`analyze_chaos`] splits its phases at.
pub fn churn_json(plan: &FaultPlan) -> Value {
    let (first_fault, last_recovery) = fault_window(plan);
    Value::obj([
        ("worker_crashes", plan.worker_crashes().into()),
        ("gpu_failures", plan.gpu_failures().into()),
        ("partitions", plan.partitions().into()),
        ("link_degradations", plan.link_degradations().into()),
        ("first_fault_secs", Value::fixed(secs(first_fault), 3)),
        ("last_recovery_secs", Value::fixed(secs(last_recovery), 3)),
    ])
}

/// The rate a set of runs actually offered: their arrivals over the run
/// duration. Runs of one trace must all have seen the same total; `None` if
/// they disagree or there are none.
pub fn offered_rps(totals: &[u64], duration_secs: u64) -> Option<f64> {
    let (&arrivals, rest) = totals.split_first()?;
    rest.iter()
        .all(|&total| total == arrivals)
        .then(|| arrivals as f64 / duration_secs as f64)
}

/// Every reject reason, in declaration order: the keys of a row's
/// `rejected_by_reason`.
const REJECT_REASONS: [RejectReason; 6] = [
    RejectReason::CannotMeetSlo,
    RejectReason::DeadlineElapsed,
    RejectReason::UnknownModel,
    RejectReason::WorkerRejected,
    RejectReason::WorkerFailed,
    RejectReason::BestEffortShed,
];

/// A run's rejections under every reject reason, in declaration order,
/// zeros included. They sum to the run's rejections unless one is counted
/// under a key the list of reasons lacks.
pub fn rejected_by_reason(m: &ExperimentMetrics) -> Vec<(&'static str, u64)> {
    REJECT_REASONS
        .iter()
        .map(|reason| {
            let key = reason.as_str();
            (key, m.rejections.get(key).copied().unwrap_or(0))
        })
        .collect()
}

/// [`rejected_by_reason`] as one CSV field or table cell: the non-zero
/// `reason=count` pairs joined by `;`, or `none`.
pub fn rejected_by_reason_field(m: &ExperimentMetrics) -> String {
    let pairs: Vec<String> = rejected_by_reason(m)
        .into_iter()
        .filter(|&(_, count)| count > 0)
        .map(|(reason, count)| format!("{reason}={count}"))
        .collect();
    if pairs.is_empty() {
        return "none".to_string();
    }
    pairs.join(";")
}

/// [`rejected_by_reason`] as the `BENCH_*.json` schemas write it: an
/// object with every reason's count.
pub fn rejected_by_reason_json(m: &ExperimentMetrics) -> Value {
    Value::obj(
        rejected_by_reason(m)
            .into_iter()
            .map(|(reason, count)| (reason, count.into())),
    )
}

/// A run's 16-hex-digit FNV-1a digest, as the `BENCH_*.json` schemas write
/// it.
pub fn digest_json(digest: u64) -> Value {
    Value::Str(format!("{digest:016x}"))
}

/// Writes `doc` to `path` in the artifact layout ([`Value::to_pretty`]) and
/// says so on stdout.
pub fn write_json(path: &str, doc: &Value) {
    std::fs::write(path, doc.to_pretty() + "\n").expect("write results json");
    println!("# wrote {path}");
}

/// Peak resident-set size in kilobytes, read from `/proc/self/status`
/// (`VmHWM`). Returns 0 where the proc filesystem is unavailable — the field
/// is a proxy for memory footprint, not a portable measurement.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_shard::{ShardAssignment, ShardedExperiment, ShardedSpec};

    #[test]
    fn chaos_analysis_and_invariants_on_a_tiny_chaos_run() {
        let mut spec = ScenarioSpec {
            workers: 2,
            gpus_per_worker: 1,
            models: 4,
            duration_secs: 5,
            ..ScenarioSpec::smoke(5)
        }
        .named("tiny_chaos");
        spec.faults =
            FaultPlan::new().crash_worker_for(Timestamp::from_secs(1), 1, Nanos::from_secs(1));
        let report = Experiment::new(spec.clone()).run(&ClockworkFactory::default());
        assert!(invariants::check_accounting(
            "tiny",
            &report.outcome(),
            &spec
        ));
        let analysis = analyze_chaos(&report, &spec);
        assert!((analysis.first_fault_secs - 1.0).abs() < 1e-9);
        assert!((analysis.last_recovery_secs - 2.0).abs() < 1e-9);
        assert!(analysis.min_availability <= 0.5 + 1e-9);
        assert!(analysis.final_availability > 0.99);
        assert!(analysis.pre.arrivals > 0);
        assert!(analysis.retention() > 0.0);
    }

    #[test]
    fn churn_block_matches_the_analysis_when_nothing_recovers() {
        let mut spec = ScenarioSpec {
            workers: 2,
            gpus_per_worker: 1,
            models: 4,
            duration_secs: 3,
            ..ScenarioSpec::smoke(5)
        };
        spec.faults = FaultPlan::new().crash_worker(Timestamp::from_secs(1), 1);
        let report = Experiment::new(spec.clone()).run(&ClockworkFactory::default());
        let analysis = analyze_chaos(&report, &spec);
        let churn = churn_json(&spec.faults);
        // No restart: the window closes at the first fault, in the block and
        // in the phases alike (not at 0, which would put the churn phase
        // before the fault).
        assert_eq!(analysis.last_recovery_secs, 1.0);
        for (key, secs) in [
            ("first_fault_secs", analysis.first_fault_secs),
            ("last_recovery_secs", analysis.last_recovery_secs),
        ] {
            assert_eq!(churn.get(key), Ok(&Value::fixed(secs, 3)), "{key}");
        }
        assert_eq!(churn.get("worker_crashes"), Ok(&Value::from(1u64)));
    }

    #[test]
    fn chaos_compare_runs_the_chaos_fleet_preset() {
        // At default flags `grid chaos` runs exactly the `chaos_fleet`
        // preset, under its own name.
        let spec = chaos_compare_spec(&cli::tests::matrix(&[]).unwrap());
        assert_eq!(
            spec.named("chaos_fleet").to_json(),
            ScenarioSpec::chaos_fleet().to_json()
        );
        // A shortened run carries the churn scaled to its own length.
        let short = chaos_compare_spec(&cli::tests::matrix(&["--duration-secs", "10"]).unwrap());
        let expected = ScenarioSpec::fleet_scale().with_duration_secs(10);
        assert_eq!(short.duration_secs, 10);
        assert_eq!(short.faults, expected.scripted_churn());
    }

    #[test]
    fn offered_rps_is_arrivals_over_duration() {
        let spec = ScenarioSpec::smoke(7).with_duration_secs(3);
        let experiment = Experiment::new(spec);
        let registry = disciplines();
        let arrivals = experiment.run(&ClockworkFactory::default()).submitted;
        assert!(arrivals > 0);
        let totals = ["clockwork", "fifo"].map(|name| {
            experiment
                .run(registry.get(name).unwrap())
                .metrics()
                .total_requests
        });
        assert_eq!(offered_rps(&totals, 3), Some(arrivals as f64 / 3.0));
        // A discipline that saw a different total fails the load.
        assert_eq!(offered_rps(&[totals[0], totals[1] - 1], 3), None);
    }

    #[test]
    fn every_shard_count_offers_the_same_arrivals() {
        let spec = ScenarioSpec::smoke(7).with_duration_secs(3);
        let arrivals = Experiment::new(spec.clone())
            .run(&ClockworkFactory::default())
            .submitted;
        assert!(arrivals > 0);
        let totals = [1, 2].map(|shards| {
            let sharded = ShardedSpec::new(spec.clone(), shards, ShardAssignment::HashByModel);
            let fleet = ShardedExperiment::new(sharded).run(&ClockworkFactory::default());
            fleet.merged().metrics.total_requests
        });
        assert_eq!(offered_rps(&totals, 3), Some(arrivals as f64 / 3.0));
        // A shard count that saw a different total fails the sweep.
        assert_eq!(offered_rps(&[totals[0], totals[1] - 1], 3), None);
    }

    #[test]
    fn disciplines_lists_all_five_in_row_order() {
        assert_eq!(
            disciplines().names().join(" "),
            "clockwork fifo clockwork-nobatch clipper infaas"
        );
    }

    #[test]
    fn scenario_block_keeps_a_hostile_name() {
        let name = "hostile \"quoted\"\nname";
        let spec = ScenarioSpec::smoke(1).named(name);
        let text = scenario_json(&spec).to_pretty();
        let back = clockwork::json::parse(&text).expect("the scenario block parses");
        assert_eq!(back.get("name").and_then(|v| v.as_str("name")), Ok(name));
    }

    #[test]
    fn summary_round_trips_from_a_report() {
        let spec = ScenarioSpec {
            workers: 1,
            gpus_per_worker: 1,
            models: 2,
            model_set: ModelSet::Resnet50Copies,
            workload: WorkloadSpec::ClosedLoop { concurrency: 4 },
            duration_secs: 1,
            drain_secs: 0,
            ..ScenarioSpec::smoke(1)
        };
        let report = Experiment::new(spec).run(&ClockworkFactory::default());
        let m = report.metrics();
        assert!(m.total_requests > 0);
        assert!(m.satisfaction() > 0.5);
        let row = summary_csv_row("smoke", &m);
        assert!(row.starts_with(&format!("smoke,{},{},", m.total_requests, m.goodput)));
        assert_eq!(
            row.split(',').count(),
            SUMMARY_CSV_HEADER.split(',').count()
        );
    }
}
