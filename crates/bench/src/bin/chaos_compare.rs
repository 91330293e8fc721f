//! The comparison figure the chaos work was building towards: every
//! registered discipline under the *same* chaos scenario.
//!
//! One declarative `ScenarioSpec` — the fleet-scale cluster overlaid with
//! the scripted churn schedule (two worker crashes, four GPU failures, a
//! partition window, a degraded link) — is run through `Experiment::run`
//! once per discipline in the registry: Clockwork, the FIFO strawman, the
//! Clipper-like baseline and the INFaaS-like baseline. Because the scenario,
//! the seed and the fault plan are byte-identical across runs, differences
//! in the rows are *pure policy*: how much goodput each discipline retains
//! while capacity is gone, how deep its availability-weighted goodput dips,
//! and how quickly it returns to tracking offered load after the last
//! repair.
//!
//! Per-discipline invariants are enforced, not just reported: exactly-once
//! accounting (`successes + rejected == total`), no goodput entry past its
//! SLO, and the event-mix conservation identity
//! (`pushed == delivered + cancelled + live`). Any violation exits non-zero,
//! which is what CI's smoke step relies on.
//!
//! Results go to `BENCH_chaos_compare.json`: one object per discipline with
//! goodput, phase satisfaction, availability floor and recovery time (see
//! `crates/bench/README.md` for the schema).
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin chaos_compare -- \
//!     [--duration-secs N] [--events N] [--out PATH] [--seed N] \
//!     [--max-clockwork-ratio X]
//! ```
//!
//! `--max-clockwork-ratio X` turns the run into a perf gate: it exits
//! non-zero when clockwork's wall time exceeds `X` times clipper's on the
//! same scenario (0 disables; the default). CI's smoke step uses this to
//! catch tick-pipeline regressions that an absolute wall cap would miss on
//! slower runners.

use clockwork::json::Value;
use clockwork::prelude::*;
use clockwork_baselines::register_baselines;

const USAGE: &str = "chaos_compare [--duration-secs N] [--events N] [--out PATH] [--seed N] \
                     [--max-clockwork-ratio X]";

struct Args {
    max_events: u64,
    out: String,
    seed: u64,
    duration_secs: u64,
    /// Perf gate: fail if clockwork's wall time exceeds this multiple of
    /// clipper's (0 disables). Clipper is the natural yardstick — same
    /// per-request work, no strategy/load planning — so the ratio is robust
    /// to runner speed where an absolute wall cap is not.
    max_clockwork_ratio: f64,
}

impl Args {
    fn parse(cli: &mut bench::cli::Cli) -> Result<Args, String> {
        Ok(Args {
            max_events: cli.value("--events")?.unwrap_or(u64::MAX),
            out: cli
                .value("--out")?
                .unwrap_or("BENCH_chaos_compare.json".into()),
            seed: cli.value("--seed")?.unwrap_or(2020),
            duration_secs: cli.value("--duration-secs")?.unwrap_or(120),
            max_clockwork_ratio: cli.value("--max-clockwork-ratio")?.unwrap_or(0.0),
        })
    }
}

fn main() {
    let args = bench::cli::parse(USAGE, Args::parse);
    let mut spec = ScenarioSpec::fleet_scale()
        .named("chaos_compare")
        .with_seed(args.seed)
        .with_duration_secs(args.duration_secs);
    spec.faults = spec.scripted_churn();
    let plan = spec.faults.clone();

    let mut registry = SchedulerRegistry::builtin();
    register_baselines(&mut registry);

    println!(
        "# chaos-compare: {} disciplines ({}) x one scenario ({} workers x {} GPUs, {} models, {}s, {} churn events)",
        registry.len(),
        registry.names().join(", "),
        spec.workers,
        spec.gpus_per_worker,
        spec.models,
        spec.duration_secs,
        plan.len(),
    );

    let experiment = Experiment::new(spec.clone());
    let mut failed = false;
    // Each run's full ServingSystem (80 GPUs of telemetry and scheduler
    // state) is reduced to its outcome and chaos analysis and dropped before
    // the next discipline runs, so peak memory holds one system, not four.
    let mut rows: Vec<(RunOutcome, bench::ChaosAnalysis)> = Vec::new();
    for factory in registry.iter() {
        let label = factory.name();
        println!("# running {label}...");
        let report = experiment.run_capped(factory, args.max_events);
        let run = report.outcome();
        if !bench::invariants::check_outcome(label, &run, &spec) {
            failed = true;
        }
        rows.push((run, bench::analyze_chaos(&report, &spec)));
    }

    bench::section("chaos_compare results (same scenario, same seed, same churn)");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>10} {:>9} {:>8}",
        "discipline",
        "total",
        "goodput",
        "rejected",
        "sat_pre",
        "sat_churn",
        "sat_post",
        "retention",
        "avail_min",
        "recov_s",
        "backlog"
    );
    for (run, analysis) in &rows {
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>8.4} {:>8.4} {:>8.4} {:>8.1}% {:>10.4} {:>9.1} {:>8}",
            run.discipline,
            run.metrics.total_requests,
            run.metrics.goodput,
            run.rejected(),
            analysis.pre.satisfaction(),
            analysis.churn.satisfaction(),
            analysis.post.satisfaction(),
            100.0 * analysis.retention(),
            analysis.min_availability,
            analysis.recovery_secs,
            run.backlog(),
        );
    }

    bench::section("scheduler self-profiling (ticks that did work vs early-outs)");
    for (run, _) in &rows {
        bench::report_sched_profile(&run.discipline, &run.sched);
    }

    if args.max_clockwork_ratio > 0.0 {
        let wall_of = |name: &str| {
            rows.iter()
                .find(|(run, _)| run.discipline == name)
                .map(|(run, _)| run.wall_secs)
        };
        if let (Some(clockwork), Some(clipper)) = (wall_of("clockwork"), wall_of("clipper")) {
            let ratio = clockwork / clipper.max(1e-9);
            println!(
                "# perf gate: clockwork {clockwork:.3}s / clipper {clipper:.3}s = {ratio:.2}x (max {:.2}x)",
                args.max_clockwork_ratio
            );
            if ratio > args.max_clockwork_ratio {
                eprintln!(
                    "PERF GATE VIOLATION: clockwork wall is {ratio:.2}x clipper's, above the {:.2}x cap",
                    args.max_clockwork_ratio
                );
                failed = true;
            }
        }
    }

    let disciplines = rows.iter().map(|(run, analysis)| {
        let satisfaction = Value::obj([
            ("pre", Value::fixed(analysis.pre.satisfaction(), 4)),
            ("churn", Value::fixed(analysis.churn.satisfaction(), 4)),
            ("post", Value::fixed(analysis.post.satisfaction(), 4)),
            ("retention", Value::fixed(analysis.retention(), 4)),
        ]);
        let availability = Value::obj([
            ("min", Value::fixed(analysis.min_availability, 4)),
            ("final", Value::fixed(analysis.final_availability, 4)),
        ]);
        let cell = Value::obj([
            ("total", run.metrics.total_requests.into()),
            ("successes", run.metrics.successes.into()),
            ("rejected", run.rejected().into()),
            ("goodput", run.metrics.goodput.into()),
            ("goodput_rps", Value::fixed(run.metrics.goodput_rate(), 1)),
            ("satisfaction", satisfaction),
            ("availability", availability),
            ("recovery_secs", Value::fixed(analysis.recovery_secs, 1)),
            ("identity_ok", run.identity_ok().into()),
            ("drained", run.drained().into()),
            ("live_events", run.live_events.into()),
            ("events_processed", run.events_processed.into()),
            ("wall_secs", Value::fixed(run.wall_secs, 3)),
            ("sched", bench::sched_json(&run.sched)),
            ("digest", bench::digest_json(run.digest)),
        ]);
        (run.discipline.as_str(), cell)
    });
    let doc = Value::obj([
        ("scenario", bench::scenario_json(&spec, args.max_events)),
        ("churn", bench::churn_json(&plan)),
        (
            "steady_fraction_of_arrivals",
            Value::fixed(bench::STEADY_FRACTION, 2),
        ),
        ("disciplines", Value::obj(disciplines)),
    ]);
    bench::write_json(&args.out, &doc);

    if failed {
        std::process::exit(1);
    }
}
