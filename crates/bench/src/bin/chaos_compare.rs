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

    let discipline_objects: Vec<String> = rows
        .iter()
        .map(|(run, analysis)| {
            format!(
                concat!(
                    "    \"{name}\": {{\n",
                    "      \"total\": {total},\n",
                    "      \"successes\": {successes},\n",
                    "      \"rejected\": {rejected},\n",
                    "      \"goodput\": {goodput},\n",
                    "      \"goodput_rps\": {goodput_rps:.1},\n",
                    "      \"satisfaction\": {{ \"pre\": {pre:.4}, \"churn\": {churn:.4}, \"post\": {post:.4}, \"retention\": {retention:.4} }},\n",
                    "      \"availability\": {{ \"min\": {avail_min:.4}, \"final\": {avail_final:.4} }},\n",
                    "      \"recovery_secs\": {recovery:.1},\n",
                    "      \"identity_ok\": {identity_ok},\n",
                    "      \"drained\": {drained},\n",
                    "      \"live_events\": {live},\n",
                    "      \"events_processed\": {events},\n",
                    "      \"wall_secs\": {wall:.3},\n",
                    "      \"sched\": {sched},\n",
                    "      \"digest\": \"{digest:016x}\"\n",
                    "    }}"
                ),
                name = run.discipline,
                total = run.metrics.total_requests,
                successes = run.metrics.successes,
                rejected = run.rejected(),
                goodput = run.metrics.goodput,
                goodput_rps = run.metrics.goodput_rate(),
                pre = analysis.pre.satisfaction(),
                churn = analysis.churn.satisfaction(),
                post = analysis.post.satisfaction(),
                retention = analysis.retention(),
                avail_min = analysis.min_availability,
                avail_final = analysis.final_availability,
                recovery = analysis.recovery_secs,
                identity_ok = run.identity_ok(),
                drained = run.drained(),
                live = run.live_events,
                events = run.events_processed,
                wall = run.wall_secs,
                sched = bench::sched_json(&run.sched),
                digest = run.digest,
            )
        })
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": {scenario},\n",
            "  \"churn\": {{\n",
            "    \"worker_crashes\": {crashes},\n",
            "    \"gpu_failures\": {gpu_failures},\n",
            "    \"partitions\": {partitions},\n",
            "    \"link_degradations\": {degradations},\n",
            "    \"first_fault_secs\": {first_fault:.3},\n",
            "    \"last_recovery_secs\": {last_recovery:.3}\n",
            "  }},\n",
            "  \"steady_fraction_of_arrivals\": {steady:.2},\n",
            "  \"disciplines\": {{\n",
            "{disciplines}\n",
            "  }}\n",
            "}}\n",
        ),
        scenario = bench::scenario_json(&spec, args.max_events),
        crashes = plan.worker_crashes(),
        gpu_failures = plan.gpu_failures(),
        partitions = plan.partitions(),
        degradations = plan.link_degradations(),
        first_fault = plan
            .first_at()
            .map(|t| t.as_nanos() as f64 / 1e9)
            .unwrap_or(0.0),
        last_recovery = plan
            .last_recovery_at()
            .map(|t| t.as_nanos() as f64 / 1e9)
            .unwrap_or(0.0),
        steady = bench::STEADY_FRACTION,
        disciplines = discipline_objects.join(",\n"),
    );
    std::fs::write(&args.out, &json).expect("write results json");
    println!("# wrote {}", args.out);

    if failed {
        std::process::exit(1);
    }
}
