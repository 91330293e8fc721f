//! The comparison figure the chaos work was building towards: every
//! discipline under the *same* chaos scenario.
//!
//! One declarative `ScenarioSpec` — the fleet-scale cluster overlaid with
//! the scripted churn schedule (two worker crashes, four GPU failures, a
//! partition window, a degraded link), i.e. `ScenarioSpec::chaos_fleet()` —
//! is run through `Experiment::run` once per discipline of
//! `bench::disciplines()`: Clockwork, the FIFO strawman, `clockwork-nobatch`
//! and the Clipper- and INFaaS-like baselines. Because the scenario, the
//! seed and the fault plan are byte-identical across runs, differences in
//! the rows are *pure policy*: how much goodput each discipline retains
//! while capacity is gone, how deep its availability-weighted goodput dips,
//! and how quickly it returns to tracking offered load after the last
//! repair.
//!
//! Per-discipline invariants are enforced, not just reported: exactly-once
//! accounting (`successes + rejected == total`), no goodput entry past its
//! SLO, the event-mix conservation identity
//! (`pushed == delivered + cancelled + live`) and, under
//! `--check-determinism`, a reproduced digest. Any violation exits non-zero.
//!
//! Results go to `BENCH_chaos_compare.json`: one object per discipline with
//! goodput, per-phase figures, availability floor, recovery time and the
//! event mix (see `crates/bench/README.md` for the schema).
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin chaos_compare -- \
//!     [--duration-secs N] [--seed N] [--out PATH] [--check-determinism] \
//!     [--max-clockwork-ratio X]
//! ```
//!
//! `--max-clockwork-ratio X` turns the run into a perf gate: it exits
//! non-zero when clockwork's wall time exceeds `X` times clipper's on the
//! same scenario (0 disables; the default). CI uses this to catch
//! tick-pipeline regressions that an absolute wall cap would miss on slower
//! runners.

use clockwork::json::Value;
use clockwork::prelude::*;

fn phase_json(p: &bench::PhaseStats) -> Value {
    Value::obj([
        ("secs", Value::fixed(p.secs, 1)),
        ("arrivals", p.arrivals.into()),
        ("goodput", p.goodput.into()),
        ("goodput_rps", Value::fixed(p.rate(), 1)),
        ("satisfaction", Value::fixed(p.satisfaction(), 4)),
    ])
}

fn cell_json((run, analysis): &(RunOutcome, bench::ChaosAnalysis)) -> (&str, Value) {
    let satisfaction = Value::obj([
        ("pre", Value::fixed(analysis.pre.satisfaction(), 4)),
        ("churn", Value::fixed(analysis.churn.satisfaction(), 4)),
        ("post", Value::fixed(analysis.post.satisfaction(), 4)),
        ("retention", Value::fixed(analysis.retention(), 4)),
    ]);
    let phases = Value::obj([
        ("pre", phase_json(&analysis.pre)),
        ("churn", phase_json(&analysis.churn)),
        ("post", phase_json(&analysis.post)),
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
        ("phases", phases),
        ("availability", availability),
        ("recovery_secs", Value::fixed(analysis.recovery_secs, 1)),
        ("identity_ok", run.identity_ok().into()),
        ("drained", run.drained().into()),
        ("live_events", run.live_events.into()),
        ("events_processed", run.events_processed.into()),
        ("wall_secs", Value::fixed(run.wall_secs, 3)),
        ("events", bench::event_mix_json(run)),
        ("sched", bench::sched_json(&run.sched)),
        ("digest", bench::digest_json(run.digest)),
    ]);
    (run.discipline.as_str(), cell)
}

fn main() {
    // Perf gate: fail if clockwork's wall time exceeds this multiple of
    // clipper's (0 disables). Clipper is the natural yardstick — same
    // per-request work, no strategy/load planning — so the ratio is robust
    // to runner speed where an absolute wall cap is not.
    let (args, max_clockwork_ratio) = bench::cli::MatrixArgs::parse_with(
        "chaos_compare",
        "BENCH_chaos_compare.json",
        "[--max-clockwork-ratio X]",
        |cli| Ok(cli.value("--max-clockwork-ratio")?.unwrap_or(0.0)),
    );
    let spec = bench::chaos_compare_spec(&args);
    let registry = bench::disciplines();

    println!(
        "# chaos-compare: {} disciplines ({}) x one scenario ({} workers x {} GPUs, {} models, {}s, {} churn events)",
        registry.len(),
        registry.names().join(", "),
        spec.workers,
        spec.gpus_per_worker,
        spec.models,
        spec.duration_secs,
        spec.faults.len(),
    );

    let experiment = Experiment::new(spec.clone());
    let mut failed = false;
    // Each run's full ServingSystem (80 GPUs of telemetry and scheduler
    // state) is reduced to its outcome and chaos analysis and dropped before
    // the next discipline runs, so peak memory holds one system, not five.
    let mut rows: Vec<(RunOutcome, bench::ChaosAnalysis)> = Vec::new();
    for factory in registry.iter() {
        println!("# running {}...", factory.name());
        let (report, ok) =
            bench::run_cell(factory.name(), &experiment, factory, args.check_determinism);
        failed |= !ok;
        rows.push((report.outcome(), bench::analyze_chaos(&report, &spec)));
    }

    bench::section("chaos_compare results (same scenario, same seed, same churn)");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9} {:>10} {:>9} {:>8}",
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
            "{:<18} {:>9} {:>9} {:>9} {:>8.4} {:>8.4} {:>8.4} {:>8.1}% {:>10.4} {:>9.1} {:>8}",
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

    if max_clockwork_ratio > 0.0 {
        let wall_of = |name: &str| {
            rows.iter()
                .find(|(run, _)| run.discipline == name)
                .map(|(run, _)| run.wall_secs)
        };
        if let (Some(clockwork), Some(clipper)) = (wall_of("clockwork"), wall_of("clipper")) {
            let ratio = clockwork / clipper.max(1e-9);
            println!(
                "# perf gate: clockwork {clockwork:.3}s / clipper {clipper:.3}s = {ratio:.2}x (max {max_clockwork_ratio:.2}x)"
            );
            if ratio > max_clockwork_ratio {
                eprintln!(
                    "PERF GATE VIOLATION: clockwork wall is {ratio:.2}x clipper's, above the {max_clockwork_ratio:.2}x cap"
                );
                failed = true;
            }
        }
    }

    let doc = Value::obj([
        ("scenario", bench::scenario_json(&spec)),
        ("churn", bench::churn_json(&spec.faults)),
        (
            "steady_fraction_of_arrivals",
            Value::fixed(bench::STEADY_FRACTION, 2),
        ),
        ("disciplines", Value::obj(rows.iter().map(cell_json))),
    ]);
    bench::write_json(&args.out, &doc);

    if failed {
        std::process::exit(1);
    }
}
