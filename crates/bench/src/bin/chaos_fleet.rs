//! Chaos bench: the fleet-scale scenario overlaid with scripted fleet churn.
//!
//! Runs the exact `fleet_scale` cluster (`ScenarioSpec::fleet_scale`) but
//! with a fault plan that kills two workers, fails four additional GPUs,
//! partitions one worker and degrades another's link mid-run, then recovers
//! everything. The point is the paper's central claim under *hard* faults
//! rather than soft interference: goodput dips while capacity is gone,
//! nothing is silently lost (`successes + rejected == total`), goodput only
//! counts on-time responses, and the run stays a pure function of its seed —
//! the fault events themselves are folded into the FNV-1a digest.
//!
//! Results go to `BENCH_chaos.json`: goodput retained during and after the
//! churn window, the fleet-availability floor, and the recovery time from
//! the last repair until steady goodput. The Azure-like workload is
//! non-stationary, so "steady" is defined against offered load, not an
//! absolute rate: a second counts as recovered when its goodput is ≥90 % of
//! the requests that arrived in that second.
//!
//! For the same chaos scenario compared across *all* registered disciplines,
//! see the `chaos_compare` binary.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin chaos_fleet -- \
//!     [--events N] [--out PATH] [--seed N] [--duration-secs N] \
//!     [--check-determinism] [--expect-digest HEX]
//! ```
//!
//! `--duration-secs` scales the whole experiment (trace and churn schedule
//! together); CI runs a short full run twice via `--check-determinism` so
//! the accounting identity and digest stability are both exercised cheaply.

use clockwork::json::Value;
use clockwork::prelude::*;

const USAGE: &str = "chaos_fleet [--events N] [--out PATH] [--seed N] [--duration-secs N] \
                     [--check-determinism] [--expect-digest HEX]";

struct Args {
    max_events: u64,
    out: String,
    seed: u64,
    duration_secs: u64,
    check_determinism: bool,
    expect_digest: Option<u64>,
}

impl Args {
    fn parse(cli: &mut bench::cli::Cli) -> Result<Args, String> {
        Ok(Args {
            max_events: cli.value("--events")?.unwrap_or(u64::MAX),
            out: cli.value("--out")?.unwrap_or("BENCH_chaos.json".into()),
            seed: cli.value("--seed")?.unwrap_or(2020),
            duration_secs: cli.value("--duration-secs")?.unwrap_or(120),
            check_determinism: cli.switch("--check-determinism"),
            expect_digest: cli.hex_u64("--expect-digest")?,
        })
    }
}

fn main() {
    let args = bench::cli::parse(USAGE, Args::parse);
    // The chaos spec is the fleet spec plus a churn plan — duration first,
    // so the scripted schedule scales with it.
    let mut spec = ScenarioSpec::fleet_scale()
        .named("chaos_fleet")
        .with_seed(args.seed)
        .with_duration_secs(args.duration_secs);
    spec.faults = spec.scripted_churn();
    let plan = spec.faults.clone();
    println!(
        "# chaos-fleet scenario: {} workers x {} GPUs, {} models, {}s, churn: {} worker crashes + {} GPU failures + {} partition(s) + {} degraded link(s)",
        spec.workers,
        spec.gpus_per_worker,
        spec.models,
        spec.duration_secs,
        plan.worker_crashes(),
        plan.gpu_failures(),
        plan.partitions(),
        plan.link_degradations(),
    );

    let experiment = Experiment::new(spec.clone());
    let discipline = ClockworkFactory::default();
    let report = experiment.run_capped(&discipline, args.max_events);
    let run = report.outcome();
    let label = run.discipline.as_str();
    let mut failed = false;

    if args.check_determinism {
        let again = experiment
            .run_capped(&discipline, args.max_events)
            .outcome();
        if !bench::invariants::check_determinism(label, &run, &again) {
            failed = true;
        } else {
            println!(
                "# determinism: two same-seed runs agree ({:016x})",
                run.digest
            );
        }
    }
    if let Some(expected) = args.expect_digest {
        if !bench::invariants::check_expected_digest(label, expected, &run) {
            failed = true;
        }
    }
    if !bench::invariants::check_accounting(label, &run, &spec) {
        failed = true;
    }

    let m = &run.metrics;
    let rejected = run.rejected();
    let analysis = bench::analyze_chaos(&report, &spec);
    let events_per_sec = run.events_per_sec();

    bench::section("chaos_fleet results");
    println!(
        "discipline={} requests={} successes={} rejected={} goodput={} identity_ok={}",
        run.discipline,
        m.total_requests,
        m.successes,
        rejected,
        m.goodput,
        run.identity_ok()
    );
    println!(
        "goodput_rps pre={:.1} churn={:.1} post={:.1}; satisfaction pre={:.4} churn={:.4} post={:.4} (churn retains {:.1}% of pre satisfaction)",
        analysis.pre.rate(),
        analysis.churn.rate(),
        analysis.post.rate(),
        analysis.pre.satisfaction(),
        analysis.churn.satisfaction(),
        analysis.post.satisfaction(),
        100.0 * analysis.retention()
    );
    println!(
        "availability min={:.4} final={:.4} recovery_secs={:.1}",
        analysis.min_availability, analysis.final_availability, analysis.recovery_secs
    );
    println!(
        "events={} wall_secs={:.2} events_per_sec={events_per_sec:.0} peak_rss_kb={}",
        run.events_processed,
        run.wall_secs,
        bench::peak_rss_kb()
    );
    println!("digest={:016x}", run.digest);

    bench::section("scheduler self-profiling");
    bench::report_sched_profile(label, &run.sched);

    // Event-mix breakdown + conservation check; churn cancels wakes en
    // masse (crashed workers never act again), so the cancelled column is
    // part of the chaos story, not just perf hygiene.
    if !bench::report_event_mix(&run) {
        failed = true;
    }

    let phase = |p: &bench::PhaseStats| {
        Value::obj([
            ("secs", Value::fixed(p.secs, 1)),
            ("arrivals", p.arrivals.into()),
            ("goodput", p.goodput.into()),
            ("goodput_rps", Value::fixed(p.rate(), 1)),
            ("satisfaction", Value::fixed(p.satisfaction(), 4)),
        ])
    };
    let phases = Value::obj([
        ("pre", phase(&analysis.pre)),
        ("churn", phase(&analysis.churn)),
        ("post", phase(&analysis.post)),
        (
            "churn_satisfaction_retention",
            Value::fixed(analysis.retention(), 4),
        ),
    ]);
    let availability = Value::obj([
        ("min", Value::fixed(analysis.min_availability, 4)),
        ("final", Value::fixed(analysis.final_availability, 4)),
    ]);
    let recovery = Value::obj([
        ("recovery_secs", Value::fixed(analysis.recovery_secs, 1)),
        (
            "steady_fraction_of_arrivals",
            Value::fixed(bench::STEADY_FRACTION, 2),
        ),
    ]);
    let accounting = Value::obj([
        ("total", m.total_requests.into()),
        ("successes", m.successes.into()),
        ("rejected", rejected.into()),
        ("goodput", m.goodput.into()),
        ("identity_ok", run.identity_ok().into()),
        ("drained", run.drained().into()),
    ]);
    let perf = Value::obj([
        ("events_processed", run.events_processed.into()),
        ("wall_secs", Value::fixed(run.wall_secs, 3)),
        ("events_per_sec", Value::fixed(events_per_sec, 0)),
        ("peak_rss_kb", bench::peak_rss_kb().into()),
    ]);
    let doc = Value::obj([
        ("scenario", bench::scenario_json(&spec, args.max_events)),
        ("discipline", label.into()),
        ("churn", bench::churn_json(&plan)),
        ("phases", phases),
        ("availability", availability),
        ("recovery", recovery),
        ("accounting", accounting),
        ("perf", perf),
        ("events", bench::event_mix_json(&run)),
        ("sched", bench::sched_json(&run.sched)),
        ("digest", bench::digest_json(run.digest)),
    ]);
    bench::write_json(&args.out, &doc);

    if failed {
        std::process::exit(1);
    }
}
