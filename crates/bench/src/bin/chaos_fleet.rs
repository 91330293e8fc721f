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
    let events_json = bench::event_mix_json(&run);

    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": {scenario},\n",
            "  \"discipline\": \"{discipline}\",\n",
            "  \"churn\": {{\n",
            "    \"worker_crashes\": {crashes},\n",
            "    \"gpu_failures\": {gpu_failures},\n",
            "    \"partitions\": {partitions},\n",
            "    \"link_degradations\": {degradations},\n",
            "    \"first_fault_secs\": {first_fault:.3},\n",
            "    \"last_recovery_secs\": {last_recovery:.3}\n",
            "  }},\n",
            "  \"phases\": {{\n",
            "    \"pre\": {{ \"secs\": {pre_secs:.1}, \"arrivals\": {pre_arrivals}, \"goodput\": {pre_goodput}, \"goodput_rps\": {pre_rate:.1}, \"satisfaction\": {pre_sat:.4} }},\n",
            "    \"churn\": {{ \"secs\": {churn_secs:.1}, \"arrivals\": {churn_arrivals}, \"goodput\": {churn_goodput}, \"goodput_rps\": {churn_rate:.1}, \"satisfaction\": {churn_sat:.4} }},\n",
            "    \"post\": {{ \"secs\": {post_secs:.1}, \"arrivals\": {post_arrivals}, \"goodput\": {post_goodput}, \"goodput_rps\": {post_rate:.1}, \"satisfaction\": {post_sat:.4} }},\n",
            "    \"churn_satisfaction_retention\": {retention:.4}\n",
            "  }},\n",
            "  \"availability\": {{ \"min\": {avail_min:.4}, \"final\": {avail_final:.4} }},\n",
            "  \"recovery\": {{ \"recovery_secs\": {recovery:.1}, \"steady_fraction_of_arrivals\": {steady:.2} }},\n",
            "  \"accounting\": {{\n",
            "    \"total\": {total},\n",
            "    \"successes\": {successes},\n",
            "    \"rejected\": {rejected},\n",
            "    \"goodput\": {goodput},\n",
            "    \"identity_ok\": {identity_ok},\n",
            "    \"drained\": {drained}\n",
            "  }},\n",
            "  \"perf\": {{\n",
            "    \"events_processed\": {events},\n",
            "    \"wall_secs\": {wall:.3},\n",
            "    \"events_per_sec\": {eps:.0},\n",
            "    \"peak_rss_kb\": {rss}\n",
            "  }},\n",
            "  \"events\": {events_json},\n",
            "  \"sched\": {sched_json},\n",
            "  \"digest\": \"{digest:016x}\"\n",
            "}}\n",
        ),
        scenario = bench::scenario_json(&spec, args.max_events),
        discipline = run.discipline,
        crashes = plan.worker_crashes(),
        gpu_failures = plan.gpu_failures(),
        partitions = plan.partitions(),
        degradations = plan.link_degradations(),
        first_fault = analysis.first_fault_secs,
        last_recovery = analysis.last_recovery_secs,
        pre_secs = analysis.pre.secs,
        pre_arrivals = analysis.pre.arrivals,
        pre_goodput = analysis.pre.goodput,
        pre_rate = analysis.pre.rate(),
        pre_sat = analysis.pre.satisfaction(),
        churn_secs = analysis.churn.secs,
        churn_arrivals = analysis.churn.arrivals,
        churn_goodput = analysis.churn.goodput,
        churn_rate = analysis.churn.rate(),
        churn_sat = analysis.churn.satisfaction(),
        post_secs = analysis.post.secs,
        post_arrivals = analysis.post.arrivals,
        post_goodput = analysis.post.goodput,
        post_rate = analysis.post.rate(),
        post_sat = analysis.post.satisfaction(),
        retention = analysis.retention(),
        avail_min = analysis.min_availability,
        avail_final = analysis.final_availability,
        recovery = analysis.recovery_secs,
        steady = bench::STEADY_FRACTION,
        total = m.total_requests,
        successes = m.successes,
        rejected = rejected,
        goodput = m.goodput,
        identity_ok = run.identity_ok(),
        drained = run.drained(),
        events = run.events_processed,
        wall = run.wall_secs,
        eps = events_per_sec,
        rss = bench::peak_rss_kb(),
        events_json = events_json,
        sched_json = bench::sched_json(&run.sched),
        digest = run.digest,
    );
    std::fs::write(&args.out, &json).expect("write results json");
    println!("# wrote {}", args.out);

    if failed {
        std::process::exit(1);
    }
}
