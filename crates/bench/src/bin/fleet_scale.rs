//! Fleet-scale perf scenario: 20 workers × 4 GPUs under Azure-derived load.
//!
//! Unlike the figure binaries, this scenario exists to measure the
//! *simulator* rather than the system it simulates: it drives a cluster an
//! order of magnitude larger than the paper's testbed (80 GPUs, 200 model
//! instances sampled from the Appendix A zoo, an open-loop MAF-like
//! workload) and reports how fast the event loop chews through it —
//! wall-clock events per second — alongside the usual serving metrics
//! (goodput, SLO violation rate) and a peak-RSS proxy. Results are written
//! to `BENCH_fleet.json` at the repo root; CI's `perf-smoke` job replays a
//! fixed-work prefix (`--events 500000`) as an event-conservation smoke.
//! Events/sec is reported, not gated: the repo's wall-clock contract is the
//! `benchmark/` package (`BENCHMARK.json`).
//!
//! The scenario itself is `ScenarioSpec::fleet_scale()`, shared with the
//! `chaos_fleet` and `chaos_compare` harnesses so a chaos run differs from
//! this one only by its fault plan; `Experiment::run` owns the whole
//! build/submit/run loop.
//!
//! The run is deterministic: the telemetry layer folds every response into
//! an order-sensitive FNV-1a digest, and two runs with the same seed must
//! print the same digest (`--expect-digest` turns a mismatch into a non-zero
//! exit for the golden-digest check).
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin fleet_scale -- \
//!     [--events N] [--out PATH] [--seed N] \
//!     [--expect-digest HEX] [--tick-profile]
//! ```
//!
//! `--tick-profile` additionally prints the per-full-tick work breakdown
//! (candidates scanned, strategy rebuilds, load-priority recomputes) derived
//! from the scheduler's self-profiling counters.

use clockwork::json::Value;
use clockwork::prelude::*;

const USAGE: &str = "fleet_scale [--events N] [--out PATH] [--seed N] \
                     [--expect-digest HEX] [--tick-profile]";

struct Args {
    max_events: u64,
    out: String,
    seed: u64,
    expect_digest: Option<u64>,
    tick_profile: bool,
}

impl Args {
    fn parse(cli: &mut bench::cli::Cli) -> Result<Args, String> {
        Ok(Args {
            max_events: cli.value("--events")?.unwrap_or(u64::MAX),
            out: cli.value("--out")?.unwrap_or("BENCH_fleet.json".into()),
            seed: cli.value("--seed")?.unwrap_or(2020),
            expect_digest: cli.hex_u64("--expect-digest")?,
            tick_profile: cli.switch("--tick-profile"),
        })
    }
}

fn main() {
    let args = bench::cli::parse(USAGE, Args::parse);
    let spec = ScenarioSpec::fleet_scale().with_seed(args.seed);
    let smoke = args.max_events != u64::MAX;
    println!(
        "# fleet-scale scenario: {} workers x {} GPUs, {} models over {}s{}",
        spec.workers,
        spec.gpus_per_worker,
        spec.models,
        spec.duration_secs,
        if smoke {
            format!(" (smoke: first {} events)", args.max_events)
        } else {
            String::new()
        }
    );

    let run = Experiment::new(spec.clone())
        .run_capped(&ClockworkFactory::default(), args.max_events)
        .outcome();

    let events = run.events_processed;
    let events_per_sec = run.events_per_sec();
    let wall_secs = run.wall_secs;
    let digest = run.digest;
    let m = &run.metrics;
    let slo_violation_rate = 1.0 - m.satisfaction();
    let p50_ms = m.latency.percentile(50.0).as_millis_f64();
    let p99_ms = m.latency.percentile(99.0).as_millis_f64();
    let rss_kb = bench::peak_rss_kb();

    bench::section("fleet_scale results");
    println!(
        "discipline={} submitted={} requests={} goodput={} goodput_rps={:.1} slo_violation_rate={:.4} p50_ms={p50_ms:.2} p99_ms={p99_ms:.2}",
        run.discipline,
        run.submitted,
        m.total_requests,
        m.goodput,
        m.goodput_rate(),
        slo_violation_rate,
    );
    println!(
        "events={events} wall_secs={wall_secs:.2} events_per_sec={events_per_sec:.0} peak_rss_kb={rss_kb}"
    );
    println!("digest={digest:016x}");

    // Event-mix breakdown + conservation check: a wake-amplification
    // regression shows up here as worker_wake dominating `delivered`, and a
    // missing cancel shows up as a conservation violation.
    let mix_ok = bench::report_event_mix(&run);

    let sched = &run.sched;
    bench::section("scheduler self-profiling");
    bench::report_sched_profile(&run.discipline, sched);
    if args.tick_profile {
        // Per-tick breakdown of where scheduler passes spend their work —
        // the knob for diagnosing a tick-pipeline regression without a
        // profiler attached.
        let full = sched.ticks_full.max(1) as f64;
        println!(
            "per full tick: candidates={:.2} strategy_rebuilds={:.3} load_prio_recomputes={:.3}",
            sched.candidates_scanned as f64 / full,
            sched.strategies_recomputed as f64 / full,
            sched.load_prio_recomputes as f64 / full,
        );
        println!(
            "tick density: {:.3} full ticks per 1k delivered events ({} full / {} delivered)",
            1000.0 * sched.ticks_full as f64 / events.max(1) as f64,
            sched.ticks_full,
            events,
        );
    }

    // The fleet scenario echo predates `bench::scenario_json`: no name, and
    // a `smoke` flag.
    let (functions, target_rate) = match spec.workload {
        WorkloadSpec::Azure {
            functions,
            target_rate,
        } => (functions, target_rate),
        _ => (0, 0.0),
    };
    let max_events = if smoke { args.max_events } else { 0 };
    let scenario = Value::obj([
        ("workers", spec.workers.into()),
        ("gpus_per_worker", spec.gpus_per_worker.into()),
        ("models", spec.models.into()),
        ("functions", functions.into()),
        ("duration_secs", spec.duration_secs.into()),
        ("target_rate", target_rate.into()),
        ("slo_ms", spec.slo_ms.into()),
        ("seed", spec.seed.into()),
        ("smoke", smoke.into()),
        ("max_events", max_events.into()),
    ]);
    let serving = Value::obj([
        ("requests", m.total_requests.into()),
        ("goodput", m.goodput.into()),
        ("goodput_rps", Value::fixed(m.goodput_rate(), 1)),
        ("slo_violation_rate", Value::fixed(slo_violation_rate, 6)),
        ("p50_ms", Value::fixed(p50_ms, 3)),
        ("p99_ms", Value::fixed(p99_ms, 3)),
        (
            "cold_start_fraction",
            Value::fixed(m.cold_start_fraction(), 6),
        ),
    ]);
    let perf = Value::obj([
        ("events_processed", events.into()),
        ("wall_secs", Value::fixed(wall_secs, 3)),
        ("events_per_sec", Value::fixed(events_per_sec, 0)),
        ("peak_rss_kb", rss_kb.into()),
    ]);
    let doc = Value::obj([
        ("scenario", scenario),
        ("discipline", run.discipline.as_str().into()),
        ("serving", serving),
        ("perf", perf),
        ("events", bench::event_mix_json(&run)),
        ("sched", bench::sched_json(sched)),
        ("digest", bench::digest_json(digest)),
    ]);
    bench::write_json(&args.out, &doc);

    let mut failed = false;
    if !mix_ok {
        // report_event_mix already printed the violation.
        failed = true;
    }
    if let Some(expected) = args.expect_digest {
        if !bench::invariants::check_expected_digest(&run.discipline, expected, &run) {
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
