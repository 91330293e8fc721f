//! The batching figure: goodput and tail latency vs offered load, with and
//! without batch-aware scheduling.
//!
//! The fleet-scale scenario (20 workers x 4 GPUs, 200 models, Azure-like
//! arrivals at a 1,500 r/s nominal rate) is swept across offered-load
//! multipliers — 1x, 2x, 5x and 10x — and at every load each registered
//! discipline runs the *same* trace: Clockwork with batch formation and
//! batch-amortized admission, `clockwork-nobatch` (the identical scheduler
//! pinned to batch size 1 — the honest before/after comparator), the FIFO
//! strawman, and the Clipper- and INFaaS-like baselines. Because the only
//! difference between `clockwork` and `clockwork-nobatch` is batch-aware
//! scheduling, the gap between their goodput columns *is* the value of
//! batching, and the load where each one's goodput stops tracking offered
//! load is its saturation knee. Batch-amortized execution moves that knee
//! to the right; this binary is the proof and `BENCH_batch.json` the
//! artifact (schema in `crates/bench/README.md`).
//!
//! Invariants are enforced per run, not just reported: event-mix
//! conservation (`pushed == delivered + cancelled + live`) always,
//! exactly-once accounting (`successes + rejected == total`) whenever the
//! run drained, no goodput entry past its SLO, and — the point of the
//! figure — clockwork's goodput must strictly exceed `clockwork-nobatch`'s
//! at every overloaded multiplier (>= 2x). Any violation exits non-zero.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin batch_sweep -- \
//!     [--duration-secs N] [--seed N] [--out PATH] [--check-determinism]
//! ```
//!
//! `--check-determinism` reruns every (discipline, load) cell and fails the
//! process when any response digest differs between the two runs — the same
//! run-to-run guarantee the facade's determinism tests pin, exercised here
//! at full sweep scale. CI's smoke step runs the sweep at `--duration-secs
//! 10` with this flag on.

use clockwork::json::Value;
use clockwork::prelude::*;

/// The offered-load multipliers swept over the base rate.
const MULTIPLIERS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

fn cell_json(run: &RunOutcome) -> (&str, Value) {
    let m = &run.metrics;
    let p50_ms = m.latency.percentile(50.0).as_millis_f64();
    let p99_ms = m.latency.percentile(99.0).as_millis_f64();
    let json = Value::obj([
        ("total", m.total_requests.into()),
        ("successes", m.successes.into()),
        ("rejected", run.rejected().into()),
        ("goodput", m.goodput.into()),
        ("goodput_rps", Value::fixed(m.goodput_rate(), 1)),
        ("satisfaction", Value::fixed(m.satisfaction(), 4)),
        ("p50_ms", Value::fixed(p50_ms, 2)),
        ("p99_ms", Value::fixed(p99_ms, 2)),
        ("mean_batch", Value::fixed(m.mean_batch, 3)),
        ("cold_fraction", Value::fixed(m.cold_start_fraction(), 4)),
        ("identity_ok", run.identity_ok().into()),
        ("drained", run.drained().into()),
        ("live_events", run.live_events.into()),
        ("events_processed", run.events_processed.into()),
        ("wall_secs", Value::fixed(run.wall_secs, 3)),
        ("sched", bench::sched_json(&run.sched)),
        ("digest", bench::digest_json(run.digest)),
    ]);
    (&run.discipline, json)
}

fn main() {
    let args = bench::cli::MatrixArgs::parse("batch_sweep", "BENCH_batch.json");
    let registry = bench::disciplines();

    let base = args.apply(
        ScenarioSpec::fleet_scale()
            .named("batch_sweep")
            .with_duration_secs(30),
    );
    let WorkloadSpec::Azure {
        target_rate: base_rate,
        ..
    } = base.workload
    else {
        unreachable!("fleet_scale is an Azure workload")
    };

    println!(
        "# batch-sweep: {} disciplines ({}) x {} loads ({} r/s base, {}s each{})",
        registry.len(),
        registry.names().join(", "),
        MULTIPLIERS.len(),
        base_rate,
        base.duration_secs,
        if args.check_determinism {
            ", determinism checked"
        } else {
            ""
        },
    );

    let mut failed = false;
    // rows[i] holds every discipline's outcome at MULTIPLIERS[i]; each run's
    // full `ServingSystem` drops before the next one starts.
    let mut rows: Vec<Vec<RunOutcome>> = Vec::new();
    for &multiplier in &MULTIPLIERS {
        let experiment = Experiment::new(base.clone().with_rate_multiplier(multiplier));
        let mut load_rows: Vec<RunOutcome> = Vec::new();
        for factory in registry.iter() {
            let label = format!("{} @{multiplier}x", factory.name());
            println!("# running {label}...");
            let (report, ok) =
                bench::run_cell(&label, &experiment, factory, args.check_determinism);
            failed |= !ok;
            load_rows.push(report.outcome());
        }
        rows.push(load_rows);
    }

    bench::section("batch_sweep results (same trace per load, policy is the only difference)");
    for (i, load_rows) in rows.iter().enumerate() {
        let multiplier = MULTIPLIERS[i];
        println!();
        println!(
            "-- {multiplier}x offered load ({:.0} r/s) --",
            base_rate * multiplier
        );
        println!(
            "{:<18} {:>9} {:>9} {:>9} {:>9} {:>6} {:>9} {:>9} {:>7}",
            "discipline",
            "total",
            "goodput",
            "rejected",
            "good_rps",
            "sat",
            "p99_ms",
            "mean_b",
            "backlog"
        );
        for run in load_rows {
            let m = &run.metrics;
            println!(
                "{:<18} {:>9} {:>9} {:>9} {:>9.1} {:>6.3} {:>9.2} {:>9.2} {:>7}",
                run.discipline,
                m.total_requests,
                m.goodput,
                run.rejected(),
                m.goodput_rate(),
                m.satisfaction(),
                m.latency.percentile(99.0).as_millis_f64(),
                m.mean_batch,
                run.backlog(),
            );
        }
    }

    // The knee gate: batching must buy strictly more goodput than batch-1
    // dispatch at every overloaded multiplier. At 1x the cluster is below
    // saturation and the two are expected to tie (often digest-identical),
    // so only >= 2x is gated.
    bench::section("saturation knee (clockwork vs clockwork-nobatch goodput)");
    for (i, load_rows) in rows.iter().enumerate() {
        let multiplier = MULTIPLIERS[i];
        let goodput_of = |name: &str| {
            load_rows
                .iter()
                .find(|r| r.discipline == name)
                .map(|r| r.metrics.goodput)
        };
        let (Some(batched), Some(unbatched)) =
            (goodput_of("clockwork"), goodput_of("clockwork-nobatch"))
        else {
            eprintln!("KNEE GATE: clockwork or clockwork-nobatch missing from the registry");
            failed = true;
            break;
        };
        let verdict = if multiplier < 2.0 {
            "ungated"
        } else if batched > unbatched {
            "ok"
        } else {
            failed = true;
            "VIOLATION"
        };
        println!(
            "{multiplier:>4}x: batched {batched} vs unbatched {unbatched} ({:+.1}%) {verdict}",
            100.0 * (batched as f64 - unbatched as f64) / (unbatched.max(1) as f64),
        );
        if verdict == "VIOLATION" {
            eprintln!(
                "KNEE GATE VIOLATION at {multiplier}x: batching goodput {batched} <= batch-1 goodput {unbatched}"
            );
        }
    }

    let loads = MULTIPLIERS
        .iter()
        .zip(&rows)
        .map(|(&multiplier, load_rows)| {
            Value::obj([
                ("multiplier", multiplier.into()),
                ("offered_rps", Value::fixed(base_rate * multiplier, 1)),
                ("disciplines", Value::obj(load_rows.iter().map(cell_json))),
            ])
        });
    let doc = Value::obj([
        ("scenario", bench::scenario_json(&base)),
        ("base_rate_rps", Value::fixed(base_rate, 1)),
        (
            "multipliers",
            MULTIPLIERS.iter().map(|&m| Value::fixed(m, 1)).collect(),
        ),
        ("determinism_checked", args.check_determinism.into()),
        ("loads", loads.collect()),
    ]);
    bench::write_json(&args.out, &doc);

    if failed {
        std::process::exit(1);
    }
}
