//! The matrix harnesses: one named grid of runs per invocation, each
//! writing one `BENCH_*.json` artifact (schemas in `crates/bench/README.md`).
//!
//! ```text
//! cargo run --release -p bench --bin grid -- {batch|shard|scenarios|chaos} \
//!     [--duration-secs N] [--seed N] [--out PATH] [--check-determinism]
//! ```
//!
//! - `batch`: the fleet scenario at 1×, 2×, 5× and 10× offered load under
//!   every discipline; gated on the saturation knee.
//! - `shard`: the shard-fleet scenario under 1, 2, 4 and 8 controller
//!   shards, routed by model hash; gated on the front door.
//! - `scenarios`: every workload-zoo preset under every discipline; gated
//!   on tier retention.
//! - `chaos`: the chaos-fleet scenario under every discipline; gated on
//!   clockwork's host time against clipper's.
//!
//! [`bench::grid::Grid`] runs the cells, holds each to `bench::invariants`,
//! checks the offered load and, under `--check-determinism`, reruns every
//! cell against its digest. Any violation exits 1; a bad argument exits 2.

use bench::cli::{Cli, MatrixArgs};
use bench::grid::Grid;
use clockwork::json::Value;
use clockwork::prelude::*;
use clockwork_shard::{FleetReport, ShardAssignment, ShardRunStats, ShardedSpec};

const USAGE: &str = "grid {batch|shard|scenarios|chaos} [--duration-secs N] [--seed N] [--out PATH] [--check-determinism]";

/// A grid: runs its cells, prints its table and writes its artifact.
type Run = fn(MatrixArgs);

/// Every named grid.
const GRIDS: [(&str, Run); 4] = [
    ("batch", batch),
    ("shard", shard),
    ("scenarios", scenarios),
    ("chaos", chaos),
];

fn claim(cli: &mut Cli) -> Result<(Run, MatrixArgs), String> {
    let args = MatrixArgs::claim(cli)?;
    let &(_, run) = cli.choice("grid", &GRIDS)?.ok_or("missing grid name")?;
    Ok((run, args))
}

fn main() {
    let (run, args) = bench::cli::parse(USAGE, claim);
    run(args);
}

/// The offered-load multipliers `batch` sweeps over the base rate.
const MULTIPLIERS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

fn batch_cell(run: &RunOutcome) -> (&str, Value) {
    let m = &run.metrics;
    let p50_ms = m.latency.percentile(50.0).as_millis_f64();
    let p99_ms = m.latency.percentile(99.0).as_millis_f64();
    let json = Value::obj([
        ("total", m.total_requests.into()),
        ("successes", m.successes.into()),
        ("rejected", run.rejected().into()),
        ("rejected_by_reason", bench::rejected_by_reason_json(m)),
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

/// Goodput and tail latency against offered load, with and without
/// batch-aware scheduling: `clockwork` and `clockwork-nobatch` differ only
/// in batching, so the gap between them is its value.
fn batch(args: MatrixArgs) {
    let grid = Grid::new("batch-sweep", "BENCH_batch.json", args);
    let base = grid.args.apply(
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
    grid.header_disciplines(format_args!(
        "{} loads ({} r/s base, {}s each{})",
        MULTIPLIERS.len(),
        base_rate,
        base.duration_secs,
        grid.checked_note(),
    ));

    let loads: Vec<(Vec<RunOutcome>, f64)> = MULTIPLIERS
        .iter()
        .map(|&multiplier| {
            let spec = base.clone().with_rate_multiplier(multiplier);
            let label = |name: &str| format!("{name} @{multiplier}x");
            grid.disciplines(&spec, true, label, RunReport::outcome)
        })
        .collect();

    bench::section("batch_sweep results (same trace per load, policy is the only difference)");
    for ((runs, offered), multiplier) in loads.iter().zip(MULTIPLIERS) {
        println!();
        println!(
            "-- {multiplier}x load ({:.0} r/s target, {offered:.0} r/s offered) --",
            base_rate * multiplier,
        );
        println!(
            "{:<18} {:>9} {:>9} {:>9} {:>9} {:>6} {:>9} {:>9} {:>7}  rejected_by_reason",
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
        for run in runs {
            let m = &run.metrics;
            println!(
                "{:<18} {:>9} {:>9} {:>9} {:>9.1} {:>6.3} {:>9.2} {:>9.2} {:>7}  {}",
                run.discipline,
                m.total_requests,
                m.goodput,
                run.rejected(),
                m.goodput_rate(),
                m.satisfaction(),
                m.latency.percentile(99.0).as_millis_f64(),
                m.mean_batch,
                run.backlog(),
                bench::rejected_by_reason_field(m),
            );
        }
    }

    // The knee gate: batching must buy strictly more goodput than batch-1
    // dispatch at every overloaded multiplier. At 1x the cluster is below
    // saturation and the two are expected to tie, so only >= 2x is gated.
    bench::section("saturation knee (clockwork vs clockwork-nobatch goodput)");
    for ((runs, _), multiplier) in loads.iter().zip(MULTIPLIERS) {
        let goodput_of = |name: &str| {
            let run = runs.iter().find(|r| r.discipline == name);
            run.expect("every discipline runs").metrics.goodput
        };
        let (batched, unbatched) = (goodput_of("clockwork"), goodput_of("clockwork-nobatch"));
        let verdict = if multiplier < 2.0 {
            "ungated"
        } else if batched > unbatched {
            "ok"
        } else {
            grid.gate(false);
            eprintln!(
                "KNEE GATE VIOLATION at {multiplier}x: batching goodput {batched} <= batch-1 goodput {unbatched}"
            );
            "VIOLATION"
        };
        println!(
            "{multiplier:>4}x: batched {batched} vs unbatched {unbatched} ({:+.1}%) {verdict}",
            100.0 * (batched as f64 - unbatched as f64) / (unbatched.max(1) as f64),
        );
    }

    let loads = loads.iter().zip(MULTIPLIERS).map(|((runs, offered), m)| {
        Value::obj([
            ("multiplier", m.into()),
            ("target_rps", Value::fixed(base_rate * m, 1)),
            ("offered_rps", Value::fixed(*offered, 1)),
            ("disciplines", Value::obj(runs.iter().map(batch_cell))),
        ])
    });
    grid.finish(&Value::obj([
        ("scenario", bench::scenario_json(&base)),
        ("base_rate_rps", Value::fixed(base_rate, 1)),
        (
            "multipliers",
            MULTIPLIERS.iter().map(|&m| Value::fixed(m, 1)).collect(),
        ),
        ("determinism_checked", grid.args.check_determinism.into()),
        ("loads", loads.collect()),
    ]));
}

/// The shard counts `shard` sweeps.
const SHARDS: [u32; 4] = [1, 2, 4, 8];

/// The front-door gate: the fleet lost no request between the router and
/// the controllers, and `rejected_by_reason` accounts for every rejection.
fn front_door(label: &str, merged: &RunOutcome) -> bool {
    let mut ok = true;
    if merged.submitted != merged.metrics.total_requests {
        eprintln!(
            "[{label}] FRONT DOOR LOSS: routed {} but controllers saw {}",
            merged.submitted, merged.metrics.total_requests
        );
        ok = false;
    }
    let by_reason: u64 = bench::rejected_by_reason(&merged.metrics)
        .iter()
        .map(|&(_, n)| n)
        .sum();
    if by_reason != merged.rejected() {
        eprintln!(
            "[{label}] UNLISTED REJECT REASON: {by_reason} of {} rejections under a known key",
            merged.rejected()
        );
        ok = false;
    }
    ok
}

fn shard_json(s: &ShardRunStats) -> Value {
    let run = &s.outcome;
    Value::obj([
        ("shard", s.shard.into()),
        ("workers", s.workers.into()),
        ("models", s.models.into()),
        ("submitted", run.submitted.into()),
        ("successes", run.metrics.successes.into()),
        ("rejected", run.rejected().into()),
        ("goodput", run.metrics.goodput.into()),
        ("events", run.events_processed.into()),
        ("wall_secs", Value::fixed(run.wall_secs, 3)),
        ("digest", bench::digest_json(run.digest)),
    ])
}

fn sweep_row(shards: u32, speedup: f64, fleet: &FleetReport, merged: &RunOutcome) -> Value {
    let m = &merged.metrics;
    Value::obj([
        ("shards", shards.into()),
        ("wall_secs", Value::fixed(fleet.wall_secs, 3)),
        ("speedup", Value::fixed(speedup, 3)),
        (
            "max_shard_wall_secs",
            Value::fixed(fleet.max_shard_wall(), 3),
        ),
        (
            "sum_shard_wall_secs",
            Value::fixed(fleet.sum_shard_wall(), 3),
        ),
        ("events", merged.events_processed.into()),
        ("events_per_sec", Value::fixed(merged.events_per_sec(), 0)),
        ("total", m.total_requests.into()),
        ("successes", m.successes.into()),
        ("rejected", merged.rejected().into()),
        ("goodput", m.goodput.into()),
        ("rejected_by_reason", bench::rejected_by_reason_json(m)),
        (
            "cold_start_fraction",
            Value::fixed(m.cold_start_fraction(), 6),
        ),
        ("mean_batch", Value::fixed(m.mean_batch, 6)),
        ("drained", merged.drained().into()),
        ("fleet_digest", bench::digest_json(merged.digest)),
        ("sched", bench::sched_json(&merged.sched)),
        ("per_shard", fleet.shards.iter().map(shard_json).collect()),
    ])
}

/// The same fleet and trace under 1, 2, 4 and 8 controller shards: the
/// parallel-speedup curve, and what splitting the controller buys.
fn shard(args: MatrixArgs) {
    let grid = Grid::new("shard-sweep", "BENCH_shard.json", args);
    let base = grid.args.apply(ShardedSpec::shard_fleet(1).base);
    grid.header(format_args!(
        "{} over shard counts {:?} ({} workers x {} GPUs, {} models{})",
        base.name,
        SHARDS,
        base.workers,
        base.gpus_per_worker,
        base.models,
        grid.checked_note(),
    ));

    bench::section("shard sweep");
    println!(
        "{:>6} {:>10} {:>8} {:>12} {:>12} {:>9} {:>9} {:>9} {:>8} {:>18}",
        "shards",
        "wall_s",
        "speedup",
        "max_shard_s",
        "sum_shard_s",
        "total",
        "goodput",
        "rejected",
        "evps",
        "fleet_digest"
    );
    let factory = ClockworkFactory::default();
    let mut baseline_wall = None;
    let mut totals = Vec::new();
    let rows = SHARDS.map(|shards| {
        let label = format!("shard_sweep/{shards}");
        let spec = ShardedSpec::new(base.clone(), shards, ShardAssignment::HashByModel);
        let (fleet, merged) = grid.fleet(&label, spec, &factory);
        grid.gate(front_door(&label, &merged));
        let baseline = *baseline_wall.get_or_insert(fleet.wall_secs);
        let speedup = if fleet.wall_secs > 0.0 {
            baseline / fleet.wall_secs
        } else {
            0.0
        };
        println!(
            "{:>6} {:>10.3} {:>8.2} {:>12.3} {:>12.3} {:>9} {:>9} {:>9} {:>8.0} {:>18}",
            shards,
            fleet.wall_secs,
            speedup,
            fleet.max_shard_wall(),
            fleet.sum_shard_wall(),
            merged.metrics.total_requests,
            merged.metrics.goodput,
            merged.rejected(),
            merged.events_per_sec(),
            format!("{:016x}", merged.digest),
        );
        totals.push(merged.metrics.total_requests);
        sweep_row(shards, speedup, &fleet, &merged)
    });

    let offered = grid.offered(&base.name, &totals, base.duration_secs);
    println!("# offered {offered:.1} r/s over {} s", base.duration_secs);
    grid.finish(&Value::obj([
        ("scenario", bench::scenario_json(&base)),
        ("offered_rps", Value::fixed(offered, 1)),
        ("router", "hash".into()),
        ("sweep", rows.into_iter().collect()),
    ]));
}

fn tier_json(t: &TierOutcomes) -> Value {
    Value::obj([
        ("submitted", t.submitted.into()),
        ("successes", t.successes.into()),
        ("goodput", t.goodput.into()),
        ("rejected", t.rejected.into()),
        ("shed", t.shed.into()),
        ("retention", Value::fixed(t.retention(), 4)),
    ])
}

fn scenarios_cell(cell: &RunOutcome) -> (&str, Value) {
    let m = &cell.metrics;
    let tiers = Value::obj([
        ("strict", tier_json(m.tier(Tier::Strict))),
        ("best_effort", tier_json(m.tier(Tier::BestEffort))),
    ]);
    let json = Value::obj([
        ("total", m.total_requests.into()),
        ("successes", m.successes.into()),
        ("rejected", cell.rejected().into()),
        ("goodput", m.goodput.into()),
        ("satisfaction", Value::fixed(m.satisfaction(), 4)),
        ("drained", cell.drained().into()),
        ("wall_secs", Value::fixed(cell.wall_secs, 3)),
        ("tiers", tiers),
        ("digest", bench::digest_json(cell.digest)),
    ]);
    (&cell.discipline, json)
}

/// The graceful-degradation gate on the tiered overload scenario: clockwork
/// keeps strict-tier retention at or above best-effort retention, and sheds
/// some best-effort traffic doing it.
fn tier_gate(scenario: &str, cell: &RunOutcome) -> bool {
    let strict = cell.metrics.tier(Tier::Strict).retention();
    let be = cell.metrics.tier(Tier::BestEffort);
    let best_effort = be.retention();
    println!("# tier gate (clockwork): strict {strict:.4} >= best_effort {best_effort:.4}");
    let mut ok = true;
    if strict < best_effort {
        eprintln!(
            "[{scenario}/clockwork] TIER RETENTION VIOLATION: strict {strict:.4} < best-effort {best_effort:.4}"
        );
        ok = false;
    }
    if be.shed == 0 && be.submitted > 0 {
        eprintln!(
            "[{scenario}/clockwork] DEGRADATION INERT: a 10x flash crowd shed no best-effort traffic"
        );
        ok = false;
    }
    ok
}

/// Every workload-zoo preset under every discipline, a duration-scaled
/// fault plan regenerated to fit a shortened run.
fn scenarios(args: MatrixArgs) {
    let grid = Grid::new("scenario-matrix", "BENCH_scenarios.json", args);
    let specs: Vec<ScenarioSpec> = ScenarioSpec::zoo()
        .into_iter()
        .map(|preset| {
            let mut spec = grid.args.apply(preset);
            spec.faults = spec.zoo_faults();
            spec
        })
        .collect();
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    grid.header_disciplines(format_args!(
        "{} zoo scenarios ({}){}",
        specs.len(),
        names.join(", "),
        grid.checked_note(),
    ));

    let mut objects = Vec::new();
    for spec in &specs {
        bench::section(&format!("{}: per-discipline outcomes", spec.name));
        println!(
            "{:<18} {:>8} {:>8} {:>9} {:>6} {:>10} {:>10} {:>8}",
            "discipline", "total", "goodput", "rejected", "shed", "ret_strict", "ret_be", "sat"
        );
        let label = |name: &str| format!("{}/{name}", spec.name);
        let (cells, _) = grid.disciplines(spec, false, label, |report| {
            let cell = report.outcome();
            let m = &cell.metrics;
            println!(
                "{:<18} {:>8} {:>8} {:>9} {:>6} {:>10.4} {:>10.4} {:>8.4}",
                cell.discipline,
                m.total_requests,
                m.goodput,
                cell.rejected(),
                m.tier(Tier::BestEffort).shed,
                m.tier(Tier::Strict).retention(),
                m.tier(Tier::BestEffort).retention(),
                m.satisfaction(),
            );
            cell
        });
        if spec.name == "flash_crowd" {
            let clockwork = cells.iter().find(|c| c.discipline == "clockwork");
            grid.gate(tier_gate(&spec.name, clockwork.expect("clockwork runs")));
        }
        let scenario = Value::obj([
            ("scenario", bench::scenario_json(spec)),
            ("disciplines", Value::obj(cells.iter().map(scenarios_cell))),
        ]);
        objects.push((spec.name.as_str(), scenario));
    }
    grid.finish(&Value::obj([("scenarios", Value::obj(objects))]));
}

/// The cap on clockwork's host time over clipper's on the chaos scenario.
/// Clipper does the same per-request work without strategy or LOAD
/// planning, so the ratio gates the scheduler's tick cost whatever the
/// runner's speed; it reads about 0.5.
const MAX_CLOCKWORK_RATIO: f64 = 5.0;

fn phase_json(p: &bench::PhaseStats) -> Value {
    Value::obj([
        ("secs", Value::fixed(p.secs, 1)),
        ("arrivals", p.arrivals.into()),
        ("goodput", p.goodput.into()),
        ("goodput_rps", Value::fixed(p.rate(), 1)),
        ("satisfaction", Value::fixed(p.satisfaction(), 4)),
    ])
}

fn chaos_cell((run, analysis): &(RunOutcome, bench::ChaosAnalysis)) -> (&str, Value) {
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

/// Every discipline under one chaos scenario, so every difference between
/// rows is policy: goodput kept through the churn, the availability floor,
/// and the time back to tracking offered load after the last repair.
fn chaos(args: MatrixArgs) {
    let grid = Grid::new("chaos-compare", "BENCH_chaos_compare.json", args);
    let spec = bench::chaos_compare_spec(&grid.args);
    grid.header_disciplines(format_args!(
        "one scenario ({} workers x {} GPUs, {} models, {}s, {} churn events)",
        spec.workers,
        spec.gpus_per_worker,
        spec.models,
        spec.duration_secs,
        spec.faults.len(),
    ));
    let (rows, _) = grid.disciplines(&spec, true, str::to_string, |report| {
        (report.outcome(), bench::analyze_chaos(report, &spec))
    });

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

    let wall_of = |name: &str| {
        let row = rows.iter().find(|(run, _)| run.discipline == name);
        row.expect("every discipline runs").0.wall_secs
    };
    let (clockwork, clipper) = (wall_of("clockwork"), wall_of("clipper"));
    let ratio = clockwork / clipper.max(1e-9);
    println!(
        "# perf gate: clockwork {clockwork:.3}s / clipper {clipper:.3}s = {ratio:.2}x (max {MAX_CLOCKWORK_RATIO:.2}x)"
    );
    if ratio > MAX_CLOCKWORK_RATIO {
        eprintln!(
            "PERF GATE VIOLATION: clockwork wall is {ratio:.2}x clipper's, above the {MAX_CLOCKWORK_RATIO:.2}x cap"
        );
        grid.gate(false);
    }

    grid.finish(&Value::obj([
        ("scenario", bench::scenario_json(&spec)),
        ("churn", bench::churn_json(&spec.faults)),
        (
            "steady_fraction_of_arrivals",
            Value::fixed(bench::STEADY_FRACTION, 2),
        ),
        ("disciplines", Value::obj(rows.iter().map(chaos_cell))),
    ]));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<MatrixArgs, String> {
        let mut cli = Cli::new(args.iter().map(|a| a.to_string()));
        let (_, parsed) = claim(&mut cli)?;
        cli.finish().map(|()| parsed)
    }

    #[test]
    fn a_grid_takes_its_name_and_the_four_shared_flags_only() {
        let args = parse(&["--seed", "3", "shard", "--check-determinism"]).unwrap();
        assert_eq!((args.seed, args.check_determinism), (Some(3), true));
        assert_eq!(parse(&["batch"]).unwrap().out, None);
        assert_eq!(parse(&[]).unwrap_err(), "missing grid name");
        assert_eq!(parse(&["sweep"]).unwrap_err(), "unknown grid `sweep`");
        assert_eq!(
            parse(&["batch", "chaos"]).unwrap_err(),
            "unknown argument `chaos`"
        );
        // The removed per-grid flags are unknown, values and all.
        assert_eq!(
            parse(&["shard", "--router", "load"]).unwrap_err(),
            "unknown argument `--router`"
        );
        assert_eq!(
            parse(&["chaos", "--max-clockwork-ratio", "5"]).unwrap_err(),
            "unknown argument `--max-clockwork-ratio`"
        );
    }
}
