//! The shard sweep: the same fleet-scale workload under 1, 2, 4 and 8
//! controller shards — the repo's first parallel-speedup curve.
//!
//! The scenario is [`ShardedSpec::shard_fleet`]: 200 workers × 4 GPUs,
//! 2 000 zoo models, the Azure-derived trace at 15 000 r/s — an order of
//! magnitude past the fleet-scale baseline, the population a single
//! controller simulation struggles with. The sweep holds the *total* fleet
//! and workload fixed and varies only the shard count, so every row answers
//! the same question: what does splitting the controller buy?
//!
//! Two effects contribute to the curve:
//!
//! - **Parallelism**: each shard simulates on its own `std::thread`, so
//!   with cores to spare the fleet's wall clock is the slowest shard, not
//!   the sum (`max_shard_wall` vs `sum_shard_wall` in the output).
//! - **Smaller controllers**: per-event work scales with controller state
//!   (event-queue depth, scheduler indexes), so even single-core hosts see
//!   `sum_shard_wall` shrink as shards get smaller.
//!
//! Every row is gated, not just reported: per-shard event conservation,
//! no over-delivery, the global exactly-once identity on drained runs, and
//! (under `--check-determinism`) a byte-identical fleet digest on rerun.
//! Any violation exits non-zero. The 1-shard row additionally pins the
//! sharded runner to the unsharded oracle by construction (see the
//! `shard_equivalence` tests).
//!
//! Results go to `BENCH_shard.json` (schema in `crates/bench/README.md`).
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin shard_sweep -- \
//!     [--shards 1,2,4,8] [--duration-secs N] [--seed N] \
//!     [--router hash|load] [--out PATH] [--check-determinism]
//! ```

use clockwork::json::Value;
use clockwork::prelude::*;
use clockwork_controller::RejectReason;
use clockwork_shard::{
    FleetReport, ShardAssignment, ShardRunStats, ShardedExperiment, ShardedSpec,
};

/// The sweep's own flags beside the shared ones: `--shards` (comma-separated
/// shard counts) and `--router hash|load`.
fn sweep_flags(cli: &mut bench::cli::Cli) -> Result<(Vec<u32>, ShardAssignment), String> {
    let shards = match cli.value::<String>("--shards")? {
        None => vec![1, 2, 4, 8],
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|e| format!("--shards: {e}: `{s}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    let router = match cli.value::<String>("--router")?.as_deref() {
        None | Some("hash") => ShardAssignment::HashByModel,
        Some("load") => ShardAssignment::LoadAware,
        Some(other) => return Err(format!("--router: expected hash or load, got `{other}`")),
    };
    Ok((shards, router))
}

fn sharded_spec(
    args: &bench::cli::MatrixArgs,
    router: &ShardAssignment,
    shards: u32,
) -> ShardedSpec {
    let mut spec = ShardedSpec::shard_fleet(shards);
    spec.assignment = router.clone();
    spec.base = args.apply(spec.base);
    spec
}

/// Gates one fleet run: every shard is held to the universal single-run
/// invariants (`bench::invariants`), the front door must have lost nothing
/// — the one check that only exists for a fleet — and `rejected_by_reason`
/// must account for every rejection.
fn check_fleet(label: &str, fleet: &FleetReport, merged: &RunOutcome, spec: &ScenarioSpec) -> bool {
    let mut ok = true;
    for s in &fleet.shards {
        let shard_label = format!("{label}/shard{}", s.shard);
        ok &= bench::invariants::check_outcome(&shard_label, &s.outcome, spec);
    }
    if merged.submitted != merged.metrics.total_requests {
        eprintln!(
            "[{label}] FRONT DOOR LOSS: routed {} but controllers saw {}",
            merged.submitted, merged.metrics.total_requests
        );
        ok = false;
    }
    let by_reason: u64 = rejected_by_reason(merged).iter().map(|&(_, n)| n).sum();
    if by_reason != merged.rejected() {
        eprintln!(
            "[{label}] UNLISTED REJECT REASON: {by_reason} of {} rejections under a known key",
            merged.rejected()
        );
        ok = false;
    }
    ok
}

/// Every reject reason, in declaration order: the keys of a row's
/// `rejected_by_reason`. `check_fleet` fails the run if a rejection is
/// counted under a key this list lacks.
const REJECT_REASONS: [RejectReason; 6] = [
    RejectReason::CannotMeetSlo,
    RejectReason::DeadlineElapsed,
    RejectReason::UnknownModel,
    RejectReason::WorkerRejected,
    RejectReason::WorkerFailed,
    RejectReason::BestEffortShed,
];

fn rejected_by_reason(run: &RunOutcome) -> Vec<(&'static str, u64)> {
    REJECT_REASONS
        .iter()
        .map(|reason| {
            let key = reason.as_str();
            (key, run.metrics.rejections.get(key).copied().unwrap_or(0))
        })
        .collect()
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

fn main() {
    let (args, (shard_counts, router)) = bench::cli::MatrixArgs::parse_with(
        "shard_sweep",
        "BENCH_shard.json",
        "[--shards 1,2,4,8] [--router hash|load]",
        sweep_flags,
    );
    let factory = ClockworkFactory::default();
    let base = sharded_spec(&args, &router, 1).base;
    println!(
        "# shard-sweep: {} over shard counts {:?} ({} workers x {} GPUs, {} models{})",
        base.name,
        shard_counts,
        base.workers,
        base.gpus_per_worker,
        base.models,
        if args.check_determinism {
            ", determinism checked"
        } else {
            ""
        },
    );

    let mut failed = false;
    let mut rows = Vec::new();
    let mut baseline_wall: Option<f64> = None;
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
    for &shards in &shard_counts {
        let label = format!("shard_sweep/{shards}");
        let experiment = ShardedExperiment::new(sharded_spec(&args, &router, shards));
        let fleet = experiment.run(&factory);
        // The fleet as one run; its digest is the fleet digest.
        let merged = fleet.merged();
        if !check_fleet(&label, &fleet, &merged, &base) {
            failed = true;
        }
        if args.check_determinism {
            let rerun = experiment.run(&factory).merged();
            if !bench::invariants::check_determinism(&label, &merged, &rerun) {
                failed = true;
            }
        }
        let baseline = *baseline_wall.get_or_insert(fleet.wall_secs);
        let speedup = if fleet.wall_secs > 0.0 {
            baseline / fleet.wall_secs
        } else {
            0.0
        };
        let evps = merged.events_per_sec();
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
            evps,
            format!("{:016x}", merged.digest),
        );
        let by_reason = rejected_by_reason(&merged).into_iter();
        let m = &merged.metrics;
        rows.push(Value::obj([
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
            ("events_per_sec", Value::fixed(evps, 0)),
            ("total", m.total_requests.into()),
            ("successes", m.successes.into()),
            ("rejected", merged.rejected().into()),
            ("goodput", m.goodput.into()),
            (
                "rejected_by_reason",
                Value::obj(by_reason.map(|(key, n)| (key, n.into()))),
            ),
            (
                "cold_start_fraction",
                Value::fixed(m.cold_start_fraction(), 6),
            ),
            ("mean_batch", Value::fixed(m.mean_batch, 6)),
            ("drained", merged.drained().into()),
            ("fleet_digest", bench::digest_json(merged.digest)),
            ("sched", bench::sched_json(&merged.sched)),
            ("per_shard", fleet.shards.iter().map(shard_json).collect()),
        ]));
    }

    let router = match router {
        ShardAssignment::HashByModel => "hash",
        ShardAssignment::LoadAware => "load",
        ShardAssignment::Explicit(_) => "explicit",
    };
    let doc = Value::obj([
        ("scenario", bench::scenario_json(&base)),
        ("router", router.into()),
        ("sweep", Value::Arr(rows)),
    ]);
    bench::write_json(&args.out, &doc);

    if failed {
        std::process::exit(1);
    }
}
