//! The workload-zoo matrix: every zoo scenario under every registered
//! discipline, with tiered graceful degradation gated, not just reported.
//!
//! The zoo (`ScenarioSpec::zoo()`) spans the diversity the single
//! fleet-scale trace cannot: a diurnal load cycle, a 10× flash crowd on a
//! tiered client population, Zipf model popularity with a drifting hot set,
//! an even multi-tenant SLO split, and elastic autoscale under churn
//! (workers joining mid-run while others crash). Each cell runs through the
//! same declarative `Experiment` path as every other harness, so the
//! universal invariants (`bench::invariants`) apply unchanged.
//!
//! Two gates fold into the exit status:
//!
//! - Every cell must pass accounting, over-delivery, goodput-honesty and
//!   event-conservation checks (plus digest stability under
//!   `--check-determinism`).
//! - **Tier retention**: on the tiered overload scenario (`flash_crowd`)
//!   the Clockwork discipline must retain at least as much strict-tier
//!   traffic as best-effort traffic — graceful degradation means the shed
//!   order is honored, strict before best-effort never.
//!
//! Results go to `BENCH_scenarios.json` (see `crates/bench/README.md` for
//! the schema): one object per scenario × discipline with totals and the
//! per-tier outcome breakdown.
//!
//! Usage:
//! ```text
//! cargo run --release -p bench --bin scenario_matrix -- \
//!     [--duration-secs N] [--seed N] [--out PATH] [--check-determinism]
//! ```

use clockwork::json::Value;
use clockwork::prelude::*;

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

fn cell_json(cell: &RunOutcome) -> (&str, Value) {
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

fn main() {
    let args = bench::cli::MatrixArgs::parse("scenario_matrix", "BENCH_scenarios.json");
    // The zoo presets with the overrides applied; a fault plan that scales
    // with duration is regenerated to fit.
    let scenarios: Vec<ScenarioSpec> = ScenarioSpec::zoo()
        .into_iter()
        .map(|preset| {
            let mut spec = args.apply(preset);
            spec.faults = spec.zoo_faults();
            spec
        })
        .collect();
    let registry = bench::disciplines();

    println!(
        "# scenario-matrix: {} disciplines ({}) x {} zoo scenarios ({}){}",
        registry.len(),
        registry.names().join(", "),
        scenarios.len(),
        scenarios
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        if args.check_determinism {
            ", determinism checked"
        } else {
            ""
        },
    );

    let mut failed = false;
    let mut scenario_objects = Vec::new();
    for spec in &scenarios {
        let experiment = Experiment::new(spec.clone());
        bench::section(&format!("{}: per-discipline outcomes", spec.name));
        println!(
            "{:<18} {:>8} {:>8} {:>9} {:>6} {:>10} {:>10} {:>8}",
            "discipline", "total", "goodput", "rejected", "shed", "ret_strict", "ret_be", "sat"
        );
        // One outcome per discipline; each run's `ServingSystem` drops
        // before the next cell runs.
        let mut cells: Vec<RunOutcome> = Vec::new();
        for factory in registry.iter() {
            let label = format!("{}/{}", spec.name, factory.name());
            let (report, ok) =
                bench::run_cell(&label, &experiment, factory, args.check_determinism);
            failed |= !ok;
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
            cells.push(cell);
        }

        // The graceful-degradation gate: on the tiered overload scenario the
        // Clockwork discipline must keep strict-tier retention at or above
        // best-effort retention — shedding order honored under pressure.
        if spec.name == "flash_crowd" {
            if let Some(cell) = cells.iter().find(|c| c.discipline == "clockwork") {
                let strict = cell.metrics.tier(Tier::Strict).retention();
                let be = cell.metrics.tier(Tier::BestEffort);
                let best_effort = be.retention();
                println!(
                    "# tier gate (clockwork): strict {strict:.4} >= best_effort {best_effort:.4}"
                );
                if strict < best_effort {
                    eprintln!(
                        "[{}/clockwork] TIER RETENTION VIOLATION: strict {strict:.4} < best-effort {best_effort:.4}",
                        spec.name
                    );
                    failed = true;
                }
                if be.shed == 0 && be.submitted > 0 {
                    eprintln!(
                        "[{}/clockwork] DEGRADATION INERT: a 10x flash crowd shed no best-effort traffic",
                        spec.name
                    );
                    failed = true;
                }
            }
        }

        let scenario = Value::obj([
            ("scenario", bench::scenario_json(spec)),
            ("disciplines", Value::obj(cells.iter().map(cell_json))),
        ]);
        scenario_objects.push((spec.name.as_str(), scenario));
    }

    let doc = Value::obj([("scenarios", Value::obj(scenario_objects))]);
    bench::write_json(&args.out, &doc);

    if failed {
        std::process::exit(1);
    }
}
