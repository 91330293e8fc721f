//! Resident memory after each stage of one run, for memory claims.
//!
//! ```bash
//! cargo run --release -p bench --example rss_stages -- SCENARIO \
//!     [--every-ms N] [--seed N] [--workload-seed N] [--duration-secs N]
//! ```
//!
//! `SCENARIO` is a preset, one per benchmark workload — `fleet_scale`,
//! `flagship_slice` (200 workers × 4 GPUs, 2 000 models, 1 s),
//! `cold_churn` (3 000 models on 4 × 2 GPUs with the scripted churn) or
//! `substrate_fifo` (`fleet_scale` at 480 s) — or the path of a
//! `ScenarioSpec` JSON file. `--duration-secs` runs it for `N` simulated
//! seconds instead (`cold_churn`'s churn is scripted for that length), so
//! two lengths of one scenario show whether its memory grows with its
//! length. The Clockwork scheduler serves it, except
//! `substrate_fifo`, which FIFO serves, as in the benchmark. The probe
//! prints, after trace generation, build and submit, then after every `N`
//! simulated ms of the run (default 100), up to the horizon, one line: the
//! stage, the host milliseconds it took (`Instant`, the probe's own reads
//! excluded), and `VmRSS` and `VmHWM` from `/proc/self/status`, last. After
//! generation it also prints the trace's own heap bytes
//! (`Trace::heap_bytes`) and bytes per arrival. Linux only: elsewhere the
//! memory readings print as 0.

use std::io::{self, Write};
use std::time::Instant;

use clockwork::prelude::*;
use clockwork_shard::ShardedSpec;

const USAGE: &str =
    "usage: rss_stages SCENARIO [--every-ms N] [--seed N] [--workload-seed N] [--duration-secs N]";

/// A `/proc/self/status` field in MB, or 0 where it cannot be read.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Prints `stage`, the host time since `since`, and the memory readings;
/// then restarts `since`, so the next stage is not charged for this one's
/// printing.
fn print_stage(out: &mut impl Write, stage: &str, since: &mut Instant) -> io::Result<()> {
    let ms = since.elapsed().as_secs_f64() * 1e3;
    let (rss, hwm) = (status_mb("VmRSS"), status_mb("VmHWM"));
    writeln!(
        out,
        "{stage:<16} {ms:>10.3} ms   VmRSS {rss:>8.2} MB   VmHWM {hwm:>8.2} MB"
    )?;
    *since = Instant::now();
    Ok(())
}

/// The scenario `name` names, run for `duration_secs` when given.
fn scenario(name: &str, duration_secs: Option<u64>) -> Result<ScenarioSpec, String> {
    let mut spec = match name {
        "fleet_scale" => ScenarioSpec::fleet_scale(),
        "substrate_fifo" => ScenarioSpec::fleet_scale().with_duration_secs(480),
        "flagship_slice" => ShardedSpec::shard_fleet(1).base.with_duration_secs(1),
        "cold_churn" => ScenarioSpec {
            workers: 4,
            gpus_per_worker: 2,
            models: 3_000,
            workload: WorkloadSpec::OpenLoop {
                rate_per_model: 0.2,
            },
            duration_secs: 600,
            ..ScenarioSpec::fleet_scale()
        },
        path => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            ScenarioSpec::from_json(&text)?
        }
    };
    spec.duration_secs = duration_secs.unwrap_or(spec.duration_secs);
    // The churn plan scales with the duration, so it follows it.
    if name == "cold_churn" {
        spec.faults = spec.scripted_churn();
    }
    Ok(spec)
}

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<Option<u64>, String> {
        let Some(at) = args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        let value = args.get(at + 1).ok_or(format!("{name} needs a value"))?;
        value.parse().map(Some).map_err(|e| format!("{name}: {e}"))
    };
    let name = args.first().ok_or(USAGE)?;
    let mut spec = scenario(name, flag("--duration-secs")?)?;
    let factory: Box<dyn SchedulerFactory> = match name.as_str() {
        "substrate_fifo" => Box::new(FifoFactory),
        _ => Box::new(ClockworkFactory::default()),
    };
    spec.seed = flag("--seed")?.unwrap_or(spec.seed);
    spec.workload_seed = flag("--workload-seed")?.unwrap_or(spec.workload_seed);
    let every = Nanos::from_millis(flag("--every-ms")?.unwrap_or(100).max(1));
    // A reader that closes the pipe early (`| head`) ends the probe quietly.
    match probe(&spec, factory.as_ref(), every) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        result => result.map_err(|e| format!("stdout: {e}")),
    }
}

fn probe(spec: &ScenarioSpec, factory: &dyn SchedulerFactory, every: Nanos) -> io::Result<()> {
    let mut out = io::stdout().lock();
    let mut since = Instant::now();
    print_stage(&mut out, "start", &mut since)?;
    let trace = spec.arrivals();
    print_stage(&mut out, "trace", &mut since)?;
    writeln!(
        out,
        "{:<16} {} arrivals, {} B: {:.2} B per arrival",
        "trace bytes",
        trace.len(),
        trace.heap_bytes(),
        trace.heap_bytes() as f64 / trace.len().max(1) as f64
    )?;
    since = Instant::now();
    let mut system = ServingSystem::from_spec(spec, factory);
    print_stage(&mut out, "build", &mut since)?;
    system.submit_trace(&trace);
    print_stage(&mut out, "submit", &mut since)?;
    let mut at = Timestamp::ZERO;
    while at < spec.horizon() {
        at = (at + every).min(spec.horizon());
        system.run_until(at);
        print_stage(
            &mut out,
            &format!("run {} ms", at.as_nanos() / 1_000_000),
            &mut since,
        )?;
    }
    Ok(())
}
