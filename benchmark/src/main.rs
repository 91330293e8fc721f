//! The repo's benchmark: four open-loop workloads, eight end-to-end metrics
//! over identical repetitions, and — on a traced run — host time
//! per layer taken from outside the program. See `benchmark/README.md` for
//! the catalogue and `BENCHMARK.json` for the contract.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--workload-seed N] [--seconds S | --reps N]
//!           [--trace [0|1]] [--out PATH]
//! benchmark --all [--seed N] [--workload-seed N] [--reps N] [--trace] --out DIR
//! benchmark --compare A B
//! ```
//!
//! Single-threaded: one busy thread, no sockets.

mod compare;
mod json;
mod layers;
mod replay;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use report::{Metric, Results};
use run::{Mode, Rep};
use spans::SpanLog;
use stats::{samples_beyond, Clock};
use workloads::{Workload, DEFAULT_SEED, NAMES};

/// `setup_s` is a median over at least this many set-ups: the repetitions'
/// own, topped up with set-ups that are torn down unrun.
const MIN_SETUPS: usize = 15;

#[derive(Debug, Default, PartialEq)]
struct Cli {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: Option<u64>,
    workload_seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--all" => cli.all = true,
            "--compare" => cli.compare = Some((value("--compare")?, value("--compare")?)),
            "--seed" => {
                cli.seed = Some(value("--seed")?.parse().map_err(|_| "--seed: integer")?);
            }
            "--workload-seed" => {
                cli.workload_seed = Some(
                    value("--workload-seed")?
                        .parse()
                        .map_err(|_| "--workload-seed: integer")?,
                );
            }
            "--seconds" => {
                cli.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|_| "--seconds: number")?,
                );
            }
            "--reps" => {
                cli.reps = Some(value("--reps")?.parse().map_err(|_| "--reps: integer")?);
            }
            "--out" => cli.out = Some(value("--out")?),
            // `--trace` alone switches tracing on; the pipeline passes 0 or 1.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let modes = usize::from(cli.workload.is_some())
        + usize::from(cli.all)
        + usize::from(cli.compare.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload <name>, --all, --compare A B".to_string());
    }
    if cli.all && cli.out.is_none() {
        return Err("--all needs --out DIR".to_string());
    }
    Ok(cli)
}

/// Untraced repetitions of a run. A repetition is a whole workload (fixed
/// input), so `--seconds` buys repetitions at the workload's nominal cost
/// rather than cutting one short; the count never depends on the host's
/// speed, which keeps `peak_rss_mb` comparable between runs.
fn rep_count(cli: &Cli, w: &Workload) -> usize {
    if let Some(reps) = cli.reps {
        return reps.max(1);
    }
    if cli.trace {
        return 1;
    }
    let by_time = cli.seconds.map_or(0, |s| (s / w.nominal_rep_secs) as usize);
    by_time.max(w.min_reps)
}

fn run_workload(cli: &Cli, name: &str) -> Result<bool, String> {
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let workload_seed = cli.workload_seed.unwrap_or(DEFAULT_SEED);
    let w = Workload::by_name(name, seed, workload_seed)
        .ok_or_else(|| format!("unknown workload {name}; one of {NAMES:?}"))?;
    let reps = rep_count(cli, &w);
    let clock = Clock::calibrate();
    let mut log = SpanLog::new();
    let mut failures = Vec::new();

    let mut plain: Vec<Rep> = Vec::new();
    let mut setups = Vec::new();
    let mut per_layer = Vec::new();
    let mut request_spans = None;
    log.span("run", "bench", |log| {
        // First, while the heap is still small enough for growth to show.
        let eventq_growth_kb = if cli.trace {
            log.span("replay.sim_growth", "sim", |_| {
                replay::eventq_growth_kb_per_1m_ops()
            })
            .0
        } else {
            0.0
        };
        // The extra set-ups go between the repetitions, so that a burst on
        // the host hits a few of the samples, not most of them.
        let extra_setups = if cli.trace {
            0
        } else {
            MIN_SETUPS.saturating_sub(reps).div_ceil(reps)
        };
        for _ in 0..reps {
            let mut rep = run::run_rep(&w, Mode::Plain, log);
            // The request stream is only needed by the replays.
            rep.trace = Default::default();
            setups.push(rep.timing.setup_s());
            plain.push(rep);
            for _ in 0..extra_setups {
                setups.push(run::set_up_only(&w, log));
            }
        }
        if cli.trace {
            let traced = run::run_rep(
                &w,
                Mode::Traced {
                    export: cli.out.is_some(),
                },
                log,
            );
            per_layer = layers::measure(
                &clock,
                &w,
                &plain,
                &traced,
                eventq_growth_kb,
                log,
                &mut failures,
            );
            check_traced(&traced, &plain[0], &mut failures);
            request_spans = traced.observed.trace.and_then(|t| t.jsonl);
        }
    });

    let first = &plain[0].observed;
    for (i, rep) in plain.iter().enumerate() {
        if rep.observed.digest != first.digest {
            failures.push(format!(
                "rep {i} digest {:016x} differs from rep 0 digest {:016x}",
                rep.observed.digest, first.digest
            ));
        }
        if !rep.observed.invariants_ok {
            failures.push(format!("rep {i} broke a run invariant (see stderr)"));
        }
    }
    if let Some(pinned) = w.pinned_digest() {
        if first.digest != pinned {
            failures.push(format!(
                "digest {:016x} is not the frozen {pinned:016x}",
                first.digest
            ));
        }
    }

    let results = Results {
        workload: w.name,
        discipline: w.discipline.name(),
        seed,
        workload_seed,
        reps,
        traced: cli.trace,
        digest: first.digest,
        requests_total: first.total_requests,
        requests_failed: first.total_requests - first.goodput,
        requests_unanswered: first.unanswered(),
        latency_samples: first.latency_samples,
        samples_beyond_p999: samples_beyond(first.latency_samples, 99.9),
        failures,
        end_to_end: end_to_end(&w, &plain, setups),
        per_layer,
    };
    results.print();
    if let Some(out) = &cli.out {
        write(out, &results.to_json())?;
        if cli.trace {
            write(&format!("{out}.trace.json"), &log.to_json())?;
            if let Some(jsonl) = request_spans {
                write(&format!("{out}.requests.jsonl"), &jsonl)?;
            }
        }
    }
    println!("{}", results.summary_line());
    Ok(results.correct())
}

fn write(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("# wrote {path}");
    Ok(())
}

/// The sliced, traced repetition must be the same run as the untraced one,
/// and the tracer must have seen all of it.
fn check_traced(traced: &Rep, plain: &Rep, failures: &mut Vec<String>) {
    if traced.observed.digest != plain.observed.digest {
        failures.push(format!(
            "sliced + traced digest {:016x} differs from untraced digest {:016x}",
            traced.observed.digest, plain.observed.digest
        ));
    }
    if !traced.observed.invariants_ok {
        failures.push("traced rep broke a run invariant (see stderr)".to_string());
    }
    let dropped = traced.observed.trace.as_ref().map_or(0, |t| t.dropped);
    if dropped != 0 {
        failures.push(format!("the tracer dropped {dropped} spans"));
    }
}

/// The eight end-to-end metrics over the untraced repetitions: medians,
/// except `run_wall_s` ([`run::run_wall_s`]) and the process's peak RSS. The
/// simulated-time ones repeat exactly for a fixed seed.
fn end_to_end(w: &Workload, reps: &[Rep], setups: Vec<f64>) -> Vec<Metric> {
    let duration = w.spec.duration_secs as f64;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let rss_mb = bench::peak_rss_kb() as f64 / 1024.0;
    let (wall_s, wall_spread) = run::run_wall_s(reps);
    vec![
        Metric::over_reps("setup_s", setups, "s"),
        Metric {
            reps: per_rep(&|r| r.timing.loop_s),
            spread_frac: Some(wall_spread),
            ..Metric::new("run_wall_s", wall_s, "s")
        },
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        Metric::over_reps(
            "goodput_rps",
            per_rep(&|r| r.observed.goodput as f64 / duration),
            "1/s",
        ),
        Metric::over_reps(
            "slo_met_frac",
            per_rep(&|r| r.observed.goodput as f64 / r.observed.total_requests.max(1) as f64),
            "frac",
        ),
        Metric::over_reps(
            "latency_p50_ms",
            per_rep(&|r| r.observed.latency_p50_ms),
            "sim_ms",
        )
        .samples(reps[0].observed.latency_samples),
        Metric::over_reps(
            "latency_p99.9_ms",
            per_rep(&|r| r.observed.latency_p999_ms),
            "sim_ms",
        )
        .samples(reps[0].observed.latency_samples),
        Metric::over_reps(
            "warm_start_frac",
            per_rep(&|r| 1.0 - r.observed.cold_start_frac),
            "frac",
        ),
    ]
}

/// Runs every workload as a child process of its own, so `peak_rss_mb` is
/// per workload, writing `<out>/<workload>.json`.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = cli
        .out
        .as_deref()
        .expect("--all was checked to carry --out");
    let mut ok = true;
    for name in NAMES {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", name, "--out", &format!("{dir}/{name}.json")]);
        if let Some(seed) = cli.seed {
            child.args(["--seed", &seed.to_string()]);
        }
        if let Some(seed) = cli.workload_seed {
            child.args(["--workload-seed", &seed.to_string()]);
        }
        if let Some(reps) = cli.reps {
            child.args(["--reps", &reps.to_string()]);
        }
        if let Some(seconds) = cli.seconds {
            child.args(["--seconds", &seconds.to_string()]);
        }
        child.args(["--trace", if cli.trace { "1" } else { "0" }]);
        let status = child.status().map_err(|e| format!("{name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|cli| {
        if let Some((a, b)) = &cli.compare {
            compare::compare(a, b)
        } else if cli.all {
            run_all(&cli)
        } else {
            let name = cli.workload.clone().expect("one mode is set");
            run_workload(&cli, &name)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_pipeline_command_line_parses() {
        let cli = parse_args(&args(&[
            "--workload",
            "fleet_steady",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("fleet_steady"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (Some(7), Some(15.0), false)
        );
        assert!(
            parse_args(&args(&["--workload", "x", "--trace", "1"]))
                .unwrap()
                .trace
        );
        assert!(
            parse_args(&args(&["--workload", "x", "--trace"]))
                .unwrap()
                .trace
        );
        assert!(
            parse_args(&args(&["--workload", "x", "--trace", "--out", "o"]))
                .unwrap()
                .trace
        );
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--all"])).is_err(), "--all needs --out");
        assert!(parse_args(&args(&["--workload", "x", "--all", "--out", "d"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        let cmp = parse_args(&args(&["--compare", "a", "b"])).unwrap();
        assert_eq!(cmp.compare, Some(("a".to_string(), "b".to_string())));
    }

    #[test]
    fn end_to_end_metrics_are_the_ones_benchmark_json_bounds() {
        let w = Workload::by_name("fleet_steady", 3, 3).unwrap().miniature();
        let mut log = SpanLog::new();
        let reps = vec![run::run_rep(&w, Mode::Plain, &mut log)];
        let setups = vec![reps[0].timing.setup_s(), run::set_up_only(&w, &mut log)];
        let emitted: Vec<(String, String)> = end_to_end(&w, &reps, setups)
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let doc = json::parse(compare::BENCHMARK_JSON).unwrap();
        let declared: Vec<(String, String)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(emitted, declared);
        assert_eq!(
            compare::bounds()
                .iter()
                .map(|b| &b.name)
                .collect::<Vec<_>>(),
            declared.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
    }

    #[test]
    fn seconds_buy_whole_repetitions_never_fewer_than_the_workloads_floor() {
        let flagship = Workload::by_name("flagship_slice", 1, 1).unwrap();
        let w = Workload::by_name("substrate_fifo", 1, 1).unwrap();
        let cli = |seconds, reps, trace| Cli {
            seconds,
            reps,
            trace,
            ..Cli::default()
        };
        assert_eq!(rep_count(&cli(None, None, false), &w), 3);
        assert_eq!(rep_count(&cli(Some(1.0), None, false), &w), 3);
        assert_eq!(rep_count(&cli(Some(15.0), None, false), &flagship), 4);
        assert_eq!(rep_count(&cli(Some(45.0), None, false), &w), 10);
        assert_eq!(rep_count(&cli(Some(45.0), Some(2), false), &w), 2);
        assert_eq!(rep_count(&cli(Some(45.0), None, true), &w), 1);
    }
}
