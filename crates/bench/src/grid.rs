//! The one runner behind the matrix harnesses, `grid` and `trace_blame`.
//!
//! A [`Grid`] carries the shared [`MatrixArgs`] and the run's failure flag.
//! It prints the harness's header, runs its cells — a [`ScenarioSpec`]
//! under every discipline through [`run_cell`], or a sharded fleet through
//! the same rerun-and-compare under `--check-determinism` — holds every
//! cell to [`invariants`], checks that the cells of one trace were all
//! offered the same arrivals ([`offered_rps`]), and [`Grid::finish`] writes
//! the artifact and sets the exit status. A caller's closure reduces each
//! [`RunReport`] before the next cell starts, so peak memory holds one
//! system. What a harness adds is its specs, its table, its gate and its
//! JSON cell.

use std::cell::Cell;
use std::fmt::Display;

use clockwork::json::Value;
use clockwork::prelude::*;
use clockwork_shard::{FleetReport, ShardedExperiment, ShardedSpec};

use crate::cli::MatrixArgs;
use crate::{disciplines, invariants, offered_rps, run_cell, write_json};

/// One harness run: its flags, its disciplines and whether any check failed.
pub struct Grid {
    /// The parsed flags.
    pub args: MatrixArgs,
    title: &'static str,
    default_out: &'static str,
    registry: SchedulerRegistry,
    failed: Cell<bool>,
}

impl Grid {
    /// A run titled `title` in its header, writing to `default_out` unless
    /// `--out` says otherwise.
    pub fn new(title: &'static str, default_out: &'static str, args: MatrixArgs) -> Grid {
        Grid {
            args,
            title,
            default_out,
            registry: disciplines(),
            failed: Cell::new(false),
        }
    }

    /// Prints the header line, `# <title>: <body>`.
    pub fn header(&self, body: impl Display) {
        println!("# {}: {body}", self.title);
    }

    /// Prints the header of a grid over every discipline:
    /// `# <title>: N disciplines (…) x <rest>`.
    pub fn header_disciplines(&self, rest: impl Display) {
        let names = self.registry.names().join(", ");
        self.header(format_args!(
            "{} disciplines ({names}) x {rest}",
            self.registry.len()
        ));
    }

    /// `", determinism checked"` under `--check-determinism`, else empty.
    pub fn checked_note(&self) -> &'static str {
        if self.args.check_determinism {
            ", determinism checked"
        } else {
            ""
        }
    }

    /// Records a check's verdict: one `false` fails the run.
    pub fn gate(&self, ok: bool) {
        self.failed.set(self.failed.get() || !ok);
    }

    /// Runs `spec` under every discipline in row order, each cell through
    /// [`run_cell`] under `label(discipline)`, announced on stdout first
    /// when `announce` is set. `reduce` keeps what the row needs of each
    /// report before the next cell runs. Returns the rows and the rate the
    /// cells were offered, which must be the same in every one (NaN, and a
    /// failed run, when not).
    pub fn disciplines<T>(
        &self,
        spec: &ScenarioSpec,
        announce: bool,
        label: impl Fn(&str) -> String,
        mut reduce: impl FnMut(&RunReport) -> T,
    ) -> (Vec<T>, f64) {
        let experiment = Experiment::new(spec.clone());
        let mut totals = Vec::new();
        let rows = self
            .registry
            .iter()
            .map(|factory| {
                let label = label(factory.name());
                if announce {
                    println!("# running {label}...");
                }
                let (report, ok) =
                    run_cell(&label, &experiment, factory, self.args.check_determinism);
                self.gate(ok);
                totals.push(report.metrics().total_requests);
                reduce(&report)
            })
            .collect();
        (rows, self.offered(&spec.name, &totals, spec.duration_secs))
    }

    /// Runs one sharded fleet cell: every shard is held to
    /// [`invariants::check_outcome`] against the unsharded spec, and under
    /// `--check-determinism` the fleet runs again and must reproduce its
    /// fleet digest. Returns the fleet and the fleet merged as one run.
    pub fn fleet<F: SchedulerFactory + Sync>(
        &self,
        label: &str,
        spec: ShardedSpec,
        factory: &F,
    ) -> (FleetReport, RunOutcome) {
        let experiment = ShardedExperiment::new(spec);
        let fleet = experiment.run(factory);
        let merged = fleet.merged();
        for s in &fleet.shards {
            let shard_label = format!("{label}/shard{}", s.shard);
            let base = &experiment.spec().base;
            self.gate(invariants::check_outcome(&shard_label, &s.outcome, base));
        }
        if self.args.check_determinism {
            let rerun = experiment.run(factory).merged();
            self.gate(invariants::check_determinism(label, &merged, &rerun));
        }
        (fleet, merged)
    }

    /// [`offered_rps`] of cells that all ran one trace, `what`; NaN, and a
    /// failed run, when their totals differ.
    pub fn offered(&self, what: &str, totals: &[u64], duration_secs: u64) -> f64 {
        offered_rps(totals, duration_secs).unwrap_or_else(|| {
            eprintln!(
                "OFFERED-LOAD VIOLATION in {what}: the cells saw different totals {totals:?}"
            );
            self.gate(false);
            f64::NAN
        })
    }

    /// Writes the artifact and exits 1 if any check failed.
    pub fn finish(&self, doc: &Value) {
        write_json(self.args.out.as_deref().unwrap_or(self.default_out), doc);
        if self.failed.get() {
            std::process::exit(1);
        }
    }
}
