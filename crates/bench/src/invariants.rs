//! The universal invariants every run must keep, in one place.
//!
//! Every discipline × scenario combination — the chaos comparison, the batch
//! sweep, the trace-blame matrix, the scenario matrix, the chaos-fuzz
//! harness and every serving run of the paper's figures — is held to the
//! same discipline-independent checks:
//!
//! - **Exactly-once accounting** (drained runs): `successes + rejected ==
//!   total`. A discipline that drops a request on the floor, or answers one
//!   twice, fails here.
//! - **No over-delivery** (all runs, even interrupted ones): `successes +
//!   rejected <= total`.
//! - **Goodput honesty**: nothing counted as goodput took longer than the
//!   SLO.
//! - **Event conservation**: `pushed == delivered + cancelled + live` over
//!   the simulation event queue.
//! - **Determinism**: the same spec under the same discipline yields the
//!   same order-sensitive response digest, twice.
//!
//! Each check prints a loud `VIOLATION` line to stderr and returns `false`
//! on failure; the binaries fold the result into their exit status so CI
//! fails on any violation, and the fuzz and zoo tests assert on the same
//! functions through the same cell runner ([`crate::run_cell`]). The checks
//! read a plain-data [`RunOutcome`], so one shard of a fleet, a whole fleet
//! (`FleetReport::merged`) and a single unsharded run are all held to the
//! same functions.

use clockwork::prelude::*;

/// Exactly-once accounting, over-delivery and goodput-honesty checks.
///
/// The accounting identity is only enforced on drained runs: an event-capped
/// run legitimately leaves requests unanswered (but must never answer one
/// twice, which the over-delivery check catches regardless).
pub fn check_accounting(label: &str, run: &RunOutcome, spec: &ScenarioSpec) -> bool {
    let m = &run.metrics;
    let rejected = run.rejected();
    let mut ok = true;
    if run.drained() && !run.identity_ok() {
        eprintln!(
            "[{label}] ACCOUNTING VIOLATION: successes {} + rejected {} != total {}",
            m.successes, rejected, m.total_requests
        );
        ok = false;
    }
    ok &= check_overdelivery(label, run);
    // Goodput only counts on-time responses. Tiered workloads carry
    // per-request SLOs at or above the scenario's strict SLO, so the
    // scenario-wide bound only applies when every request uses it.
    let slo_bound = match spec.workload {
        WorkloadSpec::Shaped { tiers, .. } if tiers.is_tiered() => {
            spec.slo().max(Nanos::from_millis(tiers.best_effort_slo_ms))
        }
        _ => spec.slo(),
    };
    if m.goodput > 0 && m.goodput_latency.max() > slo_bound {
        eprintln!(
            "[{label}] GOODPUT VIOLATION: a response counted as goodput took {} > SLO bound {}",
            m.goodput_latency.max(),
            slo_bound
        );
        ok = false;
    }
    ok
}

/// No over-delivery: `successes + rejected <= total`, even on runs stopped
/// with requests in flight.
pub fn check_overdelivery(label: &str, run: &RunOutcome) -> bool {
    if !run.overdelivered() {
        return true;
    }
    let m = &run.metrics;
    eprintln!(
        "[{label}] DUPLICATE RESPONSES: successes {} + rejected {} > total {}",
        m.successes,
        run.rejected(),
        m.total_requests
    );
    false
}

/// The event-queue conservation identity
/// `pushed == delivered + cancelled + live`.
pub fn check_event_mix(label: &str, run: &RunOutcome) -> bool {
    if run.mix_conserved() {
        return true;
    }
    let mix = &run.mix;
    eprintln!(
        "[{label}] EVENT ACCOUNTING VIOLATION: pushed {} != delivered {} + cancelled {} + live {}",
        mix.pushed(),
        mix.delivered(),
        mix.cancelled(),
        run.live_events
    );
    false
}

/// Digest-stability across two same-seed runs of the same spec.
pub fn check_determinism(label: &str, first: &RunOutcome, rerun: &RunOutcome) -> bool {
    if first.digest == rerun.digest {
        return true;
    }
    eprintln!(
        "[{label}] DETERMINISM VIOLATION: digest {:016x} != rerun {:016x}",
        first.digest, rerun.digest
    );
    false
}

/// All single-run invariants at once: accounting, over-delivery, goodput
/// honesty and event conservation.
pub fn check_outcome(label: &str, run: &RunOutcome, spec: &ScenarioSpec) -> bool {
    // Evaluate both so every violation prints, not just the first.
    let accounting = check_accounting(label, run, spec);
    let mix = check_event_mix(label, run);
    accounting && mix
}

/// [`check_outcome`] for a caller still holding the finished system.
pub fn check_run(label: &str, report: &RunReport, spec: &ScenarioSpec) -> bool {
    check_outcome(label, &report.outcome(), spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_runs_pass_every_check() {
        let spec = ScenarioSpec {
            workers: 2,
            gpus_per_worker: 1,
            models: 4,
            duration_secs: 2,
            ..ScenarioSpec::smoke(23)
        };
        let experiment = Experiment::new(spec.clone());
        let a = experiment.run(&ClockworkFactory::default());
        let b = experiment.run(&ClockworkFactory::default());
        assert!(check_run("a", &a, &spec));
        assert!(check_determinism("a", &a.outcome(), &b.outcome()));
    }

    #[test]
    fn tiered_specs_bound_goodput_by_the_loosest_slo() {
        let spec = ScenarioSpec::flash_crowd()
            .with_duration_secs(5)
            .with_seed(3);
        let report = Experiment::new(spec.clone()).run(&ClockworkFactory::default());
        assert!(check_run("flash", &report, &spec));
    }
}
