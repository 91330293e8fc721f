//! The plain-data outcome of one run.
//!
//! A [`RunReport`](crate::experiment::RunReport) owns the finished
//! [`ServingSystem`](crate::system::ServingSystem); a [`RunOutcome`] is what
//! remains once that is dropped — `Clone + Send`, so it is what sweep
//! harnesses keep per cell, what a shard thread returns across its join and
//! what a fleet folds into one. The accounting predicates every harness
//! gates on are defined here, once.

use clockwork_controller::SchedProfile;

use crate::telemetry::{EventMix, ExperimentMetrics};

/// What one run of a spec under a discipline produced.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Name of the discipline that drove the run.
    pub discipline: String,
    /// Requests submitted up front (0 for closed-loop workloads).
    pub submitted: u64,
    /// The order-sensitive FNV-1a response digest.
    pub digest: u64,
    /// Simulation events delivered.
    pub events_processed: u64,
    /// Events still scheduled when the run stopped.
    pub live_events: u64,
    /// Host wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Aggregate serving metrics.
    pub metrics: ExperimentMetrics,
    /// Per-kind event accounting.
    pub mix: EventMix,
    /// Scheduler self-profiling counters.
    pub sched: SchedProfile,
}

/// Equality of everything the simulation determines: `wall_secs`, the one
/// host-clock field, is ignored, so two same-seed runs compare equal.
impl PartialEq for RunOutcome {
    fn eq(&self, other: &Self) -> bool {
        let RunOutcome {
            discipline,
            submitted,
            digest,
            events_processed,
            live_events,
            wall_secs: _,
            metrics,
            mix,
            sched,
        } = self;
        *discipline == other.discipline
            && *submitted == other.submitted
            && *digest == other.digest
            && *events_processed == other.events_processed
            && *live_events == other.live_events
            && *metrics == other.metrics
            && *mix == other.mix
            && *sched == other.sched
    }
}

impl RunOutcome {
    /// Total up-front rejections across all reject reasons.
    pub fn rejected(&self) -> u64 {
        self.metrics.rejections.values().sum()
    }

    /// Whether the run ran out of work — no live events left, so nothing
    /// further could ever happen — as opposed to stopping at its event cap
    /// or at the horizon with work still pending. Only a drained run can be
    /// held to the exactly-once accounting identity: a best-effort
    /// discipline stopped mid-flight may legitimately still hold queued
    /// requests it would eventually answer (it keeps its tick chain alive
    /// exactly while requests are pending, so a discipline that silently
    /// *dropped* a request empties its queue and still gets caught).
    pub fn drained(&self) -> bool {
        self.live_events == 0
    }

    /// The exactly-once accounting identity `successes + rejected == total`.
    /// Only meaningful for drained runs; an event-capped run legitimately
    /// leaves requests unanswered (but must never answer one twice, which
    /// [`RunOutcome::overdelivered`] checks).
    pub fn identity_ok(&self) -> bool {
        self.metrics.successes + self.rejected() == self.metrics.total_requests
    }

    /// Whether more responses than requests were recorded — a violation even
    /// for interrupted runs.
    pub fn overdelivered(&self) -> bool {
        self.metrics.successes + self.rejected() > self.metrics.total_requests
    }

    /// Requests still unanswered when the run stopped — nonzero for
    /// best-effort disciplines in collapse, whose queues outlive the trace.
    pub fn backlog(&self) -> u64 {
        self.metrics
            .total_requests
            .saturating_sub(self.metrics.successes)
            .saturating_sub(self.rejected())
    }

    /// The event-mix conservation identity
    /// `pushed == delivered + cancelled + live`.
    pub fn mix_conserved(&self) -> bool {
        self.mix.pushed() == self.mix.delivered() + self.mix.cancelled() + self.live_events
    }

    /// Delivered events per host wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events_processed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Folds the outcome of an independent run of another slice of the same
    /// scenario into this one: counters add, metrics and event mixes merge.
    /// `discipline`, `digest` and `wall_secs` keep this outcome's values —
    /// how digests and host clocks combine is the merging caller's policy.
    pub fn absorb(&mut self, other: &RunOutcome) {
        self.submitted += other.submitted;
        self.events_processed += other.events_processed;
        self.live_events += other.live_events;
        self.metrics.merge(&other.metrics);
        self.mix.merge(&other.mix);
        self.sched.ticks_full += other.sched.ticks_full;
        self.sched.ticks_skipped += other.sched.ticks_skipped;
        self.sched.candidates_scanned += other.sched.candidates_scanned;
        self.sched.strategies_recomputed += other.sched.strategies_recomputed;
        self.sched.load_prio_recomputes += other.sched.load_prio_recomputes;
    }
}
