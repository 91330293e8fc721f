//! End-to-end experiment telemetry.
//!
//! Every figure of the evaluation is computed from what is collected here:
//! the run's aggregate [`ExperimentMetrics`] (the latency distribution scaled
//! to the tail, goodput, cold starts, batch sizes and rejection breakdowns),
//! one [`SecondRow`] per second of virtual time (the time-series figures:
//! arrivals, throughput, goodput, cold starts, batch size and latency per
//! interval), the fault records of a chaos run and, when kept, the
//! individual responses.

use std::collections::HashMap;

use clockwork_controller::request::{RejectReason, RequestOutcome, Response};
use clockwork_metrics::LatencyHistogram;
use clockwork_model::{ModelTable, Tier};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::hash::Fnv1a;
use clockwork_sim::time::Timestamp;

/// One fleet fault observed by the system, with the availability it left
/// behind — the per-phase availability timeline of a chaos run is read
/// straight off these records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// When the fault fired.
    pub at: Timestamp,
    /// What happened.
    pub kind: FaultKind,
    /// Usable GPUs across the fleet immediately after the fault.
    pub alive_gpus: u32,
    /// Total GPUs in the fleet.
    pub total_gpus: u32,
}

impl FaultRecord {
    /// Fraction of the fleet's GPUs usable immediately after this fault.
    pub fn availability(&self) -> f64 {
        if self.total_gpus == 0 {
            return 0.0;
        }
        f64::from(self.alive_gpus) / f64::from(self.total_gpus)
    }
}

/// Push/deliver/cancel counters for one kind of simulation event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventMixEntry {
    /// Snake-case label of the event kind (e.g. `worker_wake`).
    pub kind: &'static str,
    /// Events of this kind ever scheduled.
    pub pushed: u64,
    /// Events of this kind delivered to the loop.
    pub delivered: u64,
    /// Events of this kind cancelled before delivery (superseded wakes and
    /// ticks).
    pub cancelled: u64,
}

/// The event-mix breakdown of a run: how many simulation events of each kind
/// were pushed, delivered and cancelled.
///
/// The perf harnesses report this next to events/sec so a wake-amplification
/// regression (an event loop drowning in redundant self-scheduled events) is
/// visible in CI artifacts, not just as a mysterious slowdown. The counters
/// obey the conservation identity `pushed == delivered + cancelled + live`
/// at every instant, where `live` is what is still queued.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventMix {
    entries: Vec<EventMixEntry>,
    noop_wakes: u64,
    noop_ticks: u64,
}

impl EventMix {
    /// Creates a mix with one zeroed entry per kind label.
    pub fn with_kinds(kinds: &[&'static str]) -> Self {
        EventMix {
            entries: kinds
                .iter()
                .map(|&kind| EventMixEntry {
                    kind,
                    ..Default::default()
                })
                .collect(),
            noop_wakes: 0,
            noop_ticks: 0,
        }
    }

    pub(crate) fn note_pushed(&mut self, kind: usize) {
        self.entries[kind].pushed += 1;
    }

    pub(crate) fn note_pushed_n(&mut self, kind: usize, n: u64) {
        self.entries[kind].pushed += n;
    }

    pub(crate) fn note_delivered(&mut self, kind: usize) {
        self.entries[kind].delivered += 1;
    }

    pub(crate) fn note_cancelled(&mut self, kind: usize) {
        self.entries[kind].cancelled += 1;
    }

    pub(crate) fn note_noop_wake(&mut self) {
        self.noop_wakes += 1;
    }

    pub(crate) fn note_noop_tick(&mut self) {
        self.noop_ticks += 1;
    }

    /// Per-kind counters, in the event loop's kind order.
    pub fn entries(&self) -> &[EventMixEntry] {
        &self.entries
    }

    /// The entry for a kind label, if that kind exists.
    pub fn entry(&self, kind: &str) -> Option<&EventMixEntry> {
        self.entries.iter().find(|e| e.kind == kind)
    }

    /// Total events pushed across all kinds.
    pub fn pushed(&self) -> u64 {
        self.entries.iter().map(|e| e.pushed).sum()
    }

    /// Total events delivered across all kinds.
    pub fn delivered(&self) -> u64 {
        self.entries.iter().map(|e| e.delivered).sum()
    }

    /// Total events cancelled across all kinds.
    pub fn cancelled(&self) -> u64 {
        self.entries.iter().map(|e| e.cancelled).sum()
    }

    /// Events still scheduled (pushed but neither delivered nor cancelled).
    pub fn live(&self) -> u64 {
        self.pushed() - self.delivered() - self.cancelled()
    }

    /// Worker wakes that were delivered but found nothing actionable (no
    /// action started, no completion finished). A healthy event loop keeps
    /// this a small fraction of delivered events; before the wake-chain fix
    /// it was ~95 % of all events in the fleet scenario.
    pub fn noop_wakes(&self) -> u64 {
        self.noop_wakes
    }

    /// Scheduler ticks that were delivered but early-outed
    /// ([`TickOutcome::Skipped`](clockwork_controller::TickOutcome)); the
    /// other delivered ticks ran a full pass.
    pub fn noop_ticks(&self) -> u64 {
        self.noop_ticks
    }

    /// Adds another system's counters kind by kind (every system counts the
    /// same kinds in the same order).
    pub fn merge(&mut self, other: &EventMix) {
        debug_assert_eq!(self.entries.len(), other.entries.len());
        for (mine, theirs) in self.entries.iter_mut().zip(&other.entries) {
            debug_assert_eq!(mine.kind, theirs.kind);
            mine.pushed += theirs.pushed;
            mine.delivered += theirs.delivered;
            mine.cancelled += theirs.cancelled;
        }
        self.noop_wakes += other.noop_wakes;
        self.noop_ticks += other.noop_ticks;
    }
}

/// Outcome counters for one service tier.
///
/// Graceful degradation is judged by comparing these across tiers: under
/// overload the strict tier should retain a larger fraction of its traffic
/// than the best-effort tier (which is shed first).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierOutcomes {
    /// Requests of this tier that arrived at the controller.
    pub submitted: u64,
    /// Requests that returned a successful inference.
    pub successes: u64,
    /// Successful requests that met their SLO.
    pub goodput: u64,
    /// Requests rejected (all reasons, shedding included).
    pub rejected: u64,
    /// Requests shed by tier-aware admission
    /// ([`RejectReason::BestEffortShed`]).
    pub shed: u64,
}

impl TierOutcomes {
    /// Fraction of this tier's submitted requests that met their SLO — the
    /// per-tier analogue of workload satisfaction, called *retention* in the
    /// scenario-matrix tables. 1.0 when the tier saw no traffic.
    pub fn retention(&self) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        self.goodput as f64 / self.submitted as f64
    }
}

/// Aggregated metrics of one experiment run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExperimentMetrics {
    /// Total requests submitted to the controller.
    pub total_requests: u64,
    /// Requests that returned a successful inference.
    pub successes: u64,
    /// Successful requests that met their SLO (goodput).
    pub goodput: u64,
    /// Requests rejected, by reason.
    pub rejections: HashMap<&'static str, u64>,
    /// Latency distribution of all completed requests.
    pub latency: LatencyHistogram,
    /// Latency distribution of only the requests that met their SLO.
    pub goodput_latency: LatencyHistogram,
    /// Mean batch size over all successful requests.
    pub mean_batch: f64,
    /// Number of successful requests served from a cold model.
    pub cold_starts: u64,
    /// Duration of the experiment (last event seen).
    pub horizon: Timestamp,
    /// Per-tier outcome breakdown, indexed by [`Tier::index`].
    pub tiers: [TierOutcomes; Tier::COUNT],
}

impl ExperimentMetrics {
    /// Fraction of all requests that met their SLO ("workload satisfaction",
    /// Fig. 7).
    pub fn satisfaction(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        self.goodput as f64 / self.total_requests as f64
    }

    /// Goodput in requests per second over the experiment horizon.
    pub fn goodput_rate(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.goodput as f64 / secs
    }

    /// Throughput (successful responses, SLO-met or not) in requests per
    /// second.
    pub fn throughput_rate(&self) -> f64 {
        let secs = self.horizon.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.successes as f64 / secs
    }

    /// Fraction of successful requests that were cold starts.
    pub fn cold_start_fraction(&self) -> f64 {
        if self.successes == 0 {
            return 0.0;
        }
        self.cold_starts as f64 / self.successes as f64
    }

    /// The outcome counters of one tier.
    pub fn tier(&self, tier: Tier) -> &TierOutcomes {
        &self.tiers[tier.index()]
    }

    /// Merges the metrics of an independent run (another shard of the same
    /// fleet) into these: counters sum, rejection maps merge, latency
    /// histograms merge bucket-wise, the mean batch is weighted by
    /// successes and the horizon is the later one.
    pub fn merge(&mut self, other: &ExperimentMetrics) {
        let batch_weight =
            self.mean_batch * self.successes as f64 + other.mean_batch * other.successes as f64;
        self.total_requests += other.total_requests;
        self.successes += other.successes;
        self.goodput += other.goodput;
        for (reason, count) in &other.rejections {
            *self.rejections.entry(reason).or_insert(0) += count;
        }
        self.latency.merge(&other.latency);
        self.goodput_latency.merge(&other.goodput_latency);
        self.mean_batch = if self.successes > 0 {
            batch_weight / self.successes as f64
        } else {
            0.0
        };
        self.cold_starts += other.cold_starts;
        self.horizon = self.horizon.max(other.horizon);
        for (tier, theirs) in self.tiers.iter_mut().zip(&other.tiers) {
            tier.submitted += theirs.submitted;
            tier.successes += theirs.successes;
            tier.goodput += theirs.goodput;
            tier.rejected += theirs.rejected;
            tier.shed += theirs.shed;
        }
    }
}

/// What one second of virtual time saw: the requests that arrived in it and
/// the successful responses that completed in it.
///
/// The time-series figures (Figs. 6 and 8) and the chaos harness's phase
/// windows are read off these rows; each row's counts sum to the run's
/// [`ExperimentMetrics`] totals.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SecondRow {
    /// Requests that arrived at the controller.
    pub arrivals: u64,
    /// Successful responses.
    pub successes: u64,
    /// Successful responses that met their SLO.
    pub goodput: u64,
    /// Successful responses served from a cold model.
    pub cold_starts: u64,
    /// Sum of the successful responses' batch sizes.
    pub batch_sum: u64,
    /// Sum of the successful responses' latencies, in milliseconds.
    pub latency_ms_sum: f64,
}

impl SecondRow {
    /// Mean batch size of this second's successes (0 if there were none).
    pub fn mean_batch(&self) -> f64 {
        self.mean(self.batch_sum as f64)
    }

    /// Mean latency of this second's successes in milliseconds (0 if there
    /// were none).
    pub fn mean_latency_ms(&self) -> f64 {
        self.mean(self.latency_ms_sum)
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.successes == 0 {
            0.0
        } else {
            sum / self.successes as f64
        }
    }
}

/// The index of the second `at` falls in.
fn second_of(at: Timestamp) -> usize {
    (at.as_nanos() / 1_000_000_000) as usize
}

/// Collects per-request outcomes and per-second rows during a run.
#[derive(Clone, Debug)]
pub struct SystemTelemetry {
    keep_responses: bool,
    responses: Vec<Response>,
    /// The run's aggregate metrics as they accrue, `mean_batch` aside: that
    /// is read off the rows' batch sums. The per-tier counters are
    /// deliberately NOT folded into the determinism digest: the tier
    /// annotation must not change the digest of a run whose scheduling
    /// decisions are unchanged.
    metrics: ExperimentMetrics,
    /// One row per second of virtual time, grown as far as the latest
    /// arrival or completion.
    seconds: Vec<SecondRow>,
    per_model_success: ModelTable<u64>,
    faults: Vec<FaultRecord>,
    /// Event-mix counters, maintained by the driving event loop.
    pub(crate) event_mix: EventMix,
    digest: Fnv1a,
}

impl Default for SystemTelemetry {
    fn default() -> Self {
        Self::new(true)
    }
}

impl SystemTelemetry {
    /// Creates an empty telemetry collector.
    pub fn new(keep_responses: bool) -> Self {
        SystemTelemetry {
            keep_responses,
            responses: Vec::new(),
            metrics: ExperimentMetrics::default(),
            seconds: Vec::new(),
            per_model_success: ModelTable::default(),
            faults: Vec::new(),
            event_mix: EventMix::default(),
            digest: Fnv1a::new(),
        }
    }

    /// The event-mix breakdown (pushed/delivered/cancelled per event kind)
    /// the driving event loop maintained during the run.
    pub fn event_mix(&self) -> &EventMix {
        &self.event_mix
    }

    #[inline]
    fn digest_fold(&mut self, value: u64) {
        self.digest.write_u64_le(value);
    }

    /// An order-sensitive FNV-1a digest over every response the controller
    /// produced (request id, model, outcome kind, timing, placement).
    ///
    /// Two runs of the same configuration with the same seed must report the
    /// same digest — the golden-digest test and the fleet-scale perf harness
    /// both use this to pin down that optimisations did not change
    /// scheduling decisions.
    pub fn response_digest(&self) -> u64 {
        self.digest.finish()
    }

    fn advance(&mut self, t: Timestamp) {
        if t > self.metrics.horizon && t != Timestamp::MAX {
            self.metrics.horizon = t;
        }
    }

    /// The row of the second `at` falls in, growing the table to reach it.
    fn second_mut(&mut self, at: Timestamp) -> &mut SecondRow {
        let index = second_of(at);
        if index >= self.seconds.len() {
            self.seconds.resize(index + 1, SecondRow::default());
        }
        &mut self.seconds[index]
    }

    /// Records that a request arrived at the controller.
    pub fn record_arrival(&mut self, at: Timestamp, tier: Tier) {
        self.metrics.total_requests += 1;
        self.metrics.tiers[tier.index()].submitted += 1;
        self.second_mut(at).arrivals += 1;
        self.advance(at);
    }

    /// Records a response returned to a client of a known tier.
    pub fn record_response_with_tier(&mut self, response: &Response, tier: Tier) {
        self.digest_fold(response.request.0);
        self.digest_fold(u64::from(response.model.0));
        let tier = tier.index();
        match &response.outcome {
            RequestOutcome::Success {
                completed,
                batch,
                worker,
                gpu,
                cold_start,
            } => {
                self.digest_fold(1);
                self.digest_fold(completed.as_nanos());
                self.digest_fold(u64::from(*batch));
                self.digest_fold(u64::from(worker.0));
                self.digest_fold(u64::from(gpu.0));
                self.digest_fold(u64::from(*cold_start));
                let latency = *completed - response.arrival;
                let met_slo = response.met_slo();
                let row = self.second_mut(*completed);
                row.successes += 1;
                row.latency_ms_sum += latency.as_millis_f64();
                row.batch_sum += u64::from(*batch);
                row.cold_starts += u64::from(*cold_start);
                row.goodput += u64::from(met_slo);
                let m = &mut self.metrics;
                m.successes += 1;
                m.tiers[tier].successes += 1;
                m.latency.record(latency);
                m.cold_starts += u64::from(*cold_start);
                if met_slo {
                    m.goodput += 1;
                    m.tiers[tier].goodput += 1;
                    m.goodput_latency.record(latency);
                }
                *self.per_model_success.get_or_default(response.model) += 1;
                self.advance(*completed);
            }
            RequestOutcome::Rejected { at, reason } => {
                self.digest_fold(2);
                self.digest_fold(at.as_nanos());
                self.digest_fold(*reason as u64);
                let m = &mut self.metrics;
                *m.rejections.entry(reason.as_str()).or_insert(0) += 1;
                m.tiers[tier].rejected += 1;
                if *reason == RejectReason::BestEffortShed {
                    m.tiers[tier].shed += 1;
                }
                self.advance(*at);
            }
        }
        if self.keep_responses {
            self.responses.push(*response);
        }
    }

    /// Records a fleet fault: folds it into the determinism digest (fault
    /// plans are part of the configuration, so two runs only compare equal
    /// when their fault histories match) and keeps the availability record
    /// that chaos experiments report per phase.
    pub fn record_fault(
        &mut self,
        at: Timestamp,
        kind: &FaultKind,
        alive_gpus: u32,
        total_gpus: u32,
    ) {
        self.digest_fold(3);
        self.digest_fold(kind.digest_code());
        self.digest_fold(u64::from(kind.worker()));
        self.digest_fold(kind.aux());
        self.digest_fold(at.as_nanos());
        self.digest_fold(u64::from(alive_gpus));
        self.faults.push(FaultRecord {
            at,
            kind: *kind,
            alive_gpus,
            total_gpus,
        });
        self.advance(at);
    }

    /// Every fault observed so far, in delivery order.
    pub fn fault_records(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// The lowest fleet availability seen across all faults (1.0 if none).
    pub fn min_availability(&self) -> f64 {
        self.faults
            .iter()
            .map(FaultRecord::availability)
            .fold(1.0, f64::min)
    }

    /// The fleet availability after the last fault (1.0 if none fired).
    pub fn final_availability(&self) -> f64 {
        self.faults
            .last()
            .map(FaultRecord::availability)
            .unwrap_or(1.0)
    }

    /// One row per second of the run so far, from second 0 to the last
    /// second an arrival or completion fell in.
    pub fn seconds(&self) -> &[SecondRow] {
        &self.seconds
    }

    /// The row of second `index`; an empty row past the end of the run.
    pub fn second(&self, index: usize) -> SecondRow {
        self.seconds.get(index).copied().unwrap_or_default()
    }

    /// The rows of the seconds `[from, to]` overlaps (none if `to < from`).
    fn seconds_between(&self, from: Timestamp, to: Timestamp) -> &[SecondRow] {
        let end = (second_of(to) + 1).min(self.seconds.len());
        if to < from || second_of(from) >= end {
            return &[];
        }
        &self.seconds[second_of(from)..end]
    }

    /// SLO-met responses completed in `[from, to]`, at the resolution of the
    /// per-second rows — the phase metric of the chaos harness.
    pub fn goodput_between(&self, from: Timestamp, to: Timestamp) -> u64 {
        self.seconds_between(from, to)
            .iter()
            .map(|r| r.goodput)
            .sum()
    }

    /// Requests that arrived at the controller in `[from, to]`, at the
    /// resolution of the per-second rows.
    pub fn arrivals_between(&self, from: Timestamp, to: Timestamp) -> u64 {
        self.seconds_between(from, to)
            .iter()
            .map(|r| r.arrivals)
            .sum()
    }

    /// All individual responses (empty if `keep_responses` was disabled).
    pub fn responses(&self) -> &[Response] {
        &self.responses
    }

    /// End-to-end latency distribution of completed requests.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.metrics.latency
    }

    /// Successful-response counts per model.
    pub fn per_model_successes(&self) -> &ModelTable<u64> {
        &self.per_model_success
    }

    /// Finalises the aggregate metrics.
    pub fn metrics(&self) -> ExperimentMetrics {
        let batch_sum: u64 = self.seconds.iter().map(|r| r.batch_sum).sum();
        let mean_batch = if self.metrics.successes == 0 {
            0.0
        } else {
            batch_sum as f64 / self.metrics.successes as f64
        };
        ExperimentMetrics {
            mean_batch,
            ..self.metrics.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_controller::request::{RejectReason, RequestId};
    use clockwork_model::ModelId;
    use clockwork_worker::{GpuId, WorkerId};
    use proptest::prelude::*;

    fn success(arrival_ms: u64, completed_ms: u64, deadline_ms: u64, cold: bool) -> Response {
        Response {
            request: RequestId(arrival_ms),
            model: ModelId(1),
            arrival: Timestamp::from_millis(arrival_ms),
            deadline: Timestamp::from_millis(deadline_ms),
            outcome: RequestOutcome::Success {
                completed: Timestamp::from_millis(completed_ms),
                batch: 4,
                worker: WorkerId(0),
                gpu: GpuId(0),
                cold_start: cold,
            },
        }
    }

    #[test]
    fn aggregates_follow_responses() {
        let mut t = SystemTelemetry::new(true);
        t.record_arrival(Timestamp::from_millis(0), Tier::Strict);
        t.record_arrival(Timestamp::from_millis(1), Tier::Strict);
        t.record_arrival(Timestamp::from_millis(2), Tier::Strict);
        t.record_response_with_tier(&success(0, 10, 100, false), Tier::Strict); // met SLO
        t.record_response_with_tier(&success(1, 500, 100, true), Tier::Strict); // missed SLO
        t.record_response_with_tier(
            &Response {
                request: RequestId(3),
                model: ModelId(1),
                arrival: Timestamp::from_millis(2),
                deadline: Timestamp::from_millis(50),
                outcome: RequestOutcome::Rejected {
                    at: Timestamp::from_millis(2),
                    reason: RejectReason::CannotMeetSlo,
                },
            },
            Tier::Strict,
        );
        let m = t.metrics();
        assert_eq!(m.total_requests, 3);
        assert_eq!(m.successes, 2);
        assert_eq!(m.goodput, 1);
        assert_eq!(m.cold_starts, 1);
        assert!((m.satisfaction() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.rejections.get("cannot_meet_slo"), Some(&1));
        assert_eq!(m.mean_batch, 4.0);
        assert!((m.cold_start_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(t.responses().len(), 3);
        assert_eq!(t.per_model_successes().get(ModelId(1)), Some(&2));
        assert_eq!(t.per_model_successes().len(), 1);
        assert!(m.goodput_rate() > 0.0);
        assert!(m.throughput_rate() >= m.goodput_rate());
    }

    #[test]
    fn keep_responses_flag_controls_raw_storage() {
        let mut t = SystemTelemetry::new(false);
        t.record_arrival(Timestamp::ZERO, Tier::Strict);
        t.record_response_with_tier(&success(0, 10, 100, false), Tier::Strict);
        assert!(t.responses().is_empty());
        assert_eq!(t.metrics().successes, 1);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let t = SystemTelemetry::default();
        let m = t.metrics();
        assert_eq!(m.satisfaction(), 0.0);
        assert_eq!(m.goodput_rate(), 0.0);
        assert_eq!(m.cold_start_fraction(), 0.0);
    }

    #[test]
    fn fault_records_fold_into_the_digest_and_track_availability() {
        let mut quiet = SystemTelemetry::new(false);
        let mut faulted = SystemTelemetry::new(false);
        quiet.record_response_with_tier(&success(0, 10, 100, false), Tier::Strict);
        faulted.record_response_with_tier(&success(0, 10, 100, false), Tier::Strict);
        assert_eq!(quiet.response_digest(), faulted.response_digest());
        faulted.record_fault(
            Timestamp::from_millis(20),
            &FaultKind::WorkerCrash { worker: 3 },
            76,
            80,
        );
        assert_ne!(
            quiet.response_digest(),
            faulted.response_digest(),
            "a fault must change the digest"
        );
        faulted.record_fault(
            Timestamp::from_millis(30),
            &FaultKind::WorkerRestart { worker: 3 },
            80,
            80,
        );
        assert_eq!(faulted.fault_records().len(), 2);
        assert!((faulted.min_availability() - 0.95).abs() < 1e-9);
        assert!((faulted.final_availability() - 1.0).abs() < 1e-9);
        assert!(faulted.fault_records()[0].kind.worker() == 3);
    }

    #[test]
    fn phase_windows_sum_the_per_second_series() {
        let mut t = SystemTelemetry::new(false);
        for s in 0..10u64 {
            t.record_arrival(Timestamp::from_secs(s), Tier::Strict);
            t.record_response_with_tier(
                &success(s * 1000, s * 1000 + 10, s * 1000 + 100, false),
                Tier::Strict,
            );
        }
        assert_eq!(
            t.goodput_between(Timestamp::ZERO, Timestamp::from_secs(9)),
            10
        );
        assert_eq!(
            t.goodput_between(Timestamp::from_secs(2), Timestamp::from_secs(4)),
            3
        );
        assert_eq!(
            t.arrivals_between(Timestamp::from_secs(5), Timestamp::from_secs(5)),
            1
        );
        assert_eq!(
            t.goodput_between(Timestamp::from_secs(9), Timestamp::from_secs(2)),
            0,
            "inverted windows are empty"
        );
    }

    #[test]
    fn tier_breakdown_tracks_outcomes_without_touching_the_digest() {
        let mut strict = SystemTelemetry::new(false);
        let mut tiered = SystemTelemetry::new(false);
        strict.record_arrival(Timestamp::ZERO, Tier::Strict);
        tiered.record_arrival(Timestamp::ZERO, Tier::BestEffort);
        strict.record_response_with_tier(&success(0, 10, 100, false), Tier::Strict);
        tiered.record_response_with_tier(&success(0, 10, 100, false), Tier::BestEffort);
        assert_eq!(
            strict.response_digest(),
            tiered.response_digest(),
            "the tier annotation must not alter the determinism digest"
        );
        let m = tiered.metrics();
        assert_eq!(m.tier(Tier::BestEffort).submitted, 1);
        assert_eq!(m.tier(Tier::BestEffort).goodput, 1);
        assert_eq!(m.tier(Tier::Strict).submitted, 0);
        assert!((m.tier(Tier::BestEffort).retention() - 1.0).abs() < 1e-9);

        let mut shed = SystemTelemetry::new(false);
        shed.record_arrival(Timestamp::ZERO, Tier::BestEffort);
        shed.record_response_with_tier(
            &Response {
                request: RequestId(7),
                model: ModelId(1),
                arrival: Timestamp::ZERO,
                deadline: Timestamp::from_millis(50),
                outcome: RequestOutcome::Rejected {
                    at: Timestamp::from_millis(1),
                    reason: RejectReason::BestEffortShed,
                },
            },
            Tier::BestEffort,
        );
        let be = *shed.metrics().tier(Tier::BestEffort);
        assert_eq!(be.rejected, 1);
        assert_eq!(be.shed, 1);
        assert_eq!(be.retention(), 0.0);
        assert_eq!(
            shed.metrics().rejections.get("best_effort_shed"),
            Some(&1),
            "shedding shows up in the global rejection breakdown too"
        );
    }

    #[test]
    fn latency_percentiles_track_recorded_values() {
        let mut t = SystemTelemetry::new(false);
        for i in 1..=100u64 {
            t.record_arrival(Timestamp::ZERO, Tier::Strict);
            t.record_response_with_tier(&success(0, i, 1_000, false), Tier::Strict);
        }
        let p50 = t.metrics().latency.percentile(50.0).as_millis_f64();
        assert!((p50 - 50.0).abs() < 3.0, "p50 {p50}");
    }

    proptest! {
        #[test]
        fn per_second_rows_conserve_the_recorded_totals(
            events in proptest::collection::vec(
                (0u64..20_000, 0u64..3_000, 0u64..400, 1u32..17, any::<bool>(), any::<bool>()),
                0..300,
            )
        ) {
            let mut t = SystemTelemetry::new(false);
            for (i, &(arrival_ms, latency_ms, slo_ms, batch, cold, served)) in events.iter().enumerate() {
                t.record_arrival(Timestamp::from_millis(arrival_ms), Tier::Strict);
                let at = Timestamp::from_millis(arrival_ms + latency_ms);
                let outcome = if served {
                    RequestOutcome::Success {
                        completed: at,
                        batch,
                        worker: WorkerId(0),
                        gpu: GpuId(0),
                        cold_start: cold,
                    }
                } else {
                    RequestOutcome::Rejected { at, reason: RejectReason::CannotMeetSlo }
                };
                let response = Response {
                    request: RequestId(i as u64),
                    model: ModelId(0),
                    arrival: Timestamp::from_millis(arrival_ms),
                    deadline: Timestamp::from_millis(arrival_ms + slo_ms),
                    outcome,
                };
                t.record_response_with_tier(&response, Tier::Strict);
            }
            // The rows partition the run: they sum to the aggregate
            // counters, and their batch sums give the aggregate mean batch.
            let m = t.metrics();
            let sum = |field: fn(&SecondRow) -> u64| t.seconds().iter().map(field).sum::<u64>();
            prop_assert_eq!(sum(|r| r.arrivals), m.total_requests);
            prop_assert_eq!(sum(|r| r.successes), m.successes);
            prop_assert_eq!(sum(|r| r.goodput), m.goodput);
            prop_assert_eq!(sum(|r| r.cold_starts), m.cold_starts);
            prop_assert_eq!(m.successes, events.iter().filter(|e| e.5).count() as u64);
            if m.successes > 0 {
                prop_assert_eq!(sum(|r| r.batch_sum) as f64 / m.successes as f64, m.mean_batch);
            }
            let end = Timestamp::from_secs(t.seconds().len() as u64);
            prop_assert_eq!(t.arrivals_between(Timestamp::ZERO, end), m.total_requests);
            prop_assert_eq!(t.goodput_between(Timestamp::ZERO, end), m.goodput);
        }
    }
}
