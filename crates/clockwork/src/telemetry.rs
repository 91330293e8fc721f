//! End-to-end experiment telemetry.
//!
//! Every figure of the evaluation is computed from the per-request responses
//! and per-interval series collected here: goodput (responses within SLO) and
//! throughput over time, the latency distribution scaled to the tail, batch
//! sizes, cold-start counts, and rejection breakdowns.

use std::collections::HashMap;

use clockwork_controller::request::{RejectReason, RequestOutcome, Response};
use clockwork_metrics::{LatencyHistogram, Summary, TimeSeries};
use clockwork_model::{ModelTable, Tier};
use clockwork_sim::engine::FaultKind;
use clockwork_sim::hash::Fnv1a;
use clockwork_sim::time::{Nanos, Timestamp};

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
#[derive(Clone, Debug, PartialEq)]
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

/// Collects per-request outcomes and time series during a run.
#[derive(Clone, Debug)]
pub struct SystemTelemetry {
    keep_responses: bool,
    responses: Vec<Response>,
    total_requests: u64,
    successes: u64,
    goodput: u64,
    cold_starts: u64,
    rejections: HashMap<&'static str, u64>,
    latency: LatencyHistogram,
    goodput_latency: LatencyHistogram,
    batch_sizes: Summary,
    /// Requests submitted per second.
    pub request_series: TimeSeries,
    /// Successful responses per second.
    pub throughput_series: TimeSeries,
    /// SLO-met responses per second.
    pub goodput_series: TimeSeries,
    /// Cold-start responses per second.
    pub cold_start_series: TimeSeries,
    /// Mean batch size per second (gauge).
    pub batch_series: TimeSeries,
    /// Latency (ms) samples per second (gauge, for max/percentile plots).
    pub latency_series: TimeSeries,
    per_model_success: ModelTable<u64>,
    /// Per-tier outcome counters, indexed by [`Tier::index`]. Deliberately
    /// NOT folded into the determinism digest: the tier annotation must not
    /// change the digest of a run whose scheduling decisions are unchanged.
    tiers: [TierOutcomes; Tier::COUNT],
    faults: Vec<FaultRecord>,
    /// Event-mix counters, maintained by the driving event loop.
    pub(crate) event_mix: EventMix,
    /// Scheduler ticks that ran a full pass, counted from the
    /// [`TickOutcome`](clockwork_controller::TickOutcome) each delivered
    /// tick reports.
    sched_ticks_full: u64,
    /// Scheduler ticks answered by the early-out.
    sched_ticks_skipped: u64,
    horizon: Timestamp,
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
            total_requests: 0,
            successes: 0,
            goodput: 0,
            cold_starts: 0,
            rejections: HashMap::new(),
            latency: LatencyHistogram::new(),
            goodput_latency: LatencyHistogram::new(),
            batch_sizes: Summary::new(),
            request_series: TimeSeries::per_second(),
            throughput_series: TimeSeries::per_second(),
            goodput_series: TimeSeries::per_second(),
            cold_start_series: TimeSeries::per_second(),
            batch_series: TimeSeries::per_second(),
            latency_series: TimeSeries::per_second(),
            per_model_success: ModelTable::default(),
            tiers: [TierOutcomes::default(); Tier::COUNT],
            faults: Vec::new(),
            event_mix: EventMix::default(),
            sched_ticks_full: 0,
            sched_ticks_skipped: 0,
            horizon: Timestamp::ZERO,
            digest: Fnv1a::new(),
        }
    }

    /// The event-mix breakdown (pushed/delivered/cancelled per event kind)
    /// the driving event loop maintained during the run.
    pub fn event_mix(&self) -> &EventMix {
        &self.event_mix
    }

    /// Counts one delivered scheduler tick by what it did (`full` ran the
    /// whole pass, otherwise it early-outed).
    pub(crate) fn note_tick_outcome(&mut self, full: bool) {
        if full {
            self.sched_ticks_full += 1;
        } else {
            self.sched_ticks_skipped += 1;
        }
    }

    /// Delivered scheduler ticks that ran a full pass.
    pub fn sched_ticks_full(&self) -> u64 {
        self.sched_ticks_full
    }

    /// Delivered scheduler ticks answered by the early-out. A healthy
    /// incremental scheduler keeps this small: most skippable ticks are
    /// never scheduled at all (`next_tick` returns the first productive
    /// grid point), so only races between a queued tick and an intervening
    /// event land here.
    pub fn sched_ticks_skipped(&self) -> u64 {
        self.sched_ticks_skipped
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
        if t > self.horizon && t != Timestamp::MAX {
            self.horizon = t;
        }
    }

    /// Records that a request arrived at the controller.
    pub fn record_arrival(&mut self, at: Timestamp, tier: Tier) {
        self.total_requests += 1;
        self.tiers[tier.index()].submitted += 1;
        self.request_series.record_event(at);
        self.advance(at);
    }

    /// Records a response returned to a client, attributed to
    /// [`Tier::Strict`]. Callers that know the tier (the facade event loop)
    /// use [`SystemTelemetry::record_response_with_tier`].
    pub fn record_response(&mut self, response: &Response) {
        self.record_response_with_tier(response, Tier::Strict);
    }

    /// Records a response returned to a client of a known tier.
    pub fn record_response_with_tier(&mut self, response: &Response, tier: Tier) {
        self.digest_fold(response.request.0);
        self.digest_fold(u64::from(response.model.0));
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
                self.successes += 1;
                self.tiers[tier.index()].successes += 1;
                let latency = *completed - response.arrival;
                self.latency.record(latency);
                self.latency_series
                    .record_value(*completed, latency.as_millis_f64());
                self.throughput_series.record_event(*completed);
                self.batch_sizes.record(f64::from(*batch));
                self.batch_series
                    .record_value(*completed, f64::from(*batch));
                if *cold_start {
                    self.cold_starts += 1;
                    self.cold_start_series.record_event(*completed);
                }
                if response.met_slo() {
                    self.goodput += 1;
                    self.tiers[tier.index()].goodput += 1;
                    self.goodput_latency.record(latency);
                    self.goodput_series.record_event(*completed);
                }
                *self.per_model_success.get_or_default(response.model) += 1;
                self.advance(*completed);
            }
            RequestOutcome::Rejected { at, reason } => {
                self.digest_fold(2);
                self.digest_fold(at.as_nanos());
                self.digest_fold(*reason as u64);
                *self.rejections.entry(reason.as_str()).or_insert(0) += 1;
                self.tiers[tier.index()].rejected += 1;
                if *reason == RejectReason::BestEffortShed {
                    self.tiers[tier.index()].shed += 1;
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

    fn series_count_between(series: &TimeSeries, from: Timestamp, to: Timestamp) -> u64 {
        if to < from {
            return 0;
        }
        let interval = series.interval().as_nanos().max(1);
        let first = (from.as_nanos() / interval) as usize;
        let last = (to.as_nanos() / interval) as usize;
        (first..=last).map(|i| series.count_at(i)).sum()
    }

    /// SLO-met responses completed in `[from, to]`, at the resolution of the
    /// per-second goodput series — the phase metric of the chaos harness.
    pub fn goodput_between(&self, from: Timestamp, to: Timestamp) -> u64 {
        Self::series_count_between(&self.goodput_series, from, to)
    }

    /// Requests that arrived at the controller in `[from, to]`, at the
    /// resolution of the per-second arrival series.
    pub fn arrivals_between(&self, from: Timestamp, to: Timestamp) -> u64 {
        Self::series_count_between(&self.request_series, from, to)
    }

    /// All individual responses (empty if `keep_responses` was disabled).
    pub fn responses(&self) -> &[Response] {
        &self.responses
    }

    /// End-to-end latency distribution of completed requests.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Successful-response counts per model.
    pub fn per_model_successes(&self) -> &ModelTable<u64> {
        &self.per_model_success
    }

    /// Per-tier outcome counters, indexed by [`Tier::index`].
    pub fn tier_outcomes(&self) -> &[TierOutcomes; Tier::COUNT] {
        &self.tiers
    }

    /// Latency of all completed requests at a percentile.
    pub fn latency_percentile(&self, p: f64) -> Nanos {
        self.latency.percentile(p)
    }

    /// Finalises the aggregate metrics.
    pub fn metrics(&self) -> ExperimentMetrics {
        ExperimentMetrics {
            total_requests: self.total_requests,
            successes: self.successes,
            goodput: self.goodput,
            rejections: self.rejections.clone(),
            latency: self.latency.clone(),
            goodput_latency: self.goodput_latency.clone(),
            mean_batch: self.batch_sizes.mean(),
            cold_starts: self.cold_starts,
            horizon: self.horizon,
            tiers: self.tiers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_controller::request::{RejectReason, RequestId};
    use clockwork_model::ModelId;
    use clockwork_worker::{GpuId, WorkerId};

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
        t.record_response(&success(0, 10, 100, false)); // met SLO
        t.record_response(&success(1, 500, 100, true)); // missed SLO
        t.record_response(&Response {
            request: RequestId(3),
            model: ModelId(1),
            arrival: Timestamp::from_millis(2),
            deadline: Timestamp::from_millis(50),
            outcome: RequestOutcome::Rejected {
                at: Timestamp::from_millis(2),
                reason: RejectReason::CannotMeetSlo,
            },
        });
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
        t.record_response(&success(0, 10, 100, false));
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
        quiet.record_response(&success(0, 10, 100, false));
        faulted.record_response(&success(0, 10, 100, false));
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
            t.record_response(&success(s * 1000, s * 1000 + 10, s * 1000 + 100, false));
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
        strict.record_response(&success(0, 10, 100, false));
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
        let be = shed.tier_outcomes()[Tier::BestEffort.index()];
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
            t.record_response(&success(0, i, 1_000, false));
        }
        let p50 = t.latency_percentile(50.0).as_millis_f64();
        assert!((p50 - 50.0).abs() < 3.0, "p50 {p50}");
    }
}
