//! Request-lifecycle tracing: structured spans from admission to completion.
//!
//! The aggregate counters elsewhere in this crate answer *how much* (goodput,
//! percentiles, event mixes); they cannot answer *why this request missed its
//! SLO*. This module is the per-request evidence trail: every stage a request
//! passes through — controller arrival, admission, batch formation, LOAD and
//! INFER issue/completion, network penalties, the terminal outcome — is one
//! [`TraceEvent`] stamped with the simulation time it was observed at.
//!
//! The design follows the lightweight-monitor shape: events are recorded from
//! *outside* the logic under observation (the facade event loop sees every
//! arrival, action and response for every discipline), so tracing can never
//! perturb a scheduling decision. Layers with knowledge the facade lacks
//! (the Clockwork scheduler's admission estimates, deferral decisions) emit
//! additional events through the same channel, guarded by a boolean so the
//! off path costs one predictable branch.
//!
//! The sink is [`RingTracer`], a bounded ring. Tracing off means no ring at
//! all — the facade holds an `Option` of one and every emission site tests
//! it — so an untraced run pays one branch per site and its digest is
//! byte-identical to a traced one. At capacity the ring drops the *oldest*
//! spans and counts them in [`RingTracer::dropped_spans`]; truncation is
//! never silent, mirroring the event-mix conservation discipline. It exports
//! deterministically as JSONL (sim-time stamps, insertion order) with an
//! FNV-1a digest over the exported bytes for same-seed comparisons.
//!
//! Identifiers are plain integers (request ids, model ids, worker/GPU
//! indices) rather than the typed ids of the higher crates: this crate sits
//! below the model/worker/controller layers, which lets all three emit into
//! one stream without a dependency cycle.

use std::collections::VecDeque;

use clockwork_sim::hash::Fnv1a;

/// One structured event in a request's lifecycle. Timestamps inside variants
/// (deadlines, completion instants) are simulation-time nanoseconds;
/// `u64::MAX` encodes "none" (a request without an SLO).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request reached the controller and entered the scheduling domain.
    Enqueued {
        /// Request id.
        request: u64,
        /// Model requested.
        model: u32,
        /// Absolute deadline in nanoseconds (`u64::MAX` if no SLO).
        deadline: u64,
    },
    /// The controller admitted the request (emitted by disciplines that run
    /// explicit admission control, with the serving-time estimate that
    /// justified admission).
    Admitted {
        /// Request id.
        request: u64,
        /// Model requested.
        model: u32,
        /// Estimated nanoseconds to serve (execution + any pending load +
        /// network allowance) at admission time.
        estimate: u64,
    },
    /// The request was admitted but left queued by the dispatch pass — the
    /// urgency index deemed it not yet urgent (typically: waiting for a
    /// larger batch or a free executor).
    Deferred {
        /// Request id.
        request: u64,
        /// Model requested.
        model: u32,
        /// When the model's queue becomes urgent (its earliest queued
        /// deadline), nanoseconds; `u64::MAX` if unbounded.
        until: u64,
    },
    /// The request was rejected. Exactly one per rejected request: emitted
    /// by the controller when it knows the dooming estimate, otherwise by
    /// the facade when the rejection response drains (`estimate` 0).
    Rejected {
        /// Request id.
        request: u64,
        /// Model requested.
        model: u32,
        /// Rejection reason (the telemetry reason key, e.g.
        /// `cannot_meet_slo`).
        reason: &'static str,
        /// The serving-time estimate that doomed the request, nanoseconds
        /// (0 when the rejecting layer had no estimate).
        estimate: u64,
    },
    /// A LOAD action left the controller for a worker.
    LoadIssued {
        /// Action id.
        action: u64,
        /// Model whose weights are being loaded.
        model: u32,
        /// Destination worker.
        worker: u32,
        /// Destination GPU.
        gpu: u32,
        /// The controller's predicted transfer duration, nanoseconds.
        est: u64,
    },
    /// A LOAD action's result reached the controller.
    LoadDone {
        /// Action id.
        action: u64,
        /// Model loaded.
        model: u32,
        /// Worker that executed it.
        worker: u32,
        /// GPU involved.
        gpu: u32,
        /// The predicted duration echoed back, nanoseconds.
        est: u64,
        /// Measured on-device transfer duration, nanoseconds (0 on error).
        actual: u64,
        /// When the weights became resident, nanoseconds (0 on error).
        end: u64,
        /// Whether this load brought weights to a GPU that did not hold
        /// them (always true in the current protocol; kept explicit so a
        /// future prefetch/refresh path stays distinguishable).
        cold: bool,
        /// Whether the action succeeded.
        ok: bool,
    },
    /// The controller bundled requests into one INFER batch and dispatched
    /// it. `members` is the batch's request-id list in submission order.
    BatchFormed {
        /// Action id of the INFER carrying the batch.
        action: u64,
        /// Model executed.
        model: u32,
        /// Destination worker.
        worker: u32,
        /// Destination GPU.
        gpu: u32,
        /// Batch size (compiled kernel size, >= member count).
        size: u32,
        /// Request ids riding in this batch.
        members: Vec<u64>,
    },
    /// An INFER action left the controller for a worker.
    InferIssued {
        /// Action id.
        action: u64,
        /// Model executed.
        model: u32,
        /// Destination worker.
        worker: u32,
        /// Destination GPU.
        gpu: u32,
        /// Batch size.
        batch: u32,
        /// The controller's predicted execution duration, nanoseconds.
        est: u64,
    },
    /// An INFER action's result reached the controller: the est-vs-actual
    /// pair every discipline's prediction error is measured from.
    InferDone {
        /// Action id.
        action: u64,
        /// Model executed.
        model: u32,
        /// Worker that executed it.
        worker: u32,
        /// GPU involved.
        gpu: u32,
        /// Batch size.
        batch: u32,
        /// The predicted duration echoed back, nanoseconds.
        est: u64,
        /// Measured on-device execution duration, nanoseconds (0 on error).
        actual: u64,
        /// When execution began on the device, nanoseconds (0 on error).
        start: u64,
        /// When outputs were available, nanoseconds (0 on error).
        end: u64,
        /// Whether the action succeeded.
        ok: bool,
    },
    /// A controller↔worker message crossed a degraded link and paid more
    /// than the healthy network delay.
    LinkDelay {
        /// The worker whose link is degraded.
        worker: u32,
        /// The healthy-network delay, nanoseconds.
        base: u64,
        /// The delay actually paid, nanoseconds.
        actual: u64,
    },
    /// One request's completion inside a (possibly batched) successful
    /// INFER, recorded when the worker hands the INFER's result over — at
    /// `completed`.
    MemberDone {
        /// The request served.
        request: u64,
        /// Model executed.
        model: u32,
        /// Batch size the member rode in.
        batch: u32,
        /// When the member's outputs finished, nanoseconds.
        completed: u64,
    },
    /// Terminal span: the request completed within its SLO.
    Completed {
        /// Request id.
        request: u64,
        /// Model served.
        model: u32,
        /// Controller arrival, nanoseconds.
        arrival: u64,
        /// Completion instant, nanoseconds.
        completed: u64,
        /// Absolute deadline, nanoseconds (`u64::MAX` if no SLO).
        deadline: u64,
        /// Batch size served in.
        batch: u32,
        /// Worker that served it.
        worker: u32,
        /// GPU that served it.
        gpu: u32,
        /// Whether the model was loaded on demand for this request.
        cold: bool,
    },
    /// Terminal span: the request completed but after its deadline — the
    /// SLO violations the blame attribution explains.
    DeadlineMissed {
        /// Request id.
        request: u64,
        /// Model served.
        model: u32,
        /// Controller arrival, nanoseconds.
        arrival: u64,
        /// Completion instant, nanoseconds.
        completed: u64,
        /// Absolute deadline, nanoseconds.
        deadline: u64,
        /// Batch size served in.
        batch: u32,
        /// Worker that served it.
        worker: u32,
        /// GPU that served it.
        gpu: u32,
        /// Whether the model was loaded on demand for this request.
        cold: bool,
    },
}

impl TraceEvent {
    /// The snake-case kind label used in the JSONL export.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Enqueued { .. } => "enqueued",
            TraceEvent::Admitted { .. } => "admitted",
            TraceEvent::Deferred { .. } => "deferred",
            TraceEvent::Rejected { .. } => "rejected",
            TraceEvent::LoadIssued { .. } => "load_issued",
            TraceEvent::LoadDone { .. } => "load_done",
            TraceEvent::BatchFormed { .. } => "batch_formed",
            TraceEvent::InferIssued { .. } => "infer_issued",
            TraceEvent::InferDone { .. } => "infer_done",
            TraceEvent::LinkDelay { .. } => "link_delay",
            TraceEvent::MemberDone { .. } => "member_done",
            TraceEvent::Completed { .. } => "completed",
            TraceEvent::DeadlineMissed { .. } => "deadline_missed",
        }
    }

    /// Appends this event as one JSONL object (no trailing newline) to
    /// `out`. Field order is fixed, so the export is byte-deterministic.
    pub fn write_json(&self, at: u64, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(out, "{{\"at\":{at},\"ev\":\"{}\"", self.kind());
        match self {
            TraceEvent::Enqueued {
                request,
                model,
                deadline,
            } => {
                let _ = write!(out, ",\"req\":{request},\"model\":{model}");
                if *deadline != u64::MAX {
                    let _ = write!(out, ",\"deadline\":{deadline}");
                }
            }
            TraceEvent::Admitted {
                request,
                model,
                estimate,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{request},\"model\":{model},\"est\":{estimate}"
                );
            }
            TraceEvent::Deferred {
                request,
                model,
                until,
            } => {
                let _ = write!(out, ",\"req\":{request},\"model\":{model}");
                if *until != u64::MAX {
                    let _ = write!(out, ",\"until\":{until}");
                }
            }
            TraceEvent::Rejected {
                request,
                model,
                reason,
                estimate,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{request},\"model\":{model},\"reason\":\"{reason}\",\"est\":{estimate}"
                );
            }
            TraceEvent::LoadIssued {
                action,
                model,
                worker,
                gpu,
                est,
            } => {
                let _ = write!(
                    out,
                    ",\"action\":{action},\"model\":{model},\"worker\":{worker},\"gpu\":{gpu},\"est\":{est}"
                );
            }
            TraceEvent::LoadDone {
                action,
                model,
                worker,
                gpu,
                est,
                actual,
                end,
                cold,
                ok,
            } => {
                let _ = write!(
                    out,
                    ",\"action\":{action},\"model\":{model},\"worker\":{worker},\"gpu\":{gpu},\"est\":{est},\"actual\":{actual},\"end\":{end},\"cold\":{cold},\"ok\":{ok}"
                );
            }
            TraceEvent::BatchFormed {
                action,
                model,
                worker,
                gpu,
                size,
                members,
            } => {
                let _ = write!(
                    out,
                    ",\"action\":{action},\"model\":{model},\"worker\":{worker},\"gpu\":{gpu},\"size\":{size},\"members\":["
                );
                for (i, member) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{member}");
                }
                out.push(']');
            }
            TraceEvent::InferIssued {
                action,
                model,
                worker,
                gpu,
                batch,
                est,
            } => {
                let _ = write!(
                    out,
                    ",\"action\":{action},\"model\":{model},\"worker\":{worker},\"gpu\":{gpu},\"batch\":{batch},\"est\":{est}"
                );
            }
            TraceEvent::InferDone {
                action,
                model,
                worker,
                gpu,
                batch,
                est,
                actual,
                start,
                end,
                ok,
            } => {
                let _ = write!(
                    out,
                    ",\"action\":{action},\"model\":{model},\"worker\":{worker},\"gpu\":{gpu},\"batch\":{batch},\"est\":{est},\"actual\":{actual},\"start\":{start},\"end\":{end},\"ok\":{ok}"
                );
            }
            TraceEvent::LinkDelay {
                worker,
                base,
                actual,
            } => {
                let _ = write!(
                    out,
                    ",\"worker\":{worker},\"base\":{base},\"actual\":{actual}"
                );
            }
            TraceEvent::MemberDone {
                request,
                model,
                batch,
                completed,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{request},\"model\":{model},\"batch\":{batch},\"completed\":{completed}"
                );
            }
            TraceEvent::Completed {
                request,
                model,
                arrival,
                completed,
                deadline,
                batch,
                worker,
                gpu,
                cold,
            }
            | TraceEvent::DeadlineMissed {
                request,
                model,
                arrival,
                completed,
                deadline,
                batch,
                worker,
                gpu,
                cold,
            } => {
                let _ = write!(
                    out,
                    ",\"req\":{request},\"model\":{model},\"arrival\":{arrival},\"completed\":{completed}"
                );
                if *deadline != u64::MAX {
                    let _ = write!(out, ",\"deadline\":{deadline}");
                }
                let _ = write!(
                    out,
                    ",\"batch\":{batch},\"worker\":{worker},\"gpu\":{gpu},\"cold\":{cold}"
                );
            }
        }
        out.push('}');
    }
}

/// One recorded span: a [`TraceEvent`] stamped with the simulation time it
/// was observed at (nanoseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation-time nanoseconds of the observation.
    pub at: u64,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded in-memory trace: the most recent `capacity` spans, oldest
/// dropped first, every drop counted. Exports as deterministic JSONL.
#[derive(Clone, Debug)]
pub struct RingTracer {
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl RingTracer {
    /// Creates a tracer retaining at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingTracer {
            capacity: capacity.max(1),
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Records one event observed at simulation time `at` (nanoseconds),
    /// dropping the oldest span first when the ring is full.
    pub fn record(&mut self, at: u64, event: TraceEvent) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { at, event });
    }

    /// The retained spans, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Spans lost to ring overflow: the oldest, dropped to make room.
    /// Surfaced in `BENCH_blame.json` so truncation is never silent.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped
    }

    /// The retained spans as JSONL: one `{"at":..,"ev":"..",..}` object per
    /// line, insertion order, byte-deterministic for a given record set.
    pub fn export_jsonl(&self) -> String {
        // Pre-size roughly: most lines are under 120 bytes.
        let mut out = String::with_capacity(self.records.len() * 96);
        for record in &self.records {
            record.event.write_json(record.at, &mut out);
            out.push('\n');
        }
        out
    }

    /// FNV-1a over the JSONL export — the determinism fingerprint two
    /// same-seed traced runs must agree on.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv1a::new();
        hash.write_bytes(self.export_jsonl().as_bytes());
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enqueued(request: u64) -> TraceEvent {
        TraceEvent::Enqueued {
            request,
            model: 1,
            deadline: 1_000,
        }
    }

    #[test]
    fn ring_records_in_order() {
        let mut t = RingTracer::new(8);
        assert!(t.is_empty());
        for i in 0..3 {
            t.record(i, enqueued(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped_spans(), 0);
        let ats: Vec<u64> = t.records().map(|r| r.at).collect();
        assert_eq!(ats, vec![0, 1, 2]);
    }

    #[test]
    fn ring_at_capacity_drops_oldest_and_counts() {
        let mut t = RingTracer::new(4);
        for i in 0..10 {
            t.record(i, enqueued(i));
        }
        assert_eq!(t.len(), 4, "bounded at capacity");
        assert_eq!(t.dropped_spans(), 6, "every drop counted");
        let oldest = t.records().next().expect("non-empty").at;
        assert_eq!(oldest, 6, "oldest spans dropped first");
    }

    #[test]
    fn jsonl_export_is_deterministic_and_digested() {
        let build = || {
            let mut t = RingTracer::new(16);
            t.record(1, enqueued(7));
            t.record(
                2,
                TraceEvent::BatchFormed {
                    action: 3,
                    model: 1,
                    worker: 0,
                    gpu: 1,
                    size: 4,
                    members: vec![7, 8],
                },
            );
            t.record(
                9,
                TraceEvent::Completed {
                    request: 7,
                    model: 1,
                    arrival: 1,
                    completed: 9,
                    deadline: 1_000,
                    batch: 4,
                    worker: 0,
                    gpu: 1,
                    cold: false,
                },
            );
            t
        };
        let a = build();
        let b = build();
        assert_eq!(a.export_jsonl(), b.export_jsonl());
        assert_eq!(a.digest(), b.digest());
        let jsonl = a.export_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"ev\":\"batch_formed\""));
        assert!(jsonl.contains("\"members\":[7,8]"));
        let mut c = build();
        c.record(10, enqueued(9));
        assert_ne!(a.digest(), c.digest(), "digest is content-sensitive");
    }

    #[test]
    fn omitted_fields_encode_no_slo() {
        let mut line = String::new();
        TraceEvent::Enqueued {
            request: 1,
            model: 2,
            deadline: u64::MAX,
        }
        .write_json(0, &mut line);
        assert!(
            !line.contains("deadline"),
            "u64::MAX deadline is omitted: {line}"
        );
    }
}
