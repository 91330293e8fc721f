//! Client-facing request and response types.
//!
//! Clients submit inference requests naming a model, an SLO and an input
//! tensor; the controller answers each request exactly once, either with the
//! inference output (here: timing metadata) or with a rejection. Rejections
//! are first-class in Clockwork: the controller cancels requests it knows
//! cannot meet their SLO *before* doing any work for them (§4.1).

use serde::{Deserialize, Serialize};

use clockwork_model::{ModelId, Tier};
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::{ActionResult, GpuId, WorkerId};

/// Identifier of a client request.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An inference request as seen by the controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceRequest {
    /// Unique request id.
    pub id: RequestId,
    /// The model to run.
    pub model: ModelId,
    /// When the request arrived at the controller.
    pub arrival: Timestamp,
    /// The latency SLO, relative to arrival. [`Nanos::MAX`] means "no SLO"
    /// (batch clients in §6.4).
    pub slo: Nanos,
    /// The service tier of the issuing client. Strict traffic keeps its SLO
    /// under pressure; best-effort traffic is shed first.
    pub tier: Tier,
}

impl InferenceRequest {
    /// The absolute deadline of this request.
    pub fn deadline(&self) -> Timestamp {
        if self.slo == Nanos::MAX {
            Timestamp::MAX
        } else {
            self.arrival + self.slo
        }
    }

    /// Whether the request carries a latency SLO at all.
    pub fn has_slo(&self) -> bool {
        self.slo != Nanos::MAX
    }
}

/// Why a request was rejected without being executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Admission control: even the best case cannot meet the SLO.
    CannotMeetSlo,
    /// The deadline passed while the request was queued.
    DeadlineElapsed,
    /// The model id is not registered with the system.
    UnknownModel,
    /// A worker rejected or failed the action and no retry was possible.
    WorkerRejected,
    /// The worker (or GPU) serving the request died mid-flight and the
    /// deadline left no room to reissue the work elsewhere.
    ///
    /// Appended after the other variants so their discriminants — which feed
    /// the determinism digest — are unchanged.
    WorkerFailed,
    /// Graceful degradation: a best-effort request was shed because the
    /// fleet is under enough pressure that admitting it would endanger
    /// strict-tier traffic.
    ///
    /// Appended last for the same discriminant-stability reason as
    /// [`RejectReason::WorkerFailed`].
    BestEffortShed,
}

impl RejectReason {
    /// The stable snake_case key for this reason, shared by telemetry
    /// reject-reason counters and lifecycle trace spans so the two always
    /// reconcile by string equality.
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::CannotMeetSlo => "cannot_meet_slo",
            RejectReason::DeadlineElapsed => "deadline_elapsed",
            RejectReason::UnknownModel => "unknown_model",
            RejectReason::WorkerRejected => "worker_rejected",
            RejectReason::WorkerFailed => "worker_failed",
            RejectReason::BestEffortShed => "best_effort_shed",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RejectReason::CannotMeetSlo => "cannot meet SLO",
            RejectReason::DeadlineElapsed => "deadline elapsed in queue",
            RejectReason::UnknownModel => "unknown model",
            RejectReason::WorkerRejected => "worker rejected action",
            RejectReason::WorkerFailed => "worker failed mid-flight",
            RejectReason::BestEffortShed => "best-effort traffic shed under pressure",
        };
        f.write_str(s)
    }
}

/// The final outcome of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// The inference ran and its output was returned at `completed`.
    Success {
        /// When the output became available at the controller.
        completed: Timestamp,
        /// The batch size the request was served in.
        batch: u32,
        /// The worker that served it.
        worker: WorkerId,
        /// The GPU that served it.
        gpu: GpuId,
        /// Whether the model had to be loaded after this request arrived.
        cold_start: bool,
    },
    /// The request was rejected without executing.
    Rejected {
        /// When the rejection was decided.
        at: Timestamp,
        /// Why.
        reason: RejectReason,
    },
}

impl RequestOutcome {
    /// Whether the request produced an inference result.
    pub fn is_success(&self) -> bool {
        matches!(self, RequestOutcome::Success { .. })
    }

    /// The completion time, if successful.
    pub fn completed_at(&self) -> Option<Timestamp> {
        match self {
            RequestOutcome::Success { completed, .. } => Some(*completed),
            RequestOutcome::Rejected { .. } => None,
        }
    }
}

/// A response to a client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// The request this responds to.
    pub request: RequestId,
    /// The model that was requested.
    pub model: ModelId,
    /// When the request originally arrived.
    pub arrival: Timestamp,
    /// Its absolute deadline.
    pub deadline: Timestamp,
    /// What happened.
    pub outcome: RequestOutcome,
}

impl Response {
    /// The rejection of `request`, decided at `at`.
    pub fn rejected(request: &InferenceRequest, at: Timestamp, reason: RejectReason) -> Self {
        Response::of(request, RequestOutcome::Rejected { at, reason })
    }

    /// The success of `request`, served by the INFER that `result` reports
    /// and available at the controller at `completed`.
    pub fn success(
        request: &InferenceRequest,
        result: &ActionResult,
        completed: Timestamp,
        cold_start: bool,
    ) -> Self {
        let outcome = RequestOutcome::Success {
            completed,
            batch: result.batch,
            worker: result.worker,
            gpu: result.gpu,
            cold_start,
        };
        Response::of(request, outcome)
    }

    fn of(request: &InferenceRequest, outcome: RequestOutcome) -> Self {
        Response {
            request: request.id,
            model: request.model,
            arrival: request.arrival,
            deadline: request.deadline(),
            outcome,
        }
    }

    /// End-to-end latency of a successful response.
    pub fn latency(&self) -> Option<Nanos> {
        self.outcome.completed_at().map(|done| done - self.arrival)
    }

    /// Whether the response arrived within the request's SLO (goodput
    /// counts only these, Fig. 5).
    pub fn met_slo(&self) -> bool {
        match self.outcome.completed_at() {
            Some(done) => done <= self.deadline,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(slo_ms: u64) -> InferenceRequest {
        InferenceRequest {
            id: RequestId(1),
            model: ModelId(2),
            arrival: Timestamp::from_millis(100),
            slo: Nanos::from_millis(slo_ms),
            tier: Tier::Strict,
        }
    }

    #[test]
    fn deadline_is_arrival_plus_slo() {
        let r = request(25);
        assert_eq!(r.deadline(), Timestamp::from_millis(125));
        assert!(r.has_slo());
    }

    #[test]
    fn no_slo_requests_never_expire() {
        let r = InferenceRequest {
            slo: Nanos::MAX,
            ..request(1)
        };
        assert_eq!(r.deadline(), Timestamp::MAX);
        assert!(!r.has_slo());
    }

    #[test]
    fn response_latency_and_slo() {
        let ok = Response {
            request: RequestId(1),
            model: ModelId(2),
            arrival: Timestamp::from_millis(100),
            deadline: Timestamp::from_millis(200),
            outcome: RequestOutcome::Success {
                completed: Timestamp::from_millis(150),
                batch: 4,
                worker: WorkerId(0),
                gpu: GpuId(0),
                cold_start: false,
            },
        };
        assert_eq!(ok.latency(), Some(Nanos::from_millis(50)));
        assert!(ok.met_slo());
        assert!(ok.outcome.is_success());

        let late = Response {
            outcome: RequestOutcome::Success {
                completed: Timestamp::from_millis(250),
                batch: 1,
                worker: WorkerId(0),
                gpu: GpuId(0),
                cold_start: true,
            },
            ..ok
        };
        assert!(!late.met_slo());

        let rejected = Response {
            outcome: RequestOutcome::Rejected {
                at: Timestamp::from_millis(110),
                reason: RejectReason::CannotMeetSlo,
            },
            ..ok
        };
        assert_eq!(rejected.latency(), None);
        assert!(!rejected.met_slo());
        assert!(!rejected.outcome.is_success());
    }

    #[test]
    fn reject_reasons_display() {
        assert!(RejectReason::CannotMeetSlo.to_string().contains("SLO"));
        assert!(RejectReason::DeadlineElapsed
            .to_string()
            .contains("deadline"));
    }

    #[test]
    fn reject_reason_keys_are_snake_case_and_distinct() {
        let all = [
            RejectReason::CannotMeetSlo,
            RejectReason::DeadlineElapsed,
            RejectReason::UnknownModel,
            RejectReason::WorkerRejected,
            RejectReason::WorkerFailed,
            RejectReason::BestEffortShed,
        ];
        let keys: Vec<&str> = all.iter().map(|r| r.as_str()).collect();
        for key in &keys {
            assert!(key.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
        let mut unique = keys.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
    }
}
