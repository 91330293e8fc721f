//! Closed-loop clients.
//!
//! §6.1 and §6.4 use closed-loop clients: each client keeps a fixed number of
//! requests outstanding ("concurrency") and submits a new request the moment
//! a response comes back. Closed-loop load is self-throttling — the offered
//! rate adapts to the system's service rate — which is why the paper uses it
//! to measure peak goodput, and why the batch clients of §6.4 use it to keep
//! the system saturated.
//!
//! Unlike the open-loop generators, a closed-loop client cannot pre-generate
//! a trace: its next arrival depends on the previous response. It is
//! therefore driven interactively by the system harness through
//! [`ClosedLoopClient::on_response`].

use clockwork_model::ModelId;
use clockwork_sim::time::{Nanos, Timestamp};

/// A closed-loop client maintaining a fixed number of outstanding requests.
#[derive(Clone, Debug)]
pub struct ClosedLoopClient {
    /// The model this client targets.
    pub model: ModelId,
    /// How many requests the client keeps in flight.
    pub concurrency: u32,
    /// The SLO attached to each request ([`Nanos::MAX`] for batch clients
    /// without an SLO).
    pub slo: Nanos,
    in_flight: u32,
    submitted: u64,
    completed: u64,
}

impl ClosedLoopClient {
    /// Creates a client.
    pub fn new(model: ModelId, concurrency: u32, slo: Nanos) -> Self {
        ClosedLoopClient {
            model,
            concurrency,
            slo,
            in_flight: 0,
            submitted: 0,
            completed: 0,
        }
    }

    /// The initial submissions the client makes at experiment start: one per
    /// unit of concurrency, all at `start`.
    pub fn initial_submissions(&mut self, start: Timestamp) -> Vec<(Timestamp, ModelId, Nanos)> {
        let mut subs = Vec::new();
        while self.in_flight < self.concurrency {
            self.in_flight += 1;
            self.submitted += 1;
            subs.push((start, self.model, self.slo));
        }
        subs
    }

    /// Notifies the client that one of its requests finished at `now`;
    /// returns the submission that replaces it at `now`, if the client is
    /// still below its concurrency target.
    pub fn on_response(&mut self, now: Timestamp) -> Option<(Timestamp, ModelId, Nanos)> {
        self.completed += 1;
        if self.in_flight == 0 {
            // A stray response (e.g. duplicated delivery) — ignore.
            return None;
        }
        // The finished request leaves the window and is immediately replaced.
        self.submitted += 1;
        Some((now, self.model, self.slo))
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Responses received so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_submissions_match_concurrency() {
        let mut c = ClosedLoopClient::new(ModelId(1), 16, Nanos::from_millis(100));
        let subs = c.initial_submissions(Timestamp::ZERO);
        assert_eq!(subs.len(), 16);
        assert_eq!(c.in_flight(), 16);
        assert_eq!(c.submitted(), 16);
        // Calling again submits nothing more.
        assert!(c.initial_submissions(Timestamp::ZERO).is_empty());
    }

    #[test]
    fn every_response_triggers_a_replacement() {
        let mut c = ClosedLoopClient::new(ModelId(2), 4, Nanos::from_millis(50));
        c.initial_submissions(Timestamp::ZERO);
        for i in 0..10u64 {
            let next = c.on_response(Timestamp::from_millis(10 * (i + 1)));
            let (at, model, slo) = next.expect("closed loop always resubmits");
            assert_eq!(model, ModelId(2));
            assert_eq!(slo, Nanos::from_millis(50));
            assert_eq!(at, Timestamp::from_millis(10 * (i + 1)));
        }
        assert_eq!(c.submitted(), 14);
        assert_eq!(c.completed(), 10);
        assert_eq!(c.in_flight(), 4, "window size is maintained");
    }

    #[test]
    fn stray_responses_are_ignored() {
        let mut c = ClosedLoopClient::new(ModelId(1), 0, Nanos::MAX);
        assert!(c.initial_submissions(Timestamp::ZERO).is_empty());
        assert!(c.on_response(Timestamp::from_millis(1)).is_none());
    }
}
