//! Self-profiling counters for incremental schedulers.
//!
//! The tick pipeline used to rebuild the world on every 1 ms tick. An
//! incremental scheduler instead remembers *until when nothing can change on
//! its own* — a clean horizon it recomputes after every pass — and skips the
//! tick body while the clock is still before it. [`SchedProfile`] is the
//! counter block such a scheduler exports so the harness (and the `sched`
//! object in the bench JSON artifacts) can see how much work each tick
//! actually did.

/// Scheduler self-profiling counters, exported through
/// [`Scheduler::sched_profile`](crate::Scheduler::sched_profile) and folded
/// into run telemetry and the `sched` object of the bench JSON artifacts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedProfile {
    /// Ticks that ran the full scheduling pass. Counted by the driver from
    /// the [`TickOutcome`](crate::TickOutcome) each tick returns; a
    /// scheduler reports 0.
    pub ticks_full: u64,
    /// Ticks answered by the early-out (clean horizon not reached), counted
    /// the same way.
    pub ticks_skipped: u64,
    /// (model, GPU) candidate pairs examined while placing INFERs: per slot
    /// tried, the queued models the GPU holds — the length of the GPU's
    /// list on the ledger of waiting work, read, not computed by
    /// intersecting its residency with the queued set. Only GPUs holding a
    /// queued model are visited, and an unvisited GPU would have added
    /// zero, so the count is that of a visit to the whole fleet. A pass
    /// that sends no action skips its second INFER pass — a provable repeat
    /// of the first — so its candidates count once.
    pub candidates_scanned: u64,
    /// Per-model strategy-queue rebuilds (cache misses on queue or profile
    /// epoch).
    pub strategies_recomputed: u64,
    /// LOAD-priority evaluations actually run; a pass the per-GPU ledger of
    /// waiting work proves priceless (every demanded model — queued or
    /// cold-rejected — held somewhere, no GPU charged beyond the priority
    /// horizon) runs none. A priced pass runs one, plus one per
    /// residency-changing dispatch. An evaluation prices only the models
    /// that can come out positive — those held nowhere and those waiting on
    /// a GPU charged beyond the horizon — sums the load of only the GPUs
    /// holding one of them, keeps — and sorts — only the positive
    /// priorities, and counts once.
    pub load_prio_recomputes: u64,
}

impl SchedProfile {
    /// Total ticks observed (full + skipped).
    pub fn ticks(&self) -> u64 {
        self.ticks_full + self.ticks_skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_profile_totals() {
        let p = SchedProfile {
            ticks_full: 3,
            ticks_skipped: 7,
            ..SchedProfile::default()
        };
        assert_eq!(p.ticks(), 10);
    }
}
