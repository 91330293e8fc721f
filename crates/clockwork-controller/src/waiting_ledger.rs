//! The per-GPU ledger of waiting work (§5.3, Appendix B: the per-GPU load
//! `l_g` the controller *updates* as requests arrive and complete, instead
//! of re-deriving it from the queued set).
//!
//! Every queued model charges its LOAD demand, split evenly and rounded up,
//! to the GPUs that hold (or are loading) it. Summed per GPU that gives two
//! dense columns — how many queued models the GPU holds, and an integer
//! upper bound in ns on the demand shares Appendix B's load priority would
//! charge to it — and, fleet-wide, three facts a scheduling pass can read in
//! O(1): which GPUs hold anything that waits, whether some queued model has
//! no holder at all, and whether some GPU's bound exceeds the capacity the
//! priorities are measured against. The INFER pass starts from the first,
//! and the LOAD pass prices nothing while the other two say no.
//!
//! **Ownership rule — and the one exception to "validate by key".** The
//! ledger is derived from the two owners ([`RequestQueues`] and the
//! tracker's holder lists), but unlike the strategy lists and the per-model
//! demands it is *pushed to*, not validated by visiting its keys: visiting
//! every queued model is the cost it exists to remove. What keeps it honest
//! is therefore the oracle, not trust. The scheduler moves a model's charge
//! at every place that model's `(queue length, model_epoch)` can move; the
//! ledger as a whole is keyed by the tracker's `holders_epoch` and the GPU
//! count, and rebuilt from the queued set when either moved; and in debug
//! builds every read is preceded by an `assert_eq!` against a from-scratch
//! rebuild ([`LedgerTotals`]). A charge remembers the generation (rebuild)
//! it was made in, so a charge that predates a rebuild is void rather than
//! refunded against a holder list it was not made on.
//!
//! [`RequestQueues`]: crate::request_queues::RequestQueues

use clockwork_model::{ModelId, ModelTable};
use clockwork_sim::time::Nanos;

/// Everything a pass reads off the ledger, as plain data: what the ledger
/// holds and what its from-scratch oracle rebuilds, compared with
/// `assert_eq!`.
#[cfg(any(test, debug_assertions))]
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct LedgerTotals {
    /// Per GPU, the queued models it holds or is loading.
    pub(crate) counts: Vec<u32>,
    /// Per GPU, `Σ ceil(demand_m / |holders(m)|)` in ns over those models.
    pub(crate) bounds: Vec<u64>,
    /// The GPUs whose count is non-zero, ascending.
    pub(crate) listed: Vec<usize>,
    /// Queued models held nowhere.
    pub(crate) no_holder: usize,
    /// GPUs whose bound exceeds the limit.
    pub(crate) over_bound: usize,
}

/// The ledger. See the module docs for what it holds and who keeps it true.
#[derive(Clone, Debug)]
pub(crate) struct WaitingLedger {
    counts: Vec<u32>,
    bounds: Vec<u64>,
    listed: Vec<usize>,
    no_holder: usize,
    over_bound: usize,
    /// The bound above which a GPU counts as over capacity, in ns.
    limit: u64,
    /// Per model, `(demand charged in ns, generation it was charged in)`;
    /// the charge stands only while that generation is the current one.
    charges: ModelTable<(u64, u64)>,
    /// Counts the rebuilds. Starts at 1, so a default `(0, 0)` slot is no
    /// charge.
    generation: u64,
    /// The `(holders_epoch, GPU count)` the columns were built on.
    built_on: (u64, usize),
}

impl WaitingLedger {
    /// An empty ledger over no GPUs; a GPU is over capacity when its bound
    /// exceeds `limit`.
    pub(crate) fn new(limit: Nanos) -> Self {
        WaitingLedger {
            counts: Vec::new(),
            bounds: Vec::new(),
            listed: Vec::new(),
            no_holder: 0,
            over_bound: 0,
            limit: limit.as_nanos(),
            charges: ModelTable::default(),
            generation: 1,
            built_on: (0, 0),
        }
    }

    /// Whether the columns were built on `key` — the tracker's
    /// `(holders_epoch, GPU count)`. When not, charges are pointless (the
    /// holder lists they would walk are not the ones the columns were
    /// charged on) and the next read must [`reset`](Self::reset) and
    /// recharge the queued set first.
    pub(crate) fn is_built_on(&self, key: (u64, usize)) -> bool {
        self.built_on == key
    }

    /// Starts a rebuild on `key`: zeroes the columns and voids every charge
    /// by moving to a new generation. The caller then recharges every queued
    /// model.
    pub(crate) fn reset(&mut self, key: (u64, usize)) {
        self.counts.clear();
        self.counts.resize(key.1, 0);
        self.bounds.clear();
        self.bounds.resize(key.1, 0);
        self.listed.clear();
        self.no_holder = 0;
        self.over_bound = 0;
        self.generation += 1;
        self.built_on = key;
    }

    /// Moves `model`'s charge to `demand` — `None` when its queue is empty —
    /// split over `holders`, which must be the list its standing charge (if
    /// any) was made on: O(|holders|).
    pub(crate) fn recharge(&mut self, model: ModelId, holders: &[usize], demand: Option<Nanos>) {
        let slot = self.charges.get_or_default(model);
        let old = (slot.1 == self.generation).then_some(slot.0);
        let new = demand.map(Nanos::as_nanos);
        if old == new {
            return;
        }
        *slot = new.map_or((0, 0), |demand| (demand, self.generation));
        let (was, is) = (old.is_some(), new.is_some());
        if holders.is_empty() {
            self.no_holder = self.no_holder + usize::from(is) - usize::from(was);
            return;
        }
        let n = holders.len() as u64;
        let share = |demand: Option<u64>| demand.map_or(0, |d| d.div_ceil(n));
        let (old_share, new_share) = (share(old), share(new));
        for &gpu in holders {
            let before = self.bounds[gpu];
            let after = before + new_share - old_share;
            self.bounds[gpu] = after;
            self.over_bound = self.over_bound + usize::from(after > self.limit)
                - usize::from(before > self.limit);
            if is && !was {
                if self.counts[gpu] == 0 {
                    let pos = self.listed.partition_point(|&listed| listed < gpu);
                    self.listed.insert(pos, gpu);
                }
                self.counts[gpu] += 1;
            } else if was && !is {
                self.counts[gpu] -= 1;
                if self.counts[gpu] == 0 {
                    let pos = self.listed.partition_point(|&listed| listed < gpu);
                    self.listed.remove(pos);
                }
            }
        }
    }

    /// The GPUs that hold (or are loading) a queued model, ascending.
    pub(crate) fn listed(&self) -> &[usize] {
        &self.listed
    }

    /// Whether every queued model is held somewhere and no GPU carries a
    /// bound above the limit.
    pub(crate) fn all_within_limit(&self) -> bool {
        self.no_holder == 0 && self.over_bound == 0
    }

    /// A copy of everything a pass reads, for comparison with the oracle.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn totals(&self) -> LedgerTotals {
        LedgerTotals {
            counts: self.counts.clone(),
            bounds: self.bounds.clone(),
            listed: self.listed.clone(),
            no_holder: self.no_holder,
            over_bound: self.over_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(gpus: usize) -> WaitingLedger {
        let mut l = WaitingLedger::new(Nanos::from_nanos(100));
        l.reset((1, gpus));
        l
    }

    fn ns(n: u64) -> Option<Nanos> {
        Some(Nanos::from_nanos(n))
    }

    #[test]
    fn a_charge_is_split_rounded_up_and_moves_with_the_demand() {
        let mut l = ledger(4);
        l.recharge(ModelId(1), &[0, 2, 3], ns(100));
        l.recharge(ModelId(2), &[2], ns(60));
        l.recharge(ModelId(3), &[], ns(5));
        let t = l.totals();
        // ceil(100 / 3) = 34 on each of the three holders.
        assert_eq!(t.bounds, [34, 0, 94, 34]);
        assert_eq!(t.counts, [1, 0, 2, 1]);
        assert_eq!(t.listed, [0, 2, 3]);
        assert_eq!((t.no_holder, t.over_bound), (1, 0));
        assert!(!l.all_within_limit(), "a queued model has no holder");
        // Growing one share carries GPU 2 over the limit, and only it.
        l.recharge(ModelId(1), &[0, 2, 3], ns(121));
        assert_eq!(l.totals().bounds, [41, 0, 101, 41]);
        assert_eq!(l.totals().over_bound, 1);
        // Emptying queues takes the charges back out, exactly.
        l.recharge(ModelId(2), &[2], None);
        l.recharge(ModelId(3), &[], None);
        l.recharge(ModelId(3), &[], None);
        let t = l.totals();
        assert_eq!(t.bounds, [41, 0, 41, 41]);
        assert_eq!(t.counts, [1, 0, 1, 1]);
        assert_eq!((t.no_holder, t.over_bound), (0, 0));
        assert!(l.all_within_limit());
        l.recharge(ModelId(1), &[0, 2, 3], None);
        assert_eq!(l.totals().bounds, [0; 4]);
        assert!(l.listed().is_empty());
    }

    #[test]
    fn a_charge_from_before_a_rebuild_is_void() {
        let mut l = ledger(2);
        l.recharge(ModelId(1), &[0], ns(70));
        assert!(l.is_built_on((1, 2)) && !l.is_built_on((2, 2)) && !l.is_built_on((1, 3)));
        // The holder list moved: the rebuild starts from nothing, and the
        // old charge is not refunded against the new list.
        l.reset((2, 3));
        assert_eq!(l.totals().bounds, [0; 3]);
        l.recharge(ModelId(1), &[1, 2], ns(70));
        assert_eq!(l.totals().bounds, [0, 35, 35]);
        assert_eq!(l.listed(), [1, 2]);
        // A model not recharged by the rebuild (no longer queued) stays
        // uncharged when told so again.
        l.reset((3, 3));
        l.recharge(ModelId(1), &[1, 2], None);
        assert_eq!(l.totals(), ledger(3).totals());
    }
}
