//! The per-GPU ledger of waiting work (§5.3, Appendix B: the per-GPU load
//! `l_g` and the per-GPU strategy queues the controller *updates* as
//! requests arrive and complete, instead of re-deriving them from the
//! queued set).
//!
//! Every queued model charges its LOAD demand, split evenly and rounded up,
//! to the GPUs that hold (or are loading) it. Per GPU that gives the
//! ascending list of the queued models it holds — `waiting[g]`, which is
//! both the INFER pass's candidate list on that GPU and the terms of
//! Appendix B's `gpu_load[g]` — and an integer upper bound in ns on the
//! demand shares the load priority would charge to it. Fleet-wide it gives
//! three more ascending lists: the GPUs that hold anything that waits, the
//! queued models held nowhere, and the GPUs whose bound exceeds the capacity
//! the priorities are measured against. The INFER pass starts from the
//! first and reads its candidates off `waiting[g]`; the LOAD pass prices
//! nothing while the other two are empty, and otherwise prices only the
//! models they name ([`WaitingLedger::priced_into`]) — any other queued
//! model has every holder within the limit, is served more than it demands,
//! and cannot have a positive priority.
//!
//! **Ownership rule — and the one exception to "validate by key".** The
//! ledger is derived from the two owners ([`RequestQueues`] and the
//! tracker's holder lists), but unlike the strategy lists and the per-model
//! demands it is *pushed to*, not validated by visiting its keys: visiting
//! every queued model is the cost it exists to remove. What keeps it honest
//! is therefore the oracle, not trust. The lists have the same three
//! writers the counts they replaced had: the scheduler moves a model's
//! charge — and with it the model's place on its holders' lists — at every
//! place that model's `(queue length, model_epoch)` can move (`with_queue`,
//! and the `recharge` after every profiler measurement); the ledger as a
//! whole is keyed by the tracker's `holders_epoch` and the GPU count, and
//! rebuilt from the queued set when either moved; and in debug builds every
//! read is preceded by an `assert_eq!` of every list against a from-scratch
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
    /// Per GPU, the queued models it holds or is loading, ascending.
    pub(crate) waiting: Vec<Vec<ModelId>>,
    /// Per GPU, `Σ ceil(demand_m / |holders(m)|)` in ns over those models.
    pub(crate) bounds: Vec<u64>,
    /// The GPUs whose list is non-empty, ascending.
    pub(crate) listed: Vec<usize>,
    /// Queued models held nowhere, ascending.
    pub(crate) unheld: Vec<ModelId>,
    /// GPUs whose bound exceeds the limit, ascending.
    pub(crate) over_limit: Vec<usize>,
}

/// The ledger. See the module docs for what it holds and who keeps it true.
#[derive(Clone, Debug)]
pub(crate) struct WaitingLedger {
    waiting: Vec<Vec<ModelId>>,
    bounds: Vec<u64>,
    listed: Vec<usize>,
    unheld: Vec<ModelId>,
    over_limit: Vec<usize>,
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

/// Puts `item` on an ascending list it is not on.
fn list<T: Ord + Copy>(sorted: &mut Vec<T>, item: T) {
    let pos = sorted.partition_point(|&listed| listed < item);
    sorted.insert(pos, item);
}

/// Takes `item` off an ascending list it is on.
fn unlist<T: Ord + Copy + std::fmt::Debug>(sorted: &mut Vec<T>, item: T) {
    let pos = sorted.partition_point(|&listed| listed < item);
    debug_assert_eq!(sorted.get(pos), Some(&item), "unlisting what is not listed");
    sorted.remove(pos);
}

impl WaitingLedger {
    /// An empty ledger over no GPUs; a GPU is over capacity when its bound
    /// exceeds `limit`.
    pub(crate) fn new(limit: Nanos) -> Self {
        WaitingLedger {
            waiting: Vec::new(),
            bounds: Vec::new(),
            listed: Vec::new(),
            unheld: Vec::new(),
            over_limit: Vec::new(),
            limit: limit.as_nanos(),
            charges: ModelTable::default(),
            generation: 1,
            built_on: (0, 0),
        }
    }

    /// Whether the columns were built on `key` — the tracker's
    /// `(holders_epoch, GPU count)`. When not, charges are pointless (the
    /// holder lists they would walk are not the ones the columns were
    /// charged on) and the next read must [`rebuild`](Self::rebuild) first.
    pub(crate) fn is_built_on(&self, key: (u64, usize)) -> bool {
        self.built_on == key
    }

    /// Rebuilds the ledger on `key` from `queued` — every queued model with
    /// its holders and its demand, in ascending model order — and voids
    /// every earlier charge by moving to a new generation. A rebuild follows
    /// every LOAD and eviction, so it is one pass: the per-GPU lists are
    /// emptied in place (only the listed GPUs' are touched, and they keep
    /// their capacity) and appended to, and the fleet-wide lists are read
    /// off the finished columns.
    pub(crate) fn rebuild<'a>(
        &mut self,
        key: (u64, usize),
        queued: impl IntoIterator<Item = (ModelId, &'a [usize], Nanos)>,
    ) {
        for &gpu in &self.listed {
            self.waiting[gpu].clear();
        }
        self.waiting.resize_with(key.1, Vec::new);
        self.bounds.clear();
        self.bounds.resize(key.1, 0);
        self.unheld.clear();
        self.generation += 1;
        self.built_on = key;
        for (model, holders, demand) in queued {
            let demand = demand.as_nanos();
            *self.charges.get_or_default(model) = (demand, self.generation);
            if holders.is_empty() {
                self.unheld.push(model);
            }
            for &gpu in holders {
                debug_assert!(self.waiting[gpu].last() < Some(&model), "not ascending");
                self.waiting[gpu].push(model);
                self.bounds[gpu] += demand.div_ceil(holders.len() as u64);
            }
        }
        let (waiting, bounds, limit) = (&self.waiting, &self.bounds, self.limit);
        self.listed.clear();
        self.listed
            .extend((0..key.1).filter(|&gpu| !waiting[gpu].is_empty()));
        self.over_limit.clear();
        self.over_limit
            .extend((0..key.1).filter(|&gpu| bounds[gpu] > limit));
    }

    /// Moves `model`'s charge to `demand` — `None` when its queue is empty —
    /// split over `holders`, which must be the list its standing charge (if
    /// any) was made on: O(|holders|), plus a sorted insert or removal per
    /// holder when the model starts or stops waiting.
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
            match (was, is) {
                (false, true) => list(&mut self.unheld, model),
                (true, false) => unlist(&mut self.unheld, model),
                _ => {}
            }
            return;
        }
        let n = holders.len() as u64;
        let share = |demand: Option<u64>| demand.map_or(0, |d| d.div_ceil(n));
        let (old_share, new_share) = (share(old), share(new));
        for &gpu in holders {
            let before = self.bounds[gpu];
            let after = before + new_share - old_share;
            self.bounds[gpu] = after;
            match (before > self.limit, after > self.limit) {
                (false, true) => list(&mut self.over_limit, gpu),
                (true, false) => unlist(&mut self.over_limit, gpu),
                _ => {}
            }
            let waiting = &mut self.waiting[gpu];
            if is && !was {
                if waiting.is_empty() {
                    list(&mut self.listed, gpu);
                }
                list(waiting, model);
            } else if was && !is {
                unlist(waiting, model);
                if waiting.is_empty() {
                    unlist(&mut self.listed, gpu);
                }
            }
        }
    }

    /// The GPUs that hold (or are loading) a queued model, ascending.
    pub(crate) fn listed(&self) -> &[usize] {
        &self.listed
    }

    /// The queued models GPU `gpu` holds (or is loading), ascending.
    pub(crate) fn waiting(&self, gpu: usize) -> &[ModelId] {
        &self.waiting[gpu]
    }

    /// The demand `model` is charged for, `None` when it is not queued.
    pub(crate) fn charge(&self, model: ModelId) -> Option<Nanos> {
        let &(demand, generation) = self.charges.get(model)?;
        (generation == self.generation).then_some(Nanos::from_nanos(demand))
    }

    /// Whether every queued model is held somewhere and no GPU carries a
    /// bound above the limit.
    pub(crate) fn all_within_limit(&self) -> bool {
        self.unheld.is_empty() && self.over_limit.is_empty()
    }

    /// The only queued models whose load priority can be positive, written
    /// into `out` ascending: those held nowhere and those waiting on a GPU
    /// over the limit.
    pub(crate) fn priced_into(&self, out: &mut Vec<ModelId>) {
        out.clear();
        out.extend_from_slice(&self.unheld);
        for &gpu in &self.over_limit {
            out.extend_from_slice(&self.waiting[gpu]);
        }
        out.sort_unstable();
        out.dedup();
    }

    /// A copy of everything a pass reads, for comparison with the oracle.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn totals(&self) -> LedgerTotals {
        LedgerTotals {
            waiting: self.waiting.clone(),
            bounds: self.bounds.clone(),
            listed: self.listed.clone(),
            unheld: self.unheld.clone(),
            over_limit: self.over_limit.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(gpus: usize) -> WaitingLedger {
        let mut l = WaitingLedger::new(Nanos::from_nanos(100));
        l.rebuild((1, gpus), []);
        l
    }

    fn ns(n: u64) -> Option<Nanos> {
        Some(Nanos::from_nanos(n))
    }

    fn ids(ids: &[u32]) -> Vec<ModelId> {
        ids.iter().map(|&id| ModelId(id)).collect()
    }

    #[test]
    fn a_charge_is_split_rounded_up_and_moves_with_the_demand() {
        let mut l = ledger(4);
        l.recharge(ModelId(2), &[2], ns(60));
        l.recharge(ModelId(1), &[0, 2, 3], ns(100));
        l.recharge(ModelId(3), &[], ns(5));
        let t = l.totals();
        // ceil(100 / 3) = 34 on each of the three holders.
        assert_eq!(t.bounds, [34, 0, 94, 34]);
        // Ascending by id, whatever order the charges came in.
        assert_eq!(t.waiting, [ids(&[1]), ids(&[]), ids(&[1, 2]), ids(&[1])]);
        assert_eq!(t.listed, [0, 2, 3]);
        assert_eq!((t.unheld, t.over_limit), (ids(&[3]), vec![]));
        assert!(!l.all_within_limit(), "a queued model has no holder");
        assert_eq!(l.charge(ModelId(1)), ns(100));
        assert_eq!(l.charge(ModelId(4)), None);
        // Growing one share carries GPU 2 over the limit, and only it: what
        // can be priced is what waits there plus the unheld model.
        l.recharge(ModelId(1), &[0, 2, 3], ns(121));
        assert_eq!(l.totals().bounds, [41, 0, 101, 41]);
        assert_eq!(l.totals().over_limit, [2]);
        let mut priced = ids(&[9]);
        l.priced_into(&mut priced);
        assert_eq!(priced, ids(&[1, 2, 3]));
        // Emptying queues takes the charges back out, exactly.
        l.recharge(ModelId(2), &[2], None);
        l.recharge(ModelId(3), &[], None);
        l.recharge(ModelId(3), &[], None);
        let t = l.totals();
        assert_eq!(t.bounds, [41, 0, 41, 41]);
        assert_eq!(t.waiting, [ids(&[1]), ids(&[]), ids(&[1]), ids(&[1])]);
        assert_eq!((t.unheld, t.over_limit), (vec![], vec![]));
        assert!(l.all_within_limit());
        assert_eq!(l.charge(ModelId(2)), None);
        l.priced_into(&mut priced);
        assert!(priced.is_empty());
        l.recharge(ModelId(1), &[0, 2, 3], None);
        assert_eq!(l.totals().bounds, [0; 4]);
        assert!(l.listed().is_empty());
        assert!((0..4).all(|gpu| l.waiting(gpu).is_empty()));
    }

    #[test]
    fn a_charge_from_before_a_rebuild_is_void() {
        let mut l = ledger(2);
        l.recharge(ModelId(1), &[0], ns(70));
        l.recharge(ModelId(2), &[0, 1], ns(250));
        l.recharge(ModelId(3), &[], ns(5));
        assert!(l.is_built_on((1, 2)) && !l.is_built_on((2, 2)) && !l.is_built_on((1, 3)));
        assert_eq!(l.totals().over_limit, [0, 1]);
        // The holder list moved and a GPU joined: the rebuild starts from
        // nothing — no entry of the previous generation is left on any
        // list, the joined GPU's included — and the old charge is not
        // refunded against the new list.
        l.rebuild((2, 3), []);
        assert_eq!(l.totals(), ledger(3).totals());
        assert_eq!(l.charge(ModelId(1)), None);
        l.recharge(ModelId(1), &[1, 2], ns(70));
        assert_eq!(l.totals().bounds, [0, 35, 35]);
        assert_eq!(l.totals().waiting, [ids(&[]), ids(&[1]), ids(&[1])]);
        assert_eq!(l.listed(), [1, 2]);
        // A rebuild from the queued set is what charging each model in turn
        // gives, and a charge made in it can be moved like any other.
        let (one, two): (&[usize], &[usize]) = (&[2], &[0, 2]);
        let queued = [(1, one, 70), (2, two, 250), (3, &[][..], 5)];
        l.rebuild(
            (3, 3),
            queued.map(|(m, holders, d)| (ModelId(m), holders, Nanos::from_nanos(d))),
        );
        let mut charged = ledger(3);
        for (m, holders, d) in queued {
            charged.recharge(ModelId(m), holders, ns(d));
        }
        assert_eq!(l.totals(), charged.totals());
        assert_eq!(l.totals().over_limit, [0, 2]);
        l.recharge(ModelId(2), two, ns(50));
        assert_eq!(l.totals().bounds, [25, 0, 95]);
        assert_eq!(l.totals().over_limit, [0; 0]);
        // A model not recharged by the rebuild (no longer queued) stays
        // uncharged when told so again.
        l.rebuild((4, 3), []);
        l.recharge(ModelId(1), &[1, 2], None);
        assert_eq!(l.totals(), ledger(3).totals());
    }
}
