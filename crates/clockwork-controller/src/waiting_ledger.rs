//! The per-GPU ledger of waiting work (§5.3, Appendix B: the per-GPU load
//! `l_g` and the per-GPU strategy queues the controller *updates* as
//! requests arrive and complete, instead of re-deriving them from the
//! queued set).
//!
//! A model's **charge** is its LOAD demand in ns, the `demand_m` of Appendix
//! B's priorities: its queue's demand plus a batch-1 execution per request
//! rejected only because the model was cold and not yet aged out of the
//! priority horizon — `None` when the model has neither. The ledger stores
//! every model's present charge; it is the scheduler's one cache of demand,
//! and it never expires: whatever moves a demand recharges the model.
//!
//! Every charge is split evenly, rounded up, over the GPUs that hold (or are
//! loading) the model. Per GPU that gives the ascending list of the charged
//! models it holds — `waiting[g]`, which is both the INFER pass's candidate
//! list on that GPU and the terms of Appendix B's `gpu_load[g]` — and an
//! integer upper bound in ns on the demand shares the load priority would
//! charge to it. A cold-rejected model is held nowhere (its record is made
//! only while it has no holder and dropped by the LOAD that gives it one), so
//! only queued models appear on a GPU's list. Fleet-wide it gives three more
//! ascending lists: the GPUs that hold anything that waits, the charged
//! models held nowhere, and the GPUs whose bound exceeds the capacity the
//! priorities are measured against. The INFER pass starts from the first and
//! reads its candidates off `waiting[g]`; the LOAD pass prices nothing while
//! the other two are empty, and otherwise prices only the models they name
//! ([`WaitingLedger::priced_into`]) — any other charged model has every
//! holder within the limit, is served more than it demands, and cannot have a
//! positive priority.
//!
//! **Ownership rule — and the one exception to "validate by key".** The
//! ledger is derived from the scheduler's owners ([`RequestQueues`], the
//! record of cold rejections and the tracker's holder lists), but unlike the
//! strategy lists it is *pushed to*, not validated by visiting its keys:
//! visiting every queued model is the cost it exists to remove. What keeps it
//! honest is therefore the oracle, not trust. The scheduler recharges a model
//! at every place its demand can move (`with_queue`, `with_cold_history`, and
//! the `recharge` after every profiler measurement). The charge is always
//! stored; the per-GPU columns and lists move with it only while they are
//! built on the tracker's current `(holders_epoch, GPU count)`. When either
//! moved, the next read rebuilds them by spreading the stored charges over
//! the present holder lists. In debug builds every read is preceded by an
//! `assert_eq!` of every charge and list against a from-scratch rebuild
//! ([`LedgerTotals`]).
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
    /// Every charged model with its charge, ascending.
    pub(crate) charges: Vec<(ModelId, Nanos)>,
    /// Per GPU, the charged models it holds or is loading, ascending.
    pub(crate) waiting: Vec<Vec<ModelId>>,
    /// Per GPU, `Σ ceil(demand_m / |holders(m)|)` in ns over those models.
    pub(crate) bounds: Vec<u64>,
    /// The GPUs whose list is non-empty, ascending.
    pub(crate) listed: Vec<usize>,
    /// Charged models held nowhere, ascending.
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
    /// Per model, its present charge.
    charges: ModelTable<Option<Nanos>>,
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

/// The union of two ascending sequences, ascending, each item once.
pub(crate) fn merged<T: Ord + Copy>(
    a: impl IntoIterator<Item = T>,
    b: impl IntoIterator<Item = T>,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || {
        let next = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) | (None, Some(&x)) => x,
            (None, None) => return None,
        };
        a.next_if_eq(&next);
        b.next_if_eq(&next);
        Some(next)
    })
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
            built_on: (0, 0),
        }
    }

    /// Whether the columns were built on `key` — the tracker's
    /// `(holders_epoch, GPU count)`. When not, the next read must
    /// [`rebuild`](Self::rebuild) them first.
    pub(crate) fn is_built_on(&self, key: (u64, usize)) -> bool {
        self.built_on == key
    }

    /// Rebuilds the columns on `key` from the stored charges, spread over
    /// `charged` — every charged model with its present holders, in
    /// ascending model order. A rebuild follows every LOAD and eviction, so
    /// it is one pass that re-estimates nothing: the per-GPU lists are
    /// emptied in place (only the listed GPUs' are touched, and they keep
    /// their capacity) and appended to, and the fleet-wide lists are read
    /// off the finished columns.
    pub(crate) fn rebuild<'a>(
        &mut self,
        key: (u64, usize),
        charged: impl IntoIterator<Item = (ModelId, &'a [usize])>,
    ) {
        for &gpu in &self.listed {
            self.waiting[gpu].clear();
        }
        self.waiting.resize_with(key.1, Vec::new);
        self.bounds.clear();
        self.bounds.resize(key.1, 0);
        self.unheld.clear();
        self.built_on = key;
        for (model, holders) in charged {
            let charge = self.charge(model).expect("a rebuilt model is charged");
            let share = charge.as_nanos().div_ceil(holders.len().max(1) as u64);
            if holders.is_empty() {
                self.unheld.push(model);
            }
            for &gpu in holders {
                debug_assert!(self.waiting[gpu].last() < Some(&model), "not ascending");
                self.waiting[gpu].push(model);
                self.bounds[gpu] += share;
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

    /// Stores `demand` as `model`'s charge — `None` when nothing of it waits
    /// — and, while the columns are built on `key`, moves its shares and its
    /// place on the lists over `holders`, the list the standing charge was
    /// spread over: O(|holders|), plus a sorted insert or removal per holder
    /// when the model starts or stops waiting.
    pub(crate) fn recharge(
        &mut self,
        key: (u64, usize),
        model: ModelId,
        holders: &[usize],
        demand: Option<Nanos>,
    ) {
        let old = std::mem::replace(self.charges.get_or_default(model), demand);
        if old == demand || !self.is_built_on(key) {
            return;
        }
        let (was, is) = (old.is_some(), demand.is_some());
        if holders.is_empty() {
            match (was, is) {
                (false, true) => list(&mut self.unheld, model),
                (true, false) => unlist(&mut self.unheld, model),
                _ => {}
            }
            return;
        }
        let n = holders.len() as u64;
        let share = |demand: Option<Nanos>| demand.map_or(0, |d| d.as_nanos().div_ceil(n));
        let (old_share, new_share) = (share(old), share(demand));
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

    /// The demand `model` is charged for, `None` when nothing of it waits.
    pub(crate) fn charge(&self, model: ModelId) -> Option<Nanos> {
        self.charges.get(model).copied().flatten()
    }

    /// Whether every charged model is held somewhere and no GPU carries a
    /// bound above the limit.
    pub(crate) fn all_within_limit(&self) -> bool {
        self.unheld.is_empty() && self.over_limit.is_empty()
    }

    /// The only charged models whose load priority can be positive, written
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
        let charges = self.charges.iter();
        LedgerTotals {
            charges: charges
                .filter_map(|(m, &charge)| Some((m, charge?)))
                .collect(),
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

    /// Recharges on the key the columns are built on.
    fn charge(l: &mut WaitingLedger, model: u32, holders: &[usize], demand: Option<Nanos>) {
        l.recharge(l.built_on, ModelId(model), holders, demand);
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
        charge(&mut l, 2, &[2], ns(60));
        charge(&mut l, 1, &[0, 2, 3], ns(100));
        charge(&mut l, 3, &[], ns(5));
        let t = l.totals();
        // ceil(100 / 3) = 34 on each of the three holders.
        assert_eq!(t.bounds, [34, 0, 94, 34]);
        // Ascending by id, whatever order the charges came in.
        assert_eq!(t.waiting, [ids(&[1]), ids(&[]), ids(&[1, 2]), ids(&[1])]);
        assert_eq!(t.listed, [0, 2, 3]);
        assert_eq!((t.unheld, t.over_limit), (ids(&[3]), vec![]));
        assert!(!l.all_within_limit(), "a charged model has no holder");
        assert_eq!(l.charge(ModelId(1)), ns(100));
        assert_eq!(l.charge(ModelId(4)), None);
        // Growing one share carries GPU 2 over the limit, and only it: what
        // can be priced is what waits there plus the unheld model.
        charge(&mut l, 1, &[0, 2, 3], ns(121));
        assert_eq!(l.totals().bounds, [41, 0, 101, 41]);
        assert_eq!(l.totals().over_limit, [2]);
        let mut priced = ids(&[9]);
        l.priced_into(&mut priced);
        assert_eq!(priced, ids(&[1, 2, 3]));
        // Emptying queues takes the charges back out, exactly.
        charge(&mut l, 2, &[2], None);
        charge(&mut l, 3, &[], None);
        charge(&mut l, 3, &[], None);
        let t = l.totals();
        assert_eq!(t.charges, [(ModelId(1), Nanos::from_nanos(121))]);
        assert_eq!(t.bounds, [41, 0, 41, 41]);
        assert_eq!(t.waiting, [ids(&[1]), ids(&[]), ids(&[1]), ids(&[1])]);
        assert_eq!((t.unheld, t.over_limit), (vec![], vec![]));
        assert!(l.all_within_limit());
        assert_eq!(l.charge(ModelId(2)), None);
        l.priced_into(&mut priced);
        assert!(priced.is_empty());
        charge(&mut l, 1, &[0, 2, 3], None);
        assert_eq!(l.totals().bounds, [0; 4]);
        assert!(l.listed().is_empty());
        assert!((0..4).all(|gpu| l.waiting(gpu).is_empty()));
    }

    #[test]
    fn a_rebuild_spreads_the_stored_charges_over_the_present_holders() {
        let mut l = ledger(2);
        charge(&mut l, 1, &[0], ns(70));
        charge(&mut l, 2, &[0, 1], ns(250));
        charge(&mut l, 3, &[], ns(5));
        assert!(l.is_built_on((1, 2)) && !l.is_built_on((2, 2)) && !l.is_built_on((1, 3)));
        let built = l.totals();
        assert_eq!(built.over_limit, [0, 1]);
        // A holder list moved and a GPU joined. Until the rebuild a charge
        // is stored and nothing else moves: the columns were spread over
        // holder lists that are gone.
        let key = (2, 3);
        l.recharge(key, ModelId(1), &[2], ns(80));
        l.recharge(key, ModelId(4), &[], ns(9));
        l.recharge(key, ModelId(3), &[], None);
        assert_eq!(l.charge(ModelId(1)), ns(80));
        assert_eq!(l.charge(ModelId(3)), None);
        assert_eq!(l.totals().bounds, built.bounds);
        assert_eq!(l.totals().unheld, built.unheld);
        // The rebuild starts from nothing — no entry of the old columns is
        // left on any list, the joined GPU's included — and spreads each
        // stored charge over the present list: what charging each model in
        // turn on a fresh ledger gives.
        let (one, two): (&[usize], &[usize]) = (&[2], &[0, 2]);
        let charged = [(1, one), (2, two), (4, &[][..])];
        l.rebuild(key, charged.map(|(m, holders)| (ModelId(m), holders)));
        let mut fresh = ledger(3);
        for (m, holders) in charged {
            charge(&mut fresh, m, holders, l.charge(ModelId(m)));
        }
        assert_eq!(l.totals(), fresh.totals());
        assert_eq!(l.totals().bounds, [125, 0, 205]);
        assert_eq!(l.totals().waiting, [ids(&[2]), ids(&[]), ids(&[1, 2])]);
        assert_eq!(
            (l.totals().unheld, l.totals().over_limit),
            (ids(&[4]), vec![0, 2])
        );
        // A charge made on the rebuilt columns moves like any other.
        l.recharge(key, ModelId(2), two, ns(50));
        assert_eq!(l.totals().bounds, [25, 0, 105]);
        assert_eq!(l.totals().over_limit, [2]);
    }

    #[test]
    fn merged_is_the_ascending_union() {
        let union =
            |a: &[u32], b: &[u32]| merged(a.iter().copied(), b.iter().copied()).collect::<Vec<_>>();
        assert_eq!(union(&[1, 3, 5], &[2, 3, 6]), [1, 2, 3, 5, 6]);
        assert_eq!(union(&[], &[4, 7]), [4, 7]);
        assert_eq!(union(&[4, 7], &[]), [4, 7]);
        assert!(union(&[], &[]).is_empty());
    }
}
