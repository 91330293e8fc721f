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
//! list on that GPU and the terms of Appendix B's `l_g` — an integer upper
//! bound in ns on the demand shares the load priority would charge to it, and
//! `l_g` itself in seconds, kept once summed ([`WaitingLedger::load`]): every
//! move of a GPU's bound drops it, and the next read re-sums it from scratch
//! over `waiting[g]`, ascending — never adjusted in place, so it is bit for
//! bit the sum the full walk makes. A cold-rejected model is held nowhere
//! (its record is made only while it has no holder and dropped by the LOAD
//! that gives it one), so only queued models appear on a GPU's list.
//! Fleet-wide it gives three more ascending lists: the GPUs that hold
//! anything that waits, the charged models held nowhere, and the GPUs whose
//! bound exceeds the capacity the priorities are measured against. The INFER
//! pass starts from the first and reads its candidates off `waiting[g]`; the
//! LOAD pass prices nothing while the other two are empty, and otherwise
//! prices only the models they name ([`WaitingLedger::priced_into`]) — any
//! other charged model has every holder within the limit, is served more
//! than it demands, and cannot have a positive priority.
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
//! built on the tracker's current `(holders_epoch, GPU count)`. When a holder
//! list moved, the scheduler hands the tracker's record of the moves to
//! [`WaitingLedger::replay`] — before any recharge, so what is taken off the
//! old holders is the charge that was spread over them — which moves each
//! moved model's shares from its old holder list to its new one. A LOAD or an
//! eviction therefore costs the holders of what moved. Only a GPU joining, a
//! failed GPU (its whole table leaves at once) or any other gap in the record
//! makes the next read rebuild the columns, by spreading the stored charges
//! over the present holder lists. In debug builds every read is preceded by
//! an `assert_eq!` of every charge, list and cached load against a
//! from-scratch rebuild ([`LedgerTotals`]).
//!
//! [`RequestQueues`]: crate::request_queues::RequestQueues

use clockwork_model::{ModelId, ModelTable};
use clockwork_sim::time::Nanos;

use crate::worker_state::HolderMove;

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
    /// Per GPU, its load as `f64::to_bits` while the ledger keeps it summed,
    /// `None` otherwise.
    pub(crate) loads: Vec<Option<u64>>,
}

/// The ledger. See the module docs for what it holds and who keeps it true.
#[derive(Clone, Debug)]
pub(crate) struct WaitingLedger {
    waiting: Vec<Vec<ModelId>>,
    bounds: Vec<u64>,
    /// Per GPU, its load once summed; `None` since its bound last moved.
    loads: Vec<Option<f64>>,
    listed: Vec<usize>,
    unheld: Vec<ModelId>,
    over_limit: Vec<usize>,
    /// The bound above which a GPU counts as over capacity, in ns.
    limit: u64,
    /// Per model, its present charge.
    charges: ModelTable<Option<Nanos>>,
    /// The `(holders_epoch, GPU count)` the columns were built on.
    built_on: (u64, usize),
    /// Scratch for [`Self::replay`]: a moved model's holder list before.
    old_holders: Vec<usize>,
    /// How many times the columns were replayed and rebuilt: what tests read
    /// to know both paths ran.
    #[cfg(test)]
    pub(crate) paths: (usize, usize),
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
            loads: Vec::new(),
            listed: Vec::new(),
            unheld: Vec::new(),
            over_limit: Vec::new(),
            limit: limit.as_nanos(),
            charges: ModelTable::default(),
            built_on: (0, 0),
            old_holders: Vec::new(),
            #[cfg(test)]
            paths: (0, 0),
        }
    }

    /// Whether the columns were built on `key` — the tracker's
    /// `(holders_epoch, GPU count)`. When not, the next read must
    /// [`replay`](Self::replay) the holder moves since, or
    /// [`rebuild`](Self::rebuild) the columns.
    pub(crate) fn is_built_on(&self, key: (u64, usize)) -> bool {
        self.built_on == key
    }

    /// The `(holders_epoch, GPU count)` the columns were built on.
    pub(crate) fn built_on(&self) -> (u64, usize) {
        self.built_on
    }

    /// Rebuilds the columns on `key` from the stored charges, spread over
    /// `charged` — every charged model with its present holders, in
    /// ascending model order: one pass that re-estimates nothing. The
    /// per-GPU lists are emptied in place (only the listed GPUs' are touched,
    /// and they keep their capacity) and appended to, the fleet-wide lists
    /// are read off the finished columns, and no load is kept.
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
        self.loads.clear();
        self.loads.resize(key.1, None);
        self.unheld.clear();
        self.built_on = key;
        #[cfg(test)]
        {
            self.paths.1 += 1;
        }
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

    /// Moves the columns from the holder lists they were built on to the
    /// present ones, `key`. `moves` is every holder change in between,
    /// oldest first (the tracker's record), and `holders` gives a model's
    /// present list. Each moved model that is charged has its shares moved
    /// from its old list — the present one with its moves undone — to the
    /// present one: O(|holders|) per moved model, plus a sorted insert or
    /// removal per GPU it joined or left. An uncharged model is on no list
    /// and moves nothing. Does nothing when a GPU joined since the columns
    /// were built, or a charge was stored while they were behind: only a
    /// rebuild brings those back.
    pub(crate) fn replay<'a>(
        &mut self,
        key: (u64, usize),
        moves: &mut [HolderMove],
        holders: impl Fn(ModelId) -> &'a [usize],
    ) {
        if self.built_on.1 != key.1 {
            return;
        }
        self.built_on = key;
        #[cfg(test)]
        {
            self.paths.0 += 1;
        }
        // Each model's moves side by side, still in the order they were made.
        moves.sort_by_key(|moved| moved.model);
        let mut old = std::mem::take(&mut self.old_holders);
        for moved in moves.chunk_by(|a, b| a.model == b.model) {
            let model = moved[0].model;
            let Some(charge) = self.charge(model) else {
                continue;
            };
            let new = holders(model);
            old.clear();
            old.extend_from_slice(new);
            for undo in moved.iter().rev() {
                if undo.joined {
                    unlist(&mut old, undo.gpu);
                } else {
                    list(&mut old, undo.gpu);
                }
            }
            self.move_unheld(model, old.is_empty(), new.is_empty());
            for gpu in merged(old.iter().copied(), new.iter().copied()) {
                let share = |holders: &[usize]| {
                    let n = holders.len() as u64;
                    let held = holders.binary_search(&gpu).is_ok();
                    held.then(|| charge.as_nanos().div_ceil(n))
                };
                self.move_share(model, gpu, share(&old), share(new));
            }
        }
        self.old_holders = old;
    }

    /// Stores `demand` as `model`'s charge — `None` when nothing of it waits
    /// — and, while the columns are built on `key`, moves its shares and its
    /// place on the lists over `holders`, the list the standing charge was
    /// spread over. While they are not, the charge is only stored, and the
    /// columns can no longer be [replayed](Self::replay): what they spread
    /// for the model is not what is stored.
    pub(crate) fn recharge(
        &mut self,
        key: (u64, usize),
        model: ModelId,
        holders: &[usize],
        demand: Option<Nanos>,
    ) {
        let old = std::mem::replace(self.charges.get_or_default(model), demand);
        if old == demand {
            return;
        }
        if !self.is_built_on(key) {
            self.built_on.1 = usize::MAX;
            return;
        }
        let unheld = holders.is_empty();
        self.move_unheld(model, old.is_some() && unheld, demand.is_some() && unheld);
        let n = holders.len() as u64;
        let share = |charge: Option<Nanos>| charge.map(|c| c.as_nanos().div_ceil(n));
        for &gpu in holders {
            self.move_share(model, gpu, share(old), share(demand));
        }
    }

    /// Puts `model` on the list of charged models held nowhere, or takes it
    /// off, as it `was` and now `is` one.
    fn move_unheld(&mut self, model: ModelId, was: bool, is: bool) {
        match (was, is) {
            (false, true) => list(&mut self.unheld, model),
            (true, false) => unlist(&mut self.unheld, model),
            _ => {}
        }
    }

    /// Moves `model`'s share of GPU `gpu`'s bound from what it `was` to what
    /// it now `is` — `None` when it waits there no longer, or not yet — with
    /// the model's place on the GPU's list, the GPU's place on `listed` and
    /// `over_limit`, and the GPU's load, which is dropped.
    fn move_share(&mut self, model: ModelId, gpu: usize, was: Option<u64>, is: Option<u64>) {
        let before = self.bounds[gpu];
        let after = before + is.unwrap_or(0) - was.unwrap_or(0);
        self.bounds[gpu] = after;
        self.loads[gpu] = None;
        match (before > self.limit, after > self.limit) {
            (false, true) => list(&mut self.over_limit, gpu),
            (true, false) => unlist(&mut self.over_limit, gpu),
            _ => {}
        }
        let waiting = &mut self.waiting[gpu];
        match (was.is_some(), is.is_some()) {
            (false, true) => {
                if waiting.is_empty() {
                    list(&mut self.listed, gpu);
                }
                list(waiting, model);
            }
            (true, false) => {
                unlist(waiting, model);
                if waiting.is_empty() {
                    unlist(&mut self.listed, gpu);
                }
            }
            _ => {}
        }
    }

    /// GPU `gpu`'s load, Appendix B's `l_g`: `share(m, charge)` summed over
    /// its waiting list, ascending. `share` may depend only on the charge and
    /// the model's holder list — a move of either moves the GPU's bound,
    /// which drops the sum. The sum is kept until then, and re-summed from
    /// scratch, never adjusted, the next time it is asked for.
    pub(crate) fn load(&mut self, gpu: usize, share: impl Fn(ModelId, Nanos) -> f64) -> f64 {
        if let Some(load) = self.loads[gpu] {
            return load;
        }
        let mut load = 0.0;
        for &model in &self.waiting[gpu] {
            let charge = self.charge(model).expect("a waiting model is charged");
            load += share(model, charge);
        }
        self.loads[gpu] = Some(load);
        load
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
            loads: self.loads.iter().map(|l| l.map(f64::to_bits)).collect(),
        }
    }

    /// Per GPU, whether its load is kept.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn kept_loads(&self) -> impl Iterator<Item = bool> + '_ {
        self.loads.iter().map(Option::is_some)
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

    /// Holder moves as the tracker records them: `(model, gpu, joined)`.
    fn moves(moves: &[(u32, usize, bool)]) -> Vec<HolderMove> {
        let moved = |&(model, gpu, joined)| HolderMove {
            model: ModelId(model),
            gpu,
            joined,
        };
        moves.iter().map(moved).collect()
    }

    /// Replays `moved` on `l` at the next epoch, model `m`'s present holder
    /// list being `after[m]`, and checks the columns against a fresh ledger
    /// that charges each model in turn over `after` (loads aside: a fresh
    /// ledger keeps none).
    fn replay(l: &mut WaitingLedger, moved: &[(u32, usize, bool)], after: &[&[usize]]) {
        let key = (l.built_on.0 + 1, l.built_on.1);
        l.replay(key, &mut moves(moved), |m| after[m.0 as usize]);
        assert!(l.is_built_on(key));
        let mut fresh = ledger(key.1);
        for (m, holders) in after.iter().enumerate() {
            charge(&mut fresh, m as u32, holders, l.charge(ModelId(m as u32)));
        }
        let unloaded = |l: &WaitingLedger| LedgerTotals {
            loads: Vec::new(),
            ..l.totals()
        };
        assert_eq!(unloaded(l), unloaded(&fresh));
    }

    /// A GPU's load as the tests sum it: the charges, in ns.
    fn in_ns(_: ModelId, charge: Nanos) -> f64 {
        charge.as_nanos() as f64
    }

    #[test]
    fn a_holder_added_re_splits_the_shares_and_lists_its_gpu() {
        let mut l = ledger(4);
        charge(&mut l, 1, &[0], ns(101));
        charge(&mut l, 2, &[], ns(30));
        charge(&mut l, 3, &[3], ns(10));
        assert_eq!((l.load(0, in_ns), l.load(3, in_ns)), (101.0, 10.0));
        // Model 1 gains GPU 2; model 2 gets its first holder, GPU 1.
        replay(
            &mut l,
            &[(1, 2, true), (2, 1, true)],
            &[&[], &[0, 2], &[1], &[3]],
        );
        let t = l.totals();
        // ceil(101 / 2) = 51 on each of model 1's holders.
        assert_eq!(t.bounds, [51, 30, 51, 10]);
        assert_eq!(t.waiting, [ids(&[1]), ids(&[2]), ids(&[1]), ids(&[3])]);
        assert_eq!((t.listed, t.unheld), (vec![0, 1, 2, 3], vec![]));
        // GPU 0's load went with its bound; GPU 3's, untouched, is kept.
        assert_eq!(t.loads, [None, None, None, Some(10f64.to_bits())]);
        assert_eq!(l.load(0, in_ns), 101.0);
    }

    #[test]
    fn a_last_holder_removed_puts_the_model_back_on_unheld() {
        let mut l = ledger(2);
        charge(&mut l, 1, &[1], ns(60));
        charge(&mut l, 2, &[0, 1], ns(40));
        // Model 1 loses its only holder: it is held nowhere again, and GPU 1
        // stays listed for model 2.
        replay(&mut l, &[(1, 1, false)], &[&[], &[], &[0, 1]]);
        let t = l.totals();
        assert_eq!((t.bounds, t.unheld), (vec![20, 20], ids(&[1])));
        assert_eq!(t.waiting, [ids(&[2]), ids(&[2])]);
        assert_eq!(t.listed, [0, 1]);
        // Model 2 loses GPU 1: its list empties, and it is unlisted.
        replay(&mut l, &[(2, 1, false)], &[&[], &[], &[0]]);
        let t = l.totals();
        assert_eq!(t.bounds, [40, 0]);
        assert_eq!(t.waiting, [ids(&[2]), ids(&[])]);
        assert_eq!((t.listed, t.unheld), (vec![0], ids(&[1])));
    }

    #[test]
    fn a_move_carries_gpus_across_the_limit_both_ways() {
        let mut l = ledger(4);
        charge(&mut l, 1, &[0, 1], ns(150));
        charge(&mut l, 2, &[0], ns(40));
        charge(&mut l, 3, &[2, 3], ns(120));
        assert_eq!(l.totals().bounds, [115, 75, 60, 60]);
        assert_eq!(l.totals().over_limit, [0]);
        // Model 1 joins GPUs 2 and 3 and leaves 3 again, ending on three
        // holders, which takes GPU 0 under the limit; model 3 leaves GPU 3,
        // which takes GPU 2 over it. Interleaved, as the record has them.
        let moved = [(1, 2, true), (3, 3, false), (1, 3, true), (1, 3, false)];
        replay(&mut l, &moved, &[&[], &[0, 1, 2], &[0], &[2]]);
        let t = l.totals();
        assert_eq!(t.bounds, [90, 50, 170, 0]);
        assert_eq!((t.over_limit, t.listed), (vec![2], vec![0, 1, 2]));
        assert_eq!(t.waiting[2], ids(&[1, 3]));
    }

    #[test]
    fn a_move_of_an_uncharged_model_changes_nothing() {
        let mut l = ledger(2);
        charge(&mut l, 1, &[0], ns(70));
        assert_eq!((l.load(0, in_ns), l.load(1, in_ns)), (70.0, 0.0));
        let before = l.totals();
        replay(
            &mut l,
            &[(2, 0, true), (2, 1, true), (2, 0, false)],
            &[&[], &[0], &[1]],
        );
        assert_eq!(l.totals(), before, "kept loads included");
        // But a charge stored while the columns are behind leaves them
        // unreplayable: they spread another charge than the one stored.
        let key = (l.built_on.0 + 1, 2);
        l.recharge(key, ModelId(2), &[1], ns(5));
        l.replay(key, &mut moves(&[(2, 1, true)]), |_| &[]);
        assert!(!l.is_built_on(key));
        assert_eq!(l.totals().bounds, before.bounds);
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
