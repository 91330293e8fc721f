//! The controller's per-model request queues (§5.3, Appendix B).
//!
//! Besides its mirror of the workers, the only state the Clockwork scheduler
//! decides from is what is waiting: one FIFO of admitted requests per model.
//! Strategies are built from a queue's deadlines in FIFO order, LOAD demand
//! from its length, expiry from its earliest deadline, fleet pressure from
//! the total — so each of those is kept here as an index over the queues
//! rather than rescanned per pass.
//!
//! **Ownership rule:** every queued-request fact lives here; the scheduler
//! holds policy state only. The per-model FIFO, its deadline multiset and
//! exact minimum, the id-ordered queued set, the `(earliest deadline, model)`
//! urgency index, the total and the per-model queue version all change
//! through [`RequestQueues::push_back`], [`RequestQueues::push_front`],
//! [`RequestQueues::take_front`] and [`RequestQueues::expire`] and nowhere
//! else — everything else is a `&self` reader — so the indices cannot drift
//! from the queues they summarise, and a cache derived from a queue
//! validates itself by comparing [`RequestQueues::version`] with the one it
//! was built at.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::mem;

use clockwork_model::{ModelId, ModelTable};
use clockwork_sim::time::Timestamp;

use crate::request::InferenceRequest;

/// An admitted request waiting for (or riding on) an INFER.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingRequest {
    pub(crate) request: InferenceRequest,
    /// `request.deadline()`: [`Timestamp::MAX`] for a request without an SLO.
    pub(crate) deadline: Timestamp,
    /// Whether the model was resident nowhere when the request arrived.
    pub(crate) cold: bool,
}

/// One model's queue with the facts derived from it.
#[derive(Clone, Debug)]
struct ModelQueue {
    fifo: VecDeque<PendingRequest>,
    /// Multiset of the deadlines in `fifo`, so the earliest is the first key
    /// instead of an O(queue-length) rescan.
    deadlines: BTreeMap<Timestamp, u32>,
    /// The first key of `deadlines`, [`Timestamp::MAX`] when empty; always
    /// exact.
    min_deadline: Timestamp,
    /// Bumped by every change to `fifo`.
    version: u64,
}

impl Default for ModelQueue {
    fn default() -> Self {
        ModelQueue {
            fifo: VecDeque::new(),
            deadlines: BTreeMap::new(),
            min_deadline: Timestamp::MAX,
            version: 0,
        }
    }
}

impl ModelQueue {
    fn add_deadline(&mut self, deadline: Timestamp) {
        *self.deadlines.entry(deadline).or_insert(0) += 1;
        self.min_deadline = self.min_deadline.min(deadline);
    }

    fn drop_deadline(&mut self, deadline: Timestamp) {
        if let Some(count) = self.deadlines.get_mut(&deadline) {
            *count -= 1;
            if *count == 0 {
                self.deadlines.remove(&deadline);
            }
        }
        if deadline <= self.min_deadline {
            self.min_deadline = self
                .deadlines
                .keys()
                .next()
                .copied()
                .unwrap_or(Timestamp::MAX);
        }
    }
}

/// A drained queue's FIFO and deadline map, kept allocated for the next
/// queue that fills.
type Buffers = (VecDeque<PendingRequest>, BTreeMap<Timestamp, u32>);

/// Every model's queue of admitted requests, with the indices the scheduling
/// pass reads instead of rescanning them. See the module docs for the
/// ownership rule.
#[derive(Clone, Debug, Default)]
pub(crate) struct RequestQueues {
    models: ModelTable<ModelQueue>,
    /// The buffers of queues that drained. An empty queue holds none, so
    /// the buffers live cost what the most queues ever non-empty at once
    /// took, not what every model that ever queued did.
    spare: Vec<Buffers>,
    /// The models with a non-empty queue, in ascending id order.
    queued: BTreeSet<ModelId>,
    /// `(earliest deadline, model)` of every queued model.
    urgency: BTreeSet<(Timestamp, ModelId)>,
    /// Requests queued across all models.
    total: usize,
}

impl RequestQueues {
    /// Appends a newly admitted request to its model's queue.
    pub(crate) fn push_back(&mut self, pending: PendingRequest) {
        self.change(pending.request.model, |queue| {
            queue.add_deadline(pending.deadline);
            queue.fifo.push_back(pending);
        });
    }

    /// Puts a request whose INFER was lost back at the head of its model's
    /// queue.
    pub(crate) fn push_front(&mut self, pending: PendingRequest) {
        self.change(pending.request.model, |queue| {
            queue.add_deadline(pending.deadline);
            queue.fifo.push_front(pending);
        });
    }

    /// Removes and returns the first `n` requests of `model`'s queue (all of
    /// it when shorter), in FIFO order.
    pub(crate) fn take_front(&mut self, model: ModelId, n: usize) -> Vec<PendingRequest> {
        if self.len(model) == 0 {
            return Vec::new();
        }
        self.change(model, |queue| {
            let taken: Vec<PendingRequest> = queue.fifo.drain(..n.min(queue.fifo.len())).collect();
            for pending in &taken {
                queue.drop_deadline(pending.deadline);
            }
            taken
        })
    }

    /// Removes every request of `model`'s queue whose deadline is before
    /// `cutoff` and appends them to `out` in FIFO order. Requests without an
    /// SLO never expire.
    pub(crate) fn expire(
        &mut self,
        model: ModelId,
        cutoff: Timestamp,
        out: &mut Vec<PendingRequest>,
    ) {
        if cutoff <= self.min_deadline(model) {
            // No queued deadline can have lapsed yet.
            return;
        }
        self.change(model, |queue| {
            let first = out.len();
            queue.fifo.retain(|pending| {
                let doomed = pending.deadline < cutoff;
                if doomed {
                    out.push(*pending);
                }
                !doomed
            });
            for pending in &out[first..] {
                queue.drop_deadline(pending.deadline);
            }
        });
    }

    /// The one mutation path: runs `op` on `model`'s queue, then brings the
    /// version, the total, the queued set and the urgency index in step with
    /// what it left. An `op` either adds or removes requests, so the queue
    /// changed exactly when its length did. An empty queue borrows spare
    /// buffers before `op` runs and hands them back if it is empty after.
    fn change<R>(&mut self, model: ModelId, op: impl FnOnce(&mut ModelQueue) -> R) -> R {
        let queue = self.models.get_or_default(model);
        let (old_len, old_min) = (queue.fifo.len(), queue.min_deadline);
        if old_len == 0 {
            if let Some((fifo, deadlines)) = self.spare.pop() {
                (queue.fifo, queue.deadlines) = (fifo, deadlines);
            }
        }
        let out = op(queue);
        let (len, min) = (queue.fifo.len(), queue.min_deadline);
        if len == 0 && queue.fifo.capacity() > 0 {
            let buffers = (mem::take(&mut queue.fifo), mem::take(&mut queue.deadlines));
            self.spare.push(buffers);
        }
        if len == old_len {
            return out;
        }
        queue.version += 1;
        self.total = self.total - old_len + len;
        if old_len > 0 {
            self.urgency.remove(&(old_min, model));
        }
        if len > 0 {
            self.urgency.insert((min, model));
            self.queued.insert(model);
        } else {
            self.queued.remove(&model);
        }
        out
    }

    /// The models with at least one queued request, in ascending id order.
    pub(crate) fn queued(&self) -> &BTreeSet<ModelId> {
        &self.queued
    }

    /// Requests queued across all models.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Requests queued for `model`.
    pub(crate) fn len(&self, model: ModelId) -> usize {
        self.models.get(model).map_or(0, |queue| queue.fifo.len())
    }

    /// `model`'s queue, head first.
    pub(crate) fn requests(
        &self,
        model: ModelId,
    ) -> impl DoubleEndedIterator<Item = &PendingRequest> {
        self.models
            .get(model)
            .map(|queue| queue.fifo.iter())
            .unwrap_or_default()
    }

    /// The deadlines of `model`'s queue in FIFO order.
    pub(crate) fn deadlines(&self, model: ModelId) -> impl Iterator<Item = Timestamp> + '_ {
        self.requests(model).map(|pending| pending.deadline)
    }

    /// The earliest deadline in `model`'s queue; [`Timestamp::MAX`] when the
    /// queue is empty or holds only requests without an SLO.
    pub(crate) fn min_deadline(&self, model: ModelId) -> Timestamp {
        self.models
            .get(model)
            .map_or(Timestamp::MAX, |queue| queue.min_deadline)
    }

    /// The earliest deadline queued anywhere, `None` when nothing is queued.
    pub(crate) fn earliest(&self) -> Option<Timestamp> {
        self.urgency.first().map(|&(deadline, _)| deadline)
    }

    /// `(earliest deadline, model)` of every queued model whose earliest
    /// deadline is before `cutoff`, most urgent first — the only ones an
    /// expiry at `cutoff` can touch.
    pub(crate) fn due_before(
        &self,
        cutoff: Timestamp,
    ) -> impl Iterator<Item = (Timestamp, ModelId)> + '_ {
        self.urgency
            .iter()
            .copied()
            .take_while(move |&(deadline, _)| deadline < cutoff)
    }

    /// How many times `model`'s queue has changed. Never repeats, so a value
    /// derived from the queue is current exactly while the version it was
    /// built at still equals this.
    pub(crate) fn version(&self, model: ModelId) -> u64 {
        self.models.get(model).map_or(0, |queue| queue.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use clockwork_model::Tier;
    use clockwork_sim::time::Nanos;
    use proptest::prelude::*;

    const MODELS: u32 = 4;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        PushBack { model: u32, deadline: Timestamp },
        PushFront { model: u32, deadline: Timestamp },
        TakeFront { model: u32, n: usize },
        Expire { model: u32, cutoff: Timestamp },
    }

    /// Few distinct deadlines, so ties are the norm, and a third of them
    /// `Timestamp::MAX` (no SLO).
    fn deadline() -> impl Strategy<Value = Timestamp> {
        (0u64..9).prop_map(|slot| {
            if slot >= 6 {
                Timestamp::MAX
            } else {
                Timestamp::from_millis(slot + 1)
            }
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        let model = || 0..MODELS;
        prop_oneof![
            (model(), deadline()).prop_map(|(model, deadline)| Op::PushBack { model, deadline }),
            (model(), deadline()).prop_map(|(model, deadline)| Op::PushBack { model, deadline }),
            (model(), deadline()).prop_map(|(model, deadline)| Op::PushFront { model, deadline }),
            (model(), 0usize..5).prop_map(|(model, n)| Op::TakeFront { model, n }),
            (model(), 0u64..9).prop_map(|(model, ms)| Op::Expire {
                model,
                cutoff: Timestamp::from_millis(ms),
            }),
        ]
    }

    fn pending(id: u64, model: u32, deadline: Timestamp) -> PendingRequest {
        let slo = if deadline == Timestamp::MAX {
            Nanos::MAX
        } else {
            deadline - Timestamp::ZERO
        };
        let request = InferenceRequest {
            id: RequestId(id),
            model: ModelId(model),
            arrival: Timestamp::ZERO,
            slo,
            tier: Tier::Strict,
        };
        assert_eq!(request.deadline(), deadline);
        PendingRequest {
            request,
            deadline,
            cold: false,
        }
    }

    fn ids(requests: &[PendingRequest]) -> Vec<u64> {
        requests.iter().map(|p| p.request.id.0).collect()
    }

    proptest! {
        /// Every index equals what a rescan of the raw queues yields, after
        /// every operation.
        #[test]
        fn indices_match_a_from_scratch_oracle(ops in proptest::collection::vec(op(), 0..120)) {
            let mut queues = RequestQueues::default();
            // The oracle: the raw queues as `(request id, deadline)`, nothing else.
            let mut raw: Vec<VecDeque<(u64, Timestamp)>> = vec![VecDeque::new(); MODELS as usize];
            let mut next_id = 0u64;
            for op in ops {
                let before = raw.clone();
                let versions: Vec<u64> = (0..MODELS).map(|m| queues.version(ModelId(m))).collect();
                match op {
                    Op::PushBack { model, deadline } => {
                        queues.push_back(pending(next_id, model, deadline));
                        raw[model as usize].push_back((next_id, deadline));
                        next_id += 1;
                    }
                    Op::PushFront { model, deadline } => {
                        queues.push_front(pending(next_id, model, deadline));
                        raw[model as usize].push_front((next_id, deadline));
                        next_id += 1;
                    }
                    Op::TakeFront { model, n } => {
                        let taken = queues.take_front(ModelId(model), n);
                        let queue = &mut raw[model as usize];
                        let expected: Vec<u64> =
                            queue.drain(..n.min(queue.len())).map(|(id, _)| id).collect();
                        prop_assert_eq!(ids(&taken), expected);
                    }
                    Op::Expire { model, cutoff } => {
                        // Appends: what `out` already held stays in front.
                        let mut out = vec![pending(u64::MAX, model, Timestamp::MAX)];
                        queues.expire(ModelId(model), cutoff, &mut out);
                        let queue = &mut raw[model as usize];
                        let expected: Vec<u64> = std::iter::once(u64::MAX)
                            .chain(queue.iter().filter(|&&(_, d)| d < cutoff).map(|&(id, _)| id))
                            .collect();
                        queue.retain(|&(_, d)| d >= cutoff);
                        prop_assert_eq!(ids(&out), expected);
                    }
                }
                let min_of = |queue: &VecDeque<(u64, Timestamp)>| {
                    queue.iter().map(|&(_, d)| d).min().unwrap_or(Timestamp::MAX)
                };
                let mut urgency = Vec::new();
                for m in 0..MODELS {
                    let (model, queue) = (ModelId(m), &raw[m as usize]);
                    let fifo: Vec<(u64, Timestamp)> = queues
                        .requests(model)
                        .map(|p| (p.request.id.0, p.deadline))
                        .collect();
                    prop_assert_eq!(&fifo, &Vec::from(queue.clone()), "FIFO order of {model:?}");
                    prop_assert_eq!(
                        queues.deadlines(model).collect::<Vec<_>>(),
                        queue.iter().map(|&(_, d)| d).collect::<Vec<_>>()
                    );
                    prop_assert_eq!(queues.len(model), queue.len());
                    prop_assert_eq!(queues.min_deadline(model), min_of(queue));
                    prop_assert_eq!(
                        queues.version(model) != versions[m as usize],
                        *queue != before[m as usize],
                        "version moved <=> the queue changed, {model:?} after {op:?}"
                    );
                    prop_assert!(queues.version(model) >= versions[m as usize]);
                    if !queue.is_empty() {
                        urgency.push((min_of(queue), model));
                    }
                }
                prop_assert_eq!(queues.total(), raw.iter().map(VecDeque::len).sum::<usize>());
                let queued: Vec<ModelId> = urgency.iter().map(|&(_, m)| m).collect();
                urgency.sort_unstable();
                prop_assert_eq!(queues.queued().iter().copied().collect::<Vec<_>>(), queued);
                prop_assert_eq!(queues.earliest(), urgency.first().map(|&(d, _)| d));
                // With the largest cutoff only the no-SLO queues stay out.
                let cutoffs = [0, 2, 4, 7].map(Timestamp::from_millis);
                for cutoff in cutoffs.into_iter().chain([Timestamp::MAX]) {
                    let due: Vec<(Timestamp, ModelId)> =
                        urgency.iter().copied().filter(|&(d, _)| d < cutoff).collect();
                    prop_assert_eq!(
                        queues.due_before(cutoff).collect::<Vec<_>>(),
                        due,
                        "urgency order before {cutoff:?} after {op:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_drained_queue_hands_its_buffers_to_the_next_that_fills() {
        let mut queues = RequestQueues::default();
        let (a, b) = (ModelId(0), ModelId(1));
        for id in 0..40 {
            queues.push_back(pending(id, a.0, Timestamp::from_millis(id % 6 + 1)));
        }
        let capacity = queues.models.get(a).unwrap().fifo.capacity();
        assert_eq!(queues.take_front(a, 40).len(), 40);
        assert_eq!(queues.models.get(a).unwrap().fifo.capacity(), 0);
        assert_eq!(
            queues.spare.len(),
            1,
            "the drained queue's buffers are spare"
        );

        queues.push_back(pending(40, b.0, Timestamp::from_millis(1)));
        let queue = queues.models.get(b).unwrap();
        assert_eq!(queue.fifo.capacity(), capacity, "B took A's FIFO");
        assert_eq!(queue.deadlines.len(), 1);
        assert!(queues.spare.is_empty());
        assert_eq!((queues.len(a), queues.len(b), queues.total()), (0, 1, 1));
    }

    #[test]
    fn unknown_models_read_as_empty_and_never_grow_the_table() {
        let mut queues = RequestQueues::default();
        let far = ModelId(u32::MAX);
        assert!(queues.take_front(far, 3).is_empty());
        let mut out = Vec::new();
        queues.expire(far, Timestamp::MAX, &mut out);
        assert!(out.is_empty());
        assert_eq!(
            (
                queues.len(far),
                queues.version(far),
                queues.min_deadline(far)
            ),
            (0, 0, Timestamp::MAX)
        );
        assert_eq!(queues.requests(far).count(), 0);
        assert_eq!(queues.earliest(), None);
        assert_eq!(queues.models.iter().count(), 0, "no slot was created");
    }
}
