//! The front door: a total model → shard routing table.
//!
//! Clockwork's centralized controller owns every model; a sharded fleet
//! splits the model population so each shard's controller owns a slice.
//! The front door is the piece in between: every request is routed to the
//! one shard that owns its model, so shards never interact. The table is
//! built once per experiment and is a pure function of the assignment
//! policy and the model count — the same determinism contract every other
//! component keeps.

use clockwork_model::ModelId;
use clockwork_sim::hash::Fnv1a;
use clockwork_workload::Trace;

/// How the model population is split across shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardAssignment {
    /// FNV-1a hash of the model id modulo the shard count — stateless and
    /// uniform in expectation, the production-style default.
    HashByModel,
    /// An explicit model → shard table (one entry per model). The escape
    /// hatch for experiments that pin the partition.
    Explicit(Vec<u32>),
}

/// The immutable routing table of one sharded experiment: every model id in
/// `0..models` maps to exactly one shard in `0..shards`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontDoorRouter {
    shards: u32,
    table: Vec<u32>,
}

impl FrontDoorRouter {
    /// Builds the table for `models` models over `shards` shards. Panics
    /// when `shards` is zero, or when an explicit table has the wrong length
    /// or routes outside `0..shards`.
    pub fn build(assignment: &ShardAssignment, shards: u32, models: usize) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        let table = match assignment {
            ShardAssignment::HashByModel => {
                (0..models as u32).map(|m| hash_shard(m, shards)).collect()
            }
            ShardAssignment::Explicit(table) => {
                assert_eq!(
                    table.len(),
                    models,
                    "explicit assignment must cover every model"
                );
                for (m, &s) in table.iter().enumerate() {
                    assert!(s < shards, "model {m} routed to shard {s} of {shards}");
                }
                table.clone()
            }
        };
        FrontDoorRouter { shards, table }
    }

    /// The owning shard of a model. Panics on models outside the table —
    /// the front door only ever sees registered models.
    pub fn shard_of(&self, model: ModelId) -> u32 {
        self.table[model.0 as usize]
    }

    /// The full model → shard table, indexed by model id.
    pub fn table(&self) -> &[u32] {
        &self.table
    }

    /// The global model ids a shard owns, ascending — the shard registers
    /// exactly these, in exactly this order, so global id `owned[i]`
    /// becomes local id `i`.
    pub fn owned_models(&self, shard: u32) -> Vec<ModelId> {
        self.table
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == shard)
            .map(|(m, _)| ModelId(m as u32))
            .collect()
    }

    /// Routes a trace through the front door: one sub-trace per shard, each
    /// a shard-stable, order-preserving subsequence of the input.
    pub fn route(&self, trace: &Trace) -> Vec<Trace> {
        trace.partitioned(self.shards as usize, |m| self.shard_of(m) as usize)
    }
}

/// FNV-1a over the model id's little-endian bytes, reduced mod `shards`.
fn hash_shard(model: u32, shards: u32) -> u32 {
    let mut hash = Fnv1a::new();
    hash.write_bytes(&model.to_le_bytes());
    (hash.finish() % u64::from(shards)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_model::Tier;
    use clockwork_sim::time::{Nanos, Timestamp};
    use clockwork_workload::TraceEvent;

    fn trace_with_counts(counts: &[u64]) -> Trace {
        let mut events = Vec::new();
        for (m, &n) in counts.iter().enumerate() {
            for i in 0..n {
                events.push(TraceEvent {
                    at: Timestamp::from_millis(i * 10 + m as u64),
                    model: ModelId(m as u32),
                    slo: Nanos::from_millis(100),
                    tier: Tier::Strict,
                });
            }
        }
        Trace::new(events)
    }

    #[test]
    fn hash_routing_is_total_deterministic_and_roughly_uniform() {
        let a = FrontDoorRouter::build(&ShardAssignment::HashByModel, 4, 400);
        let b = FrontDoorRouter::build(&ShardAssignment::HashByModel, 4, 400);
        assert_eq!(a, b, "a pure function of (models, shards)");
        assert!(a.table().iter().all(|&s| s < 4));
        let mut owned_total = 0;
        for s in 0..4 {
            let owned = a.owned_models(s);
            owned_total += owned.len();
            assert!(
                owned.len() > 50,
                "shard {s} owns {} of 400 — hash badly skewed",
                owned.len()
            );
            assert!(owned.windows(2).all(|w| w[0] < w[1]), "ascending order");
        }
        assert_eq!(owned_total, 400, "every model owned exactly once");
    }

    #[test]
    fn one_shard_owns_everything() {
        let router = FrontDoorRouter::build(&ShardAssignment::HashByModel, 1, 20);
        assert_eq!(router.owned_models(0).len(), 20);
        let trace = trace_with_counts(&[3, 2, 1]);
        let router = FrontDoorRouter::build(&ShardAssignment::HashByModel, 1, 3);
        let parts = router.route(&trace);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], trace, "the 1-shard front door is the identity");
    }

    #[test]
    fn explicit_tables_are_validated() {
        let router = FrontDoorRouter::build(&ShardAssignment::Explicit(vec![1, 0, 1]), 2, 3);
        assert_eq!(router.shard_of(ModelId(0)), 1);
        assert_eq!(router.owned_models(0), vec![ModelId(1)]);
    }

    #[test]
    #[should_panic(expected = "routed to shard")]
    fn explicit_tables_must_stay_in_range() {
        let _ = FrontDoorRouter::build(&ShardAssignment::Explicit(vec![0, 5]), 2, 2);
    }

    #[test]
    #[should_panic(expected = "cover every model")]
    fn explicit_tables_must_cover_the_population() {
        let _ = FrontDoorRouter::build(&ShardAssignment::Explicit(vec![0]), 2, 2);
    }

    #[test]
    fn routing_a_trace_loses_nothing() {
        let trace = trace_with_counts(&[5, 4, 3, 2, 1, 6, 7, 8]);
        let router = FrontDoorRouter::build(&ShardAssignment::HashByModel, 3, 8);
        let parts = router.route(&trace);
        assert_eq!(parts.iter().map(Trace::len).sum::<usize>(), trace.len());
        for (s, part) in parts.iter().enumerate() {
            for e in part.iter() {
                assert_eq!(router.shard_of(e.model) as usize, s);
            }
        }
    }
}
