//! A trace costs 8 bytes per arrival, and serving it copies none of it.
//!
//! A counting global allocator measures what generating a small Azure
//! scenario's trace, and a tiered shaped one's, leaves live. It must be
//! exactly what the trace reports holding ([`Trace::heap_bytes`]), and
//! that must be at most 8 B per arrival plus a constant: one sort key
//! packing the arrival's offset into its epoch, its model id and its rank
//! in the trace's class table, however many `(SLO, tier)` classes the trace
//! mixes. Each scenario is then served end to end (submitted, run to its
//! horizon and reported) from a clone that shares the keys. The trace must
//! hold no more afterwards: the 24 B-per-arrival [`Trace::events`] view is
//! cached in the shared block once built, so the serving path never built
//! it. The binary holds one test, so no other test allocates while it
//! measures.

use clockwork::prelude::*;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live_bytes;

/// Bytes a trace may hold per arrival: one `u64` key.
const BYTES_PER_ARRIVAL: usize = 8;

/// Bytes a trace may hold beyond its arrivals: the shared block, the epoch
/// table and the class table.
const FIXED_BYTES: usize = 512;

#[test]
fn a_served_trace_holds_eight_bytes_per_arrival() {
    let azure = ScenarioSpec::smoke(7);
    assert!(matches!(azure.workload, WorkloadSpec::Azure { .. }));
    let tiered = ScenarioSpec::multi_tenant().with_duration_secs(5);
    for spec in [azure, tiered] {
        let before = live_bytes();
        let trace = spec.arrivals();
        let kept = live_bytes() - before;
        let name = &spec.name;
        assert!(trace.len() > 2_000, "{name}: {} arrivals", trace.len());
        assert_eq!(
            kept,
            trace.heap_bytes(),
            "{name}: the trace holds what it reports"
        );
        let bound = BYTES_PER_ARRIVAL * trace.len() + FIXED_BYTES;
        assert!(
            kept <= bound,
            "{name}: {} arrivals hold {kept} B, more than {bound} B",
            trace.len()
        );

        let population: Vec<u32> = (0..spec.models as u32).collect();
        let report = Experiment::new(spec.clone()).run_prepared(
            &ClockworkFactory::default(),
            &population,
            &trace,
            u64::MAX,
        );
        let outcome = report.outcome();
        assert!(
            report.identity_ok() && report.drained(),
            "{name}: {outcome:?}"
        );
        assert_eq!(report.submitted, trace.len() as u64);
        assert!(
            report.metrics().successes > 0,
            "{name}: the run served nothing"
        );

        assert_eq!(
            trace.heap_bytes(),
            kept,
            "{name}: serving the trace built the 24 B-per-arrival view of its keys"
        );
        if spec.name == "multi_tenant" {
            let tiers: std::collections::BTreeSet<Tier> = trace.iter().map(|e| e.tier).collect();
            assert_eq!(tiers.len(), 2, "{name}: the trace mixes both tiers");
        }
    }
}
