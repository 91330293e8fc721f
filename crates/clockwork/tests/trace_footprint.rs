//! A stored trace costs 8 bytes per arrival, a generated one holds its
//! recipe, and serving either copies none of it.
//!
//! A counting global allocator measures two kinds of trace.
//!
//! - **Stored.** A trace built from events ([`Trace::new`]), here a small
//!   Azure scenario's arrivals and a tiered shaped one's, must leave live
//!   exactly what it reports holding ([`Trace::heap_bytes`]), and that must
//!   be at most 8 B per arrival plus a constant: one sort key packing the
//!   arrival's offset into its epoch, its model id and its rank in the
//!   trace's class table, however many `(SLO, tier)` classes the trace
//!   mixes.
//! - **Generated.** An Azure scenario's own trace ([`ScenarioSpec::arrivals`])
//!   is its generator's recipe, so its held bytes do not grow with its
//!   length: a one-minute and a four-minute scenario hold the same bytes,
//!   within a constant. Serving it draws one minute at a time into one
//!   buffer, so its serving peaks, above the peak of serving the same
//!   arrivals stored, at most at its widest minute's keys and a fork of
//!   the recipe.
//!
//! Each trace is served end to end (submitted, run to its horizon and
//! reported) from a clone that shares it, and must hold no more afterwards:
//! the 24 B-per-arrival [`Trace::events`] view is cached in the trace once
//! built, so the serving path did not build it. The binary holds one test,
//! so no other test allocates while it measures.

use clockwork::prelude::*;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{live_bytes, peak_bytes, reset_peak};

/// Bytes a stored trace may hold per arrival: one `u64` key.
const BYTES_PER_ARRIVAL: usize = 8;

/// Bytes a stored trace may hold beyond its arrivals: the shared box, the
/// epoch table and the class table.
const FIXED_BYTES: usize = 512;

/// Bytes by which generated traces of one recipe may differ, and serving a
/// generated trace may exceed its bound: the cursor's box and rounding.
const SLACK_BYTES: usize = 1_024;

/// Serves `trace` for `spec` and returns the peak bytes the run allocated
/// beyond those live before it.
fn serve(spec: &ScenarioSpec, trace: &Trace) -> usize {
    let before = live_bytes();
    reset_peak();
    let population: Vec<u32> = (0..spec.models as u32).collect();
    let report = Experiment::new(spec.clone()).run_prepared(
        &ClockworkFactory::default(),
        &population,
        trace,
        u64::MAX,
    );
    let name = &spec.name;
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
    drop(report);
    peak_bytes() - before
}

/// The most arrivals of `trace` in one minute from zero.
fn widest_minute(trace: &Trace) -> usize {
    let mut counts = vec![0; 1];
    for e in trace.iter() {
        let minute = (e.at.as_nanos() / 60_000_000_000) as usize;
        if minute >= counts.len() {
            counts.resize(minute + 1, 0);
        }
        counts[minute] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

#[test]
fn a_served_trace_holds_eight_bytes_per_arrival() {
    let azure = ScenarioSpec::smoke(7);
    assert!(matches!(azure.workload, WorkloadSpec::Azure { .. }));
    let tiered = ScenarioSpec::multi_tenant().with_duration_secs(5);
    for spec in [azure, tiered] {
        let arrivals: Vec<TraceEvent> = spec.arrivals().iter().collect();
        // Building the trace frees the events it is given.
        let before = live_bytes() - arrivals.capacity() * std::mem::size_of::<TraceEvent>();
        let trace = Trace::new(arrivals);
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
        serve(&spec, &trace);
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

    // A generated trace: the fleet's function mix at a rate a debug build
    // serves in seconds.
    let generated = |secs| {
        ScenarioSpec {
            workload: WorkloadSpec::Azure {
                functions: 80,
                target_rate: 100.0,
            },
            ..ScenarioSpec::smoke(7)
        }
        .with_duration_secs(secs)
    };
    let held = |spec: &ScenarioSpec| {
        let before = live_bytes();
        let trace = spec.arrivals();
        let held = live_bytes() - before;
        assert_eq!(held, trace.heap_bytes(), "the trace holds what it reports");
        (trace, held)
    };
    let (one, one_held) = held(&generated(60));
    let (spec, four) = (generated(240), held(&generated(240)));
    let (trace, four_held) = four;
    assert!(
        trace.len() > 2 * one.len() && one.len() > 6_000,
        "{} and {} arrivals",
        one.len(),
        trace.len()
    );
    assert!(
        four_held.abs_diff(one_held) <= SLACK_BYTES,
        "one minute holds {one_held} B, four minutes {four_held} B"
    );
    let widest = widest_minute(&trace);
    assert!(
        widest < trace.len() / 2,
        "the widest minute is most of the trace"
    );
    let serving = serve(&spec, &trace);
    assert_eq!(
        trace.heap_bytes(),
        four_held,
        "serving drew the trace into keys"
    );
    let stored = Trace::new(trace.iter().collect());
    let serving_stored = serve(&spec, &stored);
    let bound = serving_stored + BYTES_PER_ARRIVAL * widest + four_held + SLACK_BYTES;
    assert!(
        serving <= bound,
        "serving {} arrivals, at most {widest} a minute, peaked {serving} B above the \
         start, more than {bound} B ({serving_stored} B serving them stored)",
        trace.len()
    );
}
