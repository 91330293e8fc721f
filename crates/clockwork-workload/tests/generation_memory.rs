//! Generating a trace holds the trace once, not twice.
//!
//! A counting global allocator measures what each generator needs beyond
//! the trace it returns: the heap's peak during generation minus what is
//! live once it returns, the trace's own bytes ([`Trace::heap_bytes`]).
//! Generators emit in arrival order, sorting one time segment at a time as
//! packed keys in the trace's own key buffer, so they need a small
//! fraction of the trace even when one segment holds most of it, as the
//! hourly burst of a two-minute Azure trace does. A stable sort needs a
//! scratch buffer as long as what it sorts: two thirds of that Azure trace,
//! and all of a shuffled one given to [`Trace::new`], which must sort in
//! place and then need nothing beyond its input and its output. The binary
//! holds one test, so no other test allocates while it measures.

use clockwork_model::ModelId;
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::Nanos;
use clockwork_workload::{AzureTraceConfig, AzureTraceGenerator, OpenLoopClient};
use clockwork_workload::{ShapedWorkload, Trace, TraceEvent};

#[path = "../../clockwork/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{live_bytes, peak_bytes, reset_peak};

/// Runs a generator and checks that its transient heap is under an eighth
/// of the bytes its trace keeps.
fn holds_the_trace_once(name: &str, generate: impl FnOnce() -> Trace) {
    reset_peak();
    let trace = generate();
    let retained = trace.heap_bytes();
    let transient = peak_bytes() - live_bytes();
    assert!(
        (80_000..200_000).contains(&trace.len()),
        "{name}: {} arrivals, outside the sized range",
        trace.len()
    );
    assert!(
        transient * 8 < retained,
        "{name}: generating {} arrivals ({retained} B kept) needed {transient} B more",
        trace.len()
    );
    drop(trace);
}

/// Builds a trace from events the caller owns and checks that, beyond
/// that input and the trace it becomes, building needs under an eighth of
/// the trace's bytes: the input is sorted in place.
fn sorts_in_place(name: &str, events: Vec<TraceEvent>) {
    let start = live_bytes();
    reset_peak();
    let trace = Trace::new(events);
    let output = trace.heap_bytes();
    let beyond = peak_bytes() - start - output;
    assert!(
        beyond * 8 < output,
        "{name}: building {} arrivals ({output} B kept) needed {beyond} B beyond its input",
        trace.len()
    );
}

#[test]
fn every_generator_holds_its_trace_once() {
    let azure = |functions, models, minutes, target_rate| {
        AzureTraceGenerator::new(AzureTraceConfig {
            functions,
            models,
            duration: Nanos::from_minutes(minutes),
            target_rate,
            slo: Nanos::from_millis(100),
            seed: 7,
        })
    };
    holds_the_trace_once("azure", || azure(400, 100, 20, 80.0).generate());
    // The fleet's shape: minute 0, the hourly burst, is most of the trace.
    let fleet = azure(800, 200, 2, 750.0);
    holds_the_trace_once("azure burst", || fleet.generate());
    // A shuffled trace is one segment that is all of the trace.
    let mut shuffled: Vec<TraceEvent> = fleet.generate().iter().collect();
    SimRng::seeded(7).shuffle(&mut shuffled);
    sorts_in_place("shuffled", shuffled);
    let models: Vec<ModelId> = (0..100).map(ModelId).collect();
    holds_the_trace_once("shaped", || {
        ShapedWorkload::constant(1_000.0).generate(
            &models,
            Nanos::from_millis(100),
            Nanos::from_secs(100),
            &SimRng::seeded(7),
        )
    });
    // Many slow clients, the shape of a cold-start workload.
    let clients: Vec<ModelId> = (0..3_000).map(ModelId).collect();
    holds_the_trace_once("open loop", || {
        OpenLoopClient::generate_many(
            &clients,
            0.2,
            Nanos::from_millis(100),
            Nanos::from_secs(170),
            &mut SimRng::seeded(7),
        )
    });
}
