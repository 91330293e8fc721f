//! A generated trace holds its recipe, not its arrivals, and reading it
//! holds one segment of them.
//!
//! A counting global allocator measures three things. Building a trace with
//! a generator leaves live exactly what the trace reports holding
//! ([`Trace::heap_bytes`]): its recipe, the generator's config and the
//! starting state of its streams, which is under a byte per arrival here;
//! and counting the arrivals needs no more than that again. Reading the
//! trace through once peaks at its widest time segment's keys, 8 B each,
//! plus a fork of the recipe: the cursor draws each segment into one buffer
//! it reuses. Its [`Trace::events`] view is collected from a cursor: it
//! adds 24 B per arrival to the trace, and no stored keys beside them. A
//! trace built from events the caller owns ([`Trace::new`])
//! stores its keys, and sorts the events in place: it needs under an eighth
//! of the keys beyond its input and its output, even for a shuffled trace
//! that is one segment. The binary holds one test, so no other test
//! allocates while it measures.

use clockwork_model::ModelId;
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::Nanos;
use clockwork_workload::{AzureTraceConfig, AzureTraceGenerator, OpenLoopClient};
use clockwork_workload::{ShapedWorkload, Trace, TraceEvent};

#[path = "../../clockwork/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{live_bytes, peak_bytes, reset_peak};

/// Bytes building or reading a trace may need beyond its bounds: a shaped
/// segment's popularity table and the cursor's own box.
const SLACK: usize = 2_048;

/// The most arrivals of `trace` in one of the segments `segment` long that
/// tile time from zero, counted through a cursor.
fn widest_segment(trace: &Trace, segment: Nanos) -> usize {
    let mut counts = vec![0; 1];
    for e in trace.iter() {
        let index = (e.at.as_nanos() / segment.as_nanos()) as usize;
        if index >= counts.len() {
            counts.resize(index + 1, 0);
        }
        counts[index] += 1;
    }
    counts.into_iter().max().unwrap_or(0)
}

/// Runs a generator whose segments are `segment` long and checks what the
/// trace holds, what building it needs and what reading it needs.
fn holds_its_recipe(name: &str, segment: Nanos, generate: impl FnOnce() -> Trace) {
    let start = live_bytes();
    reset_peak();
    let trace = generate();
    let held = live_bytes() - start;
    let building = peak_bytes() - live_bytes();
    assert!(
        (80_000..200_000).contains(&trace.len()),
        "{name}: {} arrivals, outside the sized range",
        trace.len()
    );
    assert_eq!(
        held,
        trace.heap_bytes(),
        "{name}: the trace holds what it reports"
    );
    assert!(
        held < trace.len(),
        "{name}: {} arrivals hold {held} B, a byte or more each",
        trace.len()
    );
    assert!(
        building <= held + SLACK,
        "{name}: counting {} arrivals needed {building} B beyond the {held} B kept",
        trace.len()
    );

    let widest = widest_segment(&trace, segment);
    let before = live_bytes();
    reset_peak();
    let read = trace.iter().count();
    let reading = peak_bytes() - before;
    assert_eq!(read, trace.len(), "{name}: the cursor read the length");
    let bound = 8 * widest + held + SLACK;
    assert!(
        reading <= bound,
        "{name}: reading {read} arrivals, at most {widest} a segment, needed {reading} B, \
         more than {bound} B"
    );
    assert_eq!(trace.heap_bytes(), held, "{name}: reading kept nothing");

    let before = live_bytes();
    let view = trace.events();
    let added = live_bytes() - before;
    let view_bytes = 24 * trace.len();
    assert_eq!(
        added, view_bytes,
        "{name}: the events view allocated {added} B"
    );
    assert_eq!(
        trace.heap_bytes() - held,
        view_bytes,
        "{name}: the view is charged"
    );
    assert!(
        trace.iter().eq(view.iter().copied()),
        "{name}: the view is the cursor's"
    );
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
    let minute = Nanos::from_minutes(1);
    let twenty_minutes = azure(400, 100, 20, 80.0);
    holds_its_recipe("azure", minute, || twenty_minutes.generate());
    // The fleet's shape: minute 0, the hourly burst, is most of the trace.
    let fleet = azure(800, 200, 2, 750.0);
    holds_its_recipe("azure burst", minute, || fleet.generate());
    // A shuffled trace is one segment that is all of the trace.
    let mut shuffled: Vec<TraceEvent> = fleet.generate().iter().collect();
    SimRng::seeded(7).shuffle(&mut shuffled);
    sorts_in_place("shuffled", shuffled);
    let models: Vec<ModelId> = (0..100).map(ModelId).collect();
    holds_its_recipe("shaped", Nanos::from_secs(1), || {
        ShapedWorkload::constant(1_000.0).generate(
            &models,
            Nanos::from_millis(100),
            Nanos::from_secs(100),
            &SimRng::seeded(7),
        )
    });
    // Many slow clients, the shape of a cold-start workload: at 0.2 r/s a
    // client expects one arrival in a 5 s segment.
    let clients: Vec<ModelId> = (0..3_000).map(ModelId).collect();
    holds_its_recipe("open loop", Nanos::from_secs(5), || {
        OpenLoopClient::generate_many(
            &clients,
            0.2,
            Nanos::from_millis(100),
            Nanos::from_secs(170),
            &mut SimRng::seeded(7),
        )
    });
    // Busier clients over more segments than one window of the count
    // holds: the count carries each client's stream from window to window.
    let clients: Vec<ModelId> = (0..300).map(ModelId).collect();
    holds_its_recipe("open loop in windows", Nanos::from_secs(1), || {
        OpenLoopClient::generate_many(
            &clients,
            1.0,
            Nanos::from_millis(100),
            Nanos::from_secs(400),
            &mut SimRng::seeded(7),
        )
    });
}
