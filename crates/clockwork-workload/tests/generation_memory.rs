//! Generating a trace holds the trace once, not twice.
//!
//! A counting global allocator measures what each generator needs beyond
//! the trace it returns: the heap's peak during generation minus what is
//! live once it returns, the trace's own bytes ([`Trace::heap_bytes`]).
//! Generators emit in arrival order, sorting one time segment at a time as
//! packed keys in the trace's own time column, so they need a small
//! fraction of the trace even when one segment holds most of it, as the
//! hourly burst of a two-minute Azure trace does. A stable sort needs a
//! scratch buffer as long as what it sorts: two thirds of that Azure trace,
//! and all of a shuffled one given to [`Trace::new`], which must sort in
//! place and then need nothing beyond its input and its output. The binary
//! holds one test, so no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use clockwork_model::ModelId;
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::Nanos;
use clockwork_workload::{AzureTraceConfig, AzureTraceGenerator, OpenLoopClient};
use clockwork_workload::{ShapedWorkload, Trace, TraceEvent};

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    /// Counts only the change in size: a vector that doubles holds the new
    /// buffer, not the old and the new, once the copy is done.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Relaxed);
                }
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs a generator and checks that its transient heap is under an eighth
/// of the bytes its trace keeps.
fn holds_the_trace_once(name: &str, generate: impl FnOnce() -> Trace) {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let trace = generate();
    let retained = trace.heap_bytes();
    let transient = PEAK.load(Relaxed) - LIVE.load(Relaxed);
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
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let trace = Trace::new(events);
    let output = trace.heap_bytes();
    let beyond = PEAK.load(Relaxed) - start - output;
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
