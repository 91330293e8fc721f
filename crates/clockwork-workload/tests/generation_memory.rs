//! Generating a trace holds the trace once, not twice.
//!
//! A counting global allocator measures what each generator needs beyond
//! the trace it returns: the heap's peak during generation minus the bytes
//! the returned trace keeps. Generators that emit in arrival order, sorting
//! one time segment at a time, need a small fraction of the trace; a stable
//! sort of the whole trace alone needs a scratch buffer of half to all of
//! it. The binary holds one test, so no other test allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use clockwork_model::ModelId;
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::Nanos;
use clockwork_workload::{AzureTraceConfig, AzureTraceGenerator, OpenLoopClient};
use clockwork_workload::{ShapedWorkload, Trace};

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
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let trace = generate();
    let after = LIVE.load(Relaxed);
    let retained = after - before;
    let transient = PEAK.load(Relaxed) - after;
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

#[test]
fn every_generator_holds_its_trace_once() {
    holds_the_trace_once("azure", || {
        AzureTraceGenerator::new(AzureTraceConfig {
            functions: 400,
            models: 100,
            duration: Nanos::from_minutes(20),
            target_rate: 80.0,
            slo: Nanos::from_millis(100),
            seed: 7,
        })
        .generate()
    });
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
