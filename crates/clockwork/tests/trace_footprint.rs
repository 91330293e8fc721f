//! A trace costs 12 bytes per arrival, and serving it copies none of it.
//!
//! A counting global allocator measures what generating a small Azure
//! scenario's trace leaves live. It must be exactly what the trace reports
//! holding ([`Trace::heap_bytes`]), and that must be at most 12 B per
//! arrival plus a constant: a time and a model id, the class being the
//! trace's one `(SLO, tier)` pair. The scenario is then served end to end
//! (submitted, run to its horizon and reported) from a clone that shares
//! the columns. The trace must hold no more afterwards: the 24 B-per-arrival
//! [`Trace::events`] view is cached in the shared columns once built, so
//! the serving path never built it. The binary holds one test, so no other
//! test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use clockwork::prelude::*;

/// Bytes allocated and not yet freed.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE_BYTES.fetch_add(new_size, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes a trace may hold per arrival: an 8-byte time and a 4-byte model.
const BYTES_PER_ARRIVAL: usize = 12;

/// Bytes a trace may hold beyond its arrivals: the shared block and the
/// one-entry class table.
const FIXED_BYTES: usize = 512;

#[test]
fn a_served_trace_holds_twelve_bytes_per_arrival() {
    let spec = ScenarioSpec::smoke(7);
    assert!(matches!(spec.workload, WorkloadSpec::Azure { .. }));

    let before = LIVE_BYTES.load(Relaxed);
    let trace = spec.arrivals();
    let kept = LIVE_BYTES.load(Relaxed) - before;
    assert!(trace.len() > 2_000, "{} arrivals", trace.len());
    assert_eq!(kept, trace.heap_bytes(), "the trace holds what it reports");
    let bound = BYTES_PER_ARRIVAL * trace.len() + FIXED_BYTES;
    assert!(
        kept <= bound,
        "{} arrivals hold {kept} B, more than {bound} B",
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
    assert!(report.identity_ok() && report.drained(), "{outcome:?}");
    assert_eq!(report.submitted, trace.len() as u64);
    assert!(report.metrics().successes > 0, "the run served nothing");

    assert_eq!(
        trace.heap_bytes(),
        kept,
        "serving the trace built the 24 B-per-arrival view of its columns"
    );
}
