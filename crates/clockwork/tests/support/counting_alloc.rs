//! A counting global allocator, shared by the suites that bound memory.
//!
//! A suite includes this file as a module (`#[path = ".../counting_alloc.rs"]
//! mod counting_alloc;`), which installs the allocator for the suite's
//! binary. It forwards every call to the system allocator and counts the
//! bytes and allocations live, every byte ever allocated and the most bytes
//! live at once. A reallocation counts only its change in size: a vector
//! that doubles holds the new buffer, not the old and the new, once the
//! copy is done. Each suite's binary holds one test, so no other test
//! allocates while it measures.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Relaxed)
}

/// Allocations made and not yet freed.
pub fn live_allocations() -> usize {
    LIVE_ALLOCATIONS.load(Relaxed)
}

/// Bytes ever allocated, freed or not; a reallocation counts its new size.
pub fn allocated_bytes() -> usize {
    ALLOCATED_BYTES.load(Relaxed)
}

/// The most bytes live at once since [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK_BYTES.load(Relaxed)
}

/// Starts the peak again from the bytes live now.
pub fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Relaxed);
}

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
            LIVE_ALLOCATIONS.fetch_add(1, Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
        LIVE_ALLOCATIONS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            ALLOCATED_BYTES.fetch_add(new_size, Relaxed);
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE_BYTES.fetch_sub(layout.size() - new_size, Relaxed);
                }
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
