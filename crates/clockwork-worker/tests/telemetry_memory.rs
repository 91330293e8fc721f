//! A worker's telemetry holds the latency buckets it has seen, not the
//! whole layout.
//!
//! A counting global allocator measures the heap `WorkerTelemetry` takes
//! when it is built and what its duration histograms take once they have
//! recorded a realistic spread of EXEC durations. A flagship fleet builds
//! hundreds of workers, so a dense bucket array per histogram would be most
//! of the fleet's memory before the first request arrives. The binary holds
//! one test, so no other test allocates while it measures.

use clockwork_sim::rng::SimRng;
use clockwork_sim::time::{Nanos, Timestamp};
use clockwork_worker::telemetry::WorkerTelemetry;

#[path = "../../clockwork/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::live_bytes;

/// Counters for the octaves 1–100 ms touches (under 7 of them), rounded up
/// to 8 octaves of 32 sub-buckets.
const EXEC_COUNTS_BOUND: usize = 8 * 32 * std::mem::size_of::<u64>();

#[test]
fn telemetry_holds_only_the_buckets_it_has_seen() {
    let mut rng = SimRng::seeded(7);
    let before = live_bytes();
    let mut telemetry = WorkerTelemetry::new(4);
    let built = live_bytes() - before;
    assert!(
        built <= 1_024,
        "a 4-GPU worker's telemetry took {built} B before recording anything"
    );

    let mut at = Timestamp::ZERO;
    for i in 0..10_000u64 {
        let d = match i {
            0 => Nanos::from_millis(1),
            1 => Nanos::from_millis(100),
            _ => Nanos::from_nanos(1_000_000 + rng.uniform_u64(99_000_001)),
        };
        telemetry.record_exec((i % 4) as usize, at, at + d, d);
        at += d;
    }
    let held = live_bytes() - before - built;
    assert_eq!(telemetry.exec_durations.count(), 10_000);
    assert!(
        held <= EXEC_COUNTS_BOUND,
        "10 000 EXECs over 1-100 ms grew the histograms by {held} B, \
         more than {EXEC_COUNTS_BOUND} B"
    );
    drop(telemetry);
}
