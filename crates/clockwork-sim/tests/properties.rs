//! Property-based tests for the simulation substrate.
//!
//! These exercise the invariants the rest of the system relies on: virtual
//! time arithmetic never goes backwards or wraps unexpectedly, the event
//! queue delivers in chronological order regardless of insertion order,
//! memory accounting conserves capacity, the PCIe link serialises transfers,
//! and the GPU timing model is deterministic given a seed.

use proptest::prelude::*;

use clockwork_sim::engine::EventQueue;
use clockwork_sim::gpu::{ConcurrencyModel, ExecNoise, GpuSpec, GpuTimingModel};
use clockwork_sim::memory::MemoryPool;
use clockwork_sim::network::{NetworkConfig, NetworkModel};
use clockwork_sim::pcie::{LinkScheduler, PcieLink};
use clockwork_sim::rng::SimRng;
use clockwork_sim::time::{round_to_u64, Nanos, Timestamp};
use clockwork_sim::variance::{ExternalVariance, VarianceConfig};

// Bound raw nanosecond values well below u64::MAX so additive properties are
// exercised without overflow; one day of virtual time is far beyond any
// experiment in the repository.
const DAY_NS: u64 = 86_400_000_000_000;

fn nanos() -> impl Strategy<Value = Nanos> {
    (0u64..DAY_NS).prop_map(Nanos::from_nanos)
}

fn timestamp() -> impl Strategy<Value = Timestamp> {
    (0u64..DAY_NS).prop_map(Timestamp::from_nanos)
}

proptest! {
    // ------------------------------------------------------------------
    // Nanos / Timestamp arithmetic
    // ------------------------------------------------------------------

    #[test]
    fn nanos_add_is_commutative(a in nanos(), b in nanos()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn nanos_add_then_sub_roundtrips(a in nanos(), b in nanos()) {
        prop_assert_eq!((a + b) - b, a);
    }

    #[test]
    fn nanos_saturating_sub_never_underflows(a in nanos(), b in nanos()) {
        let d = a.saturating_sub(b);
        if a >= b {
            prop_assert_eq!(d, a - b);
        } else {
            prop_assert_eq!(d, Nanos::ZERO);
        }
    }

    #[test]
    fn nanos_saturating_add_is_at_least_each_operand(a in nanos(), b in nanos()) {
        let s = a.saturating_add(b);
        prop_assert!(s >= a);
        prop_assert!(s >= b);
    }

    #[test]
    fn nanos_millis_roundtrip(ms in 0u64..86_400_000) {
        prop_assert_eq!(Nanos::from_millis(ms).as_nanos(), ms * 1_000_000);
        let approx = Nanos::from_millis(ms).as_millis_f64();
        prop_assert!((approx - ms as f64).abs() < 1e-6);
    }

    #[test]
    fn nanos_mul_f64_is_monotone_in_factor(a in nanos(), f in 0.0f64..4.0, g in 0.0f64..4.0) {
        let (lo, hi) = if f <= g { (f, g) } else { (g, f) };
        prop_assert!(a.mul_f64(lo) <= a.mul_f64(hi));
    }

    #[test]
    fn nanos_min_max_bracket_operands(a in nanos(), b in nanos()) {
        let lo = a.min(b);
        let hi = a.max(b);
        prop_assert!(lo <= hi);
        prop_assert!(lo == a || lo == b);
        prop_assert!(hi == a || hi == b);
        prop_assert_eq!(lo + hi, a + b);
    }

    #[test]
    fn nanos_div_mul_is_bounded(a in nanos(), k in 1u64..1000) {
        // Integer division truncates, so (a / k) * k never exceeds a and is
        // within k - 1 nanoseconds of it.
        let back = (a / k) * k;
        prop_assert!(back <= a);
        prop_assert!(a - back < Nanos::from_nanos(k));
    }

    #[test]
    fn timestamp_advance_then_since_roundtrips(t in timestamp(), d in nanos()) {
        let later = t + d;
        prop_assert_eq!(later.since(t), d);
        prop_assert_eq!(later - t, d);
        prop_assert!(later >= t);
    }

    #[test]
    fn timestamp_ordering_is_preserved_by_translation(a in timestamp(), b in timestamp(), d in nanos()) {
        prop_assert_eq!(a <= b, a + d <= b + d);
    }

    #[test]
    fn round_to_u64_is_round_then_cast(
        bits in any::<u64>(),
        // Biased exponents 2^-3 ..= 2^65 — where rounding has something to
        // decide — under a random sign and mantissa.
        exponent in 1020u64..1089,
        half in 0u64..(1 << 52),
    ) {
        let near_integers = f64::from_bits((bits & !(0x7ff << 52)) | (exponent << 52));
        let on_a_half = half as f64 + 0.5;
        for v in [f64::from_bits(bits), near_integers, on_a_half, -on_a_half] {
            // Each value with its neighbours on either side.
            for v in [f64::from_bits(v.to_bits().wrapping_sub(1)), v, f64::from_bits(v.to_bits().wrapping_add(1))] {
                prop_assert_eq!(round_to_u64(v), v.round() as u64, "v = {:e} ({:#x})", v, v.to_bits());
            }
        }
    }

    #[test]
    fn timestamp_since_earlier_is_zero_saturating(a in timestamp(), b in timestamp()) {
        if a <= b {
            prop_assert_eq!(a.since(b), Nanos::ZERO);
        } else {
            prop_assert_eq!(a.since(b), a - b);
        }
    }

    // ------------------------------------------------------------------
    // Event queue
    // ------------------------------------------------------------------

    #[test]
    fn event_queue_pops_in_chronological_order(times in proptest::collection::vec(0u64..DAY_NS, 0..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(Timestamp::from_nanos(*t), i);
        }
        prop_assert_eq!(q.len(), times.len());
        let mut last = Timestamp::ZERO;
        let mut popped = 0usize;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert!(q.is_empty());
    }

    #[test]
    fn event_queue_equal_times_pop_in_fifo_order(n in 1usize..100, t in 0u64..DAY_NS) {
        let mut q = EventQueue::new();
        let at = Timestamp::from_nanos(t);
        for i in 0..n {
            q.push(at, i);
        }
        let mut expected = 0usize;
        while let Some((_, payload)) = q.pop() {
            prop_assert_eq!(payload, expected);
            expected += 1;
        }
        prop_assert_eq!(expected, n);
    }

    #[test]
    fn event_queue_cancel_removes_exactly_one(times in proptest::collection::vec(0u64..DAY_NS, 1..100), pick in any::<prop::sample::Index>()) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| q.push(Timestamp::from_nanos(*t), i))
            .collect();
        let victim = pick.index(ids.len());
        prop_assert!(q.cancel(ids[victim]));
        // Cancelling twice is a no-op.
        prop_assert!(!q.cancel(ids[victim]));
        let mut seen = Vec::new();
        while let Some((_, payload)) = q.pop() {
            seen.push(payload);
        }
        prop_assert_eq!(seen.len(), times.len() - 1);
        prop_assert!(!seen.contains(&victim));
    }

    #[test]
    fn event_queue_counters_conserve_under_arbitrary_ops(
        ops in proptest::collection::vec((0u64..DAY_NS, 0u8..3), 1..200),
    ) {
        // Interleave pushes, pops and cancels arbitrarily; the
        // conservation identity pushed == delivered + cancelled + live must
        // hold after every operation.
        let mut q = EventQueue::new();
        let mut live_ids: Vec<_> = Vec::new();
        for (t, op) in ops {
            let at = Timestamp::from_nanos(t);
            match op {
                0 => live_ids.push(q.push(at, ())),
                1 => {
                    q.pop();
                }
                _ => {
                    if let Some(id) = live_ids.pop() {
                        q.cancel(id);
                    }
                }
            }
            prop_assert_eq!(
                q.pushed_total(),
                q.delivered_total() + q.cancelled_total() + q.len() as u64
            );
        }
    }

    #[test]
    fn event_queue_pop_due_never_returns_future_events(
        times in proptest::collection::vec(0u64..DAY_NS, 1..100),
        cutoff in 0u64..DAY_NS,
    ) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(Timestamp::from_nanos(*t), i);
        }
        let now = Timestamp::from_nanos(cutoff);
        let mut due = 0usize;
        while let Some((at, _)) = q.pop_due(now) {
            prop_assert!(at <= now);
            due += 1;
        }
        let expected = times.iter().filter(|t| Timestamp::from_nanos(**t) <= now).count();
        prop_assert_eq!(due, expected);
        // Everything left is strictly in the future.
        if let Some(next) = q.peek_time() {
            prop_assert!(next > now);
        }
    }

    #[test]
    fn event_queue_batches_match_the_push_everything_oracle(
        // (op, time, batch times). Times are drawn from a range far smaller
        // than the op count so ties between run entries and heap entries,
        // and batches landing before times already popped, are the norm.
        ops in proptest::collection::vec(
            (0u8..10, 0u64..40, proptest::collection::vec(0u64..40, 0..12)),
            1..160,
        ),
    ) {
        // `real` takes every batch through `push_batch`; `oracle` pushes each
        // entry on its own. Payloads number the entries in submission order.
        let mut real: EventQueue<u32> = EventQueue::new();
        let mut oracle: EventQueue<u32> = EventQueue::new();
        let mut handles = Vec::new();
        let mut next = 0u32;
        let mut payloads = |n: usize| {
            let first = next;
            next += n as u32;
            first..next
        };
        let at = Timestamp::from_nanos;
        for (op, t, mut times) in ops {
            let mut batch = |times: &[u64], real: &mut EventQueue<u32>| {
                let entries: Vec<_> =
                    times.iter().map(|&t| at(t)).zip(payloads(times.len())).collect();
                for &(t, p) in &entries {
                    oracle.push(t, p);
                }
                real.push_batch(entries);
            };
            match op {
                0 => {
                    let p = payloads(1).start;
                    handles.push((real.push(at(t), p), oracle.push(at(t), p)));
                }
                // Unsorted (or, by chance, sorted or empty) as drawn.
                1 => batch(&times, &mut real),
                2 => {
                    times.sort_unstable();
                    batch(&times, &mut real);
                }
                // A second sorted batch while the first is still pending.
                3 => {
                    times.sort_unstable();
                    batch(&times, &mut real);
                    batch(&times, &mut real);
                }
                4 => batch(&vec![t; times.len()], &mut real),
                5 => batch(&[], &mut real),
                6 => {
                    if !handles.is_empty() {
                        let (a, b) = handles.swap_remove(t as usize % handles.len());
                        prop_assert_eq!(real.cancel(a), oracle.cancel(b));
                    }
                }
                7 => prop_assert_eq!(real.pop(), oracle.pop()),
                8 => prop_assert_eq!(real.pop_due(at(t)), oracle.pop_due(at(t))),
                _ => prop_assert_eq!(real.peek_time(), oracle.peek_time()),
            }
            prop_assert_eq!(real.len(), oracle.len());
            prop_assert_eq!(real.pushed_total(), oracle.pushed_total());
            prop_assert_eq!(real.delivered_total(), oracle.delivered_total());
            prop_assert_eq!(real.cancelled_total(), oracle.cancelled_total());
            prop_assert_eq!(
                real.pushed_total(),
                real.delivered_total() + real.cancelled_total() + real.len() as u64
            );
        }
        while let Some(delivered) = oracle.pop() {
            prop_assert_eq!(real.pop(), Some(delivered));
        }
        prop_assert_eq!(real.pop(), None);
        prop_assert!(real.is_empty());
    }

    // ------------------------------------------------------------------
    // Memory accounting
    // ------------------------------------------------------------------

    #[test]
    fn memory_pool_conserves_capacity(
        capacity in 1u64..1u64 << 40,
        ops in proptest::collection::vec((any::<bool>(), 1u64..1u64 << 32), 0..200),
    ) {
        let mut pool = MemoryPool::new(capacity);
        let mut live: Vec<u64> = Vec::new();
        for (is_alloc, bytes) in ops {
            if is_alloc {
                let fits = pool.fits(bytes);
                match pool.allocate(bytes) {
                    Ok(()) => {
                        prop_assert!(fits);
                        live.push(bytes);
                    }
                    Err(_) => prop_assert!(!fits),
                }
            } else if let Some(bytes) = live.pop() {
                pool.release(bytes);
            }
            let used: u64 = live.iter().sum();
            prop_assert_eq!(pool.used(), used);
            prop_assert_eq!(pool.available(), capacity - used);
            prop_assert!(pool.used() <= pool.capacity());
            prop_assert!(pool.peak() >= pool.used());
            prop_assert!((0.0..=1.0).contains(&pool.occupancy()));
        }
    }

    // ------------------------------------------------------------------
    // PCIe link
    // ------------------------------------------------------------------

    #[test]
    fn pcie_duration_is_monotone_and_roughly_linear(a in 1u64..1u64 << 30, b in 1u64..1u64 << 30) {
        let link = PcieLink::v100_pcie3();
        let da = link.transfer_duration(a);
        let db = link.transfer_duration(b);
        if a <= b {
            prop_assert!(da <= db);
        }
        let dsum = link.transfer_duration(a + b);
        let parts = da + db;
        // Linear up to per-transfer fixed overhead and nanosecond rounding.
        let tolerance = Nanos::from_micros(200);
        let diff = if dsum > parts { dsum - parts } else { parts - dsum };
        prop_assert!(diff <= tolerance, "non-linear transfer time: {} vs {}", dsum, parts);
    }

    #[test]
    fn pcie_scheduler_serialises_transfers(
        reqs in proptest::collection::vec((0u64..DAY_NS, 1u64..1u64 << 28), 1..100),
    ) {
        let link = PcieLink::v100_pcie3();
        let mut sched = LinkScheduler::new();
        let mut last_completion = Timestamp::ZERO;
        // Requests must be offered in non-decreasing arrival order, as the
        // worker does.
        let mut sorted = reqs;
        sorted.sort_by_key(|(t, _)| *t);
        for (t, bytes) in sorted {
            let now = Timestamp::from_nanos(t);
            let duration = link.transfer_duration(bytes);
            let (start, end) = sched.schedule(now, duration);
            prop_assert!(start >= now, "transfer started before it was requested");
            prop_assert!(start >= last_completion, "transfers overlapped on the link");
            prop_assert_eq!(end, start + duration);
            last_completion = end;
            prop_assert_eq!(sched.busy_until(), end);
        }
    }

    // ------------------------------------------------------------------
    // GPU timing model
    // ------------------------------------------------------------------

    #[test]
    fn concurrency_model_gain_is_bounded_and_monotone(c in 1u32..64) {
        let m = ConcurrencyModel::default();
        let f = m.throughput_factor(c);
        prop_assert!(f >= 1.0);
        prop_assert!(f <= 1.0 + m.max_throughput_gain + 1e-9);
        prop_assert!(m.throughput_factor(c + 1) >= f);
        prop_assert!(m.latency_sigma(c + 1) >= m.latency_sigma(c));
    }

    #[test]
    fn concurrency_median_latency_never_beats_isolated(base_us in 100u64..100_000, c in 1u32..64) {
        let m = ConcurrencyModel::default();
        let base = Nanos::from_micros(base_us);
        prop_assert!(m.median_latency(base, c) >= base);
    }

    #[test]
    fn noiseless_gpu_reproduces_base_latency_exactly(base_us in 1u64..1_000_000, seed in any::<u64>()) {
        let mut spec = GpuSpec::tesla_v100();
        spec.exec_noise = ExecNoise::none();
        let mut gpu = GpuTimingModel::new(spec, SimRng::seeded(seed));
        let base = Nanos::from_micros(base_us);
        for _ in 0..10 {
            prop_assert_eq!(gpu.exec_duration(base), base);
        }
    }

    #[test]
    fn gpu_timing_is_deterministic_given_seed(base_us in 1u64..1_000_000, seed in any::<u64>()) {
        let base = Nanos::from_micros(base_us);
        let mk = || GpuTimingModel::new(GpuSpec::tesla_v100(), SimRng::seeded(seed));
        let mut a = mk();
        let mut b = mk();
        for _ in 0..32 {
            prop_assert_eq!(a.exec_duration(base), b.exec_duration(base));
        }
    }

    // ------------------------------------------------------------------
    // RNG
    // ------------------------------------------------------------------

    #[test]
    fn rng_uniform_stays_in_unit_interval(seed in any::<u64>()) {
        let mut rng = SimRng::seeded(seed);
        for _ in 0..256 {
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn rng_uniform_range_respects_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, width in 0.001f64..1e6) {
        let mut rng = SimRng::seeded(seed);
        let hi = lo + width;
        for _ in 0..64 {
            let x = rng.uniform_range(lo, hi);
            prop_assert!(x >= lo && x < hi + 1e-9);
        }
    }

    #[test]
    fn rng_uniform_u64_is_below_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::seeded(seed);
        for _ in 0..64 {
            prop_assert!(rng.uniform_u64(bound) < bound);
        }
    }

    #[test]
    fn rng_is_deterministic_and_streams_are_independent(seed in any::<u64>()) {
        let mut a = SimRng::seeded(seed);
        let mut b = SimRng::seeded(seed);
        let seq_a: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&seq_a, &seq_b);

        let mut derived = SimRng::seeded(seed).derive(1);
        let seq_d: Vec<u64> = (0..32).map(|_| derived.next_u64()).collect();
        prop_assert_ne!(seq_a, seq_d);
    }

    #[test]
    fn rng_shuffle_preserves_multiset(seed in any::<u64>(), mut items in proptest::collection::vec(0u32..1000, 0..200)) {
        let mut rng = SimRng::seeded(seed);
        let mut shuffled = items.clone();
        rng.shuffle(&mut shuffled);
        items.sort_unstable();
        shuffled.sort_unstable();
        prop_assert_eq!(items, shuffled);
    }

    #[test]
    fn rng_poisson_gap_is_finite_for_positive_rates(seed in any::<u64>(), rate in 0.1f64..100_000.0) {
        let mut rng = SimRng::seeded(seed);
        for _ in 0..32 {
            let gap = rng.poisson_gap(rate);
            // Gaps are bounded: never the "no arrivals" sentinel, and far
            // below a day for the rates the workload generators use.
            prop_assert!(gap < Nanos::from_secs(86_400));
        }
        // A non-positive rate means no arrivals at all.
        prop_assert_eq!(rng.poisson_gap(0.0), Nanos::MAX);
    }

    // ------------------------------------------------------------------
    // External variance and network
    // ------------------------------------------------------------------

    #[test]
    fn disabled_variance_never_perturbs(base_us in 1u64..1_000_000, at in 0u64..DAY_NS) {
        let mut v = ExternalVariance::disabled();
        let base = Nanos::from_micros(base_us);
        prop_assert_eq!(v.perturb(Timestamp::from_nanos(at), base), base);
        prop_assert_eq!(v.spikes_injected(), 0);
    }

    #[test]
    fn hostile_variance_only_adds_latency(seed in any::<u64>(), base_us in 1u64..1_000_000, at in 0u64..DAY_NS) {
        let mut v = ExternalVariance::new(VarianceConfig::hostile(), SimRng::seeded(seed));
        let base = Nanos::from_micros(base_us);
        for i in 0..16u64 {
            let now = Timestamp::from_nanos(at) + Nanos::from_millis(i);
            prop_assert!(v.perturb(now, base) >= base);
        }
    }

    #[test]
    fn ideal_network_delay_is_exactly_base_latency(lat_us in 0u64..100_000, bytes in 0u64..1u64 << 20) {
        let mut net = NetworkModel::new(NetworkConfig::ideal(Nanos::from_micros(lat_us)), SimRng::seeded(1));
        prop_assert_eq!(net.delay(bytes), Nanos::from_micros(lat_us));
    }

    #[test]
    fn network_accounting_counts_every_message(msgs in proptest::collection::vec(0u64..1u64 << 20, 0..100)) {
        let mut net = NetworkModel::new(NetworkConfig::zero(), SimRng::seeded(2));
        for &b in &msgs {
            let _ = net.delay(b);
        }
        prop_assert_eq!(net.message_count(), msgs.len() as u64);
        prop_assert_eq!(net.bytes_carried(), msgs.iter().sum::<u64>());
    }
}
