//! Property-based tests for the metrics crate.
//!
//! Every number the evaluation harness reports flows through these types, so
//! their invariants (quantiles bracketed by observed extremes, monotone CDFs,
//! merge equivalence, windows that answer what a sorted copy would) are what
//! make the reproduced tables trustworthy.

use proptest::prelude::*;

use clockwork_metrics::histogram::LatencyHistogram;
use clockwork_metrics::orderstat::OrderStatWindow;
use clockwork_metrics::percentile::percentile_nanos;
use clockwork_sim::time::Nanos;

fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000_000_000, 1..400)
}

proptest! {
    // ------------------------------------------------------------------
    // LatencyHistogram
    // ------------------------------------------------------------------

    #[test]
    fn histogram_quantiles_are_bracketed_and_monotone(values in samples(), qs in proptest::collection::vec(0.0f64..=1.0, 1..20)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Nanos::from_nanos(v));
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        prop_assert_eq!(h.min().as_nanos(), lo);
        prop_assert_eq!(h.max().as_nanos(), hi);
        prop_assert!(h.mean().as_nanos() >= lo && h.mean().as_nanos() <= hi);

        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = Nanos::ZERO;
        for q in sorted_qs {
            let v = h.quantile(q);
            prop_assert!(v.as_nanos() >= lo && v.as_nanos() <= hi,
                "quantile {} = {} outside [{}, {}]", q, v, lo, hi);
            prop_assert!(v >= prev, "quantile not monotone at q={}", q);
            prev = v;
        }
        prop_assert_eq!(h.quantile(1.0).as_nanos(), hi);
    }

    #[test]
    fn histogram_quantile_tracks_exact_percentile_within_bucket_error(values in samples(), q in 0.0f64..=1.0) {
        let mut h = LatencyHistogram::new();
        let mut exact: Vec<Nanos> = values.iter().map(|&v| Nanos::from_nanos(v)).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        let true_q = percentile_nanos(&exact, q * 100.0).unwrap();
        let approx = h.quantile(q);
        // The histogram's log buckets have ~3.2 % relative width; allow a
        // slightly looser bound plus an absolute floor for tiny values.
        let tolerance = Nanos::from_nanos((true_q.as_nanos() as f64 * 0.07) as u64)
            + Nanos::from_nanos(64);
        let diff = if approx > true_q { approx - true_q } else { true_q - approx };
        prop_assert!(diff <= tolerance,
            "quantile {} too far from exact: {} vs {}", q, approx, true_q);
    }

    #[test]
    fn histogram_fraction_below_is_monotone_and_complete(values in samples(), probes in proptest::collection::vec(0u64..10_000_000_000, 1..20)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Nanos::from_nanos(v));
        }
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut prev = 0.0;
        for p in sorted {
            let f = h.fraction_below(Nanos::from_nanos(p));
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f + 1e-12 >= prev);
            prev = f;
        }
        prop_assert!((h.fraction_below(h.max()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_equals_recording_everything_in_one(a in samples(), b in samples()) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hall = LatencyHistogram::new();
        for &v in &a {
            ha.record(Nanos::from_nanos(v));
            hall.record(Nanos::from_nanos(v));
        }
        for &v in &b {
            hb.record(Nanos::from_nanos(v));
            hall.record(Nanos::from_nanos(v));
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.min(), hall.min());
        prop_assert_eq!(ha.max(), hall.max());
        prop_assert_eq!(ha.mean(), hall.mean());
        for p in [50.0, 90.0, 99.0, 99.9] {
            prop_assert_eq!(ha.percentile(p), hall.percentile(p));
        }
    }

    #[test]
    fn histogram_record_n_equals_repeated_record(v in 0u64..10_000_000_000, n in 1u64..1000) {
        let mut bulk = LatencyHistogram::new();
        bulk.record_n(Nanos::from_nanos(v), n);
        let mut loop_h = LatencyHistogram::new();
        for _ in 0..n {
            loop_h.record(Nanos::from_nanos(v));
        }
        prop_assert_eq!(bulk.count(), loop_h.count());
        prop_assert_eq!(bulk.mean(), loop_h.mean());
        prop_assert_eq!(bulk.percentile(50.0), loop_h.percentile(50.0));
        prop_assert_eq!(bulk.cdf_points(), loop_h.cdf_points());
    }

    #[test]
    fn histogram_cdf_points_are_monotone_and_end_at_one(values in samples()) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Nanos::from_nanos(v));
        }
        let points = h.cdf_points();
        prop_assert!(!points.is_empty());
        let mut prev_x = Nanos::ZERO;
        let mut prev_y = 0.0;
        for &(x, y) in &points {
            prop_assert!(x >= prev_x);
            prop_assert!(y >= prev_y);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&y));
            prev_x = x;
            prev_y = y;
        }
        prop_assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_summary_is_internally_ordered(values in samples()) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(Nanos::from_nanos(v));
        }
        let t = h.tail_summary();
        prop_assert!(t.p50 <= t.p99);
        prop_assert!(t.p99 <= t.p999);
        prop_assert!(t.p999 <= t.p9999);
        prop_assert!(t.p9999 <= t.max);
        prop_assert_eq!(t.count, values.len() as u64);
    }

    // ------------------------------------------------------------------
    // Exact percentiles and reservoir sampling
    // ------------------------------------------------------------------

    #[test]
    fn exact_percentile_is_bracketed_and_monotone(values in samples()) {
        let ns: Vec<Nanos> = values.iter().map(|&v| Nanos::from_nanos(v)).collect();
        let lo = *ns.iter().min().unwrap();
        let hi = *ns.iter().max().unwrap();
        prop_assert_eq!(percentile_nanos(&ns, 0.0).unwrap(), lo);
        prop_assert_eq!(percentile_nanos(&ns, 100.0).unwrap(), hi);
        let mut prev = Nanos::ZERO;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = percentile_nanos(&ns, p).unwrap();
            prop_assert!(v >= lo && v <= hi);
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert!(percentile_nanos(&[], 50.0).is_none());
    }

    // ------------------------------------------------------------------
    // OrderStatWindow
    // ------------------------------------------------------------------

    // The incrementally sorted window must be indistinguishable from the
    // clone-and-sort reference at every step of a random stream: same
    // percentiles (for the profiler's p99 and any other rank), same
    // extremes, same mean. The scheduler's prediction path relies on this
    // equivalence being exact, not approximate.
    #[test]
    fn orderstat_window_matches_percentile_nanos(
        values in samples(),
        capacity in 1usize..64,
        ps in proptest::collection::vec(0.0f64..=100.0, 1..8),
    ) {
        let mut w = OrderStatWindow::new(capacity);
        let mut reference: Vec<Nanos> = Vec::new();
        for &v in &values {
            let sample = Nanos::from_nanos(v);
            w.push(sample);
            reference.push(sample);
            if reference.len() > capacity {
                reference.remove(0);
            }
            for &p in &ps {
                prop_assert_eq!(w.percentile(p), percentile_nanos(&reference, p));
            }
            prop_assert_eq!(w.percentile(99.0), percentile_nanos(&reference, 99.0));
            prop_assert_eq!(w.len(), reference.len());
            prop_assert_eq!(w.max(), reference.iter().copied().max());
            prop_assert_eq!(w.min(), reference.iter().copied().min());
            prop_assert_eq!(w.latest(), reference.last().copied());
        }
        let sum: u128 = reference.iter().map(|n| n.as_nanos() as u128).sum();
        let mean = Nanos::from_nanos((sum / reference.len() as u128) as u64);
        prop_assert_eq!(w.mean(), Some(mean));
    }
}
