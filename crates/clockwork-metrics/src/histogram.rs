//! Log-bucketed latency histogram.
//!
//! The paper's latency plots (Figs. 2a, 5, 9) span five orders of magnitude
//! and are read at extreme percentiles (p99.999 and beyond), so the histogram
//! needs wide dynamic range, bounded relative error, and cheap recording.
//! [`LatencyHistogram`] uses base-2 log buckets with linear sub-buckets
//! (HDR-histogram style): values below 64 ns have a bucket each, and every
//! octave `[2^k, 2^(k+1))` above that is split into 32 equal-width
//! sub-buckets, so a bucket's lower edge is within 1/32 ≈ 3.1 % of any value
//! in it. The layout reaches `u64::MAX` in 1 920 buckets.
//!
//! A histogram stores counts only for the contiguous range of buckets from
//! the lowest to the highest it has recorded. An empty one allocates
//! nothing, and a worker's EXEC or LOAD durations, which fall within a few
//! octaves, hold a couple of hundred counters. Recording inside the range is
//! one bounds check; a value outside it widens the range, on a cold path, to
//! exactly that value's bucket.

use serde::{Deserialize, Serialize};

use clockwork_sim::time::Nanos;

/// Values below this many nanoseconds have a bucket each.
const EXACT: usize = 64;
/// Number of linear sub-buckets per power-of-two octave above [`EXACT`].
const SUB_BUCKETS: usize = 32;

/// A log-bucketed histogram of durations.
///
/// Equality is semantic: two histograms are equal when they hold the same
/// totals, sum, extremes and non-zero buckets.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// The bucket index of `counts[0]`.
    base: usize,
    /// Counts of buckets `base .. base + counts.len()`. Empty until the
    /// first record; otherwise its first and last entries are non-zero.
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.sum_nanos == other.sum_nanos
            && self.min == other.min
            && self.max == other.max
            && self.buckets().eq(other.buckets())
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram. It allocates nothing.
    pub fn new() -> Self {
        LatencyHistogram {
            base: 0,
            counts: Vec::new(),
            total: 0,
            sum_nanos: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Maps a value to its bucket index.
    ///
    /// Layout: indices `0..64` cover values `0..64` exactly; after that, each
    /// group of 32 indices covers one power-of-two range `[2^k, 2^(k+1))` for
    /// `k = 6, 7, ..., 63`, split into 32 equal-width sub-buckets. The last
    /// index, `u64::MAX`'s, is 1 919.
    fn bucket_index(nanos: u64) -> usize {
        if nanos < EXACT as u64 {
            return nanos as usize;
        }
        let k = 63 - nanos.leading_zeros() as usize; // floor(log2(nanos)), >= 6
        let group = k - 6;
        let sub = (nanos >> (k - 5)) as usize - SUB_BUCKETS; // in [0, 32)
        EXACT + group * SUB_BUCKETS + sub
    }

    /// The lower bound of the value range covered by a bucket index.
    fn bucket_value(index: usize) -> u64 {
        if index < EXACT {
            return index as u64;
        }
        let group = (index - EXACT) / SUB_BUCKETS;
        let sub = (index - EXACT) % SUB_BUCKETS;
        ((SUB_BUCKETS + sub) as u64) << (group + 1)
    }

    /// The non-zero buckets in ascending order, as `(index, count)`.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(move |(i, &c)| (self.base + i, c))
    }

    /// Widens the range to bucket `i`, then adds `n` to it.
    #[cold]
    #[inline(never)]
    fn add_outside(&mut self, i: usize, n: u64) {
        self.widen(i, i);
        self.counts[i - self.base] += n;
    }

    /// Widens the stored range to cover buckets `lo..=hi`, reserving exactly
    /// the new length.
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.counts.is_empty() {
            self.base = lo;
        }
        let lo = lo.min(self.base);
        let len = (hi + 1).max(self.base + self.counts.len()) - lo;
        if lo < self.base {
            let mut counts = Vec::with_capacity(len);
            counts.resize(self.base - lo, 0);
            counts.extend_from_slice(&self.counts);
            self.counts = counts;
            self.base = lo;
        }
        self.counts.reserve_exact(len - self.counts.len());
        self.counts.resize(len, 0);
    }

    /// Records one duration.
    pub fn record(&mut self, d: Nanos) {
        self.record_n(d, 1);
    }

    /// Records `n` occurrences of the same duration.
    pub fn record_n(&mut self, d: Nanos, n: u64) {
        if n == 0 {
            return;
        }
        let ns = d.as_nanos();
        let i = Self::bucket_index(ns);
        match self.counts.get_mut(i.wrapping_sub(self.base)) {
            Some(c) => *c += n,
            None => self.add_outside(i, n),
        }
        self.total += n;
        self.sum_nanos += ns as u128 * n as u128;
        if ns < self.min {
            self.min = ns;
        }
        if ns > self.max {
            self.max = ns;
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The smallest recorded duration, or zero if empty.
    pub fn min(&self) -> Nanos {
        if self.total == 0 {
            Nanos::ZERO
        } else {
            Nanos::from_nanos(self.min)
        }
    }

    /// The largest recorded duration, or zero if empty.
    pub fn max(&self) -> Nanos {
        Nanos::from_nanos(self.max)
    }

    /// The mean of all recorded durations, or zero if empty.
    pub fn mean(&self) -> Nanos {
        if self.total == 0 {
            Nanos::ZERO
        } else {
            Nanos::from_nanos((self.sum_nanos / self.total as u128) as u64)
        }
    }

    /// The value at quantile `q` in `[0, 1]`, or zero if empty.
    ///
    /// The returned value is a bucket lower bound, so it is within one bucket
    /// width (1/32 ≈ 3.1 % relative) of the true quantile, and exact for the
    /// min and max.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.total == 0 {
            return Nanos::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max();
        }
        let target = (q * self.total as f64).floor() as u64;
        let mut cumulative = 0u64;
        for (i, c) in self.buckets() {
            cumulative += c;
            if cumulative > target {
                let v = Self::bucket_value(i);
                return Nanos::from_nanos(v.clamp(self.min, self.max));
            }
        }
        self.max()
    }

    /// Convenience wrapper: percentile `p` in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Nanos {
        self.quantile(p / 100.0)
    }

    /// The fraction of samples in buckets up to and including the one that
    /// holds `threshold`.
    ///
    /// The whole of that bucket counts, so samples up to one bucket width
    /// (1/32 ≈ 3.1 %) above `threshold` may be included.
    pub fn fraction_below(&self, threshold: Nanos) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = Self::bucket_index(threshold.as_nanos());
        let below: u64 = self
            .buckets()
            .take_while(|&(i, _)| i <= idx)
            .map(|(_, c)| c)
            .sum();
        below as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if !other.counts.is_empty() {
            self.widen(other.base, other.base + other.counts.len() - 1);
            let from = other.base - self.base;
            let window = &mut self.counts[from..from + other.counts.len()];
            for (a, b) in window.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.total += other.total;
        self.sum_nanos += other.sum_nanos;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Exports `(latency, cumulative fraction)` points for plotting a CDF.
    ///
    /// Only non-empty buckets are emitted, so the output is compact enough to
    /// print directly from the benchmark binaries.
    pub fn cdf_points(&self) -> Vec<(Nanos, f64)> {
        let mut points = Vec::new();
        if self.total == 0 {
            return points;
        }
        let mut cumulative = 0u64;
        for (i, c) in self.buckets() {
            cumulative += c;
            let v = Self::bucket_value(i).clamp(self.min, self.max);
            points.push((Nanos::from_nanos(v), cumulative as f64 / self.total as f64));
        }
        points
    }

    /// The standard tail-latency row used throughout the evaluation:
    /// (p50, p99, p99.9, p99.99, max).
    pub fn tail_summary(&self) -> TailSummary {
        TailSummary {
            p50: self.percentile(50.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            p9999: self.percentile(99.99),
            max: self.max(),
            mean: self.mean(),
            count: self.count(),
        }
    }
}

/// The tail-latency summary reported by the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TailSummary {
    /// Median latency.
    pub p50: Nanos,
    /// 99th percentile latency.
    pub p99: Nanos,
    /// 99.9th percentile latency.
    pub p999: Nanos,
    /// 99.99th percentile latency.
    pub p9999: Nanos,
    /// Maximum latency.
    pub max: Nanos,
    /// Mean latency.
    pub mean: Nanos,
    /// Number of samples.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Nanos::ZERO);
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.min(), Nanos::ZERO);
        assert!(h.cdf_points().is_empty());
        assert_eq!(h.counts.capacity(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos::from_millis(3));
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Nanos::from_millis(3));
        assert_eq!(h.max(), Nanos::from_millis(3));
        assert_eq!(h.mean(), Nanos::from_millis(3));
        let q = h.quantile(0.5);
        assert!(relative_error(q, Nanos::from_millis(3)) < 0.02);
        assert_eq!(h.counts.len(), 1);
    }

    fn relative_error(a: Nanos, b: Nanos) -> f64 {
        let a = a.as_nanos() as f64;
        let b = b.as_nanos() as f64;
        (a - b).abs() / b.max(1.0)
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for us in 1..=10_000u64 {
            h.record(Nanos::from_micros(us));
        }
        assert_eq!(h.count(), 10_000);
        for (q, expected_us) in [
            (0.1, 1_000.0),
            (0.5, 5_000.0),
            (0.9, 9_000.0),
            (0.99, 9_900.0),
        ] {
            let got = h.quantile(q).as_micros_f64();
            let rel = (got - expected_us).abs() / expected_us;
            assert!(rel < 0.03, "q{q}: expected ~{expected_us}us got {got}us");
        }
        assert_eq!(h.quantile(1.0), Nanos::from_micros(10_000));
        assert_eq!(h.min(), Nanos::from_micros(1));
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for ns in 0..EXACT as u64 {
            h.record(Nanos::from_nanos(ns));
        }
        assert_eq!(h.quantile(0.0), Nanos::from_nanos(0));
        assert_eq!(h.max(), Nanos::from_nanos(63));
    }

    #[test]
    fn record_n_equivalent_to_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..10 {
            a.record(Nanos::from_micros(250));
        }
        b.record_n(Nanos::from_micros(250), 10);
        b.record_n(Nanos::from_micros(999), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn fraction_below_threshold() {
        let mut h = LatencyHistogram::new();
        for ms in 1..=100u64 {
            h.record(Nanos::from_millis(ms));
        }
        let f = h.fraction_below(Nanos::from_millis(50));
        assert!((f - 0.5).abs() < 0.05, "fraction {f}");
        assert!(h.fraction_below(Nanos::from_millis(1000)) > 0.999);
        assert_eq!(h.fraction_below(Nanos::from_micros(1)), 0.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Nanos::from_millis(1));
        b.record(Nanos::from_millis(100));
        b.record(Nanos::from_millis(200));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Nanos::from_millis(1));
        assert_eq!(a.max(), Nanos::from_millis(200));
        let empty = LatencyHistogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn cdf_points_are_monotonic() {
        let mut h = LatencyHistogram::new();
        for us in (1..5_000u64).step_by(7) {
            h.record(Nanos::from_micros(us));
        }
        let pts = h.cdf_points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0, "latencies must be non-decreasing");
            assert!(
                w[1].1 >= w[0].1,
                "cumulative fraction must be non-decreasing"
            );
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_summary_reports_consistent_ordering() {
        let mut h = LatencyHistogram::new();
        for us in 1..=100_000u64 {
            h.record(Nanos::from_micros(us % 10_000 + 1));
        }
        let s = h.tail_summary();
        assert!(s.p50 <= s.p99);
        assert!(s.p99 <= s.p999);
        assert!(s.p999 <= s.p9999);
        assert!(s.p9999 <= s.max);
        assert_eq!(s.count, 100_000);
    }

    #[test]
    fn wide_dynamic_range() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos::from_nanos(10));
        h.record(Nanos::from_secs(100));
        assert_eq!(h.min(), Nanos::from_nanos(10));
        assert!(relative_error(h.quantile(1.0), Nanos::from_secs(100)) < 0.02);
    }

    #[test]
    fn bucket_value_is_inverse_lower_bound_of_bucket_index() {
        // For any value, bucket_value(bucket_index(v)) <= v and within one
        // sub-bucket width.
        for v in [
            1u64,
            63,
            64,
            65,
            100,
            1_000,
            4_096,
            1_000_000,
            123_456_789,
            10_000_000_000,
            u64::MAX,
        ] {
            let idx = LatencyHistogram::bucket_index(v);
            let lower = LatencyHistogram::bucket_value(idx);
            assert!(lower <= v, "lower {lower} > v {v}");
            assert!(
                (v - lower) as f64 / v as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "v {v} lower {lower}"
            );
        }
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 1_919);
    }

    #[test]
    fn the_range_grows_to_exactly_the_recorded_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos::from_millis(10));
        h.record(Nanos::from_millis(1));
        h.record(Nanos::from_millis(100));
        let lo = LatencyHistogram::bucket_index(Nanos::from_millis(1).as_nanos());
        let hi = LatencyHistogram::bucket_index(Nanos::from_millis(100).as_nanos());
        assert_eq!(h.base, lo);
        assert_eq!(h.counts.len(), hi - lo + 1);
        assert_eq!(h.counts.capacity(), h.counts.len());
    }

    #[test]
    fn equality_reads_the_buckets_not_the_ranges() {
        let of = |us: [u64; 4]| {
            let mut h = LatencyHistogram::new();
            for v in us {
                h.record(Nanos::from_micros(v));
            }
            h
        };
        // Same count, sum and extremes; only the middle bucket differs.
        assert_ne!(of([10, 20, 20, 30]), of([10, 15, 25, 30]));
        assert_eq!(of([10, 20, 20, 30]), of([30, 20, 10, 20]));
    }

    /// The dense reference: one counter for every bucket of the layout, with
    /// query code that walks all of them.
    mod dense_twin {
        use proptest::prelude::*;

        use super::*;

        /// Buckets in the layout: `u64::MAX`'s index plus one.
        const BUCKETS: usize = 1_920;

        #[derive(Clone, Debug)]
        struct DenseHistogram {
            counts: Vec<u64>,
            total: u64,
            sum_nanos: u128,
            min: u64,
            max: u64,
        }

        impl DenseHistogram {
            fn new() -> Self {
                DenseHistogram {
                    counts: vec![0; BUCKETS],
                    total: 0,
                    sum_nanos: 0,
                    min: u64::MAX,
                    max: 0,
                }
            }

            fn record_n(&mut self, d: Nanos, n: u64) {
                if n == 0 {
                    return;
                }
                let ns = d.as_nanos();
                self.counts[LatencyHistogram::bucket_index(ns)] += n;
                self.total += n;
                self.sum_nanos += ns as u128 * n as u128;
                self.min = self.min.min(ns);
                self.max = self.max.max(ns);
            }

            fn count(&self) -> u64 {
                self.total
            }

            fn min(&self) -> Nanos {
                if self.total == 0 {
                    Nanos::ZERO
                } else {
                    Nanos::from_nanos(self.min)
                }
            }

            fn max(&self) -> Nanos {
                Nanos::from_nanos(self.max)
            }

            fn mean(&self) -> Nanos {
                if self.total == 0 {
                    Nanos::ZERO
                } else {
                    Nanos::from_nanos((self.sum_nanos / self.total as u128) as u64)
                }
            }

            fn quantile(&self, q: f64) -> Nanos {
                if self.total == 0 {
                    return Nanos::ZERO;
                }
                let q = q.clamp(0.0, 1.0);
                if q >= 1.0 {
                    return self.max();
                }
                let target = (q * self.total as f64).floor() as u64;
                let mut cumulative = 0u64;
                for (i, &c) in self.counts.iter().enumerate() {
                    cumulative += c;
                    if cumulative > target {
                        let v = LatencyHistogram::bucket_value(i);
                        return Nanos::from_nanos(v.clamp(self.min, self.max));
                    }
                }
                self.max()
            }

            fn percentile(&self, p: f64) -> Nanos {
                self.quantile(p / 100.0)
            }

            fn fraction_below(&self, threshold: Nanos) -> f64 {
                if self.total == 0 {
                    return 0.0;
                }
                let idx = LatencyHistogram::bucket_index(threshold.as_nanos());
                let below: u64 = self.counts[..=idx].iter().sum();
                below as f64 / self.total as f64
            }

            fn merge(&mut self, other: &DenseHistogram) {
                for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                    *a += b;
                }
                self.total += other.total;
                self.sum_nanos += other.sum_nanos;
                if other.total > 0 {
                    self.min = self.min.min(other.min);
                    self.max = self.max.max(other.max);
                }
            }

            fn cdf_points(&self) -> Vec<(Nanos, f64)> {
                let mut points = Vec::new();
                if self.total == 0 {
                    return points;
                }
                let mut cumulative = 0u64;
                for (i, &c) in self.counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cumulative += c;
                    let v = LatencyHistogram::bucket_value(i).clamp(self.min, self.max);
                    points.push((Nanos::from_nanos(v), cumulative as f64 / self.total as f64));
                }
                points
            }

            fn tail_summary(&self) -> TailSummary {
                TailSummary {
                    p50: self.percentile(50.0),
                    p99: self.percentile(99.0),
                    p999: self.percentile(99.9),
                    p9999: self.percentile(99.99),
                    max: self.max(),
                    mean: self.mean(),
                    count: self.count(),
                }
            }
        }

        /// Records the same `(value, n)` pairs into both forms.
        fn both(samples: &[(u64, u64)]) -> (LatencyHistogram, DenseHistogram) {
            let mut sparse = LatencyHistogram::new();
            let mut dense = DenseHistogram::new();
            for &(v, n) in samples {
                sparse.record_n(Nanos::from_nanos(v), n);
                dense.record_n(Nanos::from_nanos(v), n);
            }
            (sparse, dense)
        }

        const QUANTILES: [f64; 10] = [0.0, 1e-9, 0.1, 0.25, 0.5, 0.9, 0.99, 0.9999, 1.0, 2.0];
        const PROBES: [u64; 9] = [
            0,
            1,
            63,
            64,
            1_000,
            1_000_000,
            100_000_000,
            10_000_000_000_000,
            u64::MAX,
        ];

        /// Every query answers the same bits in both forms; `what` names the
        /// step in a failure.
        fn same_answers(
            sparse: &LatencyHistogram,
            dense: &DenseHistogram,
            probes: &[u64],
            what: &str,
        ) {
            assert_eq!(sparse.count(), dense.count(), "{what}");
            assert_eq!(sparse.is_empty(), dense.count() == 0, "{what}");
            assert_eq!(sparse.min(), dense.min(), "{what}");
            assert_eq!(sparse.max(), dense.max(), "{what}");
            assert_eq!(sparse.mean(), dense.mean(), "{what}");
            for q in QUANTILES.into_iter().chain([f64::NAN, -1.0]) {
                assert_eq!(
                    sparse.quantile(q),
                    dense.quantile(q),
                    "{what}: quantile {q}"
                );
                let p = q * 100.0;
                assert_eq!(
                    sparse.percentile(p),
                    dense.percentile(p),
                    "{what}: percentile {p}"
                );
            }
            let extremes = [
                dense.min,
                dense.min.saturating_sub(1),
                dense.max,
                dense.max.saturating_add(1),
            ];
            for &p in PROBES.iter().chain(probes).chain(&extremes) {
                let t = Nanos::from_nanos(p);
                assert_eq!(
                    sparse.fraction_below(t).to_bits(),
                    dense.fraction_below(t).to_bits(),
                    "{what}: fraction_below {p}"
                );
            }
            let bits = |points: Vec<(Nanos, f64)>| -> Vec<(Nanos, u64)> {
                points.into_iter().map(|(x, y)| (x, y.to_bits())).collect()
            };
            assert_eq!(
                bits(sparse.cdf_points()),
                bits(dense.cdf_points()),
                "{what}"
            );
            assert_eq!(sparse.tail_summary(), dense.tail_summary(), "{what}");
        }

        /// A value from 1 ns to 10^4 s, log-uniform, or one of the layout's
        /// edges.
        fn value() -> impl Strategy<Value = u64> {
            let log_uniform = || {
                (0u32..44, any::<u64>()).prop_map(|(k, r)| {
                    ((1u64 << k) | (r & ((1u64 << k) - 1))).min(10_000_000_000_000)
                })
            };
            prop_oneof![
                log_uniform(),
                log_uniform(),
                Just(0u64),
                Just(63u64),
                Just(64u64),
                Just(u64::MAX),
            ]
        }

        /// Up to `len` samples with counts of 0 to 3, drawn from the octaves
        /// `lo .. lo + width`, so a merged window can lie wholly below, wholly
        /// above or across the histogram's range.
        fn window(len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
            (0u32..42, 1u32..4).prop_flat_map(move |(lo, width)| {
                let v = (0u32..width, any::<u64>()).prop_map(move |(o, r)| {
                    let k = lo + o;
                    (1u64 << k) | (r & ((1u64 << k) - 1))
                });
                proptest::collection::vec((v, 0u64..4), 0..len)
            })
        }

        #[derive(Clone, Debug)]
        enum Op {
            Record(u64),
            RecordN(u64, u64),
            /// Merge a histogram of these samples into the one under test.
            Merge(Vec<(u64, u64)>),
            /// Merge the one under test into a histogram of these samples,
            /// which then takes its place.
            MergeInto(Vec<(u64, u64)>),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                value().prop_map(Op::Record),
                (value(), 0u64..5).prop_map(|(v, n)| Op::RecordN(v, n)),
                window(12).prop_map(Op::Merge),
                window(12).prop_map(Op::MergeInto),
            ]
        }

        proptest! {
            #[test]
            fn every_query_answers_what_the_dense_histogram_did(
                ops in proptest::collection::vec(op(), 0..60),
                probes in proptest::collection::vec(value(), 0..6),
            ) {
                let mut sparse = LatencyHistogram::new();
                let mut dense = DenseHistogram::new();
                same_answers(&sparse, &dense, &probes, "new");
                for (step, op) in ops.into_iter().enumerate() {
                    let what = format!("step {step}: {op:?}");
                    match op {
                        Op::Record(v) => {
                            sparse.record(Nanos::from_nanos(v));
                            dense.record_n(Nanos::from_nanos(v), 1);
                        }
                        Op::RecordN(v, n) => {
                            sparse.record_n(Nanos::from_nanos(v), n);
                            dense.record_n(Nanos::from_nanos(v), n);
                        }
                        Op::Merge(samples) => {
                            let (s, d) = both(&samples);
                            sparse.merge(&s);
                            dense.merge(&d);
                        }
                        Op::MergeInto(samples) => {
                            let (mut s, mut d) = both(&samples);
                            s.merge(&sparse);
                            d.merge(&dense);
                            sparse = s;
                            dense = d;
                        }
                    }
                    same_answers(&sparse, &dense, &probes, &what);
                }
            }

            #[test]
            fn the_same_samples_in_another_order_compare_equal(
                samples in proptest::collection::vec((value(), 0u64..4), 0..80),
                split in 0usize..80,
            ) {
                let (forward, _) = both(&samples);
                let reversed: Vec<_> = samples.iter().rev().copied().collect();
                let (backward, _) = both(&reversed);
                prop_assert_eq!(&forward, &backward);
                let at = split.min(samples.len());
                let (mut merged, _) = both(&samples[at..]);
                merged.merge(&both(&samples[..at]).0);
                prop_assert_eq!(&forward, &merged);
            }
        }

        #[test]
        fn merges_below_above_across_and_empty_match_the_dense_form() {
            let mid = [(1_000_000, 1), (4_000_000, 2)];
            let below = [(1_000, 3), (2_000, 1)];
            let above = [(1_000_000_000, 1), (9_000_000_000, 4)];
            let across = [(500_000, 1), (2_000_000, 1), (50_000_000, 2)];
            for (name, into, from) in [
                ("empty into non-empty", &mid[..], &[][..]),
                ("non-empty into empty", &[][..], &mid[..]),
                ("empty into empty", &[][..], &[][..]),
                ("wholly below", &mid[..], &below[..]),
                ("wholly above", &mid[..], &above[..]),
                ("overlapping", &mid[..], &across[..]),
                ("within", &across[..], &mid[..]),
            ] {
                let (mut sparse, mut dense) = both(into);
                let (s, d) = both(from);
                sparse.merge(&s);
                dense.merge(&d);
                same_answers(&sparse, &dense, &[], name);
                let (sparse_whole, _) = both(&[into, from].concat());
                assert_eq!(sparse, sparse_whole, "{name}");
            }
        }
    }
}
