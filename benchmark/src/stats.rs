//! Timer hygiene and order statistics.
//!
//! Host times are taken with `Instant`. The cost of one `Instant::now()`
//! pair is calibrated once at start-up ([`Clock::calibrate`]) and subtracted
//! from every timed interval; calls cheaper than a microsecond are timed in
//! blocks of [`BLOCK`] and divided, so the pair cost is spread over the
//! block instead of dominating the sample.

use std::time::Instant;

use clockwork_metrics::LatencyHistogram;

/// Calls per timed block for sub-microsecond operations.
pub const BLOCK: usize = 256;

/// The calibrated cost of one `Instant::now()` pair.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    pub overhead_ns: f64,
}

impl Clock {
    /// Measures the `Instant::now()` pair cost: the median over 2 001
    /// back-to-back pairs, after a short warm-up.
    pub fn calibrate() -> Clock {
        let pair = || {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as f64
        };
        for _ in 0..1_000 {
            std::hint::black_box(pair());
        }
        let mut samples: Vec<f64> = (0..2_001).map(|_| pair()).collect();
        Clock {
            overhead_ns: median(&mut samples),
        }
    }

    /// Times one call, pair cost subtracted; nanoseconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as f64;
        (out, (ns - self.overhead_ns).max(0.0))
    }

    /// Times `calls` calls made inside `f` as one block; nanoseconds per call.
    pub fn time_block(&self, calls: usize, f: impl FnOnce()) -> f64 {
        let ((), ns) = self.time(f);
        ns / calls.max(1) as f64
    }
}

/// Nanoseconds per call of a cheap operation: the median over blocks of
/// [`BLOCK`] calls of each block's mean. Homogeneous calls are timed a block
/// at a time ([`PerCall::add_block`]); calls that alternate with others are
/// timed singly and folded into blocks here ([`PerCall::add`]).
#[derive(Default)]
pub struct PerCall {
    blocks: Vec<f64>,
    acc_ns: f64,
    acc_calls: usize,
    calls: usize,
}

impl PerCall {
    pub fn add(&mut self, ns: f64) {
        self.acc_ns += ns;
        self.acc_calls += 1;
        self.calls += 1;
        if self.acc_calls == BLOCK {
            self.blocks.push(self.acc_ns / BLOCK as f64);
            self.acc_ns = 0.0;
            self.acc_calls = 0;
        }
    }

    pub fn add_block(&mut self, ns_per_call: f64, calls: usize) {
        self.blocks.push(ns_per_call);
        self.calls += calls;
    }

    /// Calls timed so far.
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// Median block mean; a run shorter than one block reports its own mean.
    pub fn ns(&mut self) -> f64 {
        if self.blocks.is_empty() && self.acc_calls > 0 {
            return self.acc_ns / self.acc_calls as f64;
        }
        median(&mut self.blocks)
    }
}

/// Per-call samples of an operation slow enough to time singly.
#[derive(Default)]
pub struct Samples {
    ns: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ns: f64) {
        self.ns.push(ns);
    }

    pub fn count(&self) -> usize {
        self.ns.len()
    }

    pub fn sum_s(&self) -> f64 {
        self.ns.iter().sum::<f64>() / 1e9
    }

    /// The `p`-th percentile (0 when empty), sorting in place.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.ns.sort_by(f64::total_cmp);
        percentile_sorted(&self.ns, p)
    }
}

/// Median of a sample set, sorting in place; 0 when empty. An even count
/// averages the two middle values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty. The
/// sorted-slice counterpart of `clockwork_metrics::percentile::percentile_f64`,
/// which copies and sorts its input on every call — too much for the
/// million-sample sets the replays read two percentiles from.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distance between the first and third quartile over the median, the
/// quartiles as Python's `statistics.quantiles(values, n=4)` places them for
/// three samples or more (the pipeline's measure of a spread); 0 for fewer
/// than two samples. For three samples that is `(max - min) / median`; for
/// `setup_s`'s fifteen, one slow set-up no longer decides it.
pub fn spread_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    if mid == 0.0 {
        return 0.0;
    }
    let n = sorted.len();
    let quartile = |k: usize| {
        // 1-based rank k(n+1)/4, kept inside the samples.
        let rank = (k * (n + 1)) as f64 / 4.0;
        let below = (rank.floor() as usize).clamp(1, n - 1);
        let weight = (rank - below as f64).clamp(0.0, 1.0);
        sorted[below - 1] + weight * (sorted[below] - sorted[below - 1])
    };
    (quartile(3) - quartile(1)) / mid
}

/// Sum over slices of the fastest repetition of each slice: `reps[r][k]` is
/// the host time repetition `r` spent in slice `k`, and the repetitions are
/// the same run, so slice `k` is the same work every time. A neighbour on
/// the shared host only ever adds time, in bursts of seconds; it moves this
/// sum only when it hits the same slice in every repetition, where a median
/// of the repetitions' totals moves with every burst.
pub fn quiet_sum(reps: &[&[f64]]) -> f64 {
    let slices = reps.iter().map(|rep| rep.len()).min().unwrap_or(0);
    (0..slices)
        .map(|k| reps.iter().map(|rep| rep[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// How far [`quiet_sum`] would rise, as a share of itself, had any one of
/// the repetitions been missing: small when every slice ran undisturbed at
/// least twice. The spread of the repetitions' totals says how noisy the
/// host was; this says how much of that noise is left in the figure.
pub fn quiet_sum_spread(reps: &[&[f64]]) -> f64 {
    let all = quiet_sum(reps);
    if reps.len() < 2 || all == 0.0 {
        return 0.0;
    }
    let without = |skip: usize| {
        let rest: Vec<&[f64]> = reps
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != skip)
            .map(|(_, rep)| *rep)
            .collect();
        quiet_sum(&rest)
    };
    (0..reps.len()).map(without).fold(all, f64::max) / all - 1.0
}

/// Width of the `LatencyHistogram` bucket whose lower edge is `lower`: 1 ns
/// below 64 ns, then 32 linear sub-buckets per power of two.
fn bucket_width(lower: u64) -> u64 {
    if lower < 64 {
        1
    } else {
        1 << (lower.ilog2() - 5)
    }
}

/// The `p`-th percentile of a histogram in milliseconds, interpolated
/// linearly by rank inside the bucket that holds it.
///
/// `LatencyHistogram::percentile` returns the bucket's lower edge, which
/// reads the same for every run that lands in the bucket (3 % wide); the
/// interpolation keeps the histogram's resolution but lets the value move
/// with the distribution.
pub fn hist_percentile_ms(hist: &LatencyHistogram, p: f64) -> f64 {
    let q = p / 100.0;
    let max = hist.max().as_nanos();
    let mut below = 0.0;
    for (edge, cumulative) in hist.cdf_points() {
        if cumulative > q {
            let lower = edge.as_nanos();
            let upper = (lower + bucket_width(lower)).min(max.max(lower));
            let frac = (q - below) / (cumulative - below);
            return (lower as f64 + frac * (upper - lower) as f64) / 1e6;
        }
        below = cumulative;
    }
    max as f64 / 1e6
}

/// Samples beyond the `p`-th percentile of `count` samples — the guide asks
/// for at least ten behind the highest percentile reported.
pub fn samples_beyond(count: u64, p: f64) -> u64 {
    (count as f64 * (1.0 - p / 100.0)).floor() as u64
}

/// Current resident set size in kB (`VmRSS`); 0 without procfs.
pub fn current_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockwork_sim::time::Nanos;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        let mut s = Samples::default();
        for v in [5.0, 1.0, 9.0] {
            s.push(v);
        }
        assert_eq!(s.percentile(50.0), 5.0);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        assert_eq!(spread_frac(&[2.0]), 0.0);
        assert!((spread_frac(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert!((spread_frac(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert!((spread_frac(&[8.0, 1.0, 4.0, 2.0]) - 5.75 / 3.0).abs() < 1e-12);
        // Fifteen set-ups, one of them ten times slower: quartiles 4 and 12.
        let mut setups: Vec<f64> = (1..=15).map(f64::from).collect();
        setups[14] = 150.0;
        assert!((spread_frac(&setups) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_sum_takes_each_slice_from_its_fastest_repetition() {
        let reps: [&[f64]; 3] = [&[1.0, 9.0, 3.0], &[2.0, 2.0, 8.0], &[7.0, 3.0, 4.0]];
        assert_eq!(quiet_sum(&reps), 1.0 + 2.0 + 3.0);
        assert_eq!(quiet_sum(&reps[..1]), 13.0);
        assert_eq!(quiet_sum(&[]), 0.0);
        // Without the first repetition the sum reads 2 + 2 + 4 = 8, without
        // the second 1 + 3 + 3 = 7, without the third 1 + 2 + 3 = 6.
        assert!((quiet_sum_spread(&reps) - (8.0 / 6.0 - 1.0)).abs() < 1e-12);
        assert_eq!(quiet_sum_spread(&reps[..1]), 0.0);
    }

    #[test]
    fn interpolated_percentile_stays_inside_its_bucket() {
        let mut hist = LatencyHistogram::new();
        for us in 1..=1_000u64 {
            hist.record(Nanos::from_micros(us * 10));
        }
        let edge = hist.percentile(50.0).as_millis_f64();
        let p50 = hist_percentile_ms(&hist, 50.0);
        assert!(p50 >= edge && p50 < edge * 1.04, "{edge} <= {p50}");
        assert!((p50 - 5.0).abs() < 0.2, "true median is 5 ms, got {p50}");
        assert!(hist_percentile_ms(&hist, 100.0) <= hist.max().as_millis_f64());
        assert_eq!(samples_beyond(28_873, 99.9), 28);
    }

    #[test]
    fn clock_calibration_is_sane_and_block_timing_divides() {
        let clock = Clock::calibrate();
        assert!(clock.overhead_ns >= 0.0 && clock.overhead_ns < 10_000.0);
        let per_call = clock.time_block(BLOCK, || {
            for i in 0..BLOCK {
                std::hint::black_box(i);
            }
        });
        assert!(per_call < 1_000.0);
    }
}
