//! Incrementally maintained order statistics over a sliding window.
//!
//! The controller's rolling action profiles (§5.3) ask for a percentile of
//! the last N measurements on every scheduling decision — many thousands of
//! times per simulated second at fleet scale. [`OrderStatWindow`] keeps the
//! window sorted as samples arrive, so any percentile query is a single
//! index into the sorted samples: inserts and evictions locate their slot by
//! O(log n) binary search (the slot shift itself is an O(n) memmove — cheap
//! at profile window sizes, quadratic territory if the capacity is ever
//! scaled to many thousands).
//!
//! The window is exact: for the same stream of samples it returns bit-for-bit
//! the same nearest-rank percentiles as
//! [`crate::percentile::percentile_nanos`] (a property test in
//! `tests/properties.rs` pins this equivalence down).

use clockwork_sim::time::Nanos;

use crate::percentile::percentile_of_sorted;

/// A bounded window of the most recent samples with binary-searched ordered
/// maintenance and O(1) percentile queries.
///
/// Samples are evicted oldest-first once `capacity` is reached. Pushes pay
/// an O(n)-in-capacity element shift, so this is built for small windows
/// queried far more often than they are written (the profiler's default is
/// 10 samples). The whole window is one allocation: a controller holds one
/// per measured (model, action, batch) key, thousands of them at zoo scale.
///
/// There is no `Default`: a window's capacity must be chosen, and a
/// zero-capacity window could never take a sample.
///
/// ```compile_fail
/// let _ = clockwork_metrics::OrderStatWindow::default();
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OrderStatWindow {
    /// `capacity` slots of samples in arrival order (oldest first), driving
    /// eviction, then `capacity` slots of the same samples ascending,
    /// driving percentile queries. The first `len` slots of each half are
    /// filled.
    samples: Box<[Nanos]>,
    len: usize,
}

impl OrderStatWindow {
    /// Creates a window keeping at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "order-stat window capacity must be positive");
        OrderStatWindow {
            samples: vec![Nanos::ZERO; 2 * capacity].into_boxed_slice(),
            len: 0,
        }
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, sample: Nanos) {
        let capacity = self.samples.len() / 2;
        let (arrivals, sorted) = self.samples.split_at_mut(capacity);
        if self.len == capacity {
            let evicted = arrivals[0];
            arrivals.copy_within(1.., 0);
            let at = sorted.partition_point(|&v| v < evicted);
            debug_assert!(sorted[at] == evicted);
            sorted.copy_within(at + 1.., at);
            self.len -= 1;
        }
        arrivals[self.len] = sample;
        let at = sorted[..self.len].partition_point(|&v| v <= sample);
        sorted.copy_within(at..self.len, at + 1);
        sorted[at] = sample;
        self.len += 1;
    }

    /// The samples held, ascending.
    fn sorted(&self) -> &[Nanos] {
        let capacity = self.samples.len() / 2;
        &self.samples[capacity..capacity + self.len]
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The exact nearest-rank percentile of the window, or `None` if empty.
    /// The window is already ordered, so the query is one index computation.
    pub fn percentile(&self, p: f64) -> Option<Nanos> {
        if self.is_empty() {
            return None;
        }
        Some(percentile_of_sorted(self.sorted(), p))
    }

    /// The maximum sample in the window, or `None` if empty.
    pub fn max(&self) -> Option<Nanos> {
        self.sorted().last().copied()
    }

    /// The minimum sample in the window, or `None` if empty.
    pub fn min(&self) -> Option<Nanos> {
        self.sorted().first().copied()
    }

    /// The most recent sample, or `None` if empty.
    pub fn latest(&self) -> Option<Nanos> {
        self.len.checked_sub(1).map(|last| self.samples[last])
    }

    /// The mean of the samples in the window, or `None` if empty.
    pub fn mean(&self) -> Option<Nanos> {
        if self.is_empty() {
            return None;
        }
        let sum: u128 = self.sorted().iter().map(|v| v.as_nanos() as u128).sum();
        Some(Nanos::from_nanos((sum / self.len as u128) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::percentile_nanos;

    #[test]
    fn matches_clone_and_sort_reference() {
        let mut w = OrderStatWindow::new(10);
        let mut reference = Vec::new();
        let stream = [100u64, 101, 99, 100, 102, 100, 100, 98, 101, 100, 97, 250];
        for (i, us) in stream.into_iter().enumerate() {
            let s = Nanos::from_micros(us);
            w.push(s);
            reference.push(s);
            if reference.len() > 10 {
                reference.remove(0);
            }
            for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    w.percentile(p),
                    percentile_nanos(&reference, p),
                    "sample {i} percentile {p}"
                );
            }
        }
    }

    #[test]
    fn evicts_oldest_and_tracks_extremes() {
        let mut w = OrderStatWindow::new(3);
        assert!(w.is_empty());
        assert_eq!(w.percentile(50.0), None);
        assert_eq!(w.mean(), None);
        for ms in 1..=5u64 {
            w.push(Nanos::from_millis(ms));
        }
        // Window holds {3, 4, 5}.
        assert_eq!(w.len(), 3);
        assert_eq!(w.min(), Some(Nanos::from_millis(3)));
        assert_eq!(w.max(), Some(Nanos::from_millis(5)));
        assert_eq!(w.latest(), Some(Nanos::from_millis(5)));
        assert_eq!(w.mean(), Some(Nanos::from_millis(4)));
        assert_eq!(w.percentile(0.0), Some(Nanos::from_millis(3)));
    }

    #[test]
    fn duplicate_values_evict_correctly() {
        let mut w = OrderStatWindow::new(2);
        let a = Nanos::from_micros(7);
        w.push(a);
        w.push(a);
        w.push(Nanos::from_micros(9));
        assert_eq!(w.len(), 2);
        assert_eq!(w.min(), Some(a));
        assert_eq!(w.max(), Some(Nanos::from_micros(9)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = OrderStatWindow::new(0);
    }
}
