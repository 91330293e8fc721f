//! Incrementally maintained order statistics over a sliding window.
//!
//! The controller's rolling action profiles (§5.3) ask for a percentile of
//! the last N measurements on every scheduling decision — many thousands of
//! times per simulated second at fleet scale.
//! [`SlidingWindow`](crate::percentile::SlidingWindow) answers that query by cloning and
//! sorting the window each time, which dominated the scheduler's hot path.
//! [`OrderStatWindow`] keeps the window sorted as samples arrive instead:
//! inserts and evictions locate their slot by O(log n) binary search (the
//! slot shift itself is an O(n) memmove — cheap at profile window sizes,
//! quadratic territory if the capacity is ever scaled to many thousands),
//! and any percentile query is a single index into the sorted buffer.
//!
//! The window is exact: for the same stream of samples it returns bit-for-bit
//! the same nearest-rank percentiles as
//! [`crate::percentile::percentile_nanos`] (a property test in
//! `tests/properties.rs` pins this equivalence down).

use std::collections::VecDeque;

use clockwork_sim::time::Nanos;

use crate::percentile::percentile_of_sorted;

/// A bounded window of the most recent samples with binary-searched ordered
/// maintenance and O(1) percentile queries.
///
/// Samples are evicted oldest-first once `capacity` is reached, exactly like
/// `SlidingWindow`; the difference is purely in query cost. Pushes pay an
/// O(n)-in-capacity element shift, so this is built for small windows
/// queried far more often than they are written (the profiler's default is
/// 10 samples).
///
/// There is no `Default`: a window's capacity must be chosen, and a
/// zero-capacity window could never take a sample.
///
/// ```compile_fail
/// let _ = clockwork_metrics::OrderStatWindow::default();
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OrderStatWindow {
    capacity: usize,
    /// Samples in arrival order (front = oldest), driving eviction.
    recency: VecDeque<Nanos>,
    /// The same samples in ascending order, driving percentile queries.
    sorted: Vec<Nanos>,
    /// Running sum of the window, so `mean` is O(1) too.
    sum: u128,
}

impl OrderStatWindow {
    /// Creates a window keeping at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "order-stat window capacity must be positive");
        OrderStatWindow {
            capacity,
            recency: VecDeque::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
            sum: 0,
        }
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, sample: Nanos) {
        if self.recency.len() == self.capacity {
            let evicted = self.recency.pop_front().expect("window is full");
            let at = self.sorted.partition_point(|&v| v < evicted);
            debug_assert!(self.sorted.get(at) == Some(&evicted));
            self.sorted.remove(at);
            self.sum -= evicted.as_nanos() as u128;
        }
        self.recency.push_back(sample);
        let at = self.sorted.partition_point(|&v| v <= sample);
        self.sorted.insert(at, sample);
        self.sum += sample.as_nanos() as u128;
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.recency.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.recency.is_empty()
    }

    /// The exact nearest-rank percentile of the window, or `None` if empty.
    ///
    /// Unlike `SlidingWindow::percentile` this neither clones nor sorts: the
    /// window is already ordered, so the query is one index computation.
    pub fn percentile(&self, p: f64) -> Option<Nanos> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(percentile_of_sorted(&self.sorted, p))
    }

    /// The maximum sample in the window, or `None` if empty.
    pub fn max(&self) -> Option<Nanos> {
        self.sorted.last().copied()
    }

    /// The minimum sample in the window, or `None` if empty.
    pub fn min(&self) -> Option<Nanos> {
        self.sorted.first().copied()
    }

    /// The most recent sample, or `None` if empty.
    pub fn latest(&self) -> Option<Nanos> {
        self.recency.back().copied()
    }

    /// The mean of the samples in the window, or `None` if empty.
    pub fn mean(&self) -> Option<Nanos> {
        if self.recency.is_empty() {
            return None;
        }
        Some(Nanos::from_nanos(
            (self.sum / self.recency.len() as u128) as u64,
        ))
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
