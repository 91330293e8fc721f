//! Exact percentiles over in-memory sample sets.
//!
//! The rolling action-duration profiles of the controller (last 10
//! measurements, §5.3) and the prediction-error analysis (Fig. 9) work over
//! small sample sets where exact order statistics are cheap and the bucketing
//! error of [`crate::LatencyHistogram`] would be unnecessary.

use clockwork_sim::time::Nanos;

/// Returns the exact `p`-th percentile (0..=100) of the samples using the
/// nearest-rank method, or `None` if the slice is empty.
pub fn percentile_nanos(samples: &[Nanos], p: f64) -> Option<Nanos> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<Nanos> = samples.to_vec();
    sorted.sort_unstable();
    Some(percentile_of_sorted(&sorted, p))
}

/// Returns the exact percentile of an already-sorted slice (nearest-rank).
///
/// # Panics
/// Panics if the slice is empty.
pub fn percentile_of_sorted(sorted: &[Nanos], p: f64) -> Nanos {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let p = p.clamp(0.0, 100.0);
    if p <= 0.0 {
        return sorted[0];
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Returns the exact percentile of f64 samples (nearest-rank), or `None` if
/// the slice is empty.
pub fn percentile_f64(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    if p <= 0.0 {
        return Some(sorted[0]);
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let samples: Vec<Nanos> = (1..=100u64).map(Nanos::from_millis).collect();
        assert_eq!(percentile_nanos(&samples, 0.0), Some(Nanos::from_millis(1)));
        assert_eq!(
            percentile_nanos(&samples, 50.0),
            Some(Nanos::from_millis(50))
        );
        assert_eq!(
            percentile_nanos(&samples, 99.0),
            Some(Nanos::from_millis(99))
        );
        assert_eq!(
            percentile_nanos(&samples, 100.0),
            Some(Nanos::from_millis(100))
        );
        assert_eq!(percentile_nanos(&[], 50.0), None);
    }

    #[test]
    fn percentile_single_element() {
        let samples = [Nanos::from_micros(7)];
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(percentile_nanos(&samples, p), Some(Nanos::from_micros(7)));
        }
    }

    #[test]
    fn percentile_f64_works() {
        let samples = [3.0, 1.0, 2.0];
        assert_eq!(percentile_f64(&samples, 0.0), Some(1.0));
        assert_eq!(percentile_f64(&samples, 50.0), Some(2.0));
        assert_eq!(percentile_f64(&samples, 100.0), Some(3.0));
        assert_eq!(percentile_f64(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_of_sorted_empty_panics() {
        let _ = percentile_of_sorted(&[], 50.0);
    }
}
