//! Virtual time primitives.
//!
//! The whole workspace uses virtual time: [`Nanos`] is a duration in
//! nanoseconds and [`Timestamp`] is an instant measured from the start of the
//! simulation. Both are thin wrappers around `u64`, cheap to copy and totally
//! ordered, so they can be used directly as keys in the event queue.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration in nanoseconds of virtual time.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable duration; used as "effectively infinite".
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_minutes(m: u64) -> Self {
        Nanos(m * 60 * 1_000_000_000)
    }

    /// Creates a duration from a floating point number of milliseconds.
    ///
    /// Negative values saturate to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        Nanos(round_to_u64(ms * 1e6))
    }

    /// Creates a duration from a floating point number of seconds.
    ///
    /// Negative values saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        Nanos(round_to_u64(s * 1e9))
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed as floating point microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This duration expressed as floating point milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration expressed as floating point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the duration by a floating point factor, saturating at zero.
    pub fn mul_f64(self, factor: f64) -> Nanos {
        Nanos(round_to_u64(self.0 as f64 * factor))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Nanos) -> Nanos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Nanos) -> Nanos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

/// `v.round() as u64` — nearest integer, halves away from zero, saturating
/// (NaN and negatives to 0, `2^64` and above to `u64::MAX`) — without the
/// call: on the default x86-64 target `f64::round` is a software routine.
///
/// Exact, not approximate: the cast truncates, the fractional part of a
/// double below `2^53` is itself a double, and doubles from `2^53` up are
/// integers already.
pub fn round_to_u64(v: f64) -> u64 {
    if (0.0..9_223_372_036_854_775_808.0).contains(&v) {
        // Below 2^63 the signed conversions do, one instruction each way
        // where the unsigned ones take a dozen.
        let whole = v as i64;
        (whole + i64::from(v - whole as f64 >= 0.5)) as u64
    } else {
        // NaN, negatives, and doubles from 2^63 up, which have no fraction.
        v as u64
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", ns)
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs.max(1))
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |acc, x| acc + x)
    }
}

/// An instant of virtual time, measured in nanoseconds since simulation start.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The simulation start instant.
    pub const ZERO: Timestamp = Timestamp(0);
    /// The maximum representable instant; used as "never".
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        Timestamp(ns)
    }

    /// Creates a timestamp a given number of milliseconds after simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000_000)
    }

    /// Creates a timestamp a given number of seconds after simulation start.
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since simulation start as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The elapsed duration since an earlier instant (saturating at zero).
    pub const fn since(self, earlier: Timestamp) -> Nanos {
        Nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub const fn saturating_add(self, d: Nanos) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: Timestamp) -> Timestamp {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: Timestamp) -> Timestamp {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", Nanos(self.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", Nanos(self.0))
    }
}

impl Add<Nanos> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Nanos) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Nanos> for Timestamp {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub<Nanos> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Nanos) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Nanos;
    fn sub(self, rhs: Timestamp) -> Nanos {
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_to_u64_matches_round_at_the_edges() {
        let below_2_64 = f64::from_bits((u64::MAX as f64).to_bits() - 1);
        let edges = [
            (0.0, 0),
            (-0.0, 0),
            (0.49999999999999994, 0),
            (0.5, 1),
            (1.5, 2),
            (2.5, 3),
            (4503599627370495.5, 1 << 52), // 2^52 - 1 + 0.5, the last half
            ((1u64 << 52) as f64 - 1.0, (1 << 52) - 1),
            ((1u64 << 52) as f64 + 1.0, (1 << 52) + 1),
            ((1u64 << 53) as f64, 1 << 53),
            ((1u64 << 63) as f64 - 1024.0, (1 << 63) - 1024), // the last double below 2^63
            ((1u64 << 63) as f64, 1 << 63),
            (below_2_64, u64::MAX - 2047),
            (u64::MAX as f64, u64::MAX),
            (f64::MAX, u64::MAX),
            (f64::INFINITY, u64::MAX),
            (f64::NEG_INFINITY, 0),
            (f64::NAN, 0),
            (-0.5, 0),
            (-1.5, 0),
            (-1e300, 0),
        ];
        for (v, expected) in edges {
            assert_eq!(round_to_u64(v), expected, "{v:e}");
            assert_eq!(v.round() as u64, expected, "{v:e} against f64::round");
        }
    }

    #[test]
    fn nanos_constructors() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_minutes(2).as_nanos(), 120_000_000_000);
        assert_eq!(Nanos::from_millis_f64(2.5).as_nanos(), 2_500_000);
        assert_eq!(Nanos::from_secs_f64(0.001).as_nanos(), 1_000_000);
    }

    #[test]
    fn nanos_negative_float_saturates() {
        assert_eq!(Nanos::from_millis_f64(-5.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(1e30), Nanos::MAX);
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_millis(3);
        let b = Nanos::from_millis(2);
        assert_eq!(a + b, Nanos::from_millis(5));
        assert_eq!(a - b, Nanos::from_millis(1));
        assert_eq!(b - a, Nanos::ZERO, "subtraction saturates");
        assert_eq!(a * 2, Nanos::from_millis(6));
        assert_eq!(a / 3, Nanos::from_millis(1));
        assert_eq!(a.mul_f64(0.5), Nanos::from_micros(1500));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn nanos_division_by_zero_is_safe() {
        assert_eq!(Nanos::from_millis(10) / 0, Nanos::from_millis(10));
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = (1..=4u64).map(Nanos::from_millis).sum();
        assert_eq!(total, Nanos::from_millis(10));
    }

    #[test]
    fn nanos_display() {
        assert_eq!(format!("{}", Nanos::from_nanos(500)), "500ns");
        assert_eq!(format!("{}", Nanos::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Nanos::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(5)), "5.000s");
    }

    #[test]
    fn timestamp_arithmetic() {
        let t0 = Timestamp::from_millis(10);
        let t1 = t0 + Nanos::from_millis(5);
        assert_eq!(t1, Timestamp::from_millis(15));
        assert_eq!(t1.since(t0), Nanos::from_millis(5));
        assert_eq!(t0.since(t1), Nanos::ZERO, "since saturates");
        assert_eq!(t1 - t0, Nanos::from_millis(5));
        assert_eq!(t1 - Nanos::from_millis(3), Timestamp::from_millis(12));
        assert_eq!(t0.max(t1), t1);
        assert_eq!(t0.min(t1), t0);
    }

    #[test]
    fn timestamp_ordering() {
        assert!(Timestamp::from_millis(1) < Timestamp::from_millis(2));
        assert!(Timestamp::MAX > Timestamp::from_secs(1_000_000));
    }

    #[test]
    fn float_conversions_round_trip() {
        let d = Nanos::from_micros(12_345);
        assert!((d.as_millis_f64() - 12.345).abs() < 1e-9);
        assert!((d.as_micros_f64() - 12_345.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.012_345).abs() < 1e-12);
        let t = Timestamp::from_millis(2_500);
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 2_500.0).abs() < 1e-9);
    }
}
