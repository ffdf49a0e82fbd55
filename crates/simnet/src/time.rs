//! Simulated time and bandwidth primitives.
//!
//! All simulation timing is expressed in integer nanoseconds via [`Nanos`],
//! which keeps event ordering exact (no floating-point drift) and makes the
//! simulator fully deterministic. [`Bandwidth`] converts byte counts into
//! serialization delays on a link.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
///
/// `Nanos` is used for both instants and durations; the simulator starts at
/// `Nanos::ZERO` and only ever moves forward.
///
/// # Examples
///
/// ```
/// use simnet::Nanos;
///
/// let t = Nanos::from_micros(3) + Nanos::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// assert_eq!(t.as_micros_f64(), 3.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero instant / empty duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The largest representable instant. Used as "never".
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a duration of `n` nanoseconds.
    pub const fn from_nanos(n: u64) -> Nanos {
        Nanos(n)
    }

    /// Creates a duration of `n` microseconds.
    pub const fn from_micros(n: u64) -> Nanos {
        Nanos(n * 1_000)
    }

    /// Creates a duration of `n` milliseconds.
    pub const fn from_millis(n: u64) -> Nanos {
        Nanos(n * 1_000_000)
    }

    /// Creates a duration of `n` seconds.
    pub const fn from_secs(n: u64) -> Nanos {
        Nanos(n * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in microseconds, rounding down.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the value in microseconds as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the value in milliseconds as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the value in seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: returns `ZERO` instead of underflowing.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Returns the larger of two times.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<u64> for Nanos {
    fn from(n: u64) -> Nanos {
        Nanos(n)
    }
}

/// Link bandwidth in bits per second.
///
/// # Examples
///
/// ```
/// use simnet::Bandwidth;
///
/// let bw = Bandwidth::gbps(10);
/// // 10 Gbps moves one byte every 0.8 ns.
/// assert_eq!(bw.transmit_time(1_000).as_nanos(), 800);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    /// Creates a bandwidth of `n` bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub const fn bps(n: u64) -> Bandwidth {
        assert!(n > 0, "bandwidth must be positive");
        Bandwidth { bits_per_sec: n }
    }

    /// Creates a bandwidth of `n` megabits per second.
    pub const fn mbps(n: u64) -> Bandwidth {
        Bandwidth::bps(n * 1_000_000)
    }

    /// Creates a bandwidth of `n` gigabits per second.
    pub const fn gbps(n: u64) -> Bandwidth {
        Bandwidth::bps(n * 1_000_000_000)
    }

    /// Returns the raw bits-per-second value.
    pub fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// Time needed to serialize `bytes` onto the wire at this rate.
    ///
    /// Rounds up so that transmitting a non-empty frame always takes at
    /// least one nanosecond.
    pub fn transmit_time(self, bytes: usize) -> Nanos {
        if bytes == 0 {
            return Nanos::ZERO;
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.bits_per_sec as u128);
        Nanos::from_nanos(ns as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits_per_sec.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", self.bits_per_sec / 1_000_000_000)
        } else if self.bits_per_sec.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", self.bits_per_sec / 1_000_000)
        } else {
            write!(f, "{}bps", self.bits_per_sec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_convert_units() {
        assert_eq!(Nanos::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Nanos::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_nanos(100);
        let b = Nanos::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!((a / 4).as_nanos(), 25);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn nanos_sum_and_assign() {
        let total: Nanos = [1u64, 2, 3].iter().map(|&n| Nanos::from_nanos(n)).sum();
        assert_eq!(total.as_nanos(), 6);
        let mut t = Nanos::from_nanos(5);
        t += Nanos::from_nanos(2);
        t -= Nanos::from_nanos(3);
        assert_eq!(t.as_nanos(), 4);
    }

    #[test]
    fn nanos_display_picks_unit() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn bandwidth_transmit_time_rounds_up() {
        let bw = Bandwidth::gbps(10);
        assert_eq!(bw.transmit_time(0), Nanos::ZERO);
        // A single byte takes 0.8ns, rounded up to 1ns.
        assert_eq!(bw.transmit_time(1).as_nanos(), 1);
        assert_eq!(bw.transmit_time(1500).as_nanos(), 1200);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::gbps(10).to_string(), "10Gbps");
        assert_eq!(Bandwidth::mbps(100).to_string(), "100Mbps");
        assert_eq!(Bandwidth::bps(1234).to_string(), "1234bps");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn bandwidth_rejects_zero() {
        let _ = Bandwidth::bps(0);
    }
}
