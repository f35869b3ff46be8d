//! Simulated time.
//!
//! All simulators in this workspace share one clock domain: an unsigned
//! 64-bit count of **nanoseconds** since simulation start. At 1 ns
//! resolution a `u64` covers ~584 years of simulated time, far beyond any
//! experiment here, while still resolving single cycles of the paper's
//! fastest clock (the 1 GHz board-level accelerator, Table II).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "idle / never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start (lossy, for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Duration of transferring `bytes` at `bytes_per_sec`, rounded up to
    /// the next nanosecond so a transfer never takes zero time.
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        debug_assert!(bytes_per_sec > 0, "zero-bandwidth link");
        // ns = bytes * 1e9 / rate, in u128 to avoid overflow.
        let ns = (bytes as u128 * 1_000_000_000u128).div_ceil(bytes_per_sec as u128);
        Duration(ns as u64)
    }

    /// Nanoseconds in this span.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this span (lossy, for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative simulated duration");
        Duration(self.0 - rhs.0)
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative simulated duration");
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::ZERO + Duration::micros(35);
        assert_eq!(t.as_nanos(), 35_000);
        let t2 = t + Duration::millis(2);
        assert_eq!((t2 - t).as_nanos(), 2_000_000);
        assert_eq!(t2 - Duration::millis(2), t);
    }

    #[test]
    fn transfer_duration_matches_paper_channel_rate() {
        // ONFI NV-DDR2 at 333 MB/s moving one 4 KB page: ~12.3 us.
        let d = Duration::for_bytes(4096, 333_000_000);
        assert!(d.as_nanos() > 12_000 && d.as_nanos() < 12_500, "{d}");
    }

    #[test]
    fn transfer_duration_rounds_up_and_handles_zero() {
        assert_eq!(Duration::for_bytes(0, 1).as_nanos(), 0);
        // 1 byte at 1 GB/s is 1 ns exactly; at 2 GB/s rounds up to 1 ns.
        assert_eq!(Duration::for_bytes(1, 1_000_000_000).as_nanos(), 1);
        assert_eq!(Duration::for_bytes(1, 2_000_000_000).as_nanos(), 1);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime(100);
        let b = SimTime(40);
        assert_eq!(a.saturating_since(b).as_nanos(), 60);
        assert_eq!(b.saturating_since(a).as_nanos(), 0);
    }

    #[test]
    fn ordering_and_minmax() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime(1).max(SimTime(2)), SimTime(2));
        assert_eq!(SimTime(1).min(SimTime(2)), SimTime(1));
        assert_eq!(Duration(3).max(Duration(5)), Duration(5));
    }

    #[test]
    fn duration_sum_and_mul() {
        let total: Duration = [Duration(1), Duration(2), Duration(3)].into_iter().sum();
        assert_eq!(total, Duration(6));
        assert_eq!(Duration::micros(2) * 3, Duration::micros(6));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Duration::nanos(15)), "15ns");
        assert_eq!(format!("{}", Duration::micros(35)), "35.000us");
        assert_eq!(format!("{}", Duration::millis(2)), "2.000ms");
        assert_eq!(format!("{}", Duration::secs(3)), "3.000s");
    }
}
