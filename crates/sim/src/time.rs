//! Integer simulation time.
//!
//! All timing in the reproduction is expressed in integer picoseconds so
//! that event ordering is exact and runs are bit-reproducible. The paper's
//! fabricated SoC runs its NoC (and the BlitzCoin FSMs that live in the NoC
//! power domain) at 800 MHz, giving the canonical conversion of
//! [`NOC_CYCLE_PS`] = 1250 ps per NoC cycle used throughout.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per NoC clock cycle (800 MHz NoC, as in the fabricated SoC).
pub const NOC_CYCLE_PS: u64 = 1250;

/// A point in (or span of) simulation time, in integer picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators implement the natural semantics for both uses.
///
/// # Example
///
/// ```
/// use blitzcoin_sim::SimTime;
///
/// let t = SimTime::from_noc_cycles(800); // 800 cycles @ 800 MHz
/// assert_eq!(t.as_us_f64(), 1.0);
/// assert_eq!(t + SimTime::from_ns(500), SimTime::from_us(1) + SimTime::from_ns(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl crate::json::ToJson for SimTime {
    fn to_json(&self) -> crate::json::Json {
        crate::json::ToJson::to_json(&self.as_ps())
    }
}

impl crate::json::FromJson for SimTime {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        Ok(SimTime::from_ps(<u64 as crate::json::FromJson>::from_json(
            v,
        )?))
    }
}

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from a whole number of 800 MHz NoC cycles.
    pub const fn from_noc_cycles(cycles: u64) -> Self {
        SimTime(cycles * NOC_CYCLE_PS)
    }

    /// Creates a time from fractional microseconds, rounding to the nearest
    /// picosecond. Intended for configuration values, not inner loops.
    pub fn from_us_f64(us: f64) -> Self {
        assert!(
            us >= 0.0 && us.is_finite(),
            "time must be finite and non-negative"
        );
        SimTime((us * 1e6).round() as u64)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in whole NoC cycles, rounding down.
    pub const fn as_noc_cycles(self) -> u64 {
        self.0 / NOC_CYCLE_PS
    }

    /// Time in nanoseconds as a float.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time in microseconds as a float.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time in milliseconds as a float.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; returns [`SimTime::ZERO`] on underflow.
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    /// Panics in debug builds if `rhs > self` (durations are unsigned).
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_noc_cycles(1).as_ps(), NOC_CYCLE_PS);
        assert_eq!(SimTime::from_noc_cycles(800).as_us_f64(), 1.0);
    }

    #[test]
    fn cycle_count_rounds_down() {
        assert_eq!(SimTime::from_ps(NOC_CYCLE_PS * 3 + 1).as_noc_cycles(), 3);
        assert_eq!(SimTime::from_ps(NOC_CYCLE_PS - 1).as_noc_cycles(), 0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!(a + b, SimTime::from_ns(14));
        assert_eq!(a - b, SimTime::from_ns(6));
        assert_eq!(a * 3, SimTime::from_ns(30));
        assert_eq!(a / 2, SimTime::from_ns(5));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_ps(5).to_string(), "5ps");
        assert_eq!(SimTime::from_ns(5).to_string(), "5.000ns");
        assert_eq!(SimTime::from_us(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_ms(5).to_string(), "5.000ms");
    }

    #[test]
    fn from_us_f64_rounds() {
        assert_eq!(SimTime::from_us_f64(0.68).as_ps(), 680_000);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_us_f64_rejects_nan() {
        let _ = SimTime::from_us_f64(f64::NAN);
    }
}
