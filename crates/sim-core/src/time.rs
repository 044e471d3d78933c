//! Virtual time primitives.
//!
//! Simulated time is measured in integer nanoseconds from the start of the
//! simulation.  Integer arithmetic keeps event ordering exact and runs
//! reproducible.

use std::fmt;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The zero instant (simulation start).
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from raw nanoseconds.
    pub(crate) const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Constructs a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncated).
    pub(crate) const fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Constructs a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros * 1_000)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000_000)
    }

    /// Constructs a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000_000_000)
    }

    /// Constructs a duration from fractional seconds (negative values clamp to
    /// zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            Self(0)
        } else {
            Self((secs * 1e9).round() as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Multiplies the duration by an integer factor.
    pub const fn mul(&self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }

    /// Scales the duration by a float factor (clamped at zero).
    pub fn mul_f64(&self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Integer division of the duration.
    pub const fn div(&self, divisor: u64) -> SimDuration {
        SimDuration(self.0 / divisor)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5), SimDuration::from_millis(500));
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn add_assign_and_scaling() {
        let mut d = SimDuration::ZERO;
        d += SimDuration::from_millis(250);
        d += SimDuration::from_millis(750);
        assert_eq!(d, SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(2).mul(3), SimDuration::from_secs(6));
        assert_eq!(SimDuration::from_secs(4).div(2), SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(2).mul_f64(0.5), SimDuration::from_secs(1));
    }

    #[test]
    fn display_picks_reasonable_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.0us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.0ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn ordering_is_chronological() {
        let mut times = [SimTime::from_secs(5), SimTime::ZERO, SimTime::from_nanos(10)];
        times.sort();
        assert_eq!(times[0], SimTime::ZERO);
        assert_eq!(times[2], SimTime::from_secs(5));
    }
}
