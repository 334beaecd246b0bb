//! Simulation time.
//!
//! All simulated time is kept in integer **microseconds** so the event loop is
//! fully deterministic: no floating-point clock drift, no platform-dependent
//! rounding. A microsecond granularity comfortably resolves both the
//! sub-millisecond scheduling decisions of §6.4 and the multi-second function
//! executions of §8.

use crate::resources::sat_u64;
use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulated wall clock, in microseconds since the
/// start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The last representable instant: "never" for an instant that is not coming.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`; saturates at zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(sat_u64((s.max(0.0) * 1e6).round()))
    }

    /// Length in microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Length in fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer factor, saturating at the representable max.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
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

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(3);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_micros(), 3_250_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
    }

    #[test]
    fn saturating_sub_durations() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(7);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(2));
    }
}
