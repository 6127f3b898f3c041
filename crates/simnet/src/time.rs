//! Virtual time primitives.
//!
//! All simulation time is expressed in integer **microseconds** so that
//! results are exact and platform-independent. [`SimTime`] is an absolute
//! instant on the virtual clock; [`SimDuration`] is a span between instants.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the virtual clock, in microseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `us` microseconds after the simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Saturates to zero if `earlier` is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The time to transmit `bytes` at `bits_per_sec` on an ideal link.
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let bits = bytes as u128 * 8;
        let us = bits * 1_000_000 / bits_per_sec as u128;
        SimDuration(us as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(d.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 1_000_000 {
            write!(f, "{:.3}s", us as f64 / 1_000_000.0)
        } else if us >= 1_000 {
            write!(f, "{:.3}ms", us as f64 / 1_000.0)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_micros(1_500);
        let d = SimDuration::from_millis(2);
        assert_eq!((t + d).as_micros(), 3_500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn since_saturates_for_future_instants() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(20);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(early - late, SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
    }

    #[test]
    fn transmission_time_matches_line_rate() {
        // 1000 bytes at 8 Mbit/s = 1 ms.
        let d = SimDuration::transmission(1_000, 8_000_000);
        assert_eq!(d, SimDuration::from_millis(1));
        // Zero bandwidth is treated as "infinitely fast" (cost modelled elsewhere).
        assert_eq!(SimDuration::transmission(1_000, 0), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(300);
        assert_eq!(d * 4, SimDuration::from_micros(1_200));
        assert_eq!(d / 3, SimDuration::from_micros(100));
        assert_eq!(
            d.saturating_sub(SimDuration::from_micros(500)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_formats_are_humane() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_micros(1_500).to_string(), "t+1.500ms");
    }
}
