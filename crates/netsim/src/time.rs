//! Simulated time primitives.
//!
//! Simulation time is measured in integer nanoseconds since the start of the
//! experiment. Using an integer representation keeps the simulator fully
//! deterministic (no floating-point accumulation error) and makes ordering of
//! events exact.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant. Used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Rounds to the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "negative simulation time");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanosecond value.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in milliseconds (truncating).
    #[cfg(test)]
    pub(crate) const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`. Saturates at zero if `earlier` is later.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration. Used as a sentinel for "infinite".
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Rounds to the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "negative duration");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanosecond value.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in milliseconds (truncating).
    #[cfg(test)]
    pub(crate) const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Is this the zero duration?
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scale by a float factor (used by RTO backoff / RTT smoothing helpers).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k >= 0.0, "negative scale factor");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Time needed to serialise `bytes` bytes onto a link of `rate_bps` bits/s.
    ///
    /// This is the canonical transmission-delay computation used by the link
    /// model; exposing it here keeps tests and analytic checks consistent.
    pub fn transmission(bytes: u64, rate_bps: u64) -> SimDuration {
        assert!(rate_bps > 0, "link rate must be positive");
        // bits * 1e9 / rate. The product fits a `u64` below 2.3 GB — every
        // packet — which spares the per-packet path a `u128` division (a
        // library call); larger payloads take the wide path.
        let ns = match bytes.checked_mul(BIT_NS_PER_BYTE) {
            Some(bit_ns) => bit_ns / rate_bps,
            None => transmission_wide(bytes, rate_bps),
        };
        SimDuration(ns)
    }
}

/// Nanoseconds to serialise one byte at 1 bit/s.
const BIT_NS_PER_BYTE: u64 = 8 * 1_000_000_000;

/// [`SimDuration::transmission`] for payloads whose bit-nanosecond product
/// overflows a `u64`.
fn transmission_wide(bytes: u64, rate_bps: u64) -> u64 {
    (bytes as u128 * BIT_NS_PER_BYTE as u128 / rate_bps as u128) as u64
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
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
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        let d = t - SimTime::from_millis(10);
        assert_eq!(d.as_millis(), 5);
        // Saturating subtraction never goes negative.
        let d2 = SimTime::from_millis(1) - SimTime::from_millis(10);
        assert_eq!(d2, SimDuration::ZERO);
    }

    #[test]
    fn float_conversion() {
        let t = SimTime::from_secs_f64(0.5);
        assert_eq!(t.as_millis(), 500);
        assert!((t.as_secs_f64() - 0.5).abs() < 1e-12);
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_millis(), 1250);
    }

    #[test]
    fn transmission_delay() {
        // 1500 bytes at 1 Gbps = 12 microseconds.
        let d = SimDuration::transmission(1500, 1_000_000_000);
        assert_eq!(d.as_nanos(), 12_000);
        // 1 byte at 8 bps = 1 second.
        let d = SimDuration::transmission(1, 8);
        assert_eq!(d.as_secs_f64(), 1.0);
    }

    #[test]
    fn transmission_paths_agree() {
        // The rates the topology builders use (1 and 10 Gbps) and two odd
        // ones, over packet sizes and both sides of the `u64` boundary.
        let boundary = u64::MAX / BIT_NS_PER_BYTE;
        let sizes = (0..=9_000)
            .step_by(7)
            .chain([40, 64, 1_460, 1_500, 9_000])
            .chain(boundary - 2..=boundary + 2);
        for bytes in sizes {
            for rate_bps in [8, 1_000_000_000, 10_000_000_000, 40_000_000_001] {
                assert_eq!(
                    SimDuration::transmission(bytes, rate_bps).as_nanos(),
                    transmission_wide(bytes, rate_bps),
                    "{bytes} B at {rate_bps} bps"
                );
            }
        }
        assert!(boundary.checked_mul(BIT_NS_PER_BYTE).is_some());
        assert!((boundary + 1).checked_mul(BIT_NS_PER_BYTE).is_none());
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.mul_f64(2.5).as_millis(), 25);
        assert_eq!((d * 3).as_millis(), 30);
        assert_eq!((d / 2).as_millis(), 5);
        assert_eq!(d.saturating_mul(u64::MAX), SimDuration::MAX);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(10)), "10ns");
        assert_eq!(format!("{}", SimDuration::from_micros(10)), "10.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(10)), "10.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(10)), "10.000s");
    }
}
