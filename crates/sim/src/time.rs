// Operator impls (`+`, `-`, `*`) cannot return Result; overflow here is
// always a scheduling bug, and the documented contract is to trap loudly.
#![allow(clippy::expect_used)]

//! Simulated time.
//!
//! All simulation time is kept in integer **nanoseconds** ([`SimTime`] for
//! instants, [`SimDuration`] for spans). Integer time makes event ordering
//! exact and keeps runs bit-for-bit reproducible across platforms, which the
//! benchmark harness relies on.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so this always indicates a scheduling bug.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                // lmp-lint: allow(no-panic) — documented `# Panics` contract;
                // a negative duration means event ordering is already broken.
                .expect("duration_since: earlier instant is in the future"),
        )
    }

    /// Saturating version of [`SimTime::duration_since`]: returns zero when
    /// `earlier` is later than `self`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
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

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// # Panics
    /// Panics on negative, NaN, or out-of-range input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0 && s <= u64::MAX as f64 / 1e9,
            "invalid duration: {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by a float factor, rounding to the nearest nanosecond.
    ///
    /// # Panics
    /// Panics on negative, NaN, or overflowing factors.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        // Exact below 2^53 ns, where every count is a float: the common
        // healthy-link factor of 1 costs no rounding.
        if factor == 1.0 && self.0 < 1 << 53 {
            return self;
        }
        let v = self.0 as f64 * factor;
        // lmp-lint: allow(no-panic) — documented `# Panics` contract;
        // operator-style API cannot return Result and a NaN factor is a model
        // bug.
        assert!(
            v.is_finite() && v >= 0.0 && v <= u64::MAX as f64,
            "invalid duration scale: {factor}"
        );
        SimDuration(round_to_u64(v))
    }
}

/// `x.round() as u64` (half away from zero) for `0 <= x <= 2^64`, without
/// the float `round`, which baseline x86-64 calls out of line. Below 2^52
/// the truncating cast and the fraction it leaves are exact; from 2^52 up
/// every `x` is a whole number, so the fraction is 0 (and 2^64 saturates,
/// as the cast of `x.round()` does).
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                // lmp-lint: allow(no-panic) — Add impl cannot return Result;
                // simulated-time overflow is unrecoverable and ends the run.
                .expect("SimTime overflow: simulation ran too long"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: instant before simulation start"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        // lmp-lint: allow(no-panic) — Add impl cannot return Result;
        // simulated-duration overflow is unrecoverable.
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
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
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100) + SimDuration::from_nanos(50);
        assert_eq!(t.as_nanos(), 150);
        assert_eq!(
            t.duration_since(SimTime::from_nanos(100)).as_nanos(),
            50
        );
        assert_eq!((t - SimDuration::from_nanos(150)).as_nanos(), 0);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_duration_since(early).as_nanos(), 10);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backwards_clock() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d.mul_f64(1.5).as_nanos(), 150);
        assert_eq!(d.mul_f64(0.0).as_nanos(), 0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_nanos(10);
        assert_eq!((d * 3).as_nanos(), 30);
        assert_eq!((d / 4).as_nanos(), 2);
    }
}
