//! Byte-size and bandwidth units.
//!
//! Memory capacities use binary units ([`GIB`], [`MIB`], …) like the paper's
//! "96GB per NUMA node". Bandwidth is a first-class type so transfer-time
//! arithmetic is impossible to get dimensionally wrong.

use crate::time::SimDuration;
use std::fmt;

/// One kibibyte (2^10 bytes).
pub const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes).
pub const MIB: u64 = 1 << 20;
/// One gibibyte (2^30 bytes).
pub const GIB: u64 = 1 << 30;
/// One tebibyte (2^40 bytes).
pub const TIB: u64 = 1 << 40;

/// A transfer rate in bytes per second.
///
/// Constructed from the paper's GB/s figures via [`Bandwidth::from_gbps`]
/// (decimal gigabytes, matching how vendors and the paper quote link speeds).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// A zero-rate link (transfers never complete); useful as a sentinel.
    pub const ZERO: Bandwidth = Bandwidth { bytes_per_sec: 0.0 };

    /// From raw bytes per second.
    ///
    /// # Panics
    /// Panics on negative or non-finite rates.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        // lmp-lint: allow(no-panic) — documented `# Panics` ctor precondition;
        // a negative or NaN bandwidth is a model-configuration bug.
        assert!(bps.is_finite() && bps >= 0.0, "invalid bandwidth: {bps}");
        Bandwidth { bytes_per_sec: bps }
    }

    /// From decimal gigabytes per second (1 GB/s = 1e9 B/s), the unit used
    /// throughout the paper's tables.
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bytes_per_sec(gbps * 1e9)
    }

    /// Raw bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// Decimal gigabytes per second.
    pub fn as_gbps(self) -> f64 {
        self.bytes_per_sec / 1e9
    }

    /// Time to move `bytes` at this rate, rounded up to whole nanoseconds.
    ///
    /// A zero-byte transfer takes zero time. On a zero-rate link any
    /// non-empty transfer takes [`SimDuration::MAX`] (never completes).
    pub fn time_to_transfer(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        if self.bytes_per_sec <= 0.0 {
            return SimDuration::MAX;
        }
        let ns = (bytes as f64) / self.bytes_per_sec * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration::from_nanos(ceil_to_u64(ns))
        }
    }

    /// The rate achieved by moving `bytes` in `elapsed` time.
    ///
    /// Returns [`Bandwidth::ZERO`] for a zero-length interval — callers
    /// measuring over a window must ensure the window is non-empty.
    pub fn measured(bytes: u64, elapsed: SimDuration) -> Bandwidth {
        if elapsed.is_zero() {
            return Bandwidth::ZERO;
        }
        Self::from_bytes_per_sec(bytes as f64 / elapsed.as_secs_f64())
    }

    /// Scale the rate by `factor` (e.g., dividing a link among flows).
    pub fn scale(self, factor: f64) -> Bandwidth {
        Self::from_bytes_per_sec(self.bytes_per_sec * factor)
    }

    /// The smaller of two rates (a path is limited by its slowest hop).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.bytes_per_sec <= other.bytes_per_sec {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}GB/s", self.as_gbps())
    }
}

/// Render a byte count with a binary-unit suffix, e.g. `24.0GiB`.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= TIB {
        format!("{:.1}TiB", bytes as f64 / TIB as f64)
    } else if bytes >= GIB {
        format!("{:.1}GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1}MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1}KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes}B")
    }
}

/// `x.ceil() as u64` for `0 <= x < 2^64` (and 0 for NaN), without the
/// float `ceil`, which baseline x86-64 calls out of line. The truncating
/// cast is exact wherever `x` has a fraction (below 2^52), and every `x`
/// from 2^52 up is a whole number, so one compare finds the fraction.
fn ceil_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from((t as f64) < x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbps_round_trip() {
        let bw = Bandwidth::from_gbps(34.5);
        assert!((bw.as_gbps() - 34.5).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_is_exact_for_simple_rates() {
        // 1 GB/s moves 1 byte per nanosecond.
        let bw = Bandwidth::from_gbps(1.0);
        assert_eq!(bw.time_to_transfer(1_000).as_nanos(), 1_000);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 3 B/s: 1 byte takes ceil(1e9/3) ns.
        let bw = Bandwidth::from_bytes_per_sec(3.0);
        assert_eq!(bw.time_to_transfer(1).as_nanos(), 333_333_334);
    }

    #[test]
    fn zero_cases() {
        assert_eq!(Bandwidth::from_gbps(5.0).time_to_transfer(0), SimDuration::ZERO);
        assert_eq!(Bandwidth::ZERO.time_to_transfer(1), SimDuration::MAX);
        assert_eq!(Bandwidth::measured(100, SimDuration::ZERO), Bandwidth::ZERO);
    }

    #[test]
    fn measured_inverts_transfer() {
        let bw = Bandwidth::from_gbps(21.0);
        let bytes = 64 * MIB;
        let t = bw.time_to_transfer(bytes);
        let back = Bandwidth::measured(bytes, t);
        assert!((back.as_gbps() - 21.0).abs() < 0.01, "got {back}");
    }

    #[test]
    fn min_and_scale() {
        let a = Bandwidth::from_gbps(10.0);
        let b = Bandwidth::from_gbps(4.0);
        assert_eq!(a.min(b), b);
        assert!((a.scale(0.5).as_gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(8 * GIB), "8.0GiB");
        assert_eq!(fmt_bytes(3 * MIB / 2), "1.5MiB");
    }
}
