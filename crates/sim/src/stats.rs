//! Measurement primitives: counters, histograms, moving averages.
//!
//! These are the building blocks of every number the benchmark harness
//! reports. The histogram uses log-linear buckets (HdrHistogram-style) so
//! latency distributions spanning 80 ns to 500+ ns (and far beyond, under
//! load) are captured with bounded error and O(1) recording.

use crate::time::SimDuration;
use std::fmt;

/// A monotonically increasing event/byte counter.
///
/// Additions saturate at `u64::MAX` instead of panicking, so a week-long
/// chaos run degrades (the value pins, the [`Counter::overflowed`] flag
/// sticks) rather than aborting. Snapshot layers surface the flag so a
/// pinned counter is never mistaken for an exact count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
    overflowed: bool,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }
    /// Reconstruct a counter from snapshot parts (value + sticky flag).
    /// Used by telemetry layers that merge exported counters.
    pub fn from_parts(value: u64, overflowed: bool) -> Self {
        Counter { value, overflowed }
    }
    /// Add `n`, saturating at `u64::MAX`. On saturation the sticky
    /// [`Counter::overflowed`] flag is set.
    pub fn add(&mut self, n: u64) {
        match self.value.checked_add(n) {
            Some(v) => self.value = v,
            None => {
                self.value = u64::MAX;
                self.overflowed = true;
            }
        }
    }
    /// Add one.
    pub fn inc(&mut self) {
        self.add(1)
    }
    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
    /// Whether the counter ever saturated. Sticky: survives [`Counter::take`].
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }
    /// Reset the value to zero, returning the previous value. The sticky
    /// overflow flag is preserved — a counter that lost events once cannot
    /// regain exactness by being reset.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.value)
    }
}

/// A log-linear histogram of `u64` samples (typically nanoseconds).
///
/// Values are bucketed with ~3% relative error: 32 linear buckets per
/// power-of-two range. Percentiles are interpolated within a bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// buckets[b] = count of samples in bucket b.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BUCKET_BITS: u32 = 5; // 32 sub-buckets per octave
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros(); // >= SUB_BUCKET_BITS
    let shift = octave - SUB_BUCKET_BITS;
    let sub = (value >> shift) - SUB_BUCKETS; // in [0, SUB_BUCKETS)
    (SUB_BUCKETS as usize) + ((octave - SUB_BUCKET_BITS) as usize * SUB_BUCKETS as usize)
        + sub as usize
}

fn bucket_low(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let rest = index - SUB_BUCKETS as usize;
    let octave = (rest / SUB_BUCKETS as usize) as u32 + SUB_BUCKET_BITS;
    let sub = (rest % SUB_BUCKETS as usize) as u64;
    (SUB_BUCKETS + sub) << (octave - SUB_BUCKET_BITS)
}

fn bucket_high(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let rest = index - SUB_BUCKETS as usize;
    let octave = (rest / SUB_BUCKETS as usize) as u32 + SUB_BUCKET_BITS;
    let width = 1u64 << (octave - SUB_BUCKET_BITS);
    bucket_low(index) + width - 1
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record `n` samples of `value` at once: the same histogram as `n`
    /// calls to [`Histogram::record`]. Recording zero samples changes
    /// nothing.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` with linear interpolation inside
    /// the containing bucket. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let within = (target - seen) as f64 / c as f64;
                let low = bucket_low(idx) as f64;
                let high = bucket_high(idx) as f64;
                let v = low + (high - low) * within;
                return (v.round() as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }
    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} mean={:.1} p50={} p95={} p99={} max={}",
            self.count,
            self.min(),
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.max()
        )
    }
}

/// Exponentially weighted moving average with a configurable smoothing
/// factor; used for link-utilization estimates that feed the loaded-latency
/// model.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` in `(0, 1]`: weight of the newest observation.
    ///
    /// # Panics
    /// Panics for alpha outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        // lmp-lint: allow(no-panic) — documented `# Panics` ctor precondition;
        // alpha outside (0, 1] is not a smoothing factor.
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
        Ewma { alpha, value: None }
    }

    /// Fold in an observation. A subnormal result is flushed to `0.0`: an
    /// estimate decaying toward zero would otherwise creep down through
    /// the subnormals, slow to compute on every later observation, and
    /// stick at the smallest one instead of reaching zero.
    pub fn observe(&mut self, x: f64) {
        let v = match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        };
        self.value = Some(if v.is_subnormal() { 0.0 } else { v });
    }

    /// Current estimate (`default` before any observation).
    pub fn get_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Current estimate, `None` before any observation.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_saturates_with_sticky_flag() {
        let mut c = Counter::new();
        c.add(u64::MAX - 1);
        assert!(!c.overflowed());
        c.add(5); // would exceed u64::MAX
        assert_eq!(c.get(), u64::MAX);
        assert!(c.overflowed());
        // Further additions stay pinned.
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        // The flag survives a reset: the history is tainted.
        assert_eq!(c.take(), u64::MAX);
        assert_eq!(c.get(), 0);
        assert!(c.overflowed());
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn bucket_round_trip_small_values() {
        for v in 0..SUB_BUCKETS {
            let idx = bucket_index(v);
            assert_eq!(bucket_low(idx), v);
            assert_eq!(bucket_high(idx), v);
        }
    }

    #[test]
    fn bucket_bounds_contain_value() {
        for &v in &[33u64, 100, 1_000, 82_000, u32::MAX as u64, 1 << 50] {
            let idx = bucket_index(v);
            assert!(bucket_low(idx) <= v, "low({idx})={} > {v}", bucket_low(idx));
            assert!(v <= bucket_high(idx), "{v} > high({idx})={}", bucket_high(idx));
        }
    }

    #[test]
    fn exact_stats_for_small_values() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-9);
        assert_eq!(h.p50(), 3);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.05, "q={q}: got {got}, want {expect} (err {err})");
        }
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut one = Histogram::new();
        let mut bulk = Histogram::new();
        for (v, n) in [(82u64, 3u64), (1_000_000, 1), (7, 0), (148, 5)] {
            for _ in 0..n {
                one.record(v);
            }
            bulk.record_n(v, n);
        }
        assert_eq!(format!("{one:?}"), format!("{bulk:?}"));
        assert_eq!(bulk.count(), 9);
        assert_eq!(bulk.min(), 82);
    }

    #[test]
    fn ewma_converges() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get_or(7.0), 7.0);
        for _ in 0..64 {
            e.observe(10.0);
        }
        assert!((e.get_or(0.0) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn ewma_decays_to_exact_zero_without_subnormals() {
        let mut e = Ewma::new(0.3);
        e.observe(1.0);
        let mut steps = 0;
        while e.value() != Some(0.0) {
            e.observe(0.0);
            steps += 1;
            assert!(
                !e.get_or(0.0).is_subnormal(),
                "subnormal after {steps} steps"
            );
            assert!(steps < 5_000, "never reached zero");
        }
        // Zero is a fixed point.
        e.observe(0.0);
        assert_eq!(e.value().map(f64::to_bits), Some(0.0f64.to_bits()));
    }
}
