//! The metric registry: named, labelled instruments with cheap handles.
//!
//! Hot paths register an instrument once (`counter`/`gauge`/`histogram`)
//! and then record through a `Copy` handle — an index, so recording is one
//! bounds-checked array write, no string hashing per event. Exporters that
//! publish whole counters at once (a fabric or memory node dumping its
//! internal state) use the absolute-fill API (`fill_counter`,
//! `set_gauge_value`, `merge_histogram`) against a **fresh** registry per
//! export, so re-exporting never double counts.

use crate::snapshot::{CounterValue, TelemetrySnapshot};
use lmp_sim::prelude::*;
use std::collections::BTreeMap;

/// Identity of one instrument: a name plus sorted key=value labels.
///
/// Labels are sorted at construction so the same logical instrument always
/// maps to the same key regardless of call-site label order, and so every
/// snapshot iterates instruments in one deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Instrument name, dot-separated by convention (`fabric.link.bytes`).
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}={v}")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);
/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);
/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of counters, gauges, and log-linear histograms.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    counters: Vec<Counter>,
    gauges: Vec<f64>,
    histograms: Vec<Histogram>,
    counter_index: BTreeMap<MetricKey, usize>,
    gauge_index: BTreeMap<MetricKey, usize>,
    histogram_index: BTreeMap<MetricKey, usize>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- registration (get-or-create; idempotent) -----

    /// Handle to the counter `name{labels}`, creating it at zero.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        let key = MetricKey::new(name, labels);
        let next = self.counters.len();
        let idx = *self.counter_index.entry(key).or_insert(next);
        if idx == next {
            self.counters.push(Counter::new());
        }
        CounterId(idx)
    }

    /// Handle to the gauge `name{labels}`, creating it at zero.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        let key = MetricKey::new(name, labels);
        let next = self.gauges.len();
        let idx = *self.gauge_index.entry(key).or_insert(next);
        if idx == next {
            self.gauges.push(0.0);
        }
        GaugeId(idx)
    }

    /// Handle to the histogram `name{labels}`, creating it empty.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        let key = MetricKey::new(name, labels);
        let next = self.histograms.len();
        let idx = *self.histogram_index.entry(key).or_insert(next);
        if idx == next {
            self.histograms.push(Histogram::new());
        }
        HistogramId(idx)
    }

    // ----- hot-path recording through handles -----

    /// Add `n` to a counter (saturating; see [`Counter`]).
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].add(n);
    }

    /// Add one to a counter.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].inc();
    }

    /// Set a gauge to `value`.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0] = value;
    }

    /// Record one histogram sample.
    pub fn record(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].record(value);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, id: HistogramId, d: SimDuration) {
        self.histograms[id.0].record(d.as_nanos());
    }

    /// Current value of a counter handle.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].get()
    }

    /// Current samples of a histogram handle.
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0]
    }

    // ----- absolute-fill API for exporters -----

    /// Publish a whole [`Counter`] (value plus sticky overflow flag) under
    /// `name{labels}`. Adds onto any prior fill of the same key, so fill a
    /// fresh registry per export rather than re-filling a long-lived one.
    pub fn fill_counter(&mut self, name: &str, labels: &[(&str, &str)], c: Counter) {
        let id = self.counter(name, labels);
        let mut merged = self.counters[id.0];
        merged.add(c.get());
        self.counters[id.0] = Counter::from_parts(
            merged.get(),
            merged.overflowed() || c.overflowed(),
        );
    }

    /// Publish a plain value as a counter under `name{labels}`.
    pub fn fill_counter_value(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let id = self.counter(name, labels);
        self.counters[id.0].add(value);
    }

    /// Publish a gauge value under `name{labels}` (overwrites).
    pub fn set_gauge_value(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let id = self.gauge(name, labels);
        self.gauges[id.0] = value;
    }

    /// Merge a whole histogram into `name{labels}`.
    pub fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        let id = self.histogram(name, labels);
        self.histograms[id.0].merge(h);
    }

    /// Freeze the registry's current state into an immutable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        for (key, &idx) in &self.counter_index {
            let c = self.counters[idx];
            snap.insert_counter(
                key.clone(),
                CounterValue {
                    value: c.get(),
                    overflowed: c.overflowed(),
                },
            );
        }
        for (key, &idx) in &self.gauge_index {
            snap.insert_gauge(key.clone(), self.gauges[idx]);
        }
        for (key, &idx) in &self.histogram_index {
            snap.insert_histogram(key.clone(), self.histograms[idx].clone());
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_idempotent() {
        let mut r = MetricRegistry::new();
        let a = r.counter("x", &[("server", "0")]);
        let b = r.counter("x", &[("server", "0")]);
        assert_eq!(a, b, "same key, same handle");
        let c = r.counter("x", &[("server", "1")]);
        assert_ne!(a, c);
        r.inc(a);
        r.add(b, 4);
        assert_eq!(r.counter_value(a), 5);
        assert_eq!(r.counter_value(c), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = MetricRegistry::new();
        let a = r.counter("y", &[("a", "1"), ("b", "2")]);
        let b = r.counter("y", &[("b", "2"), ("a", "1")]);
        assert_eq!(a, b);
    }

    #[test]
    fn gauges_and_histograms_record() {
        let mut r = MetricRegistry::new();
        let g = r.gauge("util", &[]);
        r.set(g, 0.75);
        let h = r.histogram("lat", &[]);
        r.record(h, 100);
        r.record_duration(h, SimDuration::from_nanos(300));
        assert_eq!(r.histogram_value(h).max(), 300, "live before a snapshot");
        let snap = r.snapshot();
        assert_eq!(snap.gauge("util", &[]), Some(0.75));
        assert_eq!(snap.histogram("lat", &[]).unwrap().count(), 2);
    }

    #[test]
    fn fill_counter_carries_overflow_flag() {
        let mut src = Counter::new();
        src.add(u64::MAX);
        src.inc(); // saturates, sets the sticky flag
        let mut r = MetricRegistry::new();
        r.fill_counter("pinned", &[], src);
        let snap = r.snapshot();
        let (v, overflowed) = snap.counter_with_flag("pinned", &[]).unwrap();
        assert_eq!(v, u64::MAX);
        assert!(overflowed);
    }
}
