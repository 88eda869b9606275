//! What one episode of a workload produces, and the pieces every workload
//! shares: the zipf generator and the simulated-results digest.

use crate::stats::Fnv;
use lmp_sim::prelude::*;
use lmp_telemetry::TelemetrySnapshot;
use std::collections::BTreeMap;

/// Episode switches the traced run varies.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Attach pool telemetry (instruments + spans) before the first op.
    pub telemetry: bool,
}

/// One deterministic episode: a fresh rack built from the seed's inputs,
/// then the whole op schedule.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host seconds to build the rack and populate it.
    pub setup_s: f64,
    /// Host seconds in the op loop: the sum of the timed steps, so the
    /// benchmark's own checks between steps stay out of it.
    pub loop_s: f64,
    /// Host ns per op. An entry may stand for a group of ops of equal
    /// weight (a KV batch stands for its keys), see `ops_per_entry`.
    pub op_ns: Vec<u64>,
    /// Ops each `op_ns` entry stands for.
    pub ops_per_entry: u64,
    /// Ops attempted.
    pub ops: u64,
    /// Ops served (attempted minus refused).
    pub served: u64,
    /// Simulated completion-minus-issue latency per op, sorted (ns).
    pub sim_lat: Vec<u64>,
    /// Bytes moved.
    pub bytes: u64,
    /// Bytes served from the requester's own DRAM.
    pub local_bytes: u64,
    /// Simulated span of the episode (ns).
    pub sim_ns: u64,
    /// FNV over the final snapshot JSON and the latency distribution.
    pub digest: u64,
    /// Per-layer counters read from the real rack.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Episode {
    /// Seal the simulated results: sort latencies and digest them together
    /// with the final snapshot.
    pub fn seal(&mut self, snapshot: Option<&TelemetrySnapshot>) {
        self.sim_lat.sort_unstable();
        let mut h = Fnv::default();
        if let Some(s) = snapshot {
            h.bytes(s.to_json().as_bytes());
        }
        h.u64(self.sim_lat.len() as u64);
        for &v in &self.sim_lat {
            h.u64(v);
        }
        for v in [
            self.ops,
            self.served,
            self.bytes,
            self.local_bytes,
            self.sim_ns,
        ] {
            h.u64(v);
        }
        self.digest = h.get();
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: u64, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// Exponential inter-arrival gap with mean `mean_ns`, at least 1 ns.
pub fn gap_ns(rng: &mut DetRng, mean_ns: f64) -> u64 {
    (rng.exponential(mean_ns).round() as u64).max(1)
}
