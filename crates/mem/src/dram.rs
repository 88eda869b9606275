//! Local DRAM timing.
//!
//! One [`DramChannel`] models a server's aggregate memory system: a serial
//! resource at the socket's peak streaming bandwidth plus a loaded-latency
//! curve. The default profile is the paper's testbed (Table 1 plus §4.3):
//! Intel Xeon Gold 5120, 82 ns unloaded local latency, 97 GB/s local
//! bandwidth, and a maximum loaded local latency of ~148 ns (derived from
//! §4.3: remote max loaded latency is 2.8×/3.6× the local max for
//! Link0/Link1, i.e. 418/2.8 ≈ 527/3.6 ≈ 148 ns).

use lmp_sim::latency::LoadedLatencyCurve;
use lmp_sim::prelude::*;

/// Performance envelope of a node's local memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct DramProfile {
    /// Name used in reports.
    pub name: String,
    /// Latency vs. utilization.
    pub curve: LoadedLatencyCurve,
    /// Peak streaming bandwidth (all channels combined).
    pub bandwidth: Bandwidth,
}

impl DramProfile {
    /// Build a custom profile.
    pub fn new(name: impl Into<String>, curve: LoadedLatencyCurve, bandwidth: Bandwidth) -> Self {
        DramProfile {
            name: name.into(),
            curve,
            bandwidth,
        }
    }

    /// The paper's testbed socket: 82 ns / 97 GB/s (Table 1), max loaded
    /// latency ≈148 ns (§4.3).
    pub fn xeon_gold_5120() -> Self {
        Self::new(
            "LocalDRAM",
            LoadedLatencyCurve::from_nanos(82, 148),
            Bandwidth::from_gbps(97.0),
        )
    }
}

/// Completion report for one DRAM access batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// Instant the data is available (load) or durable (store).
    pub complete: SimTime,
    /// Loaded-latency component.
    pub latency: SimDuration,
    /// Time spent waiting for the memory system behind other traffic.
    pub queued: SimDuration,
}

/// One timed access as a channel's tape records it: what a repetition of
/// the access needs to be checked and counted without the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramCall {
    /// Windowed utilization the access observed.
    pub inst: f64,
    /// Loaded latency the access paid.
    pub latency: SimDuration,
    /// Bytes accessed.
    pub bytes: u64,
    /// Its latency-histogram sample (ns).
    pub sample: u64,
}

/// A node's local memory system as a shared serial resource.
#[derive(Debug)]
pub struct DramChannel {
    profile: DramProfile,
    busy: BusyTracker,
    util: Ewma,
    bytes: Counter,
    accesses: Counter,
    latency_hist: Histogram,
    /// Accesses since the last [`DramChannel::take_tape`], while taping
    /// is on.
    tape: Option<Vec<DramCall>>,
}

/// Utilization window; matches the fabric link window so local and remote
/// load estimates react on the same timescale.
const UTIL_WINDOW: SimDuration = SimDuration::from_micros(50);

impl DramChannel {
    /// A fresh, idle channel.
    pub fn new(profile: DramProfile) -> Self {
        DramChannel {
            profile,
            busy: BusyTracker::new(UTIL_WINDOW),
            util: Ewma::new(0.3),
            bytes: Counter::new(),
            accesses: Counter::new(),
            latency_hist: Histogram::new(),
            tape: None,
        }
    }

    /// The channel's profile.
    pub fn profile(&self) -> &DramProfile {
        &self.profile
    }

    /// Access `bytes` of local memory at `now` (load or store — the model
    /// is symmetric for streaming traffic).
    pub fn access(&mut self, now: SimTime, bytes: u64) -> DramCompletion {
        let inst = self.busy.utilization(now);
        self.util.observe(inst);
        let u = self.util.get_or(inst);
        let latency = self.profile.curve.at(u);
        let service = self.profile.bandwidth.time_to_transfer(bytes);
        let (start, done) = self.busy.occupy(now, service);
        self.bytes.add(bytes);
        self.accesses.inc();
        let complete = done + latency;
        let sample = complete.duration_since(now).as_nanos();
        self.latency_hist.record(sample);
        if let Some(tape) = &mut self.tape {
            tape.push(DramCall {
                inst,
                latency,
                bytes,
                sample,
            });
        }
        DramCompletion {
            complete,
            latency,
            queued: start.duration_since(now),
        }
    }

    /// Start (`true`) or stop recording every access for
    /// [`DramChannel::take_tape`]. Stopping drops what was not taken.
    pub fn set_taping(&mut self, on: bool) {
        self.tape = on.then(Vec::new);
    }

    /// Move the accesses recorded since the last call to the end of `out`.
    pub fn take_tape(&mut self, out: &mut Vec<DramCall>) {
        if let Some(tape) = &mut self.tape {
            out.append(tape);
        }
    }

    /// The smoothed utilization estimate feeding the latency curve.
    pub fn estimate(&self) -> Ewma {
        self.util
    }

    /// Step `estimate` through a repetition of `call` and report whether
    /// the repetition pays the recorded latency. Its utilization input is
    /// the recorded one: the caller has checked the busy schedule repeats.
    pub fn repeats(&self, estimate: &mut Ewma, call: &DramCall) -> bool {
        estimate.observe(call.inst);
        self.profile.curve.at(estimate.get_or(call.inst)) == call.latency
    }

    /// Append the busy schedule relative to `now` (see
    /// [`BusyTracker::layout`]).
    pub fn layout(&self, now: SimTime, out: &mut Vec<u64>) {
        self.busy.layout(now, out);
    }

    /// Repeat the recorded accesses `calls` `rounds` more times, the whole
    /// repetition taking `by`: count their bytes and samples, take the
    /// `estimate` stepping them left, and move the busy schedule `by`
    /// later.
    pub fn fast_forward(&mut self, calls: &[DramCall], rounds: u64, estimate: Ewma, by: SimDuration) {
        for c in calls {
            self.bytes.add(c.bytes.saturating_mul(rounds));
            self.latency_hist.record_n(c.sample, rounds);
        }
        self.accesses
            .add((calls.len() as u64).saturating_mul(rounds));
        self.util = estimate;
        self.busy.shift(by);
    }

    /// Windowed utilization in `[0, 1]`.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }

    /// Total bytes accessed.
    pub fn bytes_accessed(&self) -> u64 {
        self.bytes.get()
    }

    /// Total access batches served.
    pub fn access_count(&self) -> u64 {
        self.accesses.get()
    }

    /// Per-access completion-time distribution (ns).
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn default_profile_matches_table1() {
        let p = DramProfile::xeon_gold_5120();
        assert_eq!(p.curve.min().as_nanos(), 82);
        assert!((p.bandwidth.as_gbps() - 97.0).abs() < 1e-9);
    }

    #[test]
    fn unloaded_access_at_min_latency() {
        let mut d = DramChannel::new(DramProfile::xeon_gold_5120());
        let c = d.access(t(0), 64);
        assert_eq!(c.latency.as_nanos(), 82);
        assert_eq!(c.queued, SimDuration::ZERO);
    }

    #[test]
    fn streaming_bandwidth_caps_at_97() {
        let mut d = DramChannel::new(DramProfile::xeon_gold_5120());
        // 14 cores each issuing chunks as fast as possible.
        let chunk = 1_000_000u64;
        let mut done = t(0);
        let total = 970_000_000u64; // 10ms at 97GB/s
        for i in 0..(total / chunk) {
            let c = d.access(t(i), chunk);
            done = done.max(c.complete);
        }
        let bw = Bandwidth::measured(total, done.duration_since(t(0)));
        assert!((bw.as_gbps() - 97.0).abs() < 1.0, "bw {bw}");
    }

    #[test]
    fn latency_climbs_under_load() {
        let mut d = DramChannel::new(DramProfile::xeon_gold_5120());
        let first = d.access(t(0), 64).latency;
        let mut now = t(0);
        let mut last = first;
        for _ in 0..5_000 {
            last = d.access(now, 64 * 1024).latency;
            now += SimDuration::from_nanos(50);
        }
        assert!(last > first);
        assert!(last.as_nanos() <= 148);
    }

    #[test]
    fn counters() {
        let mut d = DramChannel::new(DramProfile::xeon_gold_5120());
        d.access(t(0), 10);
        d.access(t(0), 20);
        assert_eq!(d.bytes_accessed(), 30);
        assert_eq!(d.access_count(), 2);
    }
}
