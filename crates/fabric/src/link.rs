//! A single directed fabric link.
//!
//! The link is a serial resource: payloads occupy its wire for
//! `bytes / bandwidth` and queue behind earlier payloads (FIFO). On top of
//! serialization, each transfer experiences the profile's loaded-latency
//! component evaluated at the link's recent utilization — this is what makes
//! the Table 2 "latency under load" sweep come out of the model rather than
//! being hard-coded.

use crate::profile::LinkProfile;
use lmp_qos::{Band, BandWeights, BandedQueue, BAND_COUNT};
use lmp_sim::prelude::*;

/// Outcome of admitting one transfer onto a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTransfer {
    /// When the payload started occupying the wire (≥ admission time when
    /// queued behind earlier payloads).
    pub start: SimTime,
    /// When the last byte left the wire.
    pub wire_done: SimTime,
    /// Protocol/propagation latency component (loaded-latency model); the
    /// payload is fully delivered at `wire_done + latency`.
    pub latency: SimDuration,
}

impl LinkTransfer {
    /// Instant the payload is fully delivered at the far end.
    pub fn delivered(&self) -> SimTime {
        self.wire_done + self.latency
    }
}

/// A directed link with FIFO serialization and load-dependent latency.
///
/// When priority bands are enabled ([`Link::enable_bands`]) the wire
/// schedule each transfer sees comes from a weighted [`BandedQueue`]
/// instead of the FIFO backlog; the FIFO [`BusyTracker`] keeps running
/// as the aggregate occupancy ledger either way (total wire work is the
/// same), so utilization and byte accounting stay consistent. Bands are
/// off by default and the FIFO path is byte-identical to the pre-QoS
/// link.
#[derive(Debug)]
pub struct Link {
    profile: LinkProfile,
    busy: BusyTracker,
    /// Weighted priority scheduling, replacing the FIFO wire schedule
    /// when enabled. `None` (the default) means strict FIFO.
    bands: Option<BandedQueue>,
    /// Smoothed utilization estimate feeding the latency curve.
    util: Ewma,
    bytes: Counter,
    transfers: Counter,
    latency_hist: Histogram,
}

/// Window over which link utilization is measured. Long enough to smooth
/// chunk granularity, short enough to react to phase changes.
const UTIL_WINDOW: SimDuration = SimDuration::from_micros(50);

impl Link {
    /// A fresh, idle link with the given profile.
    pub fn new(profile: LinkProfile) -> Self {
        Link {
            profile,
            busy: BusyTracker::new(UTIL_WINDOW),
            bands: None,
            util: Ewma::new(0.3),
            bytes: Counter::new(),
            transfers: Counter::new(),
            latency_hist: Histogram::new(),
        }
    }

    /// Switch the wire schedule from strict FIFO to weighted priority
    /// bands. Enable before traffic flows: the banded queue starts empty
    /// and does not inherit an existing FIFO backlog.
    pub fn enable_bands(&mut self, weights: BandWeights) {
        self.bands = Some(BandedQueue::new(weights));
    }

    /// Whether priority bands are enabled on this link.
    pub fn bands_enabled(&self) -> bool {
        self.bands.is_some()
    }

    /// Per-band queued wire time at `now`, highest priority first.
    /// `None` while the link runs strict FIFO.
    pub fn band_backlogs(&mut self, now: SimTime) -> Option<[SimDuration; BAND_COUNT]> {
        self.bands.as_mut().map(|b| b.backlogs(now))
    }

    /// Occupy the wire for `wire` time in `band`. The FIFO tracker is
    /// always charged — it is the aggregate occupancy ledger feeding
    /// utilization — but with bands enabled the `(start, done)` window
    /// the caller sees comes from the weighted queue.
    fn occupy_wire(&mut self, now: SimTime, wire: SimDuration, band: Band) -> (SimTime, SimTime) {
        let fifo = self.busy.occupy(now, wire);
        match &mut self.bands {
            Some(q) => q.occupy(now, band, wire),
            None => fifo,
        }
    }

    /// The link's performance profile.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// Admit a transfer of `bytes` at time `now`. The payload queues behind
    /// any payload already on the wire.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> LinkTransfer {
        // Utilization sampled *before* this transfer is admitted.
        let inst = self.busy.utilization(now);
        self.util.observe(inst);
        let u = self.util.get_or(inst);
        let latency = self.profile.curve.at(u);
        let wire = self.profile.bandwidth.time_to_transfer(bytes);
        let (start, wire_done) = self.occupy_wire(now, wire, Band::Normal);
        self.bytes.add(bytes);
        self.transfers.inc();
        let total = wire_done.duration_since(now) + latency;
        self.latency_hist.record_duration(total);
        LinkTransfer {
            start,
            wire_done,
            latency,
        }
    }

    /// Occupy the wire for `bytes` in `band` without applying the latency
    /// curve or recording a latency sample. Used by
    /// [`crate::fabric::Fabric`], which applies its end-to-end latency once
    /// per operation rather than per hop. With bands disabled (the default)
    /// the band is ignored and the schedule is the FIFO one. Returns
    /// `(start, wire_done)`.
    // Inlined: every fabric charge makes one call per wire it crosses.
    #[inline]
    pub fn transfer_wire_banded(
        &mut self,
        now: SimTime,
        bytes: u64,
        band: Band,
    ) -> (SimTime, SimTime) {
        let wire = self.profile.bandwidth.time_to_transfer(bytes);
        let (start, wire_done) = self.occupy_wire(now, wire, band);
        self.bytes.add(bytes);
        self.transfers.inc();
        (start, wire_done)
    }

    /// Append the wire's schedule relative to `now` (see
    /// [`BusyTracker::layout`]), band queues included.
    pub fn layout(&self, now: SimTime, out: &mut Vec<u64>) {
        self.busy.layout(now, out);
        if let Some(q) = &self.bands {
            q.layout(now, out);
        }
    }

    /// Repeat `transfers` already-timed transfers of `bytes` in total:
    /// count them and move the wire schedule `by` later.
    pub fn fast_forward(&mut self, bytes: u64, transfers: u64, by: SimDuration) {
        self.bytes.add(bytes);
        self.transfers.add(transfers);
        self.busy.shift(by);
        if let Some(q) = &mut self.bands {
            q.shift(by);
        }
    }

    /// Current (windowed) utilization in `[0, 1]`.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }

    /// Earliest instant a new payload could start on the wire.
    pub fn free_at(&self, now: SimTime) -> SimTime {
        self.busy.free_at(now)
    }

    /// Total bytes admitted.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes.get()
    }

    /// Total transfers admitted.
    pub fn transfer_count(&self) -> u64 {
        self.transfers.get()
    }

    /// Distribution of end-to-end per-transfer times (queueing +
    /// serialization + latency), in nanoseconds.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::LinkProfile;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn idle_link_gives_min_latency() {
        let mut link = Link::new(LinkProfile::link0());
        let tr = link.transfer(t(0), 64);
        assert_eq!(tr.start, t(0));
        assert_eq!(tr.latency.as_nanos(), 163);
    }

    #[test]
    fn payloads_serialize_fifo() {
        let mut link = Link::new(LinkProfile::link1()); // 21 GB/s
        let a = link.transfer(t(0), 2_100_000); // 100 us of wire time
        let b = link.transfer(t(0), 2_100_000);
        assert_eq!(a.start, t(0));
        assert_eq!(b.start, a.wire_done);
        assert!(b.wire_done > a.wire_done);
    }

    #[test]
    fn saturated_link_latency_climbs_toward_max() {
        let mut link = Link::new(LinkProfile::link1());
        // Hammer the link far past saturation for a while.
        let mut now = t(0);
        let mut last = SimDuration::ZERO;
        for _ in 0..2_000 {
            let tr = link.transfer(now, 64 * 1024);
            last = tr.latency;
            now += SimDuration::from_nanos(100); // offered >> capacity
        }
        let min = LinkProfile::link1().min_latency().as_nanos();
        let max = LinkProfile::link1().max_latency().as_nanos();
        assert!(
            last.as_nanos() > min + (max - min) / 2,
            "latency {last} did not climb (min {min}, max {max})"
        );
        assert!(last.as_nanos() <= max);
    }

    #[test]
    fn achieved_bandwidth_capped_at_profile() {
        let mut link = Link::new(LinkProfile::link1());
        // Offer 10x capacity for 1 ms; the last wire_done tells us the
        // achieved rate.
        let total: u64 = 210_000_000; // would take 10ms at 21GB/s
        let chunk = 1_000_000;
        let mut done = t(0);
        for i in 0..(total / chunk) {
            let tr = link.transfer(t(i), chunk);
            done = done.max(tr.wire_done);
        }
        let achieved = Bandwidth::measured(total, done.duration_since(t(0)));
        assert!(
            (achieved.as_gbps() - 21.0).abs() < 0.5,
            "achieved {achieved}"
        );
    }

    #[test]
    fn counters_track_traffic() {
        let mut link = Link::new(LinkProfile::link0());
        link.transfer(t(0), 100);
        link.transfer(t(1), 200);
        assert_eq!(link.bytes_sent(), 300);
        assert_eq!(link.transfer_count(), 2);
        assert_eq!(link.latency_histogram().count(), 2);
    }

    #[test]
    fn banded_same_band_matches_fifo() {
        // With one band carrying all traffic the weighted queue is
        // exactly FIFO, so enabling bands changes nothing for
        // single-class workloads.
        let mut fifo = Link::new(LinkProfile::link1());
        let mut banded = Link::new(LinkProfile::link1());
        banded.enable_bands(BandWeights::default());
        for i in 0..16u64 {
            let a = fifo.transfer_wire_banded(t(i * 40), 4096 + i * 128, Band::Normal);
            let b = banded.transfer_wire_banded(t(i * 40), 4096 + i * 128, Band::Normal);
            assert_eq!(a, b, "transfer {i}");
        }
        assert_eq!(fifo.bytes_sent(), banded.bytes_sent());
    }

    #[test]
    fn high_band_bypasses_low_flood() {
        let mut link = Link::new(LinkProfile::link1()); // 21 GB/s
        link.enable_bands(BandWeights::default()); // 8:4:1
        // ~100 µs of low-band flood already on the wire...
        link.transfer_wire_banded(t(0), 2_100_000, Band::Low);
        // ...a 1 µs high-band transfer still finishes in ~9/8 µs.
        let (_, done) = link.transfer_wire_banded(t(0), 21_000, Band::High);
        assert!(done < t(2_000), "high band stuck behind flood: {done}");
        // The flood's backlog is loudly visible on the band gauge.
        let b = link.band_backlogs(t(0)).unwrap();
        assert!(b[Band::Low.index()].as_nanos() > 90_000);
    }

    #[test]
    fn fifo_link_reports_no_band_backlogs() {
        let mut link = Link::new(LinkProfile::link0());
        link.transfer_wire_banded(t(0), 4096, Band::Normal);
        assert!(!link.bands_enabled());
        assert!(link.band_backlogs(t(0)).is_none());
    }

    #[test]
    fn utilization_decays_when_idle() {
        let mut link = Link::new(LinkProfile::link0());
        link.transfer(t(0), 1_000_000);
        assert!(link.utilization(t(10_000)) > 0.0);
        assert!(link.utilization(t(1_000_000_000)) < 1e-9);
    }
}
