//! Priority band queueing for a serial wire.
//!
//! A [`BandedQueue`] models one link direction's serialization backlog as
//! [`BAND_COUNT`] priority bands served by weighted water-filling: over
//! any interval the wire moves one nanosecond of work per nanosecond,
//! split among the non-empty bands in proportion to their weights. High-
//! priority traffic therefore keeps a guaranteed share under flood, while
//! a flooded band's backlog grows visibly — starvation is loud (the
//! per-band gauge climbs), never silent (weights are clamped ≥ 1, so
//! every band always drains at *some* rate).
//!
//! All state is integer nanoseconds of queued wire time; service splits
//! are exact integer products and quotients (in `u64`, widened to `u128`
//! only when a product overflows) with the truncation remainder granted
//! to the highest-priority non-empty band. Same arrivals ⇒ same
//! completions, bit-for-bit.

use lmp_sim::time::{SimDuration, SimTime};

/// Number of priority bands.
pub const BAND_COUNT: usize = 3;

/// Priority band of one fabric transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Band {
    /// Control traffic: health probes, leases, recovery coordination.
    High,
    /// Default data traffic.
    Normal,
    /// Background / bulk traffic: migration sweeps, rebuild copies.
    Low,
}

impl Band {
    /// All bands, highest priority first (index order).
    pub const ALL: [Band; BAND_COUNT] = [Band::High, Band::Normal, Band::Low];

    /// Dense index (0 = highest priority).
    pub fn index(self) -> usize {
        match self {
            Band::High => 0,
            Band::Normal => 1,
            Band::Low => 2,
        }
    }

    /// Stable label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Band::High => "high",
            Band::Normal => "normal",
            Band::Low => "low",
        }
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Service weights per band. Higher weight ⇒ larger share of the wire
/// while contended. Weights are clamped to ≥ 1 at construction so no
/// band can be silently starved forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandWeights([u64; BAND_COUNT]);

impl BandWeights {
    /// Build from `[high, normal, low]`, clamping each to ≥ 1.
    pub fn new(weights: [u64; BAND_COUNT]) -> Self {
        BandWeights([weights[0].max(1), weights[1].max(1), weights[2].max(1)])
    }

    /// Weight of one band.
    pub fn get(&self, band: Band) -> u64 {
        self.0[band.index()]
    }

    fn raw(&self) -> &[u64; BAND_COUNT] {
        &self.0
    }
}

impl Default for BandWeights {
    /// `[8, 4, 1]`: control traffic dominates, bulk trickles.
    fn default() -> Self {
        BandWeights([8, 4, 1])
    }
}

/// `⌈a · b / c⌉`, saturating at `u64::MAX`; `c > 0`. The product stays in
/// `u64` unless it overflows, and only then widens to `u128`, so both
/// paths give the same exact quotient.
fn mul_div_ceil(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p.div_ceil(c),
        None => {
            let q = (u128::from(a) * u128::from(b)).div_ceil(u128::from(c));
            u64::try_from(q).unwrap_or(u64::MAX)
        }
    }
}

/// `⌊a · b / c⌋`, saturating at `u64::MAX`; `c > 0`. Same overflow
/// fallback as [`mul_div_ceil`].
fn mul_div_floor(a: u64, b: u64, c: u64) -> u64 {
    match a.checked_mul(b) {
        Some(p) => p / c,
        None => u64::try_from(u128::from(a) * u128::from(b) / u128::from(c)).unwrap_or(u64::MAX),
    }
}

/// One service interval: advance the queues by at most `budget` ns of
/// wire time, stopping early when a band would empty mid-interval (so
/// the proportional split stays piecewise-exact). Returns the elapsed
/// nanoseconds actually advanced (0 iff every band is empty or
/// `budget` is 0).
fn service_step(q: &mut [u64; BAND_COUNT], w: &[u64; BAND_COUNT], budget: u64) -> u64 {
    let mut wsum: u64 = 0;
    for i in 0..BAND_COUNT {
        if q[i] > 0 {
            wsum = wsum.saturating_add(w[i]);
        }
    }
    if wsum == 0 || budget == 0 {
        return 0;
    }
    // Longest interval before some active band empties: min over active
    // bands of ceil(q_i · wsum / w_i).
    let mut t_empty = u64::MAX;
    for i in 0..BAND_COUNT {
        if q[i] == 0 {
            continue;
        }
        t_empty = t_empty.min(mul_div_ceil(q[i], wsum, w[i]));
    }
    let step = budget.min(t_empty);
    // Proportional shares, truncated; capped at the band's backlog.
    let mut served = [0u64; BAND_COUNT];
    let mut used = 0u64;
    for i in 0..BAND_COUNT {
        if q[i] == 0 {
            continue;
        }
        let s = mul_div_floor(step, w[i], wsum).min(q[i]);
        served[i] = s;
        used = used.saturating_add(s);
    }
    // The truncation remainder goes to the highest-priority band with
    // backlog left, keeping the wire work-conserving over the step.
    let mut left = step.saturating_sub(used);
    for i in 0..BAND_COUNT {
        if left == 0 {
            break;
        }
        let room = q[i].saturating_sub(served[i]);
        let extra = left.min(room);
        served[i] = served[i].saturating_add(extra);
        left = left.saturating_sub(extra);
    }
    for i in 0..BAND_COUNT {
        q[i] = q[i].saturating_sub(served[i]);
    }
    step
}

/// Deterministic weighted-priority serialization queue for one wire.
///
/// [`BandedQueue::occupy`] is the banded analogue of the FIFO
/// `BusyTracker::occupy`: it charges `work` nanoseconds of wire time to
/// a band and returns the `(start, done)` window the transfer occupies,
/// where `done` accounts for weighted sharing with the other bands'
/// backlogs and `start = done − work`.
#[derive(Debug, Clone)]
pub struct BandedQueue {
    weights: BandWeights,
    /// Backlog per band, in nanoseconds of wire time.
    q: [u64; BAND_COUNT],
    /// Instant the backlogs were last drained to.
    last: SimTime,
}

impl BandedQueue {
    /// An empty queue with the given weights.
    pub fn new(weights: BandWeights) -> Self {
        BandedQueue {
            weights,
            q: [0; BAND_COUNT],
            last: SimTime::ZERO,
        }
    }

    /// The configured weights.
    pub fn weights(&self) -> BandWeights {
        self.weights
    }

    /// Advance the water-filling service to `now`. A `now` in the past
    /// (same-instant events) drains nothing.
    fn drain_to(&mut self, now: SimTime) {
        let mut e = now.saturating_duration_since(self.last).as_nanos();
        while e > 0 {
            let advanced = service_step(&mut self.q, self.weights.raw(), e);
            if advanced == 0 {
                break;
            }
            e = e.saturating_sub(advanced);
        }
        if now > self.last {
            self.last = now;
        }
    }

    /// Charge `work` nanoseconds of wire time to `band` at `now`; returns
    /// the `(start, done)` occupancy window. `done` is exactly when the
    /// weighted service would finish this band's backlog (including the
    /// new work) with no further arrivals.
    pub fn occupy(&mut self, now: SimTime, band: Band, work: SimDuration) -> (SimTime, SimTime) {
        self.drain_to(now);
        let i = band.index();
        self.q[i] = self.q[i].saturating_add(work.as_nanos());
        // Predict the drain of band `i` by running the same service steps
        // forward on a copy; each step empties at least one band, so this
        // terminates within BAND_COUNT steps.
        let mut q = self.q;
        let mut t: u64 = 0;
        while q[i] > 0 {
            let advanced = service_step(&mut q, self.weights.raw(), u64::MAX);
            if advanced == 0 {
                break;
            }
            t = t.saturating_add(advanced);
        }
        let done = now + SimDuration::from_nanos(t);
        // The band drains at rate ≤ 1, so t ≥ work and start ≥ now.
        let start = done - work.min(SimDuration::from_nanos(t));
        (start, done)
    }

    /// Per-band backlog at `now` (drains first), highest priority first.
    pub fn backlogs(&mut self, now: SimTime) -> [SimDuration; BAND_COUNT] {
        self.drain_to(now);
        [
            SimDuration::from_nanos(self.q[0]),
            SimDuration::from_nanos(self.q[1]),
            SimDuration::from_nanos(self.q[2]),
        ]
    }

    /// Total backlog at `now` across all bands (drains first).
    pub fn total_backlog(&mut self, now: SimTime) -> SimDuration {
        self.drain_to(now);
        SimDuration::from_nanos(
            self.q
                .iter()
                .fold(0u64, |acc, &b| acc.saturating_add(b)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn empty_queue_serves_immediately() {
        let mut q = BandedQueue::new(BandWeights::default());
        let (start, done) = q.occupy(at(100), Band::Normal, ns(40));
        assert_eq!(start, at(100));
        assert_eq!(done, at(140));
    }

    #[test]
    fn single_band_behaves_like_fifo() {
        let mut q = BandedQueue::new(BandWeights::default());
        let (_, d1) = q.occupy(at(0), Band::Normal, ns(100));
        let (s2, d2) = q.occupy(at(0), Band::Normal, ns(50));
        assert_eq!(d1, at(100));
        assert_eq!(s2, at(100));
        assert_eq!(d2, at(150));
    }

    #[test]
    fn weighted_sharing_splits_the_wire() {
        // Equal weights across two contending bands: the second arrival
        // gets half the wire against the first's backlog, so its 100 ns
        // of work takes 200 ns wall time.
        let mut q = BandedQueue::new(BandWeights::new([1, 1, 1]));
        let (_, dh) = q.occupy(at(0), Band::High, ns(100));
        let (_, dl) = q.occupy(at(0), Band::Low, ns(100));
        assert_eq!(dh, at(100), "first arrival sees an idle wire");
        assert_eq!(dl, at(200), "second arrival shares the wire equally");
    }

    #[test]
    fn high_priority_keeps_its_share_under_flood() {
        let mut q = BandedQueue::new(BandWeights::default()); // 8:4:1
        // A huge low-band flood is already queued...
        q.occupy(at(0), Band::Low, ns(13_000));
        // ...yet barely delays high-band work: high gets 8/9 of the wire.
        let (_, dh) = q.occupy(at(0), Band::High, ns(800));
        assert_eq!(dh, at(900), "800 ns at 8/9 of the wire = 900 ns");
        // The flood is the one that waits: its backlog is still draining
        // at the instant it would have finished on an idle wire.
        assert!(q.backlogs(at(13_000))[2].as_nanos() > 0);
    }

    #[test]
    fn low_band_starves_loudly_not_silently() {
        let mut q = BandedQueue::new(BandWeights::default());
        q.occupy(at(0), Band::Low, ns(9_000));
        q.occupy(at(0), Band::High, ns(8_000));
        // Mid-contention the low backlog is visible on the gauge...
        let b = q.backlogs(at(4_500));
        assert!(b[2].as_nanos() > 0, "backlog visible: {b:?}");
        // ...but weight ≥ 1 guarantees it still drains eventually.
        let b = q.backlogs(at(60_000));
        assert_eq!(b[2], SimDuration::ZERO);
    }

    #[test]
    fn work_is_conserved() {
        // With every band contending, total drain time equals total work:
        // the wire never idles while backlog remains.
        let mut q = BandedQueue::new(BandWeights::default());
        q.occupy(at(0), Band::High, ns(300));
        q.occupy(at(0), Band::Normal, ns(500));
        let (_, done) = q.occupy(at(0), Band::Low, ns(200));
        let all_done = done.as_nanos().max(1_000);
        assert!(q.total_backlog(at(999)).as_nanos() > 0);
        assert_eq!(q.total_backlog(at(all_done)), SimDuration::ZERO);
    }

    #[test]
    fn completion_prediction_matches_drain() {
        let mut q = BandedQueue::new(BandWeights::new([8, 4, 1]));
        q.occupy(at(0), Band::Normal, ns(700));
        let (_, done) = q.occupy(at(0), Band::Low, ns(130));
        // One instant before the predicted completion the band still has
        // backlog; at the prediction it is empty.
        assert!(q.clone().backlogs(done - ns(1))[2].as_nanos() > 0);
        assert_eq!(q.backlogs(done)[2], SimDuration::ZERO);
    }

    #[test]
    fn deterministic_across_reruns() {
        let run = || {
            let mut q = BandedQueue::new(BandWeights::default());
            let mut out = Vec::new();
            for i in 0..300u64 {
                let band = Band::ALL[(i % 3) as usize];
                let (s, d) = q.occupy(at(i * 17), band, ns(11 + i % 97));
                out.push((s.as_nanos(), d.as_nanos()));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn weights_clamped_to_one() {
        let w = BandWeights::new([0, 5, 0]);
        assert_eq!(w.get(Band::High), 1);
        assert_eq!(w.get(Band::Normal), 5);
        assert_eq!(w.get(Band::Low), 1);
    }

    /// `service_step` as first written, every product and quotient in
    /// `u128`: the reference the `u64` fast path must reproduce exactly.
    fn service_step_u128(q: &mut [u64; BAND_COUNT], w: &[u64; BAND_COUNT], budget: u64) -> u64 {
        let mut wsum: u64 = 0;
        for i in 0..BAND_COUNT {
            if q[i] > 0 {
                wsum = wsum.saturating_add(w[i]);
            }
        }
        if wsum == 0 || budget == 0 {
            return 0;
        }
        let mut t_empty = u64::MAX;
        for i in 0..BAND_COUNT {
            if q[i] == 0 {
                continue;
            }
            let prod = (q[i] as u128).saturating_mul(wsum as u128);
            let t = prod.div_ceil(w[i] as u128);
            t_empty = t_empty.min(u64::try_from(t).unwrap_or(u64::MAX));
        }
        let step = budget.min(t_empty);
        let mut served = [0u64; BAND_COUNT];
        let mut used = 0u64;
        for i in 0..BAND_COUNT {
            if q[i] == 0 {
                continue;
            }
            let share = (step as u128).saturating_mul(w[i] as u128) / wsum as u128;
            let s = u64::try_from(share).unwrap_or(u64::MAX).min(q[i]);
            served[i] = s;
            used = used.saturating_add(s);
        }
        let mut left = step.saturating_sub(used);
        for i in 0..BAND_COUNT {
            if left == 0 {
                break;
            }
            let room = q[i].saturating_sub(served[i]);
            let extra = left.min(room);
            served[i] = served[i].saturating_add(extra);
            left = left.saturating_sub(extra);
        }
        for i in 0..BAND_COUNT {
            q[i] = q[i].saturating_sub(served[i]);
        }
        step
    }

    fn assert_step_matches(q: [u64; BAND_COUNT], w: [u64; BAND_COUNT], budget: u64) {
        let w = *BandWeights::new(w).raw();
        let (mut fast, mut wide) = (q, q);
        let a = service_step(&mut fast, &w, budget);
        let b = service_step_u128(&mut wide, &w, budget);
        assert_eq!((a, fast), (b, wide), "q={q:?} w={w:?} budget={budget}");
    }

    fn backlog() -> impl Strategy<Value = u64> {
        prop_oneof![
            2 => Just(0u64),
            4 => 1u64..100_000,
            3 => any::<u64>(),
            1 => (u64::MAX - 64)..u64::MAX,
        ]
    }

    fn weight() -> impl Strategy<Value = u64> {
        prop_oneof![4 => 0u64..16, 1 => any::<u64>()]
    }

    fn budget() -> impl Strategy<Value = u64> {
        prop_oneof![3 => 0u64..1_000_000, 1 => Just(u64::MAX), 1 => any::<u64>()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_048))]

        /// The `u64` fast path serves exactly what the all-`u128` formula
        /// serves, over backlogs and weights from tiny to `u64::MAX`.
        #[test]
        fn service_step_matches_u128_formula(
            q in (backlog(), backlog(), backlog()),
            w in (weight(), weight(), weight()),
            budget in budget(),
        ) {
            assert_step_matches([q.0, q.1, q.2], [w.0, w.1, w.2], budget);
        }

        /// Backlogs ≥ 2^61 against weights ≥ 8: every `q · wsum` product
        /// overflows `u64`, so each case runs the `u128` fallback.
        #[test]
        fn overflowing_products_match_u128_formula(
            q in ((1u64 << 61)..u64::MAX, (1u64 << 61)..u64::MAX, 0u64..u64::MAX),
            w in (8u64..64, 8u64..64, 8u64..64),
            budget in budget(),
        ) {
            assert_step_matches([q.0, q.1, q.2], [w.0, w.1, w.2], budget);
        }
    }

    #[test]
    fn overflow_fallback_is_exact() {
        // 2^62 · wsum(12) overflows u64. Band 0 empties first, after
        // ⌈2^62 · 12 / 8⌉ = 3 · 2^61 ns; over that step band 0 gets 8/12
        // of the wire (2^62, all of it) and band 1 gets 4/12 (2^61).
        assert!((1u64 << 62).checked_mul(12).is_none());
        let mut q = [1u64 << 62, 1u64 << 62, 0];
        let step = service_step(&mut q, &[8, 4, 1], u64::MAX);
        assert_eq!(step, 3 << 61);
        assert_eq!(q, [0, 1 << 61, 0]);
        assert_step_matches([1 << 62, 1 << 62, 0], [8, 4, 1], u64::MAX);
    }

    #[test]
    fn past_instants_do_not_rewind_service() {
        let mut q = BandedQueue::new(BandWeights::default());
        q.occupy(at(1_000), Band::Normal, ns(500));
        let before = q.clone().backlogs(at(1_000));
        // Draining "to" an earlier instant must be a no-op.
        let again = q.backlogs(at(400));
        assert_eq!(before, again);
    }
}
