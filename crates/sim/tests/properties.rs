// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property-based tests for the simulation kernel.

use lmp_sim::prelude::*;
use proptest::prelude::*;

/// What became of an id the model handed out.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Pending,
    Fired,
    Cancelled,
}

/// The naive model [`EventQueue`] is checked against: every pending event
/// in a `Vec`, and a pop scans it for the least `(at, id)`.
#[derive(Debug, Default)]
struct Model {
    pending: Vec<(SimTime, u64, u64)>,
    /// Indexed by id; ids past its end were never issued.
    fate: Vec<Fate>,
}

impl Model {
    fn push(&mut self, at: SimTime, payload: u64) -> u64 {
        let id = self.fate.len() as u64;
        self.fate.push(Fate::Pending);
        self.pending.push((at, id, payload));
        id
    }

    fn cancel(&mut self, id: u64) -> bool {
        if self.fate.get(id as usize) != Some(&Fate::Pending) {
            return false;
        }
        self.pending.retain(|e| e.1 != id);
        self.fate[id as usize] = Fate::Cancelled;
        true
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        if self.pending.is_empty() {
            return None;
        }
        let (mut least, mut key) = (0, (SimTime::MAX, u64::MAX));
        for (i, e) in self.pending.iter().enumerate() {
            if (e.0, e.1) < key {
                (least, key) = (i, (e.0, e.1));
            }
        }
        let popped = self.pending.swap_remove(least);
        self.fate[popped.1 as usize] = Fate::Fired;
        Some(popped)
    }
}

/// What a run exercised, so a test can insist on its coverage.
#[derive(Debug, Default)]
struct Seen {
    /// Pushes earlier than the last pop.
    rewinds: u64,
    cancel_pending: u64,
    cancel_fired: u64,
    cancel_cancelled: u64,
    cancel_unknown: u64,
}

/// An [`EventQueue`] and the [`Model`] driven in lock step: every call
/// goes to both, and every answer must match.
struct Lockstep {
    queue: EventQueue<u64>,
    model: Model,
    /// `ids[k].as_u64() == k`. They come from a spare queue, so they run
    /// ahead of the ids the queue under test has issued.
    spare: EventQueue<()>,
    ids: Vec<EventId>,
    last_pop: SimTime,
    seen: Seen,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            queue: EventQueue::new(),
            model: Model::default(),
            spare: EventQueue::new(),
            ids: Vec::new(),
            last_pop: SimTime::ZERO,
            seen: Seen::default(),
        }
    }

    /// Ids issued so far.
    fn issued(&self) -> u64 {
        self.model.fate.len() as u64
    }

    fn id(&mut self, k: u64) -> EventId {
        while self.ids.len() as u64 <= k {
            self.ids.push(self.spare.push(SimTime::ZERO, ()));
        }
        self.ids[k as usize]
    }

    fn push(&mut self, at: u64, payload: u64) {
        let at = SimTime::from_nanos(at);
        if at < self.last_pop {
            self.seen.rewinds += 1;
        }
        let id = self.queue.push(at, payload);
        assert_eq!(id.as_u64(), self.model.push(at, payload), "push {payload}");
    }

    fn cancel(&mut self, k: u64) {
        let id = self.id(k);
        let seen = &mut self.seen;
        match self.model.fate.get(k as usize) {
            None => seen.cancel_unknown += 1,
            Some(Fate::Pending) => seen.cancel_pending += 1,
            Some(Fate::Fired) => seen.cancel_fired += 1,
            Some(Fate::Cancelled) => seen.cancel_cancelled += 1,
        }
        assert_eq!(self.queue.cancel(id), self.model.cancel(k), "cancel({k})");
    }

    /// Pop once; false when both sides are empty.
    fn pop(&mut self) -> bool {
        let got = self.queue.pop().map(|(at, id, p)| (at, id.as_u64(), p));
        let want = self.model.pop();
        assert_eq!(got, want, "pop");
        if let Some((at, _, _)) = got {
            self.last_pop = at;
        }
        got.is_some()
    }

    fn check_len(&self) {
        assert_eq!(self.queue.len(), self.model.pending.len(), "len");
        assert_eq!(self.queue.is_empty(), self.model.pending.is_empty(), "is_empty");
    }

    /// Pop until empty, then show both sides are.
    fn drain(&mut self) {
        while self.pop() {}
        self.check_len();
    }
}

/// Run one script of raw `(op, arg)` steps against the queue and the
/// model, checking the live count after every step.
fn run_script(script: &[(u8, u64)]) {
    let mut ls = Lockstep::new();
    for (payload, &(op, arg)) in (0u64..).zip(script) {
        match op % 10 {
            // Near pushes: dense, many ties, often before the last pop.
            0 | 1 => ls.push(arg % 4_096, payload),
            // Three pushes at one instant.
            2 => (0..3).for_each(|_| ls.push(arg % 4_096, payload)),
            // Far pushes, up to ~2^52 ns ahead.
            3 => ls.push((1 << (20 + arg % 33)) + arg % 65_536, payload),
            // An id issued up to 24 pushes ago: pending, fired or cancelled.
            4 => {
                if let Some(k) = ls.issued().checked_sub(1 + arg % 24) {
                    ls.cancel(k);
                }
            }
            // An id not issued yet.
            5 => ls.cancel(ls.issued() + arg % 4),
            6..=8 => {
                ls.pop();
            }
            // Up to four pops.
            _ => {
                for _ in 0..4 {
                    if !ls.pop() {
                        break;
                    }
                }
            }
        }
        ls.check_len();
    }
    ls.drain();
}

/// The `f64::ceil` form [`Bandwidth::time_to_transfer`] must match bit
/// for bit.
fn transfer_by_ceil(bw: Bandwidth, bytes: u64) -> SimDuration {
    if bytes == 0 {
        return SimDuration::ZERO;
    }
    if bw.bytes_per_sec() <= 0.0 {
        return SimDuration::MAX;
    }
    let ns = (bytes as f64) / bw.bytes_per_sec() * 1e9;
    if ns >= u64::MAX as f64 {
        SimDuration::MAX
    } else {
        SimDuration::from_nanos(ns.ceil() as u64)
    }
}

/// The `f64::round` form [`SimDuration::mul_f64`] must match bit for bit.
fn scale_by_round(d: SimDuration, factor: f64) -> SimDuration {
    SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64)
}

proptest! {
    /// Events always pop in non-decreasing timestamp order, and equal
    /// timestamps pop in insertion order.
    #[test]
    fn queue_pop_order_is_total(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, _, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal timestamps");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Cancelling an arbitrary subset delivers exactly the complement.
    #[test]
    fn queue_cancellation_is_exact(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_nanos(t), i))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                expect.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, _, p)) = q.pop() {
            got.push(p);
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Histogram quantiles are within ~5% relative error and bracketed by
    /// min/max for arbitrary sample sets.
    #[test]
    fn histogram_quantile_error_bounded(
        mut samples in proptest::collection::vec(1u64..1_000_000_000, 10..500),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let got = h.quantile(q);
            prop_assert!(got >= h.min() && got <= h.max());
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let err = (got as f64 - exact).abs() / exact.max(1.0);
            prop_assert!(err < 0.07, "q={q}: got {got}, exact {exact}, err {err}");
        }
    }

    /// Histogram mean/min/max/count are exact regardless of bucketing.
    #[test]
    fn histogram_moments_exact(samples in proptest::collection::vec(0u64..u32::MAX as u64, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
    }

    /// The engine delivers every scheduled event exactly once, in time order.
    #[test]
    fn engine_delivers_everything_once(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.schedule_at(SimTime::from_nanos(t), i)
                .expect("fresh engine: every time is in the future");
        }
        let mut seen = vec![false; times.len()];
        let mut last = SimTime::ZERO;
        eng.run(|eng, i| {
            assert!(!seen[i], "event {i} delivered twice");
            seen[i] = true;
            assert!(eng.now() >= last);
            last = eng.now();
        });
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(eng.events_processed(), times.len() as u64);
    }

    /// BusyTracker utilization is always in [0, 1] and monotone in load.
    #[test]
    fn busy_utilization_bounded(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let mut b = BusyTracker::new(SimDuration::from_nanos(5_000));
        let mut sorted = jobs.clone();
        sorted.sort_unstable();
        let mut horizon = SimTime::ZERO;
        for (at, work) in sorted {
            let (_, end) = b.occupy(SimTime::from_nanos(at), SimDuration::from_nanos(work));
            horizon = horizon.max(end);
        }
        let u = b.utilization(horizon);
        prop_assert!((0.0..=1.0).contains(&u), "u={u}");
    }

    /// Transfer time scales linearly with byte count.
    #[test]
    fn bandwidth_linear(gbps in 1.0f64..200.0, kb in 1u64..1_000_000) {
        let bw = Bandwidth::from_gbps(gbps);
        let one = bw.time_to_transfer(kb * 1024).as_nanos() as f64;
        let two = bw.time_to_transfer(2 * kb * 1024).as_nanos() as f64;
        // Within rounding, doubling bytes doubles time.
        prop_assert!((two / one - 2.0).abs() < 0.01, "one={one} two={two}");
    }

    /// Forked RNG streams are reproducible.
    #[test]
    fn rng_fork_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let a = DetRng::new(seed);
        let mut f1 = a.fork(&label);
        let mut f2 = a.fork(&label);
        for _ in 0..16 {
            prop_assert_eq!(rand::RngCore::next_u64(&mut f1), rand::RngCore::next_u64(&mut f2));
        }
    }

    /// The integer roundings equal the `f64::ceil`/`f64::round` forms bit
    /// for bit: on random rates, sizes and factors, and within 4,096 of
    /// 2^52 (where floats stop holding fractions), 2^53 (where they stop
    /// holding every integer) and 2^64 (where the casts saturate), with
    /// factors a few ulps either side of 1.
    #[test]
    fn integer_rounding_matches_f64_forms(
        gbps in 0.001f64..500.0,
        bytes in any::<u64>(),
        (edge, off, below) in (0usize..3, 0u64..4096, any::<bool>()),
        factor in 0.0f64..4.0,
        nudge in -4i64..5,
    ) {
        let e = [1u64 << 52, 1 << 53, u64::MAX][edge];
        let at = if below { e.saturating_sub(off) } else { e.saturating_add(off) };
        let sizes = [bytes, bytes % 1_000_000, at];
        for bw in [Bandwidth::from_gbps(gbps), Bandwidth::from_gbps(1.0), Bandwidth::ZERO] {
            for b in sizes.into_iter().chain([0]) {
                prop_assert_eq!(bw.time_to_transfer(b), transfer_by_ceil(bw, b));
            }
        }
        let near_one = f64::from_bits(1.0f64.to_bits().wrapping_add_signed(nudge));
        for d in [at, bytes >> 11, bytes % 1_000_000, bytes].map(SimDuration::from_nanos) {
            for f in [factor, near_one, 1.0, 0.5, 1.5] {
                if d.as_nanos() as f64 * f <= u64::MAX as f64 {
                    prop_assert_eq!(d.mul_f64(f), scale_by_round(d, f));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random interleavings of push, same-instant bursts, far pushes,
    /// cancels and pops match the model step by step.
    #[test]
    fn queue_matches_naive_model(
        script in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400),
    ) {
        run_script(&script);
    }
}

/// A long deterministic run: tens of thousands of events pending at once,
/// far pushes up to 2^44 ns ahead, bursts of four ties, and cancels of any
/// id issued so far, with the model checking every pop. The run must
/// exercise every kind of cancel and pushes earlier than the last pop.
#[test]
fn long_mixed_run_matches_naive_model() {
    let mut ls = Lockstep::new();
    let mut rng = DetRng::new(0x51F7_BEEF);
    for i in 0..20_000u64 {
        match rng.below(10) {
            0..=3 => ls.push(rng.below(1 << 22), i),
            4 => ls.push((1 << 30) + rng.below(1 << 44), i),
            5 => {
                let at = rng.below(1 << 12);
                (0..4).for_each(|_| ls.push(at, i));
            }
            6 => {
                let k = rng.below(ls.issued() + 4);
                ls.cancel(k);
            }
            _ => {
                ls.pop();
            }
        }
        ls.check_len();
    }
    ls.drain();
    let s = &ls.seen;
    assert!(s.rewinds > 0, "{s:?}");
    assert!(s.cancel_pending > 0 && s.cancel_fired > 0, "{s:?}");
    assert!(s.cancel_cancelled > 0 && s.cancel_unknown > 0, "{s:?}");
}
