//! Utilization measurement over sliding windows.
//!
//! Links feed their recent utilization into the loaded-latency model, so the
//! window length directly shapes how quickly latency reacts to offered load.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A closed busy interval `[start, end)` plus the busy time of every
/// closed interval before it (ns since the tracker was created).
#[derive(Debug, Clone, Copy)]
struct Closed {
    start: SimTime,
    end: SimTime,
    busy_before: u64,
}

/// Tracks the busy/idle state of a serial resource (a link direction, a DRAM
/// channel) and reports utilization over a sliding window.
///
/// The resource is modelled as busy until `busy_until`; callers extend the
/// busy period as they admit work.
///
/// Closed intervals are disjoint and sorted (each starts at or after the
/// previous one's end), and each carries the running busy total of the
/// intervals before it. Busy time inside any window is then a difference
/// of two prefix totals, each at most one binary search away, so a query
/// costs O(log n) in the number of intervals in the window instead of a
/// scan. [`reference::LinearBusyTracker`] keeps the scanning original as
/// the executable specification.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    window: SimDuration,
    /// Completed busy intervals, oldest first.
    intervals: VecDeque<Closed>,
    /// Busy time of every interval ever closed.
    closed_busy: u64,
    busy_until: SimTime,
    busy_from: SimTime,
    has_open: bool,
}

impl BusyTracker {
    /// A tracker with the given utilization window.
    ///
    /// # Panics
    /// Panics on a zero-length window.
    pub fn new(window: SimDuration) -> Self {
        // lmp-lint: allow(no-panic) — documented `# Panics` ctor precondition;
        // a zero-length window divides by zero.
        assert!(!window.is_zero(), "zero-length utilization window");
        BusyTracker {
            window,
            intervals: VecDeque::new(),
            closed_busy: 0,
            busy_until: SimTime::ZERO,
            busy_from: SimTime::ZERO,
            has_open: false,
        }
    }

    /// The earliest instant the resource is free at or after `now`.
    pub fn free_at(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }

    /// Occupy the resource for `work` starting no earlier than `now`.
    /// Returns the interval `(start, end)` the work occupies.
    pub fn occupy(&mut self, now: SimTime, work: SimDuration) -> (SimTime, SimTime) {
        let start = self.free_at(now);
        let end = start + work;
        if self.has_open && start == self.busy_until {
            // Extend the open interval.
            self.busy_until = end;
        } else {
            if self.has_open {
                self.intervals.push_back(Closed {
                    start: self.busy_from,
                    end: self.busy_until,
                    busy_before: self.closed_busy,
                });
                self.closed_busy += self.busy_until.duration_since(self.busy_from).as_nanos();
            }
            self.busy_from = start;
            self.busy_until = end;
            self.has_open = true;
        }
        (start, end)
    }

    /// Append the part of the busy schedule that utilization queries and
    /// admissions at or after `now` can see, relative to `now`: the window
    /// span, then each busy interval ending after `now - window` (closed
    /// ones first, clipped to the window start) as `(start, end)` offsets
    /// from the window start. Two trackers whose layouts at `a` and `b`
    /// are equal answer every query at `a + d` and `b + d` alike.
    pub fn layout(&self, now: SimTime, out: &mut Vec<u64>) {
        let from = now.as_nanos().saturating_sub(self.window.as_nanos());
        out.push(now.as_nanos() - from);
        let count = out.len();
        out.push(0);
        let mut push = |start: SimTime, end: SimTime| {
            if end.as_nanos() > from {
                out.push(start.as_nanos().max(from) - from);
                out.push(end.as_nanos() - from);
                out[count] += 1;
            }
        };
        let live = self
            .intervals
            .partition_point(|c| c.end.as_nanos() <= from);
        for c in self.intervals.range(live..) {
            push(c.start, c.end);
        }
        if self.has_open {
            push(self.busy_from, self.busy_until);
        }
    }

    /// Move the whole busy schedule `by` later: the state a resource
    /// reaches when the same occupancy pattern repeats `by` later. Busy
    /// totals keep their differences, so utilization is unchanged
    /// relative to the shifted schedule.
    pub fn shift(&mut self, by: SimDuration) {
        for c in &mut self.intervals {
            c.start += by;
            c.end += by;
        }
        self.busy_from += by;
        self.busy_until += by;
    }

    /// Closed busy time before instant `t`: the running total up to the
    /// first interval not yet over at `t`, plus that interval's part before
    /// `t`. Later intervals start at or after its end, so they add nothing.
    /// The two common cases skip the search: every interval is over (`t`
    /// is `now`), or none is (`t` is the window start, after eviction).
    fn closed_busy_before(&self, t: SimTime) -> u64 {
        let over = |c: &Closed| c.end <= t;
        let k = match (self.intervals.front(), self.intervals.back()) {
            (Some(first), _) if !over(first) => 0,
            (_, Some(last)) if !over(last) => self.intervals.partition_point(over),
            _ => return self.closed_busy,
        };
        match self.intervals.get(k) {
            Some(c) => c.busy_before + t.saturating_duration_since(c.start).as_nanos(),
            None => self.closed_busy,
        }
    }

    /// Fraction of the window `[now - window, now]` the resource was busy,
    /// in `[0, 1]`. Busy time scheduled beyond `now` is not counted.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        let window_start =
            SimTime::from_nanos(now.as_nanos().saturating_sub(self.window.as_nanos()));
        // Evict intervals entirely before the window.
        while self
            .intervals
            .front()
            .is_some_and(|c| c.end <= window_start)
        {
            self.intervals.pop_front();
        }
        let mut busy = self.closed_busy_before(now) - self.closed_busy_before(window_start);
        if self.has_open {
            let s = self.busy_from.max(window_start);
            let e = self.busy_until.min(now);
            if e > s {
                busy += e.duration_since(s).as_nanos();
            }
        }
        let span = now
            .duration_since(window_start)
            .as_nanos()
            .min(self.window.as_nanos());
        if span == 0 {
            return 0.0;
        }
        (busy as f64 / span as f64).clamp(0.0, 1.0)
    }
}

/// The original scanning tracker, kept as a reference model.
pub mod reference {
    use crate::time::{SimDuration, SimTime};
    use std::collections::VecDeque;

    /// [`super::BusyTracker`] as first written: `utilization` evicts
    /// intervals that left the window, then sums the overlap of every
    /// remaining interval with it. O(n) per query in the intervals inside
    /// the window; it is the executable specification the prefix-total
    /// tracker is tested against, bit for bit.
    #[derive(Debug, Clone)]
    pub struct LinearBusyTracker {
        window: SimDuration,
        /// Completed busy intervals (start, end), oldest first.
        intervals: VecDeque<(SimTime, SimTime)>,
        busy_until: SimTime,
        busy_from: SimTime,
        has_open: bool,
    }

    impl LinearBusyTracker {
        /// A tracker with the given utilization window. Unlike
        /// [`super::BusyTracker::new`] it accepts a zero-length window,
        /// which always reads as idle.
        pub fn new(window: SimDuration) -> Self {
            LinearBusyTracker {
                window,
                intervals: VecDeque::new(),
                busy_until: SimTime::ZERO,
                busy_from: SimTime::ZERO,
                has_open: false,
            }
        }

        /// The earliest instant the resource is free at or after `now`.
        pub fn free_at(&self, now: SimTime) -> SimTime {
            self.busy_until.max(now)
        }

        /// Occupy the resource for `work` starting no earlier than `now`.
        pub fn occupy(&mut self, now: SimTime, work: SimDuration) -> (SimTime, SimTime) {
            let start = self.free_at(now);
            let end = start + work;
            if self.has_open && start == self.busy_until {
                self.busy_until = end;
            } else {
                if self.has_open {
                    self.intervals.push_back((self.busy_from, self.busy_until));
                }
                self.busy_from = start;
                self.busy_until = end;
                self.has_open = true;
            }
            (start, end)
        }

        /// Fraction of the window `[now - window, now]` the resource was
        /// busy, in `[0, 1]`.
        pub fn utilization(&mut self, now: SimTime) -> f64 {
            let window_start =
                SimTime::from_nanos(now.as_nanos().saturating_sub(self.window.as_nanos()));
            while let Some(&(_, end)) = self.intervals.front() {
                if end <= window_start {
                    self.intervals.pop_front();
                } else {
                    break;
                }
            }
            let mut busy = 0u64;
            for &(s, e) in &self.intervals {
                let s = s.max(window_start);
                let e = e.min(now);
                if e > s {
                    busy += e.duration_since(s).as_nanos();
                }
            }
            if self.has_open {
                let s = self.busy_from.max(window_start);
                let e = self.busy_until.min(now);
                if e > s {
                    busy += e.duration_since(s).as_nanos();
                }
            }
            let span = now
                .duration_since(window_start)
                .as_nanos()
                .min(self.window.as_nanos());
            if span == 0 {
                return 0.0;
            }
            (busy as f64 / span as f64).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn busy_tracker_serializes_work() {
        let mut b = BusyTracker::new(d(1_000));
        let (s1, e1) = b.occupy(t(0), d(10));
        assert_eq!((s1, e1), (t(0), t(10)));
        // Second job queued behind the first.
        let (s2, e2) = b.occupy(t(5), d(10));
        assert_eq!((s2, e2), (t(10), t(20)));
        // Job after idle gap starts immediately.
        let (s3, _) = b.occupy(t(100), d(10));
        assert_eq!(s3, t(100));
    }

    #[test]
    fn utilization_full_and_idle() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(100));
        assert!((b.utilization(t(100)) - 1.0).abs() < 1e-9);
        // After a long idle stretch utilization decays to 0.
        assert!(b.utilization(t(1_000)) < 1e-9);
    }

    #[test]
    fn utilization_half_busy() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(50));
        let u = b.utilization(t(100));
        assert!((u - 0.5).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn utilization_ignores_future_busy_time() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(1_000)); // busy far into the future
        let u = b.utilization(t(50));
        assert!((u - 1.0).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn utilization_with_gaps() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(20)); // [0,20)
        b.occupy(t(40), d(20)); // [40,60)
        b.occupy(t(80), d(20)); // [80,100)
        let u = b.utilization(t(100));
        assert!((u - 0.6).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn utilization_clips_closed_intervals_at_both_window_edges() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(50)); // [0,50): straddles the window start at 100
        b.occupy(t(120), d(60)); // [120,180): straddles `now` at 150
        b.occupy(t(300), d(10)); // closes [120,180); open [300,310) is future
        let u = b.utilization(t(150));
        // Busy inside [50,150]: 30 ns of [120,180) only.
        assert!((u - 0.3).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn shifted_tracker_answers_like_a_repeated_one() {
        // One tracker runs the same pattern twice, 1 µs apart; the other
        // runs it once and is shifted. Their answers match from then on.
        let pattern = |b: &mut BusyTracker, base: u64| {
            for (at, work) in [(0, 30), (10, 20), (80, 15), (200, 40)] {
                b.utilization(t(base + at));
                b.occupy(t(base + at), d(work));
            }
        };
        let mut stepped = BusyTracker::new(d(100));
        pattern(&mut stepped, 0);
        pattern(&mut stepped, 1_000);
        let mut shifted = BusyTracker::new(d(100));
        pattern(&mut shifted, 0);
        shifted.shift(d(1_000));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        stepped.layout(t(1_240), &mut a);
        shifted.layout(t(1_240), &mut b);
        assert_eq!(a, b);
        for at in [1_200, 1_230, 1_250, 1_300, 1_400] {
            assert_eq!(stepped.utilization(t(at)), shifted.utilization(t(at)), "{at}");
            assert_eq!(stepped.free_at(t(at)), shifted.free_at(t(at)));
        }
        assert_eq!(stepped.occupy(t(1_245), d(5)), shifted.occupy(t(1_245), d(5)));
    }

    #[test]
    fn layout_sees_only_the_window_and_the_future() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(10)); // out of the window at 500
        b.occupy(t(420), d(30)); // clipped: [420, 450) seen from 400
        b.occupy(t(480), d(100)); // open, ends in the future
        let mut out = Vec::new();
        b.layout(t(500), &mut out);
        assert_eq!(out, vec![100, 2, 20, 50, 80, 180]);
    }

    #[test]
    fn utilization_empty_window_is_zero() {
        let mut b = BusyTracker::new(d(100));
        assert_eq!(b.utilization(t(0)), 0.0);
    }
}
