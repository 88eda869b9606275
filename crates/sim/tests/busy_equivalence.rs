// Test code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Differential equivalence tests: the prefix-total `BusyTracker` against
//! the scanning reference model.
//!
//! The reference ([`reference::LinearBusyTracker`]) is the tracker as first
//! written: every `utilization` query sums the overlap of each interval in
//! the window. These tests drive both trackers in lock-step through random
//! programs of occupy calls (zero work, idle gaps, back-to-back extension,
//! work queued to start in the future) and queries (before, inside and
//! after scheduled busy time, and at exact window edges, in any order), and
//! assert identical occupancy windows and **bit-identical** `f64`
//! utilizations. Any divergence would shift a loaded latency and with it
//! every downstream digest.

use lmp_sim::prelude::*;
use lmp_sim::rate::reference::LinearBusyTracker;
use proptest::prelude::*;

/// Window lengths exercised: degenerate, odd, and the models' own 50 µs.
const WINDOWS: [u64; 4] = [1, 7, 100, 50_000];

/// One scripted action against both trackers.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Occupy at the cursor: an idle gap, or queued behind backlog.
    Occupy { work: u64 },
    /// Zero work at the cursor (may still open an empty interval).
    ZeroWork,
    /// Arrive exactly at `busy_until`, extending the open interval.
    BackToBack { work: u64 },
    /// Arrive before `busy_until`: the work starts in the future.
    Queued { lead: u64, work: u64 },
    /// Move the cursor forward.
    Advance { by: u64 },
    /// Query at the cursor.
    QueryNow,
    /// Query before the cursor (may sit before evicted history).
    QueryBefore { back: u64 },
    /// Query inside the scheduled-but-future busy time.
    QueryInside { frac: u64 },
    /// Query well after everything scheduled.
    QueryAfter { gap: u64 },
    /// Query at a window edge of a recorded interval boundary:
    /// `edge`, `edge + window`, and one nanosecond either side.
    QueryEdge { pick: u64, shape: u64 },
}

fn decode(op: u8, a: u64, window: u64) -> Action {
    let w = window.max(1);
    match op % 12 {
        0 | 1 => Action::Occupy {
            work: a % (2 * w + 3),
        },
        2 => Action::ZeroWork,
        3 => Action::BackToBack { work: a % (w + 5) },
        4 => Action::Queued {
            lead: a % (w + 2),
            work: (a >> 20) % (w + 4),
        },
        5 | 6 => Action::Advance {
            by: a % (3 * w + 2),
        },
        7 => Action::QueryNow,
        8 => Action::QueryBefore {
            back: a % (2 * w + 2),
        },
        9 => Action::QueryInside { frac: a % 1_000 },
        10 => Action::QueryAfter {
            gap: a % (2 * w + 2),
        },
        _ => Action::QueryEdge {
            pick: a,
            shape: a >> 32,
        },
    }
}

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// Run one script on both trackers, asserting lock-step equivalence.
fn run_script(window_pick: u8, script: &[(u8, u64)]) {
    let window = WINDOWS[window_pick as usize % WINDOWS.len()];
    let mut fast = BusyTracker::new(SimDuration::from_nanos(window));
    let mut slow = LinearBusyTracker::new(SimDuration::from_nanos(window));
    let mut cursor = 0u64;
    let mut busy_until = 0u64;
    // Every interval boundary handed out so far (query-edge targets).
    let mut edges: Vec<u64> = vec![0];

    let occupy = |fast: &mut BusyTracker,
                  slow: &mut LinearBusyTracker,
                  edges: &mut Vec<u64>,
                  busy_until: &mut u64,
                  now: u64,
                  work: u64| {
        let now = t(now);
        let work = SimDuration::from_nanos(work);
        let a = fast.occupy(now, work);
        let b = slow.occupy(now, work);
        prop_assert_eq!(a, b, "occupy({:?}, {:?}) diverged", now, work);
        edges.push(a.0.as_nanos());
        edges.push(a.1.as_nanos());
        *busy_until = (*busy_until).max(a.1.as_nanos());
    };
    let query = |fast: &mut BusyTracker, slow: &mut LinearBusyTracker, at: u64| {
        let now = t(at);
        prop_assert_eq!(fast.free_at(now), slow.free_at(now));
        let a = fast.utilization(now);
        let b = slow.utilization(now);
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "utilization({}) diverged: {} vs {} (window {})",
            at,
            a,
            b,
            window
        );
    };

    for &(op, arg) in script {
        match decode(op, arg, window) {
            Action::Occupy { work } => {
                occupy(
                    &mut fast,
                    &mut slow,
                    &mut edges,
                    &mut busy_until,
                    cursor,
                    work,
                );
            }
            Action::ZeroWork => {
                occupy(&mut fast, &mut slow, &mut edges, &mut busy_until, cursor, 0);
            }
            Action::BackToBack { work } => {
                let at = busy_until;
                occupy(&mut fast, &mut slow, &mut edges, &mut busy_until, at, work);
            }
            Action::Queued { lead, work } => {
                let at = busy_until.saturating_sub(lead).max(cursor.min(busy_until));
                occupy(&mut fast, &mut slow, &mut edges, &mut busy_until, at, work);
            }
            Action::Advance { by } => cursor += by,
            Action::QueryNow => query(&mut fast, &mut slow, cursor),
            Action::QueryBefore { back } => {
                query(&mut fast, &mut slow, cursor.saturating_sub(back));
            }
            Action::QueryInside { frac } => {
                let lo = cursor.min(busy_until);
                let at = lo + (busy_until - lo) * frac / 1_000;
                query(&mut fast, &mut slow, at);
            }
            Action::QueryAfter { gap } => {
                query(&mut fast, &mut slow, busy_until + window + gap);
            }
            Action::QueryEdge { pick, shape } => {
                let edge = edges[(pick % edges.len() as u64) as usize];
                let at = match shape % 6 {
                    0 => edge,
                    1 => edge + window,
                    2 => (edge + window).saturating_sub(1),
                    3 => edge + window + 1,
                    4 => edge.saturating_sub(1),
                    _ => edge + 1,
                };
                query(&mut fast, &mut slow, at);
            }
        }
    }
    // A final sweep over every recorded edge, in order: each window edge
    // of each interval lands exactly on an eviction boundary once.
    edges.sort_unstable();
    edges.dedup();
    for &e in &edges {
        query(&mut fast, &mut slow, e + window);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random occupy/query programs give bit-identical utilizations on the
    /// prefix-total tracker and the scanning reference.
    #[test]
    fn random_programs_are_equivalent(
        window_pick in any::<u8>(),
        script in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..300),
    ) {
        run_script(window_pick, &script);
    }

    /// Dense arrivals: mostly back-to-back and queued work with queries
    /// every few steps, the shape of a saturated link.
    #[test]
    fn saturated_programs_are_equivalent(
        window_pick in any::<u8>(),
        script in proptest::collection::vec((prop_oneof![Just(3u8), Just(4u8), Just(5u8), Just(7u8), Just(11u8)], any::<u64>()), 1..400),
    ) {
        run_script(window_pick, &script);
    }
}

/// A hand-built program crossing every case once: zero work, gap,
/// extension, future start, and queries at both edges of the window.
#[test]
fn scripted_edges_match_reference() {
    let window = 100;
    let mut fast = BusyTracker::new(SimDuration::from_nanos(window));
    let mut slow = LinearBusyTracker::new(SimDuration::from_nanos(window));
    let program: [(u64, u64); 7] = [
        (0, 0),    // zero work opens an empty interval at 0
        (10, 30),  // idle gap: closes [0,0), opens [10,40)
        (40, 20),  // back-to-back: extends to [10,60)
        (45, 15),  // queued: starts at 60 in the future, [10,75)
        (200, 50), // gap: closes [10,75), opens [200,250)
        (200, 0),  // zero work inside the open interval
        (400, 10), // gap: closes [200,250), opens [400,410)
    ];
    for (now, work) in program {
        let a = fast.occupy(t(now), SimDuration::from_nanos(work));
        let b = slow.occupy(t(now), SimDuration::from_nanos(work));
        assert_eq!(a, b);
    }
    for at in [
        0, 9, 10, 40, 59, 60, 74, 75, 110, 174, 175, 176, 225, 300, 350, 351, 405, 999,
    ] {
        assert_eq!(
            fast.utilization(t(at)).to_bits(),
            slow.utilization(t(at)).to_bits(),
            "utilization({at})"
        );
    }
}
