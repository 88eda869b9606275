// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Deterministic replay of `lmp-sim::Engine`.
//!
//! A seeded workload schedules, cancels, and chains events through the
//! engine; the recorded trace of (time, event) pairs must be identical
//! across runs of the same seed, and ties at the same timestamp must
//! fire in schedule order. This is the substrate the chaos harness
//! builds on: if the engine replays, a fault plan replays.

use lmp_sim::prelude::*;
use proptest::prelude::*;

/// Run a seeded self-scheduling workload to completion and return the
/// full event trace.
fn run_workload(seed: u64) -> Vec<(u64, u32)> {
    let mut rng = DetRng::new(seed).fork("replay-workload");
    let mut eng: Engine<u32> = Engine::new();

    // Seed events at random times, including deliberate collisions.
    for i in 0..24u32 {
        let at = SimTime::from_nanos(rng.below(1_000));
        eng.schedule_at(at, i)
            .expect("fresh engine: every time is in the future");
    }
    // Schedule-then-cancel: cancelled events must not perturb the trace.
    let doomed: Vec<_> = (100..110u32)
        .map(|i| {
            eng.schedule_at(SimTime::from_nanos(rng.below(1_000)), i)
                .expect("fresh engine: every time is in the future")
        })
        .collect();
    for (j, id) in doomed.into_iter().enumerate() {
        if j % 2 == 0 {
            assert!(eng.cancel(id));
        }
    }

    let mut handler_rng = rng.fork("handler");
    let mut trace = Vec::new();
    eng.run(|eng, ev| {
        trace.push((eng.now().as_nanos(), ev));
        // Chain follow-ups with seeded decisions, bounded so it halts.
        if ev < 72 && handler_rng.chance(0.6) {
            let delay = SimDuration::from_nanos(1 + handler_rng.below(400));
            eng.schedule_after(delay, ev + 24);
        }
    });
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn same_seed_same_trace(seed in any::<u64>()) {
        let a = run_workload(seed);
        let b = run_workload(seed);
        prop_assert!(!a.is_empty());
        prop_assert_eq!(a, b);
    }
}

#[test]
fn different_seeds_diverge() {
    // Not guaranteed in principle, overwhelmingly likely in practice —
    // and a regression here would mean the seed is being ignored.
    assert_ne!(run_workload(1), run_workload(2));
}

#[test]
fn simultaneous_events_fire_in_schedule_order() {
    let mut eng: Engine<u32> = Engine::new();
    let t = SimTime::from_nanos(500);
    for i in 0..16u32 {
        eng.schedule_at(t, i)
            .expect("fresh engine: every time is in the future");
    }
    let mut seen = Vec::new();
    eng.run(|_, ev| seen.push(ev));
    assert_eq!(seen, (0..16).collect::<Vec<_>>());
}

#[test]
fn cancelled_events_never_fire() {
    let mut eng: Engine<u32> = Engine::new();
    let keep = eng
        .schedule_at(SimTime::from_nanos(10), 1)
        .expect("future schedule");
    let drop = eng
        .schedule_at(SimTime::from_nanos(5), 2)
        .expect("future schedule");
    assert!(eng.cancel(drop));
    assert!(!eng.cancel(drop), "double-cancel must report false");
    let mut seen = Vec::new();
    eng.run(|_, ev| seen.push(ev));
    assert_eq!(seen, vec![1]);
    let _ = keep;
}
