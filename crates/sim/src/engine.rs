//! The discrete-event engine.
//!
//! [`Engine`] owns the clock and the pending-event set. Users define an event
//! payload type and drive the loop with a handler closure; the handler
//! receives `&mut Engine` so it can schedule follow-up events:
//!
//! ```
//! use lmp_sim::engine::Engine;
//! use lmp_sim::time::SimDuration;
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut eng = Engine::new();
//! eng.schedule_after(SimDuration::from_nanos(10), Ev::Ping(0));
//! let mut seen = Vec::new();
//! eng.run(|eng, ev| {
//!     let Ev::Ping(n) = ev;
//!     seen.push((eng.now().as_nanos(), n));
//!     if n < 2 {
//!         eng.schedule_after(SimDuration::from_nanos(5), Ev::Ping(n + 1));
//!     }
//! });
//! assert_eq!(seen, [(10, 0), (15, 1), (20, 2)]);
//! ```

use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Error returned when an absolute-time schedule lands before the engine's
/// current clock. Recoverable by contract: simulation models decide whether
/// a late schedule is a bug (propagate it) or a race to clamp to `now`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePastError {
    /// The requested (past) timestamp.
    pub at: SimTime,
    /// The engine clock at the time of the request.
    pub now: SimTime,
}

impl std::fmt::Display for SchedulePastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduling into the past: {} < {} (engine clock)",
            self.at, self.now
        )
    }
}

impl std::error::Error for SchedulePastError {}

/// A discrete-event simulation engine over event payload type `E`.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
}

// Manual impl: payloads need not be `Debug`.
impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .finish_non_exhaustive()
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Errors
    /// Returns [`SchedulePastError`] (scheduling nothing) when `at` is
    /// before the current clock — events cannot fire before `now`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> Result<EventId, SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { at, now: self.now });
        }
        Ok(self.queue.push(at, event))
    }

    /// Schedule a batch of `(time, event)` pairs in one call, returning the
    /// ids in input order. The batch is atomic: if any timestamp is in the
    /// past, *nothing* is scheduled and the first offending time is
    /// reported. This is the entry point the scatter-gather access engine
    /// uses to turn one per-holder completion list into one queue insertion
    /// pass (see `lmp_core::batch::schedule_holder_completions`).
    ///
    /// # Errors
    /// Returns [`SchedulePastError`] for the earliest-indexed pair whose
    /// time precedes the current clock; no event from the batch is queued.
    pub fn schedule_batch<I>(&mut self, items: I) -> Result<Vec<EventId>, SchedulePastError>
    where
        I: IntoIterator<Item = (SimTime, E)>,
    {
        let items: Vec<(SimTime, E)> = items.into_iter().collect();
        for (at, _) in &items {
            if *at < self.now {
                return Err(SchedulePastError {
                    at: *at,
                    now: self.now,
                });
            }
        }
        let mut ids = Vec::with_capacity(items.len());
        for (at, ev) in items {
            ids.push(self.queue.push(at, ev));
        }
        Ok(ids)
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Cancel a pending event; returns whether it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Deliver a single event, advancing the clock to its timestamp.
    /// Returns `false` when the queue is empty.
    pub fn step<F: FnMut(&mut Engine<E>, E)>(&mut self, handler: &mut F) -> bool {
        match self.queue.pop() {
            Some((at, _, ev)) => {
                debug_assert!(at >= self.now);
                self.now = at;
                self.processed += 1;
                handler(self, ev);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains.
    pub fn run<F: FnMut(&mut Engine<E>, E)>(&mut self, mut handler: F) {
        while self.step(&mut handler) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_nanos(100), Ev::Tick(1))
            .expect("future schedule");
        let mut fired = 0;
        eng.run(|eng, _| {
            fired += 1;
            assert_eq!(eng.now().as_nanos(), 100);
        });
        assert_eq!(fired, 1);
        assert_eq!(eng.events_processed(), 1);
    }

    #[test]
    fn handler_can_chain_events() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Tick(0))
            .expect("future schedule");
        let mut count = 0u32;
        eng.run(|eng, Ev::Tick(n)| {
            count += 1;
            if n < 9 {
                eng.schedule_after(SimDuration::from_nanos(1), Ev::Tick(n + 1));
            }
        });
        assert_eq!(count, 10);
        assert_eq!(eng.now().as_nanos(), 9);
    }

    #[test]
    fn schedule_in_past_is_a_recoverable_error() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_nanos(10), Ev::Tick(1))
            .expect("future schedule");
        let mut err = None;
        eng.run(|eng, _| {
            err = eng.schedule_at(SimTime::from_nanos(5), Ev::Tick(2)).err();
        });
        let err = err.expect("past schedule must be rejected");
        assert_eq!(err.at.as_nanos(), 5);
        assert_eq!(err.now.as_nanos(), 10);
        assert!(err.to_string().contains("scheduling into the past"));
        // Nothing was queued and the engine keeps working.
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.events_processed(), 1);
        assert!(eng.schedule_at(SimTime::from_nanos(11), Ev::Tick(3)).is_ok());
    }

    #[test]
    fn schedule_batch_returns_ids_in_input_order() {
        let mut eng = Engine::new();
        let ids = eng
            .schedule_batch([
                (SimTime::from_nanos(30), Ev::Tick(3)),
                (SimTime::from_nanos(10), Ev::Tick(1)),
                (SimTime::from_nanos(20), Ev::Tick(2)),
            ])
            .expect("all future");
        assert_eq!(ids.len(), 3);
        assert!(ids[0].as_u64() < ids[1].as_u64() && ids[1].as_u64() < ids[2].as_u64());
        let mut fired = Vec::new();
        eng.run(|_, Ev::Tick(n)| fired.push(n));
        assert_eq!(fired, [1, 2, 3]);
    }

    #[test]
    fn schedule_batch_is_atomic_on_error() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_nanos(10), Ev::Tick(0))
            .expect("future schedule");
        let mut outcome = None;
        eng.run(|eng, Ev::Tick(n)| {
            if n == 0 {
                outcome = Some(eng.schedule_batch([
                    (SimTime::from_nanos(20), Ev::Tick(1)),
                    (SimTime::from_nanos(3), Ev::Tick(2)), // in the past
                    (SimTime::from_nanos(30), Ev::Tick(3)),
                ]));
            }
        });
        let err = outcome
            .expect("batch attempted")
            .expect_err("past time must fail the whole batch");
        assert_eq!(err.at.as_nanos(), 3);
        // Atomic: the valid pairs were not scheduled either.
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.events_processed(), 1);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut eng = Engine::new();
        let id = eng
            .schedule_at(SimTime::from_nanos(5), Ev::Tick(1))
            .expect("future schedule");
        eng.schedule_at(SimTime::from_nanos(6), Ev::Tick(2))
            .expect("future schedule");
        assert!(eng.cancel(id));
        let mut fired = Vec::new();
        eng.run(|_, Ev::Tick(n)| fired.push(n));
        assert_eq!(fired, [2]);
    }
}
