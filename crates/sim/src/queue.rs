//! Deterministic pending-event set.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with FIFO
//! tie-breaking: two events scheduled for the same instant pop in the order
//! they were pushed. That makes whole-simulation runs reproducible, which the
//! benchmark harness depends on. Pop order is exactly `(at, id)` ascending.
//!
//! It is a `BinaryHeap` of entries plus a `BTreeSet` of the ids still
//! pending: `O(log n)` push, pop and cancel. Cancellation is lazy: the id
//! leaves the set at once, and its heap entry is dropped when it surfaces.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// Identifier of a scheduled event, unique within one queue's lifetime.
///
/// Ids are the queue's monotone push sequence (the first push gets 0); the
/// id is also the FIFO tie-break between same-instant events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

impl EventId {
    /// The raw sequence number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

struct Entry<E> {
    at: SimTime,
    id: EventId,
    payload: E,
}

// Reverse ordering: BinaryHeap is a max-heap, we want earliest-first with
// lowest-id-first tie-breaking.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl<E> Eq for Entry<E> {}

/// The pending-event set behind [`crate::engine::Engine`].
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Ids currently in the heap and not cancelled.
    pending: BTreeSet<EventId>,
    next_seq: u64,
}

// Manual impl: payloads need not be `Debug`, so summarize the queue shape.
impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.pending.len())
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: BTreeSet::new(),
            next_seq: 0,
        }
    }

    /// Schedule `payload` to fire at `at`. Returns an id usable with
    /// [`EventQueue::cancel`].
    pub fn push(&mut self, at: SimTime, payload: E) -> EventId {
        let id = EventId(self.next_seq);
        self.next_seq += 1;
        self.heap.push(Entry { at, id, payload });
        self.pending.insert(id);
        id
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (it will never be delivered), `false` if it
    /// already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.pending.remove(&id)
    }

    /// Remove and return the earliest live event as `(time, id, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.pending.remove(&entry.id) {
                return Some((entry.at, entry.id, entry.payload));
            }
            // else: cancelled entry, skip it.
        }
        None
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        assert!(q.pop().is_some());
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), "a");
        q.push(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn is_empty_tracks_live_count() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.push(t(1), 0);
        assert!(!q.is_empty());
        q.cancel(a);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
