//! Synchronization primitives on coherent memory.
//!
//! §5 proposes that applications use "scalable coordination mechanisms to
//! reduce coherence traffic on coherent memory, such as NUMA-aware
//! coordination". This module provides the ladder the paper cites: a plain
//! spinlock, a ticket lock, and a NUMA/cohort lock that prefers
//! same-server handoffs. Each returns the [`CoherenceCost`] of its region
//! traffic so the benches can compare designs by messages, not vibes.

use crate::config::NodeId;
use crate::region::{CoherenceCost, CoherentRegion, OutOfRegion};
use std::collections::VecDeque;

/// A test-and-set spinlock on one coherent word (0 = free, otherwise
/// holder's node id + 1).
#[derive(Debug, Clone, Copy)]
pub struct SpinLock {
    addr: u64,
}

impl SpinLock {
    /// A lock at coherent address `addr`.
    pub fn new(addr: u64) -> Self {
        SpinLock { addr }
    }

    /// One acquisition attempt (a CAS). Returns whether the lock was taken.
    pub fn try_acquire(
        &self,
        region: &mut CoherentRegion,
        node: NodeId,
    ) -> Result<(bool, CoherenceCost), OutOfRegion> {
        region.cas(node, self.addr, 0, node as u64 + 1)
    }

    /// Release the lock.
    ///
    /// # Panics
    /// Panics when `node` does not hold the lock — releasing someone else's
    /// lock is always a caller bug.
    pub fn release(
        &self,
        region: &mut CoherentRegion,
        node: NodeId,
    ) -> Result<CoherenceCost, OutOfRegion> {
        let (holder, mut cost) = region.load(node, self.addr)?;
        // lmp-lint: allow(no-panic) — release by a non-holder is a lock-
        // protocol violation in the workload itself; masking it as Err would
        // let a corrupt schedule keep running.
        assert_eq!(holder, node as u64 + 1, "release by non-holder {node}");
        cost.absorb(region.store(node, self.addr, 0)?);
        Ok(cost)
    }

    /// Current holder, if any.
    pub fn holder(&self, region: &mut CoherentRegion, node: NodeId) -> Option<NodeId> {
        let (v, _) = region.load(node, self.addr).ok()?;
        if v == 0 {
            None
        } else {
            Some((v - 1) as NodeId)
        }
    }
}

/// A FIFO ticket lock: two coherent words (next-ticket, now-serving).
#[derive(Debug, Clone, Copy)]
pub struct TicketLock {
    next_addr: u64,
    serving_addr: u64,
}

impl TicketLock {
    /// Place the two words at `base` and `base + stride` (use the region
    /// granularity as stride to keep them in different blocks).
    pub fn new(base: u64, stride: u64) -> Self {
        TicketLock {
            next_addr: base,
            serving_addr: base + stride,
        }
    }

    /// Draw a ticket.
    pub fn take_ticket(
        &self,
        region: &mut CoherentRegion,
        node: NodeId,
    ) -> Result<(u64, CoherenceCost), OutOfRegion> {
        region.fetch_add(node, self.next_addr, 1)
    }

    /// Check whether `ticket` is being served (one spin iteration).
    pub fn poll(
        &self,
        region: &mut CoherentRegion,
        node: NodeId,
        ticket: u64,
    ) -> Result<(bool, CoherenceCost), OutOfRegion> {
        let (serving, cost) = region.load(node, self.serving_addr)?;
        Ok((serving == ticket, cost))
    }

    /// Pass the lock to the next ticket.
    pub fn release(
        &self,
        region: &mut CoherentRegion,
        node: NodeId,
    ) -> Result<CoherenceCost, OutOfRegion> {
        let (_, cost) = region.fetch_add(node, self.serving_addr, 1)?;
        Ok(cost)
    }
}

/// A cohort (NUMA-aware) lock: a global word plus one local word per node.
/// On release, the lock prefers a waiter from the holder's own server (up
/// to `cohort_cap` consecutive local handoffs), which keeps the hot word's
/// coherence traffic on-node — the Lock-Cohorting design the paper cites.
#[derive(Debug)]
pub struct CohortLock {
    global_addr: u64,
    local_addrs: Vec<u64>,
    cohort_cap: u32,
    /// FIFO of waiting (node, thread) pairs.
    queue: VecDeque<(NodeId, u32)>,
    holder: Option<(NodeId, u32)>,
    local_streak: u32,
    local_handoffs: u64,
    global_handoffs: u64,
}

impl CohortLock {
    /// Build for `nodes` servers; words placed from `base`, one granule
    /// apart.
    pub fn new(base: u64, stride: u64, nodes: u32, cohort_cap: u32) -> Self {
        CohortLock {
            global_addr: base,
            local_addrs: (0..nodes).map(|n| base + stride * (n as u64 + 1)).collect(),
            cohort_cap,
            queue: VecDeque::new(),
            holder: None,
            local_streak: 0,
            local_handoffs: 0,
            global_handoffs: 0,
        }
    }

    /// Request the lock; grants immediately when free, otherwise queues.
    /// Returns whether the caller now holds the lock.
    pub fn acquire(
        &mut self,
        region: &mut CoherentRegion,
        node: NodeId,
        thread: u32,
    ) -> Result<(bool, CoherenceCost), OutOfRegion> {
        // Joining the queue announces intent on the local word.
        let mut cost = region.fetch_add(node, self.local_addrs[node as usize], 1)?.1;
        if self.holder.is_none() {
            // Take the global word.
            cost.absorb(region.store(node, self.global_addr, node as u64 + 1)?);
            self.holder = Some((node, thread));
            self.local_streak = 0;
            Ok((true, cost))
        } else {
            self.queue.push_back((node, thread));
            Ok((false, cost))
        }
    }

    /// Release; hands off to the preferred next waiter. Returns the new
    /// holder, if any.
    ///
    /// # Panics
    /// Panics when the releaser does not hold the lock.
    pub fn release(
        &mut self,
        region: &mut CoherentRegion,
        node: NodeId,
        thread: u32,
    ) -> Result<(Option<(NodeId, u32)>, CoherenceCost), OutOfRegion> {
        // lmp-lint: allow(no-panic) — release by a non-holder is a lock-
        // protocol violation in the workload itself; it must fail loudly
        // rather than propagate.
        assert_eq!(self.holder, Some((node, thread)), "release by non-holder");
        let mut cost = CoherenceCost::default();
        // Prefer a same-node waiter while under the cohort cap.
        let pick = if self.local_streak < self.cohort_cap {
            self.queue.iter().position(|(n, _)| *n == node)
        } else {
            None
        };
        let next = match pick {
            Some(idx) => {
                self.local_streak += 1;
                self.local_handoffs += 1;
                // Local handoff: the local word stays owned by this node —
                // cheap (a store that hits in the owner's cache).
                cost.absorb(region.store(node, self.local_addrs[node as usize], 0)?);
                self.queue.remove(idx)
            }
            None => {
                self.local_streak = 0;
                let next = self.queue.pop_front();
                if let Some((n, _)) = next {
                    self.global_handoffs += 1;
                    // Global handoff: the new node takes the global word —
                    // a remote transfer.
                    cost.absorb(region.store(n, self.global_addr, n as u64 + 1)?);
                } else {
                    cost.absorb(region.store(node, self.global_addr, 0)?);
                }
                next
            }
        };
        self.holder = next;
        Ok((next, cost))
    }

    /// Current holder.
    pub fn holder(&self) -> Option<(NodeId, u32)> {
        self.holder
    }

    /// Same-node handoffs so far.
    pub fn local_handoffs(&self) -> u64 {
        self.local_handoffs
    }

    /// Cross-node handoffs so far.
    pub fn global_handoffs(&self) -> u64 {
        self.global_handoffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceConfig;
    use lmp_sim::units::MIB;

    fn region() -> CoherentRegion {
        CoherentRegion::new(CoherenceConfig::default_lmp(), MIB)
    }

    #[test]
    fn spinlock_mutual_exclusion() {
        let mut r = region();
        let lock = SpinLock::new(0);
        let (ok, _) = lock.try_acquire(&mut r, 0).unwrap();
        assert!(ok);
        let (ok, _) = lock.try_acquire(&mut r, 1).unwrap();
        assert!(!ok, "second acquirer must fail");
        assert_eq!(lock.holder(&mut r, 2), Some(0));
        lock.release(&mut r, 0).unwrap();
        let (ok, _) = lock.try_acquire(&mut r, 1).unwrap();
        assert!(ok);
    }

    #[test]
    #[should_panic(expected = "release by non-holder")]
    fn spinlock_release_by_non_holder_panics() {
        let mut r = region();
        let lock = SpinLock::new(0);
        lock.try_acquire(&mut r, 0).unwrap();
        let _ = lock.release(&mut r, 1);
    }

    #[test]
    fn ticket_lock_is_fifo() {
        let mut r = region();
        let lock = TicketLock::new(0, 16);
        let (t0, _) = lock.take_ticket(&mut r, 0).unwrap();
        let (t1, _) = lock.take_ticket(&mut r, 1).unwrap();
        let (t2, _) = lock.take_ticket(&mut r, 2).unwrap();
        assert_eq!((t0, t1, t2), (0, 1, 2));
        assert!(lock.poll(&mut r, 0, t0).unwrap().0);
        assert!(!lock.poll(&mut r, 1, t1).unwrap().0);
        lock.release(&mut r, 0).unwrap();
        assert!(lock.poll(&mut r, 1, t1).unwrap().0);
        lock.release(&mut r, 1).unwrap();
        assert!(lock.poll(&mut r, 2, t2).unwrap().0);
    }

    #[test]
    fn cohort_lock_prefers_local_handoffs() {
        let mut r = region();
        let mut lock = CohortLock::new(0, 16, 2, 8);
        // Node 0 thread 0 holds; waiters: (1,0), (0,1), (0,2).
        assert!(lock.acquire(&mut r, 0, 0).unwrap().0);
        assert!(!lock.acquire(&mut r, 1, 0).unwrap().0);
        assert!(!lock.acquire(&mut r, 0, 1).unwrap().0);
        assert!(!lock.acquire(&mut r, 0, 2).unwrap().0);
        // Release prefers same-node waiters.
        let (next, _) = lock.release(&mut r, 0, 0).unwrap();
        assert_eq!(next, Some((0, 1)));
        let (next, _) = lock.release(&mut r, 0, 1).unwrap();
        assert_eq!(next, Some((0, 2)));
        let (next, _) = lock.release(&mut r, 0, 2).unwrap();
        assert_eq!(next, Some((1, 0)), "finally crosses nodes");
        assert_eq!(lock.local_handoffs(), 2);
        assert_eq!(lock.global_handoffs(), 1);
    }

    #[test]
    fn cohort_cap_bounds_starvation() {
        let mut r = region();
        let mut lock = CohortLock::new(0, 16, 2, 1);
        assert!(lock.acquire(&mut r, 0, 0).unwrap().0);
        assert!(!lock.acquire(&mut r, 1, 0).unwrap().0);
        assert!(!lock.acquire(&mut r, 0, 1).unwrap().0);
        // Cap 1: one local handoff allowed, then the cross-node waiter wins.
        let (next, _) = lock.release(&mut r, 0, 0).unwrap();
        assert_eq!(next, Some((0, 1)));
        let (next, _) = lock.release(&mut r, 0, 1).unwrap();
        assert_eq!(next, Some((1, 0)), "cap forces fairness");
    }

    #[test]
    fn cohort_beats_ticket_on_messages_under_clustered_contention() {
        // 2 nodes × 4 threads all contending; compare cross-node traffic.
        let mut r_ticket = region();
        let mut r_cohort = region();
        let ticket = TicketLock::new(0, 16);
        let mut cohort = CohortLock::new(1024, 16, 2, 4);

        // Ticket: threads acquire in FIFO order; node alternates, so the
        // serving word ping-pongs between nodes.
        let mut ticket_msgs = 0;
        let order = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)];
        let mut tickets = Vec::new();
        for &(n, _) in &order {
            let (t, c) = ticket.take_ticket(&mut r_ticket, n).unwrap();
            ticket_msgs += c.messages;
            tickets.push((n, t));
        }
        for &(n, _) in &order {
            ticket_msgs += ticket.release(&mut r_ticket, n).unwrap().messages;
        }

        let mut cohort_msgs = 0;
        for &(n, t) in &order {
            cohort_msgs += cohort.acquire(&mut r_cohort, n, t).unwrap().1.messages;
        }
        let mut cur = cohort.holder();
        while let Some((n, t)) = cur {
            let (next, c) = cohort.release(&mut r_cohort, n, t).unwrap();
            cohort_msgs += c.messages;
            cur = next;
        }
        assert!(
            cohort.local_handoffs() > cohort.global_handoffs(),
            "cohort lock should mostly hand off locally"
        );
        assert!(
            cohort_msgs < ticket_msgs,
            "cohort {cohort_msgs} vs ticket {ticket_msgs}"
        );
    }
}
