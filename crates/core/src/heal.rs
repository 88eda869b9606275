//! The recovery orchestrator: turns detector confirmations into
//! throttled, epoch-tagged repair work.
//!
//! When the [`crate::health::FailureDetector`] confirms a node Down, the
//! orchestrator snapshots every segment the pool still maps to that node
//! and repairs them through [`ProtectionManager::recover`] — but only
//! `recovery_batch` segments per [`RecoveryOrchestrator::step`], so
//! reconstruction traffic trickles onto the fabric instead of flooding it.
//! While a segment sits in the queue, applications are served by the
//! degraded-read path ([`ProtectionManager::read_degraded`]); the window
//! between confirmation and repair costs latency, never correctness.
//!
//! Every repair is tagged with the membership epoch its confirmation
//! created, and [`RecoveryOrchestrator::admit_rejoin`] enforces the
//! epoch rule on the way back in: a restarted server announcing a
//! pre-crash epoch cannot resurrect segments the pool already rebuilt.

use crate::addr::SegmentId;
use crate::failure::{ProtectionManager, RecoveryReport};
use crate::pool::LogicalPool;
use lmp_fabric::{Fabric, NodeId};
use lmp_sim::prelude::*;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// One completed repair batch, tagged with the epoch it ran under.
#[derive(Debug, Clone)]
pub struct TaggedRecovery {
    /// The confirmed-failed node the batch repaired.
    pub node: NodeId,
    /// Membership epoch of the Down confirmation that queued this work.
    pub epoch: u64,
    /// The segments this batch attempted (in queue order).
    pub segments: Vec<SegmentId>,
    /// What [`ProtectionManager::recover`] did with them.
    pub report: RecoveryReport,
}

/// Outcome of a restarted server's rejoin request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejoinOutcome {
    /// Whether the node's claim to its pre-restart segments was honored.
    /// Only possible when membership never confirmed it Down (a suspicion
    /// that cleared, or an operator restart faster than the lease).
    pub resurrected: bool,
    /// Segments whose stale bookkeeping was dropped because the claim was
    /// refused (already rebuilt elsewhere or written off).
    pub dropped: Vec<SegmentId>,
}

#[derive(Debug)]
struct PendingNode {
    epoch: u64,
    queue: VecDeque<SegmentId>,
}

/// Drives automatic, throttled recovery. One instance per cluster.
#[derive(Debug, Default)]
pub struct RecoveryOrchestrator {
    /// Per-node repair queues, keyed by node id for deterministic order.
    pending: BTreeMap<u32, PendingNode>,
    recoveries: u64,
}

impl RecoveryOrchestrator {
    /// An idle orchestrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// React to a Down confirmation: snapshot every segment the pool still
    /// maps to `node` and queue it for repair under `epoch`. Returns the
    /// number of segments queued. A second confirmation for the same node
    /// (crash → rejoin → crash) replaces the stale queue.
    pub fn on_confirmed_down(&mut self, pool: &LogicalPool, node: NodeId, epoch: u64) -> usize {
        let affected = pool.global_map().segments_on(node);
        let queued = affected.len();
        self.pending.insert(
            node.0,
            PendingNode {
                epoch,
                queue: affected.into(),
            },
        );
        queued
    }

    /// Whether any repair work is queued.
    pub fn has_pending(&self) -> bool {
        self.pending.values().any(|p| !p.queue.is_empty())
    }

    /// Total segments still queued across all nodes.
    pub fn pending_segments(&self) -> usize {
        self.pending.values().map(|p| p.queue.len()).sum()
    }

    /// Total repair batches executed.
    pub fn recovery_count(&self) -> u64 {
        self.recoveries
    }

    /// Run one throttled repair step at `now`: take up to `batch` segments
    /// (lowest node id first, queue order within a node) and repair them.
    /// Segments the pool no longer knows — freed, or dropped by a cold
    /// restart while queued — are skipped silently; their protection
    /// bookkeeping was already torn down with them.
    pub fn step(
        &mut self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        pm: &mut ProtectionManager,
        now: SimTime,
        batch: usize,
    ) -> Vec<TaggedRecovery> {
        if batch == 0 {
            // A zero batch makes no progress by definition.
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut budget = batch;
        let nodes: Vec<u32> = self.pending.keys().copied().collect();
        for n in nodes {
            if budget == 0 {
                break;
            }
            let Some(p) = self.pending.get_mut(&n) else {
                continue;
            };
            let mut chunk = Vec::new();
            while budget > 0 {
                let Some(seg) = p.queue.pop_front() else { break };
                if pool.segment_len(seg).is_none() {
                    continue;
                }
                chunk.push(seg);
                budget -= 1;
            }
            let epoch = p.epoch;
            if p.queue.is_empty() {
                self.pending.remove(&n);
            }
            if chunk.is_empty() {
                continue;
            }
            let report = pm.recover(pool, fabric, now, NodeId(n), &chunk);
            self.recoveries += 1;
            out.push(TaggedRecovery {
                node: NodeId(n),
                epoch,
                segments: chunk,
                report,
            });
        }
        out
    }

    /// A restarted `node` announces itself, claiming it last observed
    /// `claimed_epoch` and (when `warm`) that its memory survived intact.
    ///
    /// The epoch rule: the claim is honored only for a warm return whose
    /// epoch is not stale — no Down confirmation happened after it. In
    /// every other case the node re-enters empty: any segments the pool
    /// still maps to it are dropped (they were already rebuilt elsewhere
    /// or written off under a newer epoch), and any repair work still
    /// queued for it is cancelled.
    pub fn admit_rejoin(
        &mut self,
        pool: &mut LogicalPool,
        membership: &crate::health::Membership,
        node: NodeId,
        claimed_epoch: u64,
        warm: bool,
    ) -> RejoinOutcome {
        if warm && membership.may_resurrect(node, claimed_epoch) {
            // Honored claim: DRAM survived the outage (the crash model
            // retains contents), so clear the failed flag and every
            // segment still mapped to the node resolves again.
            pool.revive_server(node);
            return RejoinOutcome {
                resurrected: true,
                dropped: Vec::new(),
            };
        }
        let dropped = pool.global_map().segments_on(node);
        self.pending.remove(&node.0);
        pool.restart_server(node);
        RejoinOutcome {
            resurrected: false,
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LogicalAddr;
    use crate::health::{FailureDetector, HealthConfig, Membership, NodeHealth};
    use crate::pool::{Placement, PoolConfig};
    use lmp_fabric::LinkProfile;
    use lmp_mem::{DramProfile, FRAME_BYTES};

    fn setup(servers: u32) -> (LogicalPool, Fabric, ProtectionManager) {
        let cfg = PoolConfig {
            servers,
            capacity_per_server: 16 * FRAME_BYTES,
            shared_per_server: 12 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        };
        (
            LogicalPool::new(cfg),
            Fabric::new(LinkProfile::link1(), servers),
            ProtectionManager::new(),
        )
    }

    #[test]
    fn step_is_throttled_to_the_batch_size() {
        let (mut pool, mut fabric, mut pm) = setup(4);
        let t0 = SimTime::ZERO;
        let segs: Vec<_> = (0..3)
            .map(|_| pool.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap())
            .collect();
        for &s in &segs {
            pm.mirror(&mut pool, &mut fabric, t0, s).unwrap();
        }
        let affected = pool.crash_server(NodeId(0));
        fabric.set_port_down(NodeId(0), true);
        assert_eq!(affected.len(), 3);

        let mut orch = RecoveryOrchestrator::new();
        assert_eq!(orch.on_confirmed_down(&pool, NodeId(0), 1), 3);
        let mut repaired = 0;
        let mut ticks = 0;
        while orch.has_pending() {
            let done = orch.step(&mut pool, &mut fabric, &mut pm, t0, 1);
            let n: usize = done.iter().map(|d| d.segments.len()).sum();
            assert!(n <= 1, "batch bound violated: {n} in one step");
            repaired += n;
            ticks += 1;
            assert!(ticks <= 3, "more ticks than segments");
        }
        assert_eq!(repaired, 3);
        assert_eq!(orch.recovery_count(), 3);
        for &s in &segs {
            assert!(pool.read_bytes(LogicalAddr::new(s, 0), 1).is_ok());
        }
    }

    #[test]
    fn repairs_carry_their_epoch_tag() {
        let (mut pool, mut fabric, mut pm) = setup(3);
        let seg = pool.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, seg).unwrap();
        pool.crash_server(NodeId(1));
        fabric.set_port_down(NodeId(1), true);
        let mut orch = RecoveryOrchestrator::new();
        orch.on_confirmed_down(&pool, NodeId(1), 7);
        let done = orch.step(&mut pool, &mut fabric, &mut pm, SimTime::ZERO, 8);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].epoch, 7);
        assert_eq!(done[0].node, NodeId(1));
    }

    #[test]
    fn stale_epoch_rejoin_cannot_resurrect_rebuilt_segments() {
        let (mut pool, mut fabric, mut pm) = setup(4);
        let t0 = SimTime::ZERO;
        let seg = pool.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut pool, &mut fabric, t0, seg).unwrap();
        pm.write(&mut pool, LogicalAddr::new(seg, 0), b"survives").unwrap();

        let mut membership = Membership::new(4);
        let stale_epoch = membership.epoch(); // what n0 last saw
        pool.crash_server(NodeId(0));
        let epoch = membership.confirm_down(NodeId(0));
        let mut orch = RecoveryOrchestrator::new();
        orch.on_confirmed_down(&pool, NodeId(0), epoch);
        orch.step(&mut pool, &mut fabric, &mut pm, t0, 8);
        let rebuilt_home = pool.holder_of(seg).unwrap();
        assert_ne!(rebuilt_home, NodeId(0));

        // n0 returns claiming its pre-crash epoch and intact memory.
        membership.rejoin(NodeId(0));
        let out = orch.admit_rejoin(&mut pool, &membership, NodeId(0), stale_epoch, true);
        assert!(!out.resurrected, "stale claim must be refused");
        // The rebuilt copy stays authoritative at its new home.
        assert_eq!(pool.holder_of(seg), Some(rebuilt_home));
        assert_eq!(
            pool.read_bytes(LogicalAddr::new(seg, 0), 8).unwrap(),
            b"survives"
        );
    }

    #[test]
    fn never_confirmed_warm_rejoin_is_honored() {
        // A node that flapped but was never confirmed Down keeps its
        // segments: nothing was rebuilt, so its claim is current.
        let (mut pool, _fabric, _pm) = setup(3);
        let seg = pool.alloc(FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        pool.write_bytes(LogicalAddr::new(seg, 0), b"kept").unwrap();
        let membership = Membership::new(3);
        let mut orch = RecoveryOrchestrator::new();
        let out = orch.admit_rejoin(&mut pool, &membership, NodeId(2), 0, true);
        assert!(out.resurrected);
        assert!(out.dropped.is_empty());
        assert_eq!(pool.read_bytes(LogicalAddr::new(seg, 0), 4).unwrap(), b"kept");
    }

    #[test]
    fn cold_restart_while_queued_skips_dropped_segments() {
        let (mut pool, mut fabric, mut pm) = setup(3);
        let t0 = SimTime::ZERO;
        let protected = pool.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let bare = pool.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut pool, &mut fabric, t0, protected).unwrap();
        pool.crash_server(NodeId(0));
        fabric.set_port_down(NodeId(0), true);

        let mut membership = Membership::new(3);
        let epoch = membership.confirm_down(NodeId(0));
        let mut orch = RecoveryOrchestrator::new();
        assert_eq!(orch.on_confirmed_down(&pool, NodeId(0), epoch), 2);

        // Cold restart lands before any repair step ran: the unprotected
        // segment's bookkeeping is dropped with the node...
        fabric.set_port_down(NodeId(0), false);
        membership.rejoin(NodeId(0));
        let out = orch.admit_rejoin(&mut pool, &membership, NodeId(0), 0, false);
        assert!(out.dropped.contains(&bare));
        // ...and the queue was cancelled with it: no repair runs, no panic.
        let done = orch.step(&mut pool, &mut fabric, &mut pm, t0, 8);
        assert!(done.is_empty());
        assert!(!orch.has_pending());
    }

    #[test]
    fn detector_to_orchestrator_closes_the_loop() {
        // End-to-end in miniature: crash → probes miss → confirm →
        // queued → repaired, no manual recover() call with a hand-fed
        // segment list.
        let (mut pool, mut fabric, mut pm) = setup(4);
        let seg = pool.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, seg).unwrap();
        pm.write(&mut pool, LogicalAddr::new(seg, 9), b"auto").unwrap();

        let cfg = HealthConfig::default_chaos();
        let mut det = FailureDetector::new(cfg, 4, SimTime::ZERO);
        let mut orch = RecoveryOrchestrator::new();
        pool.crash_server(NodeId(1));
        fabric.set_port_down(NodeId(1), true);

        let mut t = cfg.probe_interval;
        let horizon = SimTime::from_nanos(10_000);
        let mut now = SimTime::ZERO;
        while now < horizon {
            now = SimTime::ZERO + t;
            for ev in det.probe_tick(&mut fabric, now) {
                if let crate::health::HealthEvent::ConfirmedDown { node, epoch, .. } = ev {
                    orch.on_confirmed_down(&pool, node, epoch);
                }
            }
            orch.step(&mut pool, &mut fabric, &mut pm, now, cfg.recovery_batch);
            t += cfg.probe_interval;
        }
        assert_eq!(det.health(NodeId(1)), NodeHealth::Down);
        assert_eq!(orch.recovery_count(), 1);
        assert_eq!(
            pool.read_bytes(LogicalAddr::new(seg, 9), 4).unwrap(),
            b"auto"
        );
        assert_ne!(pool.holder_of(seg), Some(NodeId(1)));
    }
}
