//! Lease-based failure detection and epoch-versioned membership.
//!
//! Nothing in `failure.rs` *notices* a crash — recovery only runs when a
//! caller hands [`crate::failure::ProtectionManager::recover`] a segment
//! list. This module supplies the missing sensor: a heartbeat detector
//! that sweeps the rack through [`Fabric::probe`] and walks each node
//! through **Healthy → Suspected → Down** on evidence, never on a single
//! missed beat.
//!
//! The two thresholds separate a NIC flap from a crash:
//!
//! * `suspect_after` consecutive missed beats ⇒ *Suspected* (cheap, fast,
//!   reversible — any successful beat clears it);
//! * *Down* is confirmed only once no beat has succeeded for a full
//!   `lease` window. A port that flaps shorter than the lease can never
//!   be confirmed, so flaps never trigger spurious recovery.
//!
//! Confirmed transitions (Down, and later Rejoined) bump the cluster
//! [`Membership`] epoch. Recovery is tagged with the epoch it ran under,
//! and a restarted server announcing a pre-crash epoch is refused
//! resurrection of segments the pool already rebuilt (see
//! [`Membership::may_resurrect`]).

use lmp_fabric::{Fabric, FabricError, NodeId};
use lmp_sim::prelude::*;

/// Tuning knobs for the failure detector and recovery orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Interval between rack-wide probe sweeps.
    pub probe_interval: SimDuration,
    /// Consecutive missed beats before a node becomes Suspected.
    pub suspect_after: u32,
    /// A node is confirmed Down only when no beat has succeeded for this
    /// long. Must exceed the longest port flap the deployment tolerates.
    pub lease: SimDuration,
    /// Maximum segments recovered per orchestrator step (throttling, so
    /// reconstruction traffic never monopolizes the fabric).
    pub recovery_batch: usize,
    /// Interval between orchestrator steps while work is pending.
    pub recovery_tick: SimDuration,
}

impl HealthConfig {
    /// Defaults matched to the chaos scenarios: sweep every 500 ns,
    /// suspect after 2 misses (1 µs of silence), confirm after a 3 µs
    /// lease — longer than any injected flap, far shorter than a crash
    /// outage — and rebuild one segment per 500 ns tick.
    pub fn default_chaos() -> Self {
        HealthConfig {
            probe_interval: SimDuration::from_nanos(500),
            suspect_after: 2,
            lease: SimDuration::from_micros(3),
            recovery_batch: 1,
            recovery_tick: SimDuration::from_nanos(500),
        }
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self::default_chaos()
    }
}

/// Detector-side view of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Beating normally.
    Healthy,
    /// Missed `suspect_after` consecutive beats; lease still running.
    Suspected,
    /// Lease expired with no successful beat: confirmed failed.
    Down,
}

/// A confirmed or provisional health transition, in sweep order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// Consecutive misses crossed the suspicion threshold.
    Suspected {
        /// The node under suspicion.
        node: NodeId,
        /// When the threshold was crossed.
        at: SimTime,
    },
    /// A beat succeeded before the lease expired; suspicion withdrawn.
    Cleared {
        /// The node cleared.
        node: NodeId,
        /// When the clearing beat arrived.
        at: SimTime,
    },
    /// The lease expired: the node is Down and the epoch has advanced.
    /// Recovery should start now.
    ConfirmedDown {
        /// The confirmed-failed node.
        node: NodeId,
        /// Confirmation time.
        at: SimTime,
        /// The membership epoch this confirmation created.
        epoch: u64,
    },
    /// A confirmed-Down node is beating again; it rejoins under a fresh
    /// epoch (its pre-crash state stays dead — see
    /// [`Membership::may_resurrect`]).
    Rejoined {
        /// The returning node.
        node: NodeId,
        /// When its beat reappeared.
        at: SimTime,
        /// The membership epoch its rejoin created.
        epoch: u64,
    },
}

/// One probe attempt's evidence, for auditing detector decisions.
/// `ok` records whether the target echoed; attempts where the *prober*
/// could not transmit are inconclusive and never logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The probed node.
    pub node: NodeId,
    /// When the probe ran.
    pub at: SimTime,
    /// Whether the target echoed.
    pub ok: bool,
}

/// Epoch-versioned cluster membership. Every confirmed transition —
/// a node leaving (ConfirmedDown) or returning (Rejoined) — bumps the
/// epoch, giving recovery actions a total order to be tagged with.
#[derive(Debug, Clone)]
pub struct Membership {
    epoch: u64,
    /// Epoch at which each node last joined (0 = founding member).
    incarnation: Vec<u64>,
    /// Epoch at which each node was last confirmed Down, if ever.
    down_at: Vec<Option<u64>>,
}

impl Membership {
    /// A founding membership of `nodes` servers at epoch 0.
    pub fn new(nodes: u32) -> Self {
        Membership {
            epoch: 0,
            incarnation: vec![0; nodes as usize],
            down_at: vec![None; nodes as usize],
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch under which `node` last joined the cluster; `None` for
    /// a node outside the membership.
    pub fn incarnation(&self, node: NodeId) -> Option<u64> {
        self.incarnation.get(node.0 as usize).copied()
    }

    /// Whether `node` is currently confirmed out of the membership; `None`
    /// for a node outside it.
    pub fn is_down(&self, node: NodeId) -> Option<bool> {
        let i = node.0 as usize;
        let (down, incarnation) = (self.down_at.get(i)?, self.incarnation.get(i)?);
        Some(down.is_some_and(|d| d >= *incarnation))
    }

    /// Record `node` as confirmed Down; returns the new epoch. A node
    /// outside the membership changes nothing and yields `None`.
    pub fn confirm_down(&mut self, node: NodeId) -> Option<u64> {
        let down = self.down_at.get_mut(node.0 as usize)?;
        self.epoch += 1;
        *down = Some(self.epoch);
        Some(self.epoch)
    }

    /// Record `node` as rejoined under a fresh incarnation; returns the
    /// new epoch. A node outside the membership changes nothing and yields
    /// `None`.
    pub fn rejoin(&mut self, node: NodeId) -> Option<u64> {
        let incarnation = self.incarnation.get_mut(node.0 as usize)?;
        self.epoch += 1;
        *incarnation = self.epoch;
        Some(self.epoch)
    }

    /// Whether a returning `node` that last observed `claimed_epoch` may
    /// re-register the segments it claims to still hold. Only allowed when
    /// no confirmation happened after its claim — i.e. the node was never
    /// declared Down since (a suspicion that cleared does not count).
    /// After a confirmed Down, the pool has rebuilt (or written off) its
    /// segments, so a stale claim must not resurrect them. A node outside
    /// the membership may not.
    pub fn may_resurrect(&self, node: NodeId, claimed_epoch: u64) -> bool {
        match self.down_at.get(node.0 as usize) {
            Some(Some(d)) => *d <= claimed_epoch,
            Some(None) => true,
            None => false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeState {
    health: NodeHealth,
    /// Last time a probe of this node succeeded (or detector start).
    last_beat: SimTime,
    /// Consecutive missed beats since the last success.
    misses: u32,
}

/// The lease/heartbeat failure detector. Call
/// [`FailureDetector::probe_tick`] on a fixed cadence; it sweeps every
/// node and returns the health transitions the sweep produced.
#[derive(Debug)]
pub struct FailureDetector {
    cfg: HealthConfig,
    nodes: Vec<NodeState>,
    membership: Membership,
    audit: Vec<ProbeOutcome>,
    suspicions: u64,
    confirmations: u64,
}

impl FailureDetector {
    /// A detector over `nodes` servers, all Healthy, leases starting at
    /// `start`.
    pub fn new(cfg: HealthConfig, nodes: u32, start: SimTime) -> Self {
        // lmp-lint: allow(no-panic) — documented ctor precondition on
        // HealthConfig; an inverted config is a setup bug.
        assert!(cfg.suspect_after >= 1, "suspicion needs at least one miss");
        // lmp-lint: allow(no-panic) — documented ctor precondition: a lease
        // shorter than the probe interval can never be renewed.
        assert!(
            cfg.lease > cfg.probe_interval,
            "lease shorter than one probe interval confirms on any hiccup"
        );
        FailureDetector {
            cfg,
            nodes: vec![
                NodeState {
                    health: NodeHealth::Healthy,
                    last_beat: start,
                    misses: 0,
                };
                nodes as usize
            ],
            membership: Membership::new(nodes),
            audit: Vec::new(),
            suspicions: 0,
            confirmations: 0,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Current health of `node`.
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.nodes[node.0 as usize].health
    }

    /// The epoch-versioned membership view.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Total suspicions raised (including ones later cleared).
    pub fn suspicion_count(&self) -> u64 {
        self.suspicions
    }

    /// Total Down confirmations.
    pub fn confirmation_count(&self) -> u64 {
        self.confirmations
    }

    /// Every conclusive probe attempt so far, in sweep order. The
    /// lease property is auditable from this log: no node is ever
    /// confirmed Down at `t` if any `ok` probe of it landed in
    /// `(t − lease, t]`.
    pub fn probe_log(&self) -> &[ProbeOutcome] {
        &self.audit
    }

    /// One rack-wide sweep at `now`: probe every node from the lowest-id
    /// healthy peer (skipping probers whose own port cannot transmit —
    /// that is evidence about the prober, not the target) and apply the
    /// state machine. Returns the transitions in node order.
    pub fn probe_tick(&mut self, fabric: &mut Fabric, now: SimTime) -> Vec<HealthEvent> {
        let n = self.nodes.len() as u32;
        let mut events = Vec::new();
        for t in 0..n {
            let target = NodeId(t);
            // Deterministic prober choice: lowest-id node the detector
            // currently believes Healthy, falling through to the next
            // candidate when a prober's own port is down.
            let mut outcome = None;
            for p in 0..n {
                let prober = NodeId(p);
                if prober == target || self.nodes[p as usize].health != NodeHealth::Healthy {
                    continue;
                }
                match fabric.probe(now, prober, target) {
                    Ok(_) => {
                        outcome = Some(true);
                        break;
                    }
                    Err(FabricError::HolderDown(_)) => {
                        outcome = Some(false);
                        break;
                    }
                    // The prober itself could not transmit (or the probe
                    // was malformed): inconclusive for the target; try the
                    // next prober.
                    Err(FabricError::RequesterDown(_) | FabricError::Contract(_)) => continue,
                }
            }
            let Some(ok) = outcome else { continue };
            self.audit.push(ProbeOutcome {
                node: target,
                at: now,
                ok,
            });
            if ok {
                self.beat(target, now, &mut events);
            } else {
                self.miss(target, now, &mut events);
            }
        }
        events
    }

    fn beat(&mut self, node: NodeId, now: SimTime, events: &mut Vec<HealthEvent>) {
        let s = &mut self.nodes[node.0 as usize];
        s.last_beat = now;
        s.misses = 0;
        match s.health {
            NodeHealth::Healthy => {}
            NodeHealth::Suspected => {
                s.health = NodeHealth::Healthy;
                events.push(HealthEvent::Cleared { node, at: now });
            }
            NodeHealth::Down => {
                s.health = NodeHealth::Healthy;
                if let Some(epoch) = self.membership.rejoin(node) {
                    events.push(HealthEvent::Rejoined {
                        node,
                        at: now,
                        epoch,
                    });
                }
            }
        }
    }

    fn miss(&mut self, node: NodeId, now: SimTime, events: &mut Vec<HealthEvent>) {
        let lease = self.cfg.lease;
        let suspect_after = self.cfg.suspect_after;
        let s = &mut self.nodes[node.0 as usize];
        s.misses += 1;
        match s.health {
            NodeHealth::Healthy if s.misses >= suspect_after => {
                s.health = NodeHealth::Suspected;
                self.suspicions += 1;
                events.push(HealthEvent::Suspected { node, at: now });
            }
            NodeHealth::Suspected if now.duration_since(s.last_beat) >= lease => {
                s.health = NodeHealth::Down;
                self.confirmations += 1;
                if let Some(epoch) = self.membership.confirm_down(node) {
                    events.push(HealthEvent::ConfirmedDown {
                        node,
                        at: now,
                        epoch,
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::LinkProfile;

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    fn sweep_until(
        det: &mut FailureDetector,
        fabric: &mut Fabric,
        from_ns: u64,
        to_ns: u64,
    ) -> Vec<HealthEvent> {
        let step = det.config().probe_interval.as_nanos();
        let mut all = Vec::new();
        let mut t = from_ns;
        while t <= to_ns {
            all.extend(det.probe_tick(fabric, SimTime::from_nanos(t)));
            t += step;
        }
        all
    }

    #[test]
    fn crash_walks_healthy_suspected_down() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        let mut d = FailureDetector::new(HealthConfig::default_chaos(), 3, SimTime::ZERO);
        f.set_port_down(NodeId(1), true);
        let events = sweep_until(&mut d, &mut f, 500, 5_000);
        assert_eq!(d.health(NodeId(1)), NodeHealth::Down);
        // Suspected after 2 misses (1 µs), confirmed once the 3 µs lease
        // from last_beat (t=0) expired.
        assert!(matches!(
            events[0],
            HealthEvent::Suspected { node: NodeId(1), at } if at == SimTime::from_nanos(1_000)
        ));
        assert!(matches!(
            events[1],
            HealthEvent::ConfirmedDown { node: NodeId(1), at, epoch: 1 } if at == us(3)
        ));
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.membership().is_down(NodeId(1)), Some(true));
    }

    #[test]
    fn short_flap_suspects_then_clears_without_confirming() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        let mut d = FailureDetector::new(HealthConfig::default_chaos(), 3, SimTime::ZERO);
        sweep_until(&mut d, &mut f, 500, 2_000);
        f.set_port_down(NodeId(2), true);
        let ev = sweep_until(&mut d, &mut f, 2_500, 4_000);
        assert_eq!(
            ev,
            vec![HealthEvent::Suspected {
                node: NodeId(2),
                at: SimTime::from_nanos(3_000)
            }]
        );
        f.set_port_down(NodeId(2), false);
        let ev = sweep_until(&mut d, &mut f, 4_500, 5_000);
        assert_eq!(
            ev,
            vec![HealthEvent::Cleared {
                node: NodeId(2),
                at: SimTime::from_nanos(4_500)
            }]
        );
        assert_eq!(d.epoch(), 0, "no confirmation, no epoch change");
        assert_eq!(d.confirmation_count(), 0);
        assert_eq!(d.suspicion_count(), 1);
    }

    #[test]
    fn rejoin_bumps_epoch_and_blocks_resurrection() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        let mut d = FailureDetector::new(HealthConfig::default_chaos(), 3, SimTime::ZERO);
        f.set_port_down(NodeId(0), true);
        sweep_until(&mut d, &mut f, 500, 4_000);
        assert_eq!(d.health(NodeId(0)), NodeHealth::Down);
        let pre_crash_epoch = 0;
        f.set_port_down(NodeId(0), false);
        let ev = sweep_until(&mut d, &mut f, 4_500, 4_500);
        assert!(matches!(
            ev[..],
            [HealthEvent::Rejoined { node: NodeId(0), epoch: 2, .. }]
        ));
        assert_eq!(d.health(NodeId(0)), NodeHealth::Healthy);
        assert_eq!(d.membership().is_down(NodeId(0)), Some(false));
        // The node's pre-crash claim is stale: a Down confirmation
        // happened after it, so resurrection is refused.
        assert!(!d.membership().may_resurrect(NodeId(0), pre_crash_epoch));
        // Its fresh incarnation may of course register segments.
        let incarnation = d.membership().incarnation(NodeId(0)).unwrap();
        assert!(d.membership().may_resurrect(NodeId(0), incarnation));
    }

    #[test]
    fn membership_answers_for_unknown_nodes_without_changing() {
        let mut m = Membership::new(3);
        m.confirm_down(NodeId(1));
        for id in [3, 8] {
            let node = NodeId(id);
            assert_eq!(m.incarnation(node), None);
            assert_eq!(m.is_down(node), None);
            assert!(!m.may_resurrect(node, m.epoch()));
            assert_eq!(m.confirm_down(node), None);
            assert_eq!(m.rejoin(node), None);
            assert_eq!(m.epoch(), 1, "node {id}");
        }
        assert_eq!(m.is_down(NodeId(1)), Some(true));
    }

    #[test]
    fn prober_fallthrough_detects_node_zero_crash() {
        // Node 0 is the default prober; its own crash must still be
        // detected (other nodes probe it) and must not poison the
        // evidence about its peers.
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        let mut d = FailureDetector::new(HealthConfig::default_chaos(), 3, SimTime::ZERO);
        f.set_port_down(NodeId(0), true);
        sweep_until(&mut d, &mut f, 500, 4_000);
        assert_eq!(d.health(NodeId(0)), NodeHealth::Down);
        assert_eq!(d.health(NodeId(1)), NodeHealth::Healthy);
        assert_eq!(d.health(NodeId(2)), NodeHealth::Healthy);
        assert_eq!(d.confirmation_count(), 1);
    }

    #[test]
    fn probe_log_supports_lease_audit() {
        let mut f = Fabric::new(LinkProfile::link0(), 2);
        let mut d = FailureDetector::new(HealthConfig::default_chaos(), 2, SimTime::ZERO);
        f.set_port_down(NodeId(1), true);
        sweep_until(&mut d, &mut f, 500, 4_000);
        let confirmed_at = us(3);
        let lease = d.config().lease;
        assert!(d
            .probe_log()
            .iter()
            .filter(|p| p.node == NodeId(1) && p.ok)
            .all(|p| p.at + lease <= confirmed_at || p.at > confirmed_at));
    }
}
