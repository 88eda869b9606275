//! Failure domains and domain-aware placement.
//!
//! At datacenter scale the correlated version of a server crash is a whole
//! rack: a ToR switch or PDU loss downs every host behind it at once.
//! Host-level exclusion ("a replica never lives on its primary's server")
//! cannot mask that — both copies can sit behind the same ToR. This module
//! makes the failure-domain hierarchy explicit:
//!
//! ```text
//! datacenter ─┬─ rack 0 ─┬─ host 0
//!             │          ├─ host 1
//!             │          └─ host 2
//!             └─ rack 1 ─┬─ host 3
//!                        └─ …
//! ```
//!
//! * [`DomainMap`] — which rack each host belongs to.
//! * [`PlacementPolicy`] — where a replica, parity segment, or rebuilt
//!   segment may land. `HostOnly` reproduces the original
//!   `pick_other_server` exclusion byte for byte; `DomainAware` first
//!   excludes every host sharing a rack with an excluded host, and only
//!   when capacity forces it falls back toward weaker independence —
//!   **loudly**, via [`PlacementDecision::lost`], never silently.
//!
//! The policy itself never panics and never errors: impossible placement is
//! `None`, weakened placement carries the [`DomainLevel`] that was given up,
//! and callers (the protection manager) turn those into recoverable
//! `PoolError`s and telemetry bumps.

use crate::pool::LogicalPool;
use lmp_fabric::NodeId;
use lmp_mem::FRAME_BYTES;

/// Which rack every host belongs to: the explicit (datacenter → rack →
/// host) hierarchy, host-indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainMap {
    /// `rack_of[h]` = rack of host `h`.
    rack_of: Vec<u32>,
    racks: u32,
}

impl DomainMap {
    /// Every host in one rack — the degenerate single-rack datacenter,
    /// under which `DomainAware` placement collapses to `HostOnly`
    /// semantics (rack exclusion would exclude everything, so the fallback
    /// tier always decides).
    pub fn single_rack(hosts: u32) -> Self {
        DomainMap {
            rack_of: vec![0; hosts as usize],
            racks: 1,
        }
    }

    /// `racks × hosts_per_rack` hosts, rack-major: host `h` lives in rack
    /// `h / hosts_per_rack`. Zero sizes are clamped to one — an empty
    /// hierarchy is never useful and this module must not panic.
    pub fn uniform(racks: u32, hosts_per_rack: u32) -> Self {
        let racks = racks.max(1);
        let per = hosts_per_rack.max(1);
        DomainMap {
            rack_of: (0..racks * per).map(|h| h / per).collect(),
            racks,
        }
    }

    /// An explicit host → rack assignment (racks may be ragged). The rack
    /// count is `max(assignment) + 1`; an empty assignment becomes the
    /// one-host single rack.
    pub fn from_assignment(rack_of: Vec<u32>) -> Self {
        if rack_of.is_empty() {
            return DomainMap::single_rack(1);
        }
        let racks = rack_of.iter().copied().max().unwrap_or(0).saturating_add(1);
        DomainMap { rack_of, racks }
    }

    /// Total hosts covered by the map.
    pub fn hosts(&self) -> u32 {
        self.rack_of.len() as u32
    }

    /// Number of racks.
    pub fn racks(&self) -> u32 {
        self.racks
    }

    /// The rack `node` belongs to. Hosts beyond the map (a pool larger
    /// than the hierarchy describes) fold into rack 0 rather than panic.
    pub fn rack_of(&self, node: NodeId) -> u32 {
        self.rack_of.get(node.0 as usize).copied().unwrap_or(0)
    }

    /// All hosts in `rack`, ascending.
    pub fn hosts_in(&self, rack: u32) -> Vec<NodeId> {
        self.rack_of
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == rack)
            .map(|(h, _)| NodeId(h as u32))
            .collect()
    }

    /// Whether two hosts share a failure domain above the host level.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }
}

/// A level of the failure-domain hierarchy that a placement had to give
/// up. Ordered by blast radius: losing rack independence is survivable by
/// a host crash but not a rack loss; losing host independence means one
/// host crash can take multiple group members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DomainLevel {
    /// Members share a rack (but still distinct hosts).
    Rack,
    /// Members share a host — the weakest placement that still holds data.
    Host,
}

impl DomainLevel {
    /// Label used for the `placement.independence_lost{domain}` counter.
    pub fn label(&self) -> &'static str {
        match self {
            DomainLevel::Rack => "rack",
            DomainLevel::Host => "host",
        }
    }
}

/// Where a member may land, and what independence (if any) the placement
/// gave up to exist at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementDecision {
    /// The chosen server.
    pub target: NodeId,
    /// `None` = full independence at this policy's strongest level;
    /// `Some(level)` = capacity forced co-location within `level`.
    pub lost: Option<DomainLevel>,
}

/// How mirror/parity members and recovery targets are placed relative to
/// the segments they protect.
#[derive(Debug, Clone, Default)]
pub enum PlacementPolicy {
    /// The original behavior: exclude exactly the listed hosts. Recovery
    /// may fall back to *any* live host (reported as lost host-level
    /// independence), initial protection may not.
    #[default]
    HostOnly,
    /// Exclude every host that shares a rack with a listed host; fall back
    /// tier by tier (rack independence, then host independence) only when
    /// capacity forces it, reporting each surrendered level.
    DomainAware(DomainMap),
}

impl PlacementPolicy {
    /// The domain map, when the policy carries one.
    pub fn domains(&self) -> Option<&DomainMap> {
        match self {
            PlacementPolicy::HostOnly => None,
            PlacementPolicy::DomainAware(d) => Some(d),
        }
    }

    /// Expand `exclude` to the full blast radius this policy defends
    /// against: for `DomainAware`, every host sharing a rack with an
    /// excluded host.
    fn expanded_exclude(&self, pool: &LogicalPool, exclude: &[NodeId]) -> Vec<NodeId> {
        match self {
            PlacementPolicy::HostOnly => exclude.to_vec(),
            PlacementPolicy::DomainAware(map) => (0..pool.servers())
                .map(NodeId)
                .filter(|n| exclude.iter().any(|e| map.same_rack(*n, *e)))
                .collect(),
        }
    }

    /// Place a *new* protection member (mirror replica or parity segment)
    /// of `len` bytes, excluding the group's existing homes. `None` means
    /// no live server can take it even with independence surrendered.
    pub fn place_member(
        &self,
        pool: &LogicalPool,
        len: u64,
        exclude: &[NodeId],
    ) -> Option<PlacementDecision> {
        match self {
            // Original semantics: host exclusion, no fallback — initial
            // protection never silently co-locates.
            PlacementPolicy::HostOnly => pick(pool, len, exclude).map(|target| {
                PlacementDecision {
                    target,
                    lost: None,
                }
            }),
            PlacementPolicy::DomainAware(_) => {
                let wide = self.expanded_exclude(pool, exclude);
                if let Some(target) = pick(pool, len, &wide) {
                    return Some(PlacementDecision { target, lost: None });
                }
                // Not enough racks (or rack capacity): degrade to host
                // independence, loudly.
                pick(pool, len, exclude).map(|target| PlacementDecision {
                    target,
                    lost: Some(DomainLevel::Rack),
                })
            }
        }
    }

    /// Place a *rebuilt* segment during recovery, excluding the surviving
    /// group homes. Unlike [`Self::place_member`], recovery prefers
    /// degraded placement over data loss, so the final fallback accepts
    /// co-location with a survivor (lost host-level independence).
    pub fn place_recovery(
        &self,
        pool: &LogicalPool,
        len: u64,
        exclude: &[NodeId],
    ) -> Option<PlacementDecision> {
        match self {
            PlacementPolicy::HostOnly => {
                if let Some(target) = pick(pool, len, exclude) {
                    return Some(PlacementDecision { target, lost: None });
                }
                pick(pool, len, &[]).map(|target| PlacementDecision {
                    target,
                    lost: Some(DomainLevel::Host),
                })
            }
            PlacementPolicy::DomainAware(_) => {
                let wide = self.expanded_exclude(pool, exclude);
                if let Some(target) = pick(pool, len, &wide) {
                    return Some(PlacementDecision { target, lost: None });
                }
                if let Some(target) = pick(pool, len, exclude) {
                    return Some(PlacementDecision {
                        target,
                        lost: Some(DomainLevel::Rack),
                    });
                }
                pick(pool, len, &[]).map(|target| PlacementDecision {
                    target,
                    lost: Some(DomainLevel::Host),
                })
            }
        }
    }
}

/// The placement primitive every tier shares — the original
/// `pick_other_server`: among live, non-excluded servers with room for
/// `len` bytes of shared frames, the one with the most free shared frames;
/// ties go to the lowest id.
pub(crate) fn pick(pool: &LogicalPool, len: u64, exclude: &[NodeId]) -> Option<NodeId> {
    let frames = len.div_ceil(FRAME_BYTES);
    (0..pool.servers())
        .map(NodeId)
        .filter(|n| !exclude.contains(n) && !pool.node(*n).is_failed())
        .filter(|n| pool.free_shared_frames(*n) >= frames)
        .max_by_key(|n| (pool.free_shared_frames(*n), std::cmp::Reverse(n.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Placement, PoolConfig};
    use lmp_mem::{DramProfile, FRAME_BYTES};

    fn pool(servers: u32) -> LogicalPool {
        LogicalPool::new(PoolConfig {
            servers,
            capacity_per_server: 16 * FRAME_BYTES,
            shared_per_server: 12 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        })
    }

    #[test]
    fn domain_map_shapes() {
        let m = DomainMap::uniform(3, 4);
        assert_eq!(m.hosts(), 12);
        assert_eq!(m.racks(), 3);
        assert_eq!(m.rack_of(NodeId(0)), 0);
        assert_eq!(m.rack_of(NodeId(7)), 1);
        assert_eq!(m.rack_of(NodeId(11)), 2);
        // Out-of-map hosts fold to rack 0 instead of panicking.
        assert_eq!(m.rack_of(NodeId(99)), 0);
        assert_eq!(
            m.hosts_in(1),
            vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]
        );
        assert!(m.same_rack(NodeId(4), NodeId(7)));
        assert!(!m.same_rack(NodeId(3), NodeId(4)));

        let ragged = DomainMap::from_assignment(vec![0, 0, 1]);
        assert_eq!(ragged.racks(), 2);
        assert_eq!(ragged.hosts_in(1), vec![NodeId(2)]);
        assert_eq!(DomainMap::from_assignment(Vec::new()).hosts(), 1);

        // Clamped, never panicking, never empty.
        assert_eq!(DomainMap::uniform(0, 0).hosts(), 1);
    }

    #[test]
    fn host_only_matches_original_pick_semantics() {
        let p = pool(4);
        let policy = PlacementPolicy::HostOnly;
        // Most-free wins; ties go to the lowest id — all free, exclude 0.
        let d = policy
            .place_member(&p, FRAME_BYTES, &[NodeId(0)])
            .unwrap();
        assert_eq!(d.target, NodeId(1));
        assert_eq!(d.lost, None);
        assert_eq!(
            pick(&p, FRAME_BYTES, &[NodeId(0)]),
            Some(NodeId(1)),
            "policy and primitive agree"
        );
    }

    #[test]
    fn domain_aware_leaves_the_excluded_rack() {
        let p = pool(6);
        let map = DomainMap::uniform(3, 2); // racks {0,1} {2,3} {4,5}
        let policy = PlacementPolicy::DomainAware(map);
        // Excluding host 0 must exclude its rack-mate host 1 too.
        let d = policy
            .place_member(&p, FRAME_BYTES, &[NodeId(0)])
            .unwrap();
        assert_eq!(d.target, NodeId(2));
        assert_eq!(d.lost, None);
    }

    #[test]
    fn domain_aware_degrades_loudly_not_silently() {
        // One rack holds everything: rack independence is impossible, so
        // the policy must fall back and say so.
        let p = pool(3);
        let policy = PlacementPolicy::DomainAware(DomainMap::single_rack(3));
        let d = policy
            .place_member(&p, FRAME_BYTES, &[NodeId(0)])
            .unwrap();
        assert_eq!(d.target, NodeId(1));
        assert_eq!(d.lost, Some(DomainLevel::Rack));
    }

    #[test]
    fn recovery_fallback_reports_host_level_loss() {
        let mut p = pool(2);
        // Exclude every server: only the unconstrained tier can place, and
        // it must be reported as host-level independence loss.
        let policy = PlacementPolicy::HostOnly;
        let d = policy
            .place_recovery(&p, FRAME_BYTES, &[NodeId(0), NodeId(1)])
            .unwrap();
        assert_eq!(d.lost, Some(DomainLevel::Host));
        // A new member, by contrast, refuses to co-locate.
        assert!(policy
            .place_member(&p, FRAME_BYTES, &[NodeId(0), NodeId(1)])
            .is_none());
        // With every server failed there is nothing to fall back to.
        p.crash_server(NodeId(0)).unwrap();
        p.crash_server(NodeId(1)).unwrap();
        assert!(policy.place_recovery(&p, FRAME_BYTES, &[]).is_none());
    }

    #[test]
    fn full_segments_excluded_by_capacity() {
        let mut p = pool(2);
        // Fill server 1's shared region completely.
        for _ in 0..12 {
            p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        }
        assert_eq!(pick(&p, FRAME_BYTES, &[NodeId(0)]), None);
        let policy = PlacementPolicy::HostOnly;
        assert!(policy.place_member(&p, FRAME_BYTES, &[NodeId(0)]).is_none());
    }
}
