//! Failure domains (§5 "Failure domains").
//!
//! In an LMP a server crash takes down part of the pool. The paper points
//! at the standard remedies — "failure masking through replication or
//! erasure coding, or failure reporting to application through exceptions"
//! — and this module implements all three:
//!
//! * **Exceptions** — unprotected segments on a crashed server surface as
//!   [`PoolError::SegmentLost`] on access (implemented in the pool itself).
//! * **Mirroring** — a full replica on a different server; crash recovery
//!   promotes the replica in place, preserving the logical address.
//! * **XOR erasure coding** — k same-sized segments on k distinct servers
//!   plus one parity segment on yet another; any single server loss is
//!   reconstructed from the k survivors. Storage overhead 1/k instead of
//!   1x for mirroring, at higher write and recovery cost.

use crate::addr::{LogicalAddr, SegmentId};
use crate::placement::PlacementPolicy;
use crate::pool::{LogicalPool, Placement, PoolError};
use lmp_fabric::{Fabric, NodeId};
use lmp_mem::FRAME_BYTES;
use lmp_sim::prelude::*;
use std::collections::BTreeMap;

/// Identifier of a parity group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

#[derive(Debug, Clone)]
struct ParityGroup {
    members: Vec<SegmentId>,
    parity: SegmentId,
    len: u64,
}

/// Bytes written for one protected write (amplification accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteAmplification {
    /// Bytes written to the primary segment.
    pub primary_bytes: u64,
    /// Extra bytes written for protection (replica or parity updates).
    pub extra_bytes: u64,
}

/// Outcome of crash recovery.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Segments restored by promoting their mirror.
    pub promoted: Vec<SegmentId>,
    /// Segments rebuilt from parity.
    pub reconstructed: Vec<SegmentId>,
    /// Protection re-established (new mirrors/parity) for these segments.
    pub reprotected: Vec<SegmentId>,
    /// Segments with no surviving protection — the application gets
    /// memory exceptions for these.
    pub lost: Vec<SegmentId>,
    /// Segments that had to be rebuilt onto a server already hosting
    /// another segment of the same parity group: data survived, but the
    /// group lost failure-domain independence. A second crash of that
    /// server now takes two group segments at once, which XOR cannot
    /// repair. Operators should treat these as "re-protect me urgently".
    pub degraded_placement: Vec<SegmentId>,
    /// Bytes moved during recovery.
    pub bytes_transferred: u64,
    /// When recovery finished.
    pub complete: SimTime,
}

/// Where a degraded read's bytes actually came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedSource {
    /// The primary copy was reachable after all (e.g. the caller saw a
    /// transient error that has since cleared).
    Primary,
    /// Served from the mirror replica.
    MirrorReplica,
    /// Rebuilt on the fly by XOR of the surviving group segments.
    ParityRebuild {
        /// Surviving segments read (members + parity, minus the victim).
        survivors: u32,
    },
}

/// Outcome of a degraded read: the bytes, when they arrived, and how they
/// were obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedRead {
    /// The requested byte range, exactly as the primary would have
    /// returned it.
    pub bytes: Vec<u8>,
    /// Completion time at the requester (degraded reads are slower: they
    /// touch more servers).
    pub complete: SimTime,
    /// Which path served the read.
    pub source: DegradedSource,
}

/// Tracks which segments are protected and how; drives recovery.
#[derive(Debug, Default)]
pub struct ProtectionManager {
    /// primary → replica.
    mirrors: BTreeMap<SegmentId, SegmentId>,
    /// replica → primary.
    replica_of: BTreeMap<SegmentId, SegmentId>,
    groups: BTreeMap<GroupId, ParityGroup>,
    member_group: BTreeMap<SegmentId, GroupId>,
    next_group: u64,
    /// Where replicas, parity segments, and rebuilt segments may land.
    /// Defaults to [`PlacementPolicy::HostOnly`] (the original exclusion
    /// semantics, byte for byte).
    policy: PlacementPolicy,
}

impl ProtectionManager {
    /// An empty manager with host-only placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty manager placing under `policy` (e.g. rack-aware).
    pub fn with_policy(policy: PlacementPolicy) -> Self {
        ProtectionManager {
            policy,
            ..Self::default()
        }
    }

    /// The active placement policy.
    pub fn policy(&self) -> &PlacementPolicy {
        &self.policy
    }

    /// Whether `seg` has any protection.
    pub fn is_protected(&self, seg: SegmentId) -> bool {
        self.mirrors.contains_key(&seg) || self.member_group.contains_key(&seg)
    }

    /// The replica of `seg`, if mirrored.
    pub fn replica(&self, seg: SegmentId) -> Option<SegmentId> {
        self.mirrors.get(&seg).copied()
    }

    /// The mirror twin a hedged read can race through: `seg`'s replica,
    /// or — when `seg` *is* a replica — its primary. `None` for
    /// unmirrored segments; an XOR parity group cannot serve a cheap
    /// duplicate (rebuilding is k reads, not one).
    pub fn mirror_twin(&self, seg: SegmentId) -> Option<SegmentId> {
        self.mirrors
            .get(&seg)
            .copied()
            .or_else(|| self.replica_of.get(&seg).copied())
    }

    /// The parity group of `seg`, if erasure-coded.
    pub fn group_of(&self, seg: SegmentId) -> Option<GroupId> {
        self.member_group.get(&seg).copied()
    }

    /// The data members of a parity group (excludes the parity segment).
    pub fn group_members(&self, gid: GroupId) -> Option<&[SegmentId]> {
        self.groups.get(&gid).map(|g| g.members.as_slice())
    }

    /// The parity segment of a group.
    pub fn parity_segment(&self, gid: GroupId) -> Option<SegmentId> {
        self.groups.get(&gid).map(|g| g.parity)
    }

    /// Mirror `seg` onto a different server. Returns the replica segment.
    ///
    /// Protecting an already-protected segment returns
    /// [`PoolError::AlreadyProtected`] — the auto-recovery orchestrator can
    /// race re-protection against a second crash, so this must be a
    /// recoverable error rather than a panic.
    pub fn mirror(
        &mut self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
        seg: SegmentId,
    ) -> Result<SegmentId, PoolError> {
        if self.is_protected(seg) {
            return Err(PoolError::AlreadyProtected(seg));
        }
        let len = pool
            .segment_len(seg)
            .ok_or(PoolError::UnknownSegment(seg))?;
        let home = pool.holder_of(seg).ok_or(PoolError::UnknownSegment(seg))?;
        // A dead source cannot be copied; without this guard the replica
        // allocation below would leak when the read faults.
        if pool.node(home).is_failed() {
            return Err(PoolError::ServerDown(home));
        }
        let decision = self
            .policy
            .place_member(pool, len, &[home])
            .ok_or(PoolError::Capacity {
                requested_frames: len.div_ceil(FRAME_BYTES),
            })?;
        let target = decision.target;
        if let Some(level) = decision.lost {
            if let Some(t) = pool.telemetry_mut() {
                t.note_independence_lost(level);
            }
        }
        // Charge the fabric for the copy before any pool state changes: a
        // down port (fault injection) fails the mirror cleanly.
        fabric
            .try_write(now, home, target, len)
            .map_err(|e| match e.node() {
                Some(n) => PoolError::ServerDown(n),
                None => PoolError::Internal("fabric rejected a well-formed transfer"),
            })?;
        let replica = pool.alloc(len, Placement::On(target))?;
        pool.copy_written(seg, replica)?;
        self.mirrors.insert(seg, replica);
        self.replica_of.insert(replica, seg);
        Ok(replica)
    }

    /// Erasure-code `members` (same length, pairwise-distinct servers) with
    /// one XOR parity segment on yet another server.
    pub fn protect_parity(
        &mut self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
        members: &[SegmentId],
    ) -> Result<GroupId, PoolError> {
        if members.len() < 2 {
            return Err(PoolError::InvalidRequest("parity needs at least two members"));
        }
        let len = pool
            .segment_len(members[0])
            .ok_or(PoolError::UnknownSegment(members[0]))?;
        let mut homes = Vec::new();
        for &m in members {
            if self.is_protected(m) {
                return Err(PoolError::AlreadyProtected(m));
            }
            let l = pool.segment_len(m).ok_or(PoolError::UnknownSegment(m))?;
            if l != len {
                return Err(PoolError::InvalidRequest(
                    "parity members must have equal length",
                ));
            }
            let h = pool.holder_of(m).ok_or(PoolError::UnknownSegment(m))?;
            // A dead member cannot seed the parity; without this guard the
            // parity allocation below would leak when the read faults.
            if pool.node(h).is_failed() {
                return Err(PoolError::ServerDown(h));
            }
            if homes.contains(&h) {
                return Err(PoolError::InvalidRequest(
                    "parity members must live on distinct servers",
                ));
            }
            homes.push(h);
        }
        let decision = self
            .policy
            .place_member(pool, len, &homes)
            .ok_or(PoolError::Capacity {
                requested_frames: len.div_ceil(FRAME_BYTES),
            })?;
        let target = decision.target;
        if let Some(level) = decision.lost {
            if let Some(t) = pool.telemetry_mut() {
                t.note_independence_lost(level);
            }
        }
        // Charge the fabric for pulling every member before any pool state
        // changes: a down port fails protection cleanly.
        for &h in &homes {
            fabric
                .try_read(now, target, h, len)
                .map_err(|e| match e.node() {
                    Some(n) => PoolError::ServerDown(n),
                    None => PoolError::Internal("fabric rejected a well-formed transfer"),
                })?;
        }
        let parity = pool.alloc(len, Placement::On(target))?;
        let mut acc = vec![0u8; len as usize];
        for &m in members {
            let data = pool.read_bytes(LogicalAddr::new(m, 0), len)?;
            xor_into(&mut acc, &data);
        }
        pool.fill_fresh(parity, &acc)?;
        let gid = GroupId(self.next_group);
        self.next_group += 1;
        self.groups.insert(
            gid,
            ParityGroup {
                members: members.to_vec(),
                parity,
                len,
            },
        );
        for &m in members {
            self.member_group.insert(m, gid);
        }
        self.member_group.insert(parity, gid);
        Ok(gid)
    }

    /// Protected write: keeps replicas and parity in sync.
    pub fn write(
        &mut self,
        pool: &mut LogicalPool,
        addr: LogicalAddr,
        data: &[u8],
    ) -> Result<WriteAmplification, PoolError> {
        let mut amp = WriteAmplification {
            primary_bytes: data.len() as u64,
            extra_bytes: 0,
        };
        // Parity delta must be computed against the old contents.
        if let Some(gid) = self.member_group.get(&addr.segment).copied() {
            let group = self
                .groups
                .get(&gid)
                .ok_or(PoolError::Internal("member points at a dissolved group"))?
                .clone();
            if group.parity == addr.segment {
                return Err(PoolError::InvalidRequest(
                    "direct writes to a parity segment are not allowed",
                ));
            }
            let old = pool.read_bytes(addr, data.len() as u64)?;
            let mut delta: Vec<u8> = old.iter().zip(data).map(|(o, n)| o ^ n).collect();
            let paddr = LogicalAddr::new(group.parity, addr.offset);
            let pold = pool.read_bytes(paddr, data.len() as u64)?;
            xor_into(&mut delta, &pold);
            pool.write_bytes(paddr, &delta)?;
            amp.extra_bytes += data.len() as u64;
        }
        pool.write_bytes(addr, data)?;
        if let Some(&replica) = self.mirrors.get(&addr.segment) {
            pool.write_bytes(LogicalAddr::new(replica, addr.offset), data)?;
            amp.extra_bytes += data.len() as u64;
        }
        Ok(amp)
    }

    /// Serve a read even while the segment's primary copy is unavailable —
    /// crashed and not yet reconstructed, or unreachable behind a flapped
    /// port. The paper's goal is that applications see *slow* reads during
    /// the recovery window, not `SegmentLost` exceptions.
    ///
    /// Resolution order: the primary if its server is alive and reachable;
    /// the mirror twin (replica for a primary, primary for a replica);
    /// otherwise an on-the-fly XOR of the requested byte range across the
    /// surviving parity-group segments. Every remote hop is charged to the
    /// fabric, so degraded reads are honestly slower. Returns
    /// [`PoolError::SegmentLost`] only when no complete path to the bytes
    /// exists.
    pub fn read_degraded(
        &self,
        pool: &LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
        requester: NodeId,
        addr: LogicalAddr,
        len: u64,
    ) -> Result<DegradedRead, PoolError> {
        let seg = addr.segment;
        let seg_len = pool.segment_len(seg).ok_or(PoolError::UnknownSegment(seg))?;
        let end = addr.offset + len;
        if end > seg_len {
            return Err(PoolError::OutOfBounds {
                segment: seg,
                end,
                len: seg_len,
            });
        }
        let holder = pool.holder_of(seg).ok_or(PoolError::UnknownSegment(seg))?;
        // 1. Primary, when alive and reachable.
        if !pool.node(holder).is_failed() {
            if holder == requester {
                return Ok(DegradedRead {
                    bytes: pool.read_bytes(addr, len)?,
                    complete: now,
                    source: DegradedSource::Primary,
                });
            }
            if let Ok(fc) = fabric.try_read(now, requester, holder, len) {
                return Ok(DegradedRead {
                    bytes: pool.read_bytes(addr, len)?,
                    complete: fc.complete,
                    source: DegradedSource::Primary,
                });
            }
            // Port flap: fall through and route around it.
        }
        // 2. Mirror twin, at the same offset (writes keep them in sync).
        if let Some(twin) = self.mirror_twin(seg) {
            let home = pool.holder_of(twin).ok_or(PoolError::SegmentLost(seg))?;
            if pool.node(home).is_failed() {
                return Err(PoolError::SegmentLost(seg));
            }
            let complete = if home == requester {
                now
            } else {
                fabric
                    .try_read(now, requester, home, len)
                    .map_err(|_| PoolError::SegmentLost(seg))?
                    .complete
            };
            return Ok(DegradedRead {
                bytes: pool.read_bytes(LogicalAddr::new(twin, addr.offset), len)?,
                complete,
                source: DegradedSource::MirrorReplica,
            });
        }
        // 3. On-the-fly XOR of the surviving parity-group segments: the
        // victim's range is the XOR of the same range in every other
        // member plus the parity.
        if let Some(gid) = self.member_group.get(&seg) {
            let group = self
                .groups
                .get(gid)
                .ok_or(PoolError::Internal("member points at a dissolved group"))?;
            let mut acc = vec![0u8; len as usize];
            let mut complete = now;
            let mut survivors = 0u32;
            for &s in group.members.iter().chain(std::iter::once(&group.parity)) {
                if s == seg {
                    continue;
                }
                let home = pool.holder_of(s).ok_or(PoolError::SegmentLost(seg))?;
                if pool.node(home).is_failed() {
                    return Err(PoolError::SegmentLost(seg));
                }
                let data = pool.read_bytes(LogicalAddr::new(s, addr.offset), len)?;
                xor_into(&mut acc, &data);
                if home != requester {
                    let fc = fabric
                        .try_read(now, requester, home, len)
                        .map_err(|_| PoolError::SegmentLost(seg))?;
                    complete = complete.max(fc.complete);
                }
                survivors += 1;
            }
            return Ok(DegradedRead {
                bytes: acc,
                complete,
                source: DegradedSource::ParityRebuild { survivors },
            });
        }
        Err(PoolError::SegmentLost(seg))
    }

    /// Recover from the crash of `server`. Call after
    /// [`LogicalPool::crash_server`]; handles every affected segment.
    pub fn recover(
        &mut self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
        _server: NodeId,
        affected: &[SegmentId],
    ) -> RecoveryReport {
        let mut report = RecoveryReport {
            complete: now,
            ..Default::default()
        };
        for &seg in affected {
            if let Some(replica) = self.mirrors.remove(&seg) {
                // Promote the replica: its frames become the segment's.
                self.replica_of.remove(&replica);
                // Correlated failure (e.g. a rack loss under host-only
                // placement): the replica died with its primary. Promoting
                // would hand the segment frames on a dead server; report
                // the loss instead. The replica's own bookkeeping is
                // dropped here so a later pass over its home's segments
                // does not double-report it.
                let replica_alive = pool
                    .holder_of(replica)
                    .is_some_and(|h| !pool.node(h).is_failed());
                if !replica_alive {
                    pool.drop_segment_bookkeeping(replica);
                    report.lost.push(seg);
                    continue;
                }
                if pool.promote_replica(seg, replica).is_err() {
                    // Bookkeeping disagreed about the replica (a bug, not
                    // an injectable fault); degrade to reporting loss.
                    report.lost.push(seg);
                    continue;
                }
                report.promoted.push(seg);
                // Re-mirror for continued protection, if room exists.
                if self.mirror(pool, fabric, now, seg).is_ok() {
                    report.reprotected.push(seg);
                    report.bytes_transferred += pool.segment_len(seg).unwrap_or(0);
                }
            } else if let Some(primary) = self.replica_of.remove(&seg) {
                // A replica died; the primary is fine. Re-mirror it.
                self.mirrors.remove(&primary);
                pool.drop_segment_bookkeeping(seg);
                if self.mirror(pool, fabric, now, primary).is_ok() {
                    report.reprotected.push(primary);
                    report.bytes_transferred += pool.segment_len(primary).unwrap_or(0);
                }
            } else if let Some(gid) = self.member_group.get(&seg).copied() {
                let Some(group) = self.groups.get(&gid).cloned() else {
                    // Member points at a dissolved group (a bug, not an
                    // injectable fault); degrade to reporting loss.
                    report.lost.push(seg);
                    continue;
                };
                match self.reconstruct(pool, fabric, now, &group, seg) {
                    Ok((bytes, done, degraded)) => {
                        report.bytes_transferred += bytes;
                        report.complete = report.complete.max(done);
                        if degraded {
                            report.degraded_placement.push(seg);
                        }
                        if seg == group.parity {
                            report.reprotected.push(seg);
                        } else {
                            report.reconstructed.push(seg);
                        }
                    }
                    Err(_) => {
                        // Second failure in the group or no capacity.
                        self.dissolve_group(gid);
                        report.lost.push(seg);
                    }
                }
            } else if pool.segment_len(seg).is_some() {
                // Unprotected (or protection already torn down): lost.
                // Segments whose bookkeeping an earlier pass dropped —
                // e.g. a replica cleaned up when its primary was reported
                // lost — are skipped rather than double-reported.
                report.lost.push(seg);
            }
        }
        report.lost.sort_unstable();
        report
    }

    fn reconstruct(
        &mut self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
        group: &ParityGroup,
        victim: SegmentId,
    ) -> Result<(u64, SimTime, bool), PoolError> {
        let len = group.len;
        // Survivors: every other group segment (members + parity).
        let mut survivors = Vec::new();
        for &s in group.members.iter().chain(std::iter::once(&group.parity)) {
            if s == victim {
                continue;
            }
            let home = pool.holder_of(s).ok_or(PoolError::UnknownSegment(s))?;
            if pool.node(home).is_failed() {
                return Err(PoolError::SegmentLost(s));
            }
            survivors.push((s, home));
        }
        // Prefer a target that restores full fault independence at the
        // policy's strongest level (another rack under `DomainAware`, any
        // other host under `HostOnly`); fall back tier by tier — degraded
        // placement beats data loss, but the caller must hear about it so
        // the loss of independence is never silent, and telemetry gets a
        // labelled `placement.independence_lost{domain}` bump.
        let exclude: Vec<NodeId> = survivors.iter().map(|(_, h)| *h).collect();
        let decision = self
            .policy
            .place_recovery(pool, len, &exclude)
            .ok_or(PoolError::Capacity {
                requested_frames: len.div_ceil(FRAME_BYTES),
            })?;
        let (target, degraded) = (decision.target, decision.lost.is_some());
        if let Some(level) = decision.lost {
            if let Some(t) = pool.telemetry_mut() {
                t.note_independence_lost(level);
            }
        }
        // XOR the survivors into the replacement.
        let mut acc = vec![0u8; len as usize];
        let mut done = now;
        for (s, h) in &survivors {
            let data = pool.read_bytes(LogicalAddr::new(*s, 0), len)?;
            xor_into(&mut acc, &data);
            if *h != target {
                // A survivor (or the target) behind a down port makes the
                // group unreadable right now; the caller degrades to loss.
                let fc = fabric
                    .try_read(now, target, *h, len)
                    .map_err(|_| PoolError::SegmentLost(*s))?;
                done = done.max(fc.complete);
            }
        }
        pool.rehome_segment(victim, target, &acc)?;
        Ok((len * survivors.len() as u64, done, degraded))
    }

    fn dissolve_group(&mut self, gid: GroupId) {
        if let Some(g) = self.groups.remove(&gid) {
            for m in g.members {
                self.member_group.remove(&m);
            }
            self.member_group.remove(&g.parity);
        }
    }
}

/// XOR `data` into `acc`. Callers always pass equal lengths (all members
/// of a parity group share one length); `zip` makes a mismatch inert
/// rather than a panic.
fn xor_into(acc: &mut [u8], data: &[u8]) {
    for (a, d) in acc.iter_mut().zip(data) {
        *a ^= d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use lmp_fabric::LinkProfile;
    use lmp_mem::DramProfile;

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
    fn mirror_promotion_preserves_data_and_address() {
        let (mut p, mut f, mut pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, 123);
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        pm.write(&mut p, addr, b"replicated!").unwrap();

        let affected = p.crash_server(NodeId(0));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        assert_eq!(report.promoted, vec![seg]);
        assert!(report.lost.is_empty());
        // Same logical address, same bytes, new server.
        assert_eq!(p.read_bytes(addr, 11).unwrap(), b"replicated!");
        assert_ne!(p.holder_of(seg), Some(NodeId(0)));
    }

    /// Backing bytes `seg`'s frames hold on its holder.
    fn backed(p: &LogicalPool, seg: SegmentId) -> usize {
        let node = p.holder_of(seg).unwrap();
        p.local_map(node)
            .frames_of(seg)
            .iter()
            .map(|f| p.node(node).frame_bytes(*f).map_or(0, <[u8]>::len))
            .sum()
    }

    #[test]
    fn protection_backs_only_the_bytes_written() {
        // A mirror twin copies the source's written prefix only.
        let (mut p, mut f, mut pm) = setup(4);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        p.write_bytes(LogicalAddr::new(seg, 0), &[7; 100]).unwrap();
        let twin = pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        assert_eq!((backed(&p, seg), backed(&p, twin)), (4096, 4096));
        let whole = |s| p.read_bytes(LogicalAddr::new(s, 0), FRAME_BYTES).unwrap();
        assert_eq!(whole(twin), whole(seg));
        // Parity over sparse members stops at its last nonzero page, and
        // a frame with nothing written stays unbacked.
        let a = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let b = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        p.write_bytes(LogicalAddr::new(a, 5000), b"alpha").unwrap();
        p.write_bytes(LogicalAddr::new(b, 10), b"bravo").unwrap();
        let gid = pm
            .protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        let parity = pm.groups[&gid].parity;
        assert_eq!(backed(&p, parity), 8192);
        // The copy rebuilt from parity is backed the same way.
        let affected = p.crash_server(NodeId(1));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(1), &affected);
        assert_eq!(report.reconstructed, vec![a]);
        assert_eq!(backed(&p, a), 8192);
        let rebuilt = p.read_bytes(LogicalAddr::new(a, 5000), 5).unwrap();
        assert_eq!(rebuilt, b"alpha");
    }

    #[test]
    fn mirror_reprotects_after_promotion() {
        let (mut p, mut f, mut pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let affected = p.crash_server(NodeId(0));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        assert_eq!(report.reprotected, vec![seg]);
        assert!(pm.replica(seg).is_some(), "protection re-established");
    }

    #[test]
    fn replica_crash_reprotects_primary() {
        let (mut p, mut f, mut pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let replica = pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let replica_home = p.holder_of(replica).unwrap();
        let affected = p.crash_server(replica_home);
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, replica_home, &affected);
        assert_eq!(report.reprotected, vec![seg]);
        let new_replica = pm.replica(seg).unwrap();
        assert_ne!(new_replica, replica);
        assert!(report.lost.is_empty());
    }

    #[test]
    fn parity_reconstruction_recovers_exact_bytes() {
        let (mut p, mut f, mut pm) = setup(4);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        pm.write(&mut p, LogicalAddr::new(a, 0), b"alpha-data").unwrap();
        pm.write(&mut p, LogicalAddr::new(b, 0), b"bravo-data").unwrap();

        let affected = p.crash_server(NodeId(0));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        assert_eq!(report.reconstructed, vec![a]);
        assert!(report.lost.is_empty());
        assert_eq!(p.read_bytes(LogicalAddr::new(a, 0), 10).unwrap(), b"alpha-data");
        assert_ne!(p.holder_of(a), Some(NodeId(0)));
        assert!(report.bytes_transferred >= 2 * FRAME_BYTES);
    }

    #[test]
    fn parity_segment_crash_recomputes_parity() {
        let (mut p, mut f, mut pm) = setup(4);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let gid = pm
            .protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        let parity = pm.groups[&gid].parity;
        let parity_home = p.holder_of(parity).unwrap();
        let affected = p.crash_server(parity_home);
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, parity_home, &affected);
        assert_eq!(report.reprotected, vec![parity]);
        // Group still protects: crash a member next and recover it.
        pm.write(&mut p, LogicalAddr::new(b, 5), b"post-repair").unwrap();
        let affected = p.crash_server(NodeId(1));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(1), &affected);
        assert_eq!(report.reconstructed, vec![b]);
        assert_eq!(
            p.read_bytes(LogicalAddr::new(b, 5), 11).unwrap(),
            b"post-repair"
        );
    }

    #[test]
    fn unprotected_segments_are_lost() {
        let (mut p, mut f, mut pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let affected = p.crash_server(NodeId(1));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(1), &affected);
        assert_eq!(report.lost, vec![seg]);
        assert!(matches!(
            p.read_bytes(LogicalAddr::new(seg, 0), 1),
            Err(PoolError::SegmentLost(_))
        ));
    }

    #[test]
    fn mirror_fails_cleanly_when_ports_down() {
        let (mut p, mut f, mut pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let free_before: Vec<u64> = (0..3).map(|i| p.free_shared_frames(NodeId(i))).collect();
        f.set_port_down(NodeId(1), true);
        f.set_port_down(NodeId(2), true);
        let r = pm.mirror(&mut p, &mut f, SimTime::ZERO, seg);
        assert!(matches!(r, Err(PoolError::ServerDown(_))));
        assert!(!pm.is_protected(seg));
        // No replica leaked: capacity unchanged everywhere.
        let free_after: Vec<u64> = (0..3).map(|i| p.free_shared_frames(NodeId(i))).collect();
        assert_eq!(free_before, free_after);
        // Port restored, mirroring works again.
        f.set_port_down(NodeId(1), false);
        f.set_port_down(NodeId(2), false);
        assert!(pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).is_ok());
    }

    #[test]
    fn reconstruction_degrades_to_loss_when_survivor_port_down() {
        let (mut p, mut f, mut pm) = setup(4);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        let affected = p.crash_server(NodeId(0));
        // The surviving member's port flaps during recovery.
        f.set_port_down(NodeId(1), true);
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        assert_eq!(report.lost, vec![a], "no reachable survivors: lost");
        assert!(report.reconstructed.is_empty());
        assert!(!pm.is_protected(b), "group dissolved");
    }

    #[test]
    fn write_amplification_accounting() {
        let (mut p, mut f, mut pm) = setup(4);
        let plain = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let amp = pm.write(&mut p, LogicalAddr::new(plain, 0), b"xxxx").unwrap();
        assert_eq!(amp.extra_bytes, 0);

        let mirrored = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, mirrored).unwrap();
        let amp = pm
            .write(&mut p, LogicalAddr::new(mirrored, 0), b"xxxx")
            .unwrap();
        assert_eq!(amp.extra_bytes, 4, "mirror doubles writes");
    }

    #[test]
    fn double_protection_is_a_recoverable_error() {
        let (mut p, mut f, mut pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let free_before: Vec<u64> = (0..3).map(|i| p.free_shared_frames(NodeId(i))).collect();
        assert_eq!(
            pm.mirror(&mut p, &mut f, SimTime::ZERO, seg),
            Err(PoolError::AlreadyProtected(seg)),
        );
        // No second replica leaked, and the original protection is intact.
        let free_after: Vec<u64> = (0..3).map(|i| p.free_shared_frames(NodeId(i))).collect();
        assert_eq!(free_before, free_after);
        assert!(pm.replica(seg).is_some());
        // Same for parity membership.
        let other = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        assert_eq!(
            pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[seg, other]),
            Err(PoolError::AlreadyProtected(seg)),
        );
    }

    #[test]
    fn degraded_placement_is_reported_not_silent() {
        // 3 servers: members on 0 and 1, parity forced onto 2. After
        // crashing 0 the only reconstruction targets already host group
        // segments — the fallback must say so.
        let (mut p, mut f, mut pm) = setup(3);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        pm.write(&mut p, LogicalAddr::new(a, 0), b"fragile").unwrap();

        let affected = p.crash_server(NodeId(0));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        assert_eq!(report.reconstructed, vec![a]);
        assert_eq!(
            report.degraded_placement,
            vec![a],
            "co-located rebuild must be reported"
        );
        assert_eq!(p.read_bytes(LogicalAddr::new(a, 0), 7).unwrap(), b"fragile");
        // The rebuilt copy landed on a server that hosts another group
        // segment — exactly the independence loss the report flags.
        let new_home = p.holder_of(a).unwrap();
        let group_homes = [p.holder_of(b).unwrap(), {
            let gid = pm.group_of(b).unwrap();
            p.holder_of(pm.parity_segment(gid).unwrap()).unwrap()
        }];
        assert!(group_homes.contains(&new_home));
    }

    #[test]
    fn double_loss_after_degraded_placement_loses_cleanly() {
        // Regression: the second crash in a degraded-placement group used
        // to be unrepresentable (the fallback was silent). It must surface
        // as loss of both co-located segments — never a panic.
        let (mut p, mut f, mut pm) = setup(3);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        let affected = p.crash_server(NodeId(0));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        assert_eq!(report.degraded_placement, vec![a]);
        let second_home = p.holder_of(a).unwrap();
        assert_eq!(second_home, p.holder_of(b).unwrap(), "co-located rebuild");

        let affected = p.crash_server(second_home);
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, second_home, &affected);
        let mut lost = report.lost.clone();
        lost.sort_unstable();
        assert_eq!(lost, vec![a, b], "both co-located segments are lost");
        assert!(report.reconstructed.is_empty());
        assert!(!pm.is_protected(a) && !pm.is_protected(b), "group dissolved");
    }

    #[test]
    fn degraded_read_serves_from_mirror_before_recovery() {
        let (mut p, mut f, mut pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        pm.write(&mut p, LogicalAddr::new(seg, 40), b"still-here").unwrap();
        p.crash_server(NodeId(0));
        f.set_port_down(NodeId(0), true);
        // No recovery has run: a plain read faults, a degraded read serves.
        assert!(matches!(
            p.read_bytes(LogicalAddr::new(seg, 40), 10),
            Err(PoolError::SegmentLost(_))
        ));
        let r = pm
            .read_degraded(&p, &mut f, SimTime::ZERO, NodeId(2), LogicalAddr::new(seg, 40), 10)
            .unwrap();
        assert_eq!(r.bytes, b"still-here");
        assert_eq!(r.source, DegradedSource::MirrorReplica);
        assert!(r.complete > SimTime::ZERO, "remote hop was charged");
    }

    #[test]
    fn degraded_read_rebuilds_range_from_parity() {
        let (mut p, mut f, mut pm) = setup(4);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        pm.write(&mut p, LogicalAddr::new(a, 100), b"alpha-bytes").unwrap();
        pm.write(&mut p, LogicalAddr::new(b, 100), b"bravo-bytes").unwrap();
        p.crash_server(NodeId(0));
        f.set_port_down(NodeId(0), true);
        let r = pm
            .read_degraded(&p, &mut f, SimTime::ZERO, NodeId(3), LogicalAddr::new(a, 100), 11)
            .unwrap();
        assert_eq!(r.bytes, b"alpha-bytes");
        assert_eq!(r.source, DegradedSource::ParityRebuild { survivors: 2 });
    }

    #[test]
    fn degraded_read_routes_around_port_flap() {
        // Holder alive but unreachable (flap): the read must route through
        // the protection layer instead of failing.
        let (mut p, mut f, mut pm) = setup(4);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        pm.write(&mut p, LogicalAddr::new(a, 0), b"reroute").unwrap();
        f.set_port_down(NodeId(0), true);
        let r = pm
            .read_degraded(&p, &mut f, SimTime::ZERO, NodeId(3), LogicalAddr::new(a, 0), 7)
            .unwrap();
        assert_eq!(r.bytes, b"reroute");
        assert_eq!(r.source, DegradedSource::ParityRebuild { survivors: 2 });
        // Flap clears: reads come straight from the primary again.
        f.set_port_down(NodeId(0), false);
        let r = pm
            .read_degraded(&p, &mut f, SimTime::ZERO, NodeId(3), LogicalAddr::new(a, 0), 7)
            .unwrap();
        assert_eq!(r.source, DegradedSource::Primary);
    }

    #[test]
    fn independence_loss_bumps_labelled_counter() {
        // 3 servers, members on 0 and 1, parity on 2: after crashing 0 the
        // rebuild has to co-locate with a survivor. With telemetry
        // attached, that must bump
        // `placement.independence_lost{domain=host}` — a silent
        // blast-radius regression is the bug class this counter exists for.
        let (mut p, mut f, mut pm) = setup(3);
        p.attach_telemetry();
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        // Nothing lost yet: the counter is not even registered, keeping
        // pre-loss snapshots byte-identical to their historical digests.
        let before = p.telemetry().unwrap().snapshot();
        assert_eq!(
            before.counter("placement.independence_lost", &[("domain", "host")]),
            0
        );
        assert!(!before.to_json().contains("independence_lost"));

        let affected = p.crash_server(NodeId(0));
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        assert_eq!(report.degraded_placement, vec![a]);
        let snap = p.telemetry().unwrap().snapshot();
        assert_eq!(
            snap.counter("placement.independence_lost", &[("domain", "host")]),
            1
        );
    }

    #[test]
    fn rack_fallback_bumps_rack_labelled_counter() {
        use crate::placement::{DomainMap, PlacementPolicy};
        // Every server in one rack: domain-aware mirroring cannot cross
        // racks, so it degrades to host independence and says so at the
        // rack label.
        let (mut p, mut f, _) = setup(3);
        p.attach_telemetry();
        let mut pm =
            ProtectionManager::with_policy(PlacementPolicy::DomainAware(DomainMap::single_rack(3)));
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let snap = p.telemetry().unwrap().snapshot();
        assert_eq!(
            snap.counter("placement.independence_lost", &[("domain", "rack")]),
            1
        );
    }

    #[test]
    fn domain_aware_mirror_and_parity_cross_racks() {
        use crate::placement::{DomainMap, PlacementPolicy};
        // 2 racks × 2 hosts. Host-only placement would put the replica on
        // host 1 (most free, lowest id) — the same rack as the primary.
        let (mut p, mut f, _) = setup(4);
        let map = DomainMap::uniform(2, 2);
        let mut pm = ProtectionManager::with_policy(PlacementPolicy::DomainAware(map.clone()));
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let replica = pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let rhome = p.holder_of(replica).unwrap();
        assert!(
            !map.same_rack(NodeId(0), rhome),
            "replica must leave the primary's rack, landed on {rhome}"
        );

        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        let gid = pm
            .protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        let parity_home = p.holder_of(pm.parity_segment(gid).unwrap()).unwrap();
        // Members span both racks, so no rack-independent host exists; the
        // parity still refuses the members' hosts.
        assert!(parity_home != NodeId(1) && parity_home != NodeId(2));
    }

    #[test]
    fn correlated_mirror_loss_is_reported_not_promoted() {
        // Host-only placement puts the replica in the primary's failure
        // domain; when both die at once (a rack loss), recovery must
        // report the segment lost — never promote onto a dead server, and
        // never report the dead replica as a second loss.
        let (mut p, mut f, mut pm) = setup(4);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let replica = pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let rhome = p.holder_of(replica).unwrap();

        // Both hosts go down before any recovery runs.
        let mut affected0 = p.crash_server(NodeId(0));
        affected0.sort_unstable();
        let mut affected1 = p.crash_server(rhome);
        affected1.sort_unstable();

        let r0 = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected0);
        assert_eq!(r0.lost, vec![seg], "correlated loss is loss");
        assert!(r0.promoted.is_empty());
        // The replica's own home pass has nothing left to report.
        let r1 = pm.recover(&mut p, &mut f, SimTime::ZERO, rhome, &affected1);
        assert!(r1.lost.is_empty(), "replica is not double-reported");
        assert!(!pm.is_protected(seg));
        assert!(matches!(
            p.read_bytes(LogicalAddr::new(seg, 0), 1),
            Err(PoolError::SegmentLost(_))
        ));
    }

    #[test]
    fn mirror_of_crashed_home_fails_without_leaking() {
        let (mut p, mut f, mut pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        p.crash_server(NodeId(0));
        let free_before: Vec<u64> = (1..3).map(|i| p.free_shared_frames(NodeId(i))).collect();
        assert!(matches!(
            pm.mirror(&mut p, &mut f, SimTime::ZERO, seg),
            Err(PoolError::ServerDown(NodeId(0)))
        ));
        let other = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        assert!(matches!(
            pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[seg, other]),
            Err(PoolError::ServerDown(NodeId(0)))
        ));
        let free_after: Vec<u64> = (1..3).map(|i| p.free_shared_frames(NodeId(i))).collect();
        assert_eq!(free_before[1], free_after[1], "no replica/parity leaked");
    }

    #[test]
    fn parity_write_updates_parity_incrementally() {
        let (mut p, mut f, mut pm) = setup(4);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b])
            .unwrap();
        // Overwrite a twice; parity must track the latest value.
        pm.write(&mut p, LogicalAddr::new(a, 0), b"v1").unwrap();
        pm.write(&mut p, LogicalAddr::new(a, 0), b"v2").unwrap();
        let affected = p.crash_server(NodeId(0));
        pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        assert_eq!(p.read_bytes(LogicalAddr::new(a, 0), 2).unwrap(), b"v2");
    }
}
