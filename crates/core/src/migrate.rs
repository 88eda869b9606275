//! Buffer migration (§5 "Locality balancing" mechanism).
//!
//! Migration moves a segment's frames to another server **without changing
//! its logical address**: the coarse map entry is updated and its epoch
//! bumped; translation caches that still point at the old server fault on
//! the holder's fine map and re-resolve. Data is pulled by the destination
//! over the fabric, so migrations contend with foreground traffic —
//! the cost the balancer must weigh.

use crate::addr::SegmentId;
use crate::pool::{LogicalPool, PoolError};
use lmp_fabric::{Fabric, NodeId};
use lmp_mem::{RegionKind, FRAME_BYTES};
use lmp_sim::prelude::*;

/// Outcome of one migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// The migrated segment.
    pub segment: SegmentId,
    /// Previous holder.
    pub from: NodeId,
    /// New holder.
    pub to: NodeId,
    /// Bytes copied across the fabric.
    pub bytes: u64,
    /// When the copy (and map switch) completed.
    pub complete: SimTime,
    /// The segment's new epoch.
    pub new_epoch: u64,
}

/// Migrate `seg` to server `dst`. No-op (zero-byte report) when `dst`
/// already holds it. An unknown `dst` is refused as
/// [`PoolError::InvalidRequest`] before anything is charged.
///
/// The copy is destination-pull: `dst` reads every frame from the source
/// over the fabric, then the maps switch atomically (the simulator's
/// single-threaded step; real hardware would use a short write-block
/// window). Old translations are invalidated lazily via the epoch bump.
pub fn migrate_segment(
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    now: SimTime,
    seg: SegmentId,
    dst: NodeId,
) -> Result<MigrationReport, PoolError> {
    pool.check_server(dst)?;
    let loc = pool
        .global_map()
        .peek(seg)
        .ok_or(PoolError::UnknownSegment(seg))?;
    let src = loc.server;
    if src == dst {
        return Ok(MigrationReport {
            segment: seg,
            from: src,
            to: dst,
            bytes: 0,
            complete: now,
            new_epoch: loc.epoch,
        });
    }
    if pool.node(src).is_failed() {
        return Err(PoolError::SegmentLost(seg));
    }
    if pool.node(dst).is_failed() {
        return Err(PoolError::ServerDown(dst));
    }
    let src_frames = pool.local_map(src).frames_of(seg).to_vec();
    let n = src_frames.len() as u64;
    // Reserve destination frames first; all-or-nothing.
    let dst_frames = pool
        .node_raw(dst)
        .alloc_many(RegionKind::Shared, n)
        .map_err(|_| PoolError::Capacity {
            requested_frames: n,
        })?;

    // Pull every frame across the fabric (timing) and move its contents
    // (correctness): the simulator hands the backing over instead of
    // copying it, since the source frame is freed below.
    let mut complete = now;
    {
        let (src_node, dst_node) = pool.two_nodes(src, dst);
        for (sf, df) in src_frames.iter().zip(dst_frames.iter()) {
            src_node.move_frame(*sf, dst_node, *df);
            let fc = fabric.read(now, dst, src, FRAME_BYTES);
            // Source DRAM read + destination DRAM write also occupy time.
            let sd = src_node.access(now, FRAME_BYTES, dst.0, false, Some(*sf));
            let dd = dst_node.access(fc.complete, FRAME_BYTES, dst.0, true, Some(*df));
            complete = complete.max(fc.complete).max(sd.complete).max(dd.complete);
        }
    }

    // Switch the maps: install at destination, free at source, bump epoch.
    pool.local_mut(dst).insert(seg, dst_frames);
    if let Some(frames) = pool.local_mut(src).remove(seg) {
        pool.node_raw(src)
            .free_many(&frames)
            .map_err(|_| PoolError::Internal("migrated frame was not allocated"))?;
    }
    let new_loc = pool
        .global_mut()
        .relocate(seg, dst)
        .ok_or(PoolError::Internal(
            "migrated segment unknown to global map",
        ))?;
    let report = MigrationReport {
        segment: seg,
        from: src,
        to: dst,
        bytes: n * FRAME_BYTES,
        complete,
        new_epoch: new_loc.epoch,
    };
    if let Some(t) = pool.telemetry_mut() {
        t.on_migration(&report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LogicalAddr;
    use crate::pool::{Placement, PoolConfig};
    use lmp_fabric::{LinkProfile, MemOp};
    use lmp_mem::DramProfile;

    fn setup() -> (LogicalPool, Fabric) {
        let cfg = PoolConfig {
            servers: 3,
            capacity_per_server: 16 * FRAME_BYTES,
            shared_per_server: 8 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        };
        (LogicalPool::new(cfg), Fabric::new(LinkProfile::link1(), 3))
    }

    #[test]
    fn data_survives_migration_at_same_address() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, FRAME_BYTES - 3);
        p.write_bytes(addr, b"pointer-stable").unwrap();

        let r = migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(2)).unwrap();
        assert_eq!(r.from, NodeId(0));
        assert_eq!(r.to, NodeId(2));
        assert_eq!(r.bytes, 2 * FRAME_BYTES);
        assert_eq!(r.new_epoch, 1);
        assert_eq!(p.holder_of(seg), Some(NodeId(2)));
        // Same logical address still reads the same bytes.
        assert_eq!(p.read_bytes(addr, 14).unwrap(), b"pointer-stable");
        // Source frames were returned.
        assert_eq!(p.free_shared_frames(NodeId(0)), 8);
    }

    #[test]
    fn migration_moves_frames_instead_of_copying_them() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(3 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        // Frames 0 and 2 hold data; frame 1 stays unmaterialized.
        p.write_bytes(LogicalAddr::new(seg, 3), b"first").unwrap();
        p.write_bytes(LogicalAddr::new(seg, 3 * FRAME_BYTES - 4), b"last")
            .unwrap();
        let whole = LogicalAddr::new(seg, 0);
        let before = p.read_bytes(whole, 3 * FRAME_BYTES).unwrap();
        let materialized = |p: &LogicalPool| {
            (0..3)
                .map(|n| p.node(NodeId(n)).materialized_frames())
                .sum::<usize>()
        };
        assert_eq!(materialized(&p), 2);

        migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(2)).unwrap();
        assert_eq!(p.read_bytes(whole, 3 * FRAME_BYTES).unwrap(), before);
        // Moved, not copied: the rack holds as many materialized frames as
        // before, all of them now on the destination.
        assert_eq!(materialized(&p), 2);
        assert_eq!(p.node(NodeId(2)).materialized_frames(), 2);
        let frames = p.local_map(NodeId(2)).frames_of(seg);
        assert_eq!(p.node(NodeId(2)).frame_bytes(frames[1]), None);
    }

    #[test]
    fn migration_to_self_is_noop() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let r = migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(1)).unwrap();
        assert_eq!(r.bytes, 0);
        assert_eq!(r.new_epoch, 0);
    }

    #[test]
    fn migration_takes_fabric_time() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(4 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let r = migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(1)).unwrap();
        // 8 MiB at 21 GB/s is ~400us minimum.
        assert!(
            r.complete.as_nanos() > 300_000,
            "migration suspiciously fast: {}",
            r.complete
        );
    }

    #[test]
    fn stale_translations_fault_and_recover() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, 0);
        // Server 1 caches the translation.
        p.access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(2)).unwrap();
        // Next access faults once, then succeeds against the new holder.
        let a = p
            .access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        assert_eq!(a.faults, 1);
        let b = p
            .access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        assert_eq!(b.faults, 0);
        assert_eq!(p.tlb(NodeId(1)).unwrap().stale_count(), 1);
    }

    #[test]
    fn round_trip_migration_still_faults_stale_entries() {
        // Regression: the TLB fast path used to verify only that the cached
        // server still *holds* the segment. After an A→B→A round trip that
        // is true again, so an entry cached before the trip (epoch 0)
        // validated silently even though the segment is now at epoch 2 —
        // the fault went uncounted and the balancer's cost model undercounted
        // migration churn. The fast path now compares epochs too.
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, 0);
        // Server 1 caches (server 0, epoch 0).
        p.access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(2)).unwrap();
        migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(0)).unwrap();
        assert_eq!(p.holder_of(seg), Some(NodeId(0)), "back home at epoch 2");
        let a = p
            .access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        assert_eq!(a.faults, 1, "epoch mismatch must fault, not validate");
        assert_eq!(p.tlb(NodeId(1)).unwrap().stale_count(), 1);
        // The refill healed the entry: the next access is fault-free.
        let b = p
            .access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        assert_eq!(b.faults, 0);
    }

    #[test]
    fn migration_making_access_local() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, 0);
        let before = p
            .access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        assert!(before.remote_bytes > 0);
        migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(1)).unwrap();
        let after = p
            .access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        assert_eq!(after.remote_bytes, 0);
        assert_eq!(after.local_bytes, 64);
    }

    #[test]
    fn migration_fails_without_destination_room() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(8 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        p.alloc(8 * FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let r = migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(1));
        assert!(matches!(r, Err(PoolError::Capacity { .. })));
        // Source untouched.
        assert_eq!(p.holder_of(seg), Some(NodeId(0)));
    }

    #[test]
    fn migration_from_crashed_source_fails() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        p.crash_server(NodeId(0)).unwrap();
        let r = migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(1));
        assert_eq!(r, Err(PoolError::SegmentLost(seg)));
    }
}
