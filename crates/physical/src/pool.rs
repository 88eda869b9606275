//! The physical memory pool appliance.
//!
//! The baseline the paper argues against (Figure 1a): a separate box of
//! memory on the fabric, with no private region and no processors of its
//! own. Built from the same [`MemoryNode`] substrate as servers so the two
//! architectures differ only in configuration.

use lmp_fabric::{Fabric, NodeId};
use lmp_mem::{DramProfile, FrameId, MemoryNode, RegionError, RegionKind, FRAME_BYTES};
use lmp_sim::prelude::*;

/// A fabric-attached physical memory pool.
#[derive(Debug)]
pub struct PhysicalPool {
    node: MemoryNode,
    fabric_id: NodeId,
}

/// Completion of a pool access from a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCompletion {
    /// When the access is complete at the requesting server.
    pub complete: SimTime,
}

impl PhysicalPool {
    /// A pool of `capacity_bytes`, attached to the fabric as `fabric_id`.
    ///
    /// The pool's internal memory uses the same DRAM profile as servers —
    /// the *fabric* is what makes pool accesses slow, matching the paper's
    /// model where pooled DIMMs are ordinary DIMMs behind CXL.
    pub fn new(fabric_id: NodeId, capacity_bytes: u64, profile: DramProfile) -> Self {
        PhysicalPool {
            node: MemoryNode::fam_device(format!("pool@{fabric_id}"), capacity_bytes, profile),
            fabric_id,
        }
    }

    /// The pool's fabric attachment point.
    pub fn fabric_id(&self) -> NodeId {
        self.fabric_id
    }

    /// Pool capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.node.capacity_bytes()
    }

    /// Bytes still allocatable.
    pub fn available_bytes(&self) -> u64 {
        self.node.split().available(RegionKind::Shared) * FRAME_BYTES
    }

    /// Allocate `n` pooled frames (all-or-nothing).
    pub fn alloc_frames(&mut self, n: u64) -> Result<Vec<FrameId>, RegionError> {
        self.node.alloc_many(RegionKind::Shared, n)
    }

    /// Free pooled frames; all-or-nothing, like
    /// [`MemoryNode::free_many`].
    pub fn free_frames(&mut self, frames: &[FrameId]) -> Result<(), RegionError> {
        self.node.free_many(frames)
    }

    /// A server (`requester`) reads `bytes` from pooled memory.
    ///
    /// Timing composes the fabric read with the pool's internal DRAM
    /// service; the slower resource dominates under load.
    pub fn read(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        requester: NodeId,
        bytes: u64,
        frame: Option<FrameId>,
    ) -> PoolCompletion {
        // DRAM inside the box serves the data...
        let dram = self.node.access(now, bytes, requester.0, false, frame);
        // ...and the fabric carries it to the requester.
        let fc = fabric.read(now, requester, self.fabric_id, bytes);
        PoolCompletion {
            complete: dram.complete.max(fc.complete),
        }
    }

    /// A server writes `bytes` to pooled memory.
    pub fn write(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        requester: NodeId,
        bytes: u64,
        frame: Option<FrameId>,
    ) -> PoolCompletion {
        let dram = self.node.access(now, bytes, requester.0, false, frame);
        let fc = fabric.write(now, requester, self.fabric_id, bytes);
        PoolCompletion {
            complete: dram.complete.max(fc.complete),
        }
    }

    /// Materialized-byte access to pooled frames (for correctness tests).
    pub fn memory(&self) -> &MemoryNode {
        &self.node
    }

    /// Mutable access to the pool's memory node.
    pub fn memory_mut(&mut self) -> &mut MemoryNode {
        &mut self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::LinkProfile;
    use lmp_sim::units::GIB;

    fn setup() -> (Fabric, PhysicalPool) {
        // Nodes 0..3 are servers, node 4 is the pool.
        let fabric = Fabric::new(LinkProfile::link1(), 5);
        let pool = PhysicalPool::new(NodeId(4), GIB, DramProfile::xeon_gold_5120());
        (fabric, pool)
    }

    #[test]
    fn capacity_is_all_poolable() {
        let (_, pool) = setup();
        assert_eq!(pool.capacity_bytes(), GIB);
        assert_eq!(pool.available_bytes(), GIB);
    }

    #[test]
    fn alloc_and_exhaustion() {
        let (_, mut pool) = setup();
        let frames = pool.alloc_frames(GIB / FRAME_BYTES).unwrap();
        assert_eq!(frames.len() as u64, GIB / FRAME_BYTES);
        assert!(pool.alloc_frames(1).is_err());
        pool.free_frames(&frames[..1]).unwrap();
        assert!(pool.alloc_frames(2).is_err());
        assert_eq!(pool.alloc_frames(1).unwrap(), frames[..1]);
    }

    #[test]
    fn read_latency_at_least_fabric_latency() {
        let (mut fabric, mut pool) = setup();
        let c = pool.read(&mut fabric, SimTime::ZERO, NodeId(0), 64, None);
        // Link1 unloaded end-to-end latency is 261ns.
        assert!(c.complete.as_nanos() >= 261);
    }

    #[test]
    fn pool_bandwidth_capped_by_its_uplink() {
        let (mut fabric, mut pool) = setup();
        // All four servers stream from the pool; aggregate is capped by the
        // pool's single 21 GB/s link, not by its 97 GB/s DRAM.
        let chunk = 1_000_000u64;
        let mut done = SimTime::ZERO;
        let total = 84_000_000u64;
        for i in 0..(total / chunk / 4) {
            for s in 0..4 {
                let c = pool.read(
                    &mut fabric,
                    SimTime::from_nanos(i),
                    NodeId(s),
                    chunk,
                    None,
                );
                done = done.max(c.complete);
            }
        }
        let bw = Bandwidth::measured(total, done.duration_since(SimTime::ZERO));
        assert!(bw.as_gbps() < 22.0, "aggregate {bw} exceeds pool uplink");
        assert!(bw.as_gbps() > 15.0, "aggregate {bw} implausibly low");
    }

    #[test]
    fn remote_access_counter_attributes_to_requesters() {
        let (mut fabric, mut pool) = setup();
        pool.read(&mut fabric, SimTime::ZERO, NodeId(1), 64, None);
        pool.write(&mut fabric, SimTime::ZERO, NodeId(2), 64, None);
        assert_eq!(pool.memory().remote_access_count(), 2);
        assert_eq!(pool.memory().local_access_count(), 0);
    }
}
