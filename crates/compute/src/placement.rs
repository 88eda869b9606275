//! Data placement for distributed buffers.
//!
//! §4.4: "If we distribute the sum across LMP servers, then each server
//! could access different parts of the vector locally." A [`DistVector`]
//! is a buffer striped across servers — one segment per stripe — so each
//! server holds a contiguous share it can scan at local speed. Placement
//! is the first of the paper's three incast remedies (placement, migration,
//! compute shipping).

use lmp_core::prelude::*;
use lmp_fabric::NodeId;

/// A buffer striped across servers.
#[derive(Debug, Clone)]
pub struct DistVector {
    /// `(holder, segment, stripe length in bytes)`, in logical order.
    pub stripes: Vec<(NodeId, SegmentId, u64)>,
}

impl DistVector {
    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.stripes.iter().map(|(_, _, l)| l).sum()
    }

    /// True when the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a vector of `len` bytes striped evenly across `servers`.
    ///
    /// Every server gets `len / servers.len()` (the last stripe absorbs the
    /// remainder). Fails when any server lacks shared capacity.
    pub fn stripe_even(
        pool: &mut LogicalPool,
        len: u64,
        servers: &[NodeId],
    ) -> Result<DistVector, PoolError> {
        if servers.is_empty() {
            return Err(PoolError::InvalidRequest("need at least one server"));
        }
        if len == 0 {
            return Err(PoolError::InvalidRequest("empty vector"));
        }
        let base = len / servers.len() as u64;
        let mut stripes = Vec::with_capacity(servers.len());
        let mut allocated = 0;
        for (i, &s) in servers.iter().enumerate() {
            let this = if i + 1 == servers.len() {
                len - allocated
            } else {
                base
            };
            if this == 0 {
                continue;
            }
            match pool.alloc(this, Placement::On(s)) {
                Ok(seg) => {
                    stripes.push((s, seg, this));
                    allocated += this;
                }
                Err(e) => {
                    // Roll back previous stripes. `?` on the free: these
                    // segments were just allocated, so a failure here is
                    // pool corruption and worth surfacing over `e`.
                    for (_, seg, _) in stripes {
                        pool.free(seg)?;
                    }
                    return Err(e);
                }
            }
        }
        Ok(DistVector { stripes })
    }

    /// Allocate a vector of `len` bytes greedily: local-first on
    /// `preferred`, overflowing to whichever servers have room — the
    /// placement a single-server workload gets (§4.3's 64 GB case, where
    /// 3/8 of the vector lands locally).
    pub fn place_local_first(
        pool: &mut LogicalPool,
        len: u64,
        preferred: NodeId,
    ) -> Result<DistVector, PoolError> {
        if len == 0 {
            return Err(PoolError::InvalidRequest("empty vector"));
        }
        use lmp_mem::FRAME_BYTES;
        let mut remaining = len;
        let mut stripes = Vec::new();
        let mut order: Vec<NodeId> = vec![preferred];
        order.extend((0..pool.servers()).map(NodeId).filter(|n| *n != preferred));
        for s in order {
            if remaining == 0 {
                break;
            }
            let room = pool.free_shared_frames(s) * FRAME_BYTES;
            let take = room.min(remaining);
            if take == 0 {
                continue;
            }
            match pool.alloc(take, Placement::On(s)) {
                Ok(seg) => {
                    stripes.push((s, seg, take));
                    remaining -= take;
                }
                Err(_) => continue,
            }
        }
        if remaining > 0 {
            for (_, seg, _) in stripes {
                pool.free(seg)?;
            }
            return Err(PoolError::Capacity {
                requested_frames: remaining.div_ceil(FRAME_BYTES),
            });
        }
        Ok(DistVector { stripes })
    }

    /// Free every stripe.
    pub fn free(self, pool: &mut LogicalPool) -> Result<(), PoolError> {
        for (_, seg, _) in self.stripes {
            pool.free(seg)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_mem::{DramProfile, FRAME_BYTES};

    fn pool(shared_frames: u64) -> LogicalPool {
        LogicalPool::new(PoolConfig {
            servers: 4,
            capacity_per_server: (shared_frames + 2) * FRAME_BYTES,
            shared_per_server: shared_frames * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        })
    }

    #[test]
    fn even_striping_covers_all_servers() {
        let mut p = pool(16);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 8 * FRAME_BYTES, &servers).unwrap();
        assert_eq!(v.stripes.len(), 4);
        assert_eq!(v.len(), 8 * FRAME_BYTES);
        for (i, (n, seg, l)) in v.stripes.iter().enumerate() {
            assert_eq!(*n, NodeId(i as u32));
            assert_eq!(p.holder_of(*seg), Some(*n));
            assert_eq!(*l, 2 * FRAME_BYTES);
        }
    }

    #[test]
    fn local_first_fills_preferred_then_spills() {
        let mut p = pool(8);
        let v = DistVector::place_local_first(&mut p, 12 * FRAME_BYTES, NodeId(1)).unwrap();
        assert_eq!(v.stripes[0].0, NodeId(1));
        assert_eq!(v.stripes[0].2, 8 * FRAME_BYTES, "preferred filled first");
        assert_eq!(v.len(), 12 * FRAME_BYTES);
    }

    #[test]
    fn rollback_on_insufficient_capacity() {
        let mut p = pool(4);
        // 4 servers × 4 frames = 16 frames; ask for 20.
        let before: u64 = (0..4).map(|s| p.free_shared_frames(NodeId(s))).sum();
        let r = DistVector::place_local_first(&mut p, 20 * FRAME_BYTES, NodeId(0));
        assert!(r.is_err());
        let after: u64 = (0..4).map(|s| p.free_shared_frames(NodeId(s))).sum();
        assert_eq!(before, after, "partial allocation leaked");
    }

    #[test]
    fn free_returns_capacity() {
        let mut p = pool(8);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 8 * FRAME_BYTES, &servers).unwrap();
        v.free(&mut p).unwrap();
        for s in 0..4 {
            assert_eq!(p.free_shared_frames(NodeId(s)), 8);
        }
    }
}
