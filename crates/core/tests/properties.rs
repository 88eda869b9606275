// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property tests for the logical pool: translation stability under
//! migration, data integrity under crashes, and capacity conservation.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use proptest::prelude::*;

fn pool(servers: u32, shared_frames: u64) -> (LogicalPool, Fabric) {
    let cfg = PoolConfig {
        servers,
        capacity_per_server: (shared_frames + 4) * FRAME_BYTES,
        shared_per_server: shared_frames * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 16,
    };
    (
        LogicalPool::new(cfg),
        Fabric::new(LinkProfile::link1(), servers),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Data written at a logical address reads back identically after any
    /// sequence of migrations — the pointer-stability property of §5.
    #[test]
    fn migrations_never_corrupt_data(
        moves in proptest::collection::vec(0u32..4, 1..20),
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        offset in 0u64..(2 * FRAME_BYTES - 300),
    ) {
        let (mut p, mut f) = pool(4, 8);
        let seg = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, offset);
        p.write_bytes(addr, &payload).unwrap();
        for dst in moves {
            migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(dst)).unwrap();
            prop_assert_eq!(p.holder_of(seg), Some(NodeId(dst)));
            let got = p.read_bytes(addr, payload.len() as u64).unwrap();
            prop_assert_eq!(&got, &payload);
        }
    }

    /// Shared-frame accounting is conserved across alloc/free/migrate:
    /// used + free == budget on every server, and every live segment's
    /// frames equal its size.
    #[test]
    fn capacity_conserved(
        ops in proptest::collection::vec((0u8..3, 0u32..3, 1u64..4), 1..60),
    ) {
        let (mut p, mut f) = pool(3, 10);
        let mut live: Vec<SegmentId> = Vec::new();
        for (op, server, frames) in ops {
            match op {
                0 => {
                    if let Ok(seg) = p.alloc(frames * FRAME_BYTES, Placement::On(NodeId(server))) {
                        live.push(seg);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let seg = live.remove(server as usize % live.len());
                        p.free(seg).unwrap();
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let seg = live[server as usize % live.len()];
                        let _ = migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(server));
                    }
                }
            }
            let mut total_used = 0;
            for s in 0..3 {
                let split = p.node(NodeId(s)).split();
                prop_assert!(split.shared_used() <= split.shared_budget());
                total_used += split.shared_used();
            }
            let expect: u64 = live
                .iter()
                .map(|s| p.segment_len(*s).unwrap().div_ceil(FRAME_BYTES))
                .sum();
            prop_assert_eq!(total_used, expect, "leaked or lost frames");
        }
    }

    /// Mirrored segments survive the crash of any single server with their
    /// exact contents, whatever was written before the crash.
    #[test]
    fn mirror_survives_any_single_crash(
        writes in proptest::collection::vec(
            (0u64..(FRAME_BYTES - 64), proptest::collection::vec(any::<u8>(), 1..64)),
            1..16,
        ),
        crash in 0u32..4,
    ) {
        let (mut p, mut fb) = pool(4, 8);
        let mut pm = ProtectionManager::new();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut p, &mut fb, SimTime::ZERO, seg).unwrap();
        let mut model = vec![0u8; FRAME_BYTES as usize];
        for (off, data) in &writes {
            pm.write(&mut p, LogicalAddr::new(seg, *off), data).unwrap();
            model[*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
        let affected = p.crash_server(NodeId(crash)).unwrap();
        let report = pm.recover(&mut p, &mut fb, SimTime::ZERO, NodeId(crash), &affected);
        prop_assert!(report.lost.is_empty(), "mirrored data lost: {:?}", report.lost);
        let got = p.read_bytes(LogicalAddr::new(seg, 0), FRAME_BYTES).unwrap();
        prop_assert_eq!(got, model);
    }

    /// XOR parity round-trips: after arbitrary protected writes to the
    /// members and loss of any single member's server, reconstruction
    /// restores exact contents.
    #[test]
    fn parity_survives_member_crash(
        writes in proptest::collection::vec(
            (0usize..3, 0u64..(FRAME_BYTES - 64), proptest::collection::vec(any::<u8>(), 1..64)),
            1..16,
        ),
        crash_member in 0usize..3,
    ) {
        let (mut p, mut fb) = pool(5, 8);
        let mut pm = ProtectionManager::new();
        let segs: Vec<SegmentId> = (0..3)
            .map(|s| p.alloc(FRAME_BYTES, Placement::On(NodeId(s))).unwrap())
            .collect();
        pm.protect_parity(&mut p, &mut fb, SimTime::ZERO, &segs).unwrap();
        let mut models = vec![vec![0u8; FRAME_BYTES as usize]; 3];
        for (m, off, data) in &writes {
            pm.write(&mut p, LogicalAddr::new(segs[*m], *off), data).unwrap();
            models[*m][*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
        let victim_server = p.holder_of(segs[crash_member]).unwrap();
        let affected = p.crash_server(victim_server).unwrap();
        let report = pm.recover(&mut p, &mut fb, SimTime::ZERO, victim_server, &affected);
        prop_assert!(report.lost.is_empty(), "parity-protected data lost");
        for (seg, model) in segs.iter().zip(&models) {
            let got = p.read_bytes(LogicalAddr::new(*seg, 0), FRAME_BYTES).unwrap();
            prop_assert_eq!(&got, model);
        }
    }

    /// Timed accesses classify bytes exactly: local + remote == requested,
    /// and the split matches holder placement.
    #[test]
    fn access_byte_accounting(
        offset in 0u64..FRAME_BYTES,
        len in 1u64..(2 * FRAME_BYTES),
        requester in 0u32..3,
        holder in 0u32..3,
    ) {
        let (mut p, mut f) = pool(3, 8);
        let seg = p.alloc(4 * FRAME_BYTES, Placement::On(NodeId(holder))).unwrap();
        let a = p
            .access(
                &mut f,
                SimTime::ZERO,
                NodeId(requester),
                LogicalAddr::new(seg, offset),
                len,
                lmp_fabric::MemOp::Read,
            )
            .unwrap();
        prop_assert_eq!(a.local_bytes + a.remote_bytes, len);
        if requester == holder {
            prop_assert_eq!(a.remote_bytes, 0);
        } else {
            prop_assert_eq!(a.local_bytes, 0);
        }
    }
}
