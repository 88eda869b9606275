// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property test for XOR parity recovery (`failure.rs`).
//!
//! For random segment contents, random protected overwrites, and any
//! single crashed server in the group — member or parity holder —
//! recovery must restore every surviving byte exactly and the
//! [`RecoveryReport`] must name exactly the affected segments.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn parity_recovery_is_byte_identical(
        k in 2u32..5,
        victim_sel in any::<u64>(),
        crash_parity in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // k members on servers 0..k, parity elsewhere, 2 spare servers.
        let (mut p, mut f, mut pm) = setup(k + 2);
        let mut rng = DetRng::new(seed).fork("parity-prop");
        let mut members = Vec::new();
        let mut expect: Vec<Vec<u8>> = Vec::new();
        for i in 0..k {
            let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(i))).unwrap();
            let data: Vec<u8> = (0..FRAME_BYTES).map(|_| rng.below(256) as u8).collect();
            p.write_bytes(LogicalAddr::new(seg, 0), &data).unwrap();
            members.push(seg);
            expect.push(data);
        }
        let gid = pm
            .protect_parity(&mut p, &mut f, SimTime::ZERO, &members)
            .unwrap();
        // Random protected overwrites keep the parity deltas honest.
        for _ in 0..8 {
            let i = rng.below(k as u64) as usize;
            let len = 1 + rng.below(256);
            let off = rng.below(FRAME_BYTES - len);
            let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            pm.write(&mut p, LogicalAddr::new(members[i], off), &data).unwrap();
            expect[i][off as usize..(off + len) as usize].copy_from_slice(&data);
        }

        let (victim_seg, home) = if crash_parity {
            let parity = pm.parity_segment(gid).unwrap();
            (parity, p.holder_of(parity).unwrap())
        } else {
            let vi = (victim_sel % k as u64) as usize;
            (members[vi], p.holder_of(members[vi]).unwrap())
        };
        let mut affected = p.crash_server(home).unwrap();
        affected.sort_unstable();
        prop_assert_eq!(&affected, &vec![victim_seg], "one segment per server");
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, home, &affected);

        // The report names exactly the affected segment, in the right bucket.
        if crash_parity {
            prop_assert_eq!(&report.reprotected, &vec![victim_seg]);
            prop_assert!(report.reconstructed.is_empty());
        } else {
            prop_assert_eq!(&report.reconstructed, &vec![victim_seg]);
            prop_assert!(report.reprotected.is_empty());
        }
        prop_assert!(report.promoted.is_empty());
        prop_assert!(report.lost.is_empty());

        // Every member reads back byte-identical at its old logical address.
        for (i, m) in members.iter().enumerate() {
            let got = p.read_bytes(LogicalAddr::new(*m, 0), FRAME_BYTES).unwrap();
            prop_assert_eq!(&got, &expect[i], "member {} corrupted", i);
            prop_assert_ne!(p.holder_of(*m), Some(home));
        }

        // The group still protects: crash another member and recover again.
        let vi2 = ((victim_sel / 7) % k as u64) as usize;
        let home2 = p.holder_of(members[vi2]).unwrap();
        let mut affected2 = p.crash_server(home2).unwrap();
        affected2.sort_unstable();
        let report2 = pm.recover(&mut p, &mut f, SimTime::ZERO, home2, &affected2);
        prop_assert!(report2.lost.is_empty());
        let got = p
            .read_bytes(LogicalAddr::new(members[vi2], 0), FRAME_BYTES)
            .unwrap();
        prop_assert_eq!(&got, &expect[vi2]);
    }
}
