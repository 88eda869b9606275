// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Two-level translation under churn (`translate.rs` + `migrate.rs`).
//!
//! A deliberately tiny TLB (2 entries) is thrashed by a randomized
//! sequence of reads, writes, migrations, and frame-recycling allocs.
//! The invariant: no access ever observes a stale physical frame — every
//! read returns the model's bytes, and after any access the requester's
//! cached translation agrees with the authoritative holder.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, MemOp, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use proptest::prelude::*;

const SERVERS: u32 = 4;
const SEGS: usize = 6;

fn setup() -> (LogicalPool, Fabric) {
    let cfg = PoolConfig {
        servers: SERVERS,
        capacity_per_server: 32 * FRAME_BYTES,
        shared_per_server: 24 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        // Two entries for six segments: every round trip evicts.
        tlb_capacity: 2,
    };
    (
        LogicalPool::new(cfg),
        Fabric::new(LinkProfile::link1(), SERVERS),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn tlb_never_serves_a_stale_frame_across_migrations(seed in any::<u64>()) {
        let (mut pool, mut fabric) = setup();
        let mut rng = DetRng::new(seed).fork("tlb-churn");

        let mut segs = Vec::new();
        let mut model: Vec<Vec<u8>> = Vec::new();
        for i in 0..SEGS {
            let seg = pool.alloc(FRAME_BYTES, Placement::RoundRobin).unwrap();
            let data: Vec<u8> = (0..FRAME_BYTES)
                .map(|b| (b as u8) ^ (i as u8).wrapping_mul(37))
                .collect();
            pool.write_bytes(LogicalAddr::new(seg, 0), &data).unwrap();
            segs.push(seg);
            model.push(data);
        }

        let mut migrations = 0u64;
        for _ in 0..300 {
            let i = rng.below(SEGS as u64) as usize;
            match rng.below(5) {
                0 | 1 => {
                    // Read through the translation path from a random
                    // requester, then verify the bytes against the model.
                    let req = NodeId(rng.below(SERVERS as u64) as u32);
                    let len = 1 + rng.below(128);
                    let off = rng.below(FRAME_BYTES - len);
                    let addr = LogicalAddr::new(segs[i], off);
                    pool.access(&mut fabric, SimTime::ZERO, req, addr, len, MemOp::Read)
                        .unwrap();
                    let got = pool.read_bytes(addr, len).unwrap();
                    prop_assert_eq!(&got[..], &model[i][off as usize..(off + len) as usize]);
                    // The just-refreshed cached translation must agree
                    // with the authoritative coarse map.
                    let holder = pool.holder_of(segs[i]).unwrap();
                    let (loc, _) = pool.translate(req, segs[i]).unwrap();
                    prop_assert_eq!(loc.server, holder);
                }
                2 => {
                    // Write new bytes, mirrored into the model.
                    let len = 1 + rng.below(64);
                    let off = rng.below(FRAME_BYTES - len);
                    let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                    pool.write_bytes(LogicalAddr::new(segs[i], off), &data).unwrap();
                    model[i][off as usize..(off + len) as usize].copy_from_slice(&data);
                }
                3 => {
                    // Migrate, then immediately recycle the freed source
                    // frame with a poison segment: any translation still
                    // pointing at the old frame now reads poison, which
                    // the next read check would catch.
                    let src = pool.holder_of(segs[i]).unwrap();
                    let dst = NodeId(rng.below(SERVERS as u64) as u32);
                    if dst != src && pool.free_shared_frames(dst) >= 1 {
                        migrate_segment(&mut pool, &mut fabric, SimTime::ZERO, segs[i], dst)
                            .unwrap();
                        migrations += 1;
                        if pool.free_shared_frames(src) >= 1 {
                            let poison = pool.alloc(FRAME_BYTES, Placement::On(src)).unwrap();
                            pool.write_bytes(LogicalAddr::new(poison, 0), &[0xAA; 256])
                                .unwrap();
                        }
                    }
                }
                _ => {
                    // A→B→A round trip. Afterwards the coarse map names the
                    // pre-trip holder again, so a `holds`-only fast path
                    // would happily validate a translation cached before
                    // the trip — the fault would go uncounted. The epoch
                    // comparison must fault it exactly once.
                    let req = NodeId(rng.below(SERVERS as u64) as u32);
                    let addr = LogicalAddr::new(segs[i], 0);
                    pool.access(&mut fabric, SimTime::ZERO, req, addr, 64, MemOp::Read)
                        .unwrap();
                    let home = pool.holder_of(segs[i]).unwrap();
                    let via = NodeId(rng.below(SERVERS as u64) as u32);
                    if via != home && pool.free_shared_frames(via) >= 1 {
                        migrate_segment(&mut pool, &mut fabric, SimTime::ZERO, segs[i], via)
                            .unwrap();
                        migrate_segment(&mut pool, &mut fabric, SimTime::ZERO, segs[i], home)
                            .unwrap();
                        migrations += 2;
                        let a = pool
                            .access(&mut fabric, SimTime::ZERO, req, addr, 64, MemOp::Read)
                            .unwrap();
                        prop_assert_eq!(
                            a.faults, 1,
                            "round trip left the entry stale at the old epoch"
                        );
                    }
                }
            }
        }

        // The sequence must actually have exercised the churn paths.
        prop_assert!(migrations > 0, "randomized run produced no migrations");
        let evictions: u64 = (0..SERVERS)
            .filter_map(|n| pool.tlb(NodeId(n)))
            .map(|t| t.miss_count())
            .sum();
        prop_assert!(evictions > 0, "TLB was never refilled");

        // Final sweep: every segment byte-identical from every server.
        for (i, seg) in segs.iter().enumerate() {
            let got = pool.read_bytes(LogicalAddr::new(*seg, 0), FRAME_BYTES).unwrap();
            prop_assert_eq!(&got, &model[i]);
            let holder = pool.holder_of(*seg).unwrap();
            for n in 0..SERVERS {
                let (loc, _) = pool.translate(NodeId(n), *seg).unwrap();
                prop_assert_eq!(loc.server, holder);
            }
        }
    }
}
