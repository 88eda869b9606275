// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! One test per §5 challenge: executable evidence that each of the five
//! "major challenges in realizing LMPs" has a working mechanism in this
//! implementation.

use lmp::coherence::{CoherenceConfig, CoherentRegion, SpinLock};
use lmp::core::prelude::*;
use lmp::fabric::{Fabric, LinkProfile, MemOp, NodeId};
use lmp::mem::{DramProfile, FRAME_BYTES};
use lmp::sim::prelude::*;

fn pool(servers: u32) -> (LogicalPool, Fabric) {
    let cfg = PoolConfig {
        servers,
        capacity_per_server: 32 * FRAME_BYTES,
        shared_per_server: 24 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    };
    (
        LogicalPool::new(cfg),
        Fabric::new(LinkProfile::link1(), servers),
    )
}

/// Challenge 1 — cache coherence: a small coherent region with a bounded
/// snoop filter supports cross-server synchronization, and the filter
/// bound actually binds (back-invalidation under overflow) without ever
/// compromising mutual exclusion.
#[test]
fn challenge_cache_coherence() {
    let mut cfg = CoherenceConfig::default_lmp();
    cfg.filter_capacity = 8; // deliberately tiny
    let mut region = CoherentRegion::new(cfg, 64 * 1024);
    let lock = SpinLock::new(0);

    // Cross-server lock traffic interleaved with filter-thrashing loads.
    let mut acquisitions = 0;
    for round in 0..200u64 {
        let node = (round % 4) as u32;
        // Thrash the filter with unrelated blocks.
        region.load(node, 16 + (round % 32) * 16).unwrap();
        let (ok, _) = lock.try_acquire(&mut region, node).unwrap();
        assert!(ok, "serialized schedule: lock must be free");
        acquisitions += 1;
        // While held, nobody else can get it — even after back-invals.
        let (stolen, _) = lock.try_acquire(&mut region, (node + 1) % 4).unwrap();
        assert!(!stolen, "mutual exclusion violated under filter pressure");
        lock.release(&mut region, node).unwrap();
    }
    assert_eq!(acquisitions, 200);
    assert!(
        region.filter().back_invalidation_count() > 100,
        "the bounded filter should have been overflowing"
    );
}

/// Challenge 2 — sizing the shared regions: the periodic optimizer admits
/// a workload mix that a static split rejects, prioritizing the
/// high-value application for local placement.
#[test]
fn challenge_sizing() {
    let demands = [
        AppDemand {
            server: NodeId(0),
            bytes: 44 * FRAME_BYTES,
            priority: 10,
        },
        AppDemand {
            server: NodeId(1),
            bytes: 8 * FRAME_BYTES,
            priority: 1,
        },
    ];
    // Static 50/50 on 32-frame servers: 16 shareable each, 10-frame floor.
    let static_plan = solve_sizing(&[26, 26, 26], &[10, 10, 10], &demands);
    // (26 = floor 10 + static share 16.)
    assert!(!static_plan.feasible, "static split should reject 44+8 frames");
    // The optimizer can use everything above the floor.
    let opt = solve_sizing(&[32, 32, 32], &[10, 10, 10], &demands);
    assert!(opt.feasible);
    assert_eq!(
        opt.placements[0].local_frames, 22,
        "high-priority demand gets all of its server's shareable memory"
    );
}

/// Challenge 3 — locality balancing: performance counters (access bits)
/// identify hot remote data and migration converges without oscillation.
#[test]
fn challenge_locality_balancing() {
    let (mut p, mut f) = pool(3);
    let seg = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let addr = LogicalAddr::new(seg, 0);
    let mut bal = LocalityBalancer::new(BalancerConfig::default());
    // Server 2 uses the buffer heavily.
    for _ in 0..100 {
        p.access(&mut f, SimTime::ZERO, NodeId(2), addr, 64, MemOp::Read)
            .unwrap();
    }
    bal.run_round(&mut p, &mut f, SimTime::ZERO);
    assert_eq!(p.holder_of(seg), Some(NodeId(2)), "migrated to its user");
    // Continued use from the new home: stable.
    for _ in 0..5 {
        for _ in 0..100 {
            p.access(&mut f, SimTime::ZERO, NodeId(2), addr, 64, MemOp::Read)
                .unwrap();
        }
        let round = bal.run_round(&mut p, &mut f, SimTime::ZERO);
        assert!(round.executed.is_empty(), "oscillation");
    }
    assert_eq!(bal.migration_count(), 1);
}

/// Challenge 4 — address translation: two-step translation (coarse
/// replicated map + fine local map) keeps the global structure off the
/// hot path and survives migration with exactly one fault.
#[test]
fn challenge_address_translation() {
    let (mut p, mut f) = pool(3);
    let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let addr = LogicalAddr::new(seg, 128);
    // 100 accesses from server 1: the global map is consulted once.
    for _ in 0..100 {
        p.access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
    }
    assert_eq!(p.global_map().lookup_count(), 1, "TLB absorbs the rest");
    // Migration invalidates lazily: one fault, then steady state again.
    migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(2)).unwrap();
    let mut faults = 0;
    for _ in 0..100 {
        faults += p
            .access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap()
            .faults;
    }
    assert_eq!(faults, 1);
    assert_eq!(p.global_map().lookup_count(), 2);
}

/// Challenge 5 — failure domains: all three §5 remedies in one rack:
/// replication masks a crash, erasure coding masks a crash at lower
/// storage cost, and unprotected memory surfaces exceptions.
#[test]
fn challenge_failure_domains() {
    let (mut p, mut f) = pool(5);
    let mut pm = ProtectionManager::new();
    let mirrored = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let coded = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let coded_peer = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
    let bare = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    pm.mirror(&mut p, &mut f, SimTime::ZERO, mirrored).unwrap();
    pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[coded, coded_peer])
        .unwrap();
    for (seg, data) in [(mirrored, &b"AA"[..]), (coded, b"BB"), (bare, b"CC")] {
        pm.write(&mut p, LogicalAddr::new(seg, 0), data).unwrap();
    }

    let affected = p.crash_server(NodeId(0)).unwrap();
    let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);

    assert_eq!(report.promoted, vec![mirrored]);
    assert_eq!(report.reconstructed, vec![coded]);
    assert_eq!(report.lost, vec![bare]);
    assert_eq!(p.read_bytes(LogicalAddr::new(mirrored, 0), 2).unwrap(), b"AA");
    assert_eq!(p.read_bytes(LogicalAddr::new(coded, 0), 2).unwrap(), b"BB");
    assert!(matches!(
        p.read_bytes(LogicalAddr::new(bare, 0), 2),
        Err(PoolError::SegmentLost(_))
    ));
}

/// Interplay: protection must survive migration — migrate a mirrored
/// primary, crash its *new* home, and recover from the untouched replica.
#[test]
fn protection_survives_migration() {
    let (mut p, mut f) = pool(4);
    let mut pm = ProtectionManager::new();
    let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
    pm.write(&mut p, LogicalAddr::new(seg, 7), b"durable").unwrap();

    let replica_home = p.holder_of(pm.replica(seg).unwrap()).unwrap();
    // Migrate the primary somewhere that is not the replica's server.
    let dst = (0..4)
        .map(NodeId)
        .find(|n| *n != replica_home && *n != NodeId(0))
        .unwrap();
    migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, dst).unwrap();

    let affected = p.crash_server(dst).unwrap();
    let report = pm.recover(&mut p, &mut f, SimTime::ZERO, dst, &affected);
    assert_eq!(report.promoted, vec![seg]);
    assert_eq!(
        p.read_bytes(LogicalAddr::new(seg, 7), 7).unwrap(),
        b"durable"
    );
}

/// Interplay: a double crash inside one parity group loses the data (the
/// scheme's designed limit) and says so, rather than fabricating bytes.
#[test]
fn parity_double_crash_is_honest() {
    let (mut p, mut f) = pool(5);
    let mut pm = ProtectionManager::new();
    let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
    let c = p.alloc(FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
    pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b, c])
        .unwrap();

    // Crash two member servers at once; only then recover.
    let mut affected = p.crash_server(NodeId(0)).unwrap();
    affected.extend(p.crash_server(NodeId(1)).unwrap());
    let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
    assert!(report.lost.contains(&a) || report.lost.contains(&b));
    assert!(report.reconstructed.len() < 2, "cannot rebuild both");
}
