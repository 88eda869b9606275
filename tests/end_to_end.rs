// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Cross-crate integration tests: whole-deployment scenarios exercising
//! the public API the way the examples and benches do.

use lmp::cluster::{Cluster, ClusterConfig, ClusterError, PoolArch};
use lmp::compute::{Choice, DistVector, OpOutput, Operator, Planner, ReduceOp, ScanParams};
use lmp::core::prelude::*;
use lmp::fabric::{Fabric, LinkProfile, MemOp, NodeId};
use lmp::mem::{DramProfile, FRAME_BYTES};
use lmp::sim::prelude::*;
use lmp::workloads::kv::{KvConfig, KvStore, KvWorkload};

fn small_cluster(arch: PoolArch) -> Cluster {
    let mut cfg = ClusterConfig::paper(arch, LinkProfile::link1());
    cfg.local_per_server = match arch {
        PoolArch::Logical => 24 * FRAME_BYTES,
        _ => 8 * FRAME_BYTES,
    };
    cfg.pool_capacity = match arch {
        PoolArch::Logical => 0,
        _ => 64 * FRAME_BYTES,
    };
    Cluster::new(cfg)
}

/// The qualitative ordering behind Figures 2–4: Logical ≥ PhysicalCache ≥
/// PhysicalNoCache for a working set that fits one server's share.
#[test]
fn architecture_ordering_small_working_set() {
    let size = 8 * FRAME_BYTES;
    let mut results = Vec::new();
    for arch in [
        PoolArch::Logical,
        PoolArch::PhysicalCache,
        PoolArch::PhysicalNoCache,
    ] {
        let mut c = small_cluster(arch);
        let r = c.run_aggregation(size, NodeId(0), 4).unwrap();
        results.push((arch, r.avg_bandwidth_gbps));
    }
    assert!(
        results[0].1 >= results[1].1 && results[1].1 >= results[2].1,
        "ordering violated: {results:?}"
    );
    assert!(
        results[0].1 / results[2].1 > 3.0,
        "logical advantage too small: {results:?}"
    );
}

/// Figure 5 end to end: the same oversized workload is infeasible on both
/// physical deployments and runs on the logical one — and after shrinking
/// the logical pool's shared regions it becomes infeasible there too,
/// then feasible again after the §4.5 resize.
#[test]
fn flexibility_scenario() {
    let size = 96 * FRAME_BYTES;
    for arch in [PoolArch::PhysicalCache, PoolArch::PhysicalNoCache] {
        let mut c = small_cluster(arch);
        assert!(matches!(
            c.alloc_vector(size, NodeId(0)),
            Err(ClusterError::Infeasible { .. })
        ));
    }
    let mut c = small_cluster(PoolArch::Logical);
    let h = c.alloc_vector(size, NodeId(0)).unwrap();
    c.free_vector(h).unwrap();

    // Shrink every server's shared region to 16 frames: now infeasible.
    {
        let pool = c.logical_pool().unwrap();
        for s in 0..4 {
            pool.resize_shared(NodeId(s), 16 * FRAME_BYTES).unwrap();
        }
    }
    assert!(matches!(
        c.alloc_vector(size, NodeId(0)),
        Err(ClusterError::Infeasible { .. })
    ));
    // Grow them back — the knob physical pools do not have.
    {
        let pool = c.logical_pool().unwrap();
        for s in 0..4 {
            pool.resize_shared(NodeId(s), 24 * FRAME_BYTES).unwrap();
        }
    }
    assert!(c.alloc_vector(size, NodeId(0)).is_ok());
}

/// Near-memory pipeline: correctness and speed of compute shipping on a
/// striped vector, end to end through pool + fabric + compute.
#[test]
fn compute_shipping_end_to_end() {
    let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
    let op = Operator::Aggregate(ReduceOp::Sum);
    let planner = Planner::new(
        ScanParams {
            cores: 4,
            chunk: FRAME_BYTES,
            ..ScanParams::default()
        },
        0.0,
    );
    // The same sum, planned and then forced to fetch or to ship, each in a
    // fresh rack.
    let run = |choice| {
        let mut pool = LogicalPool::new(PoolConfig {
            servers: 4,
            capacity_per_server: 24 * FRAME_BYTES,
            shared_per_server: 16 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 64,
        });
        let mut fabric = Fabric::new(LinkProfile::link1(), 4);
        let v = DistVector::stripe_even(&mut pool, 8 * FRAME_BYTES, &servers).unwrap();
        for (i, (_, seg, _)) in v.stripes.iter().enumerate() {
            let vals: Vec<u8> = (i as u64 + 1).to_le_bytes().to_vec();
            pool.write_bytes(LogicalAddr::new(*seg, 0), &vals).unwrap();
        }
        let plan = planner
            .plan(&mut pool, &fabric, SimTime::ZERO, NodeId(0), &v, op)
            .unwrap();
        planner
            .execute(
                &mut pool,
                &mut fabric,
                SimTime::ZERO,
                NodeId(0),
                op,
                &plan.forced(choice),
            )
            .unwrap()
    };
    let expect = OpOutput::Scalar(1 + 2 + 3 + 4);
    let (pulled, pull) = run(Choice::Fetch);
    let (shipped, ship) = run(Choice::Ship);
    assert_eq!(pulled, expect);
    assert_eq!(shipped, expect);
    assert!(ship.complete < pull.complete);
}

/// Crash-under-load: a KV store with mirrored segments keeps serving after
/// a server crash; unprotected keys raise exceptions.
#[test]
fn crash_recovery_under_kv_load() {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 4,
        capacity_per_server: 64 * FRAME_BYTES,
        shared_per_server: 48 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), 4);
    let cfg = KvConfig {
        slots: 1024,
        slots_per_segment: 128,
        ..KvConfig::default()
    };
    let mut kv = KvStore::create(&mut pool, cfg.clone()).unwrap();
    let mut pm = ProtectionManager::new();

    // Write some keys, protect every segment that landed on server 1.
    for key in 0..1024 {
        kv.put(
            &mut pool,
            &mut fabric,
            SimTime::ZERO,
            NodeId(0),
            key,
            &key.to_le_bytes(),
        )
        .unwrap();
    }
    let victim = NodeId(1);
    let on_victim = pool.global_map().segments_on(victim);
    assert!(!on_victim.is_empty(), "round-robin placed segments there");
    for seg in &on_victim {
        pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, *seg).unwrap();
    }
    // Mirror writes must go through the manager from here on; re-put keys
    // to sync replicas (cheap way to exercise protected writes).
    for key in 0..1024u64 {
        let addr = LogicalAddr::new(kv.segment_of(key).unwrap(), (key % 128) * 256);
        pm.write(&mut pool, addr, &key.to_le_bytes()).unwrap();
    }

    let affected = pool.crash_server(victim).unwrap();
    let report = pm.recover(&mut pool, &mut fabric, SimTime::ZERO, victim, &affected);
    assert!(report.lost.is_empty(), "all victim segments were mirrored");

    // Every key reads back its value.
    for key in 0..1024u64 {
        let (v, _) = kv
            .get(&mut pool, &mut fabric, SimTime::ZERO, NodeId(2), key)
            .unwrap();
        assert_eq!(&v[..8], &key.to_le_bytes());
    }
}

/// Determinism: two identical runs (same seed, same config) produce
/// byte-identical outcomes across the whole stack.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let mut pool = LogicalPool::new(PoolConfig {
            servers: 4,
            capacity_per_server: 64 * FRAME_BYTES,
            shared_per_server: 48 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 64,
        });
        let mut fabric = Fabric::new(LinkProfile::link1(), 4);
        let cfg = KvConfig::default();
        let mut kv = KvStore::create(&mut pool, cfg.clone()).unwrap();
        let mut w = KvWorkload::new(&cfg, DetRng::new(99));
        let (end, avg) = w
            .run(&mut kv, &mut pool, &mut fabric, SimTime::ZERO, NodeId(1), 2_000)
            .unwrap();
        let mut bal = LocalityBalancer::new(BalancerConfig::default());
        let round = bal.run_round(&mut pool, &mut fabric, end);
        (
            end.as_nanos(),
            avg.to_bits(),
            round.executed.len(),
            pool.access_counts(),
        )
    };
    assert_eq!(run(), run());
}

/// The balancer interacts correctly with migration mid-access-stream:
/// accesses before and after a migration see consistent data and the
/// fault counter reflects exactly one stale translation per mover.
#[test]
fn migration_during_access_stream() {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 3,
        capacity_per_server: 16 * FRAME_BYTES,
        shared_per_server: 12 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 16,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), 3);
    let seg = pool.alloc(2 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let addr = LogicalAddr::new(seg, 100);
    pool.write_bytes(addr, b"stable").unwrap();

    let mut now = SimTime::ZERO;
    let mut faults = 0;
    for i in 0..10 {
        if i == 5 {
            let r = migrate_segment(&mut pool, &mut fabric, now, seg, NodeId(2)).unwrap();
            now = r.complete;
        }
        let a = pool
            .access(&mut fabric, now, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        faults += a.faults;
        now = a.complete;
        assert_eq!(pool.read_bytes(addr, 6).unwrap(), b"stable");
    }
    assert_eq!(faults, 1, "exactly one stale translation");
}
