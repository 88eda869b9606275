// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Batch/single-op equivalence (`batch.rs` + `pool.rs`).
//!
//! The batched scatter-gather path reuses the single-op frame walk, so —
//! timing aside — a batch must be indistinguishable from issuing its ops
//! one by one: byte-identical data, identical per-op local/remote byte
//! splits and fault counts, and identical pool accounting, including the
//! telemetry registry. The generated op mixes include frame-spanning
//! lengths, mixed local/remote holders, duplicate segments, and stale
//! translations from both a plain migration and an A→B→A round trip.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, MemOp, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use proptest::prelude::*;

const SERVERS: u32 = 4;
const SEGS: usize = 4;
const SEG_BYTES: u64 = 2 * FRAME_BYTES;

/// A pool with one two-frame segment per server, the requester's (node 0)
/// TLB warmed on all of them, and two kinds of staleness injected: segment
/// 1 migrated away, segment 2 round-tripped back to its original holder.
fn setup() -> (LogicalPool, Fabric, Vec<SegmentId>) {
    let cfg = PoolConfig {
        servers: SERVERS,
        capacity_per_server: 16 * FRAME_BYTES,
        shared_per_server: 12 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        // No eviction pressure: the batch path translates each distinct
        // segment once, so under a tiny TLB the two issue orders would
        // legitimately diverge in eviction victims.
        tlb_capacity: 16,
    };
    let mut pool = LogicalPool::new(cfg);
    pool.attach_telemetry();
    let mut fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    let mut segs = Vec::new();
    for s in 0..SEGS as u32 {
        let seg = pool.alloc(SEG_BYTES, Placement::On(NodeId(s))).unwrap();
        let data: Vec<u8> = (0..SEG_BYTES).map(|b| (b as u8) ^ (s as u8)).collect();
        pool.write_bytes(LogicalAddr::new(seg, 0), &data).unwrap();
        segs.push(seg);
    }
    for &seg in &segs {
        pool.access(
            &mut fabric,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 0),
            8,
            MemOp::Read,
        )
        .unwrap();
    }
    migrate_segment(&mut pool, &mut fabric, SimTime::ZERO, segs[1], NodeId(3)).unwrap();
    migrate_segment(&mut pool, &mut fabric, SimTime::ZERO, segs[2], NodeId(1)).unwrap();
    migrate_segment(&mut pool, &mut fabric, SimTime::ZERO, segs[2], NodeId(2)).unwrap();
    (pool, fabric, segs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn batch_is_equivalent_to_one_by_one_issue(
        spec in proptest::collection::vec(
            (0..SEGS, 0..SEG_BYTES, 1..=SEG_BYTES, any::<bool>()),
            1..12,
        )
    ) {
        let (mut pa, mut fa, segs) = setup();
        let (mut pb, mut fb, segs_b) = setup();
        prop_assert_eq!(&segs, &segs_b, "identical setup, identical ids");

        let ops: Vec<BatchOp> = spec
            .iter()
            .map(|&(si, off, len, write)| {
                let len = len.min(SEG_BYTES - off);
                let addr = LogicalAddr::new(segs[si], off);
                if write {
                    BatchOp::write(addr, len)
                } else {
                    BatchOp::read(addr, len)
                }
            })
            .collect();

        let batch = pa
            .access_batch(&mut fa, SimTime::ZERO, NodeId(0), &ops)
            .unwrap();
        let singles: Vec<PoolAccess> = ops
            .iter()
            .map(|o| {
                pb.access(&mut fb, SimTime::ZERO, NodeId(0), o.addr, o.len, o.op)
                    .unwrap()
            })
            .collect();

        // Per-op accounting matches, op for op (timing aside).
        prop_assert_eq!(batch.ops.len(), singles.len());
        for (i, (b, s)) in batch.ops.iter().zip(&singles).enumerate() {
            prop_assert_eq!(b.local_bytes, s.local_bytes, "op {} local bytes", i);
            prop_assert_eq!(b.remote_bytes, s.remote_bytes, "op {} remote bytes", i);
            prop_assert_eq!(b.faults, s.faults, "op {} faults", i);
        }
        prop_assert_eq!(
            batch.faults,
            singles.iter().map(|s| s.faults).sum::<u32>()
        );

        // Pool chunk counters and telemetry books match exactly.
        prop_assert_eq!(pa.access_counts(), pb.access_counts());
        let sa = pa.telemetry().unwrap().snapshot();
        let sb = pb.telemetry().unwrap().snapshot();
        for name in [
            "pool.ops.read",
            "pool.ops.write",
            "pool.accesses.local",
            "pool.accesses.remote",
            "pool.bytes.local",
            "pool.bytes.remote",
            "pool.faults",
        ] {
            prop_assert_eq!(
                sa.counter(name, &[]),
                sb.counter(name, &[]),
                "telemetry counter {} diverged",
                name
            );
        }
        prop_assert_eq!(
            sa.counter_total("pool.accesses.local.by_server"),
            sb.counter_total("pool.accesses.local.by_server")
        );
        prop_assert_eq!(
            sa.counter_total("pool.accesses.remote.by_server"),
            sb.counter_total("pool.accesses.remote.by_server")
        );

        // Byte-identical data through both pools' translation paths.
        for &seg in &segs {
            let a = pa.read_bytes(LogicalAddr::new(seg, 0), SEG_BYTES).unwrap();
            let b = pb.read_bytes(LogicalAddr::new(seg, 0), SEG_BYTES).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}

/// `holder_done` carries exactly one entry per distinct holder, ordered by
/// node id, and its max is the batch completion time.
#[test]
fn holder_done_is_one_entry_per_holder() {
    let (mut pool, mut fabric, segs) = setup();
    // After setup's migrations the holders are: segs[0] → node 0 (local to
    // the requester), segs[1] → node 3, segs[2] → node 2, segs[3] → node 3.
    let ops = vec![
        BatchOp::read(LogicalAddr::new(segs[0], 0), 256),
        BatchOp::read(LogicalAddr::new(segs[1], 0), 256),
        BatchOp::write(LogicalAddr::new(segs[2], 64), 128),
        BatchOp::read(LogicalAddr::new(segs[3], 8), 512),
    ];
    let r = pool
        .access_batch(&mut fabric, SimTime::ZERO, NodeId(0), &ops)
        .unwrap();
    let holders: Vec<u32> = r.holder_done.iter().map(|&(h, _)| h.0).collect();
    assert_eq!(holders, [0, 2, 3], "one entry per holder, ordered by id");
    let max_done = r.holder_done.iter().map(|&(_, t)| t).max().unwrap();
    assert_eq!(max_done, r.complete, "last holder defines batch completion");
    for &(h, t) in &r.holder_done {
        assert!(t >= SimTime::ZERO && t <= r.complete, "holder {h:?} at {t}");
    }

    // An empty batch touches nobody.
    let empty = pool
        .access_batch(&mut fabric, SimTime::ZERO, NodeId(0), &[])
        .unwrap();
    assert!(empty.holder_done.is_empty());
}

/// The `schedule_holder_completions` bridge turns one batch into one queue
/// insertion pass: one event per holder, delivered at that holder's stream
/// completion time in timestamp order.
#[test]
fn holder_completions_schedule_one_event_per_holder() {
    let (mut pool, mut fabric, segs) = setup();
    let ops = vec![
        BatchOp::read(LogicalAddr::new(segs[1], 0), 4_096),
        BatchOp::read(LogicalAddr::new(segs[2], 0), 128),
        BatchOp::write(LogicalAddr::new(segs[3], 0), 1_024),
    ];
    let r = pool
        .access_batch(&mut fabric, SimTime::ZERO, NodeId(0), &ops)
        .unwrap();
    assert!(!r.holder_done.is_empty());

    let mut eng: Engine<(NodeId, SimTime)> = Engine::new();
    let ids = schedule_holder_completions(&mut eng, &r, |h, t| (h, t)).unwrap();
    assert_eq!(ids.len(), r.holder_done.len());
    assert_eq!(eng.pending(), r.holder_done.len());

    let mut fired: Vec<(NodeId, SimTime)> = Vec::new();
    eng.run(|eng, (h, t)| {
        assert_eq!(eng.now(), t, "completion event fires at the holder time");
        fired.push((h, t));
    });
    let mut expect = r.holder_done.clone();
    expect.sort_by_key(|&(h, t)| (t, h.0));
    assert_eq!(fired, expect, "events deliver in completion-time order");
    assert_eq!(eng.now(), r.complete);
}
