// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Integration test: degraded reads are byte-identical for mirrored and
//! parity-protected segments *while reconstruction is still in flight*.
//!
//! A crash queues two repairs (one mirrored segment, one parity member)
//! behind a batch-1 recovery orchestrator. At every intermediate state —
//! nothing repaired, one repaired, both repaired — every protected
//! segment must read back exactly its pre-crash bytes, whether the bytes
//! come from the primary, the mirror twin, or an on-the-fly XOR of the
//! parity survivors. Seeds are fixed; every run replays identically.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;

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

fn fill(rng: &mut DetRng, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.below(256) as u8).collect()
}

#[test]
fn degraded_reads_bridge_reconstruction_for_both_schemes() {
    for seed in [3u64, 42, 911] {
        let (mut p, mut f, mut pm) = setup(6);
        let mut rng = DetRng::new(seed).fork("degraded-reads");
        let now = SimTime::ZERO;

        // Node 0 hosts a mirrored segment and a parity-group member, so
        // its crash queues both repair flavors at once.
        let m = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let expect_m = fill(&mut rng, FRAME_BYTES);
        let expect_a = fill(&mut rng, FRAME_BYTES);
        let expect_b = fill(&mut rng, FRAME_BYTES);
        p.write_bytes(LogicalAddr::new(m, 0), &expect_m).unwrap();
        p.write_bytes(LogicalAddr::new(a, 0), &expect_a).unwrap();
        p.write_bytes(LogicalAddr::new(b, 0), &expect_b).unwrap();
        pm.mirror(&mut p, &mut f, now, m).unwrap();
        pm.protect_parity(&mut p, &mut f, now, &[a, b]).unwrap();

        let mut orch = RecoveryOrchestrator::new();
        let affected = p.crash_server(NodeId(0)).unwrap();
        f.set_port_down(NodeId(0), true);
        assert_eq!(affected.len(), 2, "seed {seed}: both app segments hit");
        orch.on_confirmed_down(&p, NodeId(0), 1);
        assert_eq!(orch.pending_segments(), 2);

        // Helper: read a random range of `seg` degraded and compare.
        let check_range = |p: &LogicalPool,
                               f: &mut Fabric,
                               pm: &ProtectionManager,
                               rng: &mut DetRng,
                               seg: SegmentId,
                               expect: &[u8],
                               label: &str| {
            let len = 1 + rng.below(256);
            let off = rng.below(FRAME_BYTES - len);
            let r = pm
                .read_degraded(p, f, now, NodeId(5), LogicalAddr::new(seg, off), len)
                .unwrap_or_else(|e| panic!("seed {seed} {label}: {e}"));
            assert_eq!(
                r.bytes,
                &expect[off as usize..(off + len) as usize],
                "seed {seed} {label}: bytes diverge"
            );
            r.source
        };

        // Mid-flight, nothing repaired: the mirror serves from its twin,
        // the parity member from an XOR of the survivors.
        let src_m = check_range(&p, &mut f, &pm, &mut rng, m, &expect_m, "pre mirror");
        assert_eq!(src_m, DegradedSource::MirrorReplica, "seed {seed}");
        let src_a = check_range(&p, &mut f, &pm, &mut rng, a, &expect_a, "pre parity");
        assert_eq!(
            src_a,
            DegradedSource::ParityRebuild { survivors: 2 },
            "seed {seed}"
        );
        // The untouched member still reads from its live primary.
        let src_b = check_range(&p, &mut f, &pm, &mut rng, b, &expect_b, "pre untouched");
        assert_eq!(src_b, DegradedSource::Primary, "seed {seed}");

        // One batch-1 step: exactly one of the two is repaired, the other
        // is still degraded — and both must stay byte-identical.
        let t1 = orch.step(&mut p, &mut f, &mut pm, now, 1);
        assert_eq!(t1.len(), 1, "seed {seed}: batch of one");
        assert!(orch.has_pending(), "seed {seed}: one repair still queued");
        check_range(&p, &mut f, &pm, &mut rng, m, &expect_m, "mid mirror");
        check_range(&p, &mut f, &pm, &mut rng, a, &expect_a, "mid parity");

        // Drain the queue: everything reads normally from live primaries.
        let t2 = orch.step(&mut p, &mut f, &mut pm, now, 1);
        assert_eq!(t2.len(), 1, "seed {seed}");
        assert!(!orch.has_pending(), "seed {seed}");
        for (seg, expect, label) in [
            (m, &expect_m, "post mirror"),
            (a, &expect_a, "post parity"),
            (b, &expect_b, "post untouched"),
        ] {
            let src = check_range(&p, &mut f, &pm, &mut rng, seg, expect, label);
            assert_eq!(src, DegradedSource::Primary, "seed {seed} {label}");
            let got = p.read_bytes(LogicalAddr::new(seg, 0), FRAME_BYTES).unwrap();
            assert_eq!(&got, expect, "seed {seed} {label}: full segment");
        }
    }
}

#[test]
fn degraded_read_replays_identically_from_its_seed() {
    let run = |seed: u64| {
        let (mut p, mut f, mut pm) = setup(4);
        let mut rng = DetRng::new(seed).fork("replay");
        let now = SimTime::ZERO;
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let data = fill(&mut rng, FRAME_BYTES);
        p.write_bytes(LogicalAddr::new(seg, 0), &data).unwrap();
        pm.mirror(&mut p, &mut f, now, seg).unwrap();
        p.crash_server(NodeId(0)).unwrap();
        f.set_port_down(NodeId(0), true);
        let r = pm
            .read_degraded(&p, &mut f, now, NodeId(2), LogicalAddr::new(seg, 7), 96)
            .unwrap();
        (r.bytes, r.complete, r.source)
    };
    assert_eq!(run(17), run(17), "same seed must replay bit-identically");
}
