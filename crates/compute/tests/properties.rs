// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property tests for scans, placement, and shippable operators.

use lmp_compute::{
    reduce_timed, reduce_value, scan_ranges, Choice, DistVector, OpOutput, Operator, Planner,
    Predicate, ReduceOp, ScanParams, Strategy,
};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use proptest::prelude::*;

fn setup(shared_frames: u64) -> (LogicalPool, Fabric) {
    let cfg = PoolConfig {
        servers: 4,
        capacity_per_server: (shared_frames + 2) * FRAME_BYTES,
        shared_per_server: shared_frames * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    };
    (LogicalPool::new(cfg), Fabric::new(LinkProfile::link1(), 4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ranged scans account every byte exactly once, for arbitrary stripe
    /// layouts, core counts, and chunk sizes.
    #[test]
    fn scan_accounts_every_byte(
        stripe_frames in proptest::collection::vec(1u64..4, 1..4),
        cores in 1u32..16,
        chunk_kb in 1u64..4096,
    ) {
        let (mut p, mut f) = setup(16);
        let mut ranges = Vec::new();
        let mut total = 0;
        for (i, frames) in stripe_frames.iter().enumerate() {
            let len = frames * FRAME_BYTES;
            let seg = p.alloc(len, Placement::On(NodeId(i as u32))).unwrap();
            ranges.push((seg, 0, len));
            total += len;
        }
        let params = ScanParams {
            cores,
            chunk: chunk_kb * 1024,
            ..ScanParams::default()
        };
        let out = scan_ranges(&mut p, &mut f, SimTime::ZERO, NodeId(0), &ranges, params).unwrap();
        prop_assert_eq!(out.local_bytes + out.remote_bytes, total);
        prop_assert_eq!(out.local_bytes, stripe_frames[0] * FRAME_BYTES);
    }

    /// Operator results are choice-independent and match a straightforward
    /// reference computation, for arbitrary vector contents.
    #[test]
    fn operators_match_reference(
        values in proptest::collection::vec(any::<u64>(), 8..64),
        threshold in any::<u64>(),
    ) {
        let (mut p, mut f) = setup(8);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        // One frame per stripe; values land in stripe 0's prefix.
        let v = DistVector::stripe_even(&mut p, 4 * FRAME_BYTES, &servers).unwrap();
        let bytes: Vec<u8> = values.iter().flat_map(|x| x.to_le_bytes()).collect();
        p.write_bytes(LogicalAddr::new(v.stripes[0].1, 0), &bytes).unwrap();

        // Reference over the full (zero-padded) vector.
        let elems_total = v.len() / 8;
        let mut all = values.clone();
        all.resize(elems_total as usize, 0);

        let planner = Planner::new(ScanParams::with_cores(2), 0.0);
        for (op, expect) in [
            (
                Operator::Aggregate(ReduceOp::Sum),
                all.iter().fold(0u64, |a, &b| a.wrapping_add(b)),
            ),
            (
                Operator::Aggregate(ReduceOp::Max),
                all.iter().copied().max().unwrap(),
            ),
            (
                Operator::Count(Predicate::Greater(threshold)),
                all.iter().filter(|&&x| x > threshold).count() as u64,
            ),
        ] {
            let plan = planner.plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op).unwrap();
            for choice in [Choice::Fetch, Choice::Ship] {
                let (got, _) = planner
                    .execute(&mut p, &mut f, SimTime::ZERO, NodeId(0), op, &plan.forced(choice))
                    .unwrap();
                prop_assert_eq!(&got, &OpOutput::Scalar(expect), "{:?} via {:?}", op, choice);
            }
        }
    }

    /// reduce_value matches a flat fold regardless of striping.
    #[test]
    fn reduce_value_is_striping_invariant(
        values in proptest::collection::vec(any::<u64>(), 4..32),
        nstripes in 1usize..4,
    ) {
        let (mut p, _) = setup(8);
        let servers: Vec<NodeId> = (0..nstripes as u32).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, nstripes as u64 * FRAME_BYTES, &servers).unwrap();
        // Spread the values across stripes in order.
        let per = values.len() / nstripes + 1;
        let mut expect = 0u64;
        for (i, chunk) in values.chunks(per).enumerate() {
            let bytes: Vec<u8> = chunk.iter().flat_map(|x| x.to_le_bytes()).collect();
            p.write_bytes(LogicalAddr::new(v.stripes[i].1, 0), &bytes).unwrap();
            expect = chunk.iter().fold(expect, |a, &b| a.wrapping_add(b));
        }
        prop_assert_eq!(reduce_value(&p, &v, ReduceOp::Sum).unwrap(), expect);
    }

    /// Shipping never moves more fabric bytes than pulling, for any layout.
    #[test]
    fn shipping_never_moves_more_data(requester in 0u32..4) {
        let (mut p, mut f) = setup(8);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 8 * FRAME_BYTES, &servers).unwrap();
        let pull = reduce_timed(
            &mut p, &mut f, SimTime::ZERO, NodeId(requester), &v, Strategy::Pull,
            ScanParams::with_cores(4),
        )
        .unwrap();
        let ship = reduce_timed(
            &mut p, &mut f, SimTime::ZERO, NodeId(requester), &v, Strategy::Ship,
            ScanParams::with_cores(4),
        )
        .unwrap();
        prop_assert!(ship.fabric_bytes <= pull.fabric_bytes);
        prop_assert!(ship.fabric_bytes <= 3 * 8, "three remote partials max");
    }

    /// `reduce_timed` is the timing of a forced pushdown plan: a Pull is
    /// `execute` on `plan.forced(Choice::Fetch)` and a Ship is `execute` on
    /// `plan.forced(Choice::Ship)`, down to the rack snapshot, for any
    /// holder set, length, requester, pacing, link and background load.
    ///
    /// The vectors hold one stripe per holder. On a holder with several
    /// stripes the two differ: `reduce_timed` ships one 8-byte partial per
    /// holder, while `execute` ships 8 bytes per shipped segment.
    #[test]
    fn reduce_timed_equals_forced_plan(
        holders in 1u32..=4,
        first in 0u32..4,
        len in 1u64..4 * FRAME_BYTES,
        requester in 0u32..4,
        cores in 1u32..16,
        chunk_kb in 16u64..4096,
        link1 in any::<bool>(),
        bg_mib in prop_oneof![Just(0u64), 1u64..64],
    ) {
        let servers: Vec<NodeId> = (0..holders).map(|i| NodeId((first + i) % 4)).collect();
        let params = ScanParams {
            cores,
            chunk: chunk_kb * 1024,
            ..ScanParams::default()
        };
        let world = || {
            let (mut p, _) = setup(8);
            let link = if link1 { LinkProfile::link1() } else { LinkProfile::link0() };
            let mut f = Fabric::new(link, 4);
            p.attach_telemetry();
            let v = DistVector::stripe_even(&mut p, len * holders as u64, &servers).unwrap();
            if bg_mib > 0 {
                for h in &servers {
                    f.write(SimTime::ZERO, *h, NodeId((h.0 + 1) % 4), bg_mib * MIB);
                }
            }
            (p, f, v)
        };
        let op = Operator::Aggregate(ReduceOp::Sum);
        let planner = Planner::new(params, 0.0);
        let start = SimTime::from_nanos(1_000);
        for (strategy, choice) in [(Strategy::Pull, Choice::Fetch), (Strategy::Ship, Choice::Ship)] {
            let (mut p, mut f, v) = world();
            let timed = reduce_timed(&mut p, &mut f, start, NodeId(requester), &v, strategy, params)
                .unwrap();
            let timed_rack = rack_snapshot(&mut p, &mut f, timed.complete).to_json();

            let (mut p, mut f, v) = world();
            let plan = planner.plan(&mut p, &f, start, NodeId(requester), &v, op).unwrap();
            let (_, planned) = planner
                .execute(&mut p, &mut f, start, NodeId(requester), op, &plan.forced(choice))
                .unwrap();
            let planned_rack = rack_snapshot(&mut p, &mut f, planned.complete).to_json();

            prop_assert_eq!(timed.complete, planned.complete, "{:?}", strategy);
            prop_assert_eq!(timed.fabric_bytes, planned.fabric_bytes, "{:?}", strategy);
            prop_assert_eq!(timed.local_bytes, planned.local_bytes, "{:?}", strategy);
            prop_assert_eq!(timed_rack, planned_rack, "{:?}", strategy);
        }
    }
}
