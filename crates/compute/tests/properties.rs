// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property tests for scans, placement, and shippable operators. A forced
//! plan is how a reduction is pulled to the requester (`Choice::Fetch`) or
//! shipped to the data (`Choice::Ship`); the plain tests at the end pin
//! what each costs.

use lmp_compute::{
    scan_ranges, Choice, DistVector, OpOutput, Operator, Plan, Planner, Predicate, PushdownOutcome,
    ReduceOp, ScanParams,
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

/// Plan a sum of `v` from `requester` at `start`, then execute the plan
/// with every remote segment forced to `choice`.
fn forced_sum(
    p: &mut LogicalPool,
    f: &mut Fabric,
    start: SimTime,
    requester: NodeId,
    v: &DistVector,
    choice: Choice,
    params: ScanParams,
) -> (OpOutput, PushdownOutcome, Plan) {
    let op = Operator::Aggregate(ReduceOp::Sum);
    let planner = Planner::new(params, 0.0);
    let plan = planner.plan(p, f, start, requester, v, op).unwrap();
    let (out, outcome) = planner
        .execute(p, f, start, requester, op, &plan.forced(choice))
        .unwrap();
    (out, outcome, plan)
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

    /// A sum, fetched or shipped, matches a flat fold regardless of
    /// striping.
    #[test]
    fn sum_is_striping_invariant(
        values in proptest::collection::vec(any::<u64>(), 4..32),
        nstripes in 1usize..4,
    ) {
        let (mut p, mut f) = setup(8);
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
        for choice in [Choice::Fetch, Choice::Ship] {
            let (got, _, _) = forced_sum(
                &mut p, &mut f, SimTime::ZERO, NodeId(0), &v, choice, ScanParams::with_cores(4),
            );
            prop_assert_eq!(got, OpOutput::Scalar(expect), "{:?}", choice);
        }
    }

    /// Shipping never moves more fabric bytes than fetching, for any
    /// requester: at most one 8-byte partial per remote holder.
    #[test]
    fn shipping_never_moves_more_data(requester in 0u32..4) {
        let (mut p, mut f) = setup(8);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 8 * FRAME_BYTES, &servers).unwrap();
        let params = ScanParams::with_cores(4);
        let (_, fetch, _) = forced_sum(
            &mut p, &mut f, SimTime::ZERO, NodeId(requester), &v, Choice::Fetch, params,
        );
        let (_, ship, _) = forced_sum(
            &mut p, &mut f, SimTime::ZERO, NodeId(requester), &v, Choice::Ship, params,
        );
        prop_assert!(ship.fabric_bytes <= fetch.fabric_bytes);
        prop_assert!(ship.fabric_bytes <= 3 * 8, "three remote partials max");
    }

    /// A forced fetch costs exactly one `scan_ranges` over the vector's
    /// stripes concatenated in logical order, so the requester's cores
    /// share one budget however many stripes there are. Checked down to
    /// the rack snapshot, for any holders (repeats included), length,
    /// requester, pacing, link and background load.
    #[test]
    fn forced_fetch_is_one_scan_over_the_stripes(
        holders in proptest::collection::vec(0u32..4, 1..5),
        len in 1u64..=2 * FRAME_BYTES,
        requester in 0u32..4,
        cores in 1u32..16,
        chunk_kb in 16u64..4096,
        link1 in any::<bool>(),
        bg_mib in prop_oneof![Just(0u64), 1u64..64],
    ) {
        let servers: Vec<NodeId> = holders.iter().map(|&h| NodeId(h)).collect();
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
            let v = DistVector::stripe_even(&mut p, len * servers.len() as u64, &servers).unwrap();
            if bg_mib > 0 {
                for h in &servers {
                    f.write(SimTime::ZERO, *h, NodeId((h.0 + 1) % 4), bg_mib * MIB);
                }
            }
            (p, f, v)
        };
        let start = SimTime::from_nanos(1_000);

        let (mut p, mut f, v) = world();
        let ranges: Vec<(SegmentId, u64, u64)> =
            v.stripes.iter().map(|(_, seg, len)| (*seg, 0, *len)).collect();
        let scan = scan_ranges(&mut p, &mut f, start, NodeId(requester), &ranges, params).unwrap();
        let scan_rack = rack_snapshot(&mut p, &mut f, scan.complete).to_json();

        let (mut p, mut f, v) = world();
        let (_, fetch, _) =
            forced_sum(&mut p, &mut f, start, NodeId(requester), &v, Choice::Fetch, params);
        let fetch_rack = rack_snapshot(&mut p, &mut f, fetch.complete).to_json();

        prop_assert_eq!(scan.complete, fetch.complete);
        prop_assert_eq!(scan.remote_bytes, fetch.fabric_bytes);
        prop_assert_eq!(scan.local_bytes, fetch.local_bytes);
        prop_assert_eq!(scan_rack, fetch_rack);
    }
}

#[test]
fn shipping_beats_fetching_on_distributed_data() {
    let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
    let len = 64 * FRAME_BYTES;
    let run = |choice| {
        let (mut p, mut f) = setup(64);
        let v = DistVector::stripe_even(&mut p, len, &servers).unwrap();
        let (_, out, plan) = forced_sum(
            &mut p,
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            &v,
            choice,
            ScanParams::default(),
        );
        assert_eq!((plan.stale_holders, out.stale_holders), (0, 0));
        out
    };
    let (fetch, ship) = (run(Choice::Fetch), run(Choice::Ship));
    assert!(
        ship.complete < fetch.complete,
        "{} vs {}",
        ship.complete,
        fetch.complete
    );
    // Shipping moves one 8-byte partial per remote holder; fetching moves
    // the three remote stripes.
    assert_eq!(ship.fabric_bytes, 3 * 8);
    assert_eq!(fetch.fabric_bytes, len * 3 / 4);
    // Aggregate shipped bandwidth approaches servers × local DRAM.
    let bw = Bandwidth::measured(len, ship.complete.saturating_duration_since(SimTime::ZERO));
    assert!(
        bw.as_gbps() > 300.0,
        "aggregate near-memory bandwidth only {bw}"
    );
}

#[test]
fn shipping_one_local_stripe_equals_fetching_it() {
    let params = ScanParams {
        cores: 4,
        chunk: MIB,
        ..ScanParams::default()
    };
    let run = |choice| {
        let (mut p, mut f) = setup(16);
        let v = DistVector::stripe_even(&mut p, 4 * FRAME_BYTES, &[NodeId(0)]).unwrap();
        forced_sum(&mut p, &mut f, SimTime::ZERO, NodeId(0), &v, choice, params).1
    };
    let ship = run(Choice::Ship);
    assert_eq!(ship, run(Choice::Fetch));
    assert_eq!(ship.fabric_bytes, 0);
}

#[test]
fn plan_time_stale_holder_is_resolved_and_counted() {
    let (mut p, mut f) = setup(16);
    p.attach_telemetry();
    let v = DistVector::stripe_even(&mut p, 4 * FRAME_BYTES, &[NodeId(1), NodeId(2)]).unwrap();
    // Move the first stripe after the vector recorded its holder: the
    // balancer/recovery race a plan must survive.
    migrate_segment(&mut p, &mut f, SimTime::ZERO, v.stripes[0].1, NodeId(3)).unwrap();
    let start = SimTime::from_nanos(10_000_000);
    for stale_count in [1, 2] {
        let (_, ship, plan) = forced_sum(
            &mut p,
            &mut f,
            start,
            NodeId(0),
            &v,
            Choice::Ship,
            ScanParams::with_cores(4),
        );
        // Each plan counts the still-stale record again; the plan holds the
        // live holder, so execute finds nothing more.
        assert_eq!((plan.stale_holders, ship.stale_holders), (1, 0));
        assert_eq!(p.telemetry().unwrap().stale_holders(), stale_count);
        // The relocated stripe ran on its *new* holder: only the two
        // 8-byte partials crossed the fabric.
        assert_eq!(ship.fabric_bytes, 2 * 8);
    }
}
