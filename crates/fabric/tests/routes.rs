// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Routing by topology: the datacenter shapes against the digests of the
//! two fabric models they replaced, and the one-rack, one-leaf shape
//! against the star, op for op.

use lmp_fabric::{Band, BandWeights, Fabric, LinkProfile, MemOp, NodeId};
use lmp_sim::prelude::*;
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// 1,000 reads per multiplier pair between random distinct nodes of a
/// `racks × leaves × per_leaf` Link1 datacenter, 64 B to 1 MiB each,
/// issued 0–4 µs apart so wires queue. Returns the FNV digest of every
/// read's `(complete, latency)` and the digest of its wire schedule alone
/// (`complete - latency`).
fn oracle_workload(racks: u32, leaves: u32, per_leaf: u32) -> (u64, u64) {
    let mut full = FNV_OFFSET;
    let mut wires = FNV_OFFSET;
    let n = u64::from(racks * leaves * per_leaf);
    let multipliers = [(1.0, 1.0), (1.0, 2.0), (4.0, 1.0), (4.0, 2.0)];
    for (i, (uplink, spine)) in multipliers.into_iter().enumerate() {
        let mut f = Fabric::datacenter(
            LinkProfile::link1(),
            racks,
            leaves,
            per_leaf,
            uplink,
            spine,
            SimDuration::from_nanos(40),
        );
        let shape = u64::from(racks * 100 + leaves * 10 + per_leaf);
        let mut rng = DetRng::new(19).fork_indexed("routes", shape * 4 + i as u64);
        let mut now = 0u64;
        for _ in 0..1_000 {
            now += rng.below(4_000);
            let r = rng.below(n);
            let mut h = rng.below(n - 1);
            if h >= r {
                h += 1;
            }
            let e = 6 + rng.below(14);
            let bytes = (1u64 << e) + rng.below(1u64 << e);
            let c = f
                .try_read(
                    SimTime::from_nanos(now),
                    NodeId(r as u32),
                    NodeId(h as u32),
                    bytes,
                )
                .unwrap();
            fold(&mut full, c.complete.as_nanos());
            fold(&mut full, c.latency.as_nanos());
            fold(&mut wires, (c.complete - c.latency).as_nanos());
        }
    }
    (full, wires)
}

/// Golden digests of the deleted `LeafSpineFabric`/`DatacenterFabric`
/// reads, computed with `DatacenterFabric::read` at commit bd7a804. Two
/// racks of one leaf take the cross-rack paths; the other shapes also
/// take the cross-leaf paths. The wire schedules are that model's
/// unchanged. The full digests are that model's with its loaded-latency
/// sample widened from the payload's route to both routes between the
/// ends — the star's rule, which this fabric applies everywhere; the
/// deleted model read 4,795 of these 12,000 latencies lower (by 24 ns on
/// average, at most 266 ns).
#[test]
fn datacenter_reads_match_the_deleted_models() {
    let golden = [
        ((1, 2, 3), 0xc8c7_8efd_14a5_3498, 0xf5d4_cbea_7750_5049),
        ((2, 1, 3), 0x9741_d268_719e_2162, 0xcbe8_0f54_90c4_4d02),
        ((3, 2, 2), 0x5c2a_b1a9_16e7_6608, 0xdebc_2b94_8d5e_618d),
    ];
    for ((racks, leaves, per_leaf), full, wires) in golden {
        let got = oracle_workload(racks, leaves, per_leaf);
        assert_eq!(
            got,
            (full, wires),
            "shape {racks}×{leaves}×{per_leaf}: got {:#018x}/{:#018x}",
            got.0,
            got.1
        );
    }
}

/// One fabric operation of the differential test. Node fields are raw
/// draws, folded onto `0..=n` so that `n` — an id neither fabric has —
/// comes up too.
#[derive(Debug, Clone)]
enum Op {
    Read(u32, u32, u64, Band),
    Write(u32, u32, u64, Band),
    Batch(MemOp, u32, u32, Vec<u64>, u64, Band),
    Hedged(u32, u32, u32, u64, Band),
    Probe(u32, u32),
    Estimate(u32, u32, u64),
    PortDown(u32, bool),
    Degrade(u32, f64),
    Restore(u32),
    Provision(u32, f64),
}

fn any_band() -> impl Strategy<Value = Band> {
    (0u8..3).prop_map(|b| match b {
        0 => Band::High,
        1 => Band::Normal,
        _ => Band::Low,
    })
}

fn any_op() -> impl Strategy<Value = Op> {
    let bytes = 1u64..2_000_000;
    prop_oneof![
        4 => (0u32..7, 0u32..7, bytes.clone(), any_band())
            .prop_map(|(r, h, b, band)| Op::Read(r, h, b, band)),
        3 => (0u32..7, 0u32..7, bytes.clone(), any_band())
            .prop_map(|(r, h, b, band)| Op::Write(r, h, b, band)),
        3 => (
            any::<bool>(),
            0u32..7,
            0u32..7,
            proptest::collection::vec(64u64..300_000, 1..9),
            0u64..12,
            any_band(),
        )
            .prop_map(|(read, r, h, chunks, ops, band)| {
                let op = if read { MemOp::Read } else { MemOp::Write };
                Op::Batch(op, r, h, chunks, ops, band)
            }),
        2 => (0u32..7, 0u32..7, 0u32..7, bytes.clone(), any_band())
            .prop_map(|(r, p, h, b, band)| Op::Hedged(r, p, h, b, band)),
        2 => (0u32..7, 0u32..7).prop_map(|(p, t)| Op::Probe(p, t)),
        2 => (0u32..7, 0u32..7, bytes).prop_map(|(r, h, b)| Op::Estimate(r, h, b)),
        1 => (0u32..7, any::<bool>()).prop_map(|(n, down)| Op::PortDown(n, down)),
        1 => (0u32..7, 1.0f64..4.0).prop_map(|(n, f)| Op::Degrade(n, f)),
        1 => (0u32..7).prop_map(Op::Restore),
        1 => (0u32..7, 0.5f64..8.0).prop_map(|(n, m)| Op::Provision(n, m)),
    ]
}

/// Apply `op` at `now` with node draws folded onto `0..=n`; the result's
/// debug form.
fn apply(f: &mut Fabric, now: SimTime, op: &Op, n: u32) -> String {
    let id = |raw: u32| NodeId(raw % (n + 1));
    match op {
        Op::Read(r, h, b, band) => {
            format!("{:?}", f.try_read_banded(now, id(*r), id(*h), *b, *band))
        }
        Op::Write(r, h, b, band) => {
            format!("{:?}", f.try_write_banded(now, id(*r), id(*h), *b, *band))
        }
        Op::Batch(op, r, h, chunks, ops, band) => format!(
            "{:?}",
            f.transfer_batch_banded(now, id(*r), id(*h), *op, chunks, *ops, *band)
        ),
        Op::Hedged(r, p, h, b, band) => format!(
            "{:?}",
            f.try_read_hedged(now, id(*r), id(*p), id(*h), *b, *band)
        ),
        Op::Probe(p, t) => format!("{:?}", f.probe(now, id(*p), id(*t))),
        Op::Estimate(r, h, b) => {
            format!("{:?}", f.estimate_read_completion(now, id(*r), id(*h), *b))
        }
        Op::PortDown(node, down) => {
            f.set_port_down(id(*node), *down);
            format!("{}", f.is_port_down(id(*node)))
        }
        Op::Degrade(node, factor) => {
            f.degrade_node(id(*node), *factor);
            String::new()
        }
        Op::Restore(node) => {
            f.restore_node(id(*node));
            String::new()
        }
        Op::Provision(node, m) => {
            f.provision_uplink(id(*node), *m);
            String::new()
        }
    }
}

/// Everything an observer can read off a fabric at `now`.
fn state(f: &mut Fabric, now: SimTime) -> (Vec<u64>, Vec<u64>, String, String) {
    let mut ledger = Vec::new();
    f.ledger(&mut ledger);
    let mut layout = Vec::new();
    f.layout(now, &mut layout);
    let hist = format!("{:?}", f.read_latency_histogram());
    let mut reg = lmp_telemetry::MetricRegistry::new();
    f.export_into(now, &mut reg);
    (ledger, layout, hist, reg.snapshot().to_json())
}

proptest! {
    /// One rack of one leaf is the star: random op sequences give the
    /// same results, counters, wire schedules, latency histogram and
    /// telemetry on both, bands on or off, whatever the unused uplink
    /// multipliers and hop latency.
    #[test]
    fn one_leaf_datacenter_is_the_star(
        n in 2u32..7,
        bands in any::<bool>(),
        shape in (0.5f64..8.0, 0.5f64..8.0, 0u64..200),
        ops in proptest::collection::vec((0u64..3_000, any_op()), 1..60),
    ) {
        let profile = LinkProfile::link1();
        let mut star = Fabric::new(profile.clone(), n);
        let mut dc = Fabric::datacenter(
            profile,
            1,
            1,
            n,
            shape.0,
            shape.1,
            SimDuration::from_nanos(shape.2),
        );
        if bands {
            star.enable_bands(BandWeights::default());
            dc.enable_bands(BandWeights::default());
        }
        let mut now = SimTime::ZERO;
        for (dt, op) in &ops {
            now += SimDuration::from_nanos(*dt);
            let a = apply(&mut star, now, op, n);
            let b = apply(&mut dc, now, op, n);
            prop_assert_eq!(a, b, "{:?} at {}", op, now);
        }
        let (star_state, dc_state) = (state(&mut star, now), state(&mut dc, now));
        // Two wires per node and no others: no uplink a route never crosses.
        prop_assert_eq!(star_state.0.len(), 2 + 4 * n as usize);
        prop_assert_eq!(star_state, dc_state);
    }
}
