// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! The fast-forwarding scan engine against the stepping reference on a
//! logical pool: every simulated number and every piece of state a later
//! access or report can see must match.

use lmp_compute::scan::{self, reference, LogicalScan};
use lmp_compute::{ScanOutcome, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{BandWeights, Fabric, LinkId, LinkProfile, NodeId};
use lmp_mem::{DramChannel, DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use proptest::prelude::*;

const SERVERS: u32 = 4;

/// One case: the pool, the vector's stripes and the scans to run.
#[derive(Debug, Clone)]
struct Case {
    shared_frames: u64,
    link0: bool,
    /// Weighted priority bands on every link.
    bands: bool,
    tlb: usize,
    telemetry: bool,
    /// `(holder, frames, bytes short of whole frames)` per stripe.
    stripes: Vec<(u32, u64, u64)>,
    requester: u32,
    params: ScanParams,
    scans: usize,
    background: bool,
}

/// Build the case's pool and vector, run its scans with `fast` (the
/// engine) or the reference, and describe everything left behind.
fn run(case: &Case, fast: bool) -> (Vec<ScanOutcome>, u64, String) {
    let cfg = PoolConfig {
        servers: SERVERS,
        capacity_per_server: (case.shared_frames + 2) * FRAME_BYTES,
        shared_per_server: case.shared_frames * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: case.tlb,
    };
    let mut pool = LogicalPool::new(cfg);
    let link = if case.link0 { LinkProfile::link0() } else { LinkProfile::link1() };
    let mut fabric = Fabric::new(link, SERVERS);
    if case.bands {
        fabric.enable_bands(BandWeights::default());
    }
    if case.telemetry {
        pool.attach_telemetry();
    }
    let ranges: Vec<(SegmentId, u64, u64)> = case
        .stripes
        .iter()
        .map(|&(holder, frames, short)| {
            let len = frames * FRAME_BYTES - short;
            let seg = pool.alloc(len, Placement::On(NodeId(holder))).unwrap();
            // Scan from a nonzero offset where the stripe allows it.
            let off = short.min(len - 1);
            (seg, off, len - off)
        })
        .collect();
    let requester = NodeId(case.requester);
    let mut now = SimTime::ZERO;
    if case.background {
        // Another server streams part of the vector first, leaving busy
        // DRAM and links behind.
        let other = NodeId((case.requester + 1) % SERVERS);
        let (seg, off, len) = ranges[0];
        let ops: Vec<BatchOp> = (0..4)
            .map(|i| BatchOp::read(LogicalAddr::new(seg, off + i * len / 4), (len / 4).max(1)))
            .collect();
        now = pool.access_batch(&mut fabric, now, other, &ops).unwrap().complete;
    }
    let mut outcomes = Vec::new();
    let mut skipped = 0;
    for _ in 0..case.scans {
        let mut backend = LogicalScan::new(&mut pool, &mut fabric, requester, &ranges);
        let out = if fast {
            let r = scan::run(&mut backend, now, case.params).unwrap();
            skipped += r.fast_forwarded;
            r.outcome
        } else {
            reference::run(&mut backend, now, case.params).unwrap()
        };
        now = out.complete;
        outcomes.push(out);
    }
    (outcomes, skipped, describe(&mut pool, &mut fabric, now))
}

fn dram(d: &DramChannel, now: SimTime) -> String {
    let mut layout = Vec::new();
    d.layout(now, &mut layout);
    format!(
        "{} {} {:?} {:?} {layout:?}",
        d.access_count(),
        d.bytes_accessed(),
        d.latency_histogram(),
        d.estimate().value().map(f64::to_bits)
    )
}

/// Every counter, histogram, estimate, busy schedule, hotness count and
/// translation-cache statistic, plus the rack snapshot's JSON.
fn describe(pool: &mut LogicalPool, fabric: &mut Fabric, now: SimTime) -> String {
    let mut out = format!("{:?} {}", pool.access_counts(), pool.global_map().lookup_count());
    for s in 0..SERVERS {
        let id = NodeId(s);
        let node = pool.node(id);
        out += &format!(
            "\n{s}: {} {} {:?} {}",
            node.local_access_count(),
            node.remote_access_count(),
            node.hotness().top_k(usize::MAX),
            dram(node.dram(), now)
        );
        if let Some(tlb) = pool.tlb(id) {
            out += &format!(" tlb {} {} {}", tlb.hit_count(), tlb.miss_count(), tlb.stale_count());
        }
    }
    let mut layout = Vec::new();
    fabric.layout(now, &mut layout);
    out += &format!(
        "\nfabric {} {} {:?} {layout:?}",
        fabric.read_count(),
        fabric.write_count(),
        fabric.read_latency_histogram()
    );
    for i in 0..fabric.node_count() as usize * 2 {
        let l = fabric.link(LinkId(i));
        out += &format!(
            "\nlink {i}: {} {} {:?}",
            l.bytes_sent(),
            l.transfer_count(),
            l.latency_histogram()
        );
    }
    out + "\n" + &rack_snapshot(pool, fabric, now).to_json()
}

fn case() -> impl Strategy<Value = Case> {
    (
        (16u64..160, 0u8..4, 0usize..4, any::<bool>(), 0u32..SERVERS),
        proptest::collection::vec((0u32..SERVERS, 1u64..12, 0u64..FRAME_BYTES), 1..4),
        (1u32..29, 0usize..6, 1u64..4096, 1usize..3, any::<bool>()),
    )
        .prop_map(
            |((shared_frames, link, tlb_pick, telemetry, requester), stripes, scan)| {
                let (cores, chunk_pick, chunk_kib, scans, background) = scan;
                let chunk = [
                    FRAME_BYTES,
                    FRAME_BYTES / 2,
                    3 * FRAME_BYTES / 2,
                    1_000_000,
                    2 * FRAME_BYTES + 12_345,
                    chunk_kib * 1024,
                ][chunk_pick];
                // Long stripes on the requester let the scan settle.
                let mut stripes = stripes;
                stripes[0] = (requester, shared_frames.min(96) / 2 + 1, stripes[0].2);
                Case {
                    shared_frames: shared_frames.max(110),
                    link0: link & 1 == 1,
                    bands: link & 2 == 2,
                    tlb: [0, 1, 2, 64][tlb_pick],
                    telemetry,
                    stripes,
                    requester,
                    params: ScanParams {
                        cores,
                        chunk,
                        ..ScanParams::default()
                    },
                    scans,
                    background,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random pools, stripe layouts (local and remote, lengths and offsets
    /// off frame boundaries), core counts, chunk sizes that do and do not
    /// divide a frame, both links with and without priority bands,
    /// translation caches from none to tiny, telemetry on and off,
    /// background traffic and back-to-back scans: the engine and the
    /// reference agree on everything.
    #[test]
    fn logical_fast_forward_matches_stepping(case in case()) {
        let (fast, _, fast_state) = run(&case, true);
        let (slow, _, slow_state) = run(&case, false);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast_state, slow_state);
    }
}

/// The oracle above only means something if the engine skips: a local
/// scan, one over two local stripes, one over two remote holders, and
/// one with telemetry attached and priority bands on each fast-forward
/// most of their ops and still match the reference. (A scan whose cores
/// split between local and remote stripes runs at two unrelated rates,
/// never repeats, and is stepped.)
#[test]
fn settled_scans_fast_forward_and_match() {
    for (stripes, telemetry) in [
        (vec![(0, 100, 12_345)], false),
        (vec![(0, 50, 0), (0, 50, 777)], false),
        (vec![(1, 50, 0), (2, 50, 777)], false),
        (vec![(1, 100, 0)], true),
    ] {
        let case = Case {
            shared_frames: 110,
            link0: false,
            bands: telemetry,
            tlb: 64,
            telemetry,
            stripes,
            requester: 0,
            params: ScanParams::with_cores(4),
            scans: 2,
            background: true,
        };
        let (fast, skipped, fast_state) = run(&case, true);
        let (slow, _, slow_state) = run(&case, false);
        let total: u64 = case.stripes.iter().map(|s| s.1).sum::<u64>() * 2;
        assert!(skipped * 2 > total, "{case:?}: only {skipped} of ~{total} ops skipped");
        assert_eq!(fast, slow, "{case:?}");
        assert_eq!(fast_state, slow_state, "{case:?}");
    }
}
