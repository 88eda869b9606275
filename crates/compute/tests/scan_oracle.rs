// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! The fast-forwarding scan engine against the stepping reference on a
//! logical pool: every simulated number and every piece of state a later
//! access or report can see must match.

use lmp_compute::scan::{self, reference, Jump, LogicalScan, ScanBackend, ScanOp, Served};
use lmp_compute::{DistVector, ScanOutcome, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{BandWeights, Fabric, LinkId, LinkProfile, NodeId};
use lmp_mem::{DramChannel, DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use lmp_sim::units::GIB;
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

/// Each run's next position, op length and ops per repetition after one
/// jump.
type Ends = Vec<(u64, u64, u64)>;

/// [`LogicalScan`], counting its path checks and logging its jumps.
struct Counted<'a> {
    inner: LogicalScan<'a>,
    checks: u64,
    jumps: Vec<Ends>,
}

impl ScanBackend for Counted<'_> {
    const WAVES: bool = <LogicalScan<'static> as ScanBackend>::WAVES;

    fn stream_len(&self) -> u64 {
        self.inner.stream_len()
    }
    fn check(&self) -> Result<(), PoolError> {
        self.inner.check()
    }
    fn op_at(&self, pos: u64, want: u64) -> Option<(u64, u64)> {
        self.inner.op_at(pos, want)
    }
    fn reach(&self, pos: u64, want: u64) -> u64 {
        self.inner.reach(pos, want)
    }
    fn issue(&mut self, now: SimTime, ops: &[ScanOp], served: &mut Vec<Served>) -> Result<SimTime, PoolError> {
        self.inner.issue(now, ops, served)
    }
    fn fabric(&self) -> &Fabric {
        self.inner.fabric()
    }
    fn fabric_mut(&mut self) -> &mut Fabric {
        self.inner.fabric_mut()
    }
    fn drams(&self) -> usize {
        self.inner.drams()
    }
    fn dram(&self, i: usize) -> &DramChannel {
        self.inner.dram(i)
    }
    fn dram_mut(&mut self, i: usize) -> &mut DramChannel {
        self.inner.dram_mut(i)
    }
    fn ledger(&self, out: &mut Vec<u64>) {
        self.inner.ledger(out)
    }
    fn finish(&mut self, delta: &[u64], rounds: u64) -> Result<(), PoolError> {
        self.inner.finish(delta, rounds)
    }
    fn paths(&mut self, jump: &Jump<'_>, k: u64) -> u64 {
        self.checks += 1;
        self.inner.paths(jump, k)
    }
    fn repeat(&mut self, jump: &Jump<'_>, k: u64) -> Result<(), PoolError> {
        self.inner.repeat(jump, k)?;
        self.jumps.push(
            jump.runs
                .iter()
                .map(|r| (r.pos + r.per_round * k * r.len, r.len, r.per_round))
                .collect(),
        );
        Ok(())
    }
}

/// Build the case's pool and vector, run its scans with `fast` (the
/// engine) or the reference, and describe everything left behind. With
/// `fast`, also the ops skipped and the last scan's jumps.
fn run(case: &Case, fast: bool) -> (Vec<ScanOutcome>, u64, String, Vec<Ends>) {
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
    let (mut outcomes, mut skipped, mut jumps) = (Vec::new(), 0, Vec::new());
    for _ in 0..case.scans {
        let backend = LogicalScan::new(&mut pool, &mut fabric, requester, &ranges);
        let out = if fast {
            let mut counted = Counted {
                inner: backend,
                checks: 0,
                jumps: Vec::new(),
            };
            let r = scan::run(&mut counted, now, case.params).unwrap();
            skipped += r.fast_forwarded;
            jumps = counted.jumps;
            r.outcome
        } else {
            let mut backend = backend;
            reference::run(&mut backend, now, case.params).unwrap()
        };
        now = out.complete;
        outcomes.push(out);
    }
    (outcomes, skipped, describe(&mut pool, &mut fabric, now), jumps)
}

/// The engine and the reference agree on everything about `case`;
/// returns the ops the engine skipped and its last scan's jumps.
fn matches_stepping(case: &Case) -> (u64, Vec<Ends>) {
    let (fast, skipped, fast_state, jumps) = run(case, true);
    let (slow, _, slow_state, _) = run(case, false);
    assert_eq!(fast, slow, "{case:?}");
    assert_eq!(fast_state, slow_state, "{case:?}");
    (skipped, jumps)
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
        matches_stepping(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// [`logical_fast_forward_matches_stepping`] at depth, for
    /// `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn logical_fast_forward_matches_stepping_deep(case in case()) {
        matches_stepping(&case);
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
        let (skipped, _) = matches_stepping(&case);
        let total: u64 = case.stripes.iter().map(|s| s.1).sum::<u64>() * 2;
        assert!(skipped * 2 > total, "{case:?}: only {skipped} of ~{total} ops skipped");
    }
}

/// The stream positions where `case`'s stripes end, and where its cores'
/// slices end.
fn boundaries(case: &Case) -> (Vec<u64>, Vec<u64>) {
    let stripes: Vec<u64> = case
        .stripes
        .iter()
        .scan(0, |end, &(_, frames, short)| {
            let len = frames * FRAME_BYTES - short;
            *end += len - short.min(len - 1);
            Some(*end)
        })
        .collect();
    let total = stripes.last().copied().unwrap_or(0);
    let cores = u64::from(case.params.cores);
    let slices = (1..=cores)
        .map(|c| c * (total / cores) + c.min(total % cores))
        .collect();
    (stripes, slices)
}

/// Whether some run of a jump stopped because another repetition would
/// have crossed the first of `ends` at or after it, or, `last`, issued a
/// core's last op before it.
fn stopped_at(jump: &Ends, ends: &[u64], last: bool) -> bool {
    jump.iter().any(|&(end, op, per)| {
        ends.iter()
            .find(|&&e| e >= end)
            .is_some_and(|&e| e - end < per * op + u64::from(last))
    })
}

/// Whether a jump of `case` stopped at a core's slice end.
fn at_slice_end(case: &Case, jump: &Ends) -> bool {
    stopped_at(jump, &boundaries(case).1, true)
}

/// Whether a jump of `case` stopped at a stripe end inside a core's
/// slice.
fn at_stripe_end(case: &Case, jump: &Ends) -> bool {
    let (stripes, slices) = boundaries(case);
    let inside: Vec<u64> = stripes.into_iter().filter(|e| !slices.contains(e)).collect();
    stopped_at(jump, &inside, false)
}

type Bound = fn(&Case, &Ends) -> bool;

/// Fixed cases, each against the reference, whose last scan jumps up to
/// a named bound: a core's slice end, a stripe end inside a core's slice,
/// with chunks of ½ and 1 frame and of 1,000,000 B, and with telemetry
/// attached. Some jump must end exactly there.
#[test]
fn logical_jumps_end_at_their_bounds() {
    let base = Case {
        shared_frames: 110,
        link0: false,
        bands: false,
        tlb: 64,
        telemetry: false,
        stripes: vec![(0, 100, 0)],
        requester: 0,
        params: ScanParams::with_cores(4),
        scans: 1,
        background: false,
    };
    let chunk = |chunk| ScanParams {
        chunk,
        ..ScanParams::with_cores(4)
    };
    let cases: Vec<(&str, Case, Bound)> = vec![
        ("slice end", base.clone(), at_slice_end),
        ("stripe end", Case { stripes: vec![(0, 30, 0), (0, 70, 0)], ..base.clone() }, at_stripe_end),
        ("half-frame chunks", Case { params: chunk(FRAME_BYTES / 2), ..base.clone() }, at_slice_end),
        ("1,000,000 B chunks", Case { params: chunk(1_000_000), ..base.clone() }, at_slice_end),
        ("telemetry", Case { telemetry: true, bands: true, stripes: vec![(1, 100, 0)], scans: 2, ..base.clone() }, at_slice_end),
    ];
    for (name, case, bound) in cases {
        let (_, jumps) = matches_stepping(&case);
        assert!(jumps.iter().any(|j| bound(&case, j)), "{name}: {jumps:?}");
    }
    // Ops of 1½ frames split at alternating offsets, so every op changes
    // shape: nothing repeats, and the scan is stepped.
    let (skipped, _) = matches_stepping(&Case { params: chunk(3 * FRAME_BYTES / 2), ..base });
    assert_eq!(skipped, 0);
}

/// The 8 and 24 GiB paper scans on a Logical deployment (four servers
/// with 24 GiB each, 14 cores, a 1,024-entry translation cache) skip
/// their settled stretches in a few jumps, not one check per round.
#[test]
fn paper_scans_jump_in_few_steps() {
    for link in [LinkProfile::link0(), LinkProfile::link1()] {
        for size in [8 * GIB, 24 * GIB] {
            let mut pool = LogicalPool::new(PoolConfig {
                servers: SERVERS,
                capacity_per_server: 24 * GIB,
                shared_per_server: 24 * GIB,
                dram: DramProfile::xeon_gold_5120(),
                tlb_capacity: 1024,
            });
            let mut fabric = Fabric::new(link.clone(), SERVERS);
            let v = DistVector::place_local_first(&mut pool, size, NodeId(0)).unwrap();
            let ranges: Vec<(SegmentId, u64, u64)> = v.stripes.iter().map(|(_, s, l)| (*s, 0, *l)).collect();
            let mut counted = Counted {
                inner: LogicalScan::new(&mut pool, &mut fabric, NodeId(0), &ranges),
                checks: 0,
                jumps: Vec::new(),
            };
            let run = scan::run(&mut counted, SimTime::ZERO, ScanParams::with_cores(14)).unwrap();
            let calls = counted.checks + counted.jumps.len() as u64;
            assert!(run.fast_forwarded * 10 >= run.ops * 9, "{} {size}: {run:?}", link.name);
            assert!(calls <= 4, "{} {size}: {calls} path checks and repeats", link.name);
        }
    }
}
