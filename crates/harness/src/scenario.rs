// Scenario orchestration is harness code: a failed setup step or breached
// invariant must abort the run loudly, exactly like an assert in a test.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Chaos scenarios: seeded workloads under seeded fault plans, with the
//! invariant checkers wired in.
//!
//! Each [`Scenario`] is a value, its `Spec`: the rack it builds (5
//! servers; the rack-loss scenario builds a 4×3 multi-rack datacenter),
//! the segments it allocates and protects, the faults and probes it pins
//! to instants of the discrete-event [`Engine`], the workload it draws
//! and the checks it adds. One runner executes every spec and verifies
//! the cross-layer invariants as recovery happens and again at the end.
//! The whole run is a pure function of `(scenario, seed)`: the resulting
//! [`ChaosReport`] carries a trace digest that must be identical on every
//! rerun.

use crate::invariants::{
    check_coherence_mutex, check_degraded_read, check_epoch_monotonic, check_lease_confirmations,
    check_recovery, check_telemetry_conservation, check_translation, check_write_amplification,
    CheckResult, ContentModel, WriteLedger,
};
use crate::plan::Fault;
use crate::retry::{is_retryable, RetryPolicy};
use crate::trace::ChaosTrace;
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, MemOp, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Range, RangeInclusive};

/// The fault scenarios the chaos harness ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Crash the server of an unprotected segment: the loss must surface
    /// as a memory exception, never as wrong data.
    CrashUnprotected,
    /// Crash a mirrored segment's server: the replica is promoted in
    /// place, byte-identical, at the same logical address.
    CrashMirrored,
    /// Crash a parity-group member's server: the segment is rebuilt from
    /// the survivors by XOR reconstruction.
    CrashParity,
    /// Degrade one node's links mid-run: operations slow down but never
    /// fail, and latency recovers with the link.
    LinkSpike,
    /// Crashes, a restart, a port flap, and a link spike in one run, plus
    /// the coherence mutual-exclusion check.
    Combined,
    /// Crash a server under load with self-healing armed: the lease
    /// detector confirms the failure on its own, the orchestrator repairs
    /// it in throttled batches — no manual `recover()` call anywhere — and
    /// reads in the detection/repair window are served degraded from
    /// surviving redundancy, byte-identical.
    CrashAutoHeal,
    /// Port flaps shorter than the lease with self-healing armed: the
    /// detector must suspect and then clear, never confirm, and the
    /// orchestrator must perform zero recoveries.
    FlapNoHeal,
    /// A port drops in the middle of a stream of frame-spanning accesses
    /// and scatter-gather batches: accesses that hit the downed holder must
    /// fail whole — no counter, DRAM, or fabric accounting charged for a
    /// refused access — and the telemetry books must still balance.
    PortDropMidAccess,
    /// An entire rack goes dark — every host crashes and every leaf port
    /// drops in one instant. The lease detector confirms the whole
    /// failure domain on its own, the orchestrator rebuilds every
    /// protected segment from surviving racks (domain-aware placement
    /// guarantees no group lost all its copies), and the rack later
    /// returns warm under a fresh epoch, resurrecting the one
    /// unprotected segment that was written off.
    RackLoss,
    /// A bulk flood saturates a holder's up-wire, then the holder itself
    /// crashes: reads predicted past the tail deadline race a duplicate
    /// through the mirror twin and win, every race loser's completion
    /// event is cancelled through the engine, and reads inside the
    /// crash-repair window fall through the hedge to the degraded path —
    /// hedged reads keep serving while the rebuild runs.
    HedgedFlood,
}

impl Scenario {
    /// Every scenario, in the order the chaos binary runs them.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::CrashUnprotected,
            Scenario::CrashMirrored,
            Scenario::CrashParity,
            Scenario::LinkSpike,
            Scenario::Combined,
            Scenario::CrashAutoHeal,
            Scenario::FlapNoHeal,
            Scenario::PortDropMidAccess,
            Scenario::RackLoss,
            Scenario::HedgedFlood,
        ]
    }

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::CrashUnprotected => "crash-unprotected",
            Scenario::CrashMirrored => "crash-mirrored",
            Scenario::CrashParity => "crash-parity",
            Scenario::LinkSpike => "link-spike",
            Scenario::Combined => "combined",
            Scenario::CrashAutoHeal => "crash-auto-heal",
            Scenario::FlapNoHeal => "flap-no-heal",
            Scenario::PortDropMidAccess => "port-drop-mid-access",
            Scenario::RackLoss => "rack-loss",
            Scenario::HedgedFlood => "hedged-flood",
        }
    }

    /// The scenario as data. This is the one place that tells the
    /// scenarios apart; the runner only reads the spec. Times are in ns.
    #[rustfmt::skip] // a table: one fault or pinned event per line
    fn spec(self) -> Spec {
        use Fault::*;
        use Prot::{Mirror, Parity, Plain};
        let n = NodeId;
        let crash_n0 = vec![(5_000, ServerCrash(n(0))), (20_000, ServerRestart(n(0)))];
        let degraded = |at, seg_idx, req| (at, Ev::DegradedProbe { seg_idx, requester: n(req) });
        match self {
            Scenario::CrashUnprotected => Spec::small_rack(
                vec![(0, Plain), (1, Plain), (2, Plain)],
                crash_n0,
                crash_unprotected_checks,
            ),
            Scenario::CrashMirrored => Spec::small_rack(
                vec![(0, Mirror), (1, Mirror), (2, Plain)],
                crash_n0,
                crash_mirrored_checks,
            ),
            Scenario::CrashParity => Spec::small_rack(
                vec![(0, Parity), (1, Parity), (4, Plain)],
                crash_n0,
                crash_parity_checks,
            ),
            // Latency probes before, during, and after the spike window;
            // the probed segment is homed on the degraded node.
            Scenario::LinkSpike => Spec {
                pinned: [4_000, 12_000, 20_000]
                    .into_iter()
                    .enumerate()
                    .map(|(idx, at)| (at, Ev::LatencyProbe { idx, seg_idx: 1, requester: n(0) }))
                    .collect(),
                ..Spec::small_rack(
                    vec![(0, Plain), (1, Plain), (2, Plain)],
                    vec![
                        (8_000, LinkDegrade { node: n(1), factor: 8.0 }),
                        (16_000, LinkRestore(n(1))),
                    ],
                    link_spike_checks,
                )
            },
            Scenario::Combined => Spec::small_rack(
                vec![(0, Mirror), (1, Parity), (2, Parity), (3, Plain)],
                vec![
                    (4_000, ServerCrash(n(0))),
                    (10_000, ServerCrash(n(1))),
                    (13_000, PortDown(n(2))),
                    (14_000, PortUp(n(2))),
                    (16_000, LinkDegrade { node: n(4), factor: 6.0 }),
                    (18_000, ServerRestart(n(0))),
                    (20_000, ServerRestart(n(1))),
                    (22_000, LinkRestore(n(4))),
                ],
                combined_checks,
            ),
            // Node 0 hosts one mirrored and one parity segment, so its
            // crash queues two repairs — enough to watch batch-1 throttling
            // spread recovery over multiple ticks. It restarts cold well
            // after the repairs finish and rejoins under a fresh epoch.
            // Reads pinned inside the crash→repair window, issued from a
            // healthy requester, must be served from surviving redundancy:
            // seg0 via its mirror twin, seg1 via on-the-fly parity XOR.
            Scenario::CrashAutoHeal => Spec {
                pinned: vec![degraded(6_200, 0, 4), degraded(7_200, 1, 4)],
                sweeps_from: Some(0),
                ..Spec::small_rack(
                    vec![(0, Mirror), (0, Parity), (1, Parity), (2, Plain)],
                    vec![(5_000, ServerCrash(n(0))), (24_000, ServerRestart(n(0)))],
                    crash_auto_heal_checks,
                )
            },
            // The flapped nodes (1 and 3) host protected segments so
            // degraded reads can route around the flap. Both flaps are
            // shorter than the 3 µs lease: long enough to cross the 2-miss
            // suspicion threshold, never long enough to confirm. One read
            // inside each flap window finds the primary's port down and
            // must route around it degraded, though no recovery ever runs.
            Scenario::FlapNoHeal => Spec {
                pinned: vec![degraded(6_700, 0, 0), degraded(14_700, 1, 0)],
                sweeps_from: Some(0),
                ..Spec::small_rack(
                    vec![(1, Mirror), (3, Parity), (4, Parity), (2, Plain)],
                    vec![
                        (6_000, PortDown(n(1))),
                        (7_500, PortUp(n(1))),
                        (14_000, PortDown(n(3))),
                        (15_000, PortUp(n(3))),
                    ],
                    flap_no_heal_checks,
                )
            },
            // Every segment is remote to the batch requester (node 0); node
            // 1's port drops mid-run. Scatter-gather waves run before, twice
            // inside, and after the port-down window, and the workload
            // issues only frame-spanning ops, so every refused access is a
            // multi-frame one — the shape whose accounting used to be
            // inflated on partial failure.
            Scenario::PortDropMidAccess => Spec {
                pinned: [5_000, 12_000, 14_000, 20_000]
                    .into_iter()
                    .enumerate()
                    .map(|(idx, at)| (at, Ev::BatchWave { idx }))
                    .collect(),
                spanning_ops: true,
                ..Spec::small_rack(
                    vec![(1, Plain), (2, Plain), (3, Plain)],
                    vec![(10_000, PortDown(n(1))), (18_000, PortUp(n(1)))],
                    port_drop_checks,
                )
            },
            // Rack 0 (hosts 0–2) homes a mirrored, a parity, and an
            // unprotected segment, so its blackout exercises every
            // protection path at once; the second parity member lives in
            // rack 1 so the group spans racks even before placement runs.
            // One event kills the whole failure domain; power returns well
            // after the orchestrator has rebuilt from survivors. Reads
            // pinned inside the rack-dark window, issued from surviving
            // racks, are served by seg0's cross-rack mirror twin and by an
            // on-the-fly XOR of seg1's surviving member and parity block.
            Scenario::RackLoss => Spec {
                servers: 12,
                policy: PlacementPolicy::DomainAware(DomainMap::uniform(4, 3)),
                fillers: 3..12,
                pinned: vec![degraded(6_200, 0, 6), degraded(7_200, 1, 9)],
                sweeps_from: Some(0),
                ..Spec::small_rack(
                    vec![(0, Mirror), (1, Parity), (3, Parity), (2, Plain)],
                    vec![(5_000, RackDown(0)), (20_000, RackUp(0))],
                    rack_loss_checks,
                )
            },
            // The flood victim (node 1) homes only the hedge probe
            // segments, so the flood and crash windows are entirely the
            // hedges' story; node 4 is left emptiest so both mirror twins
            // land there, off every flooded wire. Two bulk reads load the
            // victim's up-wire back to back (~12.5 µs each at link1 speed,
            // so busy until ~33 µs); the victim crashes at 12 µs and
            // rejoins cold at 24 µs, after both twins are promoted. Probes:
            // one before the flood (fast path, no hedge), one inside it
            // (race; the twin wins), one inside the crash-repair window
            // (degraded), and one after promotion and rejoin, which reads
            // the promoted twin; it is not always a fast-path read either
            // (at seed 42 it still races, and the primary wins by 4 ns).
            //
            // The workload pauses from the first flood to the racing probe.
            // An op issued then reaches its holder's wires only when the
            // flood drains, so one that touches the probes' requester n0
            // (n1 reading seg0, or n0 reading seg2 behind n3's flooded down
            // wire) reserves n0's wires past the drain horizon; both race
            // legs queue behind it and the primary wins. At seed 9, n1's
            // read of seg0 at 9,338 ns held n0's up wire to 32,989 ns.
            //
            // The detector is armed only from the crash instant. A
            // pre-crash sweep has nothing to detect, but its probe flits
            // chain through the flooded wires and — because wire
            // reservations are strict FIFO — fence *every* wire's free-at
            // time at the flood's drain horizon, erasing the
            // congested-primary / idle-twin asymmetry the race exploits.
            Scenario::HedgedFlood => {
                let flood = |at| (at, Ev::Flood { from: n(3), holder: n(1), bytes: 256 * 1024 });
                let hedged =
                    |at, idx, seg_idx| (at, Ev::HedgedProbe { idx, seg_idx, requester: n(0) });
                Spec {
                    hedge_home: Some(n(1)),
                    quiet: Some(8_000..=10_000),
                    pinned: vec![
                        flood(8_000),
                        flood(9_000),
                        hedged(4_000, 0, 0),
                        hedged(10_000, 1, 0),
                        hedged(14_000, 2, 1),
                        hedged(26_000, 3, 1),
                    ],
                    sweeps_from: Some(12_000),
                    ..Spec::small_rack(
                        vec![(0, Plain), (2, Plain), (3, Plain)],
                        vec![(12_000, ServerCrash(n(1))), (24_000, ServerRestart(n(1)))],
                        hedged_flood_checks,
                    )
                }
            }
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one chaos run produced.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Seed the run was derived from.
    pub seed: u64,
    /// Digest of the full event trace (same seed ⇒ same digest).
    pub digest: u64,
    /// Digest of the final rack telemetry snapshot. Fed into the trace as
    /// well, so a drifting instrument breaks `digest` too.
    pub telemetry_digest: u64,
    /// Events the engine processed.
    pub events: u64,
    /// The full trace (for diffing divergent runs).
    pub trace: ChaosTrace,
    /// Every invariant verdict, in check order.
    pub checks: Vec<CheckResult>,
    /// Operations that ultimately succeeded.
    pub ops_ok: u64,
    /// Operations that failed with a permanent error (memory exception).
    pub ops_failed: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Operations that exhausted their retry budget.
    pub gave_up: u64,
    /// Segments restored by mirror promotion.
    pub promoted: u64,
    /// Segments rebuilt from parity.
    pub reconstructed: u64,
    /// Segments whose protection was re-established.
    pub reprotected: u64,
    /// Segments lost (exceptions raised).
    pub lost: u64,
    /// Detector suspicions raised (self-healing scenarios; else 0).
    pub suspicions: u64,
    /// Detector Down confirmations (self-healing scenarios; else 0).
    pub confirmations: u64,
    /// Throttled recovery batches the orchestrator ran on its own.
    pub auto_recoveries: u64,
    /// Reads served from surviving redundancy while repair was pending.
    pub degraded_served: u64,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

const SERVERS: u32 = 5;
const SEG_BYTES: u64 = 2 * FRAME_BYTES;
/// Hedge probe segments ([`Scenario::HedgedFlood`]) are small so their
/// t=0 mirror copies drain the victim's up-wire well before the first
/// probe: the backlog the probes then see is the flood's alone.
const HEDGE_SEG_BYTES: u64 = 16 * 1024;
const HORIZON: SimDuration = SimDuration::from_micros(30);
const DETECTION_DELAY: SimDuration = SimDuration::from_micros(2);
const OPS: u64 = 60;

/// How a spec's application segment is protected at setup.
#[derive(Clone, Copy, PartialEq)]
enum Prot {
    Plain,
    Mirror,
    Parity,
}

/// One scenario as a value: the rack it builds, the events it pins, the
/// workload it draws and the checks it adds.
struct Spec {
    servers: u32,
    /// Placement for protection and repair. A domain-aware policy's map
    /// also names the hosts a rack fault takes down.
    policy: PlacementPolicy,
    /// Application segments as (home server, protection), in allocation
    /// order. The workload draws from these.
    homes: Vec<(u32, Prot)>,
    /// Hosts that each take an 8-frame filler allocation before any
    /// protection is placed. Rack-loss's fillers leave rack 0 the freest
    /// failure domain: a host-only policy would pack the redundancy right
    /// next to its primaries (the contrast check proves that loses data),
    /// while the domain-aware policy is forced across racks.
    fillers: Range<u32>,
    /// Home of two small mirrored segments, out of the workload's reach,
    /// that the hedged probes read.
    hedge_home: Option<NodeId>,
    /// Faults at their instants, scheduled before anything else.
    faults: Vec<(u64, Fault)>,
    /// Probes, batch waves and floods at their instants, scheduled after
    /// the ops and the detector sweeps (the engine breaks ties FIFO).
    pinned: Vec<(u64, Ev)>,
    /// Self-healing: the lease detector sweeps every probe interval after
    /// this instant and the orchestrator repairs what it confirms. `None`:
    /// the harness plays the operator and recovers each crash itself.
    sweeps_from: Option<u64>,
    /// Whether workload ops span two frames instead of moving 8–127 B.
    spanning_ops: bool,
    /// Workload ops drawn inside this window (ns, inclusive) are left out;
    /// the rest of the draw is unchanged.
    quiet: Option<RangeInclusive<u64>>,
    /// The scenario's own checks, run after the common ones.
    check: fn(&World) -> Vec<CheckResult>,
}

impl Spec {
    /// A 5-server rack under host-only placement: no fillers, hedge
    /// segments, pinned events or detector.
    fn small_rack(
        homes: Vec<(u32, Prot)>,
        faults: Vec<(u64, Fault)>,
        check: fn(&World) -> Vec<CheckResult>,
    ) -> Spec {
        Spec {
            servers: SERVERS,
            policy: PlacementPolicy::HostOnly,
            homes,
            fillers: 0..0,
            hedge_home: None,
            faults,
            pinned: Vec::new(),
            sweeps_from: None,
            spanning_ops: false,
            quiet: None,
            check,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpSpec {
    at: SimTime,
    requester: NodeId,
    seg_idx: usize,
    offset: u64,
    len: u64,
    write: bool,
}

enum Ev {
    Fault(Fault),
    /// The harness's own recovery of a crashed node, with the segments
    /// the crash affected (sorted); scenarios without self-healing only.
    Recover(NodeId, Vec<SegmentId>),
    Op {
        id: u64,
        attempt: u32,
    },
    /// One detector sweep (self-healing scenarios only).
    HealthTick,
    /// One throttled orchestrator batch (self-healing scenarios only).
    RecoveryStep,
    /// A 64 B read that must succeed; its latency is kept for the check.
    LatencyProbe {
        idx: usize,
        seg_idx: usize,
        requester: NodeId,
    },
    /// A read pinned inside a fault window that must be served degraded.
    DegradedProbe {
        seg_idx: usize,
        requester: NodeId,
    },
    /// One scatter-gather batch of frame-spanning reads across every
    /// application segment.
    BatchWave {
        idx: usize,
    },
    /// One bulk transfer loading the victim holder's up-wire.
    Flood {
        from: NodeId,
        holder: NodeId,
        bytes: u64,
    },
    /// One latency-sensitive read of a hedge probe segment, served through
    /// [`hedged_read`].
    HedgedProbe {
        idx: usize,
        seg_idx: usize,
        requester: NodeId,
    },
    /// A completion whose instant is part of the determinism contract —
    /// a batch wave's holder stream drained, a hedge winner delivered —
    /// recorded as this trace line when it fires.
    Done(String),
    /// A race loser's completion — scheduled and immediately cancelled
    /// through [`Engine::cancel`]; firing means the cancellation failed.
    HedgeLoser {
        idx: usize,
    },
}

/// The armed self-healing stack: detector plus orchestrator, and every
/// health event the detector raised.
struct Healing {
    detector: FailureDetector,
    orchestrator: RecoveryOrchestrator,
    events: Vec<HealthEvent>,
}

/// The state every scenario runs on; the tallies one kind of pinned event
/// keeps sit next to its handler ([`Waves`], [`Hedges`]).
struct World {
    pool: LogicalPool,
    fabric: Fabric,
    pm: ProtectionManager,
    segments: Vec<SegmentId>,
    model: ContentModel,
    /// Segments written off as lost and not resurrected since.
    written_off: BTreeSet<SegmentId>,
    /// Contents of segments written off as lost, kept so a warm rack
    /// rejoin that resurrects them can restore the shadow model and
    /// verify the revived bytes.
    stash: BTreeMap<SegmentId, Vec<u8>>,
    ledger: WriteLedger,
    ops: Vec<OpSpec>,
    healing: Option<Healing>,
    /// Application segments that were protected when the run started —
    /// the population the zero-protected-losses check is scored over.
    protected_at_start: BTreeSet<SegmentId>,
    /// Losses among `protected_at_start`.
    protected_lost: u64,
    degraded_mismatches: u64,
    /// Refused accesses that left a pool or fabric counter charged.
    atomicity_violations: u64,
    /// Latency probes' read latencies (ns), in probe order.
    latencies: Vec<u64>,
    waves: Waves,
    hedges: Hedges,
    report: ChaosReport,
}

/// `len` bytes drawn from `rng`.
fn random_bytes(mut rng: DetRng, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// A `bytes`-long segment on `home`, filled from `rng`, and its contents.
fn seeded_segment(
    pool: &mut LogicalPool,
    home: NodeId,
    bytes: u64,
    rng: DetRng,
) -> (SegmentId, Vec<u8>) {
    let seg = pool
        .alloc(bytes, Placement::On(home))
        .expect("setup capacity");
    let data = random_bytes(rng, bytes);
    pool.write_bytes(LogicalAddr::new(seg, 0), &data)
        .expect("setup write");
    (seg, data)
}

/// Deterministic payload for write op `id`.
fn write_data(seed: u64, id: u64, len: u64) -> Vec<u8> {
    random_bytes(DetRng::new(seed).fork_indexed("write-data", id), len)
}

impl World {
    /// The spec's rack at t = 0 — segments allocated and written, fillers
    /// placed, protection set up — and its seeded workload.
    fn build(spec: &Spec, name: &'static str, seed: u64) -> World {
        let rng = DetRng::new(seed).fork("chaos-setup");
        let mut pool = LogicalPool::new(PoolConfig {
            servers: spec.servers,
            capacity_per_server: 64 * FRAME_BYTES,
            shared_per_server: 48 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        });
        pool.attach_telemetry();
        let mut fabric = Fabric::new(LinkProfile::link1(), spec.servers);
        let mut pm = ProtectionManager::with_policy(spec.policy.clone());
        let mut model = ContentModel::new();
        let mut segments = Vec::new();
        for (i, &(home, _)) in spec.homes.iter().enumerate() {
            let content = rng.fork_indexed("content", i as u64);
            let (seg, data) = seeded_segment(&mut pool, NodeId(home), SEG_BYTES, content);
            model.insert(seg, data);
            segments.push(seg);
        }
        for h in spec.fillers.clone() {
            pool.alloc(8 * FRAME_BYTES, Placement::On(NodeId(h)))
                .expect("setup filler");
        }
        let mut parity_members = Vec::new();
        for (&(_, prot), &seg) in spec.homes.iter().zip(&segments) {
            match prot {
                Prot::Mirror => {
                    pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, seg)
                        .expect("setup mirror");
                }
                Prot::Parity => parity_members.push(seg),
                Prot::Plain => {}
            }
        }
        if !parity_members.is_empty() {
            pm.protect_parity(&mut pool, &mut fabric, SimTime::ZERO, &parity_members)
                .expect("setup parity");
        }
        let mut hedged = Vec::new();
        if let Some(home) = spec.hedge_home {
            for i in 0..2 {
                let content = rng.fork_indexed("hedge-content", i);
                let (seg, data) = seeded_segment(&mut pool, home, HEDGE_SEG_BYTES, content);
                pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, seg)
                    .expect("setup hedge mirror");
                hedged.push((seg, data));
            }
        }
        let mut wl = rng.fork("workload");
        let ops = (0..OPS)
            .map(|_| {
                let at = SimTime::from_nanos(wl.below(HORIZON.as_nanos()));
                let requester = NodeId(wl.below(spec.servers as u64) as u32);
                let seg_idx = wl.below(segments.len() as u64) as usize;
                // len > FRAME_BYTES guarantees a two-chunk walk.
                let len = if spec.spanning_ops {
                    FRAME_BYTES + 8 + wl.below(FRAME_BYTES - 16)
                } else {
                    8 + wl.below(120)
                };
                let offset = wl.below(SEG_BYTES - len);
                let write = wl.chance(0.5);
                OpSpec {
                    at,
                    requester,
                    seg_idx,
                    offset,
                    len,
                    write,
                }
            })
            .collect();
        let protected_at_start = segments
            .iter()
            .copied()
            .filter(|s| pm.is_protected(*s))
            .collect();
        World {
            pool,
            fabric,
            pm,
            segments,
            model,
            written_off: BTreeSet::new(),
            stash: BTreeMap::new(),
            ledger: WriteLedger::new(),
            ops,
            healing: spec.sweeps_from.map(|_| Healing {
                detector: FailureDetector::new(
                    HealthConfig::default_chaos(),
                    spec.servers,
                    SimTime::ZERO,
                ),
                orchestrator: RecoveryOrchestrator::new(),
                events: Vec::new(),
            }),
            protected_at_start,
            protected_lost: 0,
            degraded_mismatches: 0,
            atomicity_violations: 0,
            latencies: Vec::new(),
            waves: Waves::default(),
            hedges: Hedges {
                segs: hedged,
                ..Hedges::default()
            },
            report: ChaosReport {
                scenario: name,
                seed,
                ..ChaosReport::default()
            },
        }
    }

    /// Record `entry` in the run's trace at `at`.
    fn trace_line(&mut self, at: SimTime, entry: String) {
        self.report.trace.record(at, entry);
    }

    /// What the pool and the fabric have charged so far: a refused access
    /// must leave it unchanged.
    fn charged(&self) -> [u64; 4] {
        let (reads, writes) = self.pool.access_counts();
        [
            reads,
            writes,
            self.fabric.read_count(),
            self.fabric.write_count(),
        ]
    }

    fn handle(&mut self, eng: &mut Engine<Ev>, ev: Ev) {
        let now = eng.now();
        match ev {
            Ev::Fault(f) => {
                self.trace_line(now, format!("fault: {f}"));
                match f {
                    Fault::ServerCrash(n) => self.crash_host(eng, n, ""),
                    Fault::ServerRestart(n) => self.rejoin_host(now, n, false),
                    Fault::LinkDegrade { node, factor } => self.fabric.degrade_node(node, factor),
                    Fault::LinkRestore(n) => self.fabric.restore_node(n),
                    Fault::PortDown(n) => self.fabric.set_port_down(n, true),
                    Fault::PortUp(n) => self.fabric.set_port_down(n, false),
                    // ToR and PDU gone at once: every host in the rack
                    // crashes and its port drops in the same instant. DRAM
                    // is retained (the crash model keeps memory), so a
                    // later RackUp can warm-rejoin.
                    Fault::RackDown(r) => {
                        for n in self.rack_hosts(r) {
                            self.crash_host(eng, n, &format!("{n} "));
                        }
                    }
                    Fault::RackUp(r) => {
                        for n in self.rack_hosts(r) {
                            self.rejoin_host(now, n, true);
                        }
                        // A warm resurrection brings back segments that
                        // were written off while the rack was dark:
                        // restore the shadow model for any stashed
                        // segment that resolves again, so post-rejoin
                        // reads are verified byte-for-byte.
                        for (seg, data) in std::mem::take(&mut self.stash) {
                            if self.pool.read_bytes(LogicalAddr::new(seg, 0), 1).is_ok() {
                                self.written_off.remove(&seg);
                                self.model.insert(seg, data);
                                let line = format!("  {seg} resurrected with contents intact");
                                self.trace_line(now, line);
                            } else {
                                self.stash.insert(seg, data);
                            }
                        }
                    }
                }
            }
            Ev::Recover(n, affected) => {
                // Application segments split by whether protection covers
                // them; replicas and parity segments are the protection
                // layer's own business.
                let (protected, unprotected): (Vec<SegmentId>, Vec<SegmentId>) = affected
                    .iter()
                    .copied()
                    .filter(|s| self.model.contains_key(s))
                    .partition(|s| self.pm.is_protected(*s));
                let report = self
                    .pm
                    .recover(&mut self.pool, &mut self.fabric, now, n, &affected);
                let check =
                    check_recovery(&self.pool, &report, &protected, &unprotected, &self.model);
                self.book_recovery(now, format!("recover {n}"), &report);
                self.trace_line(now, format!("  check: {check}"));
                self.report.checks.push(check);
            }
            Ev::Op { id, attempt } => self.run_op(eng, id, attempt),
            Ev::LatencyProbe {
                idx,
                seg_idx,
                requester,
            } => {
                let seg = self.segments[seg_idx];
                let addr = LogicalAddr::new(seg, 0);
                let a = self
                    .pool
                    .access(&mut self.fabric, now, requester, addr, 64, MemOp::Read)
                    .expect("probe target must stay healthy");
                let lat = a.complete.duration_since(now).as_nanos();
                self.trace_line(now, format!("probe {idx}: {seg} read in {lat} ns"));
                self.latencies.push(lat);
            }
            Ev::HealthTick => {
                let Some(h) = &mut self.healing else { return };
                let events = h.detector.probe_tick(&mut self.fabric, now);
                let trace = &mut self.report.trace;
                for hev in &events {
                    trace.record(now, format!("health: {hev:?}"));
                    if let HealthEvent::ConfirmedDown { node, epoch, .. } = hev {
                        let queued = h.orchestrator.on_confirmed_down(&self.pool, *node, *epoch);
                        trace.record(now, format!("  queued {queued} segments for repair"));
                        eng.schedule_after(h.detector.config().recovery_tick, Ev::RecoveryStep);
                    }
                }
                h.events.extend(events);
            }
            Ev::RecoveryStep => {
                let Some(h) = &mut self.healing else { return };
                let cfg = h.detector.config();
                let (tick, batch) = (cfg.recovery_tick, cfg.recovery_batch);
                let done =
                    h.orchestrator
                        .step(&mut self.pool, &mut self.fabric, &mut self.pm, now, batch);
                if h.orchestrator.has_pending() {
                    eng.schedule_after(tick, Ev::RecoveryStep);
                }
                for t in &done {
                    let what = format!("auto-recover {} epoch {}", t.node, t.epoch);
                    self.book_recovery(now, what, &t.report);
                }
            }
            Ev::DegradedProbe { seg_idx, requester } => {
                let seg = self.segments[seg_idx];
                let addr = LogicalAddr::new(seg, 16);
                match self
                    .pool
                    .access(&mut self.fabric, now, requester, addr, 96, MemOp::Read)
                {
                    Ok(_) => {
                        self.trace_line(now, format!("degraded probe {seg}: primary healthy"));
                    }
                    Err(_) => {
                        if !self.serve_degraded(now, "degraded probe", requester, seg, 16, 96) {
                            self.report.checks.push(CheckResult::fail(
                                "degraded-window-exercised",
                                format!("probe of {seg} unservable mid-fault"),
                            ));
                        }
                    }
                }
            }
            Ev::BatchWave { idx } => self.run_batch_wave(eng, idx),
            Ev::Flood {
                from,
                holder,
                bytes,
            } => {
                let line = match self.fabric.try_read(now, from, holder, bytes) {
                    Ok(c) => format!("flood: {bytes} B {holder}->{from} drains at {}", c.complete),
                    Err(e) => format!("flood refused: {e}"),
                };
                self.trace_line(now, line);
            }
            Ev::HedgedProbe {
                idx,
                seg_idx,
                requester,
            } => self.run_hedged_probe(eng, idx, seg_idx, requester),
            Ev::Done(line) => self.trace_line(now, line),
            Ev::HedgeLoser { idx } => {
                self.hedges.losers_fired += 1;
                self.trace_line(
                    now,
                    format!("hedged probe {idx}: cancelled loser fired anyway"),
                );
            }
        }
    }

    /// The hosts of rack `r` under the placement policy's domain map.
    fn rack_hosts(&self, r: u32) -> Vec<NodeId> {
        self.pm
            .policy()
            .domains()
            .map_or_else(Vec::new, |d| d.hosts_in(r))
    }

    /// Crash `n`: its memory and port vanish. Without self-healing the
    /// harness plays the operator and schedules the recovery itself; with
    /// healing armed the detector owns the whole response.
    fn crash_host(&mut self, eng: &mut Engine<Ev>, n: NodeId, label: &str) {
        let mut affected = match self.pool.crash_server(n) {
            Ok(affected) => affected,
            Err(e) => return self.trace_line(eng.now(), format!("  {label}crash refused: {e}")),
        };
        affected.sort_unstable();
        self.fabric.set_port_down(n, true);
        self.trace_line(eng.now(), format!("  {label}affected: {affected:?}"));
        if self.healing.is_none() {
            eng.schedule_after(DETECTION_DELAY, Ev::Recover(n, affected));
        }
    }

    /// Bring `n`'s port back and rejoin it. A cold restart's memory is
    /// gone, so it claims its own incarnation and the epoch rule drops
    /// any leftover mappings instead of resurrecting them; a warm host
    /// (its rack's power returned) claims the current epoch, and the
    /// epoch rule decides whether its retained memory is honored.
    fn rejoin_host(&mut self, now: SimTime, n: NodeId, warm: bool) {
        self.fabric.set_port_down(n, false);
        let kind = if warm { "warm" } else { "cold" };
        let rejoined = match &mut self.healing {
            None if warm => self.pool.revive_server(n).map(|()| None),
            None => self.pool.restart_server(n).map(|()| None),
            Some(h) => {
                let m = h.detector.membership();
                let claimed = if warm { m.epoch() } else { m.incarnation(n) };
                h.orchestrator
                    .admit_rejoin(&mut self.pool, m, n, claimed, warm)
                    .map(Some)
            }
        };
        let line = match rejoined {
            Ok(None) => return,
            Ok(Some(out)) => format!(
                "  {kind} rejoin {n}: resurrected={} dropped={:?}",
                out.resurrected, out.dropped
            ),
            Err(e) => format!("  {kind} rejoin {n} refused: {e}"),
        };
        self.trace_line(now, line);
    }

    /// Book one recovery report, traced as `what`: count it, and write its
    /// losses off. A lost segment's contents move to the stash (a warm
    /// rack rejoin may resurrect it), and losses among the
    /// initially-protected population are counted separately — under
    /// domain-aware placement that counter must stay at zero.
    fn book_recovery(&mut self, now: SimTime, what: String, report: &RecoveryReport) {
        let RecoveryReport {
            promoted,
            reconstructed,
            reprotected,
            lost,
            ..
        } = report;
        let line = format!(
            "{what}: promoted {promoted:?} reconstructed {reconstructed:?} \
             reprotected {reprotected:?} lost {lost:?}"
        );
        self.trace_line(now, line);
        self.report.promoted += promoted.len() as u64;
        self.report.reconstructed += reconstructed.len() as u64;
        self.report.reprotected += reprotected.len() as u64;
        self.report.lost += lost.len() as u64;
        for seg in lost {
            if self.protected_at_start.contains(seg) {
                self.protected_lost += 1;
            }
            if let Some(data) = self.model.remove(seg) {
                self.stash.insert(*seg, data);
            }
            self.written_off.insert(*seg);
        }
    }

    /// Book one read served from surviving redundancy, traced as `what`:
    /// compare its bytes with `want` (a mismatch fails a check), and
    /// count it, in telemetry too. Returns whether the bytes matched.
    fn book_degraded(&mut self, at: SimTime, what: String, want: &[u8], r: &DegradedRead) -> bool {
        let check = check_degraded_read(want, r);
        let matched = check.passed;
        if !matched {
            self.report.checks.push(check);
        }
        self.report.degraded_served += 1;
        if let Some(t) = self.pool.telemetry_mut() {
            t.note_degraded_read();
        }
        self.trace_line(at, format!("{what} served degraded via {:?}", r.source));
        matched
    }

    fn run_op(&mut self, eng: &mut Engine<Ev>, id: u64, attempt: u32) {
        let now = eng.now();
        let spec = self.ops[id as usize];
        let seg = self.segments[spec.seg_idx];
        let addr = LogicalAddr::new(seg, spec.offset);
        let bytes = spec.offset as usize..(spec.offset + spec.len) as usize;
        let kind = if spec.write { "write" } else { "read" };
        let result: Result<(), PoolError> = if spec.write {
            if self.pool.node(spec.requester).is_failed() {
                Err(PoolError::ServerDown(spec.requester))
            } else {
                let data = write_data(self.report.seed, id, spec.len);
                self.pm.write(&mut self.pool, addr, &data).map(|amp| {
                    self.ledger.record(amp, self.pm.is_protected(seg));
                    if let Some(m) = self.model.get_mut(&seg) {
                        m[bytes].copy_from_slice(&data);
                    } else {
                        self.report.checks.push(CheckResult::fail(
                            "exception-surfacing",
                            format!("write to lost {seg} succeeded"),
                        ));
                    }
                })
            }
        } else {
            // Accounting snapshot: a refused access must charge nothing.
            let before = self.charged();
            let (requester, len) = (spec.requester, spec.len);
            match self
                .pool
                .access(&mut self.fabric, now, requester, addr, len, MemOp::Read)
            {
                Err(e) => {
                    if self.charged() != before {
                        self.atomicity_violations += 1;
                    }
                    Err(e)
                }
                Ok(a) => {
                    let failed = match self.model.get(&seg) {
                        Some(m) => {
                            let got = self
                                .pool
                                .read_bytes(addr, spec.len)
                                .expect("readable after successful access");
                            (got != m[bytes]).then(|| {
                                let stale = format!("op {id}: stale bytes read from {seg}");
                                CheckResult::fail("translation-consistency", stale)
                            })
                        }
                        None => Some(CheckResult::fail(
                            "exception-surfacing",
                            format!("read of lost {seg} succeeded"),
                        )),
                    };
                    self.report.checks.extend(failed);
                    let lat = a.complete.duration_since(now).as_nanos();
                    let line = format!("op {id} read {seg}+{} ok in {lat} ns", spec.offset);
                    self.trace_line(now, line);
                    Ok(())
                }
            }
        };
        match result {
            Ok(()) => {
                self.report.ops_ok += 1;
                if spec.write {
                    self.trace_line(now, format!("op {id} write {seg}+{} ok", spec.offset));
                }
            }
            Err(e) if is_retryable(&e) => {
                let policy = RetryPolicy::default_chaos();
                let what = format!("op {id}");
                if !spec.write
                    && self.serve_degraded(now, &what, spec.requester, seg, spec.offset, spec.len)
                {
                    self.report.ops_ok += 1;
                } else if policy.may_retry(spec.at, now, attempt) {
                    self.report.retries += 1;
                    let retry = attempt + 1;
                    let line = format!("op {id} {kind} {seg} failed ({e}); retry {retry}");
                    self.trace_line(now, line);
                    let next = Ev::Op { id, attempt: retry };
                    eng.schedule_after(policy.backoff_after(attempt), next);
                } else {
                    self.report.gave_up += 1;
                    let tries = attempt + 1;
                    let line = format!("op {id} {kind} {seg} gave up after {tries} attempts ({e})");
                    self.trace_line(now, line);
                }
            }
            Err(e) => {
                self.report.ops_failed += 1;
                self.trace_line(now, format!("op {id} {kind} {seg} exception: {e}"));
            }
        }
    }

    /// Self-healing scenarios only: a read that hit a transient fault is
    /// served from surviving redundancy (mirror twin or on-the-fly parity
    /// XOR) instead of waiting out the repair. Returns whether the read
    /// was served; the bytes are compared against the shadow model.
    fn serve_degraded(
        &mut self,
        now: SimTime,
        what: &str,
        requester: NodeId,
        seg: SegmentId,
        offset: u64,
        len: u64,
    ) -> bool {
        if self.healing.is_none() || !self.pm.is_protected(seg) {
            return false;
        }
        let Some(m) = self.model.get(&seg) else {
            return false;
        };
        let expect = m[offset as usize..(offset + len) as usize].to_vec();
        let addr = LogicalAddr::new(seg, offset);
        let Ok(r) = self
            .pm
            .read_degraded(&self.pool, &mut self.fabric, now, requester, addr, len)
        else {
            return false;
        };
        if !self.book_degraded(now, format!("{what} read {seg}+{offset}"), &expect, &r) {
            self.degraded_mismatches += 1;
        }
        true
    }

    fn final_checks(&mut self, scenario_checks: fn(&World) -> Vec<CheckResult>) {
        let t = check_translation(&mut self.pool, &self.model);
        self.report.checks.push(t);
        self.report
            .checks
            .push(check_write_amplification(&self.ledger));
        if let Some(h) = &self.healing {
            let (log, lease) = (h.detector.probe_log(), h.detector.config().lease);
            self.report
                .checks
                .push(check_lease_confirmations(log, &h.events, lease));
            self.report.checks.push(check_epoch_monotonic(&h.events));
            let mismatches = self.degraded_mismatches;
            self.report.checks.push(judged(
                "degraded-read-identity",
                mismatches == 0,
                format!("{mismatches} degraded reads diverged from the model"),
            ));
        }
        let own = scenario_checks(self);
        self.report.checks.extend(own);
        // Telemetry roll-up: the snapshot digest becomes part of the trace
        // (and therefore of the determinism contract), and the instrument
        // books must balance.
        let end = SimTime::ZERO + HORIZON;
        let snap = rack_snapshot(&mut self.pool, &mut self.fabric, end);
        let digest = snap.digest();
        self.report.telemetry_digest = digest;
        self.trace_line(end, format!("telemetry digest {digest:016x}"));
        self.report.checks.push(check_telemetry_conservation(&snap));
        let counted = snap.counter("pool.degraded_reads", &[]);
        let served = self.report.degraded_served;
        if counted != served {
            self.report.checks.push(CheckResult::fail(
                "telemetry-conservation",
                format!("pool.degraded_reads {counted} != served {served}"),
            ));
        }
    }
}

/// What [`Scenario::PortDropMidAccess`]'s batch waves did.
#[derive(Default)]
struct Waves {
    served: u64,
    refused: u64,
}

impl World {
    /// One scatter-gather batch of frame-spanning reads over every
    /// application segment. Waves inside the port-down window must fail
    /// whole: one downed holder refuses the entire batch, and not a single
    /// counter, DRAM access, or fabric transfer may have been charged for
    /// it.
    fn run_batch_wave(&mut self, eng: &mut Engine<Ev>, idx: usize) {
        let now = eng.now();
        let before = self.charged();
        let ops: Vec<BatchOp> = self
            .segments
            .iter()
            .map(|&s| BatchOp::read(LogicalAddr::new(s, FRAME_BYTES - 512), 1024))
            .collect();
        match self
            .pool
            .access_batch(&mut self.fabric, now, NodeId(0), &ops)
        {
            Ok(r) => {
                self.waves.served += 1;
                let (ops, remote, done) = (r.ops.len(), r.remote_bytes, r.complete);
                let line = format!("batch wave {idx}: {ops} ops, {remote} remote bytes");
                self.trace_line(now, format!("{line}, done {done}"));
                // One completion event per holder, inserted as a single
                // batch — the per-holder lists the access engine produces
                // feed the kernel directly.
                let ids = schedule_holder_completions(eng, &r, |holder, _| {
                    Ev::Done(format!("batch wave {idx}: holder {holder} drained"))
                })
                .expect("holder completions are never before now");
                let (holders, events) = (r.holder_done.len(), ids.len());
                if holders != events {
                    self.report.checks.push(CheckResult::fail(
                        "holder-completion-batch",
                        format!("wave {idx}: {holders} holders, {events} events"),
                    ));
                }
            }
            Err(e) => {
                self.waves.refused += 1;
                if self.charged() != before {
                    self.atomicity_violations += 1;
                }
                self.trace_line(now, format!("batch wave {idx}: failed whole ({e})"));
            }
        }
    }
}

/// [`Scenario::HedgedFlood`]'s probe segments and what its hedged probes
/// did.
#[derive(Default)]
struct Hedges {
    /// The mirrored probe segments and their contents.
    segs: Vec<(SegmentId, Vec<u8>)>,
    not_needed: u64,
    raced: u64,
    wins: u64,
    no_twin: u64,
    degraded: u64,
    mismatches: u64,
    cancels_ok: u64,
    losers_fired: u64,
}

impl World {
    /// One latency-sensitive 4 KiB read through the hedging policy. A
    /// raced probe schedules the winner's delivery and the loser's
    /// would-be completion, then cancels the loser through the engine —
    /// the cancellation half of the race contract
    /// ([`HedgeOutcome::loser_done`]).
    fn run_hedged_probe(&mut self, eng: &mut Engine<Ev>, idx: usize, seg_idx: usize, req: NodeId) {
        let now = eng.now();
        let seg = self.hedges.segs[seg_idx].0;
        // Median-based deadline (2 µs floor): the flood pushes a tail of
        // workload reads out by tens of µs, which would drag a p99
        // deadline along with it; the median stays at the uncongested
        // service time.
        let cfg = HedgeConfig {
            quantile: 0.5,
            ..HedgeConfig::default()
        };
        let addr = LogicalAddr::new(seg, 0);
        let fabric = &mut self.fabric;
        let out = match hedged_read(&mut self.pool, &self.pm, fabric, now, req, addr, 4096, &cfg) {
            Ok(out) => out,
            Err(e) => {
                let detail = format!("probe {idx} of {seg}: {e}");
                self.report
                    .checks
                    .push(CheckResult::fail("hedged-probe-served", detail));
                return;
            }
        };
        let t = &mut self.hedges;
        let line = match &out {
            HedgeOutcome::NotNeeded { complete } => {
                t.not_needed += 1;
                format!("{seg} inside deadline, done {complete}")
            }
            HedgeOutcome::NoTwin { complete } => {
                t.no_twin += 1;
                format!("{seg} has no live twin, done {complete}")
            }
            HedgeOutcome::Raced {
                winner,
                complete,
                primary_done,
                hedge_done,
                ..
            } => {
                t.raced += 1;
                t.wins += u64::from(*winner == HedgeWinner::Hedge);
                let delivered = Ev::Done(format!("hedged probe {idx}: winner delivered"));
                eng.schedule_at(*complete, delivered)
                    .expect("winner completion is never before now");
                let loser_at = out.loser_done().expect("raced outcome has a loser");
                let id = eng
                    .schedule_at(loser_at, Ev::HedgeLoser { idx })
                    .expect("loser cancellation is never before now");
                t.cancels_ok += u64::from(eng.cancel(id));
                format!(
                    "{seg} raced, {winner:?} won (primary@{primary_done} hedge@{hedge_done}), \
                     done {complete}"
                )
            }
            HedgeOutcome::PrimaryFailed { read } => {
                t.degraded += 1;
                let expect = t.segs[seg_idx].1[..4096].to_vec();
                let what = format!("hedged probe {idx}: {seg} primary dead,");
                if !self.book_degraded(now, what, &expect, read) {
                    self.hedges.mismatches += 1;
                }
                return;
            }
        };
        self.trace_line(now, format!("hedged probe {idx}: {line}"));
    }
}

/// A named verdict: passes when `cond` holds, else fails with `detail`.
fn judged(name: &'static str, cond: bool, detail: String) -> CheckResult {
    if cond {
        CheckResult::pass(name)
    } else {
        CheckResult::fail(name, detail)
    }
}

/// At least two reads were served degraded.
fn degraded_twice(name: &'static str, w: &World) -> CheckResult {
    let served = w.report.degraded_served;
    judged(name, served >= 2, format!("degraded_served={served}"))
}

/// The detector and orchestrator of a self-healing scenario.
fn armed(w: &World) -> (&FailureDetector, &RecoveryOrchestrator) {
    let h = w.healing.as_ref().expect("self-healing armed");
    (&h.detector, &h.orchestrator)
}

fn crash_unprotected_checks(w: &World) -> Vec<CheckResult> {
    let lost = w.report.lost;
    let unreadable = |s: &SegmentId| w.pool.read_bytes(LogicalAddr::new(*s, 0), 1).is_err();
    vec![judged(
        "exception-surfacing",
        lost >= 1 && w.written_off.iter().all(unreadable),
        format!("lost={lost} but reads of lost segments succeed"),
    )]
}

/// A repair path ran (`what` counts its repairs) and nothing was lost.
fn repaired(name: &'static str, what: &str, repairs: u64, lost: u64) -> Vec<CheckResult> {
    let detail = format!("{what}={repairs} lost={lost}");
    vec![judged(name, repairs >= 1 && lost == 0, detail)]
}

fn crash_mirrored_checks(w: &World) -> Vec<CheckResult> {
    let (promoted, lost) = (w.report.promoted, w.report.lost);
    repaired("mirror-promotion-exercised", "promoted", promoted, lost)
}

fn crash_parity_checks(w: &World) -> Vec<CheckResult> {
    let (n, lost) = (w.report.reconstructed, w.report.lost);
    repaired("parity-reconstruction-exercised", "reconstructed", n, lost)
}

fn link_spike_checks(w: &World) -> Vec<CheckResult> {
    let (ops_failed, gave_up) = (w.report.ops_failed, w.report.gave_up);
    let p = &w.latencies;
    vec![
        judged(
            "no-failures-under-degradation",
            ops_failed == 0 && gave_up == 0,
            format!("ops_failed={ops_failed} gave_up={gave_up}"),
        ),
        judged(
            "link-degradation-latency",
            p.len() == 3 && p[1] >= 2 * p[0] && p[2] < p[1],
            format!("probe latencies (before/during/after): {p:?}"),
        ),
    ]
}

fn combined_checks(w: &World) -> Vec<CheckResult> {
    let r = &w.report;
    let (promoted, reconstructed, retries) = (r.promoted, r.reconstructed, r.retries);
    vec![
        judged(
            "all-recovery-paths-exercised",
            promoted >= 1 && reconstructed >= 1 && retries >= 1,
            format!("promoted={promoted} reconstructed={reconstructed} retries={retries}"),
        ),
        check_coherence_mutex(r.seed, 4, 300),
    ]
}

fn crash_auto_heal_checks(w: &World) -> Vec<CheckResult> {
    let (det, orch) = armed(w);
    let r = &w.report;
    let (promoted, reconstructed, lost) = (r.promoted, r.reconstructed, r.lost);
    let (confirmations, batches) = (det.confirmation_count(), orch.recovery_count());
    let (epoch, node0_failed) = (det.epoch(), w.pool.node(NodeId(0)).is_failed());
    vec![
        judged(
            "autonomous-detection-and-repair",
            confirmations >= 1 && batches >= 2 && promoted >= 1 && reconstructed >= 1 && lost == 0,
            format!(
                "confirmations={confirmations} batches={batches} promoted={promoted} \
                 reconstructed={reconstructed} lost={lost}"
            ),
        ),
        judged(
            "rejoin-under-fresh-epoch",
            epoch == 2 && !node0_failed,
            format!("epoch={epoch} node0 failed={node0_failed}"),
        ),
        degraded_twice("degraded-window-exercised", w),
    ]
}

fn flap_no_heal_checks(w: &World) -> Vec<CheckResult> {
    let (det, orch) = armed(w);
    let lost = w.report.lost;
    let (suspicions, confirmations) = (det.suspicion_count(), det.confirmation_count());
    let (batches, epoch) = (orch.recovery_count(), det.epoch());
    vec![
        judged(
            "flaps-never-confirm",
            suspicions >= 2 && confirmations == 0 && batches == 0 && epoch == 0 && lost == 0,
            format!(
                "suspicions={suspicions} confirmations={confirmations} batches={batches} \
                 epoch={epoch} lost={lost}"
            ),
        ),
        degraded_twice("degraded-routes-around-flap", w),
    ]
}

fn port_drop_checks(w: &World) -> Vec<CheckResult> {
    let Waves { served, refused } = w.waves;
    let violations = w.atomicity_violations;
    vec![
        judged(
            "batch-window-exercised",
            served >= 2 && refused >= 1,
            format!("batch_ok={served} batch_failed={refused}"),
        ),
        judged(
            "atomic-failure-accounting",
            violations == 0,
            format!("{violations} refused accesses left charged counters behind"),
        ),
    ]
}

fn rack_loss_checks(w: &World) -> Vec<CheckResult> {
    let (det, _) = armed(w);
    let (promoted, reconstructed) = (w.report.promoted, w.report.reconstructed);
    let (confirmations, epoch, protected_lost) =
        (det.confirmation_count(), det.epoch(), w.protected_lost);
    let domains = w.pm.policy().domains().expect("rack topology");
    let rack0_up = domains
        .hosts_in(0)
        .iter()
        .all(|&n| !w.pool.node(n).is_failed());
    // Post-heal placement independence: every surviving protection group
    // spans racks again.
    let mut shared = String::new();
    for &seg in &w.segments {
        let Some(home) = w.pool.holder_of(seg) else {
            continue;
        };
        let group = w.pm.group_of(seg);
        let members = group.and_then(|g| w.pm.group_members(g)).unwrap_or(&[]);
        let partners =
            w.pm.replica(seg)
                .into_iter()
                .chain(members.iter().copied().filter(|&m| m != seg))
                .chain(group.and_then(|g| w.pm.parity_segment(g)))
                .filter_map(|s| w.pool.holder_of(s));
        for p in partners.filter(|&p| domains.same_rack(home, p)) {
            shared.push_str(&format!("{seg}: {home} and {p} share a rack; "));
        }
    }
    vec![
        // The whole failure domain was confirmed and every protected
        // segment was rebuilt from surviving racks.
        judged(
            "rack-loss-detected-and-healed",
            confirmations == 3 && promoted >= 1 && reconstructed >= 1 && protected_lost == 0,
            format!(
                "confirmations={confirmations} promoted={promoted} \
                 reconstructed={reconstructed} protected_lost={protected_lost}"
            ),
        ),
        // Warm rejoin under fresh epochs: all three hosts are back, and
        // the unprotected segment that was written off resurrected with
        // its contents.
        judged(
            "rack-rejoin-under-fresh-epoch",
            epoch == 6 && rack0_up && w.written_off.is_empty(),
            format!("epoch={epoch} still_lost={:?}", w.written_off),
        ),
        degraded_twice("degraded-window-exercised", w),
        judged("post-heal-rack-independence", shared.is_empty(), shared),
        host_only_contrast(w.report.seed),
    ]
}

fn hedged_flood_checks(w: &World) -> Vec<CheckResult> {
    let (det, _) = armed(w);
    let (promoted, lost, confirmations) =
        (w.report.promoted, w.report.lost, det.confirmation_count());
    let t = &w.hedges;
    let (not_needed, raced, wins, no_twin) = (t.not_needed, t.raced, t.wins, t.no_twin);
    let (degraded, mismatches) = (t.degraded, t.mismatches);
    let (cancels_ok, losers_fired) = (t.cancels_ok, t.losers_fired);
    vec![
        // The fast path never hedged, the flood window raced and the
        // hedge won (the twin dodged the backlog), and no probe found its
        // twin missing.
        judged(
            "hedge-race-exercised",
            not_needed >= 1 && raced >= 1 && wins >= 1 && no_twin == 0,
            format!("not_needed={not_needed} raced={raced} wins={wins} no_twin={no_twin}"),
        ),
        // Every race loser's completion event was cancelled through the
        // engine (one cancel per race), and none ever fired.
        judged(
            "hedge-cancel-honored",
            raced >= 1 && cancels_ok == raced && losers_fired == 0,
            format!("cancels={raced} ok={cancels_ok} losers_fired={losers_fired}"),
        ),
        // Inside the crash-repair window the hedge fell through to the
        // degraded path byte-identically, while the detector and
        // orchestrator rebuilt both twins.
        judged(
            "hedged-serves-during-rebuild",
            degraded >= 1 && mismatches == 0 && confirmations >= 1 && promoted >= 2 && lost == 0,
            format!(
                "degraded={degraded} mismatches={mismatches} confirmations={confirmations} \
                 promoted={promoted} lost={lost}"
            ),
        ),
    ]
}

/// The contrast half of the rack-loss acceptance: rack-loss's own rack —
/// the same 4×3 topology, segments and fillers — and the same rack-0
/// blackout, but under the host-only placement policy and the harness's
/// manual recovery. The fillers make rack 0 the freest domain, so
/// host-only placement packs the mirror replica and the parity block
/// next to their primaries, and the blackout must then lose protected
/// segments. Passing proves the domain-aware policy is what saves them in
/// the main run.
fn host_only_contrast(seed: u64) -> CheckResult {
    let spec = Scenario::RackLoss.spec();
    let domains = spec.policy.domains().expect("rack-loss has racks").clone();
    let spec = Spec {
        policy: PlacementPolicy::HostOnly,
        sweeps_from: None,
        ..spec
    };
    let mut w = World::build(&spec, "host-only-contrast", seed);
    // seg0 is mirrored and homed on node 0.
    let replica = w.pm.replica(w.segments[0]).expect("contrast mirrored");
    let colocated = w
        .pool
        .holder_of(replica)
        .is_some_and(|r| domains.same_rack(NodeId(0), r));
    let mut eng = Engine::new();
    for n in domains.hosts_in(0) {
        w.crash_host(&mut eng, n, "");
    }
    eng.run(|e, ev| w.handle(e, ev));
    let lost = w.protected_lost;
    judged(
        "host-only-contrast",
        colocated && lost >= 1,
        format!("colocated={colocated} lost_protected={lost}"),
    )
}

/// Run one scenario under one seed. Pure: same inputs ⇒ same report,
/// including the trace digest.
pub fn run_scenario(scenario: Scenario, seed: u64) -> ChaosReport {
    let spec = scenario.spec();
    let mut world = World::build(&spec, scenario.name(), seed);
    let at = SimTime::from_nanos;
    let faults = spec.faults.into_iter().map(|(t, f)| (at(t), Ev::Fault(f)));
    let ops = (0..)
        .zip(&world.ops)
        .filter(|(_, op)| {
            let quiet = spec.quiet.as_ref();
            !quiet.is_some_and(|q| q.contains(&op.at.as_nanos()))
        })
        .map(|(id, op)| (op.at, Ev::Op { id, attempt: 0 }));
    // Detector sweeps at the configured cadence across the horizon.
    let interval = HealthConfig::default_chaos().probe_interval;
    let sweeps = spec.sweeps_from.into_iter().flat_map(|from| {
        let due = (1..).map(move |k| at(from) + interval * k);
        due.take_while(|&t| t <= SimTime::ZERO + HORIZON)
    });
    let pinned = spec.pinned.into_iter().map(|(t, ev)| (at(t), ev));
    // The engine breaks ties FIFO, so this order is part of the trace: a
    // fault and a sweep landing on the same instant resolve fault-first.
    let mut eng = Engine::new();
    let all = faults.chain(ops).chain(sweeps.map(|t| (t, Ev::HealthTick)));
    eng.schedule_batch(all.chain(pinned))
        .expect("every scheduled instant lies within the horizon");
    eng.run(|e, ev| world.handle(e, ev));
    world.final_checks(spec.check);
    let mut report = world.report;
    report.digest = report.trace.digest();
    report.events = eng.events_processed();
    if let Some(h) = &world.healing {
        report.suspicions = h.detector.suspicion_count();
        report.confirmations = h.detector.confirmation_count();
        report.auto_recoveries = h.orchestrator.recovery_count();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_passes_and_is_deterministic() {
        for s in Scenario::all() {
            let a = run_scenario(s, 42);
            for c in &a.checks {
                assert!(c.passed, "[{} seed 42] {c}", a.scenario);
            }
            let b = run_scenario(s, 42);
            assert_eq!(a.digest, b.digest, "{}: same seed, different trace", a.scenario);
            assert_eq!(
                a.telemetry_digest, b.telemetry_digest,
                "{}: same seed, different telemetry",
                a.scenario
            );
            assert!(a.trace.diff(&b.trace).is_none());
        }
    }

    #[test]
    fn different_seeds_change_the_trace() {
        let a = run_scenario(Scenario::CrashMirrored, 1);
        let b = run_scenario(Scenario::CrashMirrored, 2);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn combined_exercises_retries_and_both_repairs() {
        let r = run_scenario(Scenario::Combined, 7);
        assert!(r.passed(), "{:#?}", r.checks);
        assert!(r.promoted >= 1);
        assert!(r.reconstructed >= 1);
        assert!(r.retries >= 1);
    }
}
