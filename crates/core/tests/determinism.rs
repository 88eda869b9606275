// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! RandomState-sensitivity regression (`translate.rs` / `balance.rs`).
//!
//! Every map a digest or migration plan iterates must be ordered
//! (`BTreeMap`), because `HashMap`'s per-instance `RandomState` makes
//! iteration order differ between two otherwise identical constructions
//! *within the same process*. This test runs the same seeded workload —
//! allocation, mixed local/remote access, balancer rounds that consult the
//! translation and hotness maps — twice, as two fully independent pool
//! instances, and requires byte-identical `rack_snapshot()` JSON and equal
//! digests. If anyone reintroduces unordered iteration on these paths, the
//! two runs disagree in plan order or label order and this test fails.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, MemOp, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use lmp_telemetry::TelemetrySnapshot;

const SERVERS: u32 = 4;
const SEGMENTS: usize = 12;
const ACCESSES: usize = 400;
const ROUNDS: usize = 5;

/// One complete seeded run: build a rack, hammer it with a deterministic
/// access pattern skewed enough to trigger balancing migrations, run the
/// balancer, and freeze the rack-wide snapshot.
fn seeded_run(seed: u64) -> (TelemetrySnapshot, Vec<Vec<MigrationPlan>>) {
    let cfg = PoolConfig {
        servers: SERVERS,
        capacity_per_server: 64 * FRAME_BYTES,
        shared_per_server: 32 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 32,
    };
    let mut pool = LogicalPool::new(cfg);
    pool.attach_telemetry();
    let mut fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    let mut rng = DetRng::new(seed);

    let mut segs = Vec::new();
    for i in 0..SEGMENTS {
        let home = NodeId((i as u32) % SERVERS);
        segs.push(pool.alloc(2 * FRAME_BYTES, Placement::On(home)).unwrap());
    }

    let mut balancer = LocalityBalancer::new(BalancerConfig {
        min_remote_accesses: 8,
        hysteresis: 1.5,
        max_migrations_per_round: 3,
    });

    let mut plans = Vec::new();
    let mut now = SimTime::ZERO;
    for round in 0..ROUNDS {
        for _ in 0..ACCESSES {
            let seg = segs[rng.below(segs.len() as u64) as usize];
            // Skew: most traffic comes from one remote server so the
            // balancer has dominant accessors to chase.
            let requester = if rng.chance(0.8) {
                NodeId((round as u32) % SERVERS)
            } else {
                NodeId(rng.below(u64::from(SERVERS)) as u32)
            };
            let offset = rng.below(2 * FRAME_BYTES - 64);
            let op = if rng.chance(0.3) { MemOp::Write } else { MemOp::Read };
            let addr = LogicalAddr::new(seg, offset);
            pool.access(&mut fabric, now, requester, addr, 64, op).unwrap();
            now += SimDuration::from_nanos(200);
        }
        let round = balancer.run_round(&mut pool, &mut fabric, now);
        plans.push(round.planned);
    }

    (rack_snapshot(&mut pool, &mut fabric, now), plans)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (snap_a, plans_a) = seeded_run(0xC0FFEE);
    let (snap_b, plans_b) = seeded_run(0xC0FFEE);
    // Plan order is part of the determinism contract: the balancer caps
    // migrations per round, so an unordered candidate scan would execute a
    // *different subset*, not just a reordering.
    assert_eq!(plans_a, plans_b, "balancer plans diverged between runs");
    assert_eq!(
        snap_a.to_json(),
        snap_b.to_json(),
        "rack snapshots diverged between same-seed runs"
    );
    assert_eq!(snap_a.digest(), snap_b.digest());
}

#[test]
fn the_workload_actually_migrates() {
    // Guard against this regression test going vacuous: the skewed access
    // pattern must produce at least one planned migration, otherwise the
    // balancer's map-iteration order was never exercised.
    let (_, plans) = seeded_run(0xC0FFEE);
    let total: usize = plans.iter().map(Vec::len).sum();
    assert!(total > 0, "seeded workload planned no migrations");
}

#[test]
fn different_seeds_differ() {
    // The digest is content-sensitive, not a constant.
    let (snap_a, _) = seeded_run(1);
    let (snap_b, _) = seeded_run(2);
    assert_ne!(
        snap_a.to_json(),
        snap_b.to_json(),
        "different seeds produced identical telemetry — workload is seed-blind"
    );
}

#[test]
fn chaos_scenario_digests_are_same_seed_deterministic() {
    // A full seeded chaos scenario — faults, recoveries, retries, batch
    // waves, telemetry — run twice with the same seed must produce
    // byte-identical FNV trace and telemetry digests. The scenario
    // schedules through `Engine`, so any drift in event order or in lazy
    // cancellation shows up here as a digest mismatch, with the trace
    // diff pinpointing the first divergent event.
    use lmp_harness::prelude::{run_scenario, Scenario};

    let a = run_scenario(Scenario::Combined, 0xD15C_0B01);
    let b = run_scenario(Scenario::Combined, 0xD15C_0B01);
    assert!(
        a.checks.iter().all(|c| c.passed),
        "chaos invariants failed: {:?}",
        a.checks.iter().filter(|c| !c.passed).collect::<Vec<_>>()
    );
    assert_eq!(
        a.digest, b.digest,
        "trace digests diverged; first differing event: {:?}",
        a.trace.diff(&b.trace)
    );
    assert_eq!(
        a.telemetry_digest, b.telemetry_digest,
        "telemetry digests diverged between same-seed runs"
    );
    assert_eq!(a.events, b.events);
    assert!(a.events > 0, "scenario delivered no events — vacuous run");
}
