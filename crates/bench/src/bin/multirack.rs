// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! **Multirack runs** — failure-domain-aware placement vs. host-only
//! placement across a rack-count sweep, on the datacenter fabric.
//!
//! For each `(policy, racks)` configuration the bench builds a pool of
//! `racks × 3` hosts, homes four protected application segments in rack 0
//! (two mirrored, a parity pair whose second member lives in rack 1),
//! biases host-only placement into rack 0 with filler allocations, runs a
//! seeded 200-read workload over a datacenter-shaped [`Fabric`] (local-access
//! ratio, spine traffic), then blacks out rack 0 and recovers. Everything
//! is simulated time — no wall clock — so every number and the per-config
//! FNV digest are bit-stable across machines. Verified here, exit
//! non-zero on any failure:
//!
//! * domain-aware placement loses **zero** protected segments to the
//!   rack-0 blackout at every rack count ≥ 3 (a 2-rack pool cannot give a
//!   group that already spans both racks a third independent domain — the
//!   policy degrades loudly and the row reports the loss instead);
//! * host-only placement demonstrably **does** lose protected segments at
//!   every rack count — the contrast that proves the placement policy,
//!   not luck, is what survives the rack;
//! * every segment that survived recovery reads back byte-identical;
//! * full mode rewrites `BENCH_multirack.json`; smoke mode (`--smoke`,
//!   CI) re-runs the sweep and fails on any digest drift from the
//!   committed baseline.
//!
//! ```text
//! cargo run --release -p lmp-bench --bin multirack            # full, rewrites BENCH_multirack.json
//! cargo run --release -p lmp-bench --bin multirack -- --smoke # CI gate vs committed baseline
//! ```

use lmp_bench::gate::{fnv_fold, Smoke, FNV_OFFSET};
use lmp_bench::{emit_header, emit_row};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use serde::Serialize;

const HOSTS_PER_RACK: u32 = 3;
const RACK_COUNTS: [u32; 3] = [2, 3, 4];
const SEG_BYTES: u64 = 2 * FRAME_BYTES;
const READS: u64 = 200;
const SEED: u64 = 42;

#[derive(Serialize)]
struct ConfigRow {
    policy: &'static str,
    racks: u32,
    servers: u32,
    local_ratio: f64,
    avg_read_ns: u64,
    cross_rack_reads: u64,
    workload_spine_bytes: u64,
    rebuilt: u64,
    lost_protected: u64,
    recovery_ns: u64,
    recovery_spine_bytes: u64,
    content_mismatches: u64,
    digest: String,
}

/// The datacenter fabric the workload and the recovery replay read over,
/// with the spine tallies the rows report.
struct Datacenter<'a> {
    fabric: Fabric,
    domains: &'a DomainMap,
    cross_rack_reads: u64,
    spine_bytes: u64,
}

impl Datacenter<'_> {
    /// `requester` reads `bytes` from `holder`: the completion, the latency
    /// and whether the read crossed the spine. A same-node read is local:
    /// it charges nothing and completes at `at` with latency 0. A
    /// cross-rack read's payload counts once toward the spine bytes.
    fn read(
        &mut self,
        at: SimTime,
        requester: NodeId,
        holder: NodeId,
        bytes: u64,
    ) -> (SimTime, SimDuration, bool) {
        if requester == holder {
            return (at, SimDuration::ZERO, false);
        }
        let c = self.fabric.read(at, requester, holder, bytes);
        let cross_rack = !self.domains.same_rack(requester, holder);
        if cross_rack {
            self.cross_rack_reads += 1;
            self.spine_bytes += bytes;
        }
        (c.complete, c.latency, cross_rack)
    }
}

/// One configuration, end to end: build, workload, blackout, recovery.
/// Pure simulation — the row is a function of `(policy, racks, SEED)`.
fn run_config(domain_aware: bool, racks: u32) -> ConfigRow {
    let servers = racks * HOSTS_PER_RACK;
    let config = PoolConfig {
        servers,
        capacity_per_server: 64 * FRAME_BYTES,
        shared_per_server: 48 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 16,
    };
    let mut pool = LogicalPool::new(config);
    let mut fabric = Fabric::new(LinkProfile::link1(), servers);
    let domains = DomainMap::uniform(racks, HOSTS_PER_RACK);
    let mut dc = Datacenter {
        fabric: Fabric::datacenter(
            LinkProfile::link1(),
            racks,
            1,
            HOSTS_PER_RACK,
            4.0,
            2.0,
            SimDuration::from_nanos(40),
        ),
        domains: &domains,
        cross_rack_reads: 0,
        spine_bytes: 0,
    };
    let mut pm = if domain_aware {
        ProtectionManager::with_policy(PlacementPolicy::DomainAware(domains.clone()))
    } else {
        ProtectionManager::new()
    };

    // Rack 0 homes both mirrored segments and the first parity member;
    // the second parity member lives in rack 1 so the group spans racks
    // before placement even runs (exactly the chaos rack-loss layout).
    let homes = [0u32, 1, 2, HOSTS_PER_RACK];
    let rng = DetRng::new(SEED).fork("multirack-setup");
    let mut segments = Vec::new();
    let mut contents: Vec<Vec<u8>> = Vec::new();
    for (i, &h) in homes.iter().enumerate() {
        let seg = pool
            .alloc(SEG_BYTES, Placement::On(NodeId(h)))
            .expect("setup alloc");
        let mut content_rng = rng.fork_indexed("content", i as u64);
        let data: Vec<u8> = (0..SEG_BYTES).map(|_| content_rng.below(256) as u8).collect();
        pool.write_bytes(LogicalAddr::new(seg, 0), &data)
            .expect("setup write");
        segments.push(seg);
        contents.push(data);
    }
    // Fillers leave rack 0 the freest domain, so host-only placement
    // packs the redundancy next to its primaries.
    for h in HOSTS_PER_RACK..servers {
        pool.alloc(8 * FRAME_BYTES, Placement::On(NodeId(h)))
            .expect("setup filler");
    }
    pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, segments[0])
        .expect("setup mirror 0");
    pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, segments[1])
        .expect("setup mirror 1");
    pm.protect_parity(&mut pool, &mut fabric, SimTime::ZERO, &[segments[2], segments[3]])
        .expect("setup parity");

    // Seeded read workload over the datacenter fabric: requesters from
    // every rack hit the primaries, so the local-access ratio and spine
    // traffic reflect where placement put the data.
    let mut digest = FNV_OFFSET;
    let mut wl = DetRng::new(SEED).fork("multirack-workload");
    let mut local = 0u64;
    let mut total_latency = 0u64;
    for i in 0..READS {
        let at = SimTime::from_nanos(i * 500);
        let requester = NodeId(wl.below(servers as u64) as u32);
        let seg_idx = wl.below(segments.len() as u64) as usize;
        let len = 64 + wl.below(192);
        let holder = pool
            .holder_of(segments[seg_idx])
            .expect("primary resolvable before the blackout");
        let (_, latency, cross_rack) = dc.read(at, requester, holder, len);
        if !cross_rack {
            local += 1;
        }
        total_latency += latency.as_nanos();
        fnv_fold(&mut digest, u64::from(requester.0));
        fnv_fold(&mut digest, u64::from(holder.0));
        fnv_fold(&mut digest, latency.as_nanos());
        fnv_fold(&mut digest, u64::from(cross_rack));
    }
    let workload_spine_bytes = dc.spine_bytes;

    // Rack-0 blackout, then the same per-node recovery the orchestrator
    // runs, in ascending host order.
    let blackout = SimTime::from_nanos(READS * 500 + 10_000);
    let detect = blackout + SimDuration::from_micros(2);
    let mut crashed = Vec::new();
    for n in domains.hosts_in(0) {
        let mut affected = pool.crash_server(n);
        affected.sort_unstable();
        fabric.set_port_down(n, true);
        crashed.push((n, affected));
    }
    let mut lost_protected = 0u64;
    let mut rebuilt: Vec<SegmentId> = Vec::new();
    for (n, affected) in crashed {
        let report = pm.recover(&mut pool, &mut fabric, detect, n, &affected);
        for seg in &report.lost {
            if segments.contains(seg) {
                lost_protected += 1;
                fnv_fold(&mut digest, seg.0);
            }
        }
        rebuilt.extend(report.promoted.iter().copied());
        rebuilt.extend(report.reconstructed.iter().copied());
    }

    // Replay the rebuild traffic on the datacenter fabric: every rebuilt
    // segment pulled its bytes from a surviving holder, so the spine sees
    // the recovery and its completion time is the recovery time.
    let spine_before = dc.spine_bytes;
    let mut recovery_done = detect;
    for &seg in &rebuilt {
        let Some(dst) = pool.holder_of(seg) else { continue };
        let mut sources: Vec<NodeId> = Vec::new();
        if let Some(rep) = pm.replica(seg) {
            sources.extend(pool.holder_of(rep));
        }
        if let Some(gid) = pm.group_of(seg) {
            for &m in pm.group_members(gid).unwrap_or(&[]) {
                if m != seg {
                    sources.extend(pool.holder_of(m));
                }
            }
            if let Some(p) = pm.parity_segment(gid) {
                sources.extend(pool.holder_of(p));
            }
        }
        for src in sources {
            if src == dst {
                continue;
            }
            let (complete, _, _) = dc.read(detect, dst, src, SEG_BYTES);
            if complete > recovery_done {
                recovery_done = complete;
            }
        }
    }
    let recovery_ns = recovery_done.duration_since(detect).as_nanos();
    let recovery_spine_bytes = dc.spine_bytes - spine_before;

    // Every surviving segment must read back byte-identical.
    let mut content_mismatches = 0u64;
    for (i, &seg) in segments.iter().enumerate() {
        match pool.read_bytes(LogicalAddr::new(seg, 0), SEG_BYTES) {
            Ok(got) => {
                if got != contents[i] {
                    content_mismatches += 1;
                }
            }
            Err(_) => {
                // Lost segments are accounted above; a read failure on a
                // segment not reported lost is a mismatch.
                if !pm.is_protected(seg) && lost_protected == 0 {
                    content_mismatches += 1;
                }
            }
        }
    }
    fnv_fold(&mut digest, lost_protected);
    fnv_fold(&mut digest, rebuilt.len() as u64);
    fnv_fold(&mut digest, recovery_ns);
    fnv_fold(&mut digest, recovery_spine_bytes);
    fnv_fold(&mut digest, content_mismatches);

    ConfigRow {
        policy: if domain_aware { "domain" } else { "host" },
        racks,
        servers,
        local_ratio: local as f64 / READS as f64,
        avg_read_ns: total_latency / READS,
        cross_rack_reads: dc.cross_rack_reads,
        workload_spine_bytes,
        rebuilt: rebuilt.len() as u64,
        lost_protected,
        recovery_ns,
        recovery_spine_bytes,
        content_mismatches,
        digest: format!("{digest:#018x}"),
    }
}

/// The committed baseline, flat and string-searchable: the smoke gate
/// extracts fields without a JSON parser (the vendored serde_json shim is
/// write-only).
#[derive(Serialize)]
struct Baseline {
    reads_per_config: u64,
    digest_host_2: String,
    digest_host_3: String,
    digest_host_4: String,
    digest_domain_2: String,
    digest_domain_3: String,
    digest_domain_4: String,
    host_lost_protected: u64,
    domain_lost_protected_3plus: u64,
    host_local_ratio_4: f64,
    domain_local_ratio_4: f64,
    domain_recovery_ns_4: u64,
    domain_recovery_spine_bytes_4: u64,
}

fn run_sweep() -> Vec<ConfigRow> {
    let mut rows = Vec::new();
    for domain_aware in [false, true] {
        for racks in RACK_COUNTS {
            let row = run_config(domain_aware, racks);
            emit_row(
                &format!(
                    "{:6} racks={} local {:>5.2} avg {:>6} ns  rebuilt {} lost_protected {} recovery {:>7} ns  {}",
                    row.policy,
                    row.racks,
                    row.local_ratio,
                    row.avg_read_ns,
                    row.rebuilt,
                    row.lost_protected,
                    row.recovery_ns,
                    row.digest,
                ),
                &row,
            );
            rows.push(row);
        }
    }
    rows
}

/// The cross-policy acceptance contrast; `None` means it holds.
fn contrast_failure(rows: &[ConfigRow]) -> Option<String> {
    for r in rows {
        if r.content_mismatches > 0 {
            return Some(format!(
                "{} racks={}: {} surviving segments diverged from their pre-blackout bytes",
                r.policy, r.racks, r.content_mismatches
            ));
        }
        match r.policy {
            "domain" if r.racks >= 3 && r.lost_protected > 0 => {
                return Some(format!(
                    "domain-aware placement lost {} protected segments at racks={}",
                    r.lost_protected, r.racks
                ));
            }
            "host" if r.lost_protected == 0 => {
                return Some(format!(
                    "host-only placement lost nothing at racks={} — the contrast is gone",
                    r.racks
                ));
            }
            _ => {}
        }
    }
    None
}

fn find<'a>(rows: &'a [ConfigRow], policy: &str, racks: u32) -> &'a ConfigRow {
    rows.iter()
        .find(|r| r.policy == policy && r.racks == racks)
        .expect("sweep covers every configuration")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    emit_header(
        "multirack",
        "failure-domain-aware vs host-only placement across racks",
        "domain-aware placement survives a full rack loss with zero protected losses",
    );

    let rows = run_sweep();
    if let Some(why) = contrast_failure(&rows) {
        eprintln!("multirack: {why}");
        std::process::exit(1);
    }

    if smoke {
        let mut gate = Smoke::read_baseline("multirack", "BENCH_multirack.json");
        for r in &rows {
            gate.pin(&format!("digest_{}_{}", r.policy, r.racks), &r.digest);
        }
        gate.verdict(&format!("smoke: {} configurations", rows.len()));
        return;
    }

    let host_lost: u64 = rows
        .iter()
        .filter(|r| r.policy == "host")
        .map(|r| r.lost_protected)
        .sum();
    let domain_lost_3plus: u64 = rows
        .iter()
        .filter(|r| r.policy == "domain" && r.racks >= 3)
        .map(|r| r.lost_protected)
        .sum();
    let d4 = find(&rows, "domain", 4);
    let baseline = Baseline {
        reads_per_config: READS,
        digest_host_2: find(&rows, "host", 2).digest.clone(),
        digest_host_3: find(&rows, "host", 3).digest.clone(),
        digest_host_4: find(&rows, "host", 4).digest.clone(),
        digest_domain_2: find(&rows, "domain", 2).digest.clone(),
        digest_domain_3: find(&rows, "domain", 3).digest.clone(),
        digest_domain_4: find(&rows, "domain", 4).digest.clone(),
        host_lost_protected: host_lost,
        domain_lost_protected_3plus: domain_lost_3plus,
        host_local_ratio_4: find(&rows, "host", 4).local_ratio,
        domain_local_ratio_4: d4.local_ratio,
        domain_recovery_ns_4: d4.recovery_ns,
        domain_recovery_spine_bytes_4: d4.recovery_spine_bytes,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write("BENCH_multirack.json", json).expect("write BENCH_multirack.json");
    println!(
        "full: host-only lost {host_lost} protected segments across the sweep, domain-aware lost {domain_lost_3plus} (racks ≥ 3) — baseline written"
    );
}
