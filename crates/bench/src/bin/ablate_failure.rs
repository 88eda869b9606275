// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! **Ablation: replication vs erasure coding** (§5 "Failure domains").
//!
//! Protects a working set with (a) nothing, (b) mirroring, (c) XOR parity
//! groups of increasing width, then crashes one server and compares:
//! storage overhead, write amplification, recovery traffic, and data loss.

use lmp_bench::{emit_header, emit_row};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheme: String,
    storage_overhead_pct: f64,
    write_amplification: f64,
    recovery_bytes: u64,
    recovery_ms: f64,
    segments_lost: usize,
}

const SERVERS: u32 = 6;
const SEGS_PER_SERVER: u32 = 2;
const SEG_BYTES: u64 = 4 * FRAME_BYTES;

fn build() -> (LogicalPool, Fabric, Vec<SegmentId>) {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: SERVERS,
        capacity_per_server: 64 * FRAME_BYTES,
        shared_per_server: 48 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    let mut segs = Vec::new();
    for s in 0..SERVERS {
        for _ in 0..SEGS_PER_SERVER {
            segs.push(pool.alloc(SEG_BYTES, Placement::On(NodeId(s))).expect("fits"));
        }
    }
    (pool, fabric, segs)
}

fn used_frames(pool: &LogicalPool) -> u64 {
    (0..SERVERS)
        .map(|s| pool.node(NodeId(s)).split().shared_used())
        .sum()
}

fn run(scheme: &str) -> Row {
    let (mut pool, mut fabric, segs) = build();
    let mut pm = ProtectionManager::new();
    let base_frames = used_frames(&pool);

    match scheme {
        "none" => {}
        "mirror" => {
            for &s in &segs {
                pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, s)
                    .expect("mirror fits");
            }
        }
        parity => {
            let width: usize = parity
                .strip_prefix("parity-")
                .expect("parity-N")
                .parse()
                .expect("numeric width");
            // Order segments server-major round-robin; any `width ≤ SERVERS`
            // consecutive segments then sit on distinct servers.
            let mut by_server: Vec<Vec<SegmentId>> = vec![Vec::new(); SERVERS as usize];
            for &s in &segs {
                by_server[pool.holder_of(s).expect("live").0 as usize].push(s);
            }
            let mut ordered: Vec<SegmentId> = Vec::with_capacity(segs.len());
            for round in 0..SEGS_PER_SERVER as usize {
                for per in &by_server {
                    ordered.push(per[round]);
                }
            }
            let mut rest = ordered.as_slice();
            while rest.len() >= width {
                let (group, tail) = rest.split_at(width);
                pm.protect_parity(&mut pool, &mut fabric, SimTime::ZERO, group)
                    .expect("parity fits");
                rest = tail;
            }
            // Leftover members (fewer than width) get mirrors instead.
            for &s in rest {
                pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, s)
                    .expect("mirror fits");
            }
        }
    }
    let protected_frames = used_frames(&pool);
    let overhead =
        (protected_frames as f64 - base_frames as f64) / base_frames as f64 * 100.0;

    // Write amplification over a spread of protected writes.
    let mut primary = 0u64;
    let mut extra = 0u64;
    for (i, &s) in segs.iter().enumerate() {
        let amp = pm
            .write(
                &mut pool,
                LogicalAddr::new(s, (i as u64 * 640) % (SEG_BYTES - 64)),
                &[0xAB; 64],
            )
            .expect("protected write");
        primary += amp.primary_bytes;
        extra += amp.extra_bytes;
    }

    // Crash server 0 and recover.
    let affected = pool.crash_server(NodeId(0)).expect("known server");
    let report = pm.recover(&mut pool, &mut fabric, SimTime::ZERO, NodeId(0), &affected);

    Row {
        scheme: scheme.to_string(),
        storage_overhead_pct: overhead,
        write_amplification: (primary + extra) as f64 / primary as f64,
        recovery_bytes: report.bytes_transferred,
        recovery_ms: report.complete.as_secs_f64() * 1e3,
        segments_lost: report.lost.len(),
    }
}

fn main() {
    emit_header(
        "Ablation: failure masking",
        "None vs mirroring vs XOR parity (one server crash)",
        "mirroring: 100% storage overhead, cheap recovery; parity: 1/k overhead, \
         k-fold recovery reads; none: data loss",
    );
    println!(
        "{:<10} {:>10} {:>10} {:>14} {:>12} {:>6}",
        "Scheme", "Storage+", "WriteAmp", "RecoveryBytes", "RecoveryMs", "Lost"
    );
    // Parity width is capped at SERVERS − 1: the parity segment itself
    // must live on a server hosting no member.
    for scheme in ["none", "mirror", "parity-3", "parity-4"] {
        let row = run(scheme);
        emit_row(
            &format!(
                "{:<10} {:>9.0}% {:>9.2}x {:>14} {:>12.3} {:>6}",
                row.scheme,
                row.storage_overhead_pct,
                row.write_amplification,
                row.recovery_bytes,
                row.recovery_ms,
                row.segments_lost
            ),
            &row,
        );
    }
}
