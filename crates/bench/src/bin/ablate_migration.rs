// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! **Ablation: locality balancing on/off** (§5 "Locality balancing").
//!
//! A client server repeatedly scans buffers that were all placed on
//! another server (placement drift after workload hand-off). Without the
//! balancer every pass is remote (link bandwidth); with the balancer the
//! hot segments migrate to the client and later passes run at local DRAM
//! speed. Prints per-pass bandwidth for both configurations.

use lmp_bench::{emit_header, emit_row};
use lmp_compute::{scan_ranges, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::DramProfile;
use lmp_sim::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    balancer: bool,
    pass: u32,
    bandwidth_gbps: f64,
    migrations_so_far: u64,
}

fn build() -> (LogicalPool, Fabric, Vec<SegmentId>) {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 4,
        capacity_per_server: 4 * GIB,
        shared_per_server: 4 * GIB,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 1024,
    });
    let fabric = Fabric::new(LinkProfile::link1(), 4);
    // 8 × 256 MiB buffers, all stranded on server 0.
    let segs = (0..8)
        .map(|_| pool.alloc(256 * MIB, Placement::On(NodeId(0))).expect("fits"))
        .collect();
    (pool, fabric, segs)
}

fn run(balance: bool) -> Vec<Row> {
    let (mut pool, mut fabric, segs) = build();
    let client = NodeId(2);
    let mut balancer = LocalityBalancer::new(BalancerConfig {
        min_remote_accesses: 8,
        hysteresis: 2.0,
        max_migrations_per_round: 8,
    });
    let mut rows = Vec::new();
    let mut now = SimTime::ZERO;
    for pass in 0..6 {
        let start = now;
        let mut bytes = 0;
        for &seg in &segs {
            let len = pool.segment_len(seg).expect("live");
            let out = scan_ranges(
                &mut pool, &mut fabric, now, client, &[(seg, 0, len)], ScanParams::default(),
            )
            .expect("scan runs");
            now = out.complete;
            bytes += len;
        }
        let bw = Bandwidth::measured(bytes, now.duration_since(start));
        if balance {
            let round = balancer.run_round(&mut pool, &mut fabric, now);
            for r in &round.executed {
                now = now.max(r.complete);
            }
        }
        rows.push(Row {
            balancer: balance,
            pass,
            bandwidth_gbps: bw.as_gbps(),
            migrations_so_far: balancer.migration_count(),
        });
    }
    rows
}

fn main() {
    emit_header(
        "Ablation: migration",
        "Scan bandwidth with the locality balancer off vs on",
        "balancer recovers local bandwidth (~97 GB/s) after placement drift; \
         off stays at Link1 speed (~21 GB/s)",
    );
    println!(
        "{:<10} {:>5} {:>12} {:>12}",
        "Balancer", "Pass", "Bandwidth", "Migrations"
    );
    for balance in [false, true] {
        for row in run(balance) {
            emit_row(
                &format!(
                    "{:<10} {:>5} {:>9.1}GB/s {:>12}",
                    if row.balancer { "on" } else { "off" },
                    row.pass,
                    row.bandwidth_gbps,
                    row.migrations_so_far
                ),
                &row,
            );
        }
    }
}
