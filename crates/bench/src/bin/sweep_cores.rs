// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! **Core sweep** — bandwidth saturation vs core count.
//!
//! Supports the paper's 14-core methodology: a single core cannot saturate
//! either local DRAM or a fabric link with one outstanding stream; the
//! measured per-core bandwidth climbs until the resource saturates. The
//! knee positions (cores needed to saturate local vs remote) also explain
//! why remote slowdowns hurt: the same cores extract far less bandwidth.

use lmp_bench::{emit_header, emit_row};
use lmp_compute::{scan_ranges, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::DramProfile;
use lmp_sim::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    placement: &'static str,
    cores: u32,
    bandwidth_gbps: f64,
}

fn scan(local: bool, cores: u32) -> f64 {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 2,
        capacity_per_server: 6 * GIB,
        shared_per_server: 6 * GIB,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), 2);
    let len = 4 * GIB;
    let holder = if local { NodeId(0) } else { NodeId(1) };
    let seg = pool.alloc(len, Placement::On(holder)).expect("fits");
    let out = scan_ranges(
        &mut pool, &mut fabric, SimTime::ZERO, NodeId(0), &[(seg, 0, len)], ScanParams::with_cores(cores),
    )
    .expect("scan runs");
    out.bandwidth(SimTime::ZERO).as_gbps()
}

fn main() {
    emit_header(
        "Sweep: cores",
        "Scan bandwidth vs core count, local vs remote (Link1)",
        "local saturates at ~97 GB/s, remote at ~21 GB/s; remote needs fewer cores to saturate",
    );
    println!("{:<8} {:>6} {:>12}", "Target", "Cores", "Bandwidth");
    for (placement, local) in [("local", true), ("remote", false)] {
        for cores in [1u32, 2, 4, 7, 14, 28] {
            let bw = scan(local, cores);
            emit_row(
                &format!("{placement:<8} {cores:>6} {bw:>9.1}GB/s"),
                &Row {
                    placement,
                    cores,
                    bandwidth_gbps: bw,
                },
            );
        }
    }
}
