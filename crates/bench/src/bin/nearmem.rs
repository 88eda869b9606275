// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! **§4.4 Benefit 3** — near-memory computing via compute shipping.
//!
//! The paper distributes the sum across LMP servers so every access is
//! local and reports "an even larger performance improvement than reported
//! above (not shown)". This binary shows it: a 64 GB vector striped over
//! four servers, reduced by (a) pulling all stripes to one server and (b)
//! shipping the partial sums to the data, on both links.

use lmp_bench::{emit_header, emit_row};
use lmp_compute::{Choice, DistVector, Operator, Planner, ReduceOp, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::DramProfile;
use lmp_sim::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    link: String,
    strategy: String,
    effective_gbps: f64,
    fabric_bytes: u64,
    completion_ms: f64,
}

fn build() -> LogicalPool {
    LogicalPool::new(PoolConfig {
        servers: 4,
        capacity_per_server: 24 * GIB,
        shared_per_server: 24 * GIB,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 1024,
    })
}

fn main() {
    let size = 64 * GIB;
    emit_header(
        "Benefit 3 (§4.4)",
        "Distributed sum: pull vs compute shipping (64 GB vector, 4 servers)",
        "shipping makes every access local; improvement exceeds the Figure 2-4 gains",
    );
    println!(
        "{:<6} {:<6} {:>14} {:>16} {:>12}",
        "Link", "Mode", "Effective BW", "Fabric bytes", "Completion"
    );
    let op = Operator::Aggregate(ReduceOp::Sum);
    let planner = Planner::new(ScanParams::default(), 0.0);
    for link in [LinkProfile::link0(), LinkProfile::link1()] {
        let mut speedup = Vec::new();
        for (name, choice) in [("pull", Choice::Fetch), ("ship", Choice::Ship)] {
            let mut pool = build();
            let mut fabric = Fabric::new(link.clone(), 4);
            let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
            let v = DistVector::stripe_even(&mut pool, size, &servers).expect("fits");
            // Fetch pulls every stripe to server 0; ship sums each stripe
            // where it lives and returns the partials.
            let plan = planner
                .plan(&mut pool, &fabric, SimTime::ZERO, NodeId(0), &v, op)
                .expect("plan");
            let (_, out) = planner
                .execute(
                    &mut pool,
                    &mut fabric,
                    SimTime::ZERO,
                    NodeId(0),
                    op,
                    &plan.forced(choice),
                )
                .expect("reduction runs");
            let bw =
                Bandwidth::measured(size, out.complete.saturating_duration_since(SimTime::ZERO));
            let ms = out.complete.as_secs_f64() * 1e3;
            speedup.push(ms);
            emit_row(
                &format!(
                    "{:<6} {:<6} {:>10.1}GB/s {:>16} {:>10.2}ms",
                    link.name, name, bw.as_gbps(), out.fabric_bytes, ms
                ),
                &Row {
                    link: link.name.clone(),
                    strategy: name.into(),
                    effective_gbps: bw.as_gbps(),
                    fabric_bytes: out.fabric_bytes,
                    completion_ms: ms,
                },
            );
        }
        println!(
            "   {}: compute shipping speedup = {:.2}x",
            link.name,
            speedup[0] / speedup[1]
        );
    }
}
