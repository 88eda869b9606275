// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Near-memory computing (§4.4): reduce a striped vector by pulling all
//! the data to one server vs shipping the computation to each stripe's
//! holder — and verify both produce the identical sum on materialized
//! data.
//!
//! Run with: `cargo run --release --example near_memory`

use lmp::compute::{Choice, DistVector, OpOutput, Operator, Planner, ReduceOp, ScanParams};
use lmp::core::prelude::*;
use lmp::fabric::{Fabric, LinkProfile, NodeId};
use lmp::mem::{DramProfile, FRAME_BYTES};
use lmp::sim::prelude::*;

fn build() -> (LogicalPool, Fabric, DistVector) {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 4,
        capacity_per_server: 40 * FRAME_BYTES,
        shared_per_server: 32 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let fabric = Fabric::new(LinkProfile::link1(), 4);
    let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
    let mut v = DistVector::stripe_even(&mut pool, 16 * FRAME_BYTES, &servers).unwrap();
    // Fill each stripe with known u64 elements so the sums are checkable.
    for (i, (_, seg, len)) in v.stripes.iter().enumerate() {
        let elems = len / 8;
        let mut bytes = Vec::with_capacity(*len as usize);
        for k in 0..elems {
            bytes.extend(((i as u64 + 1) * 7 + k % 13).to_le_bytes());
        }
        pool.write_bytes(LogicalAddr::new(*seg, 0), &bytes).unwrap();
    }
    v.stripes.sort_by_key(|(n, _, _)| n.0);
    (pool, fabric, v)
}

fn main() {
    println!("distributed sum over a 32 MiB vector striped across 4 servers\n");
    let mut reference = None;
    let op = Operator::Aggregate(ReduceOp::Sum);
    let planner = Planner::new(ScanParams::default(), 0.0);
    for (name, choice) in [("pull", Choice::Fetch), ("ship", Choice::Ship)] {
        let (mut pool, mut fabric, v) = build();
        // Plan, then force every remote stripe to one side: fetch pulls
        // the data to server 0, ship runs the sum where each stripe lives.
        let plan = planner
            .plan(&mut pool, &fabric, SimTime::ZERO, NodeId(0), &v, op)
            .expect("plan");
        let (out, timing) = planner
            .execute(
                &mut pool,
                &mut fabric,
                SimTime::ZERO,
                NodeId(0),
                op,
                &plan.forced(choice),
            )
            .expect("reduction runs");
        let OpOutput::Scalar(value) = out else {
            panic!("a sum is one scalar");
        };
        println!(
            "{name:>4}: sum={value}  completion={}  fabric bytes={}",
            timing.complete.duration_since(SimTime::ZERO),
            fmt_bytes(timing.fabric_bytes),
        );
        match reference {
            None => reference = Some(value),
            Some(r) => assert_eq!(r, value, "strategies must agree"),
        }
    }
    println!("\nboth strategies compute the same sum; shipping moves only the partials.");
}
