// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Failure domains (§5): crash a server and watch mirrored and
//! parity-protected buffers survive with their logical addresses intact,
//! while unprotected buffers raise memory exceptions.
//!
//! Run with: `cargo run --example failure_recovery`

use lmp::core::prelude::*;
use lmp::fabric::{Fabric, LinkProfile, NodeId};
use lmp::mem::{DramProfile, FRAME_BYTES};
use lmp::sim::prelude::*;

fn main() {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 5,
        capacity_per_server: 32 * FRAME_BYTES,
        shared_per_server: 24 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), 5);
    let mut pm = ProtectionManager::new();

    // Three buffers on server 0 with three protection levels.
    let unprotected = pool.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let mirrored = pool.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let coded = pool.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
    let peer1 = pool.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
    let peer2 = pool.alloc(FRAME_BYTES, Placement::On(NodeId(2))).unwrap();

    pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, mirrored)
        .expect("replica placed");
    pm.protect_parity(&mut pool, &mut fabric, SimTime::ZERO, &[coded, peer1, peer2])
        .expect("parity placed");

    for (seg, text) in [
        (unprotected, &b"no protection"[..]),
        (mirrored, b"mirrored data"),
        (coded, b"erasure-coded"),
    ] {
        pm.write(&mut pool, LogicalAddr::new(seg, 0), text)
            .expect("write lands");
    }

    println!("crashing server 0 (holds all three primaries)…");
    let affected = pool.crash_server(NodeId(0)).expect("known server");
    let report = pm.recover(&mut pool, &mut fabric, SimTime::ZERO, NodeId(0), &affected);
    println!(
        "recovery: promoted {:?}, reconstructed {:?}, lost {:?}, {} moved in {}",
        report.promoted,
        report.reconstructed,
        report.lost,
        fmt_bytes(report.bytes_transferred),
        report.complete.duration_since(SimTime::ZERO),
    );

    for (seg, label) in [
        (unprotected, "unprotected"),
        (mirrored, "mirrored"),
        (coded, "parity"),
    ] {
        match pool.read_bytes(LogicalAddr::new(seg, 0), 13) {
            Ok(data) => println!(
                "  {label:<12} -> OK: {:?} (now on {})",
                String::from_utf8_lossy(&data),
                pool.holder_of(seg).unwrap()
            ),
            Err(e) => println!("  {label:<12} -> memory exception: {e}"),
        }
    }
}
