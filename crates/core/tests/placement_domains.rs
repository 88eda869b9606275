// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property test for failure-domain-aware placement (`placement.rs`).
//!
//! Under randomized topologies (2–4 racks, 1–3 hosts per rack) and
//! randomized partial-capacity racks, the domain-aware
//! [`PlacementPolicy`] must never co-locate a mirror twin or a parity
//! block with a group member's rack **while an out-of-rack candidate
//! with capacity exists**. When capacity genuinely forces co-location,
//! the degradation must be loud: the
//! `placement.independence_lost{domain=rack}` counter bumps — never a
//! silent same-rack placement.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use proptest::prelude::*;

const SHARED_FRAMES: u64 = 12;

fn setup(servers: u32, domains: &DomainMap) -> (LogicalPool, Fabric, ProtectionManager) {
    let cfg = PoolConfig {
        servers,
        capacity_per_server: 16 * FRAME_BYTES,
        shared_per_server: SHARED_FRAMES * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 16,
    };
    let mut pool = LogicalPool::new(cfg);
    pool.attach_telemetry();
    (
        pool,
        Fabric::new(LinkProfile::link1(), servers),
        ProtectionManager::with_policy(PlacementPolicy::DomainAware(domains.clone())),
    )
}

/// Live hosts outside every excluded rack with room for `frames`.
fn out_of_rack_candidates(
    pool: &LogicalPool,
    domains: &DomainMap,
    exclude: &[NodeId],
    frames: u64,
) -> Vec<NodeId> {
    (0..domains.hosts())
        .map(NodeId)
        .filter(|n| {
            !pool.node(*n).is_failed()
                && exclude.iter().all(|e| !domains.same_rack(*e, *n))
                && pool.free_shared_frames(*n) >= frames
        })
        .collect()
}

fn independence_lost_rack(pool: &LogicalPool) -> u64 {
    pool.telemetry()
        .map(|t| t.snapshot().counter("placement.independence_lost", &[("domain", "rack")]))
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn mirror_twins_never_silently_share_a_rack(
        racks in 2u32..5,
        hosts_per_rack in 1u32..4,
        seed in any::<u64>(),
        fill_density in 0u64..100,
    ) {
        let servers = racks * hosts_per_rack;
        let domains = DomainMap::uniform(racks, hosts_per_rack);
        let (mut p, mut f, mut pm) = setup(servers, &domains);
        let mut rng = DetRng::new(seed).fork("mirror-prop");

        // Partial-capacity racks: random filler load per host.
        for h in 0..servers {
            if rng.below(100) < fill_density {
                let frames = 1 + rng.below(SHARED_FRAMES - 2);
                let _ = p.alloc(frames * FRAME_BYTES, Placement::On(NodeId(h)));
            }
        }

        let home = NodeId(rng.below(servers as u64) as u32);
        let Ok(seg) = p.alloc(FRAME_BYTES, Placement::On(home)) else {
            // The home itself is full — nothing to place.
            return;
        };
        let candidates = out_of_rack_candidates(&p, &domains, &[home], 1);
        let lost_before = independence_lost_rack(&p);
        match pm.mirror(&mut p, &mut f, SimTime::ZERO, seg) {
            Ok(_) => {
                let replica = pm.replica(seg).unwrap();
                let rh = p.holder_of(replica).unwrap();
                prop_assert_ne!(rh, home, "replica on the home host");
                let colocated = domains.same_rack(home, rh);
                if !candidates.is_empty() {
                    prop_assert!(
                        !colocated,
                        "replica of {} landed in home rack {} despite candidates {:?}",
                        seg, domains.rack_of(home), candidates
                    );
                }
                let lost_after = independence_lost_rack(&p);
                prop_assert_eq!(
                    colocated,
                    lost_after == lost_before + 1,
                    "co-location and the independence_lost counter must agree \
                     (colocated={}, counter {} -> {})",
                    colocated, lost_before, lost_after
                );
            }
            Err(_) => {
                // Refusal is only legitimate when not even the host-level
                // fallback had room anywhere.
                let anywhere: Vec<NodeId> = (0..servers)
                    .map(NodeId)
                    .filter(|n| *n != home && p.free_shared_frames(*n) >= 1)
                    .collect();
                prop_assert!(
                    anywhere.is_empty(),
                    "mirror refused although {:?} had capacity", anywhere
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn parity_blocks_never_silently_share_a_member_rack(
        racks in 2u32..5,
        hosts_per_rack in 1u32..4,
        k in 2u32..4,
        seed in any::<u64>(),
        fill_density in 0u64..100,
    ) {
        let servers = racks * hosts_per_rack;
        let domains = DomainMap::uniform(racks, hosts_per_rack);
        let (mut p, mut f, mut pm) = setup(servers, &domains);
        let mut rng = DetRng::new(seed).fork("parity-prop");

        for h in 0..servers {
            if rng.below(100) < fill_density {
                let frames = 1 + rng.below(SHARED_FRAMES - 2);
                let _ = p.alloc(frames * FRAME_BYTES, Placement::On(NodeId(h)));
            }
        }

        // k members on distinct random homes (skip homes that are full).
        let mut homes: Vec<NodeId> = Vec::new();
        let mut members = Vec::new();
        for _ in 0..k {
            let h = NodeId(rng.below(servers as u64) as u32);
            if homes.contains(&h) {
                continue;
            }
            if let Ok(seg) = p.alloc(FRAME_BYTES, Placement::On(h)) {
                homes.push(h);
                members.push(seg);
            }
        }
        if members.len() < 2 {
            return;
        }
        let candidates = out_of_rack_candidates(&p, &domains, &homes, 1);
        let lost_before = independence_lost_rack(&p);
        match pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &members) {
            Ok(gid) => {
                let parity = pm.parity_segment(gid).unwrap();
                let ph = p.holder_of(parity).unwrap();
                prop_assert!(!homes.contains(&ph), "parity on a member host");
                let colocated = homes.iter().any(|h| domains.same_rack(*h, ph));
                if !candidates.is_empty() {
                    prop_assert!(
                        !colocated,
                        "parity block landed in a member rack despite candidates {:?}",
                        candidates
                    );
                }
                let lost_after = independence_lost_rack(&p);
                prop_assert_eq!(
                    colocated,
                    lost_after == lost_before + 1,
                    "co-location and the independence_lost counter must agree \
                     (colocated={}, counter {} -> {})",
                    colocated, lost_before, lost_after
                );
            }
            Err(_) => {
                let anywhere: Vec<NodeId> = (0..servers)
                    .map(NodeId)
                    .filter(|n| !homes.contains(n) && p.free_shared_frames(*n) >= 1)
                    .collect();
                prop_assert!(
                    anywhere.is_empty(),
                    "parity refused although {:?} had capacity", anywhere
                );
            }
        }
    }
}
