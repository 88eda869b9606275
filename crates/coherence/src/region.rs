//! The coherent shared-memory region.
//!
//! Combines the MSI directory ([`crate::directory::Directory`]), the bounded
//! snoop filter ([`crate::filter::SnoopFilter`]), and word storage into the
//! "few GBs of coherent memory for coordination and synchronization" of
//! §3.2. Every operation returns a [`CoherenceCost`] — the latency and
//! message count a hardware engine would incur — so synchronization
//! primitives built on top can be compared by traffic, which is how the
//! paper frames the coherence challenge.

use crate::config::{BlockId, CoherenceConfig, EnginePlacement, NodeId};
use crate::directory::{CohMessage, Directory};
use crate::filter::{FilterOutcome, SnoopFilter};
use lmp_sim::time::SimDuration;
use std::collections::BTreeMap;

/// Cost of one coherent operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoherenceCost {
    /// Modelled completion latency.
    pub latency: SimDuration,
    /// Protocol messages exchanged (invalidate, fetch, downgrade, …).
    pub messages: u64,
    /// Back-invalidations triggered by snoop-filter pressure.
    pub back_invalidations: u64,
}

impl CoherenceCost {
    /// Accumulate another cost into this one.
    pub fn absorb(&mut self, other: CoherenceCost) {
        self.latency += other.latency;
        self.messages += other.messages;
        self.back_invalidations += other.back_invalidations;
    }
}

/// Error raised when an access touches memory outside the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRegion {
    /// The offending coherent address.
    pub addr: u64,
    /// The region size in bytes.
    pub size: u64,
}

impl std::fmt::Display for OutOfRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "address {} outside coherent region of {} bytes", self.addr, self.size)
    }
}

impl std::error::Error for OutOfRegion {}

/// A software-modelled coherent region storing 8-byte words.
#[derive(Debug)]
pub struct CoherentRegion {
    config: CoherenceConfig,
    size_bytes: u64,
    dir: Directory,
    filter: SnoopFilter,
    words: BTreeMap<u64, u64>,
    total_cost: CoherenceCost,
    ops: u64,
}

impl CoherentRegion {
    /// A region of `size_bytes` with the given configuration.
    pub fn new(config: CoherenceConfig, size_bytes: u64) -> Self {
        let filter = SnoopFilter::new(config.filter_capacity);
        CoherentRegion {
            config,
            size_bytes,
            dir: Directory::new(),
            filter,
            words: BTreeMap::new(),
            total_cost: CoherenceCost::default(),
            ops: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CoherenceConfig {
        &self.config
    }

    /// Region size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Load the word at `addr` as `node`.
    pub fn load(&mut self, node: NodeId, addr: u64) -> Result<(u64, CoherenceCost), OutOfRegion> {
        self.check(addr)?;
        let block = self.config.block_of(addr);
        let access = self.dir.read(block, node);
        let cost = self.settle(block, access.hit, &access.messages);
        Ok((self.words.get(&addr).copied().unwrap_or(0), cost))
    }

    /// Store `value` to the word at `addr` as `node`.
    pub fn store(
        &mut self,
        node: NodeId,
        addr: u64,
        value: u64,
    ) -> Result<CoherenceCost, OutOfRegion> {
        self.check(addr)?;
        let block = self.config.block_of(addr);
        let access = self.dir.write(block, node);
        let cost = self.settle(block, access.hit, &access.messages);
        self.words.insert(addr, value);
        Ok(cost)
    }

    /// Atomic compare-and-swap on the word at `addr`. Returns whether the
    /// swap happened. A CAS is a write in the protocol whether or not it
    /// succeeds (the line must be owned exclusively to arbitrate).
    pub fn cas(
        &mut self,
        node: NodeId,
        addr: u64,
        expected: u64,
        new: u64,
    ) -> Result<(bool, CoherenceCost), OutOfRegion> {
        self.check(addr)?;
        let block = self.config.block_of(addr);
        let access = self.dir.write(block, node);
        let cost = self.settle(block, access.hit, &access.messages);
        let cur = self.words.get(&addr).copied().unwrap_or(0);
        if cur == expected {
            self.words.insert(addr, new);
            Ok((true, cost))
        } else {
            Ok((false, cost))
        }
    }

    /// Atomic fetch-and-add; returns the previous value.
    pub fn fetch_add(
        &mut self,
        node: NodeId,
        addr: u64,
        delta: u64,
    ) -> Result<(u64, CoherenceCost), OutOfRegion> {
        self.check(addr)?;
        let block = self.config.block_of(addr);
        let access = self.dir.write(block, node);
        let cost = self.settle(block, access.hit, &access.messages);
        let cur = self.words.get(&addr).copied().unwrap_or(0);
        self.words.insert(addr, cur.wrapping_add(delta));
        Ok((cur, cost))
    }

    /// A node crashed: purge its copies. Returns the blocks whose only
    /// (dirty) copy lived there — data lost unless otherwise protected.
    pub fn purge_node(&mut self, node: NodeId) -> Vec<BlockId> {
        self.dir.purge_node(node)
    }

    /// Directory telemetry.
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Snoop-filter telemetry.
    pub fn filter(&self) -> &SnoopFilter {
        &self.filter
    }

    /// Sum of all operation costs so far.
    pub fn total_cost(&self) -> CoherenceCost {
        self.total_cost
    }

    /// Export directory and filter traffic into a telemetry registry,
    /// labelling every instrument with `region`.
    pub fn export_into(&self, region: &str, reg: &mut lmp_telemetry::MetricRegistry) {
        let labels = [("region", region)];
        reg.fill_counter_value("coherence.ops", &labels, self.ops);
        reg.fill_counter_value("coherence.dir.reads", &labels, self.dir.read_count());
        reg.fill_counter_value("coherence.dir.writes", &labels, self.dir.write_count());
        reg.fill_counter_value(
            "coherence.dir.invalidations",
            &labels,
            self.dir.invalidation_count(),
        );
        reg.fill_counter_value(
            "coherence.dir.downgrades",
            &labels,
            self.dir.downgrade_count(),
        );
        reg.fill_counter_value(
            "coherence.filter.back_invalidations",
            &labels,
            self.filter.back_invalidation_count(),
        );
        reg.fill_counter_value("coherence.messages", &labels, self.total_cost.messages);
    }

    fn check(&self, addr: u64) -> Result<(), OutOfRegion> {
        if addr + 8 > self.size_bytes {
            Err(OutOfRegion {
                addr,
                size: self.size_bytes,
            })
        } else {
            Ok(())
        }
    }

    fn settle(&mut self, block: BlockId, hit: bool, messages: &[CohMessage]) -> CoherenceCost {
        self.ops += 1;
        let mut cost = CoherenceCost {
            latency: self.config.interpose,
            messages: 0,
            back_invalidations: 0,
        };
        if self.config.placement == EnginePlacement::Switch {
            // Reaching the engine in the switch is a fabric hop.
            cost.latency += self.config.message_latency;
        }
        for m in messages {
            let n = match m {
                CohMessage::Invalidate { sharers } => sharers.len() as u64,
                _ => 1,
            };
            cost.messages += n;
            // Invalidations fan out in parallel; pay one serialized hop per
            // message type.
            cost.latency += self.config.message_latency;
        }
        // Inclusive filter tracks every block with remote copies.
        if !hit {
            match self.filter.touch(block) {
                FilterOutcome::Evicted(victim) => {
                    let holders = self.dir.evict(victim);
                    cost.back_invalidations += 1;
                    cost.messages += holders.len() as u64;
                    cost.latency += self.config.message_latency;
                }
                FilterOutcome::Present | FilterOutcome::Inserted => {}
            }
        }
        self.total_cost.absorb(cost);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_sim::units::MIB;

    fn region() -> CoherentRegion {
        CoherentRegion::new(CoherenceConfig::default_lmp(), MIB)
    }

    #[test]
    fn load_store_round_trip() {
        let mut r = region();
        r.store(0, 64, 42).unwrap();
        let (v, _) = r.load(1, 64).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn out_of_region_rejected() {
        let mut r = region();
        assert!(r.load(0, MIB).is_err());
        assert!(r.store(0, MIB - 7, 1).is_err());
        assert!(r.load(0, MIB - 8).is_ok());
    }

    #[test]
    fn cas_semantics() {
        let mut r = region();
        let (ok, _) = r.cas(0, 0, 0, 5).unwrap();
        assert!(ok);
        let (ok, _) = r.cas(1, 0, 0, 9).unwrap();
        assert!(!ok, "stale expected value must fail");
        let (v, _) = r.load(2, 0).unwrap();
        assert_eq!(v, 5);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let mut r = region();
        assert_eq!(r.fetch_add(0, 8, 3).unwrap().0, 0);
        assert_eq!(r.fetch_add(1, 8, 3).unwrap().0, 3);
        assert_eq!(r.load(0, 8).unwrap().0, 6);
    }

    #[test]
    fn repeated_owner_access_is_cheap() {
        let mut r = region();
        let first = r.store(0, 0, 1).unwrap();
        let second = r.store(0, 0, 2).unwrap();
        assert!(second.latency <= first.latency);
        assert_eq!(second.messages, 0);
    }

    #[test]
    fn ping_pong_costs_messages() {
        let mut r = region();
        r.store(0, 0, 1).unwrap();
        let c = r.store(1, 0, 2).unwrap(); // flush owner 0
        assert!(c.messages >= 1);
        let c = r.store(0, 0, 3).unwrap(); // flush owner 1
        assert!(c.messages >= 1);
    }

    #[test]
    fn fine_granularity_avoids_false_sharing() {
        // Two nodes write adjacent 8-byte words. At 64-byte granularity they
        // ping-pong; at 16-byte granularity they do not conflict.
        let mut fine = CoherentRegion::new(CoherenceConfig::default_lmp(), MIB);
        let mut line = CoherentRegion::new(CoherenceConfig::cache_line(), MIB);
        for r in [&mut fine, &mut line] {
            r.store(0, 0, 1).unwrap();
            r.store(1, 16, 1).unwrap();
        }
        let mut fine_msgs = 0;
        let mut line_msgs = 0;
        for _ in 0..100 {
            fine_msgs += fine.store(0, 0, 2).unwrap().messages;
            fine_msgs += fine.store(1, 16, 2).unwrap().messages;
            line_msgs += line.store(0, 0, 2).unwrap().messages;
            line_msgs += line.store(1, 16, 2).unwrap().messages;
        }
        assert_eq!(fine_msgs, 0, "no false sharing at 16B granularity");
        assert!(line_msgs > 100, "64B granularity ping-pongs: {line_msgs}");
    }

    #[test]
    fn filter_overflow_back_invalidates() {
        let mut cfg = CoherenceConfig::default_lmp();
        cfg.filter_capacity = 4;
        let mut r = CoherentRegion::new(cfg, MIB);
        let mut bi = 0;
        for i in 0..64u64 {
            bi += r.load(0, i * 16).unwrap().1.back_invalidations;
        }
        assert!(bi >= 60 - 4, "expected back-invalidation storm, got {bi}");
        assert_eq!(r.total_cost().back_invalidations, bi);
    }

    #[test]
    fn purge_node_loses_dirty_words() {
        let mut r = region();
        r.store(3, 0, 77).unwrap();
        let lost = r.purge_node(3);
        assert_eq!(lost.len(), 1);
    }

    #[test]
    fn switch_placement_pays_fabric_hop() {
        let mut sw = CoherentRegion::new(CoherenceConfig::default_lmp(), MIB);
        let mut pn = CoherentRegion::new(
            CoherenceConfig {
                placement: EnginePlacement::PerNode,
                ..CoherenceConfig::default_lmp()
            },
            MIB,
        );
        let c_sw = sw.store(0, 0, 1).unwrap();
        let c_pn = pn.store(0, 0, 1).unwrap();
        assert!(c_sw.latency > c_pn.latency);
    }
}
