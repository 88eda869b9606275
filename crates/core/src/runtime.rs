//! The per-server runtime and application library (§3.2).
//!
//! "Implementing LMPs requires a per-server runtime and an application
//! library for allocating, controlling, and setting up disaggregated
//! memory access — for example, by mapping a range of virtual addresses to
//! memory in the pool. Furthermore, the runtime must execute at least two
//! background tasks: one for adjusting the size of shared regions to
//! minimize remote accesses, and another to find opportunities for buffer
//! migration."
//!
//! [`ServerRuntime`] is that library: applications allocate pool buffers
//! and receive **virtual addresses**; loads and stores go through the VA
//! map, so application code never handles segments directly.
//! [`RackRuntime`] hosts the two background tasks on configurable periods.

use crate::addr::{LogicalAddr, SegmentId};
use crate::balance::{BalanceRound, BalancerConfig, LocalityBalancer};
use crate::pool::{LogicalPool, Placement, PoolAccess, PoolError};
use crate::sizing::{apply_best_effort, solve as solve_sizing, AppDemand, SizingPlan};
use lmp_fabric::{Fabric, MemOp, NodeId};
use lmp_mem::FRAME_BYTES;
use lmp_sim::prelude::*;
use std::collections::BTreeMap;

/// A virtual address handed to applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtAddr(pub u64);

impl std::fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Base of the pool-mapping region in each server's address space
/// (mirrors where mmap regions land on Linux x86-64).
const VA_BASE: u64 = 0x7f00_0000_0000;

/// Errors from the VA layer (wraps pool errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The virtual address is not mapped (or the access crosses the end of
    /// its mapping) — a segfault, reported rather than raised.
    Fault(VirtAddr),
    /// An underlying pool error.
    Pool(PoolError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Fault(va) => write!(f, "fault: {va} not mapped"),
            RuntimeError::Pool(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PoolError> for RuntimeError {
    fn from(e: PoolError) -> Self {
        RuntimeError::Pool(e)
    }
}

/// One mapping: a segment visible at a VA range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mapping {
    segment: SegmentId,
    len: u64,
}

/// A server's pool-mapping address space plus its access API.
#[derive(Debug)]
pub struct ServerRuntime {
    server: NodeId,
    next_va: u64,
    /// base VA → mapping; ranges never overlap.
    maps: BTreeMap<u64, Mapping>,
}

impl ServerRuntime {
    /// The runtime for `server`.
    pub fn new(server: NodeId) -> Self {
        ServerRuntime {
            server,
            next_va: VA_BASE,
            maps: BTreeMap::new(),
        }
    }

    /// The server this runtime manages.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// Allocate `len` bytes of pool memory and map it. Placement defaults
    /// to local-first, the policy that gives the LMP its speed.
    pub fn alloc_map(
        &mut self,
        pool: &mut LogicalPool,
        len: u64,
        placement: Option<Placement>,
    ) -> Result<VirtAddr, RuntimeError> {
        let seg = pool.alloc(
            len,
            placement.unwrap_or(Placement::LocalFirst(self.server)),
        )?;
        Ok(self.map(seg, len))
    }

    /// Map an existing segment (e.g. one shared by another server) at a
    /// fresh VA range. This is how two servers share one buffer: each maps
    /// the same segment into its own address space.
    pub fn map(&mut self, segment: SegmentId, len: u64) -> VirtAddr {
        let base = self.next_va;
        // Keep mappings frame-aligned like mmap.
        self.next_va += len.div_ceil(FRAME_BYTES) * FRAME_BYTES;
        self.maps.insert(base, Mapping { segment, len });
        VirtAddr(base)
    }

    /// Unmap a VA range, returning the segment (which keeps existing — the
    /// caller decides whether to free it from the pool).
    pub fn unmap(&mut self, va: VirtAddr) -> Result<SegmentId, RuntimeError> {
        match self.maps.remove(&va.0) {
            Some(m) => Ok(m.segment),
            None => Err(RuntimeError::Fault(va)),
        }
    }

    /// Translate a VA to its logical address, checking `len` stays within
    /// the mapping.
    pub fn resolve(&self, va: VirtAddr, len: u64) -> Result<LogicalAddr, RuntimeError> {
        let (base, m) = self
            .maps
            .range(..=va.0)
            .next_back()
            .ok_or(RuntimeError::Fault(va))?;
        let offset = va.0 - base;
        if offset + len > m.len {
            return Err(RuntimeError::Fault(va));
        }
        Ok(LogicalAddr::new(m.segment, offset))
    }

    /// Timed load of `len` bytes at `va`.
    pub fn load(
        &self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
        va: VirtAddr,
        len: u64,
    ) -> Result<PoolAccess, RuntimeError> {
        let addr = self.resolve(va, len)?;
        Ok(pool.access(fabric, now, self.server, addr, len, MemOp::Read)?)
    }

    /// Timed store of `len` bytes at `va`.
    pub fn store(
        &self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
        va: VirtAddr,
        len: u64,
    ) -> Result<PoolAccess, RuntimeError> {
        let addr = self.resolve(va, len)?;
        Ok(pool.access(fabric, now, self.server, addr, len, MemOp::Write)?)
    }

    /// Materialized write through the VA map.
    pub fn write_bytes(
        &self,
        pool: &mut LogicalPool,
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), RuntimeError> {
        let addr = self.resolve(va, data.len() as u64)?;
        Ok(pool.write_bytes(addr, data)?)
    }

    /// Materialized read through the VA map.
    pub fn read_bytes(
        &self,
        pool: &LogicalPool,
        va: VirtAddr,
        len: u64,
    ) -> Result<Vec<u8>, RuntimeError> {
        let addr = self.resolve(va, len)?;
        Ok(pool.read_bytes(addr, len)?)
    }

    /// Bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.maps.values().map(|m| m.len).sum()
    }
}

/// Periods for the two background tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// How often the locality balancer runs.
    pub balance_period: SimDuration,
    /// How often the shared-region sizing optimizer runs.
    pub sizing_period: SimDuration,
    /// Balancer tuning.
    pub balancer: BalancerConfig,
    /// Per-server private floors in frames (memory the sizing optimizer
    /// must leave private: OS, process state). When `None`, each server's
    /// floor is derived from its current budget (`capacity − shared`),
    /// which freezes the split; set explicit floors to let the optimizer
    /// grow shared regions — the §4.5 flexibility.
    pub private_floors: Option<Vec<u64>>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            balance_period: SimDuration::from_millis(10),
            sizing_period: SimDuration::from_millis(100),
            balancer: BalancerConfig::default(),
            private_floors: None,
        }
    }
}

/// The rack-wide runtime: per-server runtimes plus the background tasks.
#[derive(Debug)]
pub struct RackRuntime {
    config: RuntimeConfig,
    servers: Vec<ServerRuntime>,
    balancer: LocalityBalancer,
    demands: Vec<AppDemand>,
    next_balance: SimTime,
    next_sizing: SimTime,
    sizing_runs: Counter,
}

impl RackRuntime {
    /// Runtimes for every server of `pool`.
    pub fn new(pool: &LogicalPool, config: RuntimeConfig) -> Self {
        let servers = (0..pool.servers()).map(|s| ServerRuntime::new(NodeId(s))).collect();
        let balancer = LocalityBalancer::new(config.balancer.clone());
        RackRuntime {
            next_balance: SimTime::ZERO + config.balance_period,
            next_sizing: SimTime::ZERO + config.sizing_period,
            config,
            servers,
            balancer,
            demands: Vec::new(),
            sizing_runs: Counter::new(),
        }
    }

    /// A server's runtime.
    pub fn server(&mut self, id: NodeId) -> &mut ServerRuntime {
        &mut self.servers[id.0 as usize]
    }

    /// Declare an application demand that future sizing runs must honour.
    pub fn register_demand(&mut self, demand: AppDemand) {
        self.demands.push(demand);
    }

    /// Drive background tasks up to `now`. Returns whatever rounds ran.
    pub fn tick(
        &mut self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
    ) -> (Option<BalanceRound>, Option<SizingPlan>) {
        let mut round = None;
        if now >= self.next_balance {
            round = Some(self.balancer.run_round(pool, fabric, now));
            self.next_balance = now + self.config.balance_period;
        }
        let mut plan = None;
        if now >= self.next_sizing && !self.demands.is_empty() {
            let capacities: Vec<u64> =
                (0..pool.servers()).map(|s| pool.node(NodeId(s)).split().total()).collect();
            let floors: Vec<u64> = match &self.config.private_floors {
                Some(f) => {
                    // lmp-lint: allow(no-panic) — startup config validation; a
                    // floors vector of the wrong arity is a harness-
                    // configuration bug.
                    assert_eq!(f.len(), capacities.len(), "one floor per server");
                    f.clone()
                }
                None => (0..pool.servers())
                    .map(|s| {
                        let split = pool.node(NodeId(s)).split();
                        split.total() - split.shared_budget().max(split.shared_used())
                    })
                    .collect(),
            };
            let p = solve_sizing(&capacities, &floors, &self.demands);
            // Best-effort: a shrink blocked by live allocations is retried
            // on a later run once migration frees the frames.
            apply_best_effort(pool, &p);
            self.sizing_runs.inc();
            self.next_sizing = now + self.config.sizing_period;
            plan = Some(p);
        }
        (round, plan)
    }

    /// The balancing daemon (telemetry).
    pub fn balancer(&self) -> &LocalityBalancer {
        &self.balancer
    }

    /// Sizing runs executed.
    pub fn sizing_runs(&self) -> u64 {
        self.sizing_runs.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use lmp_fabric::LinkProfile;
    use lmp_mem::DramProfile;

    fn setup() -> (LogicalPool, Fabric) {
        let cfg = PoolConfig {
            servers: 3,
            capacity_per_server: 16 * FRAME_BYTES,
            shared_per_server: 12 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        };
        (LogicalPool::new(cfg), Fabric::new(LinkProfile::link1(), 3))
    }

    #[test]
    fn va_round_trip() {
        let (mut pool, _) = setup();
        let mut rt = ServerRuntime::new(NodeId(0));
        let va = rt.alloc_map(&mut pool, 3 * FRAME_BYTES, None).unwrap();
        rt.write_bytes(&mut pool, va, b"through the VA layer").unwrap();
        assert_eq!(
            rt.read_bytes(&pool, va, 20).unwrap(),
            b"through the VA layer"
        );
        assert_eq!(rt.mapped_bytes(), 3 * FRAME_BYTES);
    }

    #[test]
    fn va_interior_pointers_resolve() {
        let (mut pool, _) = setup();
        let mut rt = ServerRuntime::new(NodeId(0));
        let va = rt.alloc_map(&mut pool, 2 * FRAME_BYTES, None).unwrap();
        let inner = VirtAddr(va.0 + FRAME_BYTES + 17);
        rt.write_bytes(&mut pool, inner, b"interior").unwrap();
        assert_eq!(rt.read_bytes(&pool, inner, 8).unwrap(), b"interior");
        let addr = rt.resolve(inner, 8).unwrap();
        assert_eq!(addr.offset, FRAME_BYTES + 17);
    }

    #[test]
    fn faults_on_unmapped_and_overrun() {
        let (mut pool, _) = setup();
        let mut rt = ServerRuntime::new(NodeId(0));
        assert!(matches!(
            rt.read_bytes(&pool, VirtAddr(VA_BASE), 1),
            Err(RuntimeError::Fault(_))
        ));
        let va = rt.alloc_map(&mut pool, 100, None).unwrap();
        assert!(matches!(
            rt.read_bytes(&pool, VirtAddr(va.0 + 90), 20),
            Err(RuntimeError::Fault(_))
        ));
        // Below the first mapping also faults.
        assert!(matches!(
            rt.resolve(VirtAddr(VA_BASE - 8), 1),
            Err(RuntimeError::Fault(_))
        ));
    }

    #[test]
    fn mappings_do_not_overlap() {
        let (mut pool, _) = setup();
        let mut rt = ServerRuntime::new(NodeId(0));
        let a = rt.alloc_map(&mut pool, FRAME_BYTES + 1, None).unwrap();
        let b = rt.alloc_map(&mut pool, FRAME_BYTES, None).unwrap();
        assert!(b.0 >= a.0 + 2 * FRAME_BYTES, "frame-aligned, disjoint");
    }

    #[test]
    fn shared_mapping_sees_other_servers_writes() {
        let (mut pool, _) = setup();
        let mut rt0 = ServerRuntime::new(NodeId(0));
        let mut rt1 = ServerRuntime::new(NodeId(1));
        let va0 = rt0.alloc_map(&mut pool, FRAME_BYTES, None).unwrap();
        let seg = rt0.resolve(va0, 1).unwrap().segment;
        let va1 = rt1.map(seg, FRAME_BYTES);
        rt0.write_bytes(&mut pool, va0, b"shared!").unwrap();
        assert_eq!(rt1.read_bytes(&pool, va1, 7).unwrap(), b"shared!");
    }

    #[test]
    fn unmap_keeps_segment_alive() {
        let (mut pool, _) = setup();
        let mut rt = ServerRuntime::new(NodeId(0));
        let va = rt.alloc_map(&mut pool, FRAME_BYTES, None).unwrap();
        let seg = rt.unmap(va).unwrap();
        assert!(pool.segment_len(seg).is_some(), "segment still allocated");
        assert!(matches!(
            rt.read_bytes(&pool, va, 1),
            Err(RuntimeError::Fault(_))
        ));
        pool.free(seg).unwrap();
    }

    #[test]
    fn background_tasks_fire_on_schedule() {
        let (mut pool, mut fabric) = setup();
        let mut rack = RackRuntime::new(&pool, RuntimeConfig::default());
        rack.register_demand(AppDemand {
            server: NodeId(0),
            bytes: 4 * FRAME_BYTES,
            priority: 1,
        });
        // Before the periods elapse: nothing runs.
        let (r, p) = rack.tick(&mut pool, &mut fabric, SimTime::from_nanos(1));
        assert!(r.is_none() && p.is_none());
        // At 10ms the balancer runs; at 100ms sizing runs too.
        let (r, _) = rack.tick(&mut pool, &mut fabric, SimTime::ZERO + SimDuration::from_millis(10));
        assert!(r.is_some());
        let (_, p) = rack.tick(&mut pool, &mut fabric, SimTime::ZERO + SimDuration::from_millis(100));
        assert!(p.is_some());
        assert_eq!(rack.sizing_runs(), 1);
    }

    #[test]
    fn runtime_load_times_match_pool_access() {
        let (mut pool, mut fabric) = setup();
        let mut rt = ServerRuntime::new(NodeId(0));
        let va = rt.alloc_map(&mut pool, FRAME_BYTES, None).unwrap();
        let a = rt.load(&mut pool, &mut fabric, SimTime::ZERO, va, 64).unwrap();
        assert_eq!(a.remote_bytes, 0);
        assert!(a.complete.as_nanos() < 200);
    }
}
