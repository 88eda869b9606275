//! Runnable clusters.
//!
//! A [`Cluster`] instantiates one of the three §4.1 deployments behind a
//! single interface: allocate a vector in disaggregated memory, scan it
//! from a server with N cores, repeat. The benchmark harness compares
//! architectures by running the identical workload on each.

use crate::config::{ClusterConfig, PoolArch};
use lmp_compute::scan::{self, LogicalScan, Repeat, ScanBackend, ScanOp, ScanRun, Served};
use lmp_compute::{DistVector, ScanOutcome, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, NodeId};
use lmp_mem::{DramChannel, FrameId, FRAME_BYTES};
use lmp_physical::{AdmissionPolicy, CachePath, PhysicalPool, PoolCache};
use lmp_sim::prelude::*;

/// Why a workload cannot run on a deployment (the Figure 5 outcome).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The deployment's disaggregated memory cannot hold the working set.
    Infeasible {
        /// Bytes requested.
        requested: u64,
        /// Bytes available in the pool.
        available: u64,
    },
    /// An underlying pool error.
    Pool(PoolError),
    /// The handle does not belong to this cluster's backend architecture,
    /// or a backend invariant broke mid-operation.
    Backend(&'static str),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Infeasible {
                requested,
                available,
            } => write!(
                f,
                "workload infeasible: needs {} but the pool holds {}",
                fmt_bytes(*requested),
                fmt_bytes(*available)
            ),
            ClusterError::Pool(e) => write!(f, "{e}"),
            ClusterError::Backend(what) => write!(f, "cluster backend error: {what}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<PoolError> for ClusterError {
    fn from(e: PoolError) -> Self {
        ClusterError::Pool(e)
    }
}

/// A vector allocated in a cluster's disaggregated memory.
#[derive(Debug)]
pub enum VectorHandle {
    /// Logical pool: striped segments.
    Logical(DistVector),
    /// Physical pool: a run of pool frames.
    Physical {
        /// The pool frames backing the vector, in order.
        frames: Vec<FrameId>,
        /// Vector length in bytes.
        len: u64,
    },
}

impl VectorHandle {
    /// Vector length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            VectorHandle::Logical(v) => v.len(),
            VectorHandle::Physical { len, .. } => *len,
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// Both pools are boxed: their inline sizes differ by more than clippy's
// large-enum-variant bound.
enum Backend {
    Logical(Box<LogicalPool>),
    Physical {
        pool: Box<PhysicalPool>,
        caches: Option<Vec<PoolCache>>,
    },
}

/// One of the paper's deployments, ready to run workloads.
// Manual impl below: the backend holds full memory images, which are not
// useful (or cheap) to format.
pub struct Cluster {
    config: ClusterConfig,
    fabric: Fabric,
    backend: Backend,
    /// Fabric id of the pool appliance (physical architectures only).
    pool_node: Option<NodeId>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("arch", &self.config.arch)
            .field("pool_node", &self.pool_node)
            .finish_non_exhaustive()
    }
}

impl Cluster {
    /// Build a cluster for `config`.
    pub fn new(config: ClusterConfig) -> Self {
        match config.arch {
            PoolArch::Logical => {
                let fabric = Fabric::new(config.link.clone(), config.servers);
                let pool = LogicalPool::new(PoolConfig {
                    servers: config.servers,
                    capacity_per_server: config.local_per_server,
                    shared_per_server: config.local_per_server,
                    dram: config.dram.clone(),
                    tlb_capacity: config.tlb_capacity,
                });
                Cluster {
                    config,
                    fabric,
                    backend: Backend::Logical(Box::new(pool)),
                    pool_node: None,
                }
            }
            PoolArch::PhysicalCache | PoolArch::PhysicalNoCache => {
                // The pool attaches as one extra fabric node.
                let pool_node = NodeId(config.servers);
                let fabric = Fabric::new(config.link.clone(), config.servers + 1);
                let pool =
                    PhysicalPool::new(pool_node, config.pool_capacity, config.dram.clone());
                let caches = if config.arch == PoolArch::PhysicalCache {
                    Some(
                        (0..config.servers)
                            .map(|s| {
                                PoolCache::with_policy(
                                    NodeId(s),
                                    config.local_per_server,
                                    config.dram.clone(),
                                    config.cache_policy,
                                )
                            })
                            .collect(),
                    )
                } else {
                    None
                };
                Cluster {
                    config,
                    fabric,
                    backend: Backend::Physical {
                        pool: Box::new(pool),
                        caches,
                    },
                    pool_node: Some(pool_node),
                }
            }
        }
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The fabric (telemetry).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The logical pool, when this cluster is a Logical deployment.
    pub fn logical_pool(&mut self) -> Option<&mut LogicalPool> {
        match &mut self.backend {
            Backend::Logical(p) => Some(p.as_mut()),
            _ => None,
        }
    }

    /// Bytes of disaggregated memory still free.
    pub fn pool_available(&self) -> u64 {
        match &self.backend {
            Backend::Logical(p) => (0..self.config.servers)
                .map(|s| p.free_shared_frames(NodeId(s)) * FRAME_BYTES)
                .sum(),
            Backend::Physical { pool, .. } => pool.available_bytes(),
        }
    }

    /// Allocate a `len`-byte vector in disaggregated memory, preferring
    /// locality to `server` where the architecture allows it.
    ///
    /// Returns [`ClusterError::Infeasible`] when the pool cannot hold it —
    /// for the physical architectures this is a hard wall (Figure 5);
    /// a logical pool can instead grow shared regions (§4.5).
    pub fn alloc_vector(
        &mut self,
        len: u64,
        server: NodeId,
    ) -> Result<VectorHandle, ClusterError> {
        let available = self.pool_available();
        if len > available {
            return Err(ClusterError::Infeasible {
                requested: len,
                available,
            });
        }
        match &mut self.backend {
            Backend::Logical(pool) => {
                let v = DistVector::place_local_first(pool, len, server)
                    .map_err(ClusterError::Pool)?;
                Ok(VectorHandle::Logical(v))
            }
            Backend::Physical { pool, .. } => {
                let frames = pool
                    .alloc_frames(len.div_ceil(FRAME_BYTES))
                    .map_err(|_| ClusterError::Infeasible {
                        requested: len,
                        available,
                    })?;
                Ok(VectorHandle::Physical { frames, len })
            }
        }
    }

    /// Free a vector.
    pub fn free_vector(&mut self, handle: VectorHandle) -> Result<(), ClusterError> {
        match (&mut self.backend, handle) {
            (Backend::Logical(pool), VectorHandle::Logical(v)) => {
                v.free(pool)?;
                Ok(())
            }
            (Backend::Physical { pool, caches }, VectorHandle::Physical { frames, .. }) => {
                pool.free_frames(&frames)
                    .map_err(|_| ClusterError::Backend("vector frame was not allocated"))?;
                // Other live vectors keep their cached frames.
                for c in caches.iter_mut().flatten() {
                    c.evict(&frames);
                }
                Ok(())
            }
            _ => Err(ClusterError::Backend("handle from another cluster architecture")),
        }
    }

    /// Scan the whole vector from `server` with `params.cores` parallel
    /// streams — the §4.1 aggregation microbenchmark's access pattern.
    /// An unknown `server` or invalid `params` fail before anything is
    /// charged.
    pub fn scan_vector(
        &mut self,
        start: SimTime,
        server: NodeId,
        handle: &VectorHandle,
        params: ScanParams,
    ) -> Result<ScanOutcome, ClusterError> {
        Ok(self
            .scan_using(start, server, handle, params, Engine::FastForward)?
            .outcome)
    }

    /// Run `engine` (the fast-forwarding [`scan::run`], or in tests the
    /// stepping reference) over this deployment's backend.
    fn scan_using(
        &mut self,
        start: SimTime,
        server: NodeId,
        handle: &VectorHandle,
        params: ScanParams,
        engine: Engine,
    ) -> Result<ScanRun, ClusterError> {
        match (&mut self.backend, handle) {
            (Backend::Logical(pool), VectorHandle::Logical(v)) => {
                let ranges: Vec<(SegmentId, u64, u64)> =
                    v.stripes.iter().map(|(_, s, l)| (*s, 0, *l)).collect();
                let mut scan = LogicalScan::new(pool, &mut self.fabric, server, &ranges);
                Ok(engine.run(&mut scan, start, params)?)
            }
            (Backend::Physical { pool, caches }, VectorHandle::Physical { frames, len }) => {
                if self.pool_node.is_none() {
                    return Err(ClusterError::Backend("physical cluster has no pool node"));
                }
                let mut scan = PhysicalScan {
                    pool,
                    cache: caches
                        .as_mut()
                        .and_then(|c| c.get_mut(server.0 as usize)),
                    fabric: &mut self.fabric,
                    server,
                    servers: self.config.servers,
                    frames,
                    len: *len,
                    admitted: Vec::new(),
                };
                Ok(engine.run(&mut scan, start, params)?)
            }
            _ => Err(ClusterError::Backend("handle from another cluster architecture")),
        }
    }

    /// Run the paper's aggregation microbenchmark: `reps` sequential scans
    /// of a `size`-byte vector from `server`, reporting per-rep and average
    /// bandwidth.
    pub fn run_aggregation(
        &mut self,
        size: u64,
        server: NodeId,
        reps: u32,
    ) -> Result<AggregationResult, ClusterError> {
        let handle = self.alloc_vector(size, server)?;
        let params = ScanParams::with_cores(self.config.cores_per_server);
        let mut now = SimTime::ZERO;
        let mut per_rep = Vec::with_capacity(reps as usize);
        for _ in 0..reps {
            let rep_start = now;
            let out = self.scan_vector(now, server, &handle, params)?;
            now = out.complete;
            per_rep.push(
                Bandwidth::measured(size, now.duration_since(rep_start)).as_gbps(),
            );
        }
        self.free_vector(handle)?;
        let avg = per_rep.iter().sum::<f64>() / per_rep.len() as f64;
        Ok(AggregationResult {
            arch: self.config.arch,
            size,
            avg_bandwidth_gbps: avg,
            per_rep_gbps: per_rep,
        })
    }
}

/// Result of the aggregation microbenchmark on one deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationResult {
    /// Architecture measured.
    pub arch: PoolArch,
    /// Vector size in bytes.
    pub size: u64,
    /// Average bandwidth over all repetitions (the paper's reported
    /// metric).
    pub avg_bandwidth_gbps: f64,
    /// Per-repetition bandwidth.
    pub per_rep_gbps: Vec<f64>,
}

/// Which scan loop [`Cluster::scan`] runs: the engine, or (in tests) the
/// stepping reference it is checked against.
#[derive(Clone, Copy)]
enum Engine {
    FastForward,
    #[cfg(test)]
    Reference,
}

impl Engine {
    fn run<B: ScanBackend>(self, b: &mut B, start: SimTime, params: ScanParams) -> Result<ScanRun, PoolError> {
        match self {
            Engine::FastForward => scan::run(b, start, params),
            #[cfg(test)]
            Engine::Reference => scan::reference::run(b, start, params).map(|outcome| ScanRun {
                outcome,
                ops: 0,
                fast_forwarded: 0,
            }),
        }
    }
}

/// The physical pool as a scan backend: ops are issued one at a time in
/// core order, clamped to frames, through the server's cache when the
/// deployment has one.
struct PhysicalScan<'a> {
    pool: &'a mut PhysicalPool,
    /// The requester's cache, when the deployment has one.
    cache: Option<&'a mut PoolCache>,
    fabric: &'a mut Fabric,
    server: NodeId,
    servers: u32,
    frames: &'a [FrameId],
    len: u64,
    /// Frames a repeated round admits before they are noted.
    admitted: Vec<FrameId>,
}

/// [`Served::path`] codes: the uncached read, then each [`CachePath`].
const PATHS: [Option<CachePath>; 5] = [
    None,
    Some(CachePath::Hit),
    Some(CachePath::Admit),
    Some(CachePath::Bypass),
    Some(CachePath::Evict),
];

fn path_code(path: Option<CachePath>) -> u8 {
    PATHS.iter().position(|p| *p == path).unwrap_or(0) as u8
}

impl PhysicalScan<'_> {
    fn frame(&self, pos: u64) -> Result<FrameId, PoolError> {
        self.frames
            .get((pos / FRAME_BYTES) as usize)
            .copied()
            .ok_or(PoolError::Internal("scan position beyond vector end"))
    }
}

impl ScanBackend for PhysicalScan<'_> {
    const WAVES: bool = false;

    fn stream_len(&self) -> u64 {
        self.len
    }

    fn check(&self) -> Result<(), PoolError> {
        // Also keeps the requester's cache and fabric port in range.
        if self.server.0 < self.servers {
            Ok(())
        } else {
            Err(PoolError::InvalidRequest("unknown server"))
        }
    }

    fn op_at(&self, pos: u64, want: u64) -> Option<(u64, u64)> {
        // Clamp to frame boundaries so cache accesses are per frame.
        (pos < self.len).then(|| (want.min(FRAME_BYTES - pos % FRAME_BYTES), 0))
    }

    fn issue(&mut self, now: SimTime, ops: &[ScanOp], served: &mut Vec<Served>) -> Result<SimTime, PoolError> {
        served.clear();
        for op in ops {
            let frame = self.frame(op.pos)?;
            served.push(match self.cache.as_deref_mut() {
                Some(cache) => {
                    let path = cache.path(frame);
                    let a = cache.access(self.fabric, self.pool, now, frame, op.len);
                    Served {
                        complete: a.complete,
                        local_bytes: if a.hit { op.len } else { 0 },
                        remote_bytes: if a.hit { 0 } else { op.len },
                        path: path_code(Some(path)),
                    }
                }
                None => Served {
                    complete: self.pool.read(self.fabric, now, self.server, op.len, Some(frame)).complete,
                    local_bytes: 0,
                    remote_bytes: op.len,
                    path: path_code(None),
                },
            });
        }
        Ok(now)
    }

    fn fabric(&self) -> &Fabric {
        self.fabric
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        self.fabric
    }

    fn drams(&self) -> usize {
        1 + usize::from(self.cache.is_some())
    }

    fn dram(&self, i: usize) -> &DramChannel {
        match (i, self.cache.as_deref()) {
            (1, Some(cache)) => cache.local_dram(),
            _ => self.pool.memory().dram(),
        }
    }

    fn dram_mut(&mut self, i: usize) -> &mut DramChannel {
        match (i, self.cache.as_deref_mut()) {
            (1, Some(cache)) => cache.local_dram_mut(),
            _ => self.pool.memory_mut().dram_mut(),
        }
    }

    fn ledger(&self, out: &mut Vec<u64>) {
        let node = self.pool.memory();
        out.extend([node.local_access_count(), node.remote_access_count()]);
    }

    fn finish(&mut self, delta: &[u64], rounds: u64) -> Result<(), PoolError> {
        if let [local, remote] = delta {
            self.pool
                .memory_mut()
                .add_runs(local.saturating_mul(rounds), remote.saturating_mul(rounds));
        }
        Ok(())
    }

    fn same_paths(&mut self, round: &Repeat<'_>) -> bool {
        let Some(cache) = self.cache.as_deref() else {
            return true;
        };
        // Residency as the round would find it: frames admitted earlier in
        // the same round are resident, and count against capacity.
        self.admitted.clear();
        for (op, s) in round.ops.iter().zip(round.served) {
            let Ok(frame) = self.frame(op.pos) else {
                return false;
            };
            let path = if cache.is_resident(frame) || self.admitted.contains(&frame) {
                CachePath::Hit
            } else if cache.resident_frames() + (self.admitted.len() as u64) < cache.capacity_frames() {
                self.admitted.push(frame);
                CachePath::Admit
            } else if cache.policy() == AdmissionPolicy::PinUntilFull {
                CachePath::Bypass
            } else {
                // An eviction's victim depends on every stamp: not repeated.
                return false;
            };
            if path_code(Some(path)) != s.path {
                return false;
            }
        }
        true
    }

    fn repeat(&mut self, round: &Repeat<'_>) -> Result<(), PoolError> {
        for (op, s) in round.ops.iter().zip(round.served) {
            let frame = self.frame(op.pos)?;
            let path = PATHS.get(s.path as usize).copied().flatten();
            if let (Some(cache), Some(path)) = (self.cache.as_deref_mut(), path) {
                cache.note(frame, path);
            }
            if path != Some(CachePath::Hit) {
                // The pool's DRAM served the frame (the whole frame on an
                // admitting miss): one hotness sample, as `read` records.
                self.pool
                    .memory_mut()
                    .hotness_mut()
                    .record(frame, self.server.0, 1);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::LinkProfile;
    use lmp_sim::units::GIB;
    use proptest::prelude::*;

    fn paper(arch: PoolArch) -> Cluster {
        Cluster::new(ClusterConfig::paper(arch, LinkProfile::link1()))
    }

    /// Shrunk configs (frames instead of GBs) for fast tests.
    fn small(arch: PoolArch) -> Cluster {
        let mut cfg = ClusterConfig::paper(arch, LinkProfile::link1());
        cfg.local_per_server = match arch {
            PoolArch::Logical => 24 * FRAME_BYTES,
            _ => 8 * FRAME_BYTES,
        };
        cfg.pool_capacity = match arch {
            PoolArch::Logical => 0,
            _ => 64 * FRAME_BYTES,
        };
        Cluster::new(cfg)
    }

    #[test]
    fn pool_capacity_by_architecture() {
        assert_eq!(paper(PoolArch::Logical).pool_available(), 96 * GIB);
        assert_eq!(paper(PoolArch::PhysicalCache).pool_available(), 64 * GIB);
        assert_eq!(paper(PoolArch::PhysicalNoCache).pool_available(), 64 * GIB);
    }

    #[test]
    fn oversized_vector_infeasible_on_physical_feasible_on_logical() {
        // The Figure 5 scenario, shrunk: 96 "GB" of frames.
        let mut logical = small(PoolArch::Logical);
        let mut physical = small(PoolArch::PhysicalNoCache);
        let size = 96 * FRAME_BYTES;
        assert!(logical.alloc_vector(size, NodeId(0)).is_ok());
        let err = physical.alloc_vector(size, NodeId(0)).unwrap_err();
        assert!(matches!(err, ClusterError::Infeasible { .. }));
    }

    #[test]
    fn scan_surfaces_crash_as_recoverable_error() {
        let mut c = small(PoolArch::Logical);
        // 40 frames against a 24-frame local share forces striping across
        // servers.
        let h = c.alloc_vector(40 * FRAME_BYTES, NodeId(0)).unwrap();
        let victim = match &h {
            VectorHandle::Logical(v) => v
                .stripes
                .iter()
                .map(|(n, _, _)| *n)
                .find(|n| *n != NodeId(0))
                .expect("vector spans servers"),
            _ => unreachable!(),
        };
        c.logical_pool().unwrap().crash_server(victim);
        // The scan fails with a recoverable error, never a panic.
        let err = c
            .scan_vector(SimTime::ZERO, NodeId(0), &h, ScanParams::default())
            .unwrap_err();
        assert!(matches!(err, ClusterError::Pool(PoolError::SegmentLost(_))));
    }

    #[test]
    fn small_vector_local_on_logical() {
        let mut c = small(PoolArch::Logical);
        let h = c.alloc_vector(8 * FRAME_BYTES, NodeId(0)).unwrap();
        let out = c
            .scan_vector(SimTime::ZERO, NodeId(0), &h, ScanParams { cores: 4, chunk: FRAME_BYTES, ..ScanParams::default() })
            .unwrap();
        assert_eq!(out.remote_bytes, 0, "8 frames fit in server 0's share");
        c.free_vector(h).unwrap();
        assert_eq!(c.pool_available(), 96 * FRAME_BYTES);
    }

    #[test]
    fn nocache_scan_is_all_remote() {
        let mut c = small(PoolArch::PhysicalNoCache);
        let h = c.alloc_vector(8 * FRAME_BYTES, NodeId(0)).unwrap();
        let out = c
            .scan_vector(SimTime::ZERO, NodeId(0), &h, ScanParams { cores: 4, chunk: FRAME_BYTES, ..ScanParams::default() })
            .unwrap();
        assert_eq!(out.local_bytes, 0);
        assert_eq!(out.remote_bytes, 8 * FRAME_BYTES);
    }

    #[test]
    fn cache_scan_warms_up() {
        let mut c = small(PoolArch::PhysicalCache);
        let h = c.alloc_vector(4 * FRAME_BYTES, NodeId(0)).unwrap();
        let cold = c
            .scan_vector(SimTime::ZERO, NodeId(0), &h, ScanParams { cores: 2, chunk: FRAME_BYTES, ..ScanParams::default() })
            .unwrap();
        assert_eq!(cold.remote_bytes, 4 * FRAME_BYTES, "cold pass misses");
        let warm = c
            .scan_vector(cold.complete, NodeId(0), &h, ScanParams { cores: 2, chunk: FRAME_BYTES, ..ScanParams::default() })
            .unwrap();
        assert_eq!(warm.local_bytes, 4 * FRAME_BYTES, "warm pass hits");
    }

    /// Fabric reads, pool DRAM accesses, and per-cache (hits, misses).
    fn physical_counters(c: &Cluster) -> (u64, u64, Vec<(u64, u64)>) {
        let Backend::Physical { pool, caches } = &c.backend else {
            unreachable!("physical cluster")
        };
        let caches = caches
            .iter()
            .flatten()
            .map(|cache| (cache.hit_count(), cache.miss_count()))
            .collect();
        (
            c.fabric().read_count(),
            pool.memory().dram().access_count(),
            caches,
        )
    }

    #[test]
    fn invalid_scan_params_are_typed_errors_that_charge_nothing() {
        let zero_cores = ScanParams {
            cores: 0,
            ..ScanParams::default()
        };
        let zero_chunk = ScanParams {
            chunk: 0,
            ..ScanParams::default()
        };
        let mut logical = small(PoolArch::Logical);
        let h = logical.alloc_vector(2 * FRAME_BYTES, NodeId(0)).unwrap();
        for (params, why) in [
            (zero_cores, "scan needs at least one core"),
            (zero_chunk, "scan needs a nonzero chunk size"),
        ] {
            let err = logical.scan_vector(SimTime::ZERO, NodeId(0), &h, params);
            assert_eq!(err, Err(ClusterError::Pool(PoolError::InvalidRequest(why))));
        }
        for arch in [PoolArch::PhysicalNoCache, PoolArch::PhysicalCache] {
            let mut c = small(arch);
            let h = c.alloc_vector(2 * FRAME_BYTES, NodeId(0)).unwrap();
            let before = physical_counters(&c);
            for (params, why) in [
                (zero_cores, "scan needs at least one core"),
                (zero_chunk, "scan needs a nonzero chunk size"),
            ] {
                let err = c.scan_vector(SimTime::ZERO, NodeId(0), &h, params);
                assert_eq!(
                    err,
                    Err(ClusterError::Pool(PoolError::InvalidRequest(why))),
                    "{arch:?}"
                );
                assert_eq!(
                    physical_counters(&c),
                    before,
                    "{arch:?} charged a failed scan"
                );
            }
        }
    }

    #[test]
    fn freeing_one_vector_keeps_another_vectors_cached_frames() {
        let mut c = small(PoolArch::PhysicalCache);
        let params = ScanParams {
            cores: 2,
            chunk: FRAME_BYTES,
            ..ScanParams::default()
        };
        let a = c.alloc_vector(2 * FRAME_BYTES, NodeId(0)).unwrap();
        let b = c.alloc_vector(2 * FRAME_BYTES, NodeId(0)).unwrap();
        let cold = c.scan_vector(SimTime::ZERO, NodeId(0), &b, params).unwrap();
        let warm = c.scan_vector(cold.complete, NodeId(0), &b, params).unwrap();
        assert_eq!((warm.local_bytes, warm.remote_bytes), (2 * FRAME_BYTES, 0));
        c.free_vector(a).unwrap();
        let after = c.scan_vector(warm.complete, NodeId(0), &b, params).unwrap();
        assert_eq!(
            (after.local_bytes, after.remote_bytes),
            (2 * FRAME_BYTES, 0)
        );
        let (_, _, caches) = physical_counters(&c);
        assert_eq!(caches[0], (4, 2), "one cold scan of B, then two warm ones");
        // Freeing B itself drops its frames from the cache.
        c.free_vector(b).unwrap();
        let Backend::Physical {
            caches: Some(caches),
            ..
        } = &c.backend
        else {
            unreachable!("cache cluster")
        };
        assert!(caches.iter().all(|cache| cache.resident_frames() == 0));
    }

    /// `(holder, frame)` for every frame backing `h`, in vector order
    /// (the pool box is holder 0 on the physical architectures).
    fn frame_ids(c: &mut Cluster, h: &VectorHandle) -> Vec<(NodeId, FrameId)> {
        match h {
            VectorHandle::Physical { frames, .. } => {
                frames.iter().map(|f| (NodeId(0), *f)).collect()
            }
            VectorHandle::Logical(v) => {
                let pool = &*c.logical_pool().unwrap();
                v.stripes
                    .iter()
                    .flat_map(|(n, seg, _)| {
                        let frames = pool.local_map(*n).frames_of(*seg);
                        frames.iter().map(move |f| (*n, *f))
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn freed_vector_frames_are_reallocated_on_every_architecture() {
        let params = ScanParams {
            cores: 2,
            chunk: FRAME_BYTES,
            ..ScanParams::default()
        };
        for arch in [PoolArch::Logical, PoolArch::PhysicalCache, PoolArch::PhysicalNoCache] {
            let mut c = small(arch);
            let available = c.pool_available();
            // 30 frames span two servers' 24-frame shares on the logical
            // pool; the scan leaves frames in the physical caches.
            let h = c.alloc_vector(30 * FRAME_BYTES, NodeId(0)).unwrap();
            let frames = frame_ids(&mut c, &h);
            assert_eq!(frames.len(), 30, "{arch:?}");
            c.scan_vector(SimTime::ZERO, NodeId(0), &h, params).unwrap();
            c.free_vector(h).unwrap();
            assert_eq!(c.pool_available(), available, "{arch:?}");
            if let Backend::Physical {
                caches: Some(caches),
                ..
            } = &c.backend
            {
                assert!(caches.iter().all(|cache| cache.resident_frames() == 0));
            }
            let again = c.alloc_vector(30 * FRAME_BYTES, NodeId(0)).unwrap();
            assert_eq!(frame_ids(&mut c, &again), frames, "{arch:?}");
        }
    }

    #[test]
    fn aggregation_result_shape() {
        let mut c = small(PoolArch::Logical);
        let r = c.run_aggregation(8 * FRAME_BYTES, NodeId(0), 3).unwrap();
        assert_eq!(r.per_rep_gbps.len(), 3);
        assert!(r.avg_bandwidth_gbps > 0.0);
        assert_eq!(r.arch, PoolArch::Logical);
    }

    #[test]
    fn paper_scale_8gb_logical_vs_nocache() {
        // The Figure 2 headline at full scale: 8 GB vector, Link1.
        let mut logical = paper(PoolArch::Logical);
        let mut nocache = paper(PoolArch::PhysicalNoCache);
        let size = 8 * GIB;
        let l = logical.run_aggregation(size, NodeId(0), 2).unwrap();
        let n = nocache.run_aggregation(size, NodeId(0), 2).unwrap();
        let ratio = l.avg_bandwidth_gbps / n.avg_bandwidth_gbps;
        assert!(
            ratio > 3.5 && ratio < 5.5,
            "expected ~4.7x advantage, got {ratio:.2} ({:.1} vs {:.1})",
            l.avg_bandwidth_gbps,
            n.avg_bandwidth_gbps
        );
    }

    #[test]
    fn unknown_server_is_a_typed_error_that_charges_nothing() {
        for arch in [PoolArch::Logical, PoolArch::PhysicalCache, PoolArch::PhysicalNoCache] {
            let mut c = small(arch);
            let h = c.alloc_vector(2 * FRAME_BYTES, NodeId(0)).unwrap();
            let servers = c.config().servers;
            for server in [servers, servers + 5] {
                let before = match arch {
                    PoolArch::Logical => None,
                    _ => Some(physical_counters(&c)),
                };
                let err = c.scan_vector(SimTime::ZERO, NodeId(server), &h, ScanParams::default());
                assert_eq!(
                    err,
                    Err(ClusterError::Pool(PoolError::InvalidRequest("unknown server"))),
                    "{arch:?} server {server}"
                );
                if let Some(before) = before {
                    assert_eq!(physical_counters(&c), before, "{arch:?} charged a refused scan");
                }
                assert_eq!(c.fabric().read_count(), 0, "{arch:?}");
            }
        }
    }

    /// Every architecture on both links, at the paper's 8 GB point, skips
    /// nearly the whole scan: a change that breaks the round comparison
    /// fails here instead of silently stepping every op.
    #[test]
    fn paper_scans_are_mostly_fast_forwarded() {
        for link in [LinkProfile::link0(), LinkProfile::link1()] {
            for arch in [PoolArch::Logical, PoolArch::PhysicalCache, PoolArch::PhysicalNoCache] {
                let mut c = Cluster::new(ClusterConfig::paper(arch, link.clone()));
                let h = c.alloc_vector(8 * GIB, NodeId(0)).unwrap();
                let params = ScanParams::with_cores(c.config().cores_per_server);
                let run = c
                    .scan_using(SimTime::ZERO, NodeId(0), &h, params, Engine::FastForward)
                    .unwrap();
                let share = run.fast_forwarded as f64 / run.ops as f64;
                assert!(share >= 0.9, "{arch:?} {}: {share:.3} of {} ops", link.name, run.ops);
            }
        }
    }

    /// Everything a physical deployment's scan leaves behind that a later
    /// access or a report can see, at `now`.
    fn physical_state(c: &mut Cluster, now: SimTime) -> String {
        let mut layout = Vec::new();
        c.fabric.layout(now, &mut layout);
        let f = &c.fabric;
        let links: Vec<_> = (0..f.node_count() * 2)
            .map(|i| {
                let l = f.link(lmp_fabric::LinkId(i as usize));
                (l.bytes_sent(), l.transfer_count(), format!("{:?}", l.latency_histogram()))
            })
            .collect();
        let fabric = format!(
            "{} {} {:?} {links:?}",
            f.read_count(),
            f.write_count(),
            f.read_latency_histogram()
        );
        let Backend::Physical { pool, caches } = &mut c.backend else {
            unreachable!("physical cluster")
        };
        let dram = |d: &DramChannel, layout: &mut Vec<u64>| {
            d.layout(now, layout);
            format!(
                "{} {} {:?} {:?}",
                d.access_count(),
                d.bytes_accessed(),
                d.latency_histogram(),
                d.estimate().value().map(f64::to_bits)
            )
        };
        let node = pool.memory();
        let mut out = format!(
            "{fabric} | {} {} {:?} {}",
            node.local_access_count(),
            node.remote_access_count(),
            node.hotness().top_k(usize::MAX),
            dram(node.dram(), &mut layout)
        );
        for cache in caches.iter().flatten() {
            let resident: Vec<u64> = (0..64)
                .filter(|&f| cache.is_resident(FrameId(f)))
                .collect();
            out += &format!(
                " | {} {} {} {} {resident:?} {}",
                cache.hit_count(),
                cache.miss_count(),
                cache.eviction_count(),
                cache.upfront_copy_bytes(),
                dram(cache.local_dram(), &mut layout)
            );
        }
        format!("{out} | {layout:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        /// The fast-forwarding engine leaves a physical deployment exactly
        /// as stepping every op does: outcomes, every counter, histogram,
        /// estimate and busy schedule, hotness, and cache residency.
        #[test]
        fn physical_fast_forward_matches_stepping(
            cached in any::<bool>(),
            link0 in any::<bool>(),
            lru in any::<bool>(),
            cache_frames in 1u64..40,
            frames in 1u64..40,
            tail in 0u64..FRAME_BYTES,
            cores in 1u32..29,
            chunk_pick in 0usize..5,
            reps in 1usize..4,
            warm in any::<bool>(),
        ) {
            let chunk = [FRAME_BYTES, FRAME_BYTES / 2, 3 * FRAME_BYTES / 2, 1_000_000, 2 * FRAME_BYTES + 12_345][chunk_pick];
            let params = ScanParams { cores, chunk, ..ScanParams::default() };
            let mut cfg = ClusterConfig::paper(
                if cached { PoolArch::PhysicalCache } else { PoolArch::PhysicalNoCache },
                if link0 { LinkProfile::link0() } else { LinkProfile::link1() },
            );
            cfg.local_per_server = cache_frames * FRAME_BYTES;
            cfg.pool_capacity = 64 * FRAME_BYTES;
            cfg.cache_policy = if lru { AdmissionPolicy::Lru } else { AdmissionPolicy::PinUntilFull };
            let len = frames * FRAME_BYTES - tail.min(FRAME_BYTES - 1);
            let mut got = Vec::new();
            for engine in [Engine::FastForward, Engine::Reference] {
                let mut c = Cluster::new(cfg.clone());
                let other = c.alloc_vector(3 * FRAME_BYTES, NodeId(0)).unwrap();
                let h = c.alloc_vector(len, NodeId(0)).unwrap();
                let mut now = SimTime::ZERO;
                if warm {
                    // Background traffic: another server's scan first.
                    now = c.scan_using(now, NodeId(1), &other, ScanParams::with_cores(3), engine).unwrap().outcome.complete;
                }
                let mut outcomes = Vec::new();
                for _ in 0..reps {
                    let out = c.scan_using(now, NodeId(0), &h, params, engine).unwrap().outcome;
                    now = out.complete;
                    outcomes.push(out);
                }
                let state = physical_state(&mut c, now);
                got.push((outcomes, state));
            }
            prop_assert_eq!(&got[0], &got[1]);
        }
    }
}
