//! Runnable clusters.
//!
//! A [`Cluster`] instantiates one of the three §4.1 deployments behind a
//! single interface: allocate a vector in disaggregated memory, scan it
//! from a server with N cores, repeat. The benchmark harness compares
//! architectures by running the identical workload on each.

use crate::config::{ClusterConfig, PoolArch};
use lmp_compute::scan::{self, Jump, LogicalScan, ScanBackend, ScanOp, ScanRun, Served};
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
        if let (Backend::Logical(pool), VectorHandle::Logical(v)) = (&mut self.backend, handle) {
            let ranges: Vec<(SegmentId, u64, u64)> =
                v.stripes.iter().map(|(_, s, l)| (*s, 0, *l)).collect();
            let mut scan = LogicalScan::new(pool, &mut self.fabric, server, &ranges);
            return Ok(engine.run(&mut scan, start, params)?);
        }
        let mut scan = self.physical_scan(server, handle)?;
        Ok(engine.run(&mut scan, start, params)?)
    }

    /// The physical backend scanning `handle` from `server`.
    fn physical_scan<'a>(
        &'a mut self,
        server: NodeId,
        handle: &'a VectorHandle,
    ) -> Result<PhysicalScan<'a>, ClusterError> {
        let (Backend::Physical { pool, caches }, VectorHandle::Physical { frames, len }) =
            (&mut self.backend, handle)
        else {
            return Err(ClusterError::Backend("handle from another cluster architecture"));
        };
        if self.pool_node.is_none() {
            return Err(ClusterError::Backend("physical cluster has no pool node"));
        }
        Ok(PhysicalScan {
            pool,
            cache: caches.as_mut().and_then(|c| c.get_mut(server.0 as usize)),
            fabric: &mut self.fabric,
            server,
            servers: self.config.servers,
            frames,
            len: *len,
            admitted: Vec::new(),
        })
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
    /// Each core's latest frame a jump's path check admitted.
    admitted: Vec<Option<FrameId>>,
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

    fn reach(&self, pos: u64, want: u64) -> u64 {
        let Some((len, _)) = self.op_at(pos, want) else {
            return pos;
        };
        // Whole frames, and unclamped ops that tile frames from a tile
        // boundary, repeat to the stream's end; others within the frame.
        let tiles = len == FRAME_BYTES || (len == want && FRAME_BYTES.is_multiple_of(len) && pos.is_multiple_of(len));
        if tiles {
            self.len
        } else {
            (pos / FRAME_BYTES + 1) * FRAME_BYTES
        }
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

    fn paths(&mut self, jump: &Jump<'_>, k: u64) -> u64 {
        let Some(cache) = self.cache.as_deref() else {
            return k;
        };
        // Residency as the repetitions would find it, in issue order:
        // frames admitted earlier in the jump are resident and count
        // against capacity. A core's ops touch ever later frames, and a
        // frame two cores share was touched before the jump, so a frame
        // the jump admits is hit again only by the same core's next ops.
        let (capacity, mut resident) = (cache.capacity_frames(), cache.resident_frames());
        self.admitted.clear();
        self.admitted.resize(jump.advance.len(), None);
        for j in 0..k {
            for (i, (op, s)) in jump.ops.iter().zip(jump.served).enumerate() {
                let Ok(frame) = self.frame(jump.pos(i, j)) else {
                    return j;
                };
                let admitted = &mut self.admitted[op.core as usize];
                let path = if cache.is_resident(frame) || *admitted == Some(frame) {
                    CachePath::Hit
                } else if resident < capacity {
                    resident += 1;
                    *admitted = Some(frame);
                    CachePath::Admit
                } else if cache.policy() == AdmissionPolicy::PinUntilFull {
                    CachePath::Bypass
                } else {
                    // An eviction's victim depends on every stamp: not repeated.
                    return j;
                };
                if path_code(Some(path)) != s.path {
                    return j;
                }
            }
        }
        k
    }

    fn repeat(&mut self, jump: &Jump<'_>, k: u64) -> Result<(), PoolError> {
        // Repetition-major, op-minor: the cache clock stamps each op in
        // issue order.
        for j in 0..k {
            for (i, s) in jump.served.iter().enumerate() {
                let frame = self.frame(jump.pos(i, j))?;
                let path = PATHS.get(s.path as usize).copied().flatten();
                if let (Some(cache), Some(path)) = (self.cache.as_deref_mut(), path) {
                    cache.note(frame, path);
                }
                if path != Some(CachePath::Hit) {
                    // The pool's DRAM served the frame (the whole frame on
                    // an admitting miss): one hotness sample, as `read`
                    // records.
                    self.pool
                        .memory_mut()
                        .hotness_mut()
                        .record(frame, self.server.0, 1);
                }
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
        c.logical_pool().unwrap().crash_server(victim).unwrap();
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
            let stamps: Vec<u64> = (0..64).map(|f| cache.stamp(FrameId(f))).collect();
            out += &format!(
                " | {} {} {} {} {stamps:?} {}",
                cache.hit_count(),
                cache.miss_count(),
                cache.eviction_count(),
                cache.upfront_copy_bytes(),
                dram(cache.local_dram(), &mut layout)
            );
        }
        format!("{out} | {layout:?}")
    }

    /// One case of the physical oracle below.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        cached: bool,
        link0: bool,
        lru: bool,
        cache_frames: u64,
        frames: u64,
        tail: u64,
        params: ScanParams,
        reps: usize,
        warm: bool,
    }

    /// Run `case` with the engine (`fast`) or the reference: the scans'
    /// outcomes, everything they left behind ([`physical_state`]), and the
    /// engine's jumps in the last scan.
    fn run_case(case: Case, fast: bool) -> (Vec<ScanOutcome>, String, Vec<Jumped>) {
        let mut cfg = ClusterConfig::paper(
            if case.cached { PoolArch::PhysicalCache } else { PoolArch::PhysicalNoCache },
            if case.link0 { LinkProfile::link0() } else { LinkProfile::link1() },
        );
        cfg.local_per_server = case.cache_frames * FRAME_BYTES;
        cfg.pool_capacity = 64 * FRAME_BYTES;
        cfg.cache_policy = if case.lru { AdmissionPolicy::Lru } else { AdmissionPolicy::PinUntilFull };
        let len = case.frames * FRAME_BYTES - case.tail.min(FRAME_BYTES - 1);
        let engine = if fast { Engine::FastForward } else { Engine::Reference };
        let mut c = Cluster::new(cfg);
        let other = c.alloc_vector(3 * FRAME_BYTES, NodeId(0)).unwrap();
        let h = c.alloc_vector(len, NodeId(0)).unwrap();
        let mut now = SimTime::ZERO;
        if case.warm {
            // Background traffic: another server's scan first.
            now = c.scan_using(now, NodeId(1), &other, ScanParams::with_cores(3), engine).unwrap().outcome.complete;
        }
        let (mut outcomes, mut jumps) = (Vec::new(), Vec::new());
        for _ in 0..case.reps {
            let out = if fast {
                let (run, _, last) = counted_scan(&mut c, now, &h, case.params);
                jumps = last;
                run.outcome
            } else {
                c.scan_using(now, NodeId(0), &h, case.params, engine).unwrap().outcome
            };
            now = out.complete;
            outcomes.push(out);
        }
        (outcomes, physical_state(&mut c, now), jumps)
    }

    fn case() -> impl Strategy<Value = Case> {
        (
            (any::<bool>(), any::<bool>(), any::<bool>(), 1u64..40, 1u64..40),
            (0u64..FRAME_BYTES, 1u32..29, 0usize..5, 1usize..4, any::<bool>()),
        )
            .prop_map(|((cached, link0, lru, cache_frames, frames), (tail, cores, chunk_pick, reps, warm))| {
                let chunk = [FRAME_BYTES, FRAME_BYTES / 2, 3 * FRAME_BYTES / 2, 1_000_000, 2 * FRAME_BYTES + 12_345][chunk_pick];
                Case {
                    cached,
                    link0,
                    lru,
                    cache_frames,
                    frames,
                    tail,
                    params: ScanParams { cores, chunk, ..ScanParams::default() },
                    reps,
                    warm,
                }
            })
    }

    /// The fast-forwarding engine leaves a physical deployment exactly as
    /// stepping every op does: outcomes, every counter, histogram,
    /// estimate and busy schedule, hotness, and cache residency and
    /// stamps. Returns the engine's jumps in the last scan.
    fn matches_stepping(case: Case) -> Vec<Jumped> {
        let (fast, fast_state, jumps) = run_case(case, true);
        let (slow, slow_state, _) = run_case(case, false);
        assert_eq!(fast, slow, "{case:?}");
        assert_eq!(fast_state, slow_state, "{case:?}");
        jumps
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn physical_fast_forward_matches_stepping(case in case()) {
            matches_stepping(case);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// [`physical_fast_forward_matches_stepping`] at depth, for
        /// `cargo test --release -- --ignored`.
        #[test]
        #[ignore]
        fn physical_fast_forward_matches_stepping_deep(case in case()) {
            matches_stepping(case);
        }
    }

    /// One jump as [`Counted`] saw it: the round's path codes, the
    /// cache's (resident, capacity) frames after it, and each run's next
    /// position, op length and ops per repetition.
    #[derive(Debug, Clone)]
    struct Jumped {
        paths: Vec<u8>,
        cache: Option<(u64, u64)>,
        ends: Vec<(u64, u64, u64)>,
    }

    /// The physical backend, counting its path checks and logging its
    /// jumps.
    struct Counted<'a, 'b> {
        inner: &'a mut PhysicalScan<'b>,
        checks: u64,
        jumps: Vec<Jumped>,
    }

    impl ScanBackend for Counted<'_, '_> {
        const WAVES: bool = <PhysicalScan<'static> as ScanBackend>::WAVES;

        fn stream_len(&self) -> u64 {
            self.inner.stream_len()
        }
        fn check(&self) -> Result<(), PoolError> {
            self.inner.check()
        }
        fn op_at(&self, pos: u64, want: u64) -> Option<(u64, u64)> {
            self.inner.op_at(pos, want)
        }
        fn reach(&self, pos: u64, want: u64) -> u64 {
            self.inner.reach(pos, want)
        }
        fn issue(&mut self, now: SimTime, ops: &[ScanOp], served: &mut Vec<Served>) -> Result<SimTime, PoolError> {
            self.inner.issue(now, ops, served)
        }
        fn fabric(&self) -> &Fabric {
            self.inner.fabric()
        }
        fn fabric_mut(&mut self) -> &mut Fabric {
            self.inner.fabric_mut()
        }
        fn drams(&self) -> usize {
            self.inner.drams()
        }
        fn dram(&self, i: usize) -> &DramChannel {
            self.inner.dram(i)
        }
        fn dram_mut(&mut self, i: usize) -> &mut DramChannel {
            self.inner.dram_mut(i)
        }
        fn ledger(&self, out: &mut Vec<u64>) {
            self.inner.ledger(out)
        }
        fn finish(&mut self, delta: &[u64], rounds: u64) -> Result<(), PoolError> {
            self.inner.finish(delta, rounds)
        }
        fn paths(&mut self, jump: &Jump<'_>, k: u64) -> u64 {
            self.checks += 1;
            self.inner.paths(jump, k)
        }
        fn repeat(&mut self, jump: &Jump<'_>, k: u64) -> Result<(), PoolError> {
            self.inner.repeat(jump, k)?;
            self.jumps.push(Jumped {
                paths: jump.served.iter().map(|s| s.path).collect(),
                cache: self
                    .inner
                    .cache
                    .as_deref()
                    .map(|c| (c.resident_frames(), c.capacity_frames())),
                ends: jump
                    .runs
                    .iter()
                    .map(|r| (r.pos + r.per_round * k * r.len, r.len, r.per_round))
                    .collect(),
            });
            Ok(())
        }
    }

    /// Scan `h` from server 0 through [`Counted`]: the run, its path checks
    /// plus repeats, and its jumps.
    fn counted_scan(c: &mut Cluster, start: SimTime, h: &VectorHandle, params: ScanParams) -> (ScanRun, u64, Vec<Jumped>) {
        let mut scan = c.physical_scan(NodeId(0), h).unwrap();
        let mut counted = Counted {
            inner: &mut scan,
            checks: 0,
            jumps: Vec::new(),
        };
        let run = scan::run(&mut counted, start, params).unwrap();
        let calls = counted.checks + counted.jumps.len() as u64;
        (run, calls, counted.jumps)
    }

    /// The 8 and 24 GiB paper scans on both physical architectures skip
    /// their settled stretches in a few jumps, not one check per round.
    #[test]
    fn paper_scans_jump_in_few_steps() {
        for arch in [PoolArch::PhysicalCache, PoolArch::PhysicalNoCache] {
            for size in [8 * GIB, 24 * GIB] {
                let mut c = paper(arch);
                let h = c.alloc_vector(size, NodeId(0)).unwrap();
                let params = ScanParams::with_cores(c.config().cores_per_server);
                let (run, calls, _) = counted_scan(&mut c, SimTime::ZERO, &h, params);
                assert!(run.fast_forwarded * 10 >= run.ops * 9, "{arch:?} {size}: {run:?}");
                assert!(calls <= 4, "{arch:?} {size}: {calls} path checks and repeats");
            }
        }
    }

    /// Whether some core of `j` stopped because another repetition would
    /// have reached its slice's end.
    fn at_slice_end(j: &Jumped, case: &Case) -> bool {
        let len = case.frames * FRAME_BYTES - case.tail;
        let cores = u64::from(case.params.cores);
        j.ends.iter().any(|&(end, op, per)| {
            let next = (1..=cores).map(|c| c * (len / cores) + c.min(len % cores)).find(|&b| b > end);
            next.is_some_and(|slice_end| slice_end - end <= per * op)
        })
    }

    /// Whether some core of `j` stopped because another repetition would
    /// have crossed into the next frame.
    fn at_frame_end(j: &Jumped) -> bool {
        j.ends.iter().any(|&(end, op, per)| (end / FRAME_BYTES + 1) * FRAME_BYTES - end < per * op)
    }

    /// Whether every op of `j`'s round took `path`.
    fn all(j: &Jumped, path: CachePath) -> bool {
        j.paths.iter().all(|&p| p == path_code(Some(path)))
    }

    /// Fixed cases, each against the stepping reference, whose last scan
    /// jumps up to a named bound: the jump must end exactly there.
    #[test]
    fn physical_jumps_end_at_their_bounds() {
        let base = Case {
            cached: false,
            link0: false,
            lru: false,
            cache_frames: 8,
            frames: 40,
            tail: 0,
            params: ScanParams { cores: 4, chunk: FRAME_BYTES, ..ScanParams::default() },
            reps: 1,
            warm: false,
        };
        let chunk = |chunk| ScanParams { chunk, ..base.params };
        type Bound = fn(&Jumped, &Case) -> bool;
        let cases: Vec<(&str, Case, Bound)> = vec![
            ("slice end", base, at_slice_end),
            ("cold cache fills exactly", Case { cached: true, cache_frames: 24, ..base }, |j, _| {
                all(j, CachePath::Admit) && j.cache.is_some_and(|(r, c)| r == c)
            }),
            ("cold cache stops a frame short", Case { cached: true, cache_frames: 25, ..base }, |j, _| {
                all(j, CachePath::Admit) && j.cache.is_some_and(|(r, c)| r + 1 == c)
            }),
            ("warm scan hits", Case { cached: true, cache_frames: 40, reps: 2, ..base }, |j, case| {
                all(j, CachePath::Hit) && at_slice_end(j, case)
            }),
            ("full cache bypasses", Case { cached: true, ..base }, |j, case| {
                all(j, CachePath::Bypass) && at_slice_end(j, case)
            }),
            ("half-frame chunks", Case { cached: true, cache_frames: 40, reps: 2, params: chunk(FRAME_BYTES / 2), ..base }, at_slice_end),
            ("frame-and-a-half chunks", Case { params: chunk(3 * FRAME_BYTES / 2), ..base }, at_slice_end),
            ("300,000 B chunks", Case { params: chunk(300_000), ..base }, |j, _| at_frame_end(j)),
            // The Link0 appliance's DRAM estimate does not settle here, so
            // the estimate loop steps every repetition of the jump.
            ("Link0 appliance", Case { link0: true, ..base }, at_slice_end),
        ];
        for (name, case, bound) in cases {
            let jumps = matches_stepping(case);
            assert!(jumps.iter().any(|j| bound(j, &case)), "{name}: {jumps:?}");
        }
        // Ops of 1,000,000 B do not tile a frame: a jump ends at its end.
        let jumps = matches_stepping(Case { params: chunk(1_000_000), ..base });
        assert!(jumps.iter().all(at_frame_end), "{jumps:?}");
        // An LRU cache that must evict never jumps.
        let jumps = matches_stepping(Case { cached: true, lru: true, reps: 2, ..base });
        assert!(jumps.is_empty(), "{jumps:?}");
    }
}
