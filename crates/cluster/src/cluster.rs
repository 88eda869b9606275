//! Runnable clusters.
//!
//! A [`Cluster`] instantiates one of the three §4.1 deployments behind a
//! single interface: allocate a vector in disaggregated memory, scan it
//! from a server with N cores, repeat. The benchmark harness compares
//! architectures by running the identical workload on each.

use crate::config::{ClusterConfig, PoolArch};
use lmp_compute::{scan_ranges, DistVector, ScanOutcome, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, NodeId};
use lmp_mem::{FrameId, FRAME_BYTES};
use lmp_physical::{PhysicalPool, PoolCache};
use lmp_sim::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
                for f in frames {
                    pool.free_frame(f)
                        .map_err(|_| ClusterError::Backend("vector frame was not allocated"))?;
                    // Other live vectors keep their cached frames.
                    for c in caches.iter_mut().flatten() {
                        c.evict(f);
                    }
                }
                Ok(())
            }
            _ => Err(ClusterError::Backend("handle from another cluster architecture")),
        }
    }

    /// Scan the whole vector from `server` with `params.cores` parallel
    /// streams — the §4.1 aggregation microbenchmark's access pattern.
    pub fn scan_vector(
        &mut self,
        start: SimTime,
        server: NodeId,
        handle: &VectorHandle,
        params: ScanParams,
    ) -> Result<ScanOutcome, ClusterError> {
        match (&mut self.backend, handle) {
            (Backend::Logical(pool), VectorHandle::Logical(v)) => {
                let ranges: Vec<(SegmentId, u64, u64)> =
                    v.stripes.iter().map(|(_, s, l)| (*s, 0, *l)).collect();
                Ok(scan_ranges(
                    pool,
                    &mut self.fabric,
                    start,
                    server,
                    &ranges,
                    params,
                )?)
            }
            (Backend::Physical { pool, caches }, VectorHandle::Physical { frames, len }) => {
                if self.pool_node.is_none() {
                    return Err(ClusterError::Backend("physical cluster has no pool node"));
                }
                Ok(scan_physical(
                    pool,
                    caches.as_mut(),
                    &mut self.fabric,
                    start,
                    server,
                    frames,
                    *len,
                    params,
                )?)
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

/// Multi-core closed-loop scan over physical-pool frames, with or without
/// the local cache. Invalid `params` fail before anything is charged.
#[allow(clippy::too_many_arguments)]
fn scan_physical(
    pool: &mut PhysicalPool,
    mut caches: Option<&mut Vec<PoolCache>>,
    fabric: &mut Fabric,
    start: SimTime,
    server: NodeId,
    frames: &[FrameId],
    len: u64,
    params: ScanParams,
) -> Result<ScanOutcome, PoolError> {
    params.check()?;
    let ScanParams { cores, chunk, per_core } = params;
    let mut outcome = ScanOutcome {
        complete: start,
        local_bytes: 0,
        remote_bytes: 0,
    };
    let per_core_len = len / cores as u64;
    let remainder = len % cores as u64;
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, u64, u64)>> = BinaryHeap::new();
    let mut cursor = 0u64;
    for c in 0..cores as u64 {
        let slice = per_core_len + if c < remainder { 1 } else { 0 };
        if slice > 0 {
            heap.push(Reverse((start, c, cursor, slice)));
        }
        cursor += slice;
    }
    while let Some(Reverse((now, c, pos, left))) = heap.pop() {
        let frame_idx = (pos / FRAME_BYTES) as usize;
        let within = pos % FRAME_BYTES;
        // Clamp to frame boundary so cache accesses are per-frame.
        let this = left.min(chunk).min(FRAME_BYTES - within);
        let frame = frames[frame_idx];
        let complete = match caches.as_deref_mut() {
            Some(caches) => {
                let cache = &mut caches[server.0 as usize];
                let a = cache.access(fabric, pool, now, frame, this);
                if a.hit {
                    outcome.local_bytes += this;
                } else {
                    outcome.remote_bytes += this;
                }
                a.complete
            }
            None => {
                outcome.remote_bytes += this;
                pool.read(fabric, now, server, this, Some(frame)).complete
            }
        };
        outcome.complete = outcome.complete.max(complete);
        if left > this {
            // Pacing: the core also has to consume what it fetched.
            let next = complete.max(now + per_core.time_to_transfer(this));
            heap.push(Reverse((next, c, pos + this, left - this)));
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::LinkProfile;
    use lmp_sim::units::GIB;

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
}
