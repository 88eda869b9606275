//! The logical memory pool.
//!
//! [`LogicalPool`] is the paper's contribution (§3): every server donates
//! its shared region to a rack-wide pool addressed by
//! logical addresses ([`crate::addr::LogicalAddr`]). Accesses that resolve to the
//! requesting server run at local DRAM speed — the defining performance
//! property (§4.3) — while remote accesses cross the fabric. The
//! private/shared split of every server can be resized at runtime (§4.5).

use crate::addr::{frame_chunks, LogicalAddr, SegmentId};
use crate::batch::{BatchOp, BatchResult};
use crate::observe::PoolTelemetry;
use crate::translate::{GlobalMap, LocalMap, SegmentLoc, TranslationCache};
use lmp_fabric::{Fabric, FabricError, MemOp, NodeId};
use lmp_mem::{DramProfile, FrameId, MemoryNode, RegionKind, FRAME_BYTES};
use lmp_qos::{AdmissionController, Band, TenantId, TenantRate};
use lmp_sim::prelude::*;
use std::collections::BTreeMap;

/// Construction parameters for a logical pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of servers.
    pub servers: u32,
    /// DRAM capacity per server, bytes.
    pub capacity_per_server: u64,
    /// Initial shared-region budget per server, bytes.
    pub shared_per_server: u64,
    /// DRAM timing profile for every server.
    pub dram: DramProfile,
    /// Per-server translation-cache capacity (segments). Zero disables the
    /// cache (the ablation baseline: every access hits the global map).
    pub tlb_capacity: usize,
}

impl PoolConfig {
    /// The paper's §4.1 logical configuration: 4 servers × 24 GB, fully
    /// shared, testbed DRAM.
    pub fn paper_logical() -> Self {
        PoolConfig {
            servers: 4,
            capacity_per_server: 24 * GIB,
            shared_per_server: 24 * GIB,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 1024,
        }
    }
}

/// Placement policy for new segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Exactly on this server (fails if it lacks room).
    On(NodeId),
    /// On this server if it has room, else wherever most room is.
    LocalFirst(NodeId),
    /// On the server with the most free shared frames.
    MostFree,
    /// Rotate across servers.
    RoundRobin,
}

/// Errors surfaced by pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Not enough shared capacity anywhere (or on the requested server).
    Capacity {
        /// Frames requested.
        requested_frames: u64,
    },
    /// The segment does not exist (never allocated, or freed).
    UnknownSegment(SegmentId),
    /// Access past the end of a segment.
    OutOfBounds {
        /// Offending segment.
        segment: SegmentId,
        /// Requested end offset.
        end: u64,
        /// Segment length.
        len: u64,
    },
    /// The segment's holder has crashed and no protection covers it — the
    /// paper's "failure reporting to application through exceptions".
    SegmentLost(SegmentId),
    /// Operation addressed a crashed server directly.
    ServerDown(NodeId),
    /// The segment already carries protection (mirror or parity). The
    /// recovery orchestrator may race re-protection with a second crash;
    /// this is recoverable, not a programming error.
    AlreadyProtected(SegmentId),
    /// The tenant's token bucket is empty: admission control refused the
    /// op before anything was charged. Recoverable — the caller backs off
    /// and retries once the bucket refills.
    AdmissionRejected(TenantId),
    /// The caller violated an API contract (zero-length allocation,
    /// mismatched buffer, …). Recoverable: the pool state is unchanged.
    InvalidRequest(&'static str),
    /// Internal bookkeeping corruption: maps disagree with each other.
    /// Surfaced as an error (not a panic) so an injected fault cannot
    /// abort the whole simulation, but any occurrence is a bug.
    Internal(&'static str),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Capacity { requested_frames } => {
                write!(f, "no room for {requested_frames} shared frames")
            }
            PoolError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            PoolError::OutOfBounds { segment, end, len } => {
                write!(f, "access to {end} past end of {segment} (len {len})")
            }
            PoolError::SegmentLost(s) => write!(f, "memory exception: {s} lost to a crash"),
            PoolError::ServerDown(n) => write!(f, "server {n} is down"),
            PoolError::AlreadyProtected(s) => write!(f, "segment {s} is already protected"),
            PoolError::AdmissionRejected(t) => {
                write!(f, "admission rejected: {t} is over its rate limit")
            }
            PoolError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            PoolError::Internal(why) => write!(f, "internal invariant violated: {why}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Timing outcome of one pool access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolAccess {
    /// When the access completes at the requester.
    pub complete: SimTime,
    /// Bytes served from the requester's own memory.
    pub local_bytes: u64,
    /// Bytes that crossed the fabric.
    pub remote_bytes: u64,
    /// Translation faults taken (stale cache entries).
    pub faults: u32,
}

/// Per-tenant QoS policy carried by the pool once any limit or band is
/// configured. Absent (the default) the tenant-aware entry points behave
/// exactly like their tenant-blind counterparts.
#[derive(Debug, Default)]
struct PoolQos {
    admission: AdmissionController,
    /// Fabric priority band per tenant; unlisted tenants ride
    /// [`Band::Normal`].
    bands: BTreeMap<TenantId, Band>,
}

/// One frame chunk of one batch op, as the batch planner sorts it.
#[derive(Debug)]
struct Chunk {
    holder: u32,
    write: bool,
    seg: SegmentId,
    /// Byte offset within the segment (for adjacency detection).
    start: u64,
    op: usize,
    /// The op's first chunk: counting these counts a stream's ops.
    first: bool,
    bytes: u64,
    frame: FrameId,
}

impl Chunk {
    /// The `(holder, is_write)` stream the chunk rides.
    fn stream(&self) -> (u32, bool) {
        (self.holder, self.write)
    }

    /// Plan order: stream, then segment position, then op.
    fn key(&self) -> (u32, bool, SegmentId, u64, usize) {
        (self.holder, self.write, self.seg, self.start, self.op)
    }
}

/// A coalesced run: chunks `lo..hi` of the sorted chunk list.
#[derive(Debug)]
struct Run {
    lo: usize,
    hi: usize,
    /// Segment offset one past the run's last byte.
    end: u64,
    bytes: u64,
    /// When the run's DRAM access, then its fabric chunk, completes.
    done: SimTime,
}

/// The batch planner's buffers. The pool keeps them from batch to batch,
/// so a warm pool plans without allocating, and clears them at the start
/// of every batch, so a batch that failed partway leaves nothing behind.
#[derive(Debug, Default)]
struct Plan {
    /// Distinct segments' locations, sorted by segment id.
    locs: Vec<(SegmentId, SegmentLoc)>,
    /// Every op's frame chunks, in stream order once sorted.
    chunks: Vec<Chunk>,
    /// The sorted chunks' frames, in the same order.
    frames: Vec<FrameId>,
    /// Coalesced runs over the sorted chunks.
    runs: Vec<Run>,
    /// One remote stream's run sizes.
    sizes: Vec<u64>,
}

impl Plan {
    fn clear(&mut self) {
        self.locs.clear();
        self.chunks.clear();
        self.frames.clear();
        self.runs.clear();
        self.sizes.clear();
    }
}

/// The rack-wide logical memory pool.
#[derive(Debug)]
pub struct LogicalPool {
    config: PoolConfig,
    nodes: Vec<MemoryNode>,
    global: GlobalMap,
    locals: Vec<LocalMap>,
    tlbs: Vec<Option<TranslationCache>>,
    plan: Plan,
    next_segment: u64,
    rr_cursor: u32,
    local_accesses: Counter,
    remote_accesses: Counter,
    telemetry: Option<Box<PoolTelemetry>>,
    qos: Option<Box<PoolQos>>,
}

impl LogicalPool {
    /// Build a pool per `config`.
    ///
    /// # Panics
    /// Panics when `shared_per_server > capacity_per_server` or there are
    /// zero servers.
    pub fn new(config: PoolConfig) -> Self {
        // lmp-lint: allow(no-panic) — constructor precondition on static
        // config, documented under `# Panics`; no pool exists yet to recover.
        assert!(config.servers > 0, "pool needs servers");
        let nodes = (0..config.servers)
            .map(|i| {
                MemoryNode::new(
                    format!("server{i}"),
                    config.capacity_per_server,
                    config.shared_per_server,
                    config.dram.clone(),
                )
            })
            .collect();
        let locals = (0..config.servers).map(|_| LocalMap::new()).collect();
        let tlbs = (0..config.servers)
            .map(|_| {
                if config.tlb_capacity > 0 {
                    Some(TranslationCache::new(config.tlb_capacity))
                } else {
                    None
                }
            })
            .collect();
        LogicalPool {
            config,
            nodes,
            global: GlobalMap::new(),
            locals,
            tlbs,
            plan: Plan::default(),
            next_segment: 0,
            rr_cursor: 0,
            local_accesses: Counter::new(),
            remote_accesses: Counter::new(),
            telemetry: None,
            qos: None,
        }
    }

    fn qos_mut(&mut self) -> &mut PoolQos {
        self.qos.get_or_insert_with(Box::default)
    }

    /// Rate-limit `tenant`: at most `rate.ops_per_sec` pool ops per
    /// simulated second sustained, `rate.burst` back-to-back. The bucket
    /// starts full.
    pub fn set_tenant_rate(&mut self, tenant: TenantId, rate: TenantRate) {
        self.qos_mut().admission.set_limit(tenant, rate);
    }

    /// Route `tenant`'s fabric traffic on `band`. Only observable when the
    /// fabric has priority bands enabled ([`Fabric::enable_bands`]).
    ///
    /// [`Fabric::enable_bands`]: lmp_fabric::Fabric::enable_bands
    pub fn set_tenant_band(&mut self, tenant: TenantId, band: Band) {
        self.qos_mut().bands.insert(tenant, band);
    }

    /// The band `tenant`'s traffic rides ([`Band::Normal`] by default).
    fn tenant_band(&self, tenant: TenantId) -> Band {
        self.qos
            .as_deref()
            .and_then(|q| q.bands.get(&tenant).copied())
            .unwrap_or(Band::Normal)
    }

    /// Attach per-access telemetry (instruments + spans). Idempotent; the
    /// pool runs un-instrumented until this is called.
    pub fn attach_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(PoolTelemetry::new(self.config.servers)));
        }
    }

    /// The attached telemetry, if any.
    pub fn telemetry(&self) -> Option<&PoolTelemetry> {
        self.telemetry.as_deref()
    }

    /// Mutable attached telemetry, if any.
    pub fn telemetry_mut(&mut self) -> Option<&mut PoolTelemetry> {
        self.telemetry.as_deref_mut()
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.config.servers
    }

    /// A server's memory node.
    pub fn node(&self, id: NodeId) -> &MemoryNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to a server's memory node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut MemoryNode {
        &mut self.nodes[id.0 as usize]
    }

    /// The coarse global map (telemetry and failure handling).
    pub fn global_map(&self) -> &GlobalMap {
        &self.global
    }

    /// A server's fine map (telemetry).
    pub fn local_map(&self, id: NodeId) -> &LocalMap {
        &self.locals[id.0 as usize]
    }

    /// A server's translation cache, if enabled.
    pub fn tlb(&self, id: NodeId) -> Option<&TranslationCache> {
        self.tlbs[id.0 as usize].as_ref()
    }

    /// Length of a segment in bytes.
    pub fn segment_len(&self, seg: SegmentId) -> Option<u64> {
        self.global.row(seg).map(|r| r.len)
    }

    /// Current holder of a segment.
    pub fn holder_of(&self, seg: SegmentId) -> Option<NodeId> {
        self.global.peek(seg).map(|l| l.server)
    }

    /// Free shared frames on a server (0 when crashed).
    pub fn free_shared_frames(&self, id: NodeId) -> u64 {
        let n = &self.nodes[id.0 as usize];
        if n.is_failed() {
            0
        } else {
            n.split().available(RegionKind::Shared)
        }
    }

    /// Total pool capacity in bytes across live servers.
    pub fn pool_capacity_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| !n.is_failed())
            .map(|n| n.shared_bytes())
            .sum()
    }

    /// Accesses that resolved locally / remotely (for the §4 benefit
    /// accounting).
    pub fn access_counts(&self) -> (u64, u64) {
        (self.local_accesses.get(), self.remote_accesses.get())
    }

    fn pick_server(&mut self, frames: u64, placement: Placement) -> Option<NodeId> {
        let has_room = |pool: &Self, id: u32| pool.free_shared_frames(NodeId(id)) >= frames;
        match placement {
            Placement::On(n) => has_room(self, n.0).then_some(n),
            Placement::LocalFirst(n) => {
                if has_room(self, n.0) {
                    Some(n)
                } else {
                    self.pick_server(frames, Placement::MostFree)
                }
            }
            Placement::MostFree => (0..self.config.servers)
                .filter(|&i| has_room(self, i))
                .max_by_key(|&i| (self.free_shared_frames(NodeId(i)), std::cmp::Reverse(i)))
                .map(NodeId),
            Placement::RoundRobin => {
                for step in 0..self.config.servers {
                    let i = (self.rr_cursor + step) % self.config.servers;
                    if has_room(self, i) {
                        self.rr_cursor = (i + 1) % self.config.servers;
                        return Some(NodeId(i));
                    }
                }
                None
            }
        }
    }

    /// Allocate a pool buffer of `len` bytes. Returns its segment id; the
    /// segment's logical addresses are stable for its lifetime, across any
    /// number of migrations.
    pub fn alloc(&mut self, len: u64, placement: Placement) -> Result<SegmentId, PoolError> {
        if len == 0 {
            return Err(PoolError::InvalidRequest("zero-length allocation"));
        }
        if let Placement::On(n) | Placement::LocalFirst(n) = placement {
            self.check_server(n)?;
        }
        let frames = len.div_ceil(FRAME_BYTES);
        let server = self
            .pick_server(frames, placement)
            .ok_or(PoolError::Capacity {
                requested_frames: frames,
            })?;
        let frame_ids = self.nodes[server.0 as usize]
            .alloc_many(RegionKind::Shared, frames)
            .map_err(|_| PoolError::Capacity {
                requested_frames: frames,
            })?;
        let seg = SegmentId(self.next_segment);
        self.next_segment += 1;
        self.global.insert(seg, server, len);
        self.locals[server.0 as usize].insert(seg, frame_ids);
        Ok(seg)
    }

    /// Free a pool buffer. Its frames return to the holder's allocator
    /// even while the holder is down, so a warm revive finds them free.
    pub fn free(&mut self, seg: SegmentId) -> Result<(), PoolError> {
        let loc = self.global.remove(seg).ok_or(PoolError::UnknownSegment(seg))?;
        if let Some(frames) = self.locals[loc.server.0 as usize].remove(seg) {
            self.nodes[loc.server.0 as usize]
                .free_many(&frames)
                .map_err(|_| PoolError::Internal("local map frame not allocated"))?;
        }
        for tlb in self.tlbs.iter_mut().flatten() {
            tlb.invalidate(seg);
        }
        Ok(())
    }

    /// Resolve `seg` for `requester`, using its translation cache when
    /// enabled. Returns the location and the number of stale-entry faults
    /// taken (0 or 1).
    pub fn translate(
        &mut self,
        requester: NodeId,
        seg: SegmentId,
    ) -> Result<(SegmentLoc, u32), PoolError> {
        self.check_server(requester)?;
        let tlb = &mut self.tlbs[requester.0 as usize];
        if let Some(tlb) = tlb {
            if let Some(loc) = tlb.lookup(seg) {
                // Fast path: the cached entry must still match the coarse
                // map — same holder *and* same epoch (an uncounted peek,
                // modelling the local check hardware does for free). The
                // epoch comparison catches A→B→A round trips, where the
                // original holder's fine map holds the segment again and
                // would otherwise validate a stale-epoch entry as fresh.
                if self.global.peek(seg) == Some(loc)
                    && self.locals[loc.server.0 as usize].holds(seg)
                {
                    return Ok((loc, 0));
                }
                tlb.note_stale(seg);
                let loc = self
                    .global
                    .lookup(seg)
                    .ok_or(PoolError::UnknownSegment(seg))?;
                tlb.refill(seg, loc);
                return Ok((loc, 1));
            }
            let loc = self
                .global
                .lookup(seg)
                .ok_or(PoolError::UnknownSegment(seg))?;
            tlb.refill(seg, loc);
            Ok((loc, 0))
        } else {
            let loc = self
                .global
                .lookup(seg)
                .ok_or(PoolError::UnknownSegment(seg))?;
            Ok((loc, 0))
        }
    }

    /// Check that `len` bytes at `addr` lie inside a live segment, and
    /// return the segment's location.
    fn check_bounds(&self, addr: LogicalAddr, len: u64) -> Result<SegmentLoc, PoolError> {
        let row = self
            .global
            .row(addr.segment)
            .ok_or(PoolError::UnknownSegment(addr.segment))?;
        // `offset + len` can wrap on a hostile `len`, which would slip a
        // huge access past the check — saturate the reported end instead.
        match addr.offset.checked_add(len) {
            Some(end) if end <= row.len => Ok(row.loc),
            overflowed_or_past_end => Err(PoolError::OutOfBounds {
                segment: addr.segment,
                end: overflowed_or_past_end.unwrap_or(u64::MAX),
                len: row.len,
            }),
        }
    }

    pub(crate) fn check_server(&self, server: NodeId) -> Result<(), PoolError> {
        if server.0 < self.config.servers {
            Ok(())
        } else {
            Err(PoolError::InvalidRequest("unknown server"))
        }
    }

    /// The checks that refuse a malformed request without touching any
    /// state: an unknown requester, a zero-length op, an op on an unknown
    /// segment or out of its bounds, and a crashed requester. Every
    /// `access*` entry point runs them before it admits or charges
    /// anything. An empty batch needs only a known requester.
    fn check_request(&self, requester: NodeId, ops: &[BatchOp]) -> Result<(), PoolError> {
        self.check_server(requester)?;
        if ops.is_empty() {
            return Ok(());
        }
        for o in ops {
            if o.len == 0 {
                return Err(PoolError::InvalidRequest("zero-length access"));
            }
            self.check_bounds(o.addr, o.len)?;
        }
        if self.nodes[requester.0 as usize].is_failed() {
            return Err(PoolError::ServerDown(requester));
        }
        Ok(())
    }

    /// Timed access: `requester` reads or writes `len` bytes at `addr`.
    ///
    /// Local resolution uses the requester's DRAM only; remote resolution
    /// pays the fabric plus the holder's DRAM. Multi-frame accesses issue
    /// all chunks at `now` (hardware pipelines independent cache-line
    /// streams) and complete when the last chunk does.
    ///
    /// A single op is a batch of one: this delegates to
    /// [`LogicalPool::access_batch`], so both paths share one frame walk,
    /// one validation order, and one commit discipline.
    pub fn access(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        requester: NodeId,
        addr: LogicalAddr,
        len: u64,
        op: MemOp,
    ) -> Result<PoolAccess, PoolError> {
        let batch = [BatchOp { addr, len, op }];
        let mut r = self.access_batch(fabric, now, requester, &batch)?;
        r.ops
            .pop()
            .ok_or(PoolError::Internal("batch of one returned no op"))
    }

    /// Batched scatter-gather access: `requester` issues every op in `ops`
    /// at `now`, as one pipelined wave.
    ///
    /// * Each distinct segment is translated **once** (one TLB or global
    ///   lookup), with any stale-entry fault attributed to the first op
    ///   that touches the segment — exactly the faults a one-by-one issue
    ///   order would take.
    /// * Adjacent frame chunks on the same holder and direction coalesce
    ///   into single DRAM runs and single fabric transfers, up to one
    ///   frame ([`FRAME_BYTES`]) per run so long payloads still pipeline
    ///   across the two-wire fabric path.
    /// * Each (holder, direction) pair carries one pipelined fabric stream
    ///   charged per-stream overheads once; the batch completes at the max
    ///   over streams, not the sum of serialized ops.
    ///
    /// Failure semantics are atomic: every op is validated (bounds, liveness
    /// of requester and holders, fabric ports) before anything commits, so
    /// an error means no counter, DRAM occupancy, or fabric traffic was
    /// charged. Translation-cache refills from the validation phase do
    /// persist, as they would for a failed single op.
    pub fn access_batch(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        requester: NodeId,
        ops: &[BatchOp],
    ) -> Result<BatchResult, PoolError> {
        self.access_batch_banded(fabric, now, requester, ops, Band::Normal)
    }

    /// Tenant-aware timed access: admission control first, then the
    /// tenant's priority band. A rejected op charges nothing — no
    /// counters, DRAM occupancy, or fabric traffic — and surfaces as the
    /// recoverable [`PoolError::AdmissionRejected`]. A malformed op is
    /// refused before admission and spends no token; an op that fails after
    /// admission, on a crashed holder or a downed fabric port, has spent
    /// its token.
    #[allow(clippy::too_many_arguments)]
    pub fn access_as(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        tenant: TenantId,
        requester: NodeId,
        addr: LogicalAddr,
        len: u64,
        op: MemOp,
    ) -> Result<PoolAccess, PoolError> {
        let batch = [BatchOp { addr, len, op }];
        let mut r = self.access_batch_as(fabric, now, tenant, requester, &batch)?;
        r.ops
            .pop()
            .ok_or(PoolError::Internal("batch of one returned no op"))
    }

    /// Tenant-aware [`LogicalPool::access_batch`]: the whole batch is
    /// admitted or rejected as a unit (one token per op), then issued on
    /// the tenant's configured band. Without any configured QoS this is
    /// byte-identical to the tenant-blind path.
    ///
    /// A malformed batch (unknown or crashed requester, zero-length or
    /// out-of-bounds op, unknown segment) is refused before admission and
    /// spends no token. A batch that fails after admission, on a crashed
    /// holder or a downed fabric port, has spent its tokens.
    fn access_batch_as(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        tenant: TenantId,
        requester: NodeId,
        ops: &[BatchOp],
    ) -> Result<BatchResult, PoolError> {
        self.check_request(requester, ops)?;
        if let Some(q) = self.qos.as_deref_mut() {
            if !q.admission.admit(now, tenant, ops.len() as u64) {
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.note_admission_rejected(tenant);
                }
                return Err(PoolError::AdmissionRejected(tenant));
            }
        }
        let band = self.tenant_band(tenant);
        self.run_batch(fabric, now, requester, ops, band)
    }

    /// [`LogicalPool::access_batch`] with an explicit fabric priority
    /// band. With bands disabled on the fabric (the default) the band is
    /// ignored and the schedule is byte-identical to the plain path.
    fn access_batch_banded(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        requester: NodeId,
        ops: &[BatchOp],
        band: Band,
    ) -> Result<BatchResult, PoolError> {
        self.check_request(requester, ops)?;
        self.run_batch(fabric, now, requester, ops, band)
    }

    /// [`LogicalPool::access_batch_banded`] for a batch that passed
    /// [`LogicalPool::check_request`].
    fn run_batch(
        &mut self,
        fabric: &mut Fabric,
        now: SimTime,
        requester: NodeId,
        ops: &[BatchOp],
        band: Band,
    ) -> Result<BatchResult, PoolError> {
        if ops.is_empty() {
            return Ok(BatchResult {
                complete: now,
                dram_done: now,
                ops: Vec::new(),
                local_bytes: 0,
                remote_bytes: 0,
                faults: 0,
                holder_done: Vec::new(),
            });
        }
        let mut plan = std::mem::take(&mut self.plan);
        plan.clear();
        let result = self.plan_batch(&mut plan, fabric, now, requester, ops, band);
        self.plan = plan;
        result
    }

    /// Validate, plan and commit a nonempty batch in `plan`'s cleared
    /// buffers.
    fn plan_batch(
        &mut self,
        plan: &mut Plan,
        fabric: &mut Fabric,
        now: SimTime,
        requester: NodeId,
        ops: &[BatchOp],
        band: Band,
    ) -> Result<BatchResult, PoolError> {
        let Plan {
            locs,
            chunks,
            frames,
            runs,
            sizes,
        } = plan;
        // ---- validate: nothing is charged until every op clears ----
        let idle = PoolAccess {
            complete: now,
            local_bytes: 0,
            remote_bytes: 0,
            faults: 0,
        };
        let mut accesses = vec![idle; ops.len()];
        for (o, a) in ops.iter().zip(&mut accesses) {
            let seg = o.addr.segment;
            let Err(pos) = locs.binary_search_by_key(&seg, |&(s, _)| s) else {
                continue;
            };
            let (loc, faults) = self.translate(requester, seg)?;
            if self.nodes[loc.server.0 as usize].is_failed() {
                return Err(PoolError::SegmentLost(seg));
            }
            // The fabric's port state can lag the pool's crash state by a
            // simulated detection delay under fault injection. Checking
            // ports up front keeps the commit below infallible, so a failed
            // access never leaves partially-bumped counters behind.
            if loc.server != requester {
                if fabric.is_port_down(requester) {
                    return Err(PoolError::ServerDown(requester));
                }
                if fabric.is_port_down(loc.server) {
                    return Err(PoolError::SegmentLost(seg));
                }
            }
            locs.insert(pos, (seg, loc));
            a.faults = faults;
        }

        // ---- plan: one chunk list in stream order, runs as ranges ----
        for (i, o) in ops.iter().enumerate() {
            let seg = o.addr.segment;
            let holder = locs
                .binary_search_by_key(&seg, |&(s, _)| s)
                .map(|pos| locs[pos].1.server)
                .map_err(|_| PoolError::Internal("batch op's segment was not translated"))?;
            for (k, (frame_idx, within, bytes)) in frame_chunks(o.addr, o.len).enumerate() {
                let frame = self.locals[holder.0 as usize]
                    .resolve(seg, frame_idx)
                    .ok_or(PoolError::Internal(
                        "fine map missing frame of live segment",
                    ))?;
                chunks.push(Chunk {
                    holder: holder.0,
                    write: matches!(o.op, MemOp::Write),
                    seg,
                    start: frame_idx * FRAME_BYTES + within,
                    op: i,
                    first: k == 0,
                    bytes,
                    frame,
                });
            }
        }
        // Streams are (holder, direction) pairs in node order, reads
        // first; within a stream chunks follow segment position. Keys are
        // unique (an op's chunks have distinct offsets), so the unstable
        // sort is deterministic.
        chunks.sort_unstable_by_key(Chunk::key);
        frames.extend(chunks.iter().map(|c| c.frame));
        // Coalesce byte-contiguous chunks of one stream and segment into
        // runs of at most one frame, so a run is a realistic DRAM burst
        // and fabric streams keep chunk-level wire pipelining.
        for (ci, c) in chunks.iter().enumerate() {
            match runs.last_mut() {
                Some(r)
                    if chunks[r.lo].stream() == c.stream()
                        && chunks[r.lo].seg == c.seg
                        && r.end == c.start
                        && r.bytes + c.bytes <= FRAME_BYTES =>
                {
                    r.hi = ci + 1;
                    r.end += c.bytes;
                    r.bytes += c.bytes;
                }
                _ => runs.push(Run {
                    lo: ci,
                    hi: ci + 1,
                    end: c.start + c.bytes,
                    bytes: c.bytes,
                    done: now,
                }),
            }
        }

        // ---- commit: per stream, DRAM runs then one fabric stream ----
        let mut dram_done = now;
        // One entry per holder, in node order: a holder completes at the
        // max over its streams, one schedulable event per holder.
        let mut holder_done: Vec<(NodeId, SimTime)> = Vec::new();
        for stream in runs.chunk_by_mut(|a, b| chunks[a.lo].stream() == chunks[b.lo].stream()) {
            let members = &chunks[stream[0].lo..stream[stream.len() - 1].hi];
            let (holder_idx, is_write) = members[0].stream();
            let holder = NodeId(holder_idx);
            let local = holder == requester;

            // One DRAM occupancy per run, all issued at `now` (independent
            // cache-line streams pipeline in hardware); each pre-coalescing
            // chunk still contributes its hotness sample and pool counter,
            // so accounting matches a one-by-one issue order exactly.
            for r in stream.iter_mut() {
                r.done = self.nodes[holder_idx as usize]
                    .access_run(now, r.bytes, requester.0, local, &frames[r.lo..r.hi])
                    .complete;
                dram_done = dram_done.max(r.done);
            }
            if local {
                self.local_accesses.add(members.len() as u64);
            } else {
                self.remote_accesses.add(members.len() as u64);
                sizes.clear();
                sizes.extend(stream.iter().map(|r| r.bytes));
                let stream_ops = members.iter().filter(|c| c.first).count() as u64;
                let op = if is_write { MemOp::Write } else { MemOp::Read };
                // Unreachable after the port pre-flight (port state cannot
                // change mid-call); kept as defence in depth.
                let bt = fabric
                    .transfer_batch_banded(now, requester, holder, op, sizes, stream_ops, band)
                    .map_err(|e| match e {
                        FabricError::RequesterDown(n) => PoolError::ServerDown(n),
                        FabricError::HolderDown(_) => PoolError::SegmentLost(members[0].seg),
                        FabricError::Contract(why) => PoolError::Internal(why),
                    })?;
                for (r, &done) in stream.iter_mut().zip(&bt.chunk_done) {
                    r.done = r.done.max(done);
                }
            }
            let stream_done = stream.iter().fold(now, |t, r| t.max(r.done));
            match holder_done.last_mut() {
                Some((h, t)) if *h == holder => *t = (*t).max(stream_done),
                _ => holder_done.push((holder, stream_done)),
            }
            for r in stream.iter() {
                for c in &chunks[r.lo..r.hi] {
                    let a = &mut accesses[c.op];
                    a.complete = a.complete.max(r.done);
                    if local {
                        a.local_bytes += c.bytes;
                    } else {
                        a.remote_bytes += c.bytes;
                    }
                }
            }
        }

        let mut result = BatchResult {
            complete: now,
            dram_done,
            ops: accesses,
            local_bytes: 0,
            remote_bytes: 0,
            faults: 0,
            holder_done,
        };
        for a in &result.ops {
            result.complete = result.complete.max(a.complete);
            result.local_bytes += a.local_bytes;
            result.remote_bytes += a.remote_bytes;
            result.faults += a.faults;
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.on_batch(now, requester, ops, &result.ops, dram_done, result.complete);
        }
        Ok(result)
    }

    // ----- repeating already-timed batches (scan fast-forward) -----
    //
    // A scan that settles into rounds repeating relative to the clock
    // skips whole rounds: their DRAM runs and fabric streams are charged
    // in bulk ([`DramChannel::fast_forward`], [`Fabric::fast_forward`],
    // [`MemoryNode::add_runs`]), and these three account the rest of what
    // `access_batch` would have done for them.
    //
    // [`DramChannel::fast_forward`]: lmp_mem::DramChannel::fast_forward
    // [`MemoryNode::add_runs`]: lmp_mem::MemoryNode::add_runs

    /// Whether every translation in `lookups` that batches from
    /// `requester` make would be served without a fault: from a valid
    /// cached entry, or with no translation cache from the coarse map.
    /// Charges nothing.
    pub fn translations_hit(&self, requester: NodeId, lookups: &[SegmentId]) -> bool {
        let valid = |seg: SegmentId, cached: Option<SegmentLoc>| {
            self.global.peek(seg).is_some_and(|loc| {
                cached.is_none_or(|c| c == loc)
                    && self.locals.get(loc.server.0 as usize).is_some_and(|l| l.holds(seg))
            })
        };
        match self.tlbs.get(requester.0 as usize) {
            Some(Some(tlb)) => lookups.iter().all(|&s| tlb.peek(s).is_some_and(|c| valid(s, Some(c)))),
            Some(None) => lookups.iter().all(|&s| valid(s, None)),
            None => false,
        }
    }

    /// Repeat `rounds` times the translations `lookups` (in order) that
    /// repeated batches from `requester` make, when
    /// [`LogicalPool::translations_hit`] holds. Returns `false`, changing
    /// nothing, when one would miss or fault.
    pub fn repeat_translations(
        &mut self,
        requester: NodeId,
        lookups: &[SegmentId],
        rounds: u64,
    ) -> Result<bool, PoolError> {
        self.check_server(requester)?;
        if !self.translations_hit(requester, lookups) {
            return Ok(false);
        }
        match &mut self.tlbs[requester.0 as usize] {
            Some(tlb) => Ok(tlb.repeat_hits(lookups, rounds)),
            None => {
                self.global
                    .add_lookups((lookups.len() as u64).saturating_mul(rounds));
                Ok(true)
            }
        }
    }

    /// Account `count` back-to-back reads or writes of `len` bytes each
    /// from `addr` by `requester`, repeating already-timed batches: one
    /// hotness sample and one pool access per frame chunk, as
    /// [`LogicalPool::access_batch`] counts them. A frame gets one sample
    /// per op that touches it.
    pub fn repeat_chunks(
        &mut self,
        requester: NodeId,
        addr: LogicalAddr,
        len: u64,
        count: u64,
    ) -> Result<(), PoolError> {
        self.check_server(requester)?;
        let seg = addr.segment;
        let holder = self
            .global
            .peek(seg)
            .ok_or(PoolError::UnknownSegment(seg))?
            .server;
        let end = len
            .checked_mul(count)
            .and_then(|n| n.checked_add(addr.offset))
            .ok_or(PoolError::InvalidRequest("repeated ops overflow the address space"))?;
        if end == addr.offset {
            return Ok(());
        }
        let h = holder.0 as usize;
        let first = addr.offset / FRAME_BYTES;
        let frames = self.locals[h]
            .frames_of(seg)
            .get(first as usize..=((end - 1) / FRAME_BYTES) as usize)
            .ok_or(PoolError::Internal("fine map missing frame of live segment"))?;
        let hotness = self.nodes[h].hotness_mut();
        let mut chunks = 0;
        for (f, &frame) in (first..).zip(frames) {
            // Ops `lo..=hi` (counted from `addr`) touch this frame.
            let lo = (f * FRAME_BYTES).max(addr.offset) - addr.offset;
            let hi = ((f + 1) * FRAME_BYTES).min(end) - 1 - addr.offset;
            let n = hi / len - lo / len + 1;
            hotness.record(frame, requester.0, n);
            chunks += n;
        }
        if holder == requester {
            self.local_accesses.add(chunks);
        } else {
            self.remote_accesses.add(chunks);
        }
        Ok(())
    }

    /// With telemetry attached, record a repeated batch's instruments and
    /// spans: `ops` issued by `requester` at `now`, completing as
    /// `accesses` say, DRAM legs done at `dram_done`.
    pub fn repeat_telemetry(
        &mut self,
        now: SimTime,
        requester: NodeId,
        ops: &[BatchOp],
        accesses: &[PoolAccess],
        dram_done: SimTime,
    ) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            let complete = accesses.iter().fold(now, |t, a| t.max(a.complete));
            t.on_batch(now, requester, ops, accesses, dram_done, complete);
        }
    }

    /// Materialized write of `data` at `addr` (correctness path; no timing).
    pub fn write_bytes(&mut self, addr: LogicalAddr, data: &[u8]) -> Result<(), PoolError> {
        let loc = self.check_bounds(addr, data.len() as u64)?;
        if self.nodes[loc.server.0 as usize].is_failed() {
            return Err(PoolError::SegmentLost(addr.segment));
        }
        let mut cursor = 0usize;
        for (frame_idx, within, chunk) in frame_chunks(addr, data.len() as u64) {
            let frame = self.locals[loc.server.0 as usize]
                .resolve(addr.segment, frame_idx)
                .ok_or(PoolError::Internal("fine map missing frame of live segment"))?;
            self.nodes[loc.server.0 as usize].write_bytes(
                frame,
                within,
                &data[cursor..cursor + chunk as usize],
            );
            cursor += chunk as usize;
        }
        Ok(())
    }

    /// Borrowed read of `len` bytes at `addr`: the bytes as frame-bounded
    /// runs in address order, borrowed from the holder's frames without a
    /// copy. Bounds, the segment, the holder's liveness and every frame are
    /// checked before the first run exists, so a read that fails yields
    /// nothing. Each frame the read covers yields its written prefix as
    /// [`ReadRun::Bytes`], then the rest as one [`ReadRun::Zeros`]; an
    /// unmaterialized frame is one `Zeros` run. Runs start on the read's
    /// start, on frame boundaries and on the page boundary that ends a
    /// frame's prefix, so a read at an 8-aligned offset yields runs of
    /// whole u64 elements except for a short tail at its end.
    pub fn read_runs(&self, addr: LogicalAddr, len: u64) -> Result<ReadRuns<'_>, PoolError> {
        let loc = self.check_bounds(addr, len)?;
        let node = &self.nodes[loc.server.0 as usize];
        if node.is_failed() {
            return Err(PoolError::SegmentLost(addr.segment));
        }
        // In bounds, so `offset + len` cannot wrap.
        let first = addr.frame_index() as usize;
        let end = match len {
            0 => first,
            _ => (addr.offset + len).div_ceil(FRAME_BYTES) as usize,
        };
        let frames = self.locals[loc.server.0 as usize]
            .frames_of(addr.segment)
            .get(first..end)
            .ok_or(PoolError::Internal(
                "fine map missing frame of live segment",
            ))?;
        Ok(ReadRuns {
            node,
            frames: frames.iter(),
            within: addr.frame_offset() as usize,
            left: len as usize,
            zeros: 0,
        })
    }

    /// Materialized read of `len` bytes at `addr`: one allocation and one
    /// copy of [`Self::read_runs`], allocated only after the read checks.
    pub fn read_bytes(&self, addr: LogicalAddr, len: u64) -> Result<Vec<u8>, PoolError> {
        let runs = self.read_runs(addr, len)?;
        let mut out = Vec::with_capacity(len as usize);
        for run in runs {
            match run {
                ReadRun::Bytes(bytes) => out.extend_from_slice(bytes),
                ReadRun::Zeros(n) => out.resize(out.len() + n, 0),
            }
        }
        Ok(out)
    }

    /// Resize a server's shared budget (bytes, rounded down to frames) —
    /// the §4.5 flexibility knob.
    pub fn resize_shared(&mut self, server: NodeId, shared_bytes: u64) -> Result<(), PoolError> {
        self.check_server(server)?;
        if self.nodes[server.0 as usize].is_failed() {
            return Err(PoolError::ServerDown(server));
        }
        self.nodes[server.0 as usize]
            .split_mut()
            .resize_shared(shared_bytes / FRAME_BYTES)
            .map_err(|_| PoolError::Capacity {
                requested_frames: shared_bytes / FRAME_BYTES,
            })
    }

    /// Crash a server. Its pool shard vanishes; segments homed there become
    /// lost (until a protection layer restores them). Returns the affected
    /// segments.
    ///
    /// # Errors
    /// [`PoolError::InvalidRequest`] for an unknown server; nothing changes.
    pub fn crash_server(&mut self, server: NodeId) -> Result<Vec<SegmentId>, PoolError> {
        self.check_server(server)?;
        self.nodes[server.0 as usize].crash();
        Ok(self.global.segments_on(server))
    }

    /// Warm-revive a crashed server: memory contents and segment
    /// bookkeeping survive intact, so segments homed there resolve again.
    /// Only valid when the crash never destroyed DRAM ([`MemoryNode::crash`]
    /// retains contents; the model of a rack power/ToR loss). A rejoin
    /// whose warm claim is rejected must go through
    /// [`Self::restart_server`] instead.
    ///
    ///
    /// # Errors
    /// [`PoolError::InvalidRequest`] for an unknown server; nothing changes.
    ///
    /// [`MemoryNode::crash`]: lmp_mem::MemoryNode::crash
    pub fn revive_server(&mut self, server: NodeId) -> Result<(), PoolError> {
        self.check_server(server)?;
        self.nodes[server.0 as usize].revive();
        Ok(())
    }

    /// Restart a crashed server with empty memory. Segments still mapped
    /// to it died with its DRAM, so their bookkeeping is dropped here:
    /// later accesses surface [`PoolError::UnknownSegment`] instead of
    /// resolving into the recycled empty frames.
    ///
    /// # Errors
    /// [`PoolError::InvalidRequest`] for an unknown server; nothing changes.
    pub fn restart_server(&mut self, server: NodeId) -> Result<(), PoolError> {
        self.check_server(server)?;
        for seg in self.global.segments_on(server) {
            self.drop_segment_bookkeeping(seg);
        }
        self.nodes[server.0 as usize].restart();
        self.locals[server.0 as usize] = LocalMap::new();
        Ok(())
    }

    // ----- crate-internal hooks for migration & failure handling -----

    /// Failure handling: `replica`'s frames become `seg`'s (same length),
    /// and the replica id disappears. Used to promote a mirror after its
    /// primary's server crashed.
    pub(crate) fn promote_replica(
        &mut self,
        seg: SegmentId,
        replica: SegmentId,
    ) -> Result<(), PoolError> {
        let rloc = self
            .global
            .peek(replica)
            .ok_or(PoolError::Internal("replica segment unknown to global map"))?;
        let old = self.global.peek(seg).ok_or(PoolError::Internal(
            "promoted segment unknown to global map",
        ))?;
        let frames = self.locals[rloc.server.0 as usize]
            .remove(replica)
            .ok_or(PoolError::Internal("replica segment has no frames"))?;
        // Forget the segment's stale presence on its crashed home and
        // return its frames there, so a warm revive finds them free. The
        // replica was allocated at the segment's length, so the segment's
        // row keeps its length.
        self.release_frames(old.server, seg);
        self.locals[rloc.server.0 as usize].insert(seg, frames);
        self.global.remove(replica);
        self.global
            .relocate(seg, rloc.server)
            .ok_or(PoolError::Internal(
                "promoted segment unknown to global map",
            ))?;
        for tlb in self.tlbs.iter_mut().flatten() {
            tlb.invalidate(seg);
            tlb.invalidate(replica);
        }
        Ok(())
    }

    /// Failure handling: forget a segment whose contents died with a
    /// crashed server. Its frames return to that server's allocator, so a
    /// warm revive finds them free.
    pub(crate) fn drop_segment_bookkeeping(&mut self, seg: SegmentId) {
        if let Some(loc) = self.global.remove(seg) {
            self.release_frames(loc.server, seg);
        }
        for tlb in self.tlbs.iter_mut().flatten() {
            tlb.invalidate(seg);
        }
    }

    /// Failure handling: give `seg` fresh frames on `target` filled with
    /// `data` (reconstruction output), preserving its logical address.
    pub(crate) fn rehome_segment(
        &mut self,
        seg: SegmentId,
        target: NodeId,
        data: &[u8],
    ) -> Result<(), PoolError> {
        let len = self
            .segment_len(seg)
            .ok_or(PoolError::UnknownSegment(seg))?;
        if data.len() as u64 != len {
            return Err(PoolError::Internal("reconstruction length mismatch"));
        }
        let frames = len.div_ceil(FRAME_BYTES);
        let frame_ids = self.nodes[target.0 as usize]
            .alloc_many(RegionKind::Shared, frames)
            .map_err(|_| PoolError::Capacity {
                requested_frames: frames,
            })?;
        if let Some(old) = self.global.peek(seg) {
            self.release_frames(old.server, seg);
        }
        self.locals[target.0 as usize].insert(seg, frame_ids);
        self.global
            .relocate(seg, target)
            .ok_or(PoolError::Internal("rehomed segment unknown to global map"))?;
        for tlb in self.tlbs.iter_mut().flatten() {
            tlb.invalidate(seg);
        }
        self.fill_fresh(seg, data)
    }

    /// Protection: copy `src`'s bytes into `dst`, a segment of the same
    /// length on another live server that nothing has written yet. Each
    /// frame copies only its written prefix, so the copy reads like the
    /// source and is backed like it.
    pub(crate) fn copy_written(&mut self, src: SegmentId, dst: SegmentId) -> Result<(), PoolError> {
        let from = self.live_holder(src)?;
        let to = self.live_holder(dst)?;
        if from == to || self.segment_len(src) != self.segment_len(dst) {
            return Err(PoolError::Internal(
                "a copy needs equal-length segments on two servers",
            ));
        }
        let pairs: Vec<(FrameId, FrameId)> = self.locals[from.0 as usize]
            .frames_of(src)
            .iter()
            .copied()
            .zip(self.locals[to.0 as usize].frames_of(dst).iter().copied())
            .collect();
        let (a, b) = self.two_nodes(from, to);
        for (sf, df) in pairs {
            if let Some(written) = a.frame_bytes(sf) {
                b.write_bytes(df, 0, written);
            }
        }
        Ok(())
    }

    /// Protection: write `data` over all of `seg`, a segment nothing has
    /// written yet, each frame only up to its last nonzero byte. The rest
    /// of a fresh frame reads as zeros already, so a zero tail stays
    /// unbacked and a zero frame unmaterialized.
    pub(crate) fn fill_fresh(&mut self, seg: SegmentId, data: &[u8]) -> Result<(), PoolError> {
        let server = self.live_holder(seg)?;
        if self.segment_len(seg) != Some(data.len() as u64) {
            return Err(PoolError::Internal(
                "fill length differs from the segment's",
            ));
        }
        let node = &mut self.nodes[server.0 as usize];
        let frames = self.locals[server.0 as usize].frames_of(seg);
        for (f, chunk) in frames.iter().zip(data.chunks(FRAME_BYTES as usize)) {
            if let Some(last) = chunk.iter().rposition(|&b| b != 0) {
                node.write_bytes(*f, 0, &chunk[..=last]);
            }
        }
        Ok(())
    }

    /// The holder of `seg`, which must be up.
    fn live_holder(&self, seg: SegmentId) -> Result<NodeId, PoolError> {
        let server = self.holder_of(seg).ok_or(PoolError::UnknownSegment(seg))?;
        if self.nodes[server.0 as usize].is_failed() {
            return Err(PoolError::SegmentLost(seg));
        }
        Ok(server)
    }

    /// Remove `seg`'s frame list from `server`'s fine map and return the
    /// frames that are still allocated to that server's allocator, in one
    /// call; a frame that is free already stays free.
    fn release_frames(&mut self, server: NodeId, seg: SegmentId) {
        let Some(mut frames) = self.locals[server.0 as usize].remove(seg) else {
            return;
        };
        let node = &mut self.nodes[server.0 as usize];
        if node.free_many(&frames).is_err() {
            frames.retain(|&f| node.split().kind_of(f).is_some());
            // lmp-lint: allow(swallowed-error) — a fine-map list names each
            // frame once and only allocated ones are left, so nothing can
            // refuse this call.
            let _ = node.free_many(&frames);
        }
    }

    pub(crate) fn global_mut(&mut self) -> &mut GlobalMap {
        &mut self.global
    }

    pub(crate) fn local_mut(&mut self, id: NodeId) -> &mut LocalMap {
        &mut self.locals[id.0 as usize]
    }

    pub(crate) fn node_raw(&mut self, id: NodeId) -> &mut MemoryNode {
        &mut self.nodes[id.0 as usize]
    }

    pub(crate) fn two_nodes(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> (&mut MemoryNode, &mut MemoryNode) {
        // lmp-lint: allow(no-panic) — aliasing precondition: `a == b` would
        // hand out two `&mut` to one node. Every caller checks it first.
        assert_ne!(a, b);
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if ai < bi {
            let (lo, hi) = self.nodes.split_at_mut(bi);
            (&mut lo[ai], &mut hi[0])
        } else {
            let (lo, hi) = self.nodes.split_at_mut(ai);
            (&mut hi[0], &mut lo[bi])
        }
    }
}

/// One run of a borrowed read, from [`LogicalPool::read_runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRun<'a> {
    /// Bytes lent from a frame's written prefix.
    Bytes(&'a [u8]),
    /// This many bytes past a frame's written prefix, which read as zeros.
    Zeros(usize),
}

/// The runs of one checked read, from [`LogicalPool::read_runs`].
#[derive(Debug)]
pub struct ReadRuns<'a> {
    node: &'a MemoryNode,
    /// The frames still to visit, in address order.
    frames: std::slice::Iter<'a, FrameId>,
    /// Where the read starts in the next frame: nonzero only in the first.
    within: usize,
    /// Bytes of frames not yet visited.
    left: usize,
    /// Zero bytes owed from the frame just lent: its bytes past the
    /// written prefix.
    zeros: usize,
}

impl<'a> Iterator for ReadRuns<'a> {
    type Item = ReadRun<'a>;

    fn next(&mut self) -> Option<ReadRun<'a>> {
        if self.zeros > 0 {
            return Some(ReadRun::Zeros(std::mem::take(&mut self.zeros)));
        }
        let frame = *self.frames.next()?;
        let within = std::mem::take(&mut self.within);
        let chunk = self.left.min(FRAME_BYTES as usize - within);
        self.left -= chunk;
        let written = self
            .node
            .frame_bytes(frame)
            .and_then(|p| p.get(within..))
            .unwrap_or(&[]);
        let run = &written[..chunk.min(written.len())];
        if run.is_empty() {
            return Some(ReadRun::Zeros(chunk));
        }
        self.zeros = chunk - run.len();
        Some(ReadRun::Bytes(run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::LinkProfile;

    fn small_pool() -> (LogicalPool, Fabric) {
        let cfg = PoolConfig {
            servers: 4,
            capacity_per_server: 32 * FRAME_BYTES,
            shared_per_server: 16 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 64,
        };
        let fabric = Fabric::new(LinkProfile::link1(), 4);
        (LogicalPool::new(cfg), fabric)
    }

    #[test]
    fn alloc_places_on_requested_server() {
        let (mut p, _) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        assert_eq!(p.holder_of(seg), Some(NodeId(2)));
        assert_eq!(p.segment_len(seg), Some(FRAME_BYTES));
        assert_eq!(p.node(NodeId(2)).split().shared_used(), 1);
    }

    #[test]
    fn alloc_most_free_balances() {
        let (mut p, _) = small_pool();
        let a = p.alloc(4 * FRAME_BYTES, Placement::MostFree).unwrap();
        let b = p.alloc(4 * FRAME_BYTES, Placement::MostFree).unwrap();
        assert_ne!(p.holder_of(a), p.holder_of(b));
    }

    #[test]
    fn round_robin_rotates() {
        let (mut p, _) = small_pool();
        let homes: Vec<_> = (0..4)
            .map(|_| {
                let s = p.alloc(FRAME_BYTES, Placement::RoundRobin).unwrap();
                p.holder_of(s).unwrap()
            })
            .collect();
        assert_eq!(homes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn local_first_overflows() {
        let (mut p, _) = small_pool();
        // Fill server 0's 16 shared frames.
        p.alloc(16 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let seg = p
            .alloc(FRAME_BYTES, Placement::LocalFirst(NodeId(0)))
            .unwrap();
        assert_ne!(p.holder_of(seg), Some(NodeId(0)));
    }

    #[test]
    fn capacity_error_when_full() {
        let (mut p, _) = small_pool();
        for _ in 0..4 {
            p.alloc(16 * FRAME_BYTES, Placement::MostFree).unwrap();
        }
        assert!(matches!(
            p.alloc(FRAME_BYTES, Placement::MostFree),
            Err(PoolError::Capacity { .. })
        ));
    }

    #[test]
    fn free_returns_frames() {
        let (mut p, _) = small_pool();
        let seg = p.alloc(8 * FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        assert_eq!(p.free_shared_frames(NodeId(1)), 8);
        p.free(seg).unwrap();
        assert_eq!(p.free_shared_frames(NodeId(1)), 16);
        assert!(matches!(p.free(seg), Err(PoolError::UnknownSegment(_))));
    }

    #[test]
    fn local_access_is_fast_and_counted() {
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let a = p
            .access(
                &mut f,
                SimTime::ZERO,
                NodeId(0),
                LogicalAddr::new(seg, 0),
                64,
                MemOp::Read,
            )
            .unwrap();
        assert_eq!(a.local_bytes, 64);
        assert_eq!(a.remote_bytes, 0);
        // Local DRAM latency only.
        assert!(a.complete.as_nanos() < 200, "local access too slow: {a:?}");
        assert_eq!(p.access_counts(), (1, 0));
    }

    #[test]
    fn remote_access_pays_fabric() {
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let a = p
            .access(
                &mut f,
                SimTime::ZERO,
                NodeId(0),
                LogicalAddr::new(seg, 0),
                64,
                MemOp::Read,
            )
            .unwrap();
        assert_eq!(a.remote_bytes, 64);
        assert!(a.complete.as_nanos() >= 261, "missing Link1 latency: {a:?}");
        assert_eq!(p.access_counts(), (0, 1));
    }

    #[test]
    fn multi_frame_access_spans() {
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(3 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let a = p
            .access(
                &mut f,
                SimTime::ZERO,
                NodeId(0),
                LogicalAddr::new(seg, FRAME_BYTES - 100),
                200,
                MemOp::Read,
            )
            .unwrap();
        assert_eq!(a.local_bytes, 200);
        assert_eq!(p.access_counts(), (2, 0), "two frames touched");
    }

    #[test]
    fn bounds_checked() {
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(100, Placement::On(NodeId(0))).unwrap();
        let r = p.access(
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 90),
            11,
            MemOp::Read,
        );
        assert!(matches!(r, Err(PoolError::OutOfBounds { .. })));
    }

    #[test]
    fn materialized_round_trip() {
        let (mut p, _) = small_pool();
        let seg = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(3))).unwrap();
        let addr = LogicalAddr::new(seg, FRAME_BYTES - 2);
        p.write_bytes(addr, b"boundary-crossing payload").unwrap();
        assert_eq!(
            p.read_bytes(addr, 25).unwrap(),
            b"boundary-crossing payload"
        );
    }

    #[test]
    fn borrowed_read_equals_read_bytes() {
        let (mut p, _) = small_pool();
        let seg = p.alloc(3 * FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        // Frames 0 and 1 hold data; frame 2 is never written. Frame 1 is
        // written only in its first page.
        let fill: Vec<u8> = (0..64u8).collect();
        p.write_bytes(LogicalAddr::new(seg, FRAME_BYTES - 32), &fill)
            .unwrap();
        p.write_bytes(LogicalAddr::new(seg, 5), b"head").unwrap();
        p.write_bytes(LogicalAddr::new(seg, FRAME_BYTES + 4088), b"pagetail")
            .unwrap();
        let cold = p.alloc(5 * FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        // The read's bytes (`read_bytes` copies the runs), and each run's
        // length, negated for a `Zeros` run.
        let concat = |addr: LogicalAddr, len: u64| -> (Vec<u8>, Vec<i64>) {
            let runs = p.read_runs(addr, len).unwrap();
            let shape = runs
                .map(|r| match r {
                    ReadRun::Bytes(b) => b.len() as i64,
                    ReadRun::Zeros(n) => -(n as i64),
                })
                .collect();
            (p.read_bytes(addr, len).unwrap(), shape)
        };
        // Across the frame boundary: one run per frame.
        let addr = LogicalAddr::new(seg, FRAME_BYTES - 40);
        let (bytes, shape) = concat(addr, 80);
        assert_eq!(&bytes[8..72], &fill[..]);
        assert_eq!(shape, vec![40, 40]);
        // Across the end of frame 1's written prefix: the prefix, then
        // zeros.
        let addr = LogicalAddr::new(seg, FRAME_BYTES + 4096 - 24);
        let (bytes, shape) = concat(addr, 100);
        assert_eq!(&bytes[16..24], b"pagetail");
        assert!(bytes[..16].iter().chain(&bytes[24..]).all(|&b| b == 0));
        assert_eq!(shape, vec![24, -76]);
        // From inside frame 1's prefix across the unmaterialized frame:
        // one zero run per frame, however long.
        let addr = LogicalAddr::new(seg, FRAME_BYTES + 4000);
        let (_, shape) = concat(addr, 2 * FRAME_BYTES - 4000);
        let f = FRAME_BYTES as i64;
        assert_eq!(shape, vec![96, -(f - 4096), -f]);
        // The whole segment: frame 0 backed whole, frame 1's one-page
        // prefix and its zero tail, frame 2 one zero run.
        let whole = LogicalAddr::new(seg, 0);
        let (bytes, shape) = concat(whole, 3 * FRAME_BYTES);
        let mut want = vec![0u8; 3 * FRAME_BYTES as usize];
        want[5..9].copy_from_slice(b"head");
        let fu = FRAME_BYTES as usize;
        want[fu - 32..fu + 32].copy_from_slice(&fill);
        want[fu + 4088..fu + 4096].copy_from_slice(b"pagetail");
        assert!(bytes == want, "prefixes, then zeros");
        assert_eq!(shape, vec![f, 4096, -(f - 4096), -f]);
        // An unmaterialized read of N frames yields exactly N runs.
        let (bytes, shape) = concat(LogicalAddr::new(cold, 8), 5 * FRAME_BYTES - 8);
        assert!(bytes.iter().all(|&b| b == 0));
        assert_eq!(shape, vec![-(f - 8), -f, -f, -f, -f]);
        // An empty read yields nothing.
        assert_eq!(p.read_runs(LogicalAddr::new(seg, 7), 0).unwrap().count(), 0);
    }

    #[test]
    fn borrowed_read_fails_before_yielding() {
        let (mut p, _) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        let err = |p: &LogicalPool, addr: LogicalAddr, len: u64| {
            let runs = p.read_runs(addr, len).err();
            assert_eq!(runs, p.read_bytes(addr, len).err(), "read_bytes agrees");
            runs
        };
        let ghost = SegmentId(seg.0 + 1);
        assert_eq!(
            err(&p, LogicalAddr::new(ghost, 0), 1),
            Some(PoolError::UnknownSegment(ghost))
        );
        assert!(matches!(
            err(&p, LogicalAddr::new(seg, FRAME_BYTES - 1), 2),
            Some(PoolError::OutOfBounds { end, .. }) if end == FRAME_BYTES + 1
        ));
        // A length that would wrap, or abort the allocation in
        // `read_bytes`, is refused by the bounds check first.
        assert!(matches!(
            err(&p, LogicalAddr::new(seg, 0), u64::MAX),
            Some(PoolError::OutOfBounds { .. })
        ));
        p.crash_server(NodeId(2)).unwrap();
        assert_eq!(
            err(&p, LogicalAddr::new(seg, 0), 1),
            Some(PoolError::SegmentLost(seg))
        );
    }

    #[test]
    fn crash_makes_segments_lost() {
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        let affected = p.crash_server(NodeId(2)).unwrap();
        assert_eq!(affected, vec![seg]);
        let r = p.access(
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 0),
            64,
            MemOp::Read,
        );
        assert_eq!(r, Err(PoolError::SegmentLost(seg)));
        assert_eq!(p.free_shared_frames(NodeId(2)), 0);
        assert_eq!(p.pool_capacity_bytes(), 3 * 16 * FRAME_BYTES);
    }

    #[test]
    fn restart_after_loss_unmaps_segments() {
        let (mut p, _) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        p.crash_server(NodeId(1)).unwrap();
        p.restart_server(NodeId(1)).unwrap();
        // The lost segment's id is gone, not silently resolving into the
        // restarted server's empty memory.
        assert!(matches!(
            p.read_bytes(LogicalAddr::new(seg, 0), 1),
            Err(PoolError::UnknownSegment(_))
        ));
        // Capacity is fully reusable after the restart.
        assert_eq!(p.free_shared_frames(NodeId(1)), 16);
        assert!(p.alloc(16 * FRAME_BYTES, Placement::On(NodeId(1))).is_ok());
    }

    #[test]
    fn resize_shared_enables_larger_allocations() {
        let (mut p, _) = small_pool();
        assert!(p.alloc(20 * FRAME_BYTES, Placement::On(NodeId(0))).is_err());
        p.resize_shared(NodeId(0), 32 * FRAME_BYTES).unwrap();
        assert!(p.alloc(20 * FRAME_BYTES, Placement::On(NodeId(0))).is_ok());
    }

    #[test]
    fn tlb_serves_repeat_translations() {
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        for _ in 0..10 {
            p.access(
                &mut f,
                SimTime::ZERO,
                NodeId(0),
                LogicalAddr::new(seg, 0),
                64,
                MemOp::Read,
            )
            .unwrap();
        }
        let tlb = p.tlb(NodeId(0)).unwrap();
        assert_eq!(tlb.miss_count(), 1);
        assert_eq!(tlb.hit_count(), 9);
        // Global map consulted exactly once by this requester.
        assert_eq!(p.global_map().lookup_count(), 1);
    }

    #[test]
    fn huge_len_overflow_is_out_of_bounds() {
        // Regression: `offset + len` used to wrap, letting a hostile `len`
        // slip a near-2^64-byte access past the bounds check.
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let r = p.access(
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 1),
            u64::MAX,
            MemOp::Read,
        );
        assert!(
            matches!(r, Err(PoolError::OutOfBounds { .. })),
            "wrapping length must be rejected, got {r:?}"
        );
        assert_eq!(p.access_counts(), (0, 0), "nothing may be charged");
    }

    #[test]
    fn failed_multi_frame_access_charges_nothing() {
        // Regression: counters and DRAM accounting used to be bumped chunk
        // by chunk *before* the fabric could refuse a later chunk, so a
        // port dropping mid-access inflated the books. The access is now
        // atomic: validate everything, then commit.
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(3 * FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        // Warm the translation so the failed attempt takes the fast path.
        p.access(
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 0),
            64,
            MemOp::Read,
        )
        .unwrap();
        let counts_before = p.access_counts();
        let dram_before = p.node(NodeId(1)).dram().access_count();
        f.set_port_down(NodeId(1), true);
        let r = p.access(
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 0),
            3 * FRAME_BYTES,
            MemOp::Write,
        );
        assert_eq!(r, Err(PoolError::SegmentLost(seg)));
        assert_eq!(p.access_counts(), counts_before, "no counter inflation");
        assert_eq!(
            p.node(NodeId(1)).dram().access_count(),
            dram_before,
            "no DRAM occupancy charged for the failed access"
        );
        // The fabric saw no traffic from the refused access either.
        let (reads, writes) = (f.read_count(), f.write_count());
        f.set_port_down(NodeId(1), false);
        p.access(
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 0),
            3 * FRAME_BYTES,
            MemOp::Write,
        )
        .unwrap();
        assert_eq!(f.read_count(), reads);
        assert!(f.write_count() > writes);
    }

    #[test]
    fn batch_coalesces_and_splits_per_holder() {
        let (mut p, mut f) = small_pool();
        let near = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let far = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        let ops = [
            // Two adjacent chunks on the local holder: coalesce to one run.
            BatchOp::read(LogicalAddr::new(near, 0), 512),
            BatchOp::read(LogicalAddr::new(near, 512), 512),
            // One remote op spanning a frame boundary: two chunks.
            BatchOp::read(LogicalAddr::new(far, FRAME_BYTES - 256), 512),
            // A remote write: separate stream (direction differs).
            BatchOp::write(LogicalAddr::new(far, 0), 128),
        ];
        let r = p
            .access_batch(&mut f, SimTime::ZERO, NodeId(0), &ops)
            .unwrap();
        assert_eq!(r.ops.len(), 4);
        assert_eq!(r.local_bytes, 1024);
        assert_eq!(r.remote_bytes, 640);
        assert_eq!(r.ops[0].local_bytes, 512);
        assert_eq!(r.ops[2].remote_bytes, 512);
        assert_eq!(r.ops[3].remote_bytes, 128);
        // Pool counters count pre-coalescing chunks, exactly as a
        // one-by-one issue order would: 2 local + 3 remote.
        assert_eq!(p.access_counts(), (2, 3));
        // DRAM runs after coalescing: 1 local (adjacent pair merged); the
        // remote read's two frame chunks are byte-contiguous so they merge
        // too — 1 read run + 1 write run on the far holder.
        assert_eq!(p.node(NodeId(0)).dram().access_count(), 1);
        assert_eq!(p.node(NodeId(2)).dram().access_count(), 2);
        // One fabric stream per (holder, direction), charging the logical
        // op count: 1 read op + 1 write op.
        assert_eq!(f.read_count(), 1);
        assert_eq!(f.write_count(), 1);
        // The batch completes when its slowest op does.
        let slowest = r.ops.iter().map(|a| a.complete).max().unwrap();
        assert_eq!(r.complete, slowest);
        assert!(r.complete > SimTime::ZERO);
    }

    #[test]
    fn empty_batch_is_free() {
        let (mut p, mut f) = small_pool();
        let now = SimTime::from_nanos(42);
        let r = p.access_batch(&mut f, now, NodeId(0), &[]).unwrap();
        assert_eq!(r.complete, now);
        assert!(r.ops.is_empty());
        assert_eq!(p.access_counts(), (0, 0));
    }

    #[test]
    fn zero_length_op_is_refused_and_charges_nothing() {
        // Regression: a 0-byte read of a remote segment used to be
        // accepted. It took a TLB miss and counted in telemetry as a local
        // access, while the pool's own counters and the fabric saw nothing.
        let (mut p, mut f) = small_pool();
        p.attach_telemetry();
        let far = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let addr = LogicalAddr::new(far, 0);
        let r = p.access(&mut f, SimTime::ZERO, NodeId(0), addr, 0, MemOp::Read);
        assert_eq!(r, Err(PoolError::InvalidRequest("zero-length access")));
        // A batch holding one is refused whole, before translation.
        let batch = [BatchOp::read(addr, 64), BatchOp::write(addr.add(64), 0)];
        let r = p.access_batch(&mut f, SimTime::ZERO, NodeId(0), &batch);
        assert_eq!(r, Err(PoolError::InvalidRequest("zero-length access")));
        let tlb = p.tlb(NodeId(0)).unwrap();
        assert_eq!(
            (tlb.hit_count(), tlb.miss_count()),
            (0, 0),
            "no translation"
        );
        assert_eq!(p.global_map().lookup_count(), 0);
        assert_eq!(p.access_counts(), (0, 0));
        assert_eq!((f.read_count(), f.write_count()), (0, 0));
        assert_eq!(p.node(NodeId(1)).dram().access_count(), 0);
        let snap = p.telemetry().unwrap().snapshot();
        assert_eq!(snap.counter("pool.accesses.local", &[]), 0);
        assert_eq!(
            snap.counter("pool.accesses.local.by_server", &[("server", "0")]),
            0
        );
        assert_eq!(snap.counter("pool.ops.read", &[]), 0);
    }

    type Request<T> =
        fn(&mut LogicalPool, &mut Fabric, NodeId, LogicalAddr) -> Result<T, PoolError>;

    /// Send `req` from (or onto) the server ids one and six past the last
    /// on a pool holding one segment: each is refused as an unknown server,
    /// and the pool counters, fabric counters and rack snapshot stay
    /// unchanged.
    fn assert_unknown_server_refused<T: std::fmt::Debug>(req: Request<T>) {
        let (mut p, mut f) = small_pool();
        p.attach_telemetry();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let state = |p: &mut LogicalPool, f: &mut Fabric| {
            (
                p.access_counts(),
                (f.read_count(), f.write_count()),
                crate::observe::rack_snapshot(p, f, SimTime::ZERO).to_json(),
            )
        };
        let before = state(&mut p, &mut f);
        for unknown in [p.servers(), p.servers() + 5].map(NodeId) {
            let r = req(&mut p, &mut f, unknown, LogicalAddr::new(seg, 0));
            assert_eq!(r.unwrap_err(), PoolError::InvalidRequest("unknown server"));
            assert_eq!(state(&mut p, &mut f), before);
        }
    }

    #[test]
    fn alloc_on_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, _, n, _| p.alloc(FRAME_BYTES, Placement::On(n)));
        assert_unknown_server_refused(|p, _, n, _| p.alloc(FRAME_BYTES, Placement::LocalFirst(n)));
    }

    #[test]
    fn translate_for_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, _, n, a| p.translate(n, a.segment));
    }

    #[test]
    fn access_from_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, f, n, a| {
            p.access(f, SimTime::ZERO, n, a, 64, MemOp::Read)
        });
    }

    #[test]
    fn access_batch_from_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, f, n, a| {
            p.access_batch(f, SimTime::ZERO, n, &[BatchOp::read(a, 64)])
        });
    }

    #[test]
    fn access_batch_banded_from_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, f, n, a| {
            p.access_batch_banded(f, SimTime::ZERO, n, &[BatchOp::read(a, 64)], Band::High)
        });
    }

    #[test]
    fn access_as_from_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, f, n, a| {
            p.access_as(f, SimTime::ZERO, TenantId(1), n, a, 64, MemOp::Read)
        });
    }

    #[test]
    fn access_batch_as_from_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, f, n, a| {
            p.access_batch_as(f, SimTime::ZERO, TenantId(1), n, &[BatchOp::read(a, 64)])
        });
    }

    #[test]
    fn crash_of_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, _, n, _| p.crash_server(n));
    }

    #[test]
    fn revive_of_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, _, n, _| p.revive_server(n));
    }

    #[test]
    fn restart_of_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, _, n, _| p.restart_server(n));
    }

    #[test]
    fn resize_of_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, _, n, _| p.resize_shared(n, FRAME_BYTES));
    }

    #[test]
    fn migrate_to_unknown_server_is_refused() {
        assert_unknown_server_refused(|p, f, n, a| {
            crate::migrate::migrate_segment(p, f, SimTime::ZERO, a.segment, n)
        });
    }

    #[test]
    fn free_on_crashed_holder_returns_its_frames() {
        let (mut p, _) = small_pool();
        let seg = p.alloc(4 * FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
        p.write_bytes(LogicalAddr::new(seg, 0), b"doomed").unwrap();
        p.crash_server(NodeId(2)).unwrap();
        p.free(seg).unwrap();
        p.revive_server(NodeId(2)).unwrap();
        assert_eq!(p.free_shared_frames(NodeId(2)), 16);
        assert_eq!(p.node(NodeId(2)).materialized_frames(), 0);
    }

    /// A batch that fails partway through validation, after translating
    /// other segments, leaves nothing in the planner's reused buffers: the
    /// next batch plans exactly as on a fresh pool that only took the
    /// failed batch's translations.
    #[test]
    fn recovery_returns_the_crashed_homes_frames() {
        // Also when a frame of the segment was freed behind the fine
        // map's back: the frames still allocated return all the same.
        for freed_early in [false, true] {
            let (mut p, mut f) = small_pool();
            let seg = p.alloc(4 * FRAME_BYTES, Placement::On(NodeId(2))).unwrap();
            let mut prot = crate::failure::ProtectionManager::new();
            prot.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
            if freed_early {
                let first = p.local_map(NodeId(2)).frames_of(seg)[0];
                p.node_mut(NodeId(2)).free_many(&[first]).unwrap();
            }
            let affected = p.crash_server(NodeId(2)).unwrap();
            let report = prot.recover(&mut p, &mut f, SimTime::ZERO, NodeId(2), &affected);
            assert_eq!(report.promoted, vec![seg]);
            assert_ne!(p.holder_of(seg), Some(NodeId(2)));
            p.revive_server(NodeId(2)).unwrap();
            assert_eq!(p.free_shared_frames(NodeId(2)), 16, "{freed_early}");
            assert!(p.global_map().segments_on(NodeId(2)).is_empty());
        }
    }

    #[test]
    fn failed_batch_leaves_no_plan_behind() {
        let setup = || {
            let (mut p, f) = small_pool();
            p.attach_telemetry();
            let segs: Vec<SegmentId> = (1..4)
                .map(|n| p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(n))).unwrap())
                .collect();
            p.crash_server(NodeId(3)).unwrap();
            (p, f, segs)
        };
        let at = LogicalAddr::new;
        let valid = |s: &[SegmentId]| {
            [
                BatchOp::write(at(s[1], 0), 4096),
                BatchOp::read(at(s[0], FRAME_BYTES - 100), 200),
                BatchOp::read(at(s[1], 64), 64),
            ]
        };
        let state = |p: &mut LogicalPool, f: &mut Fabric| {
            let tlb = p.tlb(NodeId(0)).unwrap();
            (
                (tlb.hit_count(), tlb.miss_count(), tlb.stale_count()),
                p.global_map().lookup_count(),
                crate::observe::rack_snapshot(p, f, SimTime::ZERO).to_json(),
            )
        };

        let (mut a, mut fa, segs) = setup();
        let failing = [
            BatchOp::read(at(segs[0], 0), 64),
            BatchOp::write(at(segs[1], FRAME_BYTES - 8), 16),
            BatchOp::read(at(segs[2], 0), 64),
        ];
        let r = a.access_batch(&mut fa, SimTime::ZERO, NodeId(0), &failing);
        assert_eq!(r, Err(PoolError::SegmentLost(segs[2])));
        let got = a.access_batch(&mut fa, SimTime::ZERO, NodeId(0), &valid(&segs));

        let (mut b, mut fb, segs) = setup();
        for s in &segs {
            b.translate(NodeId(0), *s).unwrap();
        }
        let want = b.access_batch(&mut fb, SimTime::ZERO, NodeId(0), &valid(&segs));
        assert_eq!(got, want);
        assert_eq!(state(&mut a, &mut fa), state(&mut b, &mut fb));
    }

    #[test]
    fn malformed_tenant_op_spends_no_admission_token() {
        // Regression: an out-of-bounds op used to pass admission first,
        // spending the tenant's only token before it was refused.
        let (mut p, mut f) = small_pool();
        let tenant = TenantId(3);
        p.set_tenant_rate(
            tenant,
            TenantRate {
                ops_per_sec: 1,
                burst: 1,
            },
        );
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let now = SimTime::from_nanos(7);
        let past_end = LogicalAddr::new(seg, FRAME_BYTES);
        let r = p.access_as(&mut f, now, tenant, NodeId(0), past_end, 64, MemOp::Read);
        assert!(matches!(r, Err(PoolError::OutOfBounds { .. })), "{r:?}");
        let addr = LogicalAddr::new(seg, 0);
        let r = p.access_as(&mut f, now, tenant, NodeId(0), addr, 64, MemOp::Read);
        assert!(r.is_ok(), "the valid op must be admitted: {r:?}");
    }

    #[test]
    fn admission_rejects_over_limit_and_charges_nothing() {
        let (mut p, mut f) = small_pool();
        p.attach_telemetry();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let tenant = lmp_qos::TenantId(7);
        p.set_tenant_rate(
            tenant,
            lmp_qos::TenantRate {
                ops_per_sec: 1_000_000, // 1 op per µs
                burst: 2,
            },
        );
        let addr = LogicalAddr::new(seg, 0);
        for _ in 0..2 {
            p.access_as(&mut f, SimTime::ZERO, tenant, NodeId(0), addr, 64, MemOp::Read)
                .unwrap();
        }
        let counts = p.access_counts();
        let reads = f.read_count();
        let r = p.access_as(&mut f, SimTime::ZERO, tenant, NodeId(0), addr, 64, MemOp::Read);
        assert_eq!(r, Err(PoolError::AdmissionRejected(tenant)));
        assert_eq!(p.access_counts(), counts, "rejected op charges no counters");
        assert_eq!(f.read_count(), reads, "rejected op sends no fabric traffic");
        let snap = p.telemetry().unwrap().snapshot();
        assert_eq!(
            snap.counter("qos.admission_rejected", &[("tenant", "7")]),
            1
        );
        // After the bucket refills the tenant is served again.
        assert!(p
            .access_as(
                &mut f,
                SimTime::from_nanos(1_000),
                tenant,
                NodeId(0),
                addr,
                64,
                MemOp::Read
            )
            .is_ok());
    }

    #[test]
    fn unlimited_tenants_match_the_tenant_blind_path() {
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let addr = LogicalAddr::new(seg, 0);
        let a = p
            .access_as(
                &mut f,
                SimTime::ZERO,
                lmp_qos::TenantId(0),
                NodeId(0),
                addr,
                256,
                MemOp::Read,
            )
            .unwrap();
        let (mut p2, mut f2) = small_pool();
        let seg2 = p2.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let b = p2
            .access(
                &mut f2,
                SimTime::ZERO,
                NodeId(0),
                LogicalAddr::new(seg2, 0),
                256,
                MemOp::Read,
            )
            .unwrap();
        assert_eq!(a, b, "no QoS configured: identical timing");
        assert_eq!(p.tenant_band(lmp_qos::TenantId(0)), lmp_qos::Band::Normal);
    }

    #[test]
    fn whole_batch_is_admitted_or_rejected_as_a_unit() {
        let (mut p, mut f) = small_pool();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let tenant = lmp_qos::TenantId(1);
        p.set_tenant_rate(
            tenant,
            lmp_qos::TenantRate {
                ops_per_sec: 1_000,
                burst: 3,
            },
        );
        let op = BatchOp::read(LogicalAddr::new(seg, 0), 64);
        let four = [op, op, op, op];
        assert_eq!(
            p.access_batch_as(&mut f, SimTime::ZERO, tenant, NodeId(0), &four),
            Err(PoolError::AdmissionRejected(tenant)),
            "4 ops cannot fit a 3-token bucket"
        );
        // The failed batch consumed nothing: a 3-op batch still fits.
        let three = [op, op, op];
        assert!(p
            .access_batch_as(&mut f, SimTime::ZERO, tenant, NodeId(0), &three)
            .is_ok());
    }

    #[test]
    fn batch_beats_serialized_singles_on_remote_streams() {
        // The pipelining claim: a batch of remote reads completes earlier
        // than the same ops issued back-to-back, each waiting on the last.
        let ops_of = |segs: &[SegmentId]| -> Vec<BatchOp> {
            segs.iter()
                .map(|&s| BatchOp::read(LogicalAddr::new(s, 0), 256 * 1024))
                .collect()
        };
        let (mut p, mut f) = small_pool();
        let segs: Vec<_> = (1..4)
            .map(|s| p.alloc(FRAME_BYTES, Placement::On(NodeId(s))).unwrap())
            .collect();
        let batch = p
            .access_batch(&mut f, SimTime::ZERO, NodeId(0), &ops_of(&segs))
            .unwrap();

        let (mut p2, mut f2) = small_pool();
        let segs2: Vec<_> = (1..4)
            .map(|s| p2.alloc(FRAME_BYTES, Placement::On(NodeId(s))).unwrap())
            .collect();
        let mut serial = SimTime::ZERO;
        for op in ops_of(&segs2) {
            let a = p2
                .access(&mut f2, serial, NodeId(0), op.addr, op.len, op.op)
                .unwrap();
            serial = a.complete;
        }
        assert!(
            batch.complete < serial,
            "pipelined batch {:?} must beat serialized singles {:?}",
            batch.complete,
            serial
        );
    }
}
