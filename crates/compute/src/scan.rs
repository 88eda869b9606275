//! Multi-core streaming scans over pool memory.
//!
//! The paper's microbenchmark (§4.1) is "one server computes the sum of a
//! vector using 14 cores, where each core sums part of the vector". This
//! module models that access pattern: each core owns a slice and streams it
//! in chunks, issuing the next chunk when the previous completes (closed
//! loop). Bandwidth sharing and loaded latency then emerge from the DRAM
//! and fabric models rather than being computed in closed form.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, NodeId};
use lmp_sim::prelude::*;

/// Default chunk size a core keeps in flight. 2 MiB ≈ one frame: large
/// enough to amortize per-chunk latency, small enough to interleave cores.
pub const DEFAULT_CHUNK: u64 = 2 * MIB;

/// How a multi-core scan issues work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanParams {
    /// Parallel core streams.
    pub cores: u32,
    /// Bytes per outstanding chunk.
    pub chunk: u64,
    /// Peak demand of one core (a core cannot consume memory faster than
    /// it can stream-sum it; ~12.5 GB/s is typical of the paper's Xeon
    /// generation). 14 cores × 12.5 ≈ 175 GB/s of demand, comfortably
    /// saturating both the 97 GB/s socket and any fabric link.
    pub per_core: Bandwidth,
}

impl Default for ScanParams {
    fn default() -> Self {
        ScanParams {
            cores: 14,
            chunk: DEFAULT_CHUNK,
            per_core: Bandwidth::from_gbps(12.5),
        }
    }
}

impl ScanParams {
    /// Default pacing with a specific core count.
    pub fn with_cores(cores: u32) -> Self {
        ScanParams {
            cores,
            ..Self::default()
        }
    }

    /// [`PoolError::InvalidRequest`] for zero cores or a zero chunk size.
    pub fn check(&self) -> Result<(), PoolError> {
        if self.cores == 0 {
            return Err(PoolError::InvalidRequest("scan needs at least one core"));
        }
        if self.chunk == 0 {
            return Err(PoolError::InvalidRequest("scan needs a nonzero chunk size"));
        }
        Ok(())
    }
}

/// Outcome of one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// When the last core finished.
    pub complete: SimTime,
    /// Bytes served locally.
    pub local_bytes: u64,
    /// Bytes that crossed the fabric.
    pub remote_bytes: u64,
}

impl ScanOutcome {
    /// Achieved bandwidth for `total` bytes starting at `start`.
    pub fn bandwidth(&self, start: SimTime) -> Bandwidth {
        Bandwidth::measured(
            self.local_bytes + self.remote_bytes,
            self.complete.saturating_duration_since(start),
        )
    }

    /// Export this scan's byte accounting into a telemetry registry,
    /// labelled with `scan` (e.g. a workload phase name).
    pub fn export_into(&self, scan: &str, reg: &mut lmp_telemetry::MetricRegistry) {
        let labels = [("scan", scan)];
        reg.fill_counter_value("scan.bytes.local", &labels, self.local_bytes);
        reg.fill_counter_value("scan.bytes.remote", &labels, self.remote_bytes);
    }
}

/// Scan `len` bytes of `seg` starting at `offset`, from `server`, with
/// `params.cores` parallel paced streams of `params.chunk`-byte accesses.
///
/// A single-stripe special case of [`scan_ranges`], sharing its wave-batched
/// issue loop.
///
/// # Errors
/// [`PoolError::InvalidRequest`] for zero cores or a zero chunk size.
#[allow(clippy::too_many_arguments)]
pub fn scan_segment(
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    start: SimTime,
    server: NodeId,
    seg: SegmentId,
    offset: u64,
    len: u64,
    params: ScanParams,
) -> Result<ScanOutcome, PoolError> {
    scan_ranges(pool, fabric, start, server, &[(seg, offset, len)], params)
}

/// Scan a list of `(segment, offset, len)` ranges as one logical byte
/// stream — the shape of a vector striped across servers. Cores divide the
/// **concatenated** byte range evenly, so a core's slice may span stripes,
/// exactly like the paper's "each core sums part of the vector".
///
/// Cores that become ready at the same instant issue their chunks as one
/// scatter-gather batch ([`LogicalPool::access_batch`]): the opening wave —
/// every core's first chunk — rides one pipelined fabric stream per holder
/// instead of `cores` serialized transfers, and later waves re-form
/// whenever completions align. Pacing is per core: a core issues its next
/// chunk once its previous data has landed *and* it has finished
/// stream-summing it (closed loop).
///
/// # Errors
/// [`PoolError::InvalidRequest`] for zero cores or a zero chunk size —
/// scans run on recoverable paths, so a malformed request must surface as
/// an error rather than abort the process.
pub fn scan_ranges(
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    start: SimTime,
    server: NodeId,
    ranges: &[(SegmentId, u64, u64)],
    params: ScanParams,
) -> Result<ScanOutcome, PoolError> {
    params.check()?;
    let ScanParams { cores, chunk, per_core } = params;
    let total: u64 = ranges.iter().map(|r| r.2).sum();
    let mut outcome = ScanOutcome {
        complete: start,
        local_bytes: 0,
        remote_bytes: 0,
    };
    if total == 0 {
        return Ok(outcome);
    }
    // Map a global byte position to (segment, offset, bytes left in
    // stripe). `None` is impossible for positions below `total` (the only
    // ones the issue loop produces) but surfaces as a typed error rather
    // than a panic: scans run on recoverable paths.
    let locate = |pos: u64| -> Option<(SegmentId, u64, u64)> {
        let mut acc = 0;
        for (seg, off, len) in ranges {
            if pos < acc + len {
                return Some((*seg, off + (pos - acc), acc + len - pos));
            }
            acc += len;
        }
        None
    };
    let per_core_len = total / cores as u64;
    let remainder = total % cores as u64;
    // Per-core state: (next issue time, core, position, bytes left). Issues
    // must be admitted in global timestamp order — the link/DRAM busy
    // trackers model FIFO resources — so cores merge through a min-heap
    // rather than each running to completion.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, u64, u64)>> =
        std::collections::BinaryHeap::new();
    let mut cursor = 0u64;
    for c in 0..cores as u64 {
        let slice = per_core_len + if c < remainder { 1 } else { 0 };
        if slice > 0 {
            heap.push(std::cmp::Reverse((start, c, cursor, slice)));
        }
        cursor += slice;
    }
    while let Some(std::cmp::Reverse((now, c, pos, left))) = heap.pop() {
        // Gather the wave: every core ready at exactly `now` scans together.
        let mut wave = vec![(c, pos, left)];
        while let Some(&std::cmp::Reverse((t, c2, pos2, left2))) = heap.peek() {
            if t != now {
                break;
            }
            heap.pop();
            wave.push((c2, pos2, left2));
        }
        let mut ops = Vec::with_capacity(wave.len());
        let mut sizes = Vec::with_capacity(wave.len());
        for &(_, pos, left) in &wave {
            let (seg, seg_off, stripe_left) = locate(pos)
                .ok_or(PoolError::Internal("scan position beyond vector end"))?;
            let this = left.min(chunk).min(stripe_left);
            ops.push(BatchOp::read(LogicalAddr::new(seg, seg_off), this));
            sizes.push(this);
        }
        let batch = pool.access_batch(fabric, now, server, &ops)?;
        outcome.local_bytes += batch.local_bytes;
        outcome.remote_bytes += batch.remote_bytes;
        outcome.complete = outcome.complete.max(batch.complete);
        for (i, &(c, pos, left)) in wave.iter().enumerate() {
            let this = sizes[i];
            if left > this {
                // Closed loop with pacing: the core issues its next chunk
                // once the data lands *and* it has finished consuming this
                // chunk.
                let next = batch.ops[i]
                    .complete
                    .max(now + per_core.time_to_transfer(this));
                heap.push(std::cmp::Reverse((next, c, pos + this, left - this)));
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::LinkProfile;
    use lmp_mem::{DramProfile, FRAME_BYTES};

    fn setup(shared_frames: u64) -> (LogicalPool, Fabric) {
        let cfg = PoolConfig {
            servers: 4,
            capacity_per_server: (shared_frames + 2) * FRAME_BYTES,
            shared_per_server: shared_frames * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 64,
        };
        (
            LogicalPool::new(cfg),
            Fabric::new(LinkProfile::link1(), 4),
        )
    }

    #[test]
    fn local_scan_achieves_dram_bandwidth() {
        let (mut p, mut f) = setup(64);
        let len = 64 * FRAME_BYTES; // 128 MiB
        let seg = p.alloc(len, Placement::On(NodeId(0))).unwrap();
        let out = scan_segment(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), seg, 0, len, ScanParams::default(),
        )
        .unwrap();
        assert_eq!(out.remote_bytes, 0);
        let bw = out.bandwidth(SimTime::ZERO);
        assert!(
            (bw.as_gbps() - 97.0).abs() < 5.0,
            "local scan got {bw}, want ~97GB/s"
        );
    }

    #[test]
    fn remote_scan_capped_by_link() {
        let (mut p, mut f) = setup(64);
        let len = 64 * FRAME_BYTES;
        let seg = p.alloc(len, Placement::On(NodeId(1))).unwrap();
        let out = scan_segment(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), seg, 0, len, ScanParams::default(),
        )
        .unwrap();
        assert_eq!(out.local_bytes, 0);
        let bw = out.bandwidth(SimTime::ZERO);
        assert!(
            (bw.as_gbps() - 21.0).abs() < 2.0,
            "remote scan got {bw}, want ~21GB/s (Link1)"
        );
    }

    #[test]
    fn more_cores_do_not_exceed_resource_caps() {
        let (mut p, mut f) = setup(64);
        let len = 32 * FRAME_BYTES;
        let seg = p.alloc(len, Placement::On(NodeId(0))).unwrap();
        let few = scan_segment(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), seg, 0, len, ScanParams::with_cores(2),
        )
        .unwrap();
        let bw_few = few.bandwidth(SimTime::ZERO);
        let (mut p2, mut f2) = setup(64);
        let seg2 = p2.alloc(len, Placement::On(NodeId(0))).unwrap();
        let many = scan_segment(
            &mut p2, &mut f2, SimTime::ZERO, NodeId(0), seg2, 0, len, ScanParams::with_cores(28),
        )
        .unwrap();
        let bw_many = many.bandwidth(SimTime::ZERO);
        assert!(bw_many.as_gbps() <= 100.0, "exceeded DRAM cap: {bw_many}");
        // Both configurations saturate DRAM; allow a small tolerance for
        // pipeline-drain effects at the tail of the scan.
        assert!(
            bw_many.as_gbps() >= bw_few.as_gbps() * 0.95,
            "more cores much slower: {bw_many} vs {bw_few}"
        );
    }

    #[test]
    fn ranged_scan_mixes_local_and_remote() {
        let (mut p, mut f) = setup(32);
        let local = p.alloc(8 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let remote = p.alloc(24 * FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let ranges = [
            (local, 0, 8 * FRAME_BYTES),
            (remote, 0, 24 * FRAME_BYTES),
        ];
        let out = scan_ranges(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &ranges, ScanParams::default(),
        )
        .unwrap();
        assert_eq!(out.local_bytes, 8 * FRAME_BYTES);
        assert_eq!(out.remote_bytes, 24 * FRAME_BYTES);
        // 1/4 local at 97, 3/4 remote at 21: blended must be above pure
        // remote and below pure local.
        let bw = out.bandwidth(SimTime::ZERO).as_gbps();
        assert!(bw > 21.0 && bw < 97.0, "blended bandwidth {bw}");
    }

    #[test]
    fn ranged_scan_empty_is_instant() {
        let (mut p, mut f) = setup(4);
        let out = scan_ranges(&mut p, &mut f, SimTime::ZERO, NodeId(0), &[], ScanParams::with_cores(4)).unwrap();
        assert_eq!(out.complete, SimTime::ZERO);
        assert_eq!(out.local_bytes + out.remote_bytes, 0);
    }

    #[test]
    fn zero_cores_or_chunk_is_a_typed_error() {
        let (mut p, mut f) = setup(4);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let e = scan_segment(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), seg, 0, FRAME_BYTES,
            ScanParams { cores: 0, ..ScanParams::default() },
        )
        .unwrap_err();
        assert!(matches!(e, PoolError::InvalidRequest(_)), "{e:?}");
        let e = scan_segment(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), seg, 0, FRAME_BYTES,
            ScanParams { chunk: 0, ..ScanParams::default() },
        )
        .unwrap_err();
        assert!(matches!(e, PoolError::InvalidRequest(_)), "{e:?}");
    }

    #[test]
    fn byte_accounting_is_exact() {
        let (mut p, mut f) = setup(16);
        let len = 5 * FRAME_BYTES + 12345;
        let seg = p.alloc(len, Placement::On(NodeId(2))).unwrap();
        let out = scan_segment(
            &mut p, &mut f, SimTime::ZERO, NodeId(2), seg, 0, len, ScanParams { cores: 3, chunk: 1_000_000, ..ScanParams::default() },
        )
        .unwrap();
        assert_eq!(out.local_bytes + out.remote_bytes, len);
    }
}
