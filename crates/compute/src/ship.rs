//! Compute shipping (§4.4 "Near-memory Computing").
//!
//! Two strategies for reducing over a distributed vector:
//!
//! * **Pull** — the requesting server scans every stripe itself; remote
//!   stripes cross the fabric (this is what a physical pool always does,
//!   since the pool has no processors). All stripes share one
//!   [`scan_ranges`] call, so the requester's core budget is a property of
//!   the machine, not of the stripe count.
//! * **Ship** — each holding server scans its own stripes at local DRAM
//!   speed, in parallel, and only the small partial results cross the
//!   fabric. "The end result is an even larger performance improvement"
//!   (§4.4) — the `nearmem` bench quantifies it.
//!
//! Holders are re-resolved against the **live** pool mapping on every run:
//! a `DistVector` records where stripes lived at creation, but balancer
//! migrations and post-crash promotions move segments. Each relocation is
//! counted in the `compute.stale_holder` telemetry counter and in
//! [`ReduceOutcome::stale_holders`], and any bytes a supposedly-local
//! shipped scan still pulls across the fabric are charged honestly.

use crate::operator::fold_lanes;
use crate::placement::DistVector;
use crate::scan::{scan_ranges, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, FabricError, NodeId};
use lmp_sim::prelude::*;
use std::collections::BTreeMap;

/// Reduction operators over u64 little-endian elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum of all elements.
    Sum,
    /// Minimum element (u64::MAX when empty).
    Min,
    /// Maximum element (0 when empty).
    Max,
}

impl ReduceOp {
    /// Identity element.
    pub fn identity(self) -> u64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => u64::MAX,
            ReduceOp::Max => 0,
        }
    }

    /// Combine two partial results.
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Fold a byte slice as little-endian u64 elements (the tail shorter
    /// than 8 bytes is ignored, matching an element-aligned vector).
    pub fn fold_bytes(self, bytes: &[u8]) -> u64 {
        let id = self.identity();
        match self {
            ReduceOp::Sum => fold_lanes(bytes, id, u64::wrapping_add, u64::wrapping_add),
            ReduceOp::Min => fold_lanes(bytes, id, u64::min, u64::min),
            ReduceOp::Max => fold_lanes(bytes, id, u64::max, u64::max),
        }
    }
}

/// Execution strategy for a distributed reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The requester pulls all stripes and reduces them itself.
    Pull,
    /// The reduction ships to each stripe's holder; partials return.
    Ship,
}

/// Timing outcome of a distributed reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceOutcome {
    /// When the final result is available at the requester.
    pub complete: SimTime,
    /// Bytes that crossed the fabric (data + shipped results).
    pub fabric_bytes: u64,
    /// Bytes scanned at local speed by their holder.
    pub local_bytes: u64,
    /// Stripes whose live holder differed from the one recorded in the
    /// `DistVector` (migration or promotion since creation).
    pub stale_holders: u32,
}

impl ReduceOutcome {
    /// Effective scan bandwidth for `total` vector bytes from `start`.
    pub fn bandwidth(&self, total: u64, start: SimTime) -> Bandwidth {
        Bandwidth::measured(total, self.complete.saturating_duration_since(start))
    }
}

/// Live `(holder, segment, len)` stripes in logical order.
pub(crate) type LiveStripes = Vec<(NodeId, SegmentId, u64)>;

/// Resolve every stripe of `vector` against the live pool mapping,
/// bumping the `compute.stale_holder` counter for each relocation.
/// Returns the live `(holder, segment, len)` stripes in logical order plus
/// the relocation count.
///
/// # Errors
/// [`PoolError::UnknownSegment`] when a stripe's segment no longer exists.
pub(crate) fn live_stripes(
    pool: &mut LogicalPool,
    vector: &DistVector,
) -> Result<(LiveStripes, u32), PoolError> {
    let mut out = Vec::with_capacity(vector.stripes.len());
    let mut stale = 0u32;
    for (recorded, seg, len) in &vector.stripes {
        let live = pool
            .holder_of(*seg)
            .ok_or(PoolError::UnknownSegment(*seg))?;
        if live != *recorded {
            stale += 1;
            if let Some(t) = pool.telemetry_mut() {
                t.note_stale_holder();
            }
        }
        out.push((live, *seg, *len));
    }
    Ok((out, stale))
}

/// Ship `bytes` of results from `holder` back to `requester` at `when`.
pub(crate) fn ship_result(
    fabric: &mut Fabric,
    when: SimTime,
    holder: NodeId,
    requester: NodeId,
    bytes: u64,
) -> Result<SimTime, PoolError> {
    fabric
        .try_write(when, holder, requester, bytes)
        .map(|c| c.complete)
        .map_err(|e| match e {
            FabricError::RequesterDown(n) => PoolError::ServerDown(n),
            FabricError::HolderDown(n) => PoolError::ServerDown(n),
            FabricError::Contract(why) => PoolError::Internal(why),
        })
}

/// Group live stripes by holder, preserving logical order within each
/// holder. `BTreeMap` keeps the holder iteration order deterministic.
pub(crate) fn group_by_holder(
    stripes: &[(NodeId, SegmentId, u64)],
) -> BTreeMap<NodeId, Vec<(SegmentId, u64, u64)>> {
    let mut groups: BTreeMap<NodeId, Vec<(SegmentId, u64, u64)>> = BTreeMap::new();
    for (holder, seg, len) in stripes {
        groups.entry(*holder).or_default().push((*seg, 0, *len));
    }
    groups
}

/// Time a distributed reduction with the given strategy.
///
/// `params` applies per participating server: a Pull shares one core
/// budget across every stripe, a Ship gives each *holder* (not each
/// stripe) its own.
///
/// With one stripe per holder this is the timing of
/// [`Planner::execute`](crate::planner::Planner::execute) on a plan forced
/// to [`Choice::Fetch`](crate::planner::Choice::Fetch) (Pull) or
/// [`Choice::Ship`](crate::planner::Choice::Ship) (Ship). It stays because
/// `execute` also folds every stripe for its result: on a large
/// unmaterialized vector (the `nearmem` bench's 64 GiB) that fold costs far
/// more host time than the timing model, and `reduce_timed` skips it.
pub fn reduce_timed(
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    start: SimTime,
    requester: NodeId,
    vector: &DistVector,
    strategy: Strategy,
    params: ScanParams,
) -> Result<ReduceOutcome, PoolError> {
    let (stripes, stale) = live_stripes(pool, vector)?;
    let mut outcome = ReduceOutcome {
        complete: start,
        fabric_bytes: 0,
        local_bytes: 0,
        stale_holders: stale,
    };
    match strategy {
        Strategy::Pull => {
            // One scan over the concatenated stripes: the requester's
            // cores divide the whole vector, not each stripe.
            let ranges: Vec<(SegmentId, u64, u64)> =
                stripes.iter().map(|(_, seg, len)| (*seg, 0, *len)).collect();
            let s = scan_ranges(pool, fabric, start, requester, &ranges, params)?;
            outcome.complete = outcome.complete.max(s.complete);
            outcome.fabric_bytes += s.remote_bytes;
            outcome.local_bytes += s.local_bytes;
        }
        Strategy::Ship => {
            for (holder, ranges) in group_by_holder(&stripes) {
                // The holder scans its stripes locally, in parallel with
                // the other holders. If a segment moved mid-run the scan's
                // remote bytes are charged honestly rather than asserted
                // away.
                let s = scan_ranges(pool, fabric, start, holder, &ranges, params)?;
                outcome.local_bytes += s.local_bytes;
                outcome.fabric_bytes += s.remote_bytes;
                // One 8-byte combined partial per holder travels back.
                let done = if holder == requester {
                    s.complete
                } else {
                    outcome.fabric_bytes += 8;
                    ship_result(fabric, s.complete, holder, requester, 8)?
                };
                outcome.complete = outcome.complete.max(done);
            }
        }
    }
    Ok(outcome)
}

/// Compute the actual reduction value from materialized stripe contents
/// (correctness path, no timing), scanning each stripe as borrowed runs.
pub fn reduce_value(
    pool: &LogicalPool,
    vector: &DistVector,
    op: ReduceOp,
) -> Result<u64, PoolError> {
    let mut acc = op.identity();
    for (_, seg, len) in &vector.stripes {
        for run in pool.read_runs(LogicalAddr::new(*seg, 0), *len)? {
            acc = op.combine(acc, op.fold_bytes(run));
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_ranges;
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
        (LogicalPool::new(cfg), Fabric::new(LinkProfile::link1(), 4))
    }

    #[test]
    fn op_folding() {
        let mut bytes = Vec::new();
        for v in [3u64, 9, 1] {
            bytes.extend(v.to_le_bytes());
        }
        assert_eq!(ReduceOp::Sum.fold_bytes(&bytes), 13);
        assert_eq!(ReduceOp::Min.fold_bytes(&bytes), 1);
        assert_eq!(ReduceOp::Max.fold_bytes(&bytes), 9);
        assert_eq!(ReduceOp::Sum.fold_bytes(&[]), 0);
    }

    #[test]
    fn value_matches_reference_for_both_strategies() {
        let (mut p, _) = setup(16);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 4 * FRAME_BYTES, &servers).unwrap();
        // Fill each stripe with known values.
        let mut reference = 0u64;
        for (i, (_, seg, _)) in v.stripes.iter().enumerate() {
            let vals: Vec<u64> = (0..100).map(|k| (i as u64 + 1) * 1000 + k).collect();
            let mut bytes = Vec::new();
            for x in &vals {
                bytes.extend(x.to_le_bytes());
                reference = reference.wrapping_add(*x);
            }
            p.write_bytes(LogicalAddr::new(*seg, 0), &bytes).unwrap();
            // Rest of the stripe is zero, contributing nothing to Sum.
        }
        assert_eq!(reduce_value(&p, &v, ReduceOp::Sum).unwrap(), reference);
    }

    #[test]
    fn shipping_beats_pulling_on_distributed_data() {
        let (mut p, mut f) = setup(64);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let len = 64 * FRAME_BYTES;
        let v = DistVector::stripe_even(&mut p, len, &servers).unwrap();

        let pull = reduce_timed(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &v, Strategy::Pull, ScanParams::default(),
        )
        .unwrap();
        let (mut p2, mut f2) = setup(64);
        let v2 = DistVector::stripe_even(&mut p2, len, &servers).unwrap();
        let ship = reduce_timed(
            &mut p2, &mut f2, SimTime::ZERO, NodeId(0), &v2, Strategy::Ship, ScanParams::default(),
        )
        .unwrap();

        assert!(
            ship.complete < pull.complete,
            "shipping {} should beat pulling {}",
            ship.complete,
            pull.complete
        );
        // Shipping moves only partial results; pulling moves 3/4 of data.
        assert!(ship.fabric_bytes <= 3 * 8);
        assert_eq!(pull.fabric_bytes, len * 3 / 4);
        assert_eq!(pull.stale_holders, 0);
        assert_eq!(ship.stale_holders, 0);
    }

    #[test]
    fn ship_on_single_local_stripe_equals_pull() {
        let (mut p, mut f) = setup(16);
        let v = DistVector::stripe_even(&mut p, 4 * FRAME_BYTES, &[NodeId(0)]).unwrap();
        let pull = reduce_timed(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &v, Strategy::Pull, ScanParams { cores: 4, chunk: MIB, ..ScanParams::default() },
        )
        .unwrap();
        let (mut p2, mut f2) = setup(16);
        let v2 = DistVector::stripe_even(&mut p2, 4 * FRAME_BYTES, &[NodeId(0)]).unwrap();
        let ship = reduce_timed(
            &mut p2, &mut f2, SimTime::ZERO, NodeId(0), &v2, Strategy::Ship, ScanParams { cores: 4, chunk: MIB, ..ScanParams::default() },
        )
        .unwrap();
        assert_eq!(pull.complete, ship.complete);
        assert_eq!(ship.fabric_bytes, 0);
    }

    #[test]
    fn pull_core_budget_is_shared_across_stripes() {
        // Regression for the over-provisioning bug: a 4-stripe pull used to
        // issue 4 independent scans, each with a fresh `params.cores`
        // budget. The pull must now cost exactly what one scan over the
        // concatenated ranges costs.
        let (mut p, mut f) = setup(32);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 16 * FRAME_BYTES, &servers).unwrap();
        let params = ScanParams::with_cores(4);
        let pull = reduce_timed(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &v, Strategy::Pull, params,
        )
        .unwrap();

        let (mut p2, mut f2) = setup(32);
        let v2 = DistVector::stripe_even(&mut p2, 16 * FRAME_BYTES, &servers).unwrap();
        let ranges: Vec<(SegmentId, u64, u64)> =
            v2.stripes.iter().map(|(_, seg, len)| (*seg, 0, *len)).collect();
        let reference = scan_ranges(
            &mut p2, &mut f2, SimTime::ZERO, NodeId(0), &ranges, params,
        )
        .unwrap();
        assert_eq!(pull.complete, reference.complete);
        assert_eq!(pull.fabric_bytes, reference.remote_bytes);
    }

    #[test]
    fn stale_holder_is_resolved_and_counted() {
        let (mut p, mut f) = setup(16);
        p.attach_telemetry();
        let servers = [NodeId(1), NodeId(2)];
        let v = DistVector::stripe_even(&mut p, 4 * FRAME_BYTES, &servers).unwrap();
        // Move the first stripe after the vector recorded its holder —
        // the balancer/recovery race the planner must survive.
        let (_, seg, _) = v.stripes[0];
        lmp_core::migrate::migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(3))
            .unwrap();
        let start = SimTime::from_nanos(10_000_000);
        let ship = reduce_timed(
            &mut p, &mut f, start, NodeId(0), &v, Strategy::Ship, ScanParams::with_cores(4),
        )
        .unwrap();
        assert_eq!(ship.stale_holders, 1);
        // The relocated stripe scanned locally on its *new* holder: only
        // the two 8-byte partials crossed the fabric.
        assert_eq!(ship.fabric_bytes, 2 * 8);
        assert_eq!(p.telemetry().unwrap().stale_holders(), 1);
        // A second run counts the (still-stale) record again.
        let again = reduce_timed(
            &mut p, &mut f, start, NodeId(0), &v, Strategy::Ship, ScanParams::with_cores(4),
        )
        .unwrap();
        assert_eq!(again.stale_holders, 1);
        assert_eq!(p.telemetry().unwrap().stale_holders(), 2);
    }

    #[test]
    fn shipped_scan_bandwidth_scales_with_servers() {
        // Aggregate shipped bandwidth approaches servers × local DRAM.
        let (mut p, mut f) = setup(64);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let len = 128 * FRAME_BYTES;
        let v = DistVector::stripe_even(&mut p, len, &servers).unwrap();
        let ship = reduce_timed(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &v, Strategy::Ship, ScanParams::default(),
        )
        .unwrap();
        let bw = ship.bandwidth(len, SimTime::ZERO);
        assert!(
            bw.as_gbps() > 300.0,
            "aggregate near-memory bandwidth only {bw}"
        );
    }
}
