//! Cost-based pushdown planning (ROADMAP item 4).
//!
//! The paper's Benefit 3 — "all accesses become local" — is only a win
//! when the shipped result is smaller than the scanned data *and* the
//! holder can spare the memory bandwidth. [`Planner`] decides ship vs
//! batched-fetch **per segment** from live state rather than folklore:
//!
//! * **Fabric backlog** — [`Fabric::estimate_read_completion`] chains the
//!   four FIFO `free_at` horizons, so a loaded holder up-wire pushes both
//!   estimates out by the queued backlog. What load actually moves is the
//!   crossover: the holder-local scan *hides under* the backlog drain
//!   (shipping's scan cost disappears when the result must queue anyway),
//!   so the break-even selectivity rises on loaded links.
//! * **Down-wire sharing** — all remote streams of one request funnel
//!   through the requester's down wire, so each segment's estimate also
//!   charges its peers' traffic once (fetch: their stripe bytes; ship:
//!   their result bytes — a consistent-choice approximation). The fetch
//!   estimate further credits one wire-time of its own bytes: the batch
//!   engine pipelines chunks across the two data hops, while a shipped
//!   result is one store-and-forward message that pays both hops serially
//!   (exactly what [`Fabric::try_write`] charges).
//! * **Holder memory pressure** — the holder's DRAM-channel utilization
//!   and foreign-accessor load from the access-bit tracker
//!   ([`HotnessMap::accessor_load`]) derate the holder-side scan rate: a
//!   busy holder makes shipping less attractive.
//! * **Operator selectivity** — [`Operator::estimate_return_bytes`] turns
//!   the caller's selectivity hint into an estimated result size; a filter
//!   returning 98% of its input has nothing to gain from shipping on an
//!   idle link.
//!
//! Execution resolves every segment against the **live** pool mapping
//! (plans outlive balancer migrations and post-crash promotions) and
//! checks every leg before it charges anything; each plan-to-execute
//! relocation then bumps `compute.stale_holder`. The result is folded
//! from borrowed frame runs of each stripe, never a copy. Fetched and
//! requester-local segments share a single [`scan_ranges`] core budget —
//! the batched-fetch baseline — while each remote holder runs its shipped
//! segments under its own budget and returns one result message, charged
//! through holder-side scan timing plus a fabric write of the *actual*
//! result bytes.
//!
//! [`HotnessMap::accessor_load`]: lmp_mem::HotnessMap::accessor_load

use crate::operator::{OpOutput, Operator};
use crate::placement::DistVector;
use crate::scan::{scan_ranges, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, FabricError, NodeId};
use lmp_sim::prelude::*;
use std::collections::BTreeMap;

/// Cost estimate for an unreachable path (port down): large enough to
/// always lose a comparison, small enough never to overflow later sums.
const UNREACHABLE_NS: u64 = u64::MAX / 4;

/// Foreign decayed-access count at which hotness pressure saturates. One
/// tracked access ≈ one remote touch of a frame since the last epoch tick;
/// past a few thousand the holder's channel is already contended.
const HOTNESS_SATURATION: f64 = 4096.0;

/// Per-segment execution choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// The segment lives on the requester: scan it in place.
    Local,
    /// Ship the operator to the holder; only the result returns.
    Ship,
    /// Fetch the bytes through the batched scan engine and run locally.
    Fetch,
}

/// One segment's plan entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPlan {
    /// The segment.
    pub seg: SegmentId,
    /// Live holder at plan time.
    pub holder: NodeId,
    /// Stripe length in bytes.
    pub len: u64,
    /// The planner's decision.
    pub choice: Choice,
    /// Estimated time-to-result if shipped (ns from plan instant).
    pub est_ship_ns: u64,
    /// Estimated time-to-result if fetched (ns from plan instant).
    pub est_fetch_ns: u64,
    /// Estimated shipped-result size in bytes.
    pub est_return_bytes: u64,
}

/// A pushdown plan over a distributed vector, in logical stripe order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Per-segment entries, in the vector's logical stripe order.
    pub segments: Vec<SegmentPlan>,
    /// Stripes whose live holder differed from the `DistVector` record at
    /// plan time.
    pub stale_holders: u32,
}

impl Plan {
    /// A copy with every remote segment forced to `choice` (requester-local
    /// segments stay [`Choice::Local`]). Forced to [`Choice::Fetch`] a plan
    /// pulls the data to the requester, forced to [`Choice::Ship`] it ships
    /// the operator to the data: the two endpoints the planner is judged
    /// against.
    pub fn forced(&self, choice: Choice) -> Plan {
        let mut out = self.clone();
        for sp in &mut out.segments {
            if sp.choice != Choice::Local {
                sp.choice = choice;
            }
        }
        out
    }

    /// Number of segments with the given choice.
    pub fn count(&self, choice: Choice) -> usize {
        self.segments.iter().filter(|s| s.choice == choice).count()
    }
}

/// Timing/accounting outcome of one planned pushdown execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushdownOutcome {
    /// When the merged result is available at the requester.
    pub complete: SimTime,
    /// Bytes that crossed the fabric (fetched data + shipped results +
    /// any remote bytes a relocated "local" scan was forced into).
    pub fabric_bytes: u64,
    /// Bytes scanned at local speed by their holder.
    pub local_bytes: u64,
    /// Size of the final merged result in bytes.
    pub result_bytes: u64,
    /// Segments executed by shipping to a remote holder.
    pub shipped_segments: u32,
    /// Segments fetched (or already local) and scanned at the requester.
    pub fetched_segments: u32,
    /// Segments whose live holder at execute time differed from the plan.
    pub stale_holders: u32,
}

/// The cost-based ship-vs-fetch planner.
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    /// Scan pacing, applied per participating server.
    pub params: ScanParams,
    /// Caller's selectivity hint: expected bytes-returned / bytes-scanned
    /// in `[0, 1]` (from table stats or a prior run of the operator).
    pub selectivity: f64,
}

impl Planner {
    /// A planner with the given pacing and selectivity hint.
    pub fn new(params: ScanParams, selectivity: f64) -> Self {
        Planner { params, selectivity }
    }

    /// Effective holder-side scan bandwidth: the DRAM/core ceiling derated
    /// by live memory pressure — the channel's windowed utilization plus
    /// foreign-accessor load from the access-bit tracker.
    fn holder_scan_bandwidth(
        &self,
        pool: &mut LogicalPool,
        now: SimTime,
        holder: NodeId,
    ) -> Bandwidth {
        let servers = pool.servers();
        let node = pool.node_mut(holder);
        let dram_bw = node.dram().profile().bandwidth;
        let core_bw = self.params.per_core.scale(self.params.cores as f64);
        let ceiling = if dram_bw.as_gbps() <= core_bw.as_gbps() {
            dram_bw
        } else {
            core_bw
        };
        let util = node.dram_mut().utilization(now).clamp(0.0, 1.0);
        let mut foreign = 0u64;
        for a in 0..servers {
            if a != holder.0 {
                foreign += node.hotness().accessor_load(a).1;
            }
        }
        let hot = (foreign as f64 / HOTNESS_SATURATION).min(1.0);
        ceiling.scale(1.0 / (1.0 + util + hot))
    }

    /// Build a plan for running `op` over `vector` from `requester` at
    /// `now`. Holders are resolved from the live pool mapping (relocations
    /// bump `compute.stale_holder`); estimates charge nothing to the
    /// fabric or DRAM models.
    ///
    /// # Errors
    /// [`PoolError::UnknownSegment`] when a stripe's segment was freed.
    pub fn plan(
        &self,
        pool: &mut LogicalPool,
        fabric: &Fabric,
        now: SimTime,
        requester: NodeId,
        vector: &DistVector,
        op: Operator,
    ) -> Result<Plan, PoolError> {
        let (stripes, stale) = live_stripes(pool, vector)?;
        // Aggregate fabric-crossing bytes under each uniform strategy: the
        // remote streams serialize on the requester's down wire, so every
        // segment's estimate charges its peers' traffic once.
        let wire_bw = fabric.profile().bandwidth;
        let mut total_len = 0u64;
        let mut total_ret = 0u64;
        for (holder, _, len) in &stripes {
            if *holder != requester {
                total_len = total_len.saturating_add(*len);
                total_ret = total_ret.saturating_add(
                    op.estimate_return_bytes(*len, self.selectivity).max(8),
                );
            }
        }
        let mut segments = Vec::with_capacity(stripes.len());
        for (holder, seg, len) in stripes {
            let est_ret = op.estimate_return_bytes(len, self.selectivity);
            if holder == requester {
                let local_bw = self.holder_scan_bandwidth(pool, now, holder);
                let ns = local_bw.time_to_transfer(len).as_nanos();
                segments.push(SegmentPlan {
                    seg,
                    holder,
                    len,
                    choice: Choice::Local,
                    est_ship_ns: ns,
                    est_fetch_ns: ns,
                    est_return_bytes: est_ret,
                });
                continue;
            }
            let ret_msg = est_ret.max(8);
            // Peer traffic sharing the requester's down wire, assuming the
            // peers make the same choice as the candidate under estimate.
            let peer_fetch_ns = wire_bw
                .time_to_transfer(total_len.saturating_sub(len))
                .as_nanos();
            let peer_ship_ns = wire_bw
                .time_to_transfer(total_ret.saturating_sub(ret_msg))
                .as_nanos();
            // Fetch: the whole stripe streams through the batch engine,
            // queued behind whatever backlog the four wires already carry.
            // The chained estimate charges both data hops serially, but the
            // batch engine pipelines its chunks — credit one wire-time.
            let pipeline_credit_ns = wire_bw.time_to_transfer(len).as_nanos();
            let est_fetch_ns = fabric
                .estimate_read_completion(now, requester, holder, len)
                .map(|t| {
                    t.saturating_duration_since(now)
                        .as_nanos()
                        .saturating_sub(pipeline_credit_ns)
                        .saturating_add(peer_fetch_ns)
                })
                .unwrap_or(UNREACHABLE_NS);
            // Ship: the holder scans at its derated local rate (overlapping
            // any fabric backlog), then the estimated result — never less
            // than one 8-byte message — queues home as one store-and-forward
            // write that pays both data hops in full.
            let scan_bw = self.holder_scan_bandwidth(pool, now, holder);
            let scan_done = now + scan_bw.time_to_transfer(len);
            let est_ship_ns = fabric
                .estimate_read_completion(scan_done, requester, holder, ret_msg)
                .map(|t| {
                    t.saturating_duration_since(now)
                        .as_nanos()
                        .saturating_add(peer_ship_ns)
                })
                .unwrap_or(UNREACHABLE_NS);
            let choice = if est_ship_ns <= est_fetch_ns {
                Choice::Ship
            } else {
                Choice::Fetch
            };
            segments.push(SegmentPlan {
                seg,
                holder,
                len,
                choice,
                est_ship_ns,
                est_fetch_ns,
                est_return_bytes: est_ret,
            });
        }
        Ok(Plan {
            segments,
            stale_holders: stale,
        })
    }

    /// Execute a plan: fetched and requester-local segments share one
    /// batched scan under the requester's core budget; shipped segments
    /// run grouped per live holder, each holder returning one result
    /// message of its segments' *actual* combined output size. The merged
    /// result is byte-identical to an all-fetch reference regardless of
    /// the per-segment choices.
    ///
    /// Segments are re-resolved against the live mapping: a stripe that
    /// moved since planning is scanned where it lives now (counted in
    /// [`PushdownOutcome::stale_holders`] and `compute.stale_holder`), so
    /// a plan raced by the balancer stays correct, merely mispredicted.
    ///
    /// Every leg is checked before the first scan, so a failed execute
    /// charges no model and counts no relocation.
    ///
    /// # Errors
    /// [`PoolError::UnknownSegment`] for freed segments;
    /// [`PoolError::SegmentLost`] for a crashed holder, or a fetched
    /// segment's holder whose port is down; [`PoolError::ServerDown`] for a
    /// crashed or cut-off requester, or a shipped segment's holder whose
    /// port is down; [`PoolError::InvalidRequest`] for zero scan cores or
    /// chunk size.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        start: SimTime,
        requester: NodeId,
        op: Operator,
        plan: &Plan,
    ) -> Result<(OpOutput, PushdownOutcome), PoolError> {
        // Re-resolve against the live mapping and check every leg before
        // anything is charged or counted, so a failed execute leaves the
        // rack as it found it.
        self.params.check()?;
        let mut live = Vec::with_capacity(plan.segments.len());
        for sp in &plan.segments {
            let holder = pool
                .holder_of(sp.seg)
                .ok_or(PoolError::UnknownSegment(sp.seg))?;
            let shipped = sp.choice == Choice::Ship && holder != requester;
            check_leg(pool, fabric, requester, holder, sp.seg, shipped)?;
            live.push(holder);
        }

        // The result value is choice-independent: per-segment partials in
        // logical stripe order, folded from borrowed runs.
        let mut partials = Vec::with_capacity(plan.segments.len());
        for sp in &plan.segments {
            partials.push(op.fold(pool.read_runs(LogicalAddr::new(sp.seg, 0), sp.len)?));
        }

        // Every leg passed its checks, so the scans below cannot fail:
        // count the relocations now. Partition: anything not shipped — or
        // "shipped" to a stripe that now lives on the requester — joins the
        // one batched fetch scan.
        let mut stale = 0u32;
        let mut fetch_ranges: Vec<(SegmentId, u64, u64)> = Vec::new();
        let mut fetched = 0u32;
        let mut ship_stripes: Vec<(NodeId, SegmentId, u64)> = Vec::new();
        for (sp, &holder) in plan.segments.iter().zip(&live) {
            if holder != sp.holder {
                stale += 1;
                if let Some(t) = pool.telemetry_mut() {
                    t.note_stale_holder();
                }
            }
            let shipped = sp.choice == Choice::Ship && holder != requester;
            if shipped {
                ship_stripes.push((holder, sp.seg, sp.len));
            } else {
                fetch_ranges.push((sp.seg, 0, sp.len));
                fetched += 1;
            }
        }

        let mut outcome = PushdownOutcome {
            complete: start,
            fabric_bytes: 0,
            local_bytes: 0,
            result_bytes: 0,
            shipped_segments: ship_stripes.len() as u32,
            fetched_segments: fetched,
            stale_holders: stale,
        };

        // Timing: the shared fetch scan at the requester…
        if !fetch_ranges.is_empty() {
            let s = scan_ranges(pool, fabric, start, requester, &fetch_ranges, self.params)?;
            outcome.complete = outcome.complete.max(s.complete);
            outcome.fabric_bytes += s.remote_bytes;
            outcome.local_bytes += s.local_bytes;
        }
        // …and one scan per remote holder, returning its actual result
        // bytes as a single message (minimum one 8-byte header).
        for (holder, ranges) in group_by_holder(&ship_stripes) {
            let s = scan_ranges(pool, fabric, start, holder, &ranges, self.params)?;
            outcome.local_bytes += s.local_bytes;
            outcome.fabric_bytes += s.remote_bytes;
            let mut ret_bytes = 0u64;
            for (sp, partial) in plan.segments.iter().zip(&partials) {
                if ranges.iter().any(|(seg, _, _)| seg == &sp.seg) {
                    ret_bytes += op.output_bytes(partial);
                }
            }
            let ret = ret_bytes.max(8);
            outcome.fabric_bytes += ret;
            let done = ship_result(fabric, s.complete, holder, requester, ret)?;
            outcome.complete = outcome.complete.max(done);
        }

        let mut merged = op.identity();
        for partial in partials {
            merged = op.merge(merged, partial)?;
        }
        outcome.result_bytes = op.output_bytes(&merged);
        Ok((merged, outcome))
    }
}

/// Live `(holder, segment, len)` stripes in logical order.
type LiveStripes = Vec<(NodeId, SegmentId, u64)>;

/// Resolve every stripe of `vector` against the live pool mapping,
/// bumping the `compute.stale_holder` counter for each relocation.
/// Returns the live `(holder, segment, len)` stripes in logical order plus
/// the relocation count.
///
/// # Errors
/// [`PoolError::UnknownSegment`] when a stripe's segment no longer exists.
fn live_stripes(
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
fn ship_result(
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
fn group_by_holder(
    stripes: &[(NodeId, SegmentId, u64)],
) -> BTreeMap<NodeId, Vec<(SegmentId, u64, u64)>> {
    let mut groups: BTreeMap<NodeId, Vec<(SegmentId, u64, u64)>> = BTreeMap::new();
    for (holder, seg, len) in stripes {
        groups.entry(*holder).or_default().push((*seg, 0, *len));
    }
    groups
}

/// Fail, charging nothing, when one segment's leg of an execution cannot
/// run: its holder has crashed, or, for a remote leg, the requester has
/// crashed or either end's fabric port is down. The errors are the ones
/// the scan or the shipped result would have hit.
fn check_leg(
    pool: &LogicalPool,
    fabric: &Fabric,
    requester: NodeId,
    holder: NodeId,
    seg: SegmentId,
    shipped: bool,
) -> Result<(), PoolError> {
    if pool.node(holder).is_failed() {
        return Err(PoolError::SegmentLost(seg));
    }
    if holder == requester {
        return Ok(());
    }
    if pool.node(requester).is_failed() || fabric.is_port_down(requester) {
        return Err(PoolError::ServerDown(requester));
    }
    if fabric.is_port_down(holder) {
        return Err(if shipped {
            PoolError::ServerDown(holder)
        } else {
            PoolError::SegmentLost(seg)
        });
    }
    Ok(())
}

/// All-fetch reference: every segment through the batched scan engine,
/// merged the same way — the ground truth the planner's results must be
/// byte-identical to, and the measured baseline for its fetch estimates.
pub fn fetch_reference(
    planner: &Planner,
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    now: SimTime,
    requester: NodeId,
    vector: &DistVector,
    op: Operator,
) -> Result<(OpOutput, PushdownOutcome), PoolError> {
    let plan = planner.plan(pool, fabric, now, requester, vector, op)?;
    planner.execute(pool, fabric, now, requester, op, &plan.forced(Choice::Fetch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Predicate, ReduceOp};
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

    /// Fill every stripe from a seeded LCG; returns the elements' sum.
    fn fill_lcg(pool: &mut LogicalPool, v: &DistVector, seed: u64, modulus: u64) -> u64 {
        let (mut x, mut sum) = (seed, 0u64);
        for (_, seg, len) in &v.stripes {
            let mut bytes = Vec::with_capacity(*len as usize);
            for _ in 0..(len / 8) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = (x >> 33) % modulus;
                sum = sum.wrapping_add(v);
                bytes.extend(v.to_le_bytes());
            }
            bytes.resize(*len as usize, 0);
            pool.write_bytes(LogicalAddr::new(*seg, 0), &bytes).unwrap();
        }
        sum
    }

    #[test]
    fn low_selectivity_ships_high_selectivity_fetches() {
        let (mut p, f) = setup(64);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 64 * FRAME_BYTES, &servers).unwrap();
        let op = Operator::Filter(Predicate::Greater(0));
        let lean = Planner::new(ScanParams::default(), 0.05);
        let plan = lean.plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op).unwrap();
        assert_eq!(plan.count(Choice::Local), 1);
        assert_eq!(plan.count(Choice::Ship), 3, "5% selectivity must ship: {plan:?}");
        let fat = Planner::new(ScanParams::default(), 0.99);
        let plan = fat.plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op).unwrap();
        assert_eq!(plan.count(Choice::Fetch), 3, "99% selectivity must fetch: {plan:?}");
    }

    #[test]
    fn loaded_links_flip_the_choice_to_ship() {
        let (mut p, mut f) = setup(64);
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 64 * FRAME_BYTES, &servers).unwrap();
        let op = Operator::Filter(Predicate::Greater(0));
        // 72% selectivity sits between the idle and loaded break-evens:
        // idle, the holder scan is pure added latency, so fetch wins; with
        // a backlog the scan hides under the queue drain and shipping's
        // smaller result wins.
        let fat = Planner::new(ScanParams::default(), 0.72);
        let idle = fat.plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op).unwrap();
        assert_eq!(idle.count(Choice::Fetch), 3, "idle at 72% must fetch: {idle:?}");
        // Queue a fat bulk transfer on every holder's up wire.
        for h in 1..4u32 {
            f.write(SimTime::ZERO, NodeId(h), NodeId(h % 3 + 1), 256 * MIB);
        }
        let loaded = fat.plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op).unwrap();
        assert_eq!(
            loaded.count(Choice::Ship),
            3,
            "backlogged up-wires must flip 72% selectivity to ship: {loaded:?}"
        );
    }

    #[test]
    fn planned_result_is_byte_identical_to_fetch_reference() {
        let op = Operator::Filter(Predicate::Greater(40));
        for sel in [0.05, 0.5, 0.95] {
            let (mut p, mut f) = setup(64);
            let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
            let v = DistVector::stripe_even(&mut p, 32 * FRAME_BYTES, &servers).unwrap();
            fill_lcg(&mut p, &v, 42, 64);
            let planner = Planner::new(ScanParams::default(), sel);
            let plan = planner
                .plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op)
                .unwrap();
            let (out, _) = planner
                .execute(&mut p, &mut f, SimTime::ZERO, NodeId(0), op, &plan)
                .unwrap();
            let (mut p2, mut f2) = setup(64);
            let v2 = DistVector::stripe_even(&mut p2, 32 * FRAME_BYTES, &servers).unwrap();
            fill_lcg(&mut p2, &v2, 42, 64);
            let (reference, _) = fetch_reference(
                &planner, &mut p2, &mut f2, SimTime::ZERO, NodeId(0), &v2, op,
            )
            .unwrap();
            assert_eq!(out, reference, "sel={sel}");
        }
    }

    #[test]
    fn migration_between_plan_and_execute_is_resolved_and_counted() {
        let (mut p, mut f) = setup(32);
        p.attach_telemetry();
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 16 * FRAME_BYTES, &servers).unwrap();
        let want = fill_lcg(&mut p, &v, 7, 100);
        let op = Operator::Aggregate(ReduceOp::Sum);
        let planner = Planner::new(ScanParams::default(), 0.0);
        let plan = planner.plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op).unwrap();
        assert_eq!(plan.stale_holders, 0);
        // The balancer races the plan: stripe 1 moves to node 3.
        let (_, seg, _) = v.stripes[1];
        lmp_core::migrate::migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(3))
            .unwrap();
        let start = SimTime::from_nanos(50_000_000);
        let (out, outcome) = planner
            .execute(&mut p, &mut f, start, NodeId(0), op, &plan)
            .unwrap();
        assert_eq!(out, OpOutput::Scalar(want), "relocated stripe still correct");
        assert_eq!(outcome.stale_holders, 1);
        assert_eq!(p.telemetry().unwrap().stale_holders(), 1);
        // Shipped scans ran where the data lives: no stripe was dragged
        // across the fabric, only the per-holder result messages.
        assert_eq!(outcome.fabric_bytes, 3 * 8);
    }

    #[test]
    fn shipped_segment_relocated_onto_requester_joins_the_fetch_scan() {
        let (mut p, mut f) = setup(32);
        let servers = [NodeId(1), NodeId(2)];
        let v = DistVector::stripe_even(&mut p, 8 * FRAME_BYTES, &servers).unwrap();
        let op = Operator::Count(Predicate::Greater(0));
        let planner = Planner::new(ScanParams::default(), 0.0);
        let plan = planner.plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op).unwrap();
        assert_eq!(plan.count(Choice::Ship), 2);
        let (_, seg, _) = v.stripes[0];
        lmp_core::migrate::migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(0))
            .unwrap();
        let start = SimTime::from_nanos(50_000_000);
        let (_, outcome) = planner
            .execute(&mut p, &mut f, start, NodeId(0), op, &plan)
            .unwrap();
        assert_eq!(outcome.shipped_segments, 1, "relocated stripe is local now");
        assert_eq!(outcome.fetched_segments, 1);
        assert_eq!(outcome.stale_holders, 1);
        assert_eq!(outcome.fabric_bytes, 8, "one result message, no data moved");
    }

    #[test]
    fn failed_execute_charges_nothing() {
        // Regression: a shipped leg whose holder port was down failed only
        // after the requester's local scan, every holder's scan and two
        // result messages had been charged.
        let (mut p, mut f) = setup(16);
        p.attach_telemetry();
        let servers: Vec<NodeId> = (0..4).map(NodeId).collect();
        let v = DistVector::stripe_even(&mut p, 16 * FRAME_BYTES, &servers).unwrap();
        let op = Operator::Count(Predicate::Greater(0));
        let planner = Planner::new(ScanParams::default(), 0.0);
        let plan = planner
            .plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op)
            .unwrap();
        let choices: Vec<Choice> = plan.segments.iter().map(|s| s.choice).collect();
        assert_eq!(
            choices,
            [Choice::Local, Choice::Ship, Choice::Ship, Choice::Ship]
        );
        f.set_port_down(NodeId(3), true);
        let state = |p: &mut LogicalPool, f: &mut Fabric| {
            let dram: Vec<u64> = servers
                .iter()
                .map(|&n| p.node(n).dram().access_count())
                .collect();
            let snap = rack_snapshot(p, f, SimTime::ZERO).to_json();
            (f.write_count(), dram, p.access_counts(), snap)
        };
        let before = state(&mut p, &mut f);
        assert_eq!((before.0, &before.1, before.2), (0, &vec![0; 4], (0, 0)));
        let e = planner.execute(&mut p, &mut f, SimTime::ZERO, NodeId(0), op, &plan);
        assert_eq!(e.unwrap_err(), PoolError::ServerDown(NodeId(3)));
        assert_eq!(state(&mut p, &mut f), before);

        // A stripe relocated since planning is not counted stale either.
        let (_, seg, _) = v.stripes[1];
        lmp_core::migrate::migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(2)).unwrap();
        let before = state(&mut p, &mut f);
        let e = planner.execute(&mut p, &mut f, SimTime::ZERO, NodeId(0), op, &plan);
        assert_eq!(e.unwrap_err(), PoolError::ServerDown(NodeId(3)));
        assert_eq!(state(&mut p, &mut f), before);
        assert_eq!(p.telemetry().unwrap().stale_holders(), 0);
    }

    #[test]
    fn freed_segment_surfaces_unknown_segment() {
        let (mut p, mut f) = setup(16);
        let v = DistVector::stripe_even(&mut p, 2 * FRAME_BYTES, &[NodeId(1)]).unwrap();
        let planner = Planner::new(ScanParams::default(), 0.5);
        let op = Operator::TopK(4);
        let plan = planner.plan(&mut p, &f, SimTime::ZERO, NodeId(0), &v, op).unwrap();
        let (_, seg, _) = v.stripes[0];
        p.free(seg).unwrap();
        let e = planner
            .execute(&mut p, &mut f, SimTime::ZERO, NodeId(0), op, &plan)
            .unwrap_err();
        assert!(matches!(e, PoolError::UnknownSegment(_)), "{e:?}");
    }
}
