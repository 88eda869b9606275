//! Batched scatter-gather access.
//!
//! A [`BatchOp`] list describes many logical reads/writes issued together;
//! [`crate::pool::LogicalPool::access_batch`] resolves them with one
//! translation per distinct segment, coalesces adjacent frame chunks on
//! the same holder into single DRAM runs and fabric transfers, and
//! pipelines each holder's stream — so a batch completes at the *max* over
//! holders of their pipelined streams instead of the sum of serialized
//! single ops. The single-op path is a batch of one: both share one
//! frame-walk, one validation order, and one commit discipline.

use crate::addr::LogicalAddr;
use crate::pool::PoolAccess;
use lmp_fabric::{MemOp, NodeId};
use lmp_sim::engine::Engine;
use lmp_sim::prelude::*;

/// One operation in a scatter-gather batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOp {
    /// Where the operation starts.
    pub addr: LogicalAddr,
    /// Bytes to read or write.
    pub len: u64,
    /// Direction.
    pub op: MemOp,
}

impl BatchOp {
    /// A batched read of `len` bytes at `addr`.
    pub fn read(addr: LogicalAddr, len: u64) -> Self {
        BatchOp {
            addr,
            len,
            op: MemOp::Read,
        }
    }

    /// A batched write of `len` bytes at `addr`.
    pub fn write(addr: LogicalAddr, len: u64) -> Self {
        BatchOp {
            addr,
            len,
            op: MemOp::Write,
        }
    }
}

/// Outcome of one batched access.
///
/// The batch is atomic with respect to accounting: on any error (bounds,
/// crashed node, down port) **no** counters, DRAM occupancy, or fabric
/// traffic have been charged — validation runs to completion before the
/// first commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// When the last op completes at the requester.
    pub complete: SimTime,
    /// When the batch's last DRAM run completes, before any fabric leg.
    pub dram_done: SimTime,
    /// Per-op outcomes, in submission order.
    pub ops: Vec<PoolAccess>,
    /// Total bytes served from the requester's own memory.
    pub local_bytes: u64,
    /// Total bytes that crossed the fabric.
    pub remote_bytes: u64,
    /// Translation faults taken across the batch (stale cache entries;
    /// one per distinct stale segment, exactly as a one-by-one issue
    /// order would take them).
    pub faults: u32,
    /// When each holder's pipelined stream(s) finish, ordered by node id,
    /// one entry per distinct holder touched by the batch. This is the
    /// hand-off to the event kernel: a driver schedules **one** completion
    /// event per holder (see [`schedule_holder_completions`]) instead of
    /// one per chunk.
    pub holder_done: Vec<(NodeId, SimTime)>,
}

/// Schedule one completion event per holder of a finished
/// [`BatchResult`], in a single atomic [`Engine::schedule_batch`] pass.
///
/// `mk_event` turns each `(holder, done)` pair into the caller's event
/// payload. Returns the scheduled ids in `holder_done` order (ascending
/// node id). This is the canonical bridge between the scatter-gather
/// access engine (which reports *when* each holder's stream drains) and
/// the event engine (which queues the whole wave or none of it): a batch
/// touching H holders costs H queue insertions, not one per chunk or per
/// op.
///
/// # Errors
/// Propagates [`SchedulePastError`] if any completion time precedes the
/// engine clock (possible only if the batch was issued at a time earlier
/// than `eng.now()`); nothing is scheduled in that case.
pub fn schedule_holder_completions<E>(
    eng: &mut Engine<E>,
    result: &BatchResult,
    mut mk_event: impl FnMut(NodeId, SimTime) -> E,
) -> Result<Vec<EventId>, SchedulePastError> {
    eng.schedule_batch(
        result
            .holder_done
            .iter()
            .map(|&(holder, done)| (done, mk_event(holder, done)))
            .collect::<Vec<_>>(),
    )
}
