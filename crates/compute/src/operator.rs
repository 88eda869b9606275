//! Pushdown operator descriptions.
//!
//! The pushdown framework needs a *description* of work that can travel to
//! a segment holder and whose result size is a property of the data, not
//! of the operator alone:
//!
//! * **Aggregate** — fold to one scalar (8 bytes shipped).
//! * **Count** — predicate count (8 bytes shipped).
//! * **Filter** — return the *matching elements themselves*; shipped bytes
//!   scale with selectivity, which is what makes ship-vs-fetch a real
//!   decision for the [`Planner`](crate::planner::Planner).
//! * **TopK** — return the k largest elements (≤ 8k bytes shipped).
//!
//! Every operator is executed per stripe and merged **in logical stripe
//! order** at the requester, so a plan that ships some stripes and fetches
//! the rest produces byte-identical output to an all-fetch reference.
//!
//! A stripe is folded as the runs a borrowed pool read yields
//! ([`LogicalPool::read_runs`](lmp_core::pool::LogicalPool::read_runs)),
//! never copied into a stripe buffer. A frame's unwritten bytes arrive as
//! one [`ReadRun::Zeros`] run, which every operator folds in closed form
//! (see [`Operator::fold`]), so an unmaterialized stripe costs one step per
//! frame.
//! Each kernel picks the operator and predicate once per run and then
//! loops without dispatch: counts, sums and min/max keep four independent
//! accumulators (baseline x86-64 has no 64-bit vector compare, so one
//! accumulator is one long dependency chain), a filter writes every
//! element into a fixed stack block and advances by the predicate's 0/1
//! instead of branching, and top-k keeps a bounded min-heap of k
//! candidates, O(n log k), instead of sorting the stripe.
//! [`reference`](mod@reference) keeps the whole-buffer originals as the
//! test oracle.
//!
//! This module is on the lmp-lint R3 no-panic list: merges surface
//! mismatched partials as [`PoolError::Internal`] instead of panicking.

use lmp_core::pool::ReadRun;
use lmp_core::prelude::PoolError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    fn fold_bytes(self, bytes: &[u8]) -> u64 {
        let id = self.identity();
        match self {
            ReduceOp::Sum => fold_lanes(bytes, id, u64::wrapping_add, u64::wrapping_add),
            ReduceOp::Min => fold_lanes(bytes, id, u64::min, u64::min),
            ReduceOp::Max => fold_lanes(bytes, id, u64::max, u64::max),
        }
    }
}

/// A total predicate over u64 elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// Strictly greater than the threshold.
    Greater(u64),
    /// Strictly less than the threshold.
    Less(u64),
    /// `(element & mask) == value`.
    EqMasked {
        /// Bits to inspect.
        mask: u64,
        /// Required value of the masked bits.
        value: u64,
    },
}

impl Predicate {
    /// Evaluate the predicate on one element.
    pub fn matches(self, v: u64) -> bool {
        match self {
            Predicate::Greater(t) => v > t,
            Predicate::Less(t) => v < t,
            Predicate::EqMasked { mask, value } => v & mask == value,
        }
    }
}

/// A shippable operator over a byte range of little-endian u64 elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// Fold every element with a [`ReduceOp`]; 8-byte result.
    Aggregate(ReduceOp),
    /// Count elements matching the predicate; 8-byte result.
    Count(Predicate),
    /// Return the matching elements, in scan order. Result size is
    /// `8 × matches` — the operator's *selectivity* decides how many bytes
    /// cross the fabric when shipped.
    Filter(Predicate),
    /// Return the `k` largest elements, descending. Result ≤ `8k` bytes.
    TopK(u32),
}

/// An operator's (partial or final) output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// Scalar accumulator (aggregates, counts).
    Scalar(u64),
    /// Matching elements in logical scan order (filter).
    Rows(Vec<u64>),
    /// The k largest elements seen so far, descending (top-k).
    Top(Vec<u64>),
}

/// Iterate a byte slice as little-endian u64 elements; a tail shorter than
/// 8 bytes is ignored (stripes address whole elements only).
fn elements(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(le)
}

/// One little-endian u64 from an 8-byte window.
#[inline]
fn le(w: &[u8]) -> u64 {
    // Callers pass exactly-8-byte windows, so the fallback arm of unwrap_or
    // is unreachable and the conversion is total.
    u64::from_le_bytes(w.try_into().unwrap_or([0u8; 8]))
}

/// Fold the whole elements of `run` into four independent accumulators
/// with `step`, then join them with `join`. `step` and `join` must make
/// the result independent of which accumulator saw which element (true of
/// counts, wrapping sums, min and max), so it equals a sequential fold.
#[inline]
fn fold_lanes(
    run: &[u8],
    init: u64,
    step: impl Fn(u64, u64) -> u64,
    join: impl Fn(u64, u64) -> u64,
) -> u64 {
    let mut blocks = run.chunks_exact(32);
    let mut acc = [init; 4];
    for b in &mut blocks {
        acc[0] = step(acc[0], le(&b[0..8]));
        acc[1] = step(acc[1], le(&b[8..16]));
        acc[2] = step(acc[2], le(&b[16..24]));
        acc[3] = step(acc[3], le(&b[24..32]));
    }
    let whole = join(join(acc[0], acc[1]), join(acc[2], acc[3]));
    elements(blocks.remainder()).fold(whole, step)
}

/// Count the elements of `run` that `keep` accepts.
#[inline]
fn count(run: &[u8], keep: impl Fn(u64) -> bool) -> u64 {
    fold_lanes(run, 0, |n, v| n + u64::from(keep(v)), |a, b| a + b)
}

/// Elements a filter stages on the stack before appending them.
const FILTER_BLOCK: usize = 64;

/// Append the elements of `run` that `keep` accepts to `rows`, in order.
/// Every element is written to the stack block and the fill advances by
/// the predicate's 0/1, so there is no data-dependent branch to mispredict.
#[inline]
fn filter(run: &[u8], keep: impl Fn(u64) -> bool, rows: &mut Vec<u64>) {
    let mut block = [0u64; FILTER_BLOCK];
    for bytes in run.chunks(8 * FILTER_BLOCK) {
        let mut n = 0;
        for v in elements(bytes) {
            block[n] = v;
            n += usize::from(keep(v));
        }
        rows.extend_from_slice(&block[..n]);
    }
}

/// Offer the elements of `run` to `heap`, a min-heap of the `k` largest
/// elements seen so far. Once the heap is full, an element costs one
/// compare against the least candidate unless it replaces it.
fn top(run: &[u8], k: usize, heap: &mut BinaryHeap<Reverse<u64>>) {
    let mut rest = elements(run);
    while heap.len() < k {
        match rest.next() {
            Some(v) => heap.push(Reverse(v)),
            None => return,
        }
    }
    let Some(mut least) = heap.peek().map(|r| r.0) else {
        return;
    };
    for v in rest {
        if v > least {
            if let Some(mut slot) = heap.peek_mut() {
                *slot = Reverse(v);
            }
            least = heap.peek().map_or(v, |r| r.0);
        }
    }
}

impl Predicate {
    /// Matching elements of one run, dispatching on the predicate once.
    fn count(self, run: &[u8]) -> u64 {
        match self {
            Predicate::Greater(t) => count(run, |v| v > t),
            Predicate::Less(t) => count(run, |v| v < t),
            Predicate::EqMasked { mask, value } => count(run, |v| v & mask == value),
        }
    }

    /// Append one run's matching elements to `rows`, dispatching once.
    fn filter(self, run: &[u8], rows: &mut Vec<u64>) {
        match self {
            Predicate::Greater(t) => filter(run, |v| v > t, rows),
            Predicate::Less(t) => filter(run, |v| v < t, rows),
            Predicate::EqMasked { mask, value } => filter(run, |v| v & mask == value, rows),
        }
    }

    /// Matching elements of a run of `n` zero bytes: all `n / 8` of them
    /// or none.
    fn zero_matches(self, n: usize) -> usize {
        if self.matches(0) {
            n / 8
        } else {
            0
        }
    }
}

impl Operator {
    /// The identity output: merging it with any partial is a no-op.
    pub fn identity(&self) -> OpOutput {
        match *self {
            Operator::Aggregate(op) => OpOutput::Scalar(op.identity()),
            Operator::Count(_) => OpOutput::Scalar(0),
            Operator::Filter(_) => OpOutput::Rows(Vec::new()),
            Operator::TopK(_) => OpOutput::Top(Vec::new()),
        }
    }

    /// Fold one stripe, given as its runs in address order, into the
    /// stripe's partial, one run at a time. Every run but the last must
    /// hold whole elements; the last may end in a 1–7-byte tail, which is
    /// ignored. The result equals [`reference::execute`] on the
    /// concatenated runs, a [`ReadRun::Zeros`] run standing for its zero
    /// bytes.
    ///
    /// A `Zeros(n)` run holds `e = n / 8` zero elements and folds in O(1):
    /// an aggregate combines one 0 when `e > 0` (sum, min and max are
    /// idempotent in 0); a count adds `e`, and a filter appends `e` zeros,
    /// when the predicate matches 0; top-k offers zeros only while its
    /// heap has room, since a zero never displaces a candidate.
    pub fn fold<'a>(&self, runs: impl IntoIterator<Item = ReadRun<'a>>) -> OpOutput {
        let runs = runs.into_iter();
        match *self {
            Operator::Aggregate(op) => {
                OpOutput::Scalar(runs.fold(op.identity(), |acc, run| match run {
                    ReadRun::Bytes(bytes) => op.combine(acc, op.fold_bytes(bytes)),
                    ReadRun::Zeros(n) if n >= 8 => op.combine(acc, 0),
                    ReadRun::Zeros(_) => acc,
                }))
            }
            Operator::Count(p) => OpOutput::Scalar(
                runs.map(|run| match run {
                    ReadRun::Bytes(bytes) => p.count(bytes),
                    ReadRun::Zeros(n) => p.zero_matches(n) as u64,
                })
                .sum(),
            ),
            Operator::Filter(p) => {
                let mut rows = Vec::new();
                for run in runs {
                    match run {
                        ReadRun::Bytes(bytes) => p.filter(bytes, &mut rows),
                        ReadRun::Zeros(n) => rows.resize(rows.len() + p.zero_matches(n), 0),
                    }
                }
                OpOutput::Rows(rows)
            }
            Operator::TopK(k) => {
                let k = k as usize;
                let mut heap = BinaryHeap::with_capacity(k);
                for run in runs {
                    match run {
                        ReadRun::Bytes(bytes) => top(bytes, k, &mut heap),
                        ReadRun::Zeros(n) => {
                            let room = k.saturating_sub(heap.len()).min(n / 8);
                            heap.extend(std::iter::repeat_n(Reverse(0), room));
                        }
                    }
                }
                // Ascending `Reverse` order is descending element order.
                OpOutput::Top(heap.into_sorted_vec().into_iter().map(|r| r.0).collect())
            }
        }
    }

    /// Merge two partials. `a` must precede `b` in logical stripe order —
    /// filter rows concatenate, so merge order is part of the result. Top-k
    /// partials must be descending, as [`OpOutput::Top`] promises.
    ///
    /// # Errors
    /// [`PoolError::Internal`] when the partial variants do not match the
    /// operator (a protocol bug surfaced as an error, per the no-panic
    /// contract for recoverable modules).
    pub fn merge(&self, a: OpOutput, b: OpOutput) -> Result<OpOutput, PoolError> {
        match (self, a, b) {
            (Operator::Aggregate(op), OpOutput::Scalar(x), OpOutput::Scalar(y)) => {
                Ok(OpOutput::Scalar(op.combine(x, y)))
            }
            (Operator::Count(_), OpOutput::Scalar(x), OpOutput::Scalar(y)) => {
                Ok(OpOutput::Scalar(x.wrapping_add(y)))
            }
            (Operator::Filter(_), OpOutput::Rows(x), OpOutput::Rows(y)) if x.is_empty() => {
                Ok(OpOutput::Rows(y))
            }
            (Operator::Filter(_), OpOutput::Rows(mut x), OpOutput::Rows(y)) => {
                x.reserve_exact(y.len());
                x.extend_from_slice(&y);
                Ok(OpOutput::Rows(x))
            }
            (Operator::TopK(k), OpOutput::Top(x), OpOutput::Top(y)) => {
                // Both inputs are descending: merge their heads.
                let k = *k as usize;
                let mut out = Vec::with_capacity(k.min(x.len() + y.len()));
                let (mut i, mut j) = (0, 0);
                while out.len() < k {
                    let v = match (x.get(i), y.get(j)) {
                        (Some(&a), Some(&b)) if a >= b => {
                            i += 1;
                            a
                        }
                        (_, Some(&b)) => {
                            j += 1;
                            b
                        }
                        (Some(&a), None) => {
                            i += 1;
                            a
                        }
                        (None, None) => break,
                    };
                    out.push(v);
                }
                Ok(OpOutput::Top(out))
            }
            _ => Err(PoolError::Internal("operator partial variant mismatch")),
        }
    }

    /// Bytes this output occupies when shipped across the fabric.
    pub fn output_bytes(&self, out: &OpOutput) -> u64 {
        match out {
            OpOutput::Scalar(_) => 8,
            OpOutput::Rows(v) | OpOutput::Top(v) => 8 * v.len() as u64,
        }
    }

    /// Plan-time estimate of the shipped result size for a stripe of
    /// `scan_bytes`, given a selectivity hint in `[0, 1]`
    /// (bytes-returned / bytes-scanned, from stats or a prior run). Only
    /// [`Operator::Filter`] is selectivity-dependent; the other operators
    /// have closed-form bounds.
    pub fn estimate_return_bytes(&self, scan_bytes: u64, selectivity: f64) -> u64 {
        let whole_elements = (scan_bytes / 8) * 8;
        match *self {
            Operator::Aggregate(_) | Operator::Count(_) => 8,
            Operator::TopK(k) => (8 * k as u64).min(whole_elements),
            Operator::Filter(_) => {
                let s = selectivity.clamp(0.0, 1.0);
                // Round to whole elements; a filter never returns more
                // than every element it scanned.
                let est = (scan_bytes as f64 * s / 8.0).round() as u64 * 8;
                est.min(whole_elements)
            }
        }
    }
}

/// The whole-buffer operators as first written, kept as a reference model.
pub mod reference {
    use super::{elements, OpOutput, Operator};
    use lmp_core::prelude::PoolError;

    /// Execute `op` over one stripe's bytes in one pass: the executable
    /// specification [`Operator::fold`] is tested against. Top-k sorts the
    /// whole stripe.
    pub fn execute(op: &Operator, bytes: &[u8]) -> OpOutput {
        match *op {
            Operator::Aggregate(op) => {
                OpOutput::Scalar(elements(bytes).fold(op.identity(), |acc, v| op.combine(acc, v)))
            }
            Operator::Count(p) => {
                OpOutput::Scalar(elements(bytes).filter(|&v| p.matches(v)).count() as u64)
            }
            Operator::Filter(p) => {
                OpOutput::Rows(elements(bytes).filter(|&v| p.matches(v)).collect())
            }
            Operator::TopK(k) => {
                let mut all: Vec<u64> = elements(bytes).collect();
                all.sort_unstable_by(|a, b| b.cmp(a));
                all.truncate(k as usize);
                OpOutput::Top(all)
            }
        }
    }

    /// Merge two partials by concatenation, sorting for top-k: the
    /// specification [`Operator::merge`] is tested against.
    ///
    /// # Errors
    /// [`PoolError::Internal`] when the partial variants do not match `op`.
    pub fn merge(op: &Operator, a: OpOutput, b: OpOutput) -> Result<OpOutput, PoolError> {
        match (op, a, b) {
            (Operator::TopK(k), OpOutput::Top(mut x), OpOutput::Top(y)) => {
                x.extend(y);
                x.sort_unstable_by(|a, b| b.cmp(a));
                x.truncate(*k as usize);
                Ok(OpOutput::Top(x))
            }
            (Operator::Filter(_), OpOutput::Rows(mut x), OpOutput::Rows(y)) => {
                x.extend(y);
                Ok(OpOutput::Rows(x))
            }
            (op, a, b) => op.merge(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(vals: &[u64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Fold one stripe given as a single run.
    fn exec(op: Operator, bytes: &[u8]) -> OpOutput {
        op.fold([ReadRun::Bytes(bytes)])
    }

    #[test]
    fn op_folding() {
        let bytes = pack(&[3, 9, 1]);
        assert_eq!(ReduceOp::Sum.fold_bytes(&bytes), 13);
        assert_eq!(ReduceOp::Min.fold_bytes(&bytes), 1);
        assert_eq!(ReduceOp::Max.fold_bytes(&bytes), 9);
        assert_eq!(ReduceOp::Sum.fold_bytes(&[]), 0);
    }

    #[test]
    fn predicates_are_total() {
        assert!(Predicate::Greater(5).matches(6));
        assert!(!Predicate::Greater(5).matches(5));
        assert!(Predicate::Less(5).matches(4));
        assert!(Predicate::EqMasked { mask: 0xff, value: 0x0a }.matches(0x990a));
        assert!(!Predicate::EqMasked { mask: 0xff, value: 0x0a }.matches(0x0b));
    }

    #[test]
    fn filter_preserves_scan_order_across_merges() {
        let op = Operator::Filter(Predicate::Greater(10));
        let a = exec(op, &pack(&[5, 20, 30]));
        let b = exec(op, &pack(&[40, 1, 50]));
        let merged = op.merge(a, b).unwrap();
        assert_eq!(merged, OpOutput::Rows(vec![20, 30, 40, 50]));
    }

    #[test]
    fn topk_truncates_and_merges() {
        let op = Operator::TopK(3);
        let a = exec(op, &pack(&[9, 1, 7, 3]));
        assert_eq!(a, OpOutput::Top(vec![9, 7, 3]));
        let b = exec(op, &pack(&[8, 2]));
        let merged = op.merge(a, b).unwrap();
        assert_eq!(merged, OpOutput::Top(vec![9, 8, 7]));
    }

    #[test]
    fn count_and_aggregate_are_scalar() {
        let data = pack(&[5, 15, 25]);
        assert_eq!(
            exec(Operator::Count(Predicate::Greater(10)), &data),
            OpOutput::Scalar(2)
        );
        assert_eq!(
            exec(Operator::Aggregate(ReduceOp::Sum), &data),
            OpOutput::Scalar(45)
        );
    }

    #[test]
    fn identities_are_neutral() {
        let data = pack(&[3, 11, 7, 19]);
        for op in [
            Operator::Aggregate(ReduceOp::Min),
            Operator::Count(Predicate::Less(10)),
            Operator::Filter(Predicate::Greater(5)),
            Operator::TopK(2),
        ] {
            let x = exec(op, &data);
            assert_eq!(op.merge(op.identity(), x.clone()).unwrap(), x);
        }
    }

    #[test]
    fn mismatched_partials_error_instead_of_panicking() {
        let e = Operator::TopK(2)
            .merge(OpOutput::Scalar(1), OpOutput::Top(vec![]))
            .unwrap_err();
        assert!(matches!(e, PoolError::Internal(_)));
    }

    #[test]
    fn return_size_estimates() {
        let op = Operator::Filter(Predicate::Greater(0));
        assert_eq!(op.estimate_return_bytes(1024, 0.0), 0);
        assert_eq!(op.estimate_return_bytes(1024, 1.0), 1024);
        assert_eq!(op.estimate_return_bytes(1024, 0.5), 512);
        // Clamped to whole elements of the scanned range.
        assert_eq!(op.estimate_return_bytes(20, 1.0), 16);
        assert_eq!(Operator::Aggregate(ReduceOp::Sum).estimate_return_bytes(1 << 30, 1.0), 8);
        assert_eq!(Operator::TopK(4).estimate_return_bytes(1 << 20, 0.0), 32);
        assert_eq!(Operator::TopK(100).estimate_return_bytes(24, 1.0), 24);
    }

    #[test]
    fn unaligned_tails_are_ignored() {
        let mut data = pack(&[42, 99]);
        data.extend_from_slice(&[1, 2, 3]); // 3-byte tail
        assert_eq!(
            exec(Operator::Count(Predicate::Greater(0)), &data),
            OpOutput::Scalar(2)
        );
    }
}
