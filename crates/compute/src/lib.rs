// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-compute — near-memory computing on logical pools
//!
//! §4.4's third benefit: in an LMP, every byte of pooled memory sits next
//! to a server's processors, so computation can ship to the data instead of
//! data shipping to the computation. This crate provides:
//!
//! * [`scan`] — the multi-core closed-loop streaming scan that models the
//!   paper's vector-aggregation microbenchmark.
//! * [`placement::DistVector`] — buffers striped across servers (data
//!   placement, the first incast remedy).
//! * [`operator`] — shippable operator descriptions (filter, aggregate,
//!   count, top-k) whose result size depends on the data, folded from
//!   borrowed pool reads.
//! * [`planner`] — the one way to run an operator over a vector: a
//!   cost-based per-segment ship-vs-fetch plan, fed by live fabric
//!   backlog, holder memory pressure, and selectivity, whose every segment
//!   a caller may force to ship or to fetch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod operator;
pub mod placement;
pub mod planner;
pub mod scan;

pub use operator::{OpOutput, Operator, Predicate, ReduceOp};
pub use placement::DistVector;
pub use planner::{fetch_reference, Choice, Plan, Planner, PushdownOutcome, SegmentPlan};
pub use scan::{scan_ranges, ScanOutcome, ScanParams, DEFAULT_CHUNK};
