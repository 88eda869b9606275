// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-physical — the physical-pool baseline
//!
//! Everything the paper's comparison target needs: the fabric-attached pool
//! appliance ([`pool::PhysicalPool`]), the server-local page cache that
//! defines the "Physical cache" configuration ([`cache::PoolCache`]), and
//! the §4.2 deployment cost model ([`cost`]).
//!
//! The pool is a [`lmp_mem::MemoryNode`] in all-shared configuration behind
//! the same fabric model servers use, so logical-vs-physical differences in
//! the benches come only from architecture, never from modelling asymmetry.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cost;
pub mod pool;

pub use cache::{AdmissionPolicy, CachePath, CachedAccess, PoolCache};
pub use cost::{compare, lmp_bill, physical_bill, Bill, Comparison, ComponentPrices, CostItem, Scenario};
pub use pool::{PhysicalPool, PoolCompletion};
