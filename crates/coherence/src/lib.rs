// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-coherence — the coherent region and its protocol machinery
//!
//! The paper's position (§3.2, §5): LMPs should **not** make all shared
//! memory cache coherent — that is the scalability trap hardware DSM fell
//! into — but they need a few GBs of coherent memory for coordination.
//! This crate implements that slice:
//!
//! * [`directory::Directory`] — MSI state machine with per-block entries.
//! * [`filter::SnoopFilter`] — bounded inclusive filter; overflow triggers
//!   CXL-style back-invalidation.
//! * [`region::CoherentRegion`] — word-addressable coherent memory with
//!   per-operation cost accounting (latency + protocol messages).
//! * [`sync`] — coordination locks built on the region (spin, ticket,
//!   cohort/NUMA-aware), comparable by traffic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod directory;
pub mod filter;
pub mod region;
pub mod rwlock;
pub mod sync;

pub use config::{BlockId, CoherenceConfig, EnginePlacement, NodeId};
pub use directory::{CohMessage, DirAccess, DirState, Directory};
pub use filter::{FilterOutcome, SnoopFilter};
pub use region::{CoherenceCost, CoherentRegion, OutOfRegion};
pub use rwlock::{CentralRwLock, NumaRwLock};
pub use sync::{CohortLock, SpinLock, TicketLock};
