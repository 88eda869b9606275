// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-mem — memory substrate
//!
//! The building blocks under both pool architectures: 2 MiB frames with a
//! deterministic allocator, DRAM timing anchored to the paper's testbed
//! numbers (82 ns / 97 GB/s), the private/shared region split that defines a
//! logical pool, lazily materialized frame contents for correctness tests,
//! and access-bit hotness tracking for the locality balancer.
//!
//! A server's memory and a physical pool appliance are the **same type**
//! ([`node::MemoryNode`]) in different configurations — a FAM device is just
//! a node whose frames are all shared — which keeps the logical-vs-physical
//! comparison apples-to-apples.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dram;
pub mod frame;
pub mod hotness;
pub mod node;
pub mod region;
pub mod store;

pub use dram::{DramCall, DramChannel, DramCompletion, DramProfile};
pub use frame::{FrameAllocator, FrameError, FrameId, FRAME_BYTES};
pub use hotness::{AccessorId, HotFrame, HotnessMap};
pub use node::MemoryNode;
pub use region::{RegionError, RegionKind, RegionSplit};
pub use store::FrameStore;
