// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-fabric — CXL-like rack fabric model
//!
//! The paper assumes a CXL 3.0 fabric (Global Shared Fabric-Attached Memory
//! with Port-Based Routing) that does not exist yet; like the paper, which
//! emulates it with UPI links, we model it with parameterized links whose
//! loaded-latency endpoints and bandwidths are taken from the paper's
//! Table 1 and Table 2.
//!
//! * [`profile::LinkProfile`] — the `(min latency, max latency, bandwidth)`
//!   envelope, with `Link0`/`Link1`/`Pond`/`FPGA` presets.
//! * [`link::Link`] — one directed wire: FIFO serialization plus a
//!   load-dependent latency component.
//! * [`fabric::Fabric`] — nodes on leaf switches, leaves in racks, racks
//!   on a datacenter spine, with Port-Based Routing: every charge walks the
//!   static route between two nodes, so incast and uplink
//!   oversubscription are emergent. [`Fabric::new`] builds the paper's
//!   single-switch star (one rack of one leaf), [`Fabric::datacenter`] the
//!   scaled-out shapes of §2.2.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod link;
pub mod profile;
pub mod types;

pub use fabric::{BatchTransfer, Fabric, FabricCompletion, FabricError, HedgedCompletion};
pub use link::{Link, LinkTransfer};
pub use lmp_qos::{Band, BandWeights};
pub use profile::LinkProfile;
pub use types::{LinkId, MemOp, NodeId, PROBE_BYTES, REQUEST_FLIT_BYTES};
