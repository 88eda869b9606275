// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-core — Logical Memory Pools
//!
//! The paper's contribution: a rack-wide memory pool **carved out of the
//! local DRAM of every server** instead of a separate memory box.
//!
//! * [`pool::LogicalPool`] — allocation, placement, and timed access over a
//!   global logical address space; local resolution runs at DRAM speed.
//! * [`addr`] / [`translate`] — `(segment, offset)` logical addresses and
//!   the two-level translation scheme (coarse replicated map → server,
//!   fine local map → frame) with per-server translation caches.
//! * [`batch`] — scatter-gather batches: one translation per distinct
//!   segment, per-holder coalescing, and pipelined fabric streams.
//! * [`migrate`] — pointer-safe buffer migration via epoch-bumped
//!   translations.
//! * [`balance`] — the locality-balancing daemon driven by access-bit
//!   telemetry.
//! * [`sizing`] — the periodic global optimizer for private/shared splits.
//! * [`observe`] — pool instruments, access spans, and the rack-level
//!   telemetry roll-up.
//! * [`controller`] — the telemetry-driven adaptive sizing loop
//!   (observe → decide → act).
//! * [`failure`] — crash masking by mirroring or XOR erasure coding, and
//!   memory exceptions for unprotected segments.
//! * [`placement`] — the failure-domain hierarchy (datacenter → rack →
//!   host) and the placement policy that keeps protection groups spread
//!   across domains.
//! * [`health`] — lease/heartbeat failure detection (Healthy → Suspected
//!   → Down) and epoch-versioned cluster membership.
//! * [`heal`] — the recovery orchestrator: throttled, epoch-tagged
//!   automatic repair driven by detector confirmations.
//! * [`hedge`] — tail-latency QoS: reads predicted past a live-telemetry
//!   deadline race a duplicate through the protection twin.
//!
//! ```
//! use lmp_core::prelude::*;
//! use lmp_fabric::{Fabric, LinkProfile, MemOp, NodeId};
//! use lmp_sim::prelude::*;
//!
//! // 4 servers, 24 GiB each, fully poolable (the paper's §4.1 Logical setup).
//! let mut pool = LogicalPool::new(PoolConfig::paper_logical());
//! let mut fabric = Fabric::new(LinkProfile::link1(), 4);
//!
//! // Allocate an 8 GiB buffer near server 0 and stream it.
//! let seg = pool.alloc(8 * GIB, Placement::LocalFirst(NodeId(0))).unwrap();
//! let access = pool
//!     .access(&mut fabric, SimTime::ZERO, NodeId(0),
//!             LogicalAddr::new(seg, 0), 64 * MIB, MemOp::Read)
//!     .unwrap();
//! assert_eq!(access.remote_bytes, 0, "locally resolved");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod balance;
pub mod batch;
pub mod controller;
pub mod failure;
pub mod heal;
pub mod health;
pub mod hedge;
pub mod migrate;
pub mod observe;
pub mod placement;
pub mod pool;
pub mod runtime;
pub mod sizing;
pub mod translate;

/// Commonly used items.
pub mod prelude {
    pub use crate::addr::{frame_chunks, LogicalAddr, SegmentId};
    pub use crate::balance::{BalanceRound, BalancerConfig, LocalityBalancer, MigrationPlan};
    pub use crate::batch::{schedule_holder_completions, BatchOp, BatchResult};
    pub use crate::failure::{
        DegradedRead, DegradedSource, GroupId, ProtectionManager, RecoveryReport,
        WriteAmplification,
    };
    pub use crate::heal::{RecoveryOrchestrator, RejoinOutcome, TaggedRecovery};
    pub use crate::health::{
        FailureDetector, HealthConfig, HealthEvent, Membership, NodeHealth, ProbeOutcome,
    };
    pub use crate::controller::{ControllerConfig, SizingController, TickReport};
    pub use crate::hedge::{hedged_read, HedgeConfig, HedgeOutcome, HedgeWinner};
    pub use crate::migrate::{migrate_segment, MigrationReport};
    pub use crate::observe::{rack_snapshot, PoolTelemetry};
    pub use crate::placement::{DomainLevel, DomainMap, PlacementDecision, PlacementPolicy};
    pub use crate::pool::{LogicalPool, Placement, PoolAccess, PoolConfig, PoolError};
    pub use crate::runtime::{
        RackRuntime, RuntimeConfig, RuntimeError, ServerRuntime, VirtAddr,
    };
    pub use crate::sizing::{
        apply as apply_sizing, apply_best_effort, solve as solve_sizing, AppDemand, SizingPlan,
    };
    pub use crate::translate::{GlobalMap, LocalMap, SegmentLoc, TranslationCache};
    pub use lmp_qos::{TenantId, TenantRate};
}

pub use prelude::*;
