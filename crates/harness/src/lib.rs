// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-harness — deterministic fault injection for the LMP stack
//!
//! A FoundationDB-style simulation-testing layer over the repo's
//! discrete-event engine. The paper's §5 lists the failure remedies an
//! LMP must get right — masking via replication or erasure coding,
//! exceptions for the rest — and this crate is how we trust that code:
//! every fault schedule is a pure function of a seed, every run produces
//! a digestible event trace, and cross-layer invariants are checked both
//! during recovery and at the end of the run.
//!
//! * [`plan`] — [`plan::FaultPlan`]: seeded schedules of server crashes,
//!   restarts, port flaps, and link-latency degradation.
//! * [`retry`] — [`retry::RetryPolicy`]: exponential backoff in simulated
//!   time, which the scenarios drive through engine events; transient vs.
//!   permanent error classification.
//! * [`invariants`] — translation consistency, recovery completeness,
//!   write-amplification accounting, coherence mutual exclusion under
//!   snoop-filter overflow, lease-confirmation audit, epoch monotonicity,
//!   degraded-read byte identity, and telemetry conservation (the
//!   instrument books must balance in every rack snapshot).
//! * [`trace`] — [`trace::ChaosTrace`]: the append-only run log and its
//!   digest (same seed ⇒ same digest, byte for byte).
//! * [`scenario`] — the ten shipped chaos scenarios, each one spec value
//!   (rack, faults, pinned events, workload, checks), and the one runner
//!   that executes them: manual crash recovery, self-healing (lease
//!   detection and throttled auto-repair), rack loss, and hedged reads
//!   under a flood.
//!
//! ```
//! use lmp_harness::prelude::*;
//!
//! let a = run_scenario(Scenario::CrashMirrored, 7);
//! let b = run_scenario(Scenario::CrashMirrored, 7);
//! assert!(a.passed());
//! assert_eq!(a.digest, b.digest, "determinism is the contract");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod invariants;
pub mod plan;
pub mod retry;
pub mod scenario;
pub mod trace;

/// Commonly used items.
pub mod prelude {
    pub use crate::invariants::{
        check_coherence_mutex, check_degraded_read, check_epoch_monotonic,
        check_lease_confirmations, check_recovery, check_telemetry_conservation,
        check_translation, check_write_amplification, CheckResult, ContentModel, WriteLedger,
    };
    pub use crate::plan::{Fault, FaultPlan, PlanConfig, PlannedFault};
    pub use crate::retry::{is_retryable, RetryPolicy};
    pub use crate::scenario::{run_scenario, ChaosReport, Scenario};
    pub use crate::trace::ChaosTrace;
}

pub use prelude::*;
