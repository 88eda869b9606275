// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the Logical Memory Pools reproduction: integer-nanosecond
//! simulated time, a deterministic event engine, seeded forkable randomness,
//! and the measurement primitives (histograms, utilization trackers) every
//! reported number is built from.
//!
//! Design goals, in order: **reproducibility** (same seed ⇒ same run, on any
//! platform), **simplicity** (no macros or type tricks; the engine is a
//! pending-event set and a loop), and **speed** (`O(log n)` scheduling on
//! a binary heap, [`queue::EventQueue`]; O(1) recording).
//!
//! ## Quick tour
//!
//! ```
//! use lmp_sim::prelude::*;
//!
//! // 1. Events are any user type.
//! enum Ev { Arrive, Depart }
//!
//! // 2. The engine delivers them in timestamp order.
//! let mut eng = Engine::new();
//! eng.schedule_at(SimTime::from_nanos(100), Ev::Arrive).expect("future time");
//! let mut latency = Histogram::new();
//! eng.run(|eng, ev| match ev {
//!     Ev::Arrive => { eng.schedule_after(SimDuration::from_nanos(280), Ev::Depart); }
//!     Ev::Depart => { latency.record(280); }
//! });
//! assert_eq!(latency.count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod latency;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

/// Commonly used items, re-exported for `use lmp_sim::prelude::*`.
pub mod prelude {
    pub use crate::engine::{Engine, SchedulePastError};
    pub use crate::latency::LoadedLatencyCurve;
    pub use crate::queue::{EventId, EventQueue};
    pub use crate::rate::BusyTracker;
    pub use crate::rng::DetRng;
    pub use crate::stats::{Counter, Ewma, Histogram};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::units::{fmt_bytes, Bandwidth, GIB, KIB, MIB, TIB};
}
