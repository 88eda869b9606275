//! Retry, timeout, and backoff semantics for pool operations under
//! faults.
//!
//! The paper expects failures to surface to applications as memory
//! exceptions, not hangs or crashes. This module supplies the client-side
//! half: a [`RetryPolicy`] with exponential backoff in *simulated* time,
//! and a classification of [`PoolError`]s into transient errors worth
//! retrying (the holder may recover, the port may come back) versus
//! permanent ones that must surface immediately.

use lmp_core::prelude::*;
use lmp_sim::prelude::*;

/// When and how often to retry a failed pool operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles every retry.
    pub base_backoff: SimDuration,
    /// Give up once the next attempt would start later than
    /// `issue + timeout`, even with attempts left.
    pub timeout: SimDuration,
}

impl RetryPolicy {
    /// Defaults used by the chaos scenarios: 6 attempts, 200 ns initial
    /// backoff (≈ one fabric round trip), 50 µs budget — long enough to
    /// ride out a crash-detection window, short enough to fail fast on a
    /// permanently lost segment.
    pub fn default_chaos() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: SimDuration::from_nanos(200),
            timeout: SimDuration::from_micros(50),
        }
    }

    /// Backoff to wait after attempt number `attempt` (0-based) fails:
    /// `base · 2^attempt`, saturating.
    pub fn backoff_after(&self, attempt: u32) -> SimDuration {
        let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
        SimDuration::from_nanos(self.base_backoff.as_nanos().saturating_mul(factor))
    }

    /// Whether another attempt may be scheduled after `attempt` (0-based)
    /// failed at simulated time `now`, for an operation issued at `issued`.
    pub fn may_retry(&self, issued: SimTime, now: SimTime, attempt: u32) -> bool {
        attempt + 1 < self.max_attempts
            && (now + self.backoff_after(attempt)) <= issued + self.timeout
    }
}

/// Whether an error is worth retrying: the condition can clear (server
/// restart, port restore, protection-layer recovery, a tenant's token
/// bucket refilling). Capacity, bounds, and unknown-segment errors are
/// deterministic and permanent.
pub fn is_retryable(err: &PoolError) -> bool {
    matches!(
        err,
        PoolError::SegmentLost(_)
            | PoolError::ServerDown(_)
            | PoolError::AdmissionRejected(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::NodeId;

    #[test]
    fn backoff_is_exponential() {
        let p = RetryPolicy::default_chaos();
        assert_eq!(p.backoff_after(0).as_nanos(), 200);
        assert_eq!(p.backoff_after(1).as_nanos(), 400);
        assert_eq!(p.backoff_after(3).as_nanos(), 1600);
    }

    #[test]
    fn attempts_cap_retries() {
        let p = RetryPolicy::default_chaos();
        // 6 attempts: retries follow attempts 0–4, none follows attempt 5.
        assert!(p.may_retry(SimTime::ZERO, SimTime::ZERO, 4));
        assert!(!p.may_retry(SimTime::ZERO, SimTime::ZERO, 5));
    }

    #[test]
    fn timeout_caps_retries() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff: SimDuration::from_nanos(1000),
            timeout: SimDuration::from_nanos(2500),
        };
        // Attempt 0 fails at t=0: attempt 1 would start at t=1000, inside
        // the budget. Attempt 1 fails at t=1000: attempt 2 would start at
        // t=3000 > 2500, so only 2 attempts run.
        assert!(policy.may_retry(SimTime::ZERO, SimTime::ZERO, 0));
        assert!(!policy.may_retry(SimTime::ZERO, SimTime::from_nanos(1000), 1));
    }

    #[test]
    fn transient_errors_retry_and_permanent_ones_surface() {
        let seg = SegmentId(3);
        assert!(is_retryable(&PoolError::SegmentLost(seg)));
        assert!(is_retryable(&PoolError::ServerDown(NodeId(1))));
        assert!(is_retryable(&PoolError::AdmissionRejected(TenantId(2))));
        assert!(!is_retryable(&PoolError::UnknownSegment(seg)));
        let oob = PoolError::OutOfBounds {
            segment: seg,
            end: 65,
            len: 64,
        };
        assert!(!is_retryable(&oob));
        let full = PoolError::Capacity {
            requested_frames: 4,
        };
        assert!(!is_retryable(&full));
    }
}
