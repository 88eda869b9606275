//! Per-tenant token-bucket admission control.
//!
//! A [`TokenBucket`] holds up to `burst` tokens and refills at
//! `rate_per_sec` tokens per simulated second. Tokens are kept in fixed
//! point — one token is [`TOKEN_SCALE`] scaled units — so the per-
//! nanosecond refill increment (`rate_per_sec` scaled units per ns) is
//! exact integer arithmetic: admission decisions are a pure function of
//! the op schedule, bit-identical on every rerun.

use lmp_sim::time::SimTime;
use std::collections::BTreeMap;

/// Scaled units per token: refilling `rate_per_sec` tokens per second is
/// exactly `rate_per_sec` scaled units per nanosecond.
pub const TOKEN_SCALE: u128 = 1_000_000_000;

/// A tenant sharing the logical pool. Plain newtype so requester node and
/// tenant identity stay distinct types at the pool API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Admission limit for one tenant: sustained rate plus burst headroom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantRate {
    /// Sustained admissions per simulated second.
    pub ops_per_sec: u64,
    /// Bucket capacity: how many ops may be admitted back-to-back after
    /// an idle period.
    pub burst: u64,
}

/// Deterministic sim-time token bucket.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: u64,
    burst: u64,
    /// Current fill in scaled units (1 token = [`TOKEN_SCALE`] units).
    scaled: u128,
    /// Instant the bucket was last refilled to.
    last: SimTime,
}

impl TokenBucket {
    /// A bucket that starts full (a fresh tenant gets its burst).
    pub fn new(rate: TenantRate) -> Self {
        TokenBucket {
            rate_per_sec: rate.ops_per_sec,
            burst: rate.burst,
            scaled: (rate.burst as u128).saturating_mul(TOKEN_SCALE),
            last: SimTime::ZERO,
        }
    }

    /// Refill for the time elapsed since the previous refill. A `now` in
    /// the past (events at the same instant, or an out-of-order probe)
    /// refills nothing and never drains the bucket.
    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_duration_since(self.last).as_nanos();
        if elapsed > 0 {
            let add = (elapsed as u128).saturating_mul(self.rate_per_sec as u128);
            let cap = (self.burst as u128).saturating_mul(TOKEN_SCALE);
            self.scaled = self.scaled.saturating_add(add).min(cap);
            self.last = now;
        }
    }

    /// Admit `tokens` ops at `now` if the bucket holds them; on success
    /// the tokens are consumed.
    pub fn try_acquire(&mut self, now: SimTime, tokens: u64) -> bool {
        self.refill(now);
        let need = (tokens as u128).saturating_mul(TOKEN_SCALE);
        if self.scaled >= need {
            self.scaled = self.scaled.saturating_sub(need);
            true
        } else {
            false
        }
    }

    /// The configured limit.
    pub fn rate(&self) -> TenantRate {
        TenantRate {
            ops_per_sec: self.rate_per_sec,
            burst: self.burst,
        }
    }
}

/// Per-tenant admission control: a [`TokenBucket`] per limited tenant.
/// Tenants without a configured limit are always admitted, so wiring the
/// controller in changes nothing until a limit is set.
#[derive(Debug, Clone, Default)]
pub struct AdmissionController {
    buckets: BTreeMap<TenantId, TokenBucket>,
}

impl AdmissionController {
    /// An empty controller: every tenant unlimited.
    pub fn new() -> Self {
        AdmissionController::default()
    }

    /// Set (or replace) `tenant`'s limit. The new bucket starts full.
    pub fn set_limit(&mut self, tenant: TenantId, rate: TenantRate) {
        self.buckets.insert(tenant, TokenBucket::new(rate));
    }

    /// Admit `tokens` ops from `tenant` at `now`. Unlimited tenants are
    /// always admitted; limited tenants consume from their bucket.
    pub fn admit(&mut self, now: SimTime, tenant: TenantId, tokens: u64) -> bool {
        match self.buckets.get_mut(&tenant) {
            Some(b) => b.try_acquire(now, tokens),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(TenantRate {
            ops_per_sec: 1_000_000, // 1 op per µs
            burst: 4,
        });
        for _ in 0..4 {
            assert!(b.try_acquire(SimTime::ZERO, 1));
        }
        assert!(!b.try_acquire(SimTime::ZERO, 1), "burst exhausted");
    }

    #[test]
    fn refill_is_exact_integer_ns() {
        // 1 op/µs: after 999 ns the bucket holds 0.999 tokens — not one.
        let mut b = TokenBucket::new(TenantRate {
            ops_per_sec: 1_000_000,
            burst: 1,
        });
        assert!(b.try_acquire(SimTime::ZERO, 1));
        assert!(!b.try_acquire(at(999), 1));
        assert!(b.try_acquire(at(1_000), 1));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(TenantRate {
            ops_per_sec: 1_000_000,
            burst: 3,
        });
        assert!(b.try_acquire(SimTime::ZERO, 3));
        // A long idle period refills to burst, not beyond.
        assert!(b.try_acquire(at(1_000_000), 3));
        assert!(!b.try_acquire(at(1_000_000), 1));
    }

    #[test]
    fn backwards_clock_never_drains() {
        let mut b = TokenBucket::new(TenantRate {
            ops_per_sec: 1_000_000,
            burst: 2,
        });
        assert!(b.try_acquire(at(5_000), 2));
        // An earlier instant refills nothing (and must not underflow).
        assert!(!b.try_acquire(at(1_000), 1));
        // Nor does it move the refill clock: 2 µs later, 2 tokens.
        assert!(b.try_acquire(at(7_000), 2));
    }

    #[test]
    fn controller_unlimited_by_default() {
        let mut ac = AdmissionController::new();
        assert!(ac.admit(SimTime::ZERO, TenantId(7), 1_000_000));
    }

    #[test]
    fn controller_limits_only_configured_tenant() {
        let mut ac = AdmissionController::new();
        ac.set_limit(
            TenantId(1),
            TenantRate {
                ops_per_sec: 1_000_000,
                burst: 2,
            },
        );
        assert!(ac.admit(SimTime::ZERO, TenantId(1), 2));
        assert!(!ac.admit(SimTime::ZERO, TenantId(1), 1));
        assert!(ac.admit(SimTime::ZERO, TenantId(2), 100), "other tenant untouched");
    }

    #[test]
    fn same_schedule_same_decisions() {
        let run = || {
            let mut ac = AdmissionController::new();
            ac.set_limit(
                TenantId(0),
                TenantRate {
                    ops_per_sec: 2_000_000,
                    burst: 3,
                },
            );
            (0..200u64)
                .map(|i| ac.admit(at(i * 137), TenantId(0), 1 + i % 2))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }
}
