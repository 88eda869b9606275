//! Cross-layer invariant checkers.
//!
//! Each checker states one property the system must hold under any fault
//! schedule, and verifies it against an independently maintained model —
//! never against the implementation's own bookkeeping alone:
//!
//! * **Translation consistency** — every live segment's two-level
//!   translation agrees from every server, and the bytes read through the
//!   logical address match a shadow copy maintained by the workload.
//! * **Recovery completeness** — after a crash, every protected segment is
//!   restored byte-identical at its old logical address, and the
//!   [`RecoveryReport`] names exactly the affected segments.
//! * **Write-amplification accounting** — protection never writes more
//!   (or fewer) extra bytes than its contract: one replica or one parity
//!   update per protected write.
//! * **Coherence mutual exclusion** — a spinlock on the coherent region
//!   still excludes under snoop-filter overflow (back-invalidation).
//! * **Lease confirmation audit** — the failure detector never confirms a
//!   node Down while any probe of it succeeded inside the lease window,
//!   verified against the detector's own probe evidence log.
//! * **Epoch monotonicity** — every confirmed membership transition
//!   (ConfirmedDown, Rejoined) carries a strictly larger epoch than the
//!   one before it.
//! * **Degraded-read identity** — bytes served from a mirror or rebuilt
//!   on the fly from parity survivors are identical to what the primary
//!   would have returned.

use lmp_coherence::{CoherenceConfig, CoherentRegion, SpinLock};
use lmp_core::prelude::*;
use lmp_sim::prelude::*;
use std::collections::BTreeMap;

/// Shadow copy of segment contents, maintained by the workload beside the
/// pool. `BTreeMap` so iteration (and therefore traces) is deterministic.
pub type ContentModel = BTreeMap<SegmentId, Vec<u8>>;

/// Verdict of one invariant check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Which invariant was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Failure explanation ("ok" when passed).
    pub detail: String,
}

impl CheckResult {
    /// A passing verdict.
    pub fn pass(name: &'static str) -> Self {
        CheckResult {
            name,
            passed: true,
            detail: "ok".into(),
        }
    }

    /// A failing verdict.
    pub fn fail(name: &'static str, detail: impl Into<String>) -> Self {
        CheckResult {
            name,
            passed: false,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for CheckResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {}",
            if self.passed { "PASS" } else { "FAIL" },
            self.name,
            self.detail
        )
    }
}

/// Translation consistency: for every segment in `model`, the global map
/// names a live holder, the holder's fine map covers the segment, every
/// server's (possibly stale) translation cache resolves to that holder
/// after at most one fault, and the bytes at the logical address are
/// byte-identical to the model.
pub fn check_translation(pool: &mut LogicalPool, model: &ContentModel) -> CheckResult {
    const NAME: &str = "translation-consistency";
    for (&seg, expect) in model {
        let holder = match pool.holder_of(seg) {
            Some(h) => h,
            None => return CheckResult::fail(NAME, format!("{seg}: no holder in global map")),
        };
        if pool.node(holder).is_failed() {
            return CheckResult::fail(NAME, format!("{seg}: holder {holder} is crashed"));
        }
        if !pool.local_map(holder).holds(seg) {
            return CheckResult::fail(
                NAME,
                format!("{seg}: holder {holder}'s fine map does not cover it"),
            );
        }
        for r in 0..pool.servers() {
            match pool.translate(lmp_fabric::NodeId(r), seg) {
                Ok((loc, _faults)) => {
                    if loc.server != holder {
                        return CheckResult::fail(
                            NAME,
                            format!(
                                "{seg}: server {r} translates to {} but holder is {holder}",
                                loc.server
                            ),
                        );
                    }
                }
                Err(e) => {
                    return CheckResult::fail(NAME, format!("{seg}: server {r} translate: {e}"))
                }
            }
        }
        match pool.read_bytes(LogicalAddr::new(seg, 0), expect.len() as u64) {
            Ok(got) if &got == expect => {}
            Ok(_) => {
                return CheckResult::fail(NAME, format!("{seg}: contents differ from model"))
            }
            Err(e) => return CheckResult::fail(NAME, format!("{seg}: read failed: {e}")),
        }
    }
    CheckResult::pass(NAME)
}

/// Recovery completeness: after recovering a crash that affected
/// `protected` (segments with surviving protection) and `unprotected`
/// segments, the report must restore every protected segment — naming it
/// in `promoted` or `reconstructed`, nothing else — report exactly the
/// unprotected ones lost, and every restored segment must read
/// byte-identical to the model at its unchanged logical address.
pub fn check_recovery(
    pool: &LogicalPool,
    report: &RecoveryReport,
    protected: &[SegmentId],
    unprotected: &[SegmentId],
    model: &ContentModel,
) -> CheckResult {
    const NAME: &str = "recovery-completeness";
    let mut restored: Vec<SegmentId> = report
        .promoted
        .iter()
        .chain(&report.reconstructed)
        .copied()
        .collect();
    restored.sort_unstable();
    let mut expect_restored = protected.to_vec();
    expect_restored.sort_unstable();
    if restored != expect_restored {
        return CheckResult::fail(
            NAME,
            format!("restored {restored:?}, expected exactly {expect_restored:?}"),
        );
    }
    let mut expect_lost = unprotected.to_vec();
    expect_lost.sort_unstable();
    if report.lost != expect_lost {
        return CheckResult::fail(
            NAME,
            format!("lost {:?}, expected exactly {expect_lost:?}", report.lost),
        );
    }
    for &seg in protected {
        let holder = match pool.holder_of(seg) {
            Some(h) => h,
            None => return CheckResult::fail(NAME, format!("restored {seg} has no holder")),
        };
        if pool.node(holder).is_failed() {
            return CheckResult::fail(NAME, format!("restored {seg} homed on crashed {holder}"));
        }
        let expect = match model.get(&seg) {
            Some(e) => e,
            None => return CheckResult::fail(NAME, format!("{seg} missing from model")),
        };
        match pool.read_bytes(LogicalAddr::new(seg, 0), expect.len() as u64) {
            Ok(got) if &got == expect => {}
            Ok(_) => {
                return CheckResult::fail(
                    NAME,
                    format!("restored {seg} is not byte-identical to pre-crash contents"),
                )
            }
            Err(e) => return CheckResult::fail(NAME, format!("restored {seg} unreadable: {e}")),
        }
    }
    CheckResult::pass(NAME)
}

/// Running tally of protected-write amplification, checked against the
/// protection contract: every write to a mirrored or parity-protected
/// segment incurs exactly `len` extra bytes; unprotected writes none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteLedger {
    /// Writes recorded.
    pub writes: u64,
    /// Primary bytes written.
    pub primary_bytes: u64,
    /// Extra bytes the protection layer reported.
    pub actual_extra: u64,
    /// Extra bytes the contract predicts.
    pub expected_extra: u64,
}

impl WriteLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one write's [`WriteAmplification`]. `protected` is whether
    /// the segment had a mirror or parity group at write time.
    pub fn record(&mut self, amp: WriteAmplification, protected: bool) {
        self.writes += 1;
        self.primary_bytes += amp.primary_bytes;
        self.actual_extra += amp.extra_bytes;
        if protected {
            self.expected_extra += amp.primary_bytes;
        }
    }
}

/// Write-amplification accounting balances against the contract.
pub fn check_write_amplification(ledger: &WriteLedger) -> CheckResult {
    const NAME: &str = "write-amplification";
    if ledger.actual_extra == ledger.expected_extra {
        CheckResult::pass(NAME)
    } else {
        CheckResult::fail(
            NAME,
            format!(
                "{} writes: protection wrote {} extra bytes, contract predicts {}",
                ledger.writes, ledger.actual_extra, ledger.expected_extra
            ),
        )
    }
}

/// Lease confirmation audit: for every `ConfirmedDown { node, at }` in
/// `events`, no probe of `node` in the detector's evidence log may have
/// succeeded within the lease window `(at - lease, at]`. A violation means
/// the detector confirmed a node that was demonstrably alive — the
/// spurious-recovery bug leases exist to prevent.
pub fn check_lease_confirmations(
    probes: &[ProbeOutcome],
    events: &[HealthEvent],
    lease: SimDuration,
) -> CheckResult {
    const NAME: &str = "lease-confirmation-audit";
    for ev in events {
        let HealthEvent::ConfirmedDown { node, at, .. } = ev else {
            continue;
        };
        for p in probes {
            if p.node == *node && p.ok && p.at <= *at && at.duration_since(p.at) < lease {
                return CheckResult::fail(
                    NAME,
                    format!(
                        "{node} confirmed Down at {at} but a probe succeeded at {} — \
                         inside the {} ns lease",
                        p.at,
                        lease.as_nanos()
                    ),
                );
            }
        }
    }
    CheckResult::pass(NAME)
}

/// Epoch monotonicity: membership epochs carried by confirmed transitions
/// must strictly increase in event order. A repeated or regressing epoch
/// would let a stale restart be mistaken for current state.
pub fn check_epoch_monotonic(events: &[HealthEvent]) -> CheckResult {
    const NAME: &str = "epoch-monotonicity";
    let mut last = 0u64;
    for ev in events {
        let epoch = match ev {
            HealthEvent::ConfirmedDown { epoch, .. } | HealthEvent::Rejoined { epoch, .. } => {
                *epoch
            }
            _ => continue,
        };
        if epoch <= last {
            return CheckResult::fail(
                NAME,
                format!("epoch {epoch} follows epoch {last}; transitions must strictly advance"),
            );
        }
        last = epoch;
    }
    CheckResult::pass(NAME)
}

/// Degraded-read identity: the bytes a [`DegradedRead`] served must be
/// exactly what the primary would have returned (`expect`, taken from the
/// workload's shadow model).
pub fn check_degraded_read(expect: &[u8], got: &DegradedRead) -> CheckResult {
    const NAME: &str = "degraded-read-identity";
    if got.bytes == expect {
        CheckResult::pass(NAME)
    } else {
        CheckResult::fail(
            NAME,
            format!(
                "degraded read via {:?} returned {} bytes that differ from the model",
                got.source,
                got.bytes.len()
            ),
        )
    }
}

/// Telemetry conservation: the pool's instruments must balance.
///
/// Three books have to agree in any rack snapshot:
/// * every access is either local or remote, so
///   `pool.accesses.local + pool.accesses.remote` equals
///   `pool.ops.read + pool.ops.write`;
/// * the per-server `by_server` breakdowns sum exactly to their totals;
/// * every remote access crossed the fabric at least once, so
///   `fabric.reads + fabric.writes` is at least `pool.accesses.remote`
///   (the fabric also carries protection and migration traffic, hence ≥).
///
/// An imbalance means an instrument was skipped or double-counted
/// somewhere between the pool hook and the exporters.
pub fn check_telemetry_conservation(snap: &lmp_telemetry::TelemetrySnapshot) -> CheckResult {
    const NAME: &str = "telemetry-conservation";
    let local = snap.counter("pool.accesses.local", &[]);
    let remote = snap.counter("pool.accesses.remote", &[]);
    let reads = snap.counter("pool.ops.read", &[]);
    let writes = snap.counter("pool.ops.write", &[]);
    if local + remote != reads + writes {
        return CheckResult::fail(
            NAME,
            format!(
                "local {local} + remote {remote} != reads {reads} + writes {writes}"
            ),
        );
    }
    let local_by = snap.counter_total("pool.accesses.local.by_server");
    if local_by != local {
        return CheckResult::fail(
            NAME,
            format!("by_server local sum {local_by} != total {local}"),
        );
    }
    let remote_by = snap.counter_total("pool.accesses.remote.by_server");
    if remote_by != remote {
        return CheckResult::fail(
            NAME,
            format!("by_server remote sum {remote_by} != total {remote}"),
        );
    }
    let fabric_ops = snap.counter("fabric.reads", &[]) + snap.counter("fabric.writes", &[]);
    if fabric_ops < remote {
        return CheckResult::fail(
            NAME,
            format!("fabric carried {fabric_ops} transfers for {remote} remote accesses"),
        );
    }
    CheckResult::pass(NAME)
}

/// Coherence mutual exclusion under snoop-filter overflow.
///
/// Runs a seeded schedule of lock acquire/release interleaved with enough
/// unrelated coherent traffic to overflow a tiny (8-entry) snoop filter,
/// forcing back-invalidations. A shadow owner tracks who *should* hold the
/// lock; a counter word incremented non-atomically inside the critical
/// section detects lost updates. The check also asserts the filter really
/// overflowed — otherwise it proved nothing.
pub fn check_coherence_mutex(seed: u64, nodes: u32, rounds: u32) -> CheckResult {
    const NAME: &str = "coherence-mutual-exclusion";
    assert!(nodes >= 2, "mutual exclusion needs contenders");
    const LOCK_ADDR: u64 = 0;
    const CTR_ADDR: u64 = 64;
    let config = CoherenceConfig {
        filter_capacity: 8,
        ..CoherenceConfig::default_lmp()
    };
    let mut region = CoherentRegion::new(config, 4096);
    let lock = SpinLock::new(LOCK_ADDR);
    let mut rng = DetRng::new(seed).fork("coherence-mutex");
    // Shadow state: who holds the lock, and the counter value they read on
    // entry (the write-back at exit is deliberately non-atomic).
    let mut shadow: Option<(u32, u64)> = None;
    let mut critical_sections = 0u64;
    for _ in 0..rounds {
        // Background sharers hammer scratch blocks to overflow the filter.
        let t = rng.below(nodes as u64) as u32;
        let scratch = 128 + rng.below(60) * 16;
        if region.load(t, scratch).is_err() {
            return CheckResult::fail(NAME, "scratch access out of region");
        }
        match shadow {
            Some((holder, entry_val)) => {
                if rng.chance(0.5) {
                    // Finish the critical section and release.
                    if region.store(holder, CTR_ADDR, entry_val + 1).is_err() {
                        return CheckResult::fail(NAME, "counter store failed");
                    }
                    critical_sections += 1;
                    if lock.holder(&mut region, holder) != Some(holder) {
                        return CheckResult::fail(
                            NAME,
                            format!("lock word lost its holder {holder}"),
                        );
                    }
                    if lock.release(&mut region, holder).is_err() {
                        return CheckResult::fail(NAME, "release failed");
                    }
                    shadow = None;
                } else {
                    // A contender must be refused while the lock is held.
                    let c = rng.below(nodes as u64) as u32;
                    match lock.try_acquire(&mut region, c) {
                        Ok((false, _)) => {}
                        Ok((true, _)) => {
                            return CheckResult::fail(
                                NAME,
                                format!("node {c} acquired while {holder} held the lock"),
                            )
                        }
                        Err(_) => return CheckResult::fail(NAME, "acquire out of region"),
                    }
                }
            }
            None => {
                let c = rng.below(nodes as u64) as u32;
                match lock.try_acquire(&mut region, c) {
                    Ok((true, _)) => {
                        let entry_val = match region.load(c, CTR_ADDR) {
                            Ok((v, _)) => v,
                            Err(_) => return CheckResult::fail(NAME, "counter load failed"),
                        };
                        shadow = Some((c, entry_val));
                    }
                    Ok((false, _)) => {
                        return CheckResult::fail(
                            NAME,
                            format!("node {c} failed to acquire a free lock"),
                        )
                    }
                    Err(_) => return CheckResult::fail(NAME, "acquire out of region"),
                }
            }
        }
    }
    // Drain a still-held critical section so the count is exact. A failure
    // here is a breach in its own right: the holder was inside the region
    // moments ago, so the store and release must both succeed.
    if let Some((holder, entry_val)) = shadow.take() {
        if region.store(holder, CTR_ADDR, entry_val + 1).is_err() {
            return CheckResult::fail(NAME, "drain store left the region");
        }
        critical_sections += 1;
        if lock.release(&mut region, holder).is_err() {
            return CheckResult::fail(NAME, "drain release failed for the holder");
        }
    }
    match region.load(0, CTR_ADDR) {
        Ok((v, _)) if v == critical_sections => {}
        Ok((v, _)) => {
            return CheckResult::fail(
                NAME,
                format!("counter {v} after {critical_sections} critical sections: lost update"),
            )
        }
        Err(_) => return CheckResult::fail(NAME, "final counter load failed"),
    }
    if region.filter().back_invalidation_count() == 0 {
        return CheckResult::fail(
            NAME,
            "snoop filter never overflowed; the check exercised nothing",
        );
    }
    CheckResult::pass(NAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::{Fabric, LinkProfile, MemOp, NodeId};
    use lmp_telemetry::{CounterValue, MetricKey, TelemetrySnapshot};
    use lmp_mem::{DramProfile, FRAME_BYTES};

    fn world(servers: u32) -> (LogicalPool, Fabric, ProtectionManager) {
        let cfg = PoolConfig {
            servers,
            capacity_per_server: 32 * FRAME_BYTES,
            shared_per_server: 24 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        };
        (
            LogicalPool::new(cfg),
            Fabric::new(LinkProfile::link1(), servers),
            ProtectionManager::new(),
        )
    }

    #[test]
    fn translation_check_passes_on_healthy_pool() {
        let (mut p, _, _) = world(3);
        let mut model = ContentModel::new();
        for i in 0..3 {
            let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(i))).unwrap();
            let data = vec![i as u8 + 1; 100];
            p.write_bytes(LogicalAddr::new(seg, 0), &data).unwrap();
            model.insert(seg, data);
        }
        let r = check_translation(&mut p, &model);
        assert!(r.passed, "{r}");
    }

    #[test]
    fn translation_check_catches_divergence() {
        let (mut p, _, _) = world(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        p.write_bytes(LogicalAddr::new(seg, 0), b"real").unwrap();
        let mut model = ContentModel::new();
        model.insert(seg, b"fake".to_vec());
        let r = check_translation(&mut p, &model);
        assert!(!r.passed);
        assert!(r.detail.contains("differ"), "{r}");
    }

    #[test]
    fn recovery_check_passes_for_promoted_mirror() {
        let (mut p, mut f, mut pm) = world(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        pm.write(&mut p, LogicalAddr::new(seg, 0), b"payload").unwrap();
        let mut model = ContentModel::new();
        model.insert(seg, p.read_bytes(LogicalAddr::new(seg, 0), FRAME_BYTES).unwrap());
        let affected = p.crash_server(NodeId(0)).unwrap();
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(0), &affected);
        let r = check_recovery(&p, &report, &[seg], &[], &model);
        assert!(r.passed, "{r}");
    }

    #[test]
    fn recovery_check_catches_misreported_loss() {
        let (mut p, mut f, mut pm) = world(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let affected = p.crash_server(NodeId(1)).unwrap();
        let report = pm.recover(&mut p, &mut f, SimTime::ZERO, NodeId(1), &affected);
        // Caller wrongly claims the segment was protected.
        let model = ContentModel::new();
        let r = check_recovery(&p, &report, &[seg], &[], &model);
        assert!(!r.passed);
    }

    #[test]
    fn ledger_balances_for_mirrored_writes() {
        let (mut p, mut f, mut pm) = world(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let mut ledger = WriteLedger::new();
        let amp = pm.write(&mut p, LogicalAddr::new(seg, 0), b"abcd").unwrap();
        ledger.record(amp, pm.is_protected(seg));
        assert!(check_write_amplification(&ledger).passed);
        // Tamper: claim the write was unprotected.
        let mut bad = WriteLedger::new();
        bad.record(amp, false);
        assert!(!check_write_amplification(&bad).passed);
    }

    #[test]
    fn lease_audit_passes_when_beats_predate_the_lease() {
        let lease = SimDuration::from_nanos(3000);
        let probes = vec![
            ProbeOutcome {
                node: NodeId(1),
                at: SimTime::from_nanos(1000),
                ok: true,
            },
            ProbeOutcome {
                node: NodeId(1),
                at: SimTime::from_nanos(1500),
                ok: false,
            },
        ];
        let events = vec![HealthEvent::ConfirmedDown {
            node: NodeId(1),
            at: SimTime::from_nanos(4000),
            epoch: 1,
        }];
        assert!(check_lease_confirmations(&probes, &events, lease).passed);
    }

    #[test]
    fn lease_audit_catches_a_confirmation_over_a_live_beat() {
        let lease = SimDuration::from_nanos(3000);
        let probes = vec![ProbeOutcome {
            node: NodeId(2),
            at: SimTime::from_nanos(2500),
            ok: true,
        }];
        let events = vec![HealthEvent::ConfirmedDown {
            node: NodeId(2),
            at: SimTime::from_nanos(4000),
            epoch: 1,
        }];
        let r = check_lease_confirmations(&probes, &events, lease);
        assert!(!r.passed);
        assert!(r.detail.contains("inside"), "{r}");
    }

    #[test]
    fn epoch_check_requires_strict_advance() {
        let at = SimTime::from_nanos(1);
        let good = vec![
            HealthEvent::ConfirmedDown {
                node: NodeId(0),
                at,
                epoch: 1,
            },
            HealthEvent::Rejoined {
                node: NodeId(0),
                at,
                epoch: 2,
            },
        ];
        assert!(check_epoch_monotonic(&good).passed);
        let bad = vec![
            HealthEvent::ConfirmedDown {
                node: NodeId(0),
                at,
                epoch: 2,
            },
            HealthEvent::Rejoined {
                node: NodeId(1),
                at,
                epoch: 2,
            },
        ];
        assert!(!check_epoch_monotonic(&bad).passed);
    }

    #[test]
    fn degraded_read_identity_compares_bytes() {
        let r = DegradedRead {
            bytes: b"abc".to_vec(),
            complete: SimTime::ZERO,
            source: DegradedSource::MirrorReplica,
        };
        assert!(check_degraded_read(b"abc", &r).passed);
        assert!(!check_degraded_read(b"abd", &r).passed);
    }

    #[test]
    fn telemetry_conservation_balances_on_instrumented_pool() {
        let (mut p, mut f, _) = world(3);
        p.attach_telemetry();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, 0);
        p.access(&mut f, SimTime::ZERO, NodeId(0), addr, 64, MemOp::Read)
            .unwrap();
        p.access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Write)
            .unwrap();
        let snap = rack_snapshot(&mut p, &mut f, SimTime::ZERO);
        let r = check_telemetry_conservation(&snap);
        assert!(r.passed, "{r}");
    }

    #[test]
    fn telemetry_conservation_catches_imbalanced_books() {
        let mut bad = TelemetrySnapshot::new();
        let one = CounterValue {
            value: 1,
            overflowed: false,
        };
        bad.insert_counter(MetricKey::new("pool.ops.read", &[]), CounterValue {
            value: 2,
            overflowed: false,
        });
        bad.insert_counter(MetricKey::new("pool.accesses.local", &[]), one);
        let r = check_telemetry_conservation(&bad);
        assert!(!r.passed);
        assert!(r.detail.contains("!="), "{r}");
    }

    #[test]
    fn coherence_mutex_holds_under_filter_overflow() {
        let r = check_coherence_mutex(1234, 4, 400);
        assert!(r.passed, "{r}");
    }

    #[test]
    fn coherence_mutex_check_is_deterministic() {
        let a = check_coherence_mutex(9, 3, 200);
        let b = check_coherence_mutex(9, 3, 200);
        assert_eq!(a, b);
    }
}
