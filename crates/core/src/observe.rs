//! Pool-level telemetry: instruments, spans, and the rack roll-up.
//!
//! [`PoolTelemetry`] attaches to a [`LogicalPool`] and records every timed
//! access through cheap pre-registered handles, plus a span tree per
//! access (`access` → `dram` [+ `fabric`]) whose children partition the
//! root exactly — so the per-phase latency breakdown sums back to the
//! end-to-end access latency, nanosecond for nanosecond.
//!
//! [`rack_snapshot`] demonstrates the roll-up path: each node exports into
//! a fresh per-node registry, the fabric into another, and the snapshots
//! merge into one rack-level view with deterministic JSON and digest.

use crate::batch::BatchOp;
use crate::migrate::MigrationReport;
use crate::placement::DomainLevel;
use crate::pool::{LogicalPool, PoolAccess};
use lmp_fabric::{Fabric, MemOp, NodeId};
use lmp_qos::TenantId;
use lmp_sim::prelude::*;
use lmp_telemetry::prelude::*;
use std::collections::BTreeMap;

/// Telemetry state carried by a [`LogicalPool`] once attached.
#[derive(Debug)]
pub struct PoolTelemetry {
    registry: MetricRegistry,
    spans: SpanRecorder,
    ops_read: CounterId,
    ops_write: CounterId,
    acc_local: CounterId,
    acc_remote: CounterId,
    bytes_local: CounterId,
    bytes_remote: CounterId,
    faults: CounterId,
    latency_ns: CounterId,
    access_latency: HistogramId,
    migrations: CounterId,
    migration_bytes: CounterId,
    degraded_reads: CounterId,
    per_server_local: Vec<CounterId>,
    per_server_remote: Vec<CounterId>,
    /// `placement.independence_lost{domain}` — registered lazily on the
    /// first loss so snapshots taken before any degraded placement keep
    /// their historical byte-identical digests.
    independence_lost_rack: Option<CounterId>,
    independence_lost_host: Option<CounterId>,
    /// Live mirror of the `pool.access_latency` instrument. The registry's
    /// histograms are write-only until snapshot time, but hedged reads need
    /// a quantile *during* the run to derive deadlines — this mirror gives
    /// them one without changing the exported snapshot.
    access_latency_live: Histogram,
    /// `qos.admission_rejected{tenant}` — registered lazily on a tenant's
    /// first rejection so QoS-free runs keep their historical digests.
    admission_rejected: BTreeMap<u32, CounterId>,
    /// `qos.hedge.{issued,won,wasted}` — registered lazily on first use.
    hedge_issued: Option<CounterId>,
    hedge_won: Option<CounterId>,
    hedge_wasted: Option<CounterId>,
    /// `compute.stale_holder` — a shipped scan found its stripe living on a
    /// different node than the plan recorded (migration or post-crash
    /// promotion in between). Registered lazily so compute-free runs keep
    /// their historical digests.
    stale_holder: Option<CounterId>,
}

impl PoolTelemetry {
    /// Fresh telemetry for a pool of `servers` nodes.
    pub fn new(servers: u32) -> Self {
        let mut registry = MetricRegistry::new();
        let ops_read = registry.counter("pool.ops.read", &[]);
        let ops_write = registry.counter("pool.ops.write", &[]);
        let acc_local = registry.counter("pool.accesses.local", &[]);
        let acc_remote = registry.counter("pool.accesses.remote", &[]);
        let bytes_local = registry.counter("pool.bytes.local", &[]);
        let bytes_remote = registry.counter("pool.bytes.remote", &[]);
        let faults = registry.counter("pool.faults", &[]);
        let latency_ns = registry.counter("pool.latency_ns", &[]);
        let access_latency = registry.histogram("pool.access_latency", &[]);
        let migrations = registry.counter("pool.migrations", &[]);
        let migration_bytes = registry.counter("pool.migration_bytes", &[]);
        let degraded_reads = registry.counter("pool.degraded_reads", &[]);
        let mut per_server_local = Vec::with_capacity(servers as usize);
        let mut per_server_remote = Vec::with_capacity(servers as usize);
        for s in 0..servers {
            let label = s.to_string();
            per_server_local.push(
                registry.counter("pool.accesses.local.by_server", &[("server", &label)]),
            );
            per_server_remote.push(
                registry.counter("pool.accesses.remote.by_server", &[("server", &label)]),
            );
        }
        PoolTelemetry {
            registry,
            spans: SpanRecorder::new(),
            ops_read,
            ops_write,
            acc_local,
            acc_remote,
            bytes_local,
            bytes_remote,
            faults,
            latency_ns,
            access_latency,
            migrations,
            migration_bytes,
            degraded_reads,
            per_server_local,
            per_server_remote,
            independence_lost_rack: None,
            independence_lost_host: None,
            access_latency_live: Histogram::new(),
            admission_rejected: BTreeMap::new(),
            hedge_issued: None,
            hedge_won: None,
            hedge_wasted: None,
            stale_holder: None,
        }
    }

    /// Record one completed batch of pool accesses (a single op is a batch
    /// of one): `ops[i]` completed as `accesses[i]`. `dram_done` is the
    /// instant the last DRAM run finished; the tail up to `complete` is
    /// attributed to the fabric (present only when the batch moved remote
    /// bytes — for all-local batches the two coincide). Per-op counters
    /// are bumped exactly as issuing the ops one by one would, but the
    /// span tree gets **one** root — `access` for a single op, `batch` for
    /// more — whose children partition the batch's end-to-end
    /// `[now, complete]` window.
    pub(crate) fn on_batch(
        &mut self,
        now: SimTime,
        requester: NodeId,
        ops: &[BatchOp],
        accesses: &[PoolAccess],
        dram_done: SimTime,
        complete: SimTime,
    ) {
        let mut remote_bytes = 0;
        for (o, access) in ops.iter().zip(accesses) {
            match o.op {
                MemOp::Read => self.registry.inc(self.ops_read),
                MemOp::Write => self.registry.inc(self.ops_write),
            }
            let remote = access.remote_bytes > 0;
            if remote {
                self.registry.inc(self.acc_remote);
                self.registry.inc(self.per_server_remote[requester.0 as usize]);
            } else {
                self.registry.inc(self.acc_local);
                self.registry.inc(self.per_server_local[requester.0 as usize]);
            }
            self.registry.add(self.bytes_local, access.local_bytes);
            self.registry.add(self.bytes_remote, access.remote_bytes);
            self.registry.add(self.faults, access.faults as u64);
            remote_bytes += access.remote_bytes;
        }
        // One latency sample per batch: the span roots below cover
        // [now, complete] once, and `latency_breakdown` promises its
        // self-times sum back to `latency_total_ns` exactly.
        let total = complete.duration_since(now);
        self.registry.add(self.latency_ns, total.as_nanos());
        self.registry.record_duration(self.access_latency, total);
        self.access_latency_live.record_duration(total);

        // Span tree: the children partition [now, complete] exactly.
        let name = if ops.len() == 1 { "access" } else { "batch" };
        let root = self.spans.span_start(name, None, now);
        self.spans.record_closed("dram", Some(root), now, dram_done);
        if remote_bytes > 0 {
            self.spans
                .record_closed("fabric", Some(root), dram_done, complete);
        }
        self.spans.span_end(root, complete);
    }

    /// Record one executed migration.
    pub(crate) fn on_migration(&mut self, report: &MigrationReport) {
        self.registry.inc(self.migrations);
        self.registry.add(self.migration_bytes, report.bytes);
    }

    /// Note a degraded-mode read served by a protection layer.
    pub fn note_degraded_read(&mut self) {
        self.registry.inc(self.degraded_reads);
    }

    /// Note a placement that had to surrender failure-domain independence
    /// at `level` (capacity forced co-location). Bumps the labelled
    /// `placement.independence_lost{domain}` counter so a silent
    /// blast-radius regression shows up in snapshots.
    pub fn note_independence_lost(&mut self, level: DomainLevel) {
        let slot = match level {
            DomainLevel::Rack => &mut self.independence_lost_rack,
            DomainLevel::Host => &mut self.independence_lost_host,
        };
        let id = *slot.get_or_insert_with(|| {
            self.registry
                .counter("placement.independence_lost", &[("domain", level.label())])
        });
        self.registry.inc(id);
    }

    /// Quantile `q` of the live access-latency distribution, or `None`
    /// before the first access. Hedged reads derive their per-tenant
    /// deadlines from this.
    pub fn access_latency_quantile(&self, q: f64) -> Option<SimDuration> {
        if self.access_latency_live.count() == 0 {
            None
        } else {
            Some(SimDuration::from_nanos(self.access_latency_live.quantile(q)))
        }
    }

    /// Note an admission-control rejection for `tenant`. Bumps the
    /// labelled `qos.admission_rejected{tenant}` counter, registered
    /// lazily so QoS-free snapshots keep their historical digests.
    pub fn note_admission_rejected(&mut self, tenant: TenantId) {
        let registry = &mut self.registry;
        let id = *self.admission_rejected.entry(tenant.0).or_insert_with(|| {
            registry.counter("qos.admission_rejected", &[("tenant", &tenant.0.to_string())])
        });
        self.registry.inc(id);
    }

    /// Note a hedged read issued to the protection twin.
    pub fn note_hedge_issued(&mut self) {
        let id = *self
            .hedge_issued
            .get_or_insert_with(|| self.registry.counter("qos.hedge.issued", &[]));
        self.registry.inc(id);
    }

    /// Note a hedge that beat its primary.
    pub fn note_hedge_won(&mut self) {
        let id = *self
            .hedge_won
            .get_or_insert_with(|| self.registry.counter("qos.hedge.won", &[]));
        self.registry.inc(id);
    }

    /// Note a hedge whose primary responded first (duplicated work).
    pub fn note_hedge_wasted(&mut self) {
        let id = *self
            .hedge_wasted
            .get_or_insert_with(|| self.registry.counter("qos.hedge.wasted", &[]));
        self.registry.inc(id);
    }

    /// Note a compute-shipping holder relocation: the live pool mapping
    /// disagreed with the holder a plan (or a `DistVector`) recorded.
    pub fn note_stale_holder(&mut self) {
        let id = *self
            .stale_holder
            .get_or_insert_with(|| self.registry.counter("compute.stale_holder", &[]));
        self.registry.inc(id);
    }

    /// Total holder relocations observed by compute shipping so far.
    pub fn stale_holders(&self) -> u64 {
        self.stale_holder
            .map(|id| self.registry.counter_value(id))
            .unwrap_or(0)
    }

    /// The underlying registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The span recorder (e.g. to clear between measurement windows).
    pub fn spans_mut(&mut self) -> &mut SpanRecorder {
        &mut self.spans
    }

    /// Per-phase self time (ns), flamegraph style: `access` holds only
    /// time not covered by its children, so
    /// `dram + fabric + access == latency_total_ns`.
    pub fn latency_breakdown(&self) -> BTreeMap<&'static str, u64> {
        self.spans.self_time_by_name()
    }

    /// Sum of end-to-end access latencies (ns) — equals the span roots.
    pub fn latency_total_ns(&self) -> u64 {
        self.registry.counter_value(self.latency_ns)
    }

    /// Fraction of accesses that resolved locally (1.0 when idle).
    pub fn local_access_ratio(&self) -> f64 {
        let local = self.registry.counter_value(self.acc_local);
        let remote = self.registry.counter_value(self.acc_remote);
        if local + remote == 0 {
            1.0
        } else {
            local as f64 / (local + remote) as f64
        }
    }

    /// Freeze the pool instruments into a snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.registry.snapshot()
    }
}

/// Roll the whole rack up into one snapshot: every node's memory system,
/// the fabric, and the pool's own instruments, merged in deterministic
/// order. Fresh registries are used per exporter so repeated calls never
/// double count.
pub fn rack_snapshot(
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    now: SimTime,
) -> TelemetrySnapshot {
    let mut rack = TelemetrySnapshot::new();
    for s in 0..pool.servers() {
        let mut reg = MetricRegistry::new();
        let label = s.to_string();
        pool.node_mut(NodeId(s)).export_into(now, &label, &mut reg);
        rack.merge(&reg.snapshot());
    }
    let mut freg = MetricRegistry::new();
    fabric.export_into(now, &mut freg);
    rack.merge(&freg.snapshot());
    if let Some(t) = pool.telemetry() {
        rack.merge(&t.snapshot());
    }
    rack
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LogicalAddr;
    use crate::pool::{Placement, PoolConfig};
    use lmp_fabric::LinkProfile;
    use lmp_mem::{DramProfile, FRAME_BYTES};

    fn setup() -> (LogicalPool, Fabric) {
        let cfg = PoolConfig {
            servers: 3,
            capacity_per_server: 16 * FRAME_BYTES,
            shared_per_server: 8 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        };
        let mut pool = LogicalPool::new(cfg);
        pool.attach_telemetry();
        (pool, Fabric::new(LinkProfile::link1(), 3))
    }

    #[test]
    fn access_instruments_and_spans_agree() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, 0);
        p.access(&mut f, SimTime::ZERO, NodeId(0), addr, 64, MemOp::Read)
            .unwrap();
        p.access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Read)
            .unwrap();
        p.access(&mut f, SimTime::ZERO, NodeId(1), addr, 64, MemOp::Write)
            .unwrap();
        let t = p.telemetry().unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.counter("pool.ops.read", &[]), 2);
        assert_eq!(snap.counter("pool.ops.write", &[]), 1);
        assert_eq!(snap.counter("pool.accesses.local", &[]), 1);
        assert_eq!(snap.counter("pool.accesses.remote", &[]), 2);
        assert_eq!(
            snap.counter("pool.accesses.remote.by_server", &[("server", "1")]),
            2
        );
        // Span self-times partition every access's end-to-end latency.
        let breakdown = t.latency_breakdown();
        let total: u64 = breakdown.values().sum();
        assert_eq!(total, t.latency_total_ns());
        assert!(breakdown["fabric"] > 0, "remote accesses have fabric time");
    }

    #[test]
    fn rack_snapshot_merges_all_layers_deterministically() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let addr = LogicalAddr::new(seg, 0);
        for _ in 0..5 {
            p.access(&mut f, SimTime::ZERO, NodeId(2), addr, 256, MemOp::Read)
                .unwrap();
        }
        let now = SimTime::from_nanos(10_000);
        let a = rack_snapshot(&mut p, &mut f, now);
        let b = rack_snapshot(&mut p, &mut f, now);
        assert_eq!(a.to_json(), b.to_json(), "export must not double count");
        assert_eq!(a.counter("fabric.reads", &[]), 5);
        assert_eq!(a.counter_total("mem.accesses.remote"), 5);
        assert_eq!(a.counter("pool.accesses.remote", &[]), 5);
    }

    #[test]
    fn migration_is_counted() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        crate::migrate::migrate_segment(&mut p, &mut f, SimTime::ZERO, seg, NodeId(1)).unwrap();
        let snap = p.telemetry().unwrap().snapshot();
        assert_eq!(snap.counter("pool.migrations", &[]), 1);
        assert_eq!(snap.counter("pool.migration_bytes", &[]), FRAME_BYTES);
    }
}
