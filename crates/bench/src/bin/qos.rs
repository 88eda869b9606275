// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! **QoS runs** — noisy-neighbor tail-latency containment: admission
//! control plus priority-band link queueing vs. plain FIFO.
//!
//! Two tenants share one remote memory server: a victim issuing small
//! 4 KiB reads on a steady open-loop schedule, and an aggressor flooding
//! the same server's transmit wire with bulk 16 KiB accesses at ~32 GB/s
//! offered load — 1.5× the wire. Both working sets live wholly on the
//! shared server (their home shares are pre-filled), so every access
//! crosses the contended link. The workload is
//! [`lmp_workloads::multitenant::run_qos`]: open-loop arrivals through
//! the tenant-aware pool API, per-tenant integer-ns latency histograms.
//!
//! Two configurations, identical op schedules:
//!
//! * **fifo** — QoS off: no bands, no admission. The flood's backlog
//!   queues the victim's reads tens of microseconds deep.
//! * **qos** — QoS on: the victim rides [`Band::High`] (weight 8), the
//!   aggressor [`Band::Low`] (weight 1) and is rate-limited by a
//!   deterministic token bucket, shedding the load the wire cannot carry.
//!
//! Verified here, exit non-zero on any failure:
//!
//! * victim p99 stays within [`VICTIM_P99_BOUND_NS`] with QoS on and
//!   exceeds it with QoS off — the contrast that proves the mechanism;
//! * admission rejects aggressor ops only when QoS is on;
//! * each configuration, run twice from the same seed, produces
//!   byte-identical digests (pure simulation — no wall clock);
//! * full mode rewrites `BENCH_qos.json`; smoke mode (`--smoke`, CI)
//!   re-runs both configurations and fails on digest drift from the
//!   committed baseline.
//!
//! ```text
//! cargo run --release -p lmp-bench --bin qos            # full, rewrites BENCH_qos.json
//! cargo run --release -p lmp-bench --bin qos -- --smoke # CI gate vs committed baseline
//! ```

use lmp_bench::gate::{fnv_fold, Smoke, FNV_OFFSET};
use lmp_bench::{emit_header, emit_row};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_qos::{Band, BandWeights};
use lmp_sim::prelude::*;
use lmp_workloads::multitenant::{run_qos, Tenant, TenantQos};
use lmp_workloads::trace::Pattern;
use serde::Serialize;

const SEED: u64 = 42;
const BATCHES: u32 = 3;
/// The victim's tail-latency SLO. An uncongested remote 4 KiB read is
/// ~1 µs end to end; under banded queueing the victim keeps an 8/9 wire
/// share through the flood, so 6 µs is generous headroom — while the
/// FIFO backlog pushes the unprotected p99 an order of magnitude past it.
const VICTIM_P99_BOUND_NS: u64 = 6_000;

#[derive(Serialize)]
struct ConfigRow {
    mode: &'static str,
    victim_ops: u64,
    victim_p50_ns: u64,
    victim_p99_ns: u64,
    victim_p999_ns: u64,
    aggressor_admitted: u64,
    aggressor_rejected: u64,
    aggressor_p99_ns: u64,
    complete_ns: u64,
    digest: String,
}

/// One configuration end to end. Pure simulation — the row is a function
/// of `(qos_on, SEED)`.
fn run_config(qos_on: bool) -> ConfigRow {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 3,
        capacity_per_server: 32 * FRAME_BYTES,
        shared_per_server: 24 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), 3);
    if qos_on {
        fabric.enable_bands(BandWeights::default());
    }
    // Pre-fill both tenants' home shares so their working sets land
    // wholly on server 2: every access then crosses its contended link.
    for home in [0u32, 1] {
        pool.alloc(24 * FRAME_BYTES, Placement::On(NodeId(home)))
            .expect("setup filler");
    }
    let mut rack = RackRuntime::new(
        &pool,
        RuntimeConfig {
            // Background daemons idle at this horizon: the bench measures
            // queueing, not migration.
            balance_period: SimDuration::from_millis(100),
            sizing_period: SimDuration::from_millis(100),
            ..RuntimeConfig::default()
        },
    );

    let tenants = vec![
        // Victim: steady small reads, 4 KiB every 500 ns (~8 GB/s).
        Tenant {
            server: NodeId(0),
            working_set: 4 * FRAME_BYTES,
            priority: 9,
            pattern: Pattern::Uniform,
            ops_per_batch: 200,
        },
        // Aggressor: bulk 16 KiB accesses every 500 ns — ~32 GB/s
        // offered against a 21 GB/s wire.
        Tenant {
            server: NodeId(1),
            working_set: 8 * FRAME_BYTES,
            priority: 1,
            pattern: Pattern::Sequential,
            ops_per_batch: 300,
        },
    ];
    let qos = if qos_on {
        vec![
            TenantQos {
                band: Band::High,
                rate: None,
                issue_period: SimDuration::from_nanos(500),
                access_bytes: 4096,
            },
            TenantQos {
                band: Band::Low,
                // ~600k ops/s × 16 KiB ≈ 9.8 GB/s sustained — under half
                // the wire; the rest of the flood is shed at admission.
                rate: Some(TenantRate {
                    ops_per_sec: 600_000,
                    burst: 16,
                }),
                issue_period: SimDuration::from_nanos(500),
                access_bytes: 16 * 1024,
            },
        ]
    } else {
        vec![
            TenantQos {
                band: Band::Normal,
                rate: None,
                issue_period: SimDuration::from_nanos(500),
                access_bytes: 4096,
            },
            TenantQos {
                band: Band::Normal,
                rate: None,
                issue_period: SimDuration::from_nanos(500),
                access_bytes: 16 * 1024,
            },
        ]
    };

    let report = run_qos(
        &mut pool,
        &mut fabric,
        &mut rack,
        &tenants,
        &qos,
        BATCHES,
        SEED,
    )
    .expect("qos run completes");

    let mut digest = FNV_OFFSET;
    for t in &report.tenants {
        fnv_fold(&mut digest, t.admitted);
        fnv_fold(&mut digest, t.rejected);
        fnv_fold(&mut digest, t.local_bytes);
        fnv_fold(&mut digest, t.remote_bytes);
        fnv_fold(&mut digest, t.latency.count());
        fnv_fold(&mut digest, t.latency.p50());
        fnv_fold(&mut digest, t.latency.p99());
        fnv_fold(&mut digest, t.latency.quantile(0.999));
    }
    fnv_fold(&mut digest, report.complete.as_nanos());

    let v = &report.tenants[0];
    let a = &report.tenants[1];
    ConfigRow {
        mode: if qos_on { "qos" } else { "fifo" },
        victim_ops: v.admitted,
        victim_p50_ns: v.latency.p50(),
        victim_p99_ns: v.latency.p99(),
        victim_p999_ns: v.latency.quantile(0.999),
        aggressor_admitted: a.admitted,
        aggressor_rejected: a.rejected,
        aggressor_p99_ns: a.latency.p99(),
        complete_ns: report.complete.as_nanos(),
        digest: format!("{digest:#018x}"),
    }
}

/// The committed baseline, flat and string-searchable: the smoke gate
/// extracts fields without a JSON parser (the vendored serde_json shim is
/// write-only).
#[derive(Serialize)]
struct Baseline {
    victim_p99_bound_ns: u64,
    digest_fifo: String,
    digest_qos: String,
    victim_p99_fifo_ns: u64,
    victim_p99_qos_ns: u64,
    aggressor_rejected_qos: u64,
}

/// The QoS acceptance contrast; `None` means it holds.
fn contrast_failure(fifo: &ConfigRow, qos: &ConfigRow) -> Option<String> {
    if qos.victim_p99_ns > VICTIM_P99_BOUND_NS {
        return Some(format!(
            "victim p99 {} ns exceeds the {} ns bound with QoS on",
            qos.victim_p99_ns, VICTIM_P99_BOUND_NS
        ));
    }
    if fifo.victim_p99_ns <= VICTIM_P99_BOUND_NS {
        return Some(format!(
            "victim p99 {} ns within the {} ns bound with QoS off — the contrast is gone",
            fifo.victim_p99_ns, VICTIM_P99_BOUND_NS
        ));
    }
    if qos.aggressor_rejected == 0 {
        return Some("admission control rejected nothing with QoS on".into());
    }
    if fifo.aggressor_rejected != 0 {
        return Some(format!(
            "admission control rejected {} ops with QoS off",
            fifo.aggressor_rejected
        ));
    }
    None
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    emit_header(
        "qos",
        "noisy-neighbor tail latency: admission + priority bands vs FIFO",
        "victim p99 bounded with QoS on, blown through with QoS off",
    );

    let mut rows = Vec::new();
    for qos_on in [false, true] {
        let row = run_config(qos_on);
        let again = run_config(qos_on);
        if row.digest != again.digest {
            eprintln!(
                "qos: mode {} not deterministic: {} vs {}",
                row.mode, row.digest, again.digest
            );
            std::process::exit(1);
        }
        emit_row(
            &format!(
                "{:4} victim p50 {:>6} p99 {:>7} p999 {:>7} ns  aggressor admitted {:>4} rejected {:>4}  {}",
                row.mode,
                row.victim_p50_ns,
                row.victim_p99_ns,
                row.victim_p999_ns,
                row.aggressor_admitted,
                row.aggressor_rejected,
                row.digest,
            ),
            &row,
        );
        rows.push(row);
    }
    let (fifo, qos) = (&rows[0], &rows[1]);
    if let Some(why) = contrast_failure(fifo, qos) {
        eprintln!("qos: {why}");
        std::process::exit(1);
    }

    if smoke {
        let mut gate = Smoke::read_baseline("qos", "BENCH_qos.json");
        for r in &rows {
            gate.pin(&format!("digest_{}", r.mode), &r.digest);
        }
        gate.verdict(&format!("smoke: {} configurations", rows.len()));
        return;
    }

    let baseline = Baseline {
        victim_p99_bound_ns: VICTIM_P99_BOUND_NS,
        digest_fifo: fifo.digest.clone(),
        digest_qos: qos.digest.clone(),
        victim_p99_fifo_ns: fifo.victim_p99_ns,
        victim_p99_qos_ns: qos.victim_p99_ns,
        aggressor_rejected_qos: qos.aggressor_rejected,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write("BENCH_qos.json", json).expect("write BENCH_qos.json");
    println!(
        "full: victim p99 {} ns (QoS) vs {} ns (FIFO) against a {} ns bound — baseline written",
        qos.victim_p99_ns, fifo.victim_p99_ns, VICTIM_P99_BOUND_NS
    );
}
