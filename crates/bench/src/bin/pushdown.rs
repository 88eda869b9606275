// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! **Pushdown runs** — the deterministic ship-vs-fetch crossover curve
//! (ROADMAP item 4, the paper's §4.4 "Near-memory Computing").
//!
//! One requester runs a filter over a 128 MiB vector striped across four
//! servers (its own stripe plus three remote ones), swept across a
//! selectivity grid × {idle, loaded} fabric. Each grid point runs three
//! ways in identical fresh worlds:
//!
//! * **ship** — the plan forced to ship the operator to every remote
//!   holder: holders scan at local DRAM speed, only result rows return;
//! * **fetch** — the plan forced to batched-fetch every remote stripe
//!   through one shared [`scan_ranges`] core budget at the requester;
//! * **planner** — [`Planner`]'s own per-segment cost-based choice, fed
//!   the measured selectivity and the live fabric backlog.
//!
//! The *loaded* configurations first queue a 256 MiB bulk transfer on a
//! ring over the three holders, backlogging every holder's transmit wire
//! — the incast-adjacent regime where shipping pays even at high
//! selectivity, because only the (small) result queues behind the bulk.
//!
//! Verified here, exit non-zero on any failure:
//!
//! * all three modes produce byte-identical operator results;
//! * shipping wins at low selectivity (idle *and* loaded); fetch wins at
//!   ~98% under both loads; and at ~73% the winner *flips* with load —
//!   the holder scan hides under the backlog drain, so the loaded
//!   break-even selectivity is higher — the crossover behaviour the
//!   paper's Benefit 3 predicts;
//! * the planner's per-segment choice matches the measured-best forced
//!   strategy on **every** swept point, and its run is digest-identical
//!   to that winner;
//! * each configuration, run twice, produces byte-identical digests;
//! * full mode rewrites `BENCH_pushdown.json`; smoke mode (`--smoke`,
//!   CI) re-runs the sweep and fails on digest or winner drift from the
//!   committed baseline.
//!
//! ```text
//! cargo run --release -p lmp-bench --bin pushdown            # full, rewrites BENCH_pushdown.json
//! cargo run --release -p lmp-bench --bin pushdown -- --smoke # CI gate vs committed baseline
//! ```
//!
//! [`scan_ranges`]: lmp_compute::scan_ranges
//! [`Planner`]: lmp_compute::Planner

use lmp_bench::gate::{fnv_fold, Smoke, FNV_OFFSET};
use lmp_bench::{emit_header, emit_row};
use lmp_compute::{Choice, DistVector, OpOutput, Operator, Planner, Predicate, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use serde::Serialize;

const SEED: u64 = 42;
const SERVERS: u32 = 4;
/// Stripe size per server: 16 frames = 32 MiB, 128 MiB vector total.
const STRIPE_FRAMES: u64 = 16;
/// Bulk bytes queued on each holder's transmit wire in loaded configs.
const LOAD_MIB: u64 = 256;
/// Filter thresholds over uniform elements in [0, 64): selectivity is
/// (63 - t)/64 ≈ {0%, 23%, 61%, 73%, 98%}. The grid brackets the idle
/// crossover (~71%) and the loaded one (~76%): t=16 sits between them,
/// so its winner flips with load — the scan-hiding effect — while every
/// other point is decisively on one side under both loads.
const THRESHOLDS: [u64; 5] = [63, 48, 24, 16, 0];
const MODES: [&str; 3] = ["ship", "fetch", "planner"];

#[derive(Serialize)]
struct ConfigRow {
    load: &'static str,
    threshold: u64,
    /// Measured selectivity in permille (bytes returned / bytes scanned).
    selectivity_pm: u64,
    mode: &'static str,
    complete_ns: u64,
    fabric_mib: u64,
    result_mib: u64,
    shipped_segments: u32,
    fetched_segments: u32,
    digest: String,
}

/// Build a fresh world: pool, fabric (optionally backlogged), the striped
/// vector with LCG contents, and the measured selectivity in permille.
fn build_world(loaded: bool, threshold: u64) -> (LogicalPool, Fabric, DistVector, u64) {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: SERVERS,
        capacity_per_server: (STRIPE_FRAMES + 2) * FRAME_BYTES,
        shared_per_server: STRIPE_FRAMES * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    let servers: Vec<NodeId> = (0..SERVERS).map(NodeId).collect();
    let v = DistVector::stripe_even(&mut pool, SERVERS as u64 * STRIPE_FRAMES * FRAME_BYTES, &servers)
        .expect("vector fits");
    // Deterministic contents: LCG elements uniform in [0, 64).
    let mut x = SEED;
    let mut matches = 0u64;
    let mut total = 0u64;
    for (_, seg, len) in &v.stripes {
        let mut bytes = Vec::with_capacity(*len as usize);
        for _ in 0..(len / 8) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let e = (x >> 33) % 64;
            if e > threshold {
                matches += 1;
            }
            total += 1;
            bytes.extend(e.to_le_bytes());
        }
        pool.write_bytes(LogicalAddr::new(*seg, 0), &bytes)
            .expect("fill stripe");
    }
    if loaded {
        // Ring bulk transfers among the three holders: every holder's
        // transmit (up) wire carries a LOAD_MIB backlog the sweep's reads
        // and shipped results must queue behind.
        for h in 1..SERVERS {
            let dst = NodeId(h % (SERVERS - 1) + 1);
            fabric.write(SimTime::ZERO, NodeId(h), dst, LOAD_MIB * MIB);
        }
    }
    let sel_pm = matches * 1000 / total;
    (pool, fabric, v, sel_pm)
}

/// One grid point in one mode, in a fresh world. Returns the row plus the
/// planner's remote-segment choice (uniform across remote segments —
/// verified — and only meaningful in planner mode).
fn run_config(loaded: bool, threshold: u64, mode: &'static str) -> (ConfigRow, OpOutput, Choice) {
    let (mut pool, mut fabric, v, sel_pm) = build_world(loaded, threshold);
    let op = Operator::Filter(Predicate::Greater(threshold));
    let planner = Planner::new(ScanParams::default(), sel_pm as f64 / 1000.0);
    let plan = planner
        .plan(&mut pool, &fabric, SimTime::ZERO, NodeId(0), &v, op)
        .expect("plan");
    let mut remote_choice = Choice::Ship;
    let mut uniform = true;
    for (i, sp) in plan.segments.iter().filter(|s| s.choice != Choice::Local).enumerate() {
        if i == 0 {
            remote_choice = sp.choice;
        } else if sp.choice != remote_choice {
            uniform = false;
        }
    }
    if !uniform {
        // Symmetric stripes must get symmetric choices; a split plan here
        // means the cost model lost determinism.
        eprintln!("pushdown: non-uniform plan on symmetric stripes: {plan:?}");
        std::process::exit(1);
    }
    let plan = match mode {
        "ship" => plan.forced(Choice::Ship),
        "fetch" => plan.forced(Choice::Fetch),
        _ => plan,
    };
    let (out, outcome) = planner
        .execute(&mut pool, &mut fabric, SimTime::ZERO, NodeId(0), op, &plan)
        .expect("execute");

    let mut digest = FNV_OFFSET;
    match &out {
        OpOutput::Scalar(s) => fnv_fold(&mut digest, *s),
        OpOutput::Rows(rows) | OpOutput::Top(rows) => {
            fnv_fold(&mut digest, rows.len() as u64);
            for r in rows {
                fnv_fold(&mut digest, *r);
            }
        }
    }
    fnv_fold(&mut digest, outcome.complete.as_nanos());
    fnv_fold(&mut digest, outcome.fabric_bytes);
    fnv_fold(&mut digest, outcome.local_bytes);
    fnv_fold(&mut digest, outcome.result_bytes);
    fnv_fold(&mut digest, outcome.shipped_segments as u64);
    fnv_fold(&mut digest, outcome.fetched_segments as u64);

    let row = ConfigRow {
        load: if loaded { "loaded" } else { "idle" },
        threshold,
        selectivity_pm: sel_pm,
        mode,
        complete_ns: outcome.complete.as_nanos(),
        fabric_mib: outcome.fabric_bytes / MIB,
        result_mib: outcome.result_bytes / MIB,
        shipped_segments: outcome.shipped_segments,
        fetched_segments: outcome.fetched_segments,
        digest: format!("{digest:#018x}"),
    };
    (row, out, remote_choice)
}

struct Point {
    load: &'static str,
    threshold: u64,
    winner: &'static str,
    planner_choice: &'static str,
    rows: Vec<ConfigRow>,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    emit_header(
        "pushdown",
        "ship-vs-fetch crossover: cost-based operator pushdown per segment",
        "shipping wins at low selectivity; fetch wins at ~98%; at ~73% the winner flips to ship when the links carry a backlog; the planner picks the measured winner everywhere",
    );

    let mut points: Vec<Point> = Vec::new();
    for loaded in [false, true] {
        for threshold in THRESHOLDS {
            let mut rows = Vec::new();
            let mut outs = Vec::new();
            let mut planner_choice = Choice::Ship;
            for mode in MODES {
                let (row, out, choice) = run_config(loaded, threshold, mode);
                let (again, _, _) = run_config(loaded, threshold, mode);
                if row.digest != again.digest {
                    eprintln!(
                        "pushdown: {}/t{}/{} not deterministic: {} vs {}",
                        row.load, threshold, mode, row.digest, again.digest
                    );
                    std::process::exit(1);
                }
                if mode == "planner" {
                    planner_choice = choice;
                }
                emit_row(
                    &format!(
                        "{:6} t={:>2} sel {:>4}‰ {:7} complete {:>13} ns fabric {:>4} MiB ship/fetch {}/{}  {}",
                        row.load,
                        threshold,
                        row.selectivity_pm,
                        mode,
                        row.complete_ns,
                        row.fabric_mib,
                        row.shipped_segments,
                        row.fetched_segments,
                        row.digest,
                    ),
                    &row,
                );
                rows.push(row);
                outs.push(out);
            }
            if outs[0] != outs[1] || outs[1] != outs[2] {
                eprintln!(
                    "pushdown: results diverge across modes at {}/t{}",
                    rows[0].load, threshold
                );
                std::process::exit(1);
            }
            let winner = if rows[0].complete_ns <= rows[1].complete_ns {
                "ship"
            } else {
                "fetch"
            };
            let planner_choice = match planner_choice {
                Choice::Ship => "ship",
                _ => "fetch",
            };
            if planner_choice != winner {
                eprintln!(
                    "pushdown: planner chose {} but {} measured best at {}/t{} ({} vs {} ns)",
                    planner_choice, winner, rows[0].load, threshold,
                    rows[0].complete_ns, rows[1].complete_ns
                );
                std::process::exit(1);
            }
            // The planner run must be byte-identical to the winning
            // forced run: same choices, same world, same digest.
            let winner_row = if winner == "ship" { &rows[0] } else { &rows[1] };
            if rows[2].digest != winner_row.digest {
                eprintln!(
                    "pushdown: planner digest {} differs from measured-best {} digest {} at {}/t{}",
                    rows[2].digest, winner, winner_row.digest, rows[0].load, threshold
                );
                std::process::exit(1);
            }
            points.push(Point {
                load: if loaded { "loaded" } else { "idle" },
                threshold,
                winner,
                planner_choice,
                rows,
            });
        }
    }

    // Crossover direction: the headline claim of the curve.
    let winner_at = |load: &str, t: u64| {
        points
            .iter()
            .find(|p| p.load == load && p.threshold == t)
            .map(|p| p.winner)
            .unwrap_or("missing")
    };
    let direction_ok = winner_at("idle", 63) == "ship"
        && winner_at("idle", 0) == "fetch"
        && winner_at("loaded", 63) == "ship"
        && winner_at("loaded", 0) == "fetch"
        // The load-induced crossover shift: at ~73% selectivity the idle
        // fabric favors fetch, but once the holders' wires carry a backlog
        // the scan hides under the queue drain and shipping wins.
        && winner_at("idle", 16) == "fetch"
        && winner_at("loaded", 16) == "ship";
    if !direction_ok {
        eprintln!(
            "pushdown: crossover direction wrong: idle t63={} t16={} t0={}, loaded t63={} t16={} t0={}",
            winner_at("idle", 63),
            winner_at("idle", 16),
            winner_at("idle", 0),
            winner_at("loaded", 63),
            winner_at("loaded", 16),
            winner_at("loaded", 0)
        );
        std::process::exit(1);
    }

    if smoke {
        let mut gate = Smoke::read_baseline("pushdown", "BENCH_pushdown.json");
        for p in &points {
            gate.pin(&format!("winner_{}_t{}", p.load, p.threshold), p.winner);
            for r in &p.rows {
                let key = format!("digest_{}_t{}_{}", p.load, p.threshold, r.mode);
                gate.pin(&key, &r.digest);
            }
        }
        gate.verdict(&format!(
            "smoke: {} grid points × {} modes",
            points.len(),
            MODES.len()
        ));
        return;
    }

    // Flat, string-searchable baseline (the vendored serde_json shim is
    // write-only, so the smoke gate reads fields back with `lmp_bench::gate`).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"stripe_mib\": {},\n", STRIPE_FRAMES * FRAME_BYTES / MIB));
    json.push_str(&format!("  \"load_mib\": {LOAD_MIB},\n"));
    for p in &points {
        json.push_str(&format!(
            "  \"winner_{}_t{}\": \"{}\",\n",
            p.load, p.threshold, p.winner
        ));
        json.push_str(&format!(
            "  \"planner_{}_t{}\": \"{}\",\n",
            p.load, p.threshold, p.planner_choice
        ));
        json.push_str(&format!(
            "  \"selectivity_pm_{}_t{}\": {},\n",
            p.load, p.threshold, p.rows[0].selectivity_pm
        ));
        for r in &p.rows {
            json.push_str(&format!(
                "  \"digest_{}_t{}_{}\": \"{}\",\n",
                p.load, p.threshold, r.mode, r.digest
            ));
            json.push_str(&format!(
                "  \"complete_ns_{}_t{}_{}\": {},\n",
                p.load, p.threshold, r.mode, r.complete_ns
            ));
        }
    }
    json.push_str(&format!("  \"points\": {}\n}}\n", points.len()));
    std::fs::write("BENCH_pushdown.json", json).expect("write BENCH_pushdown.json");
    println!(
        "full: {} grid points — crossover verified, planner matched measured-best everywhere — baseline written",
        points.len()
    );
}
