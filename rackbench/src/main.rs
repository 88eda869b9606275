//! # The rack benchmark
//!
//! Host and simulated cost per pool op, end to end and per layer:
//!
//! ```text
//! cargo run --release --offline --manifest-path rackbench/Cargo.toml -- \
//!     --workload kv-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The benchmark runs one named workload in a single thread. It generates
//! every input from `--seed` and hands the program only those inputs. An
//! *episode* builds a fresh rack (timed as set-up), runs the workload's whole
//! op schedule (timed as the op loop), takes a final `rack_snapshot` and
//! seals a digest over the snapshot JSON and the simulated latency
//! distribution. Episodes repeat from the same seed until `--seconds` have
//! passed. Every episode must reproduce the first one's digest, so each run
//! checks its own determinism. Host-time metrics come from every episode but
//! the first, which warms caches; the allocator is pinned first
//! ([`clock::pin_allocator`]). Simulated metrics come from the first
//! episode and are identical for every run of a seed. Seed 1–10 tune the
//! benchmark; seeds from 1000 up stay held out for validating later claims.
//!
//! ## Workloads and why
//!
//! * `kv-zipf` ([`kv`]): the paper's KV application and the ROADMAP's
//!   `perf` workload, reads and writes together. Host time goes to
//!   translation, batch planning, materialization and telemetry.
//! * `tenant-flood` ([`flood`]): the ROADMAP's tail result. Host time goes
//!   to the dense DRAM busy-window and band water-filling models, while
//!   translation is trivial.
//! * `pushdown-scan` ([`scan`]): §4.4 near-memory compute. Host time goes to
//!   operator scans and bulk materialization over few, frame-sized runs, so
//!   translation and the busy-window models sit nearly idle.
//! * `paper-figures` ([`figures`]): F2–F5, T2 and L1, the only workload that
//!   reaches the physical-pool model. It keeps the central claims under
//!   every later change's no-regression check.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! Host time: `host_ns_per_op.p50`/`.p99` over ops, each op's host time
//! being its fastest across the run's timed episodes (every episode runs
//! the same ops in the same order), and `ops_per_host_s` of the fastest
//! timed episode (see [`FASTEST`]; the sample counts are printed),
//! `setup_s` (median over the run's episodes) and `peak_rss_mib` (`VmHWM`
//! after the timed loop). Simulated: `sim_latency_ns.p50`/`.p99`,
//! `sim_gbps`, `local_byte_ratio`, `served_op_ratio` (ops neither failed
//! nor refused, over ops attempted). Two rack-model properties ride along
//! on every workload, computed outside the timed region:
//! `slo_rate_gbps` (the tenant-flood SLO sweep) and
//! `paper_ratio_error_pct` (the five headline ratios against DESIGN.md §4).
//!
//! ## Per-layer metrics (`--trace 1`) and what they should move
//!
//! The traced run records a span around each public call the benchmark
//! makes ([`trace`]) and replays `access_batch` internals on twins
//! ([`replay`]). It alternates untraced, untraced-without-telemetry and
//! traced episodes; the traced ones must keep the untraced digest.
//!
//! | layer | metrics | should move |
//! |---|---|---|
//! | `sim` | `sim.events`, `sim.host_ns_per_event` | `ops_per_host_s` on kv-zipf, tenant-flood |
//! | `translate` | `translate.tlb_hit_ratio`, `.tlb_stale`, `.global_lookups`, `.host_ns_per_call` | `host_ns_per_op.p50` on kv-zipf; flat on tenant-flood |
//! | `pool` | `pool.host_ns_per_call.p50`/`.p99`, `pool.chunks_per_run`, `pool.self_share` | `host_ns_per_op.*` on kv-zipf |
//! | `mem` | `mem.dram_runs`, `.dram_bytes`, `.dram_latency_ns.p99`, `.host_ns_per_run` | `host_ns_per_op.p50` on tenant-flood; flat on pushdown-scan |
//! | `fabric` | `fabric.transfers`, `.bytes`, `.link_util.max`, `.queue_ns.high`, `.queue_ns.low`, `.host_ns_per_stream` | `sim_latency_ns.p99`, `host_ns_per_op.p50` on tenant-flood |
//! | `qos` | `qos.admitted`, `qos.rejected` | `served_op_ratio`, `slo_rate_gbps` on tenant-flood |
//! | `store` | `store.bytes`, `store.host_ns_per_kib` | `host_ns_per_op.*` on pushdown-scan, kv-zipf |
//! | `runtime` | `runtime.ticks`, `.migrations`, `.host_us_per_tick` | `local_byte_ratio`, `sim_latency_ns.p50` on kv-zipf |
//! | `telemetry` | `telemetry.snapshot_host_us`, `.overhead_share` | `host_ns_per_op.p50` on kv-zipf |
//! | `compute` | `compute.plan_host_us`, `.execute_host_us`, `.shipped_segments`, `.fetched_segments`, `.estimate_error_pct` | `host_ns_per_op.*`, `sim_latency_ns.p50` on pushdown-scan |
//!
//! `self_share.<layer>` is each layer's span self time over the op loop,
//! `trace.unattributed_share` what no span covers, and
//! `trace.overhead_share` the traced op loop's extra host time over the
//! untraced one. A metric that does not apply to a workload reads 0.

mod clock;
mod episode;
mod figures;
mod flood;
mod kv;
mod replay;
mod scan;
mod stats;
mod trace;

use episode::{Episode, Opts};
use replay::Twin;
use stats::{median, pct, quantile, ratio};
use std::collections::BTreeMap;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["kv-zipf", "tenant-flood", "pushdown-scan", "paper-figures"];

/// End-to-end metrics, printed by `--trace 0`.
const END_TO_END: [(&str, &str); 12] = [
    ("host_ns_per_op.p50", "ns"),
    ("host_ns_per_op.p99", "ns"),
    ("ops_per_host_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_latency_ns.p50", "sim_ns"),
    ("sim_latency_ns.p99", "sim_ns"),
    ("sim_gbps", "GB/s"),
    ("local_byte_ratio", "ratio"),
    ("served_op_ratio", "ratio"),
    ("slo_rate_gbps", "GB/s"),
    ("paper_ratio_error_pct", "%"),
];

/// Per-layer metrics, printed by `--trace 1`.
const PER_LAYER: [(&str, &str); 47] = [
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("translate.tlb_hit_ratio", "ratio"),
    ("translate.tlb_stale", "count"),
    ("translate.global_lookups", "count"),
    ("translate.host_ns_per_call", "ns"),
    ("pool.host_ns_per_call.p50", "ns"),
    ("pool.host_ns_per_call.p99", "ns"),
    ("pool.chunks_per_run", "ratio"),
    ("pool.self_share", "ratio"),
    ("mem.dram_runs", "count"),
    ("mem.dram_bytes", "B"),
    ("mem.dram_latency_ns.p99", "sim_ns"),
    ("mem.host_ns_per_run", "ns"),
    ("fabric.transfers", "count"),
    ("fabric.bytes", "B"),
    ("fabric.link_util.max", "ratio"),
    ("fabric.queue_ns.high", "sim_ns"),
    ("fabric.queue_ns.low", "sim_ns"),
    ("fabric.host_ns_per_stream", "ns"),
    ("qos.admitted", "count"),
    ("qos.rejected", "count"),
    ("store.bytes", "B"),
    ("store.host_ns_per_kib", "ns"),
    ("runtime.ticks", "count"),
    ("runtime.migrations", "count"),
    ("runtime.host_us_per_tick", "us"),
    ("telemetry.snapshot_host_us", "us"),
    ("telemetry.overhead_share", "ratio"),
    ("compute.plan_host_us", "us"),
    ("compute.execute_host_us", "us"),
    ("compute.shipped_segments", "count"),
    ("compute.fetched_segments", "count"),
    ("compute.estimate_error_pct", "%"),
    ("self_share.sim", "ratio"),
    ("self_share.pool", "ratio"),
    ("self_share.store", "ratio"),
    ("self_share.runtime", "ratio"),
    ("self_share.compute", "ratio"),
    ("self_share.fabric", "ratio"),
    ("self_share.cluster", "ratio"),
    ("self_share.replay", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.traced_episodes", "count"),
    ("trace.host_samples", "count"),
];

/// Where the traced run writes the first traced episode's spans, relative
/// to the checkout root, and how many of them at most.
const SPAN_DIR: &str = "rackbench/out";
const SPAN_FILE_LIMIT: usize = 20_000;

#[derive(Debug)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: rackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A workload's generated inputs, ready to run episodes from.
enum Prepared {
    Kv(kv::Inputs),
    Flood(flood::Inputs),
    Scan(scan::Inputs),
    Figures(figures::Inputs),
}

impl Prepared {
    fn new(workload: &str, seed: u64) -> Self {
        match workload {
            "kv-zipf" => Prepared::Kv(kv::generate(seed)),
            "tenant-flood" => Prepared::Flood(flood::generate(
                seed,
                flood::VICTIM_OPS,
                flood::AGGRESSOR_GBPS,
            )),
            "pushdown-scan" => Prepared::Scan(scan::generate(seed)),
            _ => Prepared::Figures(figures::generate(seed)),
        }
    }

    /// Twins for the replay, where the workload drives `access_batch`-shaped
    /// calls the benchmark can see.
    fn twin(&self) -> Option<Twin> {
        match self {
            Prepared::Kv(_) => Some(kv::twin()),
            Prepared::Flood(_) => Some(flood::twin()),
            _ => None,
        }
    }

    /// Whether the workload attaches pool telemetry.
    fn has_telemetry(&self) -> bool {
        !matches!(self, Prepared::Figures(_))
    }

    fn run(
        &self,
        opts: Opts,
        tr: &mut Tracer,
        twin: Option<&mut Twin>,
        figs: &mut Vec<figures::FigureResult>,
    ) -> Result<Episode, String> {
        match self {
            Prepared::Kv(i) => kv::episode(i, opts, tr, twin),
            Prepared::Flood(i) => flood::episode(i, opts, tr, twin),
            Prepared::Scan(i) => scan::episode(i, opts, tr),
            Prepared::Figures(i) => {
                let (ep, r) = figures::episode(i, tr)?;
                *figs = r;
                Ok(ep)
            }
        }
    }
}

/// What a run prints.
struct Outcome {
    attempted: u64,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<String>,
}

fn main() {
    clock::pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rackbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let prep = Prepared::new(args.workload, args.seed);
    let result = if args.trace {
        run_traced(&args, &prep)
    } else {
        run_plain(&args, &prep)
    };
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result {
        Ok(out) => {
            for line in &out.info {
                println!("# {line}");
            }
            println!("{}", result_json(true, out.attempted, &out.metrics, units));
        }
        Err(e) => {
            eprintln!("rackbench: {} seed {}: {e}", args.workload, args.seed);
            println!("{}", result_json(false, 1, &BTreeMap::new(), units));
            std::process::exit(1);
        }
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    metrics: &BTreeMap<&'static str, f64>,
    units: &[(&str, &str)],
) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run episodes until `seconds` have passed (at least three), checking
/// every episode against the first one's digest. The first episode warms
/// caches and supplies the simulated metrics. Every later episode runs the
/// same ops in the same order, so every op gets one host-time sample per
/// episode. The run reports the p50 and p99 over ops of each op's fastest
/// sample, and the throughput of the fastest episode ([`FASTEST`]).
fn run_plain(args: &Args, prep: &Prepared) -> Result<Outcome, String> {
    let wall = clock::start();
    let mut figs = Vec::new();
    let first = prep.run(
        Opts { telemetry: true },
        &mut Tracer::new(false),
        None,
        &mut figs,
    )?;
    let mut attempted = first.ops;
    let mut setups = vec![first.setup_s];
    let mut rate = Vec::new();
    // Each op's fastest host time so far, in schedule order.
    let mut floor: Vec<u64> = Vec::new();
    while setups.len() < 3 || wall.secs() < args.seconds {
        let ep = prep.run(
            Opts { telemetry: true },
            &mut Tracer::new(false),
            None,
            &mut figs,
        )?;
        check_digest(Some(&first), &ep)?;
        attempted += ep.ops;
        setups.push(ep.setup_s);
        rate.push(ratio(ep.ops as f64, ep.loop_s));
        if floor.is_empty() {
            floor = ep.op_ns;
        } else if floor.len() != ep.op_ns.len() {
            return Err(format!(
                "same-seed episodes timed {} then {} ops",
                floor.len(),
                ep.op_ns.len()
            ));
        } else {
            for (f, &ns) in floor.iter_mut().zip(&ep.op_ns) {
                *f = (*f).min(ns);
            }
        }
    }
    floor.sort_unstable();
    // Before the rack-model checks below allocate racks of their own.
    let rss = clock::peak_rss_mib().unwrap_or(0.0);

    let mut m = BTreeMap::new();
    m.insert("host_ns_per_op.p50", pct(&floor, 0.5) as f64);
    m.insert("host_ns_per_op.p99", pct(&floor, 0.99) as f64);
    m.insert("ops_per_host_s", quantile(&rate, 1.0 - FASTEST));
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mib", rss);
    sim_metrics(&first, &mut m);

    if let Prepared::Figures(_) = prep {
        figures::cross_check(&figs)?;
    }
    m.insert("slo_rate_gbps", flood::slo_rate_gbps(args.seed)?);
    m.insert("paper_ratio_error_pct", figures::ratio_error_pct()?);

    let info = vec![
        format!(
            "{} seed {}: {} episodes, digest {:#018x}",
            args.workload,
            args.seed,
            setups.len(),
            first.digest
        ),
        format!(
            "host_ns_per_op: {} samples, each of {} op(s) and the fastest of {} timed episodes; sim_latency_ns from {} ops",
            floor.len(),
            first.ops_per_entry,
            rate.len(),
            first.sim_lat.len()
        ),
    ];
    Ok(Outcome {
        attempted,
        metrics: m,
        info,
    })
}

/// Which quantile over episodes the loop-time metrics report: 0, the
/// fastest episode (for throughputs, quantile 1). Per-op host times take
/// each op's own fastest sample instead ([`run_plain`]). On a shared
/// 2-vCPU host the machine moves between speed levels up to ~2x apart that
/// each last a few seconds, and which levels a run sees differs from run
/// to run: over seven 10 s tenant-flood runs (seeds 1–3) under load, the
/// median over episodes of the per-episode p50 spread 0.35 (IQR over
/// median), the first decile 0.09 and 0.45 for p99, the fastest episode
/// 0.05 and 0.06. Noise only ever adds time, so the fastest of some
/// hundred samples sits on the floor the program's own cost sets; a change
/// that slows the program raises that floor. Taken per op, the floor needs
/// a quiet moment per op rather than a whole quiet episode: over six 10 s
/// kv-zipf runs the p99 spread 0.20 from the fastest episode and 0.06 from
/// per-op floors. Scaling host times by a reference kernel timed between
/// episodes was tried and dropped: a memory-bound kernel
/// slowed ~1.4x where the program slowed ~1.7x, and a register-only one
/// barely moved at all (the drift is in the memory system, not the clock).
const FASTEST: f64 = 0.0;

fn check_digest(first: Option<&Episode>, ep: &Episode) -> Result<(), String> {
    match first {
        Some(f) if f.digest != ep.digest => Err(format!(
            "same-seed episodes disagree: digest {:#018x} then {:#018x}",
            f.digest, ep.digest
        )),
        _ => Ok(()),
    }
}

fn sim_metrics(ep: &Episode, m: &mut BTreeMap<&'static str, f64>) {
    m.insert("sim_latency_ns.p50", pct(&ep.sim_lat, 0.5) as f64);
    m.insert("sim_latency_ns.p99", pct(&ep.sim_lat, 0.99) as f64);
    // Bytes per simulated ns is GB/s.
    m.insert("sim_gbps", ratio(ep.bytes as f64, ep.sim_ns as f64));
    m.insert(
        "local_byte_ratio",
        ratio(ep.local_bytes as f64, ep.bytes as f64),
    );
    m.insert("served_op_ratio", ratio(ep.served as f64, ep.ops as f64));
}

/// Alternate untraced, untraced-without-telemetry and traced episodes until
/// `seconds` have passed, then derive the per-layer metrics.
fn run_traced(args: &Args, prep: &Prepared) -> Result<Outcome, String> {
    let wall = clock::start();
    let mut figs = Vec::new();
    let on = Opts { telemetry: true };
    let warm = prep.run(on, &mut Tracer::new(false), None, &mut figs)?;
    let (mut plain, mut bare, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut durs: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut replayed = replay::ReplayStats::default();
    let (mut spans, mut snapshot_ns, mut last) = (0u64, 0u64, None);
    let mut attempted = warm.ops;
    while traced.is_empty() || wall.secs() < args.seconds {
        let ep = prep.run(on, &mut Tracer::new(false), None, &mut figs)?;
        check_digest(Some(&warm), &ep)?;
        attempted += ep.ops;
        plain.push(ep.loop_s);
        if prep.has_telemetry() {
            let ep = prep.run(
                Opts { telemetry: false },
                &mut Tracer::new(false),
                None,
                &mut figs,
            )?;
            attempted += ep.ops;
            bare.push(ep.loop_s);
        }
        let mut tr = Tracer::new(true);
        let mut twin = prep.twin();
        let ep = prep.run(on, &mut tr, twin.as_mut(), &mut figs)?;
        check_digest(Some(&warm), &ep)
            .map_err(|e| format!("tracing changed the simulated results: {e}"))?;
        attempted += ep.ops;
        if let Some(t) = &twin {
            t.verify()?;
            replayed.add(&t.stats);
        }
        for (layer, ns) in tr.self_ns_by_layer() {
            *self_ns.entry(layer).or_insert(0) += ns;
        }
        for name in [
            "pool.access_batch",
            "pool.access_as",
            "store",
            "replay.store",
            "runtime.tick",
            "telemetry.snapshot",
            "compute.plan",
            "compute.execute",
        ] {
            durs.entry(name).or_default().extend(tr.durations(name));
        }
        snapshot_ns += tr.durations("telemetry.snapshot").iter().sum::<u64>();
        spans += tr.spans().len() as u64;
        if traced.is_empty() {
            let path = std::path::Path::new(SPAN_DIR)
                .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            tr.write_jsonl(&path, SPAN_FILE_LIMIT)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        traced.push(ep.loop_s);
        last = Some(ep);
    }
    let ep = last.ok_or("no traced episode ran")?;
    let n = traced.len() as f64;
    let loop_ns: f64 = traced.iter().sum::<f64>() * 1e9;

    m.extend(ep.layers.iter().map(|(k, v)| (*k, *v)));
    // Loop times compare on the fastest episode, as the end-to-end run does.
    let fast = |v: &[f64]| quantile(v, FASTEST);
    let mean = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64);
    m.insert(
        "sim.host_ns_per_event",
        ratio(
            self_ns.get("sim").copied().unwrap_or(0) as f64,
            m.get("sim.events").copied().unwrap_or(0.0) * n,
        ),
    );
    m.insert(
        "translate.host_ns_per_call",
        ratio(
            replayed.translate_ns as f64,
            replayed.translate_calls as f64,
        ),
    );
    let mut pool_ns: Vec<u64> = durs["pool.access_batch"].clone();
    pool_ns.extend(&durs["pool.access_as"]);
    pool_ns.sort_unstable();
    m.insert("pool.host_ns_per_call.p50", pct(&pool_ns, 0.5) as f64);
    m.insert("pool.host_ns_per_call.p99", pct(&pool_ns, 0.99) as f64);
    m.insert(
        "pool.chunks_per_run",
        ratio(replayed.chunks as f64, replayed.runs as f64),
    );
    let pool_total: u64 = pool_ns.iter().sum();
    if replayed.calls > 0 {
        let covered = replayed.translate_ns + replayed.mem_ns + replayed.fabric_ns;
        m.insert(
            "pool.self_share",
            ratio(pool_total.saturating_sub(covered) as f64, pool_total as f64),
        );
    }
    m.insert(
        "mem.host_ns_per_run",
        ratio(replayed.mem_ns as f64, replayed.runs as f64),
    );
    if replayed.samples > 0 {
        m.insert("fabric.link_util.max", replayed.util_max);
        m.insert(
            "fabric.queue_ns.high",
            replayed.queue_high_ns / replayed.samples as f64,
        );
        m.insert(
            "fabric.queue_ns.low",
            replayed.queue_low_ns / replayed.samples as f64,
        );
    }
    m.insert(
        "fabric.host_ns_per_stream",
        ratio(replayed.fabric_ns as f64, replayed.streams as f64),
    );
    let store_ns: u64 = durs["store"].iter().chain(&durs["replay.store"]).sum();
    let store_kib = m.get("store.bytes").copied().unwrap_or(0.0) * n / 1024.0;
    m.insert("store.host_ns_per_kib", ratio(store_ns as f64, store_kib));
    m.insert(
        "runtime.host_us_per_tick",
        mean(&durs["runtime.tick"]) / 1e3,
    );
    m.insert(
        "telemetry.snapshot_host_us",
        mean(&durs["telemetry.snapshot"]) / 1e3,
    );
    if !bare.is_empty() {
        let (with, without) = (fast(&plain), fast(&bare));
        m.insert("telemetry.overhead_share", ratio(with - without, without));
    }
    m.insert("compute.plan_host_us", mean(&durs["compute.plan"]) / 1e3);
    m.insert(
        "compute.execute_host_us",
        mean(&durs["compute.execute"]) / 1e3,
    );

    // Self time inside the op loop: the final snapshot runs after it.
    let mut attributed = 0u64;
    for (layer, ns) in &self_ns {
        let ns = if *layer == "telemetry" {
            ns.saturating_sub(snapshot_ns)
        } else {
            *ns
        };
        attributed += ns;
        let key = match *layer {
            "sim" => "self_share.sim",
            "pool" => "self_share.pool",
            "store" => "self_share.store",
            "runtime" => "self_share.runtime",
            "compute" => "self_share.compute",
            "fabric" => "self_share.fabric",
            "cluster" => "self_share.cluster",
            "replay" => "self_share.replay",
            _ => continue,
        };
        m.insert(key, ratio(ns as f64, loop_ns));
    }
    m.insert(
        "trace.unattributed_share",
        ratio((loop_ns - attributed as f64).max(0.0), loop_ns),
    );
    let base = fast(&plain);
    m.insert("trace.overhead_share", ratio(fast(&traced) - base, base));
    m.insert("trace.spans", ratio(spans as f64, n));
    m.insert("trace.traced_episodes", n);
    m.insert("trace.host_samples", pool_ns.len() as f64);

    let info = vec![format!(
        "{} seed {} traced: {} traced episodes, digest {:#018x}{}",
        args.workload,
        args.seed,
        traced.len(),
        ep.digest,
        if replayed.calls > 0 {
            format!(
                ", {} batches replayed, replay self-check passed",
                replayed.calls
            )
        } else {
            String::new()
        }
    )];
    Ok(Outcome {
        attempted,
        metrics: m,
        info,
    })
}
