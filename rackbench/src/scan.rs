//! `pushdown-scan`: §4.4 near-memory compute in a closed loop.
//!
//! One requester (server 0) runs a query, waits for its result, thinks for
//! 1 µs and runs the next. The queries cycle through Filter (selectivity
//! 0–98%), Count, Aggregate and TopK (one Filter and one TopK per eight
//! queries) over a 1 MiB vector of u64 elements
//! striped 256 KiB per server across a 4-server Link1 rack. Every fourth
//! query first queues 1 MiB bulk transfers on a ring over the three
//! holders, so the planner's per-segment choice flips between ship and
//! fetch as the backlog builds and drains. An op is one query: `Planner::plan`
//! then `Planner::execute`. Results are checked against
//! `lmp_compute::fetch_reference` after the timed loop.

use crate::clock;
use crate::episode::{Episode, Opts};
use crate::replay::real_counts;
use crate::trace::Tracer;
use lmp_compute::{
    fetch_reference, Choice, DistVector, OpOutput, Operator, Planner, Predicate, ReduceOp,
    ScanParams,
};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_harness::invariants::check_telemetry_conservation;
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;

const SERVERS: u32 = 4;
const REQUESTER: NodeId = NodeId(0);
const STRIPE_BYTES: u64 = 256 * KIB;
const QUERIES: usize = 48;
const BULK_EVERY: usize = 4;
const BULK_BYTES: u64 = MIB;
const THINK: SimDuration = SimDuration::from_micros(1);

#[derive(Debug, Clone, Copy)]
enum Kind {
    Filter,
    Count,
    Aggregate,
    TopK,
}

/// The query cycle. Count and Aggregate, the light kinds, make up three
/// quarters of it, so the host-time median falls inside one kind's costs
/// rather than on the edge between two.
const KINDS: [Kind; 8] = [
    Kind::Filter,
    Kind::Count,
    Kind::Aggregate,
    Kind::Count,
    Kind::TopK,
    Kind::Aggregate,
    Kind::Count,
    Kind::Aggregate,
];

/// Predicate thresholds, selectivity 98% down to 0%, and TopK sizes.
/// Every episode draws each kind's parameters from its fixed set, each set
/// in a seed-shuffled order: a query's host cost depends on its parameters
/// (what a Filter returns, how a Count's branch predicts), so fixed sets
/// keep the host-time distribution the same across seeds while the seed
/// still decides the order, the vector's contents, and so the plans.
const THRESHOLDS: [u64; 6] = [0, 16, 24, 48, 56, 63];
const REDUCE_OPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max];
const TOP_KS: [u32; 6] = [1, 8, 16, 32, 48, 64];

/// One generated query: the operator and the planner's selectivity hint.
#[derive(Debug, Clone, Copy)]
struct Query {
    op: Operator,
    selectivity: f64,
}

/// The generated inputs: vector contents seed and the query sequence.
#[derive(Debug)]
pub struct Inputs {
    fill_seed: u64,
    queries: Vec<Query>,
}

/// `set` in a seed-shuffled order, repeated without end.
fn shuffled<T: Copy, const N: usize>(rng: &mut DetRng, mut set: [T; N]) -> impl Iterator<Item = T> {
    rng.shuffle(&mut set);
    set.into_iter().cycle()
}

/// Generate the seed's inputs.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = DetRng::new(seed).fork("pushdown-scan");
    // Elements are uniform in [0, 64): `> t` keeps (63 - t)/64.
    let sel = |t: u64| (63 - t) as f64 / 64.0;
    let mut filters = shuffled(&mut rng, THRESHOLDS);
    let mut counts = shuffled(&mut rng, THRESHOLDS);
    let mut reduces = shuffled(&mut rng, REDUCE_OPS);
    let mut top_ks = shuffled(&mut rng, TOP_KS);
    let queries = (0..QUERIES)
        .filter_map(|i| {
            Some(match KINDS[i % KINDS.len()] {
                Kind::Filter => {
                    let t = filters.next()?;
                    Query {
                        op: Operator::Filter(Predicate::Greater(t)),
                        selectivity: sel(t),
                    }
                }
                Kind::Count => {
                    let t = counts.next()?;
                    Query {
                        op: Operator::Count(Predicate::Greater(t)),
                        selectivity: sel(t),
                    }
                }
                Kind::Aggregate => Query {
                    op: Operator::Aggregate(reduces.next()?),
                    selectivity: 0.0,
                },
                Kind::TopK => Query {
                    op: Operator::TopK(top_ks.next()?),
                    selectivity: 0.0,
                },
            })
        })
        .collect();
    Inputs {
        fill_seed: rng.below(u64::MAX),
        queries,
    }
}

#[derive(Debug, Clone, Copy)]
struct Ev(usize);

/// Run one episode.
pub fn episode(inp: &Inputs, opts: Opts, tr: &mut Tracer) -> Result<Episode, String> {
    let mut ep = Episode {
        ops_per_entry: 1,
        ..Episode::default()
    };

    let setup = clock::start();
    let mut pool = LogicalPool::new(PoolConfig {
        servers: SERVERS,
        capacity_per_server: 3 * FRAME_BYTES,
        shared_per_server: FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    if opts.telemetry {
        pool.attach_telemetry();
    }
    let mut fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    let servers: Vec<NodeId> = (0..SERVERS).map(NodeId).collect();
    let v = DistVector::stripe_even(&mut pool, u64::from(SERVERS) * STRIPE_BYTES, &servers)
        .map_err(|e| format!("stripe: {e}"))?;
    let mut x = inp.fill_seed;
    for (_, seg, len) in &v.stripes {
        let mut bytes = Vec::with_capacity(*len as usize);
        for _ in 0..len / 8 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            bytes.extend(((x >> 33) % 64).to_le_bytes());
        }
        pool.write_bytes(LogicalAddr::new(*seg, 0), &bytes)
            .map_err(|e| format!("populate: {e}"))?;
    }
    ep.setup_s = setup.secs();

    let mut eng: Engine<Ev> = Engine::new();
    eng.schedule_at(SimTime::ZERO, Ev(0))
        .map_err(|e| format!("schedule: {e:?}"))?;
    let mut results: Vec<(Operator, OpOutput)> = Vec::new();
    let (mut shipped, mut fetched) = (0u64, 0u64);
    let mut est_err_pct = 0.0f64;
    let mut err: Option<String> = None;

    let mut last: Option<(Operator, OpOutput)> = None;
    loop {
        let step = clock::start();
        let span = tr.enter("sim");
        let more = eng.step(&mut |e, Ev(i)| {
            tr.request(i as u64 + 1);
            let op_span = tr.enter("op");
            let q = inp.queries[i];
            let now = e.now();
            if i % BULK_EVERY == 0 {
                let span = tr.enter("fabric.bulk");
                for h in 1..SERVERS {
                    fabric.write(now, NodeId(h), NodeId(h % (SERVERS - 1) + 1), BULK_BYTES);
                }
                tr.exit(span);
            }
            let planner = Planner::new(ScanParams::default(), q.selectivity);
            let span = tr.enter("compute.plan");
            let plan = planner.plan(&mut pool, &fabric, now, REQUESTER, &v, q.op);
            tr.exit(span);
            let plan = match plan {
                Ok(p) => p,
                Err(e) => {
                    err.get_or_insert(format!("plan: {e}"));
                    return;
                }
            };
            let span = tr.enter("compute.execute");
            let done = planner.execute(&mut pool, &mut fabric, now, REQUESTER, q.op, &plan);
            tr.exit(span);
            let (out, outcome) = match done {
                Ok(d) => d,
                Err(e) => {
                    err.get_or_insert(format!("execute: {e}"));
                    return;
                }
            };
            if tr.on() {
                // Replay the materialized reads `execute` makes, to time
                // the store layer on its own.
                let span = tr.enter("replay.store");
                for (_, seg, len) in &v.stripes {
                    if pool.read_bytes(LogicalAddr::new(*seg, 0), *len).is_err() {
                        err.get_or_insert("replay: stripe read failed".into());
                    }
                }
                tr.exit(span);
            }
            last = Some((q.op, out));
            let real = outcome.complete.duration_since(now).as_nanos();
            let est = plan
                .segments
                .iter()
                .map(|s| match s.choice {
                    Choice::Fetch => s.est_fetch_ns,
                    Choice::Ship | Choice::Local => s.est_ship_ns,
                })
                .max()
                .unwrap_or(0);
            est_err_pct += est.abs_diff(real) as f64 / real.max(1) as f64 * 100.0;
            shipped += u64::from(outcome.shipped_segments);
            fetched += u64::from(outcome.fetched_segments);
            ep.sim_lat.push(real);
            ep.ops += 1;
            ep.served += 1;
            ep.bytes += outcome.local_bytes + outcome.fabric_bytes;
            ep.local_bytes += outcome.local_bytes;
            if i + 1 < inp.queries.len() {
                if let Err(e) = e.schedule_at(outcome.complete + THINK, Ev(i + 1)) {
                    err.get_or_insert(format!("schedule: {e:?}"));
                }
            }
            tr.exit(op_span);
        });
        tr.exit(span);
        if !more || err.is_some() {
            break;
        }
        let ns = step.ns();
        ep.loop_s += ns as f64 * 1e-9;
        ep.op_ns.push(ns);
        // Outside the timed step: every run of an operator must return
        // the same result as its first run.
        if let Some((op, out)) = last.take() {
            match results.iter().find(|(o, _)| *o == op) {
                Some((_, first)) if *first != out => {
                    return Err(format!("pushdown-scan: {op:?} changed its result"));
                }
                Some(_) => {}
                None => results.push((op, out)),
            }
        }
    }
    if let Some(msg) = err {
        return Err(msg);
    }

    let now = eng.now();
    ep.sim_ns = now.as_nanos();
    let span = tr.enter("telemetry.snapshot");
    let snap = rack_snapshot(&mut pool, &mut fabric, now);
    tr.exit(span);
    let check = check_telemetry_conservation(&snap);
    if !check.passed {
        return Err(format!("pushdown-scan: {}", check.detail));
    }
    ep.seal(Some(&snap));
    real_counts(&pool, &fabric, &mut ep.layers);
    ep.layers
        .insert("sim.events", eng.events_processed() as f64);
    ep.layers.insert("compute.shipped_segments", shipped as f64);
    ep.layers.insert("compute.fetched_segments", fetched as f64);
    ep.layers.insert(
        "compute.estimate_error_pct",
        est_err_pct / inp.queries.len().max(1) as f64,
    );
    ep.layers.insert("store.bytes", (v.len() * ep.ops) as f64);

    // Ground truth, after the digest so it cannot disturb the results.
    let reference = Planner::new(ScanParams::default(), 1.0);
    for (op, out) in &results {
        let (want, _) =
            fetch_reference(&reference, &mut pool, &mut fabric, now, REQUESTER, &v, *op)
                .map_err(|e| format!("fetch_reference: {e}"))?;
        if want != *out {
            return Err(format!(
                "pushdown-scan: {op:?} differs from fetch_reference"
            ));
        }
    }
    Ok(ep)
}
