//! `paper-figures`: the paper's own figures, F2–F5 plus T2 and L1.
//!
//! Each episode runs the F2 and F3 figure points (8 and 24 GB vectors ×
//! Link0/Link1 × Logical/PhysicalCache/PhysicalNoCache), the three L1
//! loaded-latency points (local DRAM, Link0, Link1) and the two T2 link
//! sweeps, in a seed-shuffled order, plus six held-out figure points whose
//! size (1–2 GiB), link and architecture the seed draws. A figure point is
//! the §4.1 aggregation protocol with one repetition, driven through
//! `lmp_cluster::Cluster` on a deployment built during set-up. An op is one
//! point. After the timed loop, `lmp_workloads::vector::run_figure`
//! regenerates all four sizes, F4 and F5 included, with two repetitions:
//! its first repetition must equal the timed point, and its averages must
//! keep the paper's ordering. F4 and F5 (64 and 96 GB) stay out of the
//! timed loop: they would make an episode ~1 s long, too few episodes per
//! run for each point's fastest time to sit steadily on the floor.

use crate::clock;
use crate::episode::Episode;
use crate::trace::Tracer;
use lmp_cluster::{Cluster, ClusterConfig, ClusterError, PoolArch};
use lmp_compute::{ScanOutcome, ScanParams};
use lmp_fabric::{Fabric, Link, LinkProfile, NodeId};
use lmp_mem::{DramChannel, DramProfile};
use lmp_sim::prelude::*;
use lmp_workloads::vector::{paper_sizes, run_figure, run_point, PAPER_REPS};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

const ARCHS: [PoolArch; 3] = [
    PoolArch::Logical,
    PoolArch::PhysicalCache,
    PoolArch::PhysicalNoCache,
];
/// Held-out points: small vectors (1–2 GiB) that fit every deployment's
/// local tier. Their bytes and host time sit well below the headline
/// points', so the seed they vary with barely moves the medians: the host
/// time median stays on an 8 GB point.
const HELD_OUT: usize = 6;
/// Vector sizes of the timed figure points: F2 and F3.
const TIMED_SIZES: [u64; 2] = [8 * GIB, 24 * GIB];
const HELD_OUT_MAX_GIB: u64 = 2;
/// Closed-loop streams and rounds of the L1 saturation runs.
const L1_STREAMS: u32 = 32;
const L1_ROUNDS: u64 = 300;
/// Stream counts and rounds of the T2 load sweep.
const T2_STREAMS: [u32; 6] = [1, 2, 4, 8, 16, 32];
const T2_ROUNDS: u64 = 200;
const STREAM_CHUNK: u64 = 2 * MIB;
/// Repetitions of the `run_figure` cross-check.
const CHECK_REPS: u32 = 2;

fn link(i: u8) -> LinkProfile {
    if i == 0 {
        LinkProfile::link0()
    } else {
        LinkProfile::link1()
    }
}

/// One figure point.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Point {
    /// Vector aggregation of `size` bytes on one deployment.
    Figure { arch: PoolArch, link: u8, size: u64 },
    /// L1: saturate local DRAM (`None`) or a link; max loaded latency.
    Latency(Option<u8>),
    /// T2: a link's loaded-latency sweep.
    Table2(u8),
}

/// The generated point list.
#[derive(Debug)]
pub struct Inputs {
    points: Vec<Point>,
}

/// Generate the seed's inputs.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = DetRng::new(seed).fork("paper-figures");
    let mut points = Vec::new();
    for size in TIMED_SIZES {
        for l in 0..2 {
            for arch in ARCHS {
                points.push(Point::Figure {
                    arch,
                    link: l,
                    size,
                });
            }
        }
    }
    points.extend([
        Point::Latency(None),
        Point::Latency(Some(0)),
        Point::Latency(Some(1)),
    ]);
    points.extend([Point::Table2(0), Point::Table2(1)]);
    for _ in 0..HELD_OUT {
        points.push(Point::Figure {
            arch: ARCHS[rng.below(3) as usize],
            link: rng.below(2) as u8,
            size: (1 + rng.below(HELD_OUT_MAX_GIB)) * GIB,
        });
    }
    rng.shuffle(&mut points);
    Inputs { points }
}

/// A timed point's bandwidth (`None` when infeasible), for the
/// `run_figure` cross-check.
#[derive(Debug, Clone, Copy)]
pub struct FigureResult {
    arch: PoolArch,
    link: u8,
    size: u64,
    gbps: Option<f64>,
}

/// Run one episode; also returns every figure point's result.
pub fn episode(inp: &Inputs, tr: &mut Tracer) -> Result<(Episode, Vec<FigureResult>), String> {
    let mut ep = Episode {
        ops_per_entry: 1,
        ..Episode::default()
    };
    let setup = clock::start();
    let mut clusters: Vec<Option<Cluster>> = inp
        .points
        .iter()
        .map(|p| match *p {
            Point::Figure { arch, link: l, .. } => {
                Some(Cluster::new(ClusterConfig::paper(arch, link(l))))
            }
            _ => None,
        })
        .collect();
    ep.setup_s = setup.secs();

    let mut results = Vec::new();
    for (i, (p, cluster)) in inp.points.iter().zip(&mut clusters).enumerate() {
        tr.request(i as u64 + 1);
        let t = clock::start();
        let span = tr.enter("op");
        let lat = match (*p, cluster) {
            (Point::Figure { arch, link, size }, Some(c)) => {
                let span = tr.enter("cluster.aggregate");
                let out = aggregate(c, size);
                tr.exit(span);
                let out = out?;
                count_layers(c, &mut ep.layers);
                results.push(FigureResult {
                    arch,
                    link,
                    size,
                    gbps: out.map(|o| {
                        Bandwidth::measured(size, o.complete.duration_since(SimTime::ZERO))
                            .as_gbps()
                    }),
                });
                out.map(|o| {
                    ep.bytes += o.local_bytes + o.remote_bytes;
                    ep.local_bytes += o.local_bytes;
                    o.complete.as_nanos()
                })
            }
            (Point::Latency(target), _) => {
                let span = tr.enter("cluster.latency");
                let (_, done) = match target {
                    None => local_max_latency(),
                    Some(l) => remote_max_latency(link(l)),
                };
                tr.exit(span);
                Some(done)
            }
            (Point::Table2(l), _) => {
                let span = tr.enter("cluster.table2");
                let (min, max, done) = table2_sweep(&link(l));
                tr.exit(span);
                if min > max {
                    return Err(format!("paper-figures: T2 link{l} min {min} > max {max}"));
                }
                Some(done)
            }
            (Point::Figure { .. }, None) => return Err("paper-figures: no cluster built".into()),
        };
        tr.exit(span);
        let ns = t.ns();
        ep.loop_s += ns as f64 * 1e-9;
        ep.op_ns.push(ns);
        ep.ops += 1;
        ep.served += 1;
        if let Some(ns) = lat {
            ep.sim_lat.push(ns);
            ep.sim_ns += ns;
        }
    }
    ep.seal(None);
    Ok((ep, results))
}

/// Add a deployment's fabric counters, and its DRAM counters when it is a
/// logical pool, to the episode's layer totals.
fn count_layers(c: &mut Cluster, layers: &mut BTreeMap<&'static str, f64>) {
    let mut add = |key, v: u64| *layers.entry(key).or_insert(0.0) += v as f64;
    let f = c.fabric();
    add("fabric.transfers", f.read_count() + f.write_count());
    add(
        "fabric.bytes",
        (0..f.node_count())
            .map(|n| f.link(f.up(NodeId(n))).bytes_sent())
            .sum(),
    );
    if let Some(pool) = c.logical_pool() {
        for s in 0..pool.servers() {
            let d = pool.node(NodeId(s)).dram();
            add("mem.dram_runs", d.access_count());
            add("mem.dram_bytes", d.bytes_accessed());
        }
    }
}

/// One repetition of the aggregation protocol: allocate the vector near
/// server 0, scan it with the deployment's cores, free it. `None` when the
/// deployment cannot hold the vector.
fn aggregate(c: &mut Cluster, size: u64) -> Result<Option<ScanOutcome>, String> {
    let h = match c.alloc_vector(size, NodeId(0)) {
        Ok(h) => h,
        Err(ClusterError::Infeasible { .. }) => return Ok(None),
        Err(e) => return Err(format!("alloc_vector: {e}")),
    };
    let params = ScanParams::with_cores(c.config().cores_per_server);
    let out = c
        .scan_vector(SimTime::ZERO, NodeId(0), &h, params)
        .map_err(|e| format!("scan_vector: {e}"))?;
    c.free_vector(h).map_err(|e| format!("free_vector: {e}"))?;
    Ok(Some(out))
}

/// Closed-loop streams over a shared resource: each of `streams` streams
/// issues `rounds` back-to-back requests; returns the largest latency seen
/// and when the last request completed.
fn saturate(
    streams: u32,
    rounds: u64,
    mut issue: impl FnMut(SimTime) -> (SimTime, u64),
) -> (u64, u64) {
    let mut heap: BinaryHeap<Reverse<(SimTime, u32, u64)>> = BinaryHeap::new();
    for s in 0..streams {
        heap.push(Reverse((SimTime::ZERO, s, rounds)));
    }
    let (mut max_lat, mut last) = (0u64, SimTime::ZERO);
    while let Some(Reverse((now, s, left))) = heap.pop() {
        let (done, lat) = issue(now);
        max_lat = max_lat.max(lat);
        last = last.max(done);
        if left > 1 {
            heap.push(Reverse((done, s, left - 1)));
        }
    }
    (max_lat, last.as_nanos())
}

/// L1, local side: max loaded DRAM latency under saturation.
fn local_max_latency() -> (u64, u64) {
    let mut dram = DramChannel::new(DramProfile::xeon_gold_5120());
    saturate(L1_STREAMS, L1_ROUNDS, |now| {
        let a = dram.access(now, STREAM_CHUNK);
        (a.complete, a.latency.as_nanos())
    })
}

/// L1, remote side: max loaded fabric latency under saturation.
fn remote_max_latency(profile: LinkProfile) -> (u64, u64) {
    let mut fabric = Fabric::new(profile, 2);
    saturate(L1_STREAMS, L1_ROUNDS, |now| {
        let r = fabric.read(now, NodeId(0), NodeId(1), STREAM_CHUNK);
        (r.complete, r.latency.as_nanos())
    })
}

/// T2: min and max loaded latency over the stream sweep, and the sweep's
/// total simulated time.
fn table2_sweep(profile: &LinkProfile) -> (u64, u64, u64) {
    let (mut min, mut max, mut total) = (u64::MAX, 0u64, 0u64);
    for streams in T2_STREAMS {
        let mut link = Link::new(profile.clone());
        let mut last_lat = 0u64;
        let (_, done) = saturate(streams, T2_ROUNDS, |now| {
            let tr = link.transfer(now, STREAM_CHUNK);
            last_lat = tr.latency.as_nanos();
            (tr.delivered(), last_lat)
        });
        min = min.min(last_lat);
        max = max.max(last_lat);
        total += done;
    }
    (min, max, total)
}

/// Largest relative error, in percent, of the five headline ratios
/// against DESIGN.md §4: Logical/PhysicalNoCache at 8 GB (4.7×),
/// Logical/PhysicalCache at 24 GB (3.4×) and 64 GB (1.4×), all on Link1
/// with the paper's 10 repetitions, and the L1 remote/local max loaded
/// latency ratios (2.8× Link0, 3.6× Link1).
pub fn ratio_error_pct() -> Result<f64, String> {
    let gbps = |arch, size| {
        run_point(arch, LinkProfile::link1(), size, PAPER_REPS)
            .avg_gbps
            .ok_or_else(|| format!("paper-figures: {arch:?} infeasible at {size} bytes"))
    };
    let logical = |size| gbps(PoolArch::Logical, size);
    let (local_max, _) = local_max_latency();
    let ratios = [
        (
            logical(8 * GIB)? / gbps(PoolArch::PhysicalNoCache, 8 * GIB)?,
            4.7,
        ),
        (
            logical(24 * GIB)? / gbps(PoolArch::PhysicalCache, 24 * GIB)?,
            3.4,
        ),
        (
            logical(64 * GIB)? / gbps(PoolArch::PhysicalCache, 64 * GIB)?,
            1.4,
        ),
        (
            remote_max_latency(LinkProfile::link0()).0 as f64 / local_max as f64,
            2.8,
        ),
        (
            remote_max_latency(LinkProfile::link1()).0 as f64 / local_max as f64,
            3.6,
        ),
    ];
    Ok(ratios
        .iter()
        .map(|(got, paper)| (got / paper - 1.0).abs() * 100.0)
        .fold(0.0, f64::max))
}

/// Regenerate every paper size through `run_figure` with two repetitions
/// (the physical cache is cold on the first) and check its first
/// repetition against the timed points of that size, its averages against the
/// Logical ≥ PhysicalCache ≥ PhysicalNoCache ordering, and Figure 5's
/// infeasible physical deployments.
pub fn cross_check(timed: &[FigureResult]) -> Result<(), String> {
    for size in paper_sizes() {
        let rows = run_figure(size, CHECK_REPS);
        for l in 0..2u8 {
            let name = link(l).name;
            let row = |arch: PoolArch| {
                rows.iter()
                    .find(|r| r.link == name && r.arch == arch.label())
                    .ok_or_else(|| format!("run_figure lacks {arch:?} on {name}"))
            };
            let of = |arch: PoolArch| row(arch).map(|r| r.avg_gbps);
            let (lg, ca, nc) = (
                of(PoolArch::Logical)?,
                of(PoolArch::PhysicalCache)?,
                of(PoolArch::PhysicalNoCache)?,
            );
            for (arch, got) in [
                (PoolArch::Logical, lg),
                (PoolArch::PhysicalCache, ca),
                (PoolArch::PhysicalNoCache, nc),
            ] {
                let Some(mine) = timed
                    .iter()
                    .find(|r| r.arch == arch && r.link == l && r.size == size)
                else {
                    continue;
                };
                let first = got.and(row(arch)?.per_rep_gbps.first().copied());
                if mine.gbps != first {
                    return Err(format!(
                        "paper-figures: {arch:?} {name} {size}: timed {:?} != run_figure {first:?}",
                        mine.gbps
                    ));
                }
            }
            let lg = lg.ok_or_else(|| format!("paper-figures: Logical infeasible at {size}"))?;
            match (ca, nc) {
                (Some(ca), Some(nc)) if lg >= ca && ca >= nc => {}
                (None, None) if size == 96 * GIB => {}
                other => {
                    return Err(format!(
                        "paper-figures: {name} {size}: Logical {lg} vs cache/no-cache {other:?}"
                    ))
                }
            }
        }
    }
    Ok(())
}
