//! Per-layer attribution of `access_batch` by replay.
//!
//! The pool's batch path cannot be timed from outside without timers in
//! its hot loop, so the traced run rebuilds each admitted batch's internal
//! calls — one `translate` per distinct segment, one DRAM run per coalesced
//! chunk run, one fabric stream per remote (holder, direction) pair — from
//! public pieces (`frame_chunks`, `local_map().resolve`, the coarse map)
//! and times them on twin `TranslationCache`/`MemoryNode`/`Fabric`
//! instances that saw the same call sequence. The real pool's counters are
//! read before and after every call; [`Twin::verify`] fails the run unless
//! the replays reproduce the TLB hit/miss/stale counts, DRAM run counts and
//! fabric read/write counts exactly.

use crate::clock;
use lmp_core::prelude::*;
use lmp_fabric::{Band, BandWeights, Fabric, LinkProfile, MemOp, NodeId};
use lmp_mem::{DramProfile, FrameId, MemoryNode, FRAME_BYTES};
use lmp_sim::prelude::*;
use lmp_telemetry::MetricRegistry;
use std::collections::BTreeMap;

/// How often (in replayed calls) the twin fabric's band backlogs and link
/// utilization are sampled.
const SAMPLE_EVERY: u64 = 32;

/// The real pool's and fabric's counters at one instant.
#[derive(Debug, PartialEq, Eq)]
pub struct Probe {
    tlb: Vec<(u64, u64, u64)>,
    dram: Vec<u64>,
    reads: u64,
    writes: u64,
}

impl Probe {
    /// Read every counter the replay must reproduce.
    pub fn read(pool: &LogicalPool, fabric: &Fabric) -> Self {
        let servers = pool.servers();
        Probe {
            tlb: (0..servers)
                .map(|s| {
                    pool.tlb(NodeId(s)).map_or((0, 0, 0), |t| {
                        (t.hit_count(), t.miss_count(), t.stale_count())
                    })
                })
                .collect(),
            dram: (0..servers)
                .map(|s| pool.node(NodeId(s)).dram().access_count())
                .collect(),
            reads: fabric.read_count(),
            writes: fabric.write_count(),
        }
    }

    fn add_delta(&mut self, before: &Probe, after: &Probe) {
        for (i, acc) in self.tlb.iter_mut().enumerate() {
            acc.0 += after.tlb[i].0 - before.tlb[i].0;
            acc.1 += after.tlb[i].1 - before.tlb[i].1;
            acc.2 += after.tlb[i].2 - before.tlb[i].2;
        }
        for (i, acc) in self.dram.iter_mut().enumerate() {
            *acc += after.dram[i] - before.dram[i];
        }
        self.reads += after.reads - before.reads;
        self.writes += after.writes - before.writes;
    }
}

/// Host time and counts gathered by the replays.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Replayed batches.
    pub calls: u64,
    /// Replayed `translate` calls.
    pub translate_calls: u64,
    /// Host ns in replayed translations.
    pub translate_ns: u64,
    /// Pre-coalescing frame chunks.
    pub chunks: u64,
    /// Coalesced DRAM runs.
    pub runs: u64,
    /// Host ns in replayed DRAM runs.
    pub mem_ns: u64,
    /// Remote fabric streams.
    pub streams: u64,
    /// Host ns in replayed fabric streams.
    pub fabric_ns: u64,
    /// Band-backlog samples taken.
    pub samples: u64,
    /// Sum over samples of the worst high-band backlog (ns).
    pub queue_high_ns: f64,
    /// Sum over samples of the worst low-band backlog (ns).
    pub queue_low_ns: f64,
    /// Highest link utilization sampled.
    pub util_max: f64,
}

impl ReplayStats {
    /// Fold another episode's replay totals into these.
    pub fn add(&mut self, s: &ReplayStats) {
        self.calls += s.calls;
        self.translate_calls += s.translate_calls;
        self.translate_ns += s.translate_ns;
        self.chunks += s.chunks;
        self.runs += s.runs;
        self.mem_ns += s.mem_ns;
        self.streams += s.streams;
        self.fabric_ns += s.fabric_ns;
        self.samples += s.samples;
        self.queue_high_ns += s.queue_high_ns;
        self.queue_low_ns += s.queue_low_ns;
        self.util_max = self.util_max.max(s.util_max);
    }
}

/// Twin instances of the layers under `access_batch`, plus the running
/// totals of the real counters they must reproduce.
#[derive(Debug)]
pub struct Twin {
    tlbs: Vec<Option<TranslationCache>>,
    nodes: Vec<MemoryNode>,
    fabric: Fabric,
    real: Probe,
    /// What the replays measured.
    pub stats: ReplayStats,
}

impl Twin {
    /// Twins of a fresh rack of `servers` servers.
    pub fn new(
        servers: u32,
        tlb_capacity: usize,
        dram: DramProfile,
        link: LinkProfile,
        bands: Option<BandWeights>,
    ) -> Self {
        let mut fabric = Fabric::new(link, servers);
        if let Some(w) = bands {
            fabric.enable_bands(w);
        }
        Twin {
            tlbs: (0..servers)
                .map(|_| (tlb_capacity > 0).then(|| TranslationCache::new(tlb_capacity)))
                .collect(),
            nodes: (0..servers)
                .map(|i| MemoryNode::new(format!("twin{i}"), FRAME_BYTES, 0, dram.clone()))
                .collect(),
            fabric,
            real: Probe {
                tlb: vec![(0, 0, 0); servers as usize],
                dram: vec![0; servers as usize],
                reads: 0,
                writes: 0,
            },
            stats: ReplayStats::default(),
        }
    }

    /// Account the real counters' movement across one pool call.
    pub fn observe(&mut self, before: &Probe, after: &Probe) {
        self.real.add_delta(before, after);
    }

    /// The pool's translation, replayed against the twin cache: the same
    /// lookup, staleness check and refill `LogicalPool::translate` runs.
    fn translate(
        &mut self,
        pool: &LogicalPool,
        requester: NodeId,
        seg: SegmentId,
    ) -> Result<NodeId, String> {
        let live = pool
            .global_map()
            .peek(seg)
            .ok_or_else(|| format!("replay: unknown segment {seg}"))?;
        if let Some(tlb) = &mut self.tlbs[requester.0 as usize] {
            if let Some(loc) = tlb.lookup(seg) {
                if loc == live && pool.local_map(loc.server).holds(seg) {
                    return Ok(loc.server);
                }
                tlb.note_stale(seg);
            }
            tlb.refill(seg, live);
        }
        Ok(live.server)
    }

    /// Replay one admitted batch issued by `requester` at `now` on `band`.
    pub fn replay(
        &mut self,
        pool: &LogicalPool,
        now: SimTime,
        requester: NodeId,
        ops: &[BatchOp],
        band: Band,
    ) -> Result<(), String> {
        self.stats.calls += 1;
        // Translation: once per distinct segment, in first-touch order.
        let t = clock::start();
        let mut holders: BTreeMap<SegmentId, NodeId> = BTreeMap::new();
        for o in ops {
            if let std::collections::btree_map::Entry::Vacant(e) = holders.entry(o.addr.segment) {
                e.insert(self.translate(pool, requester, o.addr.segment)?);
                self.stats.translate_calls += 1;
            }
        }
        self.stats.translate_ns += t.ns();

        // Frame walk and (holder, direction) streams, as the pool plans them.
        struct Chunk {
            op: usize,
            seg: SegmentId,
            start: u64,
            bytes: u64,
            frame: FrameId,
        }
        let mut chunks = Vec::new();
        let mut streams: BTreeMap<(u32, bool), Vec<usize>> = BTreeMap::new();
        for (i, o) in ops.iter().enumerate() {
            let holder = holders[&o.addr.segment];
            for (frame_idx, within, bytes) in frame_chunks(o.addr, o.len) {
                let frame = pool
                    .local_map(holder)
                    .resolve(o.addr.segment, frame_idx)
                    .ok_or("replay: fine map misses a live frame")?;
                streams
                    .entry((holder.0, matches!(o.op, MemOp::Write)))
                    .or_default()
                    .push(chunks.len());
                chunks.push(Chunk {
                    op: i,
                    seg: o.addr.segment,
                    start: frame_idx * FRAME_BYTES + within,
                    bytes,
                    frame,
                });
            }
        }
        self.stats.chunks += chunks.len() as u64;

        for ((holder_idx, is_write), mut members) in streams {
            let holder = NodeId(holder_idx);
            let local = holder == requester;
            members.sort_by_key(|&ci| (chunks[ci].seg, chunks[ci].start, chunks[ci].op));
            // Runs of byte-contiguous chunks, at most one frame each.
            let mut runs: Vec<(SegmentId, u64, u64, Vec<FrameId>)> = Vec::new();
            for &ci in &members {
                let c = &chunks[ci];
                match runs.last_mut() {
                    Some((seg, end, bytes, frames))
                        if *seg == c.seg && *end == c.start && *bytes + c.bytes <= FRAME_BYTES =>
                    {
                        *end += c.bytes;
                        *bytes += c.bytes;
                        frames.push(c.frame);
                    }
                    _ => runs.push((c.seg, c.start + c.bytes, c.bytes, vec![c.frame])),
                }
            }
            self.stats.runs += runs.len() as u64;
            let t = clock::start();
            for (_, _, bytes, frames) in &runs {
                self.nodes[holder_idx as usize].access_run(now, *bytes, requester.0, local, frames);
            }
            self.stats.mem_ns += t.ns();
            if local {
                continue;
            }
            let sizes: Vec<u64> = runs.iter().map(|r| r.2).collect();
            let mut stream_ops: Vec<usize> = members.iter().map(|&ci| chunks[ci].op).collect();
            stream_ops.sort_unstable();
            stream_ops.dedup();
            let op = if is_write { MemOp::Write } else { MemOp::Read };
            let t = clock::start();
            self.fabric
                .transfer_batch_banded(
                    now,
                    requester,
                    holder,
                    op,
                    &sizes,
                    stream_ops.len() as u64,
                    band,
                )
                .map_err(|e| format!("replay: fabric stream refused: {e}"))?;
            self.stats.fabric_ns += t.ns();
            self.stats.streams += 1;
        }
        if self.stats.calls.is_multiple_of(SAMPLE_EVERY) {
            self.sample(now);
        }
        Ok(())
    }

    /// Sample the twin fabric's worst per-band backlog and link utilization.
    fn sample(&mut self, now: SimTime) {
        let mut reg = MetricRegistry::new();
        self.fabric.export_into(now, &mut reg);
        let snap = reg.snapshot();
        let (mut high, mut low) = (0.0f64, 0.0f64);
        for (key, v) in snap.gauges() {
            if key.name != "fabric.link.queue_ns" {
                continue;
            }
            match key
                .labels
                .iter()
                .find(|(k, _)| k == "band")
                .map(|(_, v)| v.as_str())
            {
                Some("high") => high = high.max(*v),
                Some("low") => low = low.max(*v),
                _ => {}
            }
        }
        self.stats.samples += 1;
        self.stats.queue_high_ns += high;
        self.stats.queue_low_ns += low;
        let util = snap.gauge_max("fabric.link.utilization").unwrap_or(0.0);
        self.stats.util_max = self.stats.util_max.max(util);
    }

    /// Fail unless the replays reproduced the real counters exactly.
    pub fn verify(&self) -> Result<(), String> {
        let twin = Probe {
            tlb: self
                .tlbs
                .iter()
                .map(|t| {
                    t.as_ref().map_or((0, 0, 0), |t| {
                        (t.hit_count(), t.miss_count(), t.stale_count())
                    })
                })
                .collect(),
            dram: self.nodes.iter().map(|n| n.dram().access_count()).collect(),
            reads: self.fabric.read_count(),
            writes: self.fabric.write_count(),
        };
        if twin == self.real {
            Ok(())
        } else {
            Err(format!(
                "replay self-check: twin counters {twin:?} != real counters {:?}",
                self.real
            ))
        }
    }
}

/// Layer counters read straight from the real rack after an episode.
pub fn real_counts(pool: &LogicalPool, fabric: &Fabric, layers: &mut BTreeMap<&'static str, f64>) {
    let (mut hits, mut misses, mut stale) = (0u64, 0u64, 0u64);
    let (mut runs, mut bytes) = (0u64, 0u64);
    let mut lat = Histogram::new();
    for s in 0..pool.servers() {
        if let Some(t) = pool.tlb(NodeId(s)) {
            hits += t.hit_count();
            misses += t.miss_count();
            stale += t.stale_count();
        }
        let d = pool.node(NodeId(s)).dram();
        runs += d.access_count();
        bytes += d.bytes_accessed();
        lat.merge(d.latency_histogram());
    }
    layers.insert(
        "translate.tlb_hit_ratio",
        crate::stats::ratio((hits - stale) as f64, (hits + misses) as f64),
    );
    layers.insert("translate.tlb_stale", stale as f64);
    layers.insert(
        "translate.global_lookups",
        pool.global_map().lookup_count() as f64,
    );
    layers.insert("mem.dram_runs", runs as f64);
    layers.insert("mem.dram_bytes", bytes as f64);
    layers.insert("mem.dram_latency_ns.p99", lat.p99() as f64);
    layers.insert(
        "fabric.transfers",
        (fabric.read_count() + fabric.write_count()) as f64,
    );
    let wire_bytes: u64 = (0..fabric.node_count())
        .map(|n| fabric.link(fabric.up(NodeId(n))).bytes_sent())
        .sum();
    layers.insert("fabric.bytes", wire_bytes as f64);
}
