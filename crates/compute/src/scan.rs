//! Multi-core streaming scans over pool memory.
//!
//! The paper's microbenchmark (§4.1) is "one server computes the sum of a
//! vector using 14 cores, where each core sums part of the vector". This
//! module models that access pattern: each core owns a slice and streams it
//! in chunks, issuing the next chunk when the previous completes (closed
//! loop). Bandwidth sharing and loaded latency then emerge from the DRAM
//! and fabric models rather than being computed in closed form.
//!
//! One engine ([`run`]) drives the loop over any [`ScanBackend`]: the
//! logical pool here ([`LogicalScan`]) and the physical pool, with or
//! without its cache, in `lmp-cluster`. Once the loop settles into rounds
//! that repeat relative to the clock, the engine skips whole rounds,
//! applying their effects in bulk; every simulated number is the one
//! stepping would produce ([`mod@reference`] keeps the stepping loop as the
//! oracle). DESIGN.md §7 "Steady-state scan fast-forward" gives the rules.

use lmp_core::prelude::*;
use lmp_fabric::{Fabric, NodeId};
use lmp_mem::{DramCall, DramChannel, FRAME_BYTES};
use lmp_sim::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default chunk size a core keeps in flight. 2 MiB ≈ one frame: large
/// enough to amortize per-chunk latency, small enough to interleave cores.
pub const DEFAULT_CHUNK: u64 = 2 * MIB;

/// How a multi-core scan issues work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanParams {
    /// Parallel core streams.
    pub cores: u32,
    /// Bytes per outstanding chunk.
    pub chunk: u64,
    /// Peak demand of one core (a core cannot consume memory faster than
    /// it can stream-sum it; ~12.5 GB/s is typical of the paper's Xeon
    /// generation). 14 cores × 12.5 ≈ 175 GB/s of demand, comfortably
    /// saturating both the 97 GB/s socket and any fabric link.
    pub per_core: Bandwidth,
}

impl Default for ScanParams {
    fn default() -> Self {
        ScanParams {
            cores: 14,
            chunk: DEFAULT_CHUNK,
            per_core: Bandwidth::from_gbps(12.5),
        }
    }
}

impl ScanParams {
    /// Default pacing with a specific core count.
    pub fn with_cores(cores: u32) -> Self {
        ScanParams {
            cores,
            ..Self::default()
        }
    }

    /// [`PoolError::InvalidRequest`] for zero cores or a zero chunk size.
    pub fn check(&self) -> Result<(), PoolError> {
        if self.cores == 0 {
            return Err(PoolError::InvalidRequest("scan needs at least one core"));
        }
        if self.chunk == 0 {
            return Err(PoolError::InvalidRequest("scan needs a nonzero chunk size"));
        }
        Ok(())
    }
}

/// Outcome of one scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOutcome {
    /// When the last core finished.
    pub complete: SimTime,
    /// Bytes served locally.
    pub local_bytes: u64,
    /// Bytes that crossed the fabric.
    pub remote_bytes: u64,
}

impl ScanOutcome {
    /// Achieved bandwidth for `total` bytes starting at `start`.
    pub fn bandwidth(&self, start: SimTime) -> Bandwidth {
        Bandwidth::measured(
            self.local_bytes + self.remote_bytes,
            self.complete.saturating_duration_since(start),
        )
    }

    /// Export this scan's byte accounting into a telemetry registry,
    /// labelled with `scan` (e.g. a workload phase name).
    pub fn export_into(&self, scan: &str, reg: &mut lmp_telemetry::MetricRegistry) {
        let labels = [("scan", scan)];
        reg.fill_counter_value("scan.bytes.local", &labels, self.local_bytes);
        reg.fill_counter_value("scan.bytes.remote", &labels, self.remote_bytes);
    }
}

/// Scan a list of `(segment, offset, len)` ranges as one logical byte
/// stream — the shape of a vector striped across servers. Cores divide the
/// **concatenated** byte range evenly, so a core's slice may span stripes,
/// exactly like the paper's "each core sums part of the vector".
///
/// Cores that become ready at the same instant issue their chunks as one
/// scatter-gather batch ([`LogicalPool::access_batch`]): the opening wave —
/// every core's first chunk — rides one pipelined fabric stream per holder
/// instead of `cores` serialized transfers, and later waves re-form
/// whenever completions align. Pacing is per core: a core issues its next
/// chunk once its previous data has landed *and* it has finished
/// stream-summing it (closed loop).
///
/// # Errors
/// [`PoolError::InvalidRequest`] for zero cores, a zero chunk size or an
/// unknown server — scans run on recoverable paths, so a malformed
/// request must surface as an error rather than abort the process.
pub fn scan_ranges(
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    start: SimTime,
    server: NodeId,
    ranges: &[(SegmentId, u64, u64)],
    params: ScanParams,
) -> Result<ScanOutcome, PoolError> {
    let mut backend = LogicalScan::new(pool, fabric, server, ranges);
    run(&mut backend, start, params).map(|r| r.outcome)
}

/// One core's op, as the engine hands it to a [`ScanBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOp {
    /// The issuing core.
    pub core: u32,
    /// Byte position in the scanned stream.
    pub pos: u64,
    /// Bytes.
    pub len: u64,
}

/// How a backend served one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// When the op's data has landed at the requester.
    pub complete: SimTime,
    /// Bytes served from the requester's own memory.
    pub local_bytes: u64,
    /// Bytes that crossed the fabric.
    pub remote_bytes: u64,
    /// Which of the backend's service paths the op took (a cache hit, an
    /// admitting miss, …); a repeated op must take the recorded one.
    pub path: u8,
}

/// A memory system a closed-loop scan runs over. The engine decides what
/// each core issues and when; the backend serves it, and exposes the
/// timing models ([`Fabric`], [`DramChannel`]s) and counters the engine
/// needs to repeat a settled round without serving it.
pub trait ScanBackend {
    /// Whether cores ready at the same instant issue as one wave (`true`)
    /// or one op at a time in core order.
    const WAVES: bool;
    /// Bytes in the scanned stream.
    fn stream_len(&self) -> u64;
    /// Refuse a malformed scan before anything is charged.
    fn check(&self) -> Result<(), PoolError>;
    /// The op a core at `pos` issues when it wants `want` bytes: its
    /// length, clamped at the next boundary an op must not cross (a
    /// stripe end, a frame end), and its shape, a key for how it splits
    /// into DRAM runs and fabric chunks (ops of equal length and shape are
    /// timed alike). `None` at or past the stream's end.
    fn op_at(&self, pos: u64, want: u64) -> Option<(u64, u64)>;
    /// Serve a wave (one op when not [`ScanBackend::WAVES`]) issued at
    /// `now`, filling `served` in op order. Returns when the wave's DRAM
    /// legs finished, which [`ScanBackend::repeat`] gets back.
    fn issue(&mut self, now: SimTime, ops: &[ScanOp], served: &mut Vec<Served>)
        -> Result<SimTime, PoolError>;
    /// The fabric.
    fn fabric(&self) -> &Fabric;
    /// The mutable fabric.
    fn fabric_mut(&mut self) -> &mut Fabric;
    /// Number of DRAM channels a scan can touch.
    fn drams(&self) -> usize;
    /// DRAM channel `i`.
    fn dram(&self, i: usize) -> &DramChannel;
    /// Mutable DRAM channel `i`.
    fn dram_mut(&mut self, i: usize) -> &mut DramChannel;
    /// Append the backend's counters that advance by the same amount in
    /// every repetition of a round (DRAM run counts).
    fn ledger(&self, out: &mut Vec<u64>);
    /// Finish `rounds` repetitions of a round: advance the
    /// [`ScanBackend::ledger`] counters by `rounds` × `delta`, and apply
    /// what the backend accounts per repetition in bulk.
    fn finish(&mut self, delta: &[u64], rounds: u64) -> Result<(), PoolError>;
    /// Whether every op of one repetition of a round, issued now in
    /// order, would take the path its recorded op took. Charges nothing.
    fn same_paths(&mut self, round: &Repeat<'_>) -> bool;
    /// Account one repeated round without timing it: everything
    /// [`ScanBackend::issue`] charges that depends on where the ops land
    /// (translations, hotness, cache stamps, telemetry).
    fn repeat(&mut self, round: &Repeat<'_>) -> Result<(), PoolError>;
}

/// One repetition of a recorded round, as [`ScanBackend::repeat`] gets it.
#[derive(Debug, Clone, Copy)]
pub struct Repeat<'a> {
    /// When the repetition starts; every offset below is from here.
    pub origin: SimTime,
    /// The round's waves: issue offset, one past the wave's last op in
    /// `ops`, and the offset at which its DRAM legs finished.
    pub waves: &'a [(SimDuration, usize, SimDuration)],
    /// The round's ops at the positions the repetition issues them, in
    /// issue order.
    pub ops: &'a [ScanOp],
    /// How each op was served, its completion as an offset from `origin`.
    pub served: &'a [Served],
}

impl Repeat<'_> {
    /// The waves as (issue time, op range, DRAM-done time).
    pub fn waves(&self) -> impl Iterator<Item = (SimTime, std::ops::Range<usize>, SimTime)> + '_ {
        self.waves.iter().scan(0, |lo, &(at, end, dram_done)| {
            let range = *lo..end;
            *lo = end;
            Some((self.origin + at, range, self.origin + dram_done))
        })
    }

    /// Op `i`'s completion time.
    pub fn complete(&self, i: usize) -> SimTime {
        self.origin + SimDuration::from_nanos(self.served[i].complete.as_nanos())
    }
}

/// A scan's outcome, and how many of its ops the engine fast-forwarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRun {
    /// The outcome, identical to stepping's.
    pub outcome: ScanOutcome,
    /// Ops issued.
    pub ops: u64,
    /// Ops applied in bulk as part of a repeated round.
    pub fast_forwarded: u64,
}

/// Run a closed-loop scan over `backend` from `start`: `params.cores`
/// cores split the stream evenly and each keeps one op of at most
/// `params.chunk` bytes in flight, paced by `params.per_core`.
///
/// # Errors
/// [`PoolError::InvalidRequest`] for invalid `params` or what
/// [`ScanBackend::check`] refuses, before anything is charged; otherwise
/// the backend's errors.
pub fn run<B: ScanBackend>(
    backend: &mut B,
    start: SimTime,
    params: ScanParams,
) -> Result<ScanRun, PoolError> {
    params.check()?;
    backend.check()?;
    let mut engine = Engine::new(backend.stream_len(), start, params);
    let result = engine.drive(backend);
    backend.fabric_mut().set_taping(false);
    for i in 0..backend.drams() {
        backend.dram_mut(i).set_taping(false);
    }
    result?;
    Ok(ScanRun {
        outcome: engine.outcome,
        ops: engine.ops,
        fast_forwarded: engine.fast_forwarded,
    })
}

/// Each core's slice of a `total`-byte stream, as `(position, length)`.
fn slices(total: u64, cores: u32) -> impl Iterator<Item = (u64, u64)> {
    let (per, rem) = (total / cores as u64, total % cores as u64);
    (0..cores as u64).scan(0, move |cursor, c| {
        let slice = per + u64::from(c < rem);
        let at = *cursor;
        *cursor += slice;
        Some((at, slice))
    })
}

/// A core's place in its slice.
#[derive(Debug, Clone, Copy)]
struct Core {
    pos: u64,
    left: u64,
    /// Whether the core has issued in the current round.
    issued: bool,
}

/// One op of a recorded round; `served.complete` is relative to the
/// round's start.
#[derive(Debug, Clone, Copy)]
struct OpRec {
    core: u32,
    len: u64,
    shape: u64,
    served: Served,
}

/// The round being recorded: one issue (at least) by every core that was
/// active when it started, with the state it started from.
#[derive(Debug, Default)]
struct Round {
    /// Whether the first round has ended.
    opened: bool,
    /// Whether the models are taping (from the second boundary on).
    taping: bool,
    start: SimTime,
    /// Engine and model state at `start`, relative to `start`.
    state: Vec<u64>,
    /// Fabric ledger, then backend ledger, at `start`.
    ledger: Vec<u64>,
    /// Length of the fabric part of `ledger`.
    fabric_ledger: usize,
    /// Cores yet to issue this round.
    pending: usize,
    /// Waves as in [`Repeat::waves`], offsets from `start`.
    waves: Vec<(SimDuration, usize, SimDuration)>,
    ops: Vec<OpRec>,
    /// Each DRAM channel's accesses during the round.
    calls: Vec<Vec<DramCall>>,
    /// The fabric's read-latency samples during the round.
    samples: Vec<u64>,
}

/// The closed loop: cores merge through a min-heap on (next issue time,
/// core), because the link and DRAM busy trackers model FIFO resources
/// and must admit work in timestamp order.
struct Engine {
    params: ScanParams,
    cores: Vec<Core>,
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    outcome: ScanOutcome,
    ops: u64,
    fast_forwarded: u64,
    round: Round,
    wave: Vec<ScanOp>,
    served: Vec<Served>,
    scratch: Vec<u64>,
}

impl Engine {
    fn new(total: u64, start: SimTime, params: ScanParams) -> Self {
        let cores: Vec<Core> = slices(total, params.cores)
            .map(|(pos, left)| Core {
                pos,
                left,
                issued: false,
            })
            .collect();
        let heap: BinaryHeap<_> = (0..params.cores)
            .filter(|&c| cores[c as usize].left > 0)
            .map(|c| Reverse((start, c)))
            .collect();
        let round = Round {
            pending: heap.len(),
            ..Round::default()
        };
        let width = heap.len();
        Engine {
            params,
            cores,
            heap,
            outcome: ScanOutcome {
                complete: start,
                local_bytes: 0,
                remote_bytes: 0,
            },
            ops: 0,
            fast_forwarded: 0,
            round,
            wave: Vec::with_capacity(width),
            served: Vec::with_capacity(width),
            scratch: Vec::new(),
        }
    }

    /// Bytes core `c` issues next, and their shape. Past the stream's end
    /// (impossible for positions the loop produces) the length is 0.
    fn next_op<B: ScanBackend>(&self, b: &B, c: Core) -> (u64, u64) {
        b.op_at(c.pos, c.left.min(self.params.chunk))
            .unwrap_or((0, 0))
    }

    fn drive<B: ScanBackend>(&mut self, b: &mut B) -> Result<(), PoolError> {
        while let Some(&Reverse((now, _))) = self.heap.peek() {
            if self.round.pending == 0 {
                self.boundary(b, now)?;
                continue;
            }
            self.step(b, now)?;
        }
        Ok(())
    }

    /// Issue the next wave (one op when the backend does not batch).
    fn step<B: ScanBackend>(&mut self, b: &mut B, now: SimTime) -> Result<(), PoolError> {
        self.wave.clear();
        while let Some(&Reverse((t, c))) = self.heap.peek() {
            if t != now || (!B::WAVES && !self.wave.is_empty()) {
                break;
            }
            self.heap.pop();
            let core = self.cores[c as usize];
            let (len, _) = self.next_op(b, core);
            if len == 0 {
                return Err(PoolError::Internal("scan position beyond vector end"));
            }
            self.wave.push(ScanOp {
                core: c,
                pos: core.pos,
                len,
            });
        }
        let dram_done = b.issue(now, &self.wave, &mut self.served)?;
        let round = &mut self.round;
        if round.taping {
            round.waves.push((
                now.duration_since(round.start),
                round.ops.len() + self.wave.len(),
                dram_done.saturating_duration_since(round.start),
            ));
        }
        for (op, s) in self.wave.iter().zip(&self.served) {
            self.ops += 1;
            self.outcome.local_bytes += s.local_bytes;
            self.outcome.remote_bytes += s.remote_bytes;
            self.outcome.complete = self.outcome.complete.max(s.complete);
            let core = &mut self.cores[op.core as usize];
            core.pos += op.len;
            core.left -= op.len;
            if core.left > 0 {
                // Closed loop with pacing: the core issues its next chunk
                // once the data lands *and* it has finished consuming this
                // chunk.
                let next = s
                    .complete
                    .max(now + self.params.per_core.time_to_transfer(op.len));
                self.heap.push(Reverse((next, op.core)));
            }
            if !std::mem::replace(&mut core.issued, true) {
                round.pending -= 1;
            }
            if round.taping {
                round.ops.push(OpRec {
                    core: op.core,
                    len: op.len,
                    shape: b.op_at(op.pos, op.len).map_or(0, |(_, shape)| shape),
                    served: Served {
                        complete: SimTime::from_nanos(
                            s.complete.saturating_duration_since(round.start).as_nanos(),
                        ),
                        ..*s
                    },
                });
            }
        }
        Ok(())
    }

    /// Engine and model state at `now`, relative to `now`, into `out`:
    /// each waiting core's next issue offset and op, then every link's
    /// and DRAM channel's schedule.
    fn encode<B: ScanBackend>(&self, b: &B, now: SimTime, out: &mut Vec<u64>) {
        out.clear();
        let mut waiting: Vec<(u32, SimTime)> =
            self.heap.iter().map(|&Reverse((t, c))| (c, t)).collect();
        waiting.sort_unstable();
        for (c, t) in waiting {
            let (len, shape) = self.next_op(b, self.cores[c as usize]);
            out.extend([c as u64, t.duration_since(now).as_nanos(), len, shape]);
        }
        b.fabric().layout(now, out);
        for i in 0..b.drams() {
            b.dram(i).layout(now, out);
        }
    }

    /// A round just ended at `now`: compare the state it left with the
    /// state it started from, fast-forward if they match, and start the
    /// next round.
    fn boundary<B: ScanBackend>(&mut self, b: &mut B, now: SimTime) -> Result<(), PoolError> {
        if !self.round.taping {
            // The first two rounds are not recorded: a scan that ends
            // within them (an opening wave and the cores a stripe end
            // split) pays nothing for taping.
            if !std::mem::replace(&mut self.round.opened, true) {
                self.new_round();
                return Ok(());
            }
            self.round.taping = true;
            b.fabric_mut().set_taping(true);
            for i in 0..b.drams() {
                b.dram_mut(i).set_taping(true);
            }
            self.round.calls = vec![Vec::new(); b.drams()];
            self.begin(b, now);
            return Ok(());
        }
        b.fabric_mut().take_tape(&mut self.round.samples);
        for (i, calls) in self.round.calls.iter_mut().enumerate() {
            b.dram_mut(i).take_tape(calls);
        }
        let mut state = std::mem::take(&mut self.scratch);
        self.encode(b, now, &mut state);
        let mut now = now;
        if state == self.round.state && now > self.round.start {
            now = self.fast_forward(b, now)?;
        }
        self.scratch = state;
        self.begin(b, now);
        Ok(())
    }

    /// Start recording a round at `now`.
    fn begin<B: ScanBackend>(&mut self, b: &B, now: SimTime) {
        let mut state = std::mem::take(&mut self.round.state);
        self.encode(b, now, &mut state);
        let r = &mut self.round;
        r.state = state;
        r.start = now;
        r.ledger.clear();
        b.fabric().ledger(&mut r.ledger);
        r.fabric_ledger = r.ledger.len();
        b.ledger(&mut r.ledger);
        r.waves.clear();
        r.ops.clear();
        r.samples.clear();
        for calls in &mut r.calls {
            calls.clear();
        }
        self.new_round();
    }

    /// Start counting a round's issues: every waiting core owes one.
    fn new_round(&mut self) {
        self.round.pending = self.heap.len();
        for core in &mut self.cores {
            core.issued = false;
        }
    }

    /// The recorded round repeats from `now` (its end): skip as many
    /// repetitions as every check allows, apply their effects, and return
    /// when the first unskipped round starts.
    fn fast_forward<B: ScanBackend>(&mut self, b: &mut B, now: SimTime) -> Result<SimTime, PoolError> {
        let r = &self.round;
        let period = now.duration_since(r.start);
        let mut cores = self.cores.clone();
        let mut trial = cores.clone();
        let mut estimates: Vec<Ewma> = (0..b.drams()).map(|i| b.dram(i).estimate()).collect();
        let mut stepped = estimates.clone();
        let mut settled = vec![false; estimates.len()];
        let paths: Vec<Served> = r.ops.iter().map(|o| o.served).collect();
        let mut ops: Vec<ScanOp> = Vec::with_capacity(r.ops.len());
        let mut rounds = 0u64;
        'skip: loop {
            // Every op lands where the recorded one did relative to its
            // core's slice: same length and shape, no core at its slice
            // end, no stripe or frame boundary crossed.
            ops.clear();
            trial.copy_from_slice(&cores);
            for o in &r.ops {
                let core = &mut trial[o.core as usize];
                if core.left <= o.len || self.next_op(b, *core) != (o.len, o.shape) {
                    break 'skip;
                }
                ops.push(ScanOp {
                    core: o.core,
                    pos: core.pos,
                    len: o.len,
                });
                core.pos += o.len;
                core.left -= o.len;
            }
            let repeat = Repeat {
                origin: r.start + SimDuration::from_nanos(period.as_nanos().saturating_mul(rounds + 1)),
                waves: &r.waves,
                ops: &ops,
                served: &paths,
            };
            if !b.same_paths(&repeat) {
                break;
            }

            // Every smoothed DRAM utilization, stepped one call at a time
            // from the recorded inputs, yields the recorded latency. An
            // estimate a whole round leaves unchanged has reached a fixed
            // point: every later round steps it the same way.
            for (i, calls) in r.calls.iter().enumerate() {
                if settled[i] {
                    continue;
                }
                stepped[i] = estimates[i];
                if !calls.iter().all(|c| b.dram(i).repeats(&mut stepped[i], c)) {
                    break 'skip;
                }
                settled[i] = stepped[i].value().map(f64::to_bits)
                    == estimates[i].value().map(f64::to_bits);
            }
            b.repeat(&repeat)?;
            rounds += 1;
            cores.copy_from_slice(&trial);
            estimates.copy_from_slice(&stepped);
        }
        if rounds == 0 {
            return Ok(now);
        }
        let by = SimDuration::from_nanos(period.as_nanos().saturating_mul(rounds));
        for (i, calls) in r.calls.iter().enumerate() {
            if !calls.is_empty() {
                b.dram_mut(i).fast_forward(calls, rounds, estimates[i], by);
            }
        }
        let mut ledger = Vec::with_capacity(r.ledger.len());
        b.fabric().ledger(&mut ledger);
        b.ledger(&mut ledger);
        let delta: Vec<u64> = ledger
            .iter()
            .zip(&r.ledger)
            .map(|(now, then)| now.saturating_sub(*then))
            .collect();
        let (fabric, backend) = delta.split_at(r.fabric_ledger);
        b.fabric_mut().fast_forward(fabric, &r.samples, rounds, by);
        b.finish(backend, rounds)?;

        let (mut local, mut remote, mut last) = (0u64, 0u64, SimTime::ZERO);
        for o in &r.ops {
            local += o.served.local_bytes;
            remote += o.served.remote_bytes;
            last = last.max(o.served.complete);
        }
        self.outcome.local_bytes += local * rounds;
        self.outcome.remote_bytes += remote * rounds;
        self.outcome.complete = self
            .outcome
            .complete
            .max(r.start + SimDuration::from_nanos(last.as_nanos()) + by);
        let skipped = r.ops.len() as u64 * rounds;
        self.ops += skipped;
        self.fast_forwarded += skipped;
        self.cores = cores;
        let heap = std::mem::take(&mut self.heap);
        self.heap = heap
            .into_iter()
            .map(|Reverse((t, c))| Reverse((t + by, c)))
            .collect();
        Ok(now + by)
    }
}

/// The logical pool as a scan backend: the stream is the concatenation
/// of `ranges`, and each wave is one [`LogicalPool::access_batch`].
#[derive(Debug)]
pub struct LogicalScan<'a> {
    pool: &'a mut LogicalPool,
    fabric: &'a mut Fabric,
    server: NodeId,
    ranges: &'a [(SegmentId, u64, u64)],
    /// Each range's end in the stream.
    ends: Vec<u64>,
    batch: Vec<BatchOp>,
    accesses: Vec<PoolAccess>,
    /// One repeated round's translations, in order.
    lookups: Vec<SegmentId>,
}

impl<'a> LogicalScan<'a> {
    /// `server` scanning the concatenation of `ranges` (`(segment,
    /// offset, len)`).
    pub fn new(
        pool: &'a mut LogicalPool,
        fabric: &'a mut Fabric,
        server: NodeId,
        ranges: &'a [(SegmentId, u64, u64)],
    ) -> Self {
        let ends = ranges
            .iter()
            .scan(0u64, |end, r| {
                *end += r.2;
                Some(*end)
            })
            .collect();
        LogicalScan {
            pool,
            fabric,
            server,
            ranges,
            ends,
            batch: Vec::new(),
            accesses: Vec::new(),
            lookups: Vec::new(),
        }
    }

    /// The stripe at stream position `pos`: its index, segment and offset
    /// there, and the bytes left in it.
    fn locate(&self, pos: u64) -> Option<(usize, SegmentId, u64, u64)> {
        let i = self.ends.partition_point(|&e| e <= pos);
        let (seg, off, len) = *self.ranges.get(i)?;
        let end = self.ends[i];
        Some((i, seg, off + len - (end - pos), end - pos))
    }

    fn batch_ops(&mut self, ops: &[ScanOp]) -> Result<(), PoolError> {
        self.batch.clear();
        for op in ops {
            let (_, seg, off, _) = self
                .locate(op.pos)
                .ok_or(PoolError::Internal("scan position beyond vector end"))?;
            self.batch.push(BatchOp::read(LogicalAddr::new(seg, off), op.len));
        }
        Ok(())
    }
}

impl ScanBackend for LogicalScan<'_> {
    const WAVES: bool = true;

    fn stream_len(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    fn check(&self) -> Result<(), PoolError> {
        if self.server.0 < self.pool.servers() {
            Ok(())
        } else {
            Err(PoolError::InvalidRequest("unknown server"))
        }
    }

    fn op_at(&self, pos: u64, want: u64) -> Option<(u64, u64)> {
        let (stripe, _, off, left) = self.locate(pos)?;
        let len = want.min(left);
        // The stripe decides the holder. An op of at most a frame is one
        // DRAM run and one fabric chunk wherever it starts; a longer one
        // splits at frame boundaries.
        let split = if len > FRAME_BYTES { off % FRAME_BYTES } else { 0 };
        Some((len, (stripe as u64) << 32 | split))
    }

    fn issue(&mut self, now: SimTime, ops: &[ScanOp], served: &mut Vec<Served>) -> Result<SimTime, PoolError> {
        self.batch_ops(ops)?;
        let batch = self.pool.access_batch(self.fabric, now, self.server, &self.batch)?;
        served.clear();
        served.extend(batch.ops.iter().map(|a| Served {
            complete: a.complete,
            local_bytes: a.local_bytes,
            remote_bytes: a.remote_bytes,
            path: 0,
        }));
        Ok(batch.dram_done)
    }

    fn fabric(&self) -> &Fabric {
        self.fabric
    }

    fn fabric_mut(&mut self) -> &mut Fabric {
        self.fabric
    }

    fn drams(&self) -> usize {
        self.pool.servers() as usize
    }

    fn dram(&self, i: usize) -> &DramChannel {
        self.pool.node(NodeId(i as u32)).dram()
    }

    fn dram_mut(&mut self, i: usize) -> &mut DramChannel {
        self.pool.node_mut(NodeId(i as u32)).dram_mut()
    }

    fn ledger(&self, out: &mut Vec<u64>) {
        for s in 0..self.pool.servers() {
            let node = self.pool.node(NodeId(s));
            out.extend([node.local_access_count(), node.remote_access_count()]);
        }
    }

    fn finish(&mut self, delta: &[u64], rounds: u64) -> Result<(), PoolError> {
        for (s, d) in delta.chunks_exact(2).enumerate() {
            self.pool
                .node_mut(NodeId(s as u32))
                .add_runs(d[0].saturating_mul(rounds), d[1].saturating_mul(rounds));
        }
        if self.pool.repeat_translations(self.server, &self.lookups, rounds)? {
            Ok(())
        } else {
            Err(PoolError::Internal("repeated translations stopped hitting"))
        }
    }

    fn same_paths(&mut self, round: &Repeat<'_>) -> bool {
        // Every wave translates each distinct segment once, in op order.
        // Nothing moves segments during a scan, so the round repeats its
        // translations exactly when each is a hit on a valid entry.
        self.lookups.clear();
        for (_, range, _) in round.waves() {
            let first = self.lookups.len();
            for op in &round.ops[range] {
                let Some((_, seg, _, _)) = self.locate(op.pos) else {
                    return false;
                };
                if !self.lookups[first..].contains(&seg) {
                    self.lookups.push(seg);
                }
            }
        }
        matches!(self.pool.repeat_translations(self.server, &self.lookups, 0), Ok(true))
    }

    fn repeat(&mut self, round: &Repeat<'_>) -> Result<(), PoolError> {
        self.batch_ops(round.ops)?;
        self.pool.repeat_chunks(self.server, &self.batch)?;
        if self.pool.telemetry().is_some() {
            // Only telemetry reads the ops' timing.
            for (now, range, dram_done) in round.waves() {
                self.accesses.clear();
                self.accesses.extend(range.clone().map(|i| PoolAccess {
                    complete: round.complete(i),
                    local_bytes: round.served[i].local_bytes,
                    remote_bytes: round.served[i].remote_bytes,
                    faults: 0,
                }));
                self.pool
                    .repeat_telemetry(now, self.server, &self.batch[range], &self.accesses, dram_done);
            }
        }
        Ok(())
    }
}

/// The step-by-step scan loop, kept as the executable specification the
/// fast-forwarding [`run`] is tested against: every op is served by the
/// backend, none is repeated in bulk.
pub mod reference {
    use super::*;

    /// [`super::run`] without fast-forward, as the loop was first written.
    ///
    /// # Errors
    /// As [`super::run`].
    pub fn run<B: ScanBackend>(
        backend: &mut B,
        start: SimTime,
        params: ScanParams,
    ) -> Result<ScanOutcome, PoolError> {
        params.check()?;
        backend.check()?;
        let ScanParams { cores, chunk, per_core } = params;
        let mut outcome = ScanOutcome {
            complete: start,
            local_bytes: 0,
            remote_bytes: 0,
        };
        // Per-core state: (next issue time, core, position, bytes left).
        let mut heap: BinaryHeap<Reverse<(SimTime, u32, u64, u64)>> = slices(backend.stream_len(), cores)
            .enumerate()
            .filter(|(_, (_, slice))| *slice > 0)
            .map(|(c, (pos, slice))| Reverse((start, c as u32, pos, slice)))
            .collect();
        let (mut wave, mut served) = (Vec::new(), Vec::new());
        while let Some(Reverse((now, c, pos, left))) = heap.pop() {
            // Gather the wave: every core ready at exactly `now`.
            let mut waiting = vec![(c, pos, left)];
            while let Some(&Reverse((t, c2, pos2, left2))) = heap.peek() {
                if t != now || !B::WAVES {
                    break;
                }
                heap.pop();
                waiting.push((c2, pos2, left2));
            }
            wave.clear();
            for &(c, pos, left) in &waiting {
                let (len, _) = backend
                    .op_at(pos, left.min(chunk))
                    .ok_or(PoolError::Internal("scan position beyond vector end"))?;
                wave.push(ScanOp { core: c, pos, len });
            }
            backend.issue(now, &wave, &mut served)?;
            for (op, s) in wave.iter().zip(&served) {
                outcome.local_bytes += s.local_bytes;
                outcome.remote_bytes += s.remote_bytes;
                outcome.complete = outcome.complete.max(s.complete);
                let left = waiting
                    .iter()
                    .find(|w| w.0 == op.core)
                    .map_or(0, |w| w.2);
                if left > op.len {
                    let next = s.complete.max(now + per_core.time_to_transfer(op.len));
                    heap.push(Reverse((next, op.core, op.pos + op.len, left - op.len)));
                }
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::LinkProfile;
    use lmp_mem::{DramProfile, FRAME_BYTES};

    fn setup(shared_frames: u64) -> (LogicalPool, Fabric) {
        let cfg = PoolConfig {
            servers: 4,
            capacity_per_server: (shared_frames + 2) * FRAME_BYTES,
            shared_per_server: shared_frames * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 64,
        };
        (
            LogicalPool::new(cfg),
            Fabric::new(LinkProfile::link1(), 4),
        )
    }

    #[test]
    fn local_scan_achieves_dram_bandwidth() {
        let (mut p, mut f) = setup(64);
        let len = 64 * FRAME_BYTES; // 128 MiB
        let seg = p.alloc(len, Placement::On(NodeId(0))).unwrap();
        let out = scan_ranges(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &[(seg, 0, len)], ScanParams::default(),
        )
        .unwrap();
        assert_eq!(out.remote_bytes, 0);
        let bw = out.bandwidth(SimTime::ZERO);
        assert!(
            (bw.as_gbps() - 97.0).abs() < 5.0,
            "local scan got {bw}, want ~97GB/s"
        );
    }

    #[test]
    fn remote_scan_capped_by_link() {
        let (mut p, mut f) = setup(64);
        let len = 64 * FRAME_BYTES;
        let seg = p.alloc(len, Placement::On(NodeId(1))).unwrap();
        let out = scan_ranges(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &[(seg, 0, len)], ScanParams::default(),
        )
        .unwrap();
        assert_eq!(out.local_bytes, 0);
        let bw = out.bandwidth(SimTime::ZERO);
        assert!(
            (bw.as_gbps() - 21.0).abs() < 2.0,
            "remote scan got {bw}, want ~21GB/s (Link1)"
        );
    }

    #[test]
    fn more_cores_do_not_exceed_resource_caps() {
        let (mut p, mut f) = setup(64);
        let len = 32 * FRAME_BYTES;
        let seg = p.alloc(len, Placement::On(NodeId(0))).unwrap();
        let few = scan_ranges(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &[(seg, 0, len)], ScanParams::with_cores(2),
        )
        .unwrap();
        let bw_few = few.bandwidth(SimTime::ZERO);
        let (mut p2, mut f2) = setup(64);
        let seg2 = p2.alloc(len, Placement::On(NodeId(0))).unwrap();
        let many = scan_ranges(
            &mut p2, &mut f2, SimTime::ZERO, NodeId(0), &[(seg2, 0, len)], ScanParams::with_cores(28),
        )
        .unwrap();
        let bw_many = many.bandwidth(SimTime::ZERO);
        assert!(bw_many.as_gbps() <= 100.0, "exceeded DRAM cap: {bw_many}");
        // Both configurations saturate DRAM; allow a small tolerance for
        // pipeline-drain effects at the tail of the scan.
        assert!(
            bw_many.as_gbps() >= bw_few.as_gbps() * 0.95,
            "more cores much slower: {bw_many} vs {bw_few}"
        );
    }

    #[test]
    fn ranged_scan_mixes_local_and_remote() {
        let (mut p, mut f) = setup(32);
        let local = p.alloc(8 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let remote = p.alloc(24 * FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let ranges = [
            (local, 0, 8 * FRAME_BYTES),
            (remote, 0, 24 * FRAME_BYTES),
        ];
        let out = scan_ranges(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &ranges, ScanParams::default(),
        )
        .unwrap();
        assert_eq!(out.local_bytes, 8 * FRAME_BYTES);
        assert_eq!(out.remote_bytes, 24 * FRAME_BYTES);
        // 1/4 local at 97, 3/4 remote at 21: blended must be above pure
        // remote and below pure local.
        let bw = out.bandwidth(SimTime::ZERO).as_gbps();
        assert!(bw > 21.0 && bw < 97.0, "blended bandwidth {bw}");
    }

    #[test]
    fn ranged_scan_empty_is_instant() {
        let (mut p, mut f) = setup(4);
        let out = scan_ranges(&mut p, &mut f, SimTime::ZERO, NodeId(0), &[], ScanParams::with_cores(4)).unwrap();
        assert_eq!(out.complete, SimTime::ZERO);
        assert_eq!(out.local_bytes + out.remote_bytes, 0);
    }

    #[test]
    fn zero_cores_or_chunk_is_a_typed_error() {
        let (mut p, mut f) = setup(4);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let e = scan_ranges(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &[(seg, 0, FRAME_BYTES)],
            ScanParams { cores: 0, ..ScanParams::default() },
        )
        .unwrap_err();
        assert!(matches!(e, PoolError::InvalidRequest(_)), "{e:?}");
        let e = scan_ranges(
            &mut p, &mut f, SimTime::ZERO, NodeId(0), &[(seg, 0, FRAME_BYTES)],
            ScanParams { chunk: 0, ..ScanParams::default() },
        )
        .unwrap_err();
        assert!(matches!(e, PoolError::InvalidRequest(_)), "{e:?}");
    }

    #[test]
    fn byte_accounting_is_exact() {
        let (mut p, mut f) = setup(16);
        let len = 5 * FRAME_BYTES + 12345;
        let seg = p.alloc(len, Placement::On(NodeId(2))).unwrap();
        let out = scan_ranges(
            &mut p, &mut f, SimTime::ZERO, NodeId(2), &[(seg, 0, len)], ScanParams { cores: 3, chunk: 1_000_000, ..ScanParams::default() },
        )
        .unwrap();
        assert_eq!(out.local_bytes + out.remote_bytes, len);
    }
}
