//! `kv-zipf`: the paper's KV application in a closed loop.
//!
//! Four clients, one per server of a 4-server Link1 rack, each send
//! 16-key zipf(0.99) batches — 90% `multi_get`-shaped reads, 10%
//! `multi_put`-shaped writes — with an exponential think time that keeps
//! the offered load near 2 GB/s, far under the wire rate. The `Engine`
//! interleaves the clients, `RackRuntime::tick` runs every 50 µs of
//! simulated time, and telemetry is attached. 32 value segments share a
//! 4-entry TLB per server, so translation misses are routine. Each
//! client's hot keys start in segments homed on server 0, so the balancer
//! has work to do. An op is one key: a batch's host time is split evenly
//! over its 16 keys, and every key's simulated latency is its batch's
//! completion minus issue.

use crate::clock;
use crate::episode::{gap_ns, Episode, Opts, Zipf};
use crate::replay::{real_counts, Probe, Twin};
use crate::trace::Tracer;
use lmp_core::prelude::*;
use lmp_fabric::{Band, Fabric, LinkProfile, NodeId};
use lmp_harness::invariants::check_telemetry_conservation;
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use lmp_workloads::kv::{KvConfig, KvStore, SLOT_BYTES};

const SERVERS: u32 = 4;
const SLOTS: u64 = 16_384;
const SLOTS_PER_SEGMENT: u64 = 512;
const TLB_CAPACITY: usize = 4;
const BATCH_KEYS: usize = 16;
const BATCHES_PER_CLIENT: usize = 2_400;
const WRITE_SHARE: f64 = 0.1;
const ZIPF_S: f64 = 0.99;
const THINK_MEAN_NS: f64 = 6_000.0;
const TICK: SimDuration = SimDuration::from_micros(50);

/// One client batch.
#[derive(Debug, Clone)]
struct Batch {
    write: bool,
    keys: [u64; BATCH_KEYS],
    /// Value ids written (writes only), one per key.
    values: [u64; BATCH_KEYS],
    think_ns: u64,
}

/// The generated inputs: every client's batches, in order.
#[derive(Debug)]
pub struct Inputs {
    clients: Vec<Vec<Batch>>,
}

/// Generate the seed's inputs.
pub fn generate(seed: u64) -> Inputs {
    let root = DetRng::new(seed);
    let zipf = Zipf::new(SLOTS, ZIPF_S);
    let mut next_value = SLOTS;
    let clients = (0..SERVERS)
        .map(|c| {
            let mut rng = root.fork_indexed("kv-client", u64::from(c));
            // Each client's hottest keys start in its own segment group.
            let base = u64::from(c) * (SLOTS / u64::from(SERVERS));
            (0..BATCHES_PER_CLIENT)
                .map(|_| {
                    let write = rng.chance(WRITE_SHARE);
                    let mut keys = [0u64; BATCH_KEYS];
                    let mut values = [0u64; BATCH_KEYS];
                    for (k, v) in keys.iter_mut().zip(values.iter_mut()) {
                        *k = (base + zipf.sample(&mut rng)) % SLOTS;
                        if write {
                            *v = next_value;
                            next_value += 1;
                        }
                    }
                    Batch {
                        write,
                        keys,
                        values,
                        think_ns: gap_ns(&mut rng, THINK_MEAN_NS),
                    }
                })
                .collect()
        })
        .collect();
    Inputs { clients }
}

fn pool_config() -> PoolConfig {
    PoolConfig {
        servers: SERVERS,
        capacity_per_server: 16 * FRAME_BYTES,
        shared_per_server: 12 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: TLB_CAPACITY,
    }
}

/// A twin of this workload's rack for the replay.
pub fn twin() -> Twin {
    Twin::new(
        SERVERS,
        TLB_CAPACITY,
        DramProfile::xeon_gold_5120(),
        LinkProfile::link1(),
        None,
    )
}

fn slot_value(id: u64) -> Vec<u8> {
    let mut v = vec![0u8; SLOT_BYTES as usize];
    v[..8].copy_from_slice(&id.to_le_bytes());
    v
}

fn addr_of(kv: &KvStore, key: u64) -> Result<LogicalAddr, String> {
    let seg = kv.segment_of(key).map_err(|e| e.to_string())?;
    Ok(LogicalAddr::new(
        seg,
        (key % SLOTS_PER_SEGMENT) * SLOT_BYTES,
    ))
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Batch(usize),
    Tick,
}

struct World {
    pool: LogicalPool,
    fabric: Fabric,
    kv: KvStore,
    rack: RackRuntime,
    /// Value id last written to each key.
    shadow: Vec<u64>,
    next: Vec<usize>,
    active: usize,
    ticks: u64,
    store_bytes: u64,
    err: Option<String>,
}

/// Run one episode.
pub fn episode(
    inp: &Inputs,
    opts: Opts,
    tr: &mut Tracer,
    mut twin: Option<&mut Twin>,
) -> Result<Episode, String> {
    let mut ep = Episode {
        ops_per_entry: BATCH_KEYS as u64,
        ..Episode::default()
    };

    let setup = clock::start();
    let mut pool = LogicalPool::new(pool_config());
    if opts.telemetry {
        pool.attach_telemetry();
    }
    let fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    let kv = KvStore::create(
        &mut pool,
        KvConfig {
            slots: SLOTS,
            slots_per_segment: SLOTS_PER_SEGMENT,
            zipf_exponent: ZIPF_S,
            write_fraction: WRITE_SHARE,
            placement: Placement::RoundRobin,
        },
    )
    .map_err(|e| format!("kv create: {e}"))?;
    let mut rack = RackRuntime::new(
        &pool,
        RuntimeConfig {
            balance_period: SimDuration::from_micros(100),
            sizing_period: SimDuration::from_millis(1),
            ..RuntimeConfig::default()
        },
    );
    for c in 0..SERVERS {
        rack.register_demand(AppDemand {
            server: NodeId(c),
            bytes: 8 * FRAME_BYTES,
            priority: 1,
        });
    }
    for key in 0..SLOTS {
        pool.write_bytes(addr_of(&kv, key)?, &slot_value(key))
            .map_err(|e| format!("populate: {e}"))?;
    }
    ep.setup_s = setup.secs();

    let mut w = World {
        pool,
        fabric,
        kv,
        rack,
        shadow: (0..SLOTS).collect(),
        next: vec![0; SERVERS as usize],
        active: SERVERS as usize,
        ticks: 0,
        store_bytes: 0,
        err: None,
    };
    let mut eng: Engine<Ev> = Engine::new();
    for c in 0..SERVERS as usize {
        eng.schedule_at(SimTime::from_nanos(c as u64 * 100), Ev::Batch(c))
            .map_err(|e| format!("schedule: {e:?}"))?;
    }
    eng.schedule_at(SimTime::ZERO + TICK, Ev::Tick)
        .map_err(|e| format!("schedule: {e:?}"))?;

    let mut req = 0u64;
    loop {
        req += 1;
        tr.request(req);
        let step = clock::start();
        let span = tr.enter("sim");
        let mut is_op = false;
        let more = eng.step(&mut |e, ev| {
            is_op = matches!(ev, Ev::Batch(_));
            if let Err(msg) = handle(&mut w, &mut ep, inp, e, ev, tr, twin.as_deref_mut()) {
                w.err.get_or_insert(msg);
            }
        });
        tr.exit(span);
        let ns = step.ns();
        ep.loop_s += ns as f64 * 1e-9;
        if is_op {
            ep.op_ns.push(ns / BATCH_KEYS as u64);
        }
        if !more || w.err.is_some() {
            break;
        }
    }
    if let Some(msg) = w.err {
        return Err(msg);
    }

    let now = eng.now();
    ep.sim_ns = now.as_nanos();
    let span = tr.enter("telemetry.snapshot");
    let snap = rack_snapshot(&mut w.pool, &mut w.fabric, now);
    tr.exit(span);
    let check = check_telemetry_conservation(&snap);
    if !check.passed {
        return Err(format!("kv-zipf: {}", check.detail));
    }
    ep.seal(Some(&snap));

    real_counts(&w.pool, &w.fabric, &mut ep.layers);
    ep.layers
        .insert("sim.events", eng.events_processed() as f64);
    ep.layers.insert("store.bytes", w.store_bytes as f64);
    ep.layers.insert("runtime.ticks", w.ticks as f64);
    ep.layers.insert(
        "runtime.migrations",
        w.rack.balancer().migration_count() as f64,
    );
    Ok(ep)
}

fn handle(
    w: &mut World,
    ep: &mut Episode,
    inp: &Inputs,
    eng: &mut Engine<Ev>,
    ev: Ev,
    tr: &mut Tracer,
    twin: Option<&mut Twin>,
) -> Result<(), String> {
    let now = eng.now();
    match ev {
        Ev::Tick => {
            let span = tr.enter("runtime.tick");
            w.rack.tick(&mut w.pool, &mut w.fabric, now);
            tr.exit(span);
            w.ticks += 1;
            if w.active > 0 {
                eng.schedule_after(TICK, Ev::Tick);
            }
        }
        Ev::Batch(c) => {
            let op_span = tr.enter("op");
            let b = &inp.clients[c][w.next[c]];
            let client = NodeId(c as u32);
            let mut ops = Vec::with_capacity(BATCH_KEYS);
            let mut addrs = Vec::with_capacity(BATCH_KEYS);
            for &k in &b.keys {
                let addr = addr_of(&w.kv, k)?;
                addrs.push(addr);
                ops.push(if b.write {
                    BatchOp::write(addr, SLOT_BYTES)
                } else {
                    BatchOp::read(addr, SLOT_BYTES)
                });
            }
            let span = tr.enter("replay.probe");
            let before = twin.as_ref().map(|_| Probe::read(&w.pool, &w.fabric));
            tr.exit(span);
            let span = tr.enter("pool.access_batch");
            let r = w
                .pool
                .access_batch(&mut w.fabric, now, client, &ops)
                .map_err(|e| format!("access_batch: {e}"))?;
            tr.exit(span);
            if let (Some(t), Some(before)) = (twin, before) {
                let span = tr.enter("replay");
                t.observe(&before, &Probe::read(&w.pool, &w.fabric));
                t.replay(&w.pool, now, client, &ops, Band::Normal)?;
                tr.exit(span);
            }

            let span = tr.enter("store");
            let mut mismatch = None;
            if b.write {
                for ((&k, &id), &addr) in b.keys.iter().zip(&b.values).zip(&addrs) {
                    w.pool
                        .write_bytes(addr, &slot_value(id))
                        .map_err(|e| format!("write_bytes: {e}"))?;
                    w.shadow[k as usize] = id;
                }
            } else {
                for (&k, &addr) in b.keys.iter().zip(&addrs) {
                    let v = w
                        .pool
                        .read_bytes(addr, SLOT_BYTES)
                        .map_err(|e| format!("read_bytes: {e}"))?;
                    if v[..8] != w.shadow[k as usize].to_le_bytes()
                        || v[8..].iter().any(|&x| x != 0)
                    {
                        mismatch.get_or_insert(k);
                    }
                }
            }
            tr.exit(span);
            w.store_bytes += BATCH_KEYS as u64 * SLOT_BYTES;
            if let Some(k) = mismatch {
                return Err(format!(
                    "kv-zipf: key {k} does not hold its last written value"
                ));
            }

            let lat = r.complete.duration_since(now).as_nanos();
            ep.sim_lat.extend(std::iter::repeat_n(lat, BATCH_KEYS));
            ep.ops += BATCH_KEYS as u64;
            ep.served += BATCH_KEYS as u64;
            ep.bytes += r.local_bytes + r.remote_bytes;
            ep.local_bytes += r.local_bytes;
            w.next[c] += 1;
            if w.next[c] < inp.clients[c].len() {
                eng.schedule_at(
                    r.complete + SimDuration::from_nanos(b.think_ns),
                    Ev::Batch(c),
                )
                .map_err(|e| format!("schedule: {e:?}"))?;
            } else {
                w.active -= 1;
            }
            tr.exit(op_span);
        }
    }
    Ok(())
}
