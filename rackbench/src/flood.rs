//! `tenant-flood`: an open-loop noisy neighbour with QoS on.
//!
//! Three tenants share server 2's memory on a 3-server Link1 rack with
//! priority bands and admission control enabled:
//!
//! * the victim on server 0 sends 4 KiB reads, Poisson, every 500 ns on
//!   average, on the high band;
//! * the aggressor on server 1 sends 16 KiB accesses (10% writes) at about
//!   1.5× the 21 GB/s wire rate on the low band, rate-limited to 600k ops/s
//!   by admission control;
//! * server 2's own tenant reads its local memory, 4 KiB every 1 µs on
//!   average, and never touches the fabric.
//!
//! The benchmark generates every arrival from the seed; the `Engine` hands
//! each to `LogicalPool::access_as` at its due time, whether or not earlier
//! ops have finished. An op is one `access_as` call. The simulated latency
//! reported is the victim's completion minus due time.

use crate::clock;
use crate::episode::{gap_ns, Episode, Opts};
use crate::replay::{real_counts, Probe, Twin};
use crate::stats::pct;
use crate::trace::Tracer;
use lmp_core::prelude::*;
use lmp_fabric::{Band, BandWeights, Fabric, LinkProfile, MemOp, NodeId};
use lmp_harness::invariants::check_telemetry_conservation;
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;

const SERVERS: u32 = 3;
const HOLDER: NodeId = NodeId(2);
const TLB_CAPACITY: usize = 64;
/// Victim ops per timed episode.
pub const VICTIM_OPS: usize = 12_000;
/// Victim ops per point of the SLO sweep.
const SWEEP_VICTIM_OPS: usize = 3_000;
/// Aggressor offered load in the timed episodes: ~1.5× the Link1 wire.
pub const AGGRESSOR_GBPS: f64 = 32.0;
/// The victim's p99 bound, the same 6 µs the `qos` gate uses.
const VICTIM_P99_BOUND_NS: u64 = 6_000;
/// Aggressor offered loads the SLO sweep tries, GB/s.
const SWEEP_GBPS: [f64; 7] = [8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 64.0];

/// A tenant's fixed shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    server: NodeId,
    band: Band,
    rate: Option<TenantRate>,
    access_bytes: u64,
    working_frames: u64,
    write_share: f64,
}

const SHAPES: [Shape; 3] = [
    Shape {
        server: NodeId(0),
        band: Band::High,
        rate: None,
        access_bytes: 4096,
        working_frames: 4,
        write_share: 0.0,
    },
    Shape {
        server: NodeId(1),
        band: Band::Low,
        rate: Some(TenantRate {
            ops_per_sec: 600_000,
            burst: 16,
        }),
        access_bytes: 16 * 1024,
        working_frames: 8,
        write_share: 0.1,
    },
    Shape {
        server: HOLDER,
        band: Band::Normal,
        rate: None,
        access_bytes: 4096,
        working_frames: 4,
        write_share: 0.0,
    },
];

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    due: SimTime,
    offset: u64,
    op: MemOp,
}

/// The generated arrival schedule, per tenant.
#[derive(Debug)]
pub struct Inputs {
    tenants: Vec<Vec<Arrival>>,
}

/// Generate `victim_ops` victim arrivals plus every other tenant's
/// arrivals over the same horizon, with the aggressor offering
/// `aggressor_gbps`.
pub fn generate(seed: u64, victim_ops: usize, aggressor_gbps: f64) -> Inputs {
    let root = DetRng::new(seed);
    let means = [
        500.0,
        SHAPES[1].access_bytes as f64 / aggressor_gbps,
        1_000.0,
    ];
    let mut rng = root.fork_indexed("flood-tenant", 0);
    let victim = arrivals(&mut rng, SHAPES[0], means[0], |v, _| v.len() < victim_ops);
    let horizon = victim.last().map_or(SimTime::ZERO, |a| a.due);
    let mut tenants = vec![victim];
    for (i, shape) in SHAPES.iter().enumerate().skip(1) {
        let mut rng = root.fork_indexed("flood-tenant", i as u64);
        tenants.push(arrivals(&mut rng, *shape, means[i], |_, due| {
            due <= horizon
        }));
    }
    Inputs { tenants }
}

fn arrivals(
    rng: &mut DetRng,
    shape: Shape,
    mean_ns: f64,
    keep: impl Fn(&[Arrival], SimTime) -> bool,
) -> Vec<Arrival> {
    let slots = shape.working_frames * FRAME_BYTES / shape.access_bytes;
    let mut out = Vec::new();
    let mut due = SimTime::ZERO;
    loop {
        due += SimDuration::from_nanos(gap_ns(rng, mean_ns));
        if !keep(&out, due) {
            return out;
        }
        let op = if rng.chance(shape.write_share) {
            MemOp::Write
        } else {
            MemOp::Read
        };
        out.push(Arrival {
            due,
            offset: rng.below(slots) * shape.access_bytes,
            op,
        });
    }
}

/// A twin of this workload's rack for the replay.
pub fn twin() -> Twin {
    Twin::new(
        SERVERS,
        TLB_CAPACITY,
        DramProfile::xeon_gold_5120(),
        LinkProfile::link1(),
        Some(BandWeights::default()),
    )
}

#[derive(Debug, Clone, Copy)]
struct Ev(usize);

/// Run one episode over `inp`.
pub fn episode(
    inp: &Inputs,
    opts: Opts,
    tr: &mut Tracer,
    mut twin: Option<&mut Twin>,
) -> Result<Episode, String> {
    let mut ep = Episode {
        ops_per_entry: 1,
        ..Episode::default()
    };

    let setup = clock::start();
    let mut pool = LogicalPool::new(PoolConfig {
        servers: SERVERS,
        capacity_per_server: 24 * FRAME_BYTES,
        shared_per_server: 20 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: TLB_CAPACITY,
    });
    if opts.telemetry {
        pool.attach_telemetry();
    }
    let mut fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    fabric.enable_bands(BandWeights::default());
    let mut segs = Vec::new();
    for (i, shape) in SHAPES.iter().enumerate() {
        let tenant = TenantId(i as u32);
        pool.set_tenant_band(tenant, shape.band);
        if let Some(rate) = shape.rate {
            pool.set_tenant_rate(tenant, rate);
        }
        let seg = pool
            .alloc(shape.working_frames * FRAME_BYTES, Placement::On(HOLDER))
            .map_err(|e| format!("alloc: {e}"))?;
        for f in 0..shape.working_frames {
            let fill = vec![(i as u8) << 4 | f as u8; FRAME_BYTES as usize];
            pool.write_bytes(LogicalAddr::new(seg, f * FRAME_BYTES), &fill)
                .map_err(|e| format!("populate: {e}"))?;
        }
        segs.push(seg);
    }
    ep.setup_s = setup.secs();

    let mut eng: Engine<Ev> = Engine::new();
    for (i, t) in inp.tenants.iter().enumerate() {
        if let Some(a) = t.first() {
            eng.schedule_at(a.due, Ev(i))
                .map_err(|e| format!("schedule: {e:?}"))?;
        }
    }
    let mut next = vec![0usize; SHAPES.len()];
    let mut admitted = [0u64; 3];
    let mut rejected = [0u64; 3];
    let mut err: Option<String> = None;

    let mut req = 0u64;
    loop {
        req += 1;
        tr.request(req);
        let step = clock::start();
        let span = tr.enter("sim");
        let more = eng.step(&mut |e, Ev(i)| {
            let op_span = tr.enter("op");
            let a = inp.tenants[i][next[i]];
            let shape = SHAPES[i];
            let addr = LogicalAddr::new(segs[i], a.offset);
            let span = tr.enter("replay.probe");
            let before = twin.as_ref().map(|_| Probe::read(&pool, &fabric));
            tr.exit(span);
            let span = tr.enter("pool.access_as");
            let res = pool.access_as(
                &mut fabric,
                a.due,
                TenantId(i as u32),
                shape.server,
                addr,
                shape.access_bytes,
                a.op,
            );
            tr.exit(span);
            match res {
                Ok(acc) => {
                    admitted[i] += 1;
                    if i == 0 {
                        ep.sim_lat
                            .push(acc.complete.duration_since(a.due).as_nanos());
                    }
                    ep.bytes += acc.local_bytes + acc.remote_bytes;
                    ep.local_bytes += acc.local_bytes;
                    ep.sim_ns = ep.sim_ns.max(acc.complete.as_nanos());
                    if let (Some(t), Some(before)) = (twin.as_deref_mut(), before) {
                        let span = tr.enter("replay");
                        t.observe(&before, &Probe::read(&pool, &fabric));
                        let ops = [BatchOp {
                            addr,
                            len: shape.access_bytes,
                            op: a.op,
                        }];
                        if let Err(msg) = t.replay(&pool, a.due, shape.server, &ops, shape.band) {
                            err.get_or_insert(msg);
                        }
                        tr.exit(span);
                    }
                }
                Err(PoolError::AdmissionRejected(_)) => rejected[i] += 1,
                Err(other) => {
                    err.get_or_insert(format!("access_as: {other}"));
                }
            }
            next[i] += 1;
            if let Some(n) = inp.tenants[i].get(next[i]) {
                if let Err(e) = e.schedule_at(n.due, Ev(i)) {
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
    }
    if let Some(msg) = err {
        return Err(msg);
    }

    for (i, t) in inp.tenants.iter().enumerate() {
        if admitted[i] + rejected[i] != t.len() as u64 {
            return Err(format!(
                "tenant-flood: tenant {i} admitted {} + rejected {} != scheduled {}",
                admitted[i],
                rejected[i],
                t.len()
            ));
        }
    }
    ep.ops = inp.tenants.iter().map(|t| t.len() as u64).sum();
    ep.served = admitted.iter().sum();

    let now = SimTime::from_nanos(ep.sim_ns);
    let span = tr.enter("telemetry.snapshot");
    let snap = rack_snapshot(&mut pool, &mut fabric, now);
    tr.exit(span);
    let check = check_telemetry_conservation(&snap);
    if !check.passed {
        return Err(format!("tenant-flood: {}", check.detail));
    }
    ep.seal(Some(&snap));

    real_counts(&pool, &fabric, &mut ep.layers);
    ep.layers
        .insert("sim.events", eng.events_processed() as f64);
    ep.layers.insert("qos.admitted", ep.served as f64);
    ep.layers
        .insert("qos.rejected", rejected.iter().sum::<u64>() as f64);
    Ok(ep)
}

/// The highest aggressor offered load on the sweep grid at which the
/// victim's p99 stays within the 6 µs bound, in GB/s.
pub fn slo_rate_gbps(seed: u64) -> Result<f64, String> {
    let mut best = 0.0;
    for gbps in SWEEP_GBPS {
        let inp = generate(seed, SWEEP_VICTIM_OPS, gbps);
        let ep = episode(
            &inp,
            Opts { telemetry: false },
            &mut Tracer::new(false),
            None,
        )?;
        if pct(&ep.sim_lat, 0.99) <= VICTIM_P99_BOUND_NS {
            best = gbps;
        }
    }
    Ok(best)
}
