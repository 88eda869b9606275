//! The telemetry-driven adaptive sizing controller.
//!
//! Closes the observe → decide → act loop the paper sketches in §5: "a
//! global optimization problem that is solved periodically". On each
//! sim-time tick the controller
//!
//! 1. **observes** — reads a rack [`TelemetrySnapshot`] (link pressure,
//!    local-access ratio) and re-derives [`AppDemand`]s from the hotness
//!    maps: an accessor's working set is the frames it touched, its
//!    priority its decayed access count;
//! 2. **decides** — re-runs the greedy sizing solver over live capacities
//!    with those demands;
//! 3. **acts** — applies budget deltas best-effort and lets the locality
//!    balancer execute a throttled batch of migrations toward the plan.
//!
//! When the fabric is already saturated (`link_pressure_ceiling`), the
//! migration batch is skipped for the tick — balancing traffic must not
//! worsen the congestion it is trying to relieve.

use crate::balance::{BalancerConfig, LocalityBalancer};
use crate::pool::LogicalPool;
use crate::sizing::{apply_best_effort, solve, AppDemand};
use lmp_fabric::{Fabric, NodeId};
use lmp_mem::FRAME_BYTES;
use lmp_sim::prelude::*;
use lmp_telemetry::TelemetrySnapshot;

/// Controller tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Minimum sim-time between acting ticks.
    pub tick: SimDuration,
    /// Ignore accessors with fewer decayed accesses than this (noise floor).
    pub min_observed_accesses: u64,
    /// Migration throttle per tick.
    pub max_migrations_per_tick: usize,
    /// Skip the migration batch when any link's utilization exceeds this.
    pub link_pressure_ceiling: f64,
    /// Frames every server keeps private regardless of the plan.
    pub private_floor_frames: u64,
    /// Demand inflation over the observed working set (room to grow).
    pub demand_headroom: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            tick: SimDuration::from_micros(5),
            min_observed_accesses: 8,
            max_migrations_per_tick: 4,
            link_pressure_ceiling: 0.9,
            private_floor_frames: 0,
            demand_headroom: 1.25,
        }
    }
}

/// What one tick did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// False when the tick interval had not yet elapsed (nothing done).
    pub acted: bool,
    /// Accessors whose observed load produced a demand.
    pub demands: usize,
    /// Servers whose shared budget was resized.
    pub resized: usize,
    /// Migrations executed this tick.
    pub migrations: usize,
    /// True when link pressure vetoed the migration batch.
    pub skipped_link_pressure: bool,
    /// Rack local-access ratio read from the snapshot (1.0 when idle).
    pub local_ratio: f64,
}

/// Periodic controller: telemetry in, sizing plan + throttled migrations
/// out.
#[derive(Debug)]
pub struct SizingController {
    config: ControllerConfig,
    balancer: LocalityBalancer,
    ticks: u64,
    last_tick: Option<SimTime>,
}

impl SizingController {
    /// A controller with the given tuning.
    pub fn new(config: ControllerConfig) -> Self {
        let balancer = LocalityBalancer::new(BalancerConfig {
            max_migrations_per_round: config.max_migrations_per_tick,
            ..BalancerConfig::default()
        });
        SizingController {
            config,
            balancer,
            ticks: 0,
            last_tick: None,
        }
    }

    /// Re-derive application demands from observed hotness: each accessor's
    /// working set is the set of frames it touched anywhere in the rack,
    /// its priority the (capped) decayed access count — so the solver
    /// favours the accessors that are actually hitting the pool hardest.
    fn derive_demands(&self, pool: &LogicalPool) -> Vec<AppDemand> {
        let mut demands = Vec::new();
        for acc in 0..pool.servers() {
            let mut frames = 0u64;
            let mut accesses = 0u64;
            for s in 0..pool.servers() {
                let node = pool.node(NodeId(s));
                if node.is_failed() {
                    continue;
                }
                let (f, a) = node.hotness().accessor_load(acc);
                frames += f;
                accesses += a;
            }
            if accesses < self.config.min_observed_accesses || frames == 0 {
                continue;
            }
            let want = ((frames as f64) * self.config.demand_headroom).ceil() as u64;
            demands.push(AppDemand {
                server: NodeId(acc),
                bytes: want.max(1) * FRAME_BYTES,
                priority: accesses.min(u32::MAX as u64) as u32,
            });
        }
        demands
    }

    /// One control tick at `now`, fed the latest rack snapshot. Returns
    /// immediately (acted = false) while the tick interval has not elapsed.
    pub fn tick(
        &mut self,
        pool: &mut LogicalPool,
        fabric: &mut Fabric,
        now: SimTime,
        snapshot: &TelemetrySnapshot,
    ) -> TickReport {
        let local = snapshot.counter("pool.accesses.local", &[]);
        let remote = snapshot.counter("pool.accesses.remote", &[]);
        let local_ratio = if local + remote == 0 {
            1.0
        } else {
            local as f64 / (local + remote) as f64
        };
        let mut report = TickReport {
            local_ratio,
            ..TickReport::default()
        };
        if let Some(last) = self.last_tick {
            if now.duration_since(last) < self.config.tick {
                return report;
            }
        }
        self.last_tick = Some(now);
        self.ticks += 1;
        report.acted = true;

        // Decide: re-solve sizing over live capacities and observed demand.
        let demands = self.derive_demands(pool);
        report.demands = demands.len();
        if !demands.is_empty() {
            let servers = pool.servers() as usize;
            let mut capacity = Vec::with_capacity(servers);
            let mut floor = Vec::with_capacity(servers);
            for s in 0..pool.servers() {
                let node = pool.node(NodeId(s));
                let total = if node.is_failed() { 0 } else { node.split().total() };
                capacity.push(total);
                floor.push(self.config.private_floor_frames.min(total));
            }
            let plan = solve(&capacity, &floor, &demands);
            report.resized = apply_best_effort(pool, &plan);
        }

        // Act: throttled migrations — unless the fabric is already hot.
        let pressure = snapshot
            .gauge_max("fabric.link.utilization")
            .unwrap_or(0.0);
        if pressure > self.config.link_pressure_ceiling {
            report.skipped_link_pressure = true;
            // Still advance hotness epochs so stale heat decays.
            for s in 0..pool.servers() {
                let node = pool.node_mut(NodeId(s));
                if !node.is_failed() {
                    node.hotness_mut().tick_epoch();
                }
            }
        } else {
            let round = self.balancer.run_round(pool, fabric, now);
            report.migrations = round.executed.len();
        }
        report
    }

    /// Acting ticks so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total migrations the controller's balancer has executed.
    pub fn migration_count(&self) -> u64 {
        self.balancer.migration_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LogicalAddr;
    use crate::observe::rack_snapshot;
    use crate::pool::{Placement, PoolConfig};
    use lmp_fabric::{LinkProfile, MemOp};
    use lmp_mem::DramProfile;

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
    fn derives_demands_from_observed_hotness() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(2 * FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        for _ in 0..20 {
            p.access(
                &mut f,
                SimTime::ZERO,
                NodeId(1),
                LogicalAddr::new(seg, 0),
                64,
                MemOp::Read,
            )
            .unwrap();
        }
        let ctl = SizingController::new(ControllerConfig::default());
        let demands = ctl.derive_demands(&p);
        assert_eq!(demands.len(), 1, "only accessor 1 is above the floor");
        assert_eq!(demands[0].server, NodeId(1));
        assert!(demands[0].bytes >= FRAME_BYTES);
        assert_eq!(demands[0].priority, 20);
    }

    #[test]
    fn tick_migrates_hot_remote_segment_home() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        for _ in 0..50 {
            p.access(
                &mut f,
                SimTime::ZERO,
                NodeId(2),
                LogicalAddr::new(seg, 0),
                64,
                MemOp::Read,
            )
            .unwrap();
        }
        let mut ctl = SizingController::new(ControllerConfig::default());
        let snap = rack_snapshot(&mut p, &mut f, SimTime::ZERO);
        let report = ctl.tick(&mut p, &mut f, SimTime::ZERO, &snap);
        assert!(report.acted);
        assert_eq!(report.migrations, 1);
        assert_eq!(p.holder_of(seg), Some(NodeId(2)));
        assert!(report.local_ratio < 0.5);
    }

    #[test]
    fn tick_interval_is_respected() {
        let (mut p, mut f) = setup();
        let mut ctl = SizingController::new(ControllerConfig::default());
        let snap = TelemetrySnapshot::new();
        assert!(ctl.tick(&mut p, &mut f, SimTime::ZERO, &snap).acted);
        assert!(
            !ctl
                .tick(&mut p, &mut f, SimTime::from_nanos(10), &snap)
                .acted,
            "second tick inside the interval must be a no-op"
        );
        let later = SimTime::ZERO + SimDuration::from_micros(5);
        assert!(ctl.tick(&mut p, &mut f, later, &snap).acted);
        assert_eq!(ctl.ticks(), 2);
    }

    #[test]
    fn link_pressure_vetoes_migrations() {
        let (mut p, mut f) = setup();
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        for _ in 0..50 {
            p.access(
                &mut f,
                SimTime::ZERO,
                NodeId(2),
                LogicalAddr::new(seg, 0),
                64,
                MemOp::Read,
            )
            .unwrap();
        }
        let mut snap = TelemetrySnapshot::new();
        {
            let mut reg = lmp_telemetry::MetricRegistry::new();
            reg.set_gauge_value(
                "fabric.link.utilization",
                &[("node", "0"), ("dir", "up")],
                0.99,
            );
            snap.merge(&reg.snapshot());
        }
        let mut ctl = SizingController::new(ControllerConfig::default());
        let report = ctl.tick(&mut p, &mut f, SimTime::ZERO, &snap);
        assert!(report.acted);
        assert!(report.skipped_link_pressure);
        assert_eq!(report.migrations, 0);
        assert_eq!(p.holder_of(seg), Some(NodeId(0)), "segment stays put");
    }
}
