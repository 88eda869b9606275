//! Hedged reads: tail-latency QoS for remote accesses.
//!
//! A remote read *predicted* to miss its deadline — the prediction chains
//! the fabric's live `free_at` horizons, charging nothing — is issued as a
//! race: the requester asks both the primary holder and the segment's
//! mirror twin for the same bytes, the switch forwards whichever payload
//! arrives first, and the loser is **cancelled at the switch**
//! ([`Fabric::try_read_hedged`]). Cancellation is what makes hedging pay:
//! both holders spend transmit bandwidth (the honest price of the
//! duplicate), but only the winner occupies the requester's down wire, so
//! the duplicate can actually pass a primary stuck behind a backlog. An
//! event-driven caller cancels the loser's completion event at the
//! adjudication instant (`lmp_sim::engine::Engine::cancel`).
//!
//! The deadline is derived from the pool's *live* access-latency
//! distribution — hedging targets the tail observed in this run, not a
//! hard-coded constant — with a configurable floor so an idle pool never
//! hedges trivially fast reads. Only mirror twins serve hedges: an XOR
//! parity group would cost k duplicate reads, not one. Raced reads are
//! protection-layer traffic like degraded reads: they charge the fabric
//! but not the pool's per-access counters, and they do not feed the
//! latency distribution the deadline comes from.
//!
//! The `qos.hedge.{issued,won,wasted}` counters account for every
//! decision, and `issued == won + wasted` always holds.

use crate::addr::LogicalAddr;
use crate::failure::{DegradedRead, DegradedSource, ProtectionManager};
use crate::pool::{LogicalPool, PoolError};
use lmp_fabric::{Band, Fabric, MemOp, NodeId};
use lmp_sim::prelude::*;

/// When to hedge and where the deadline comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Deadline floor: a read predicted to finish within this is never
    /// hedged, regardless of what the latency distribution says.
    pub floor: SimDuration,
    /// Quantile of the live access-latency distribution feeding the
    /// deadline (e.g. `0.99` hedges reads slower than the observed p99).
    pub quantile: f64,
    /// Deadline = `max(floor, quantile_latency × multiplier)`.
    pub multiplier: f64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            floor: SimDuration::from_micros(2),
            quantile: 0.99,
            multiplier: 1.0,
        }
    }
}

impl HedgeConfig {
    /// The deadline this policy derives from `pool`'s live telemetry:
    /// `quantile_latency × multiplier`, floored at [`HedgeConfig::floor`].
    /// Before any access is recorded (or without telemetry attached) the
    /// floor alone is the deadline.
    pub fn deadline(&self, pool: &LogicalPool) -> SimDuration {
        let observed = pool
            .telemetry()
            .and_then(|t| t.access_latency_quantile(self.quantile));
        match observed {
            Some(d) => {
                let scaled = d.mul_f64(self.multiplier);
                if scaled > self.floor {
                    scaled
                } else {
                    self.floor
                }
            }
            None => self.floor,
        }
    }
}

/// Which leg of a hedged read responded first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgeWinner {
    /// The original read beat the hedge (the hedge was wasted work).
    Primary,
    /// The duplicate served the caller first.
    Hedge,
}

/// Outcome of a hedged read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HedgeOutcome {
    /// No duplicate was issued: the read was local, or its predicted
    /// completion was inside the deadline.
    NotNeeded {
        /// When the (sole) primary read completes.
        complete: SimTime,
    },
    /// Primary and hedge raced; the switch forwarded the first payload to
    /// arrive and cancelled the loser. The caller cancels the loser's
    /// completion event at [`HedgeOutcome::loser_done`]
    /// (`lmp_sim::engine::Engine::cancel`).
    Raced {
        /// The leg that reached the switch first.
        winner: HedgeWinner,
        /// When the winning payload is fully delivered at the requester.
        complete: SimTime,
        /// When the primary leg left the race: its payload's arrival at
        /// the switch, or — when the twin was local and the remote read
        /// was cancelled before transmitting — its predicted completion.
        primary_done: SimTime,
        /// When the hedge leg left the race (its payload's arrival at the
        /// switch; `now` for a local twin).
        hedge_done: SimTime,
        /// Where the hedge leg's bytes came from (always the mirror twin).
        hedge_source: DegradedSource,
    },
    /// The deadline demanded a hedge but the segment has no live mirror
    /// twin; the slow primary serves alone and the attempt counts as
    /// wasted.
    NoTwin {
        /// When the primary read completes.
        complete: SimTime,
    },
    /// The primary failed outright (crashed holder or dead port); the
    /// full degraded path — mirror twin, or the XOR of the surviving
    /// parity group — served the read instead.
    PrimaryFailed {
        /// The degraded read that served the caller.
        read: DegradedRead,
    },
}

impl HedgeOutcome {
    /// When the caller's bytes arrive, whichever leg served them.
    pub fn complete(&self) -> SimTime {
        match self {
            HedgeOutcome::NotNeeded { complete }
            | HedgeOutcome::Raced { complete, .. }
            | HedgeOutcome::NoTwin { complete } => *complete,
            HedgeOutcome::PrimaryFailed { read } => read.complete,
        }
    }

    /// The instant the losing leg of a race was cancelled, if any — the
    /// event an engine-driven caller cancels.
    pub fn loser_done(&self) -> Option<SimTime> {
        match self {
            HedgeOutcome::Raced {
                winner,
                primary_done,
                hedge_done,
                ..
            } => Some(match winner {
                HedgeWinner::Primary => *hedge_done,
                HedgeWinner::Hedge => *primary_done,
            }),
            _ => None,
        }
    }
}

/// The unhedged service ladder: an ordinary access, falling to the full
/// degraded path (twin, then XOR rebuild) when the primary is lost.
fn serve_unhedged(
    pool: &mut LogicalPool,
    pm: &ProtectionManager,
    fabric: &mut Fabric,
    now: SimTime,
    requester: NodeId,
    addr: LogicalAddr,
    len: u64,
) -> Result<HedgeOutcome, PoolError> {
    match pool.access(fabric, now, requester, addr, len, MemOp::Read) {
        Ok(a) => Ok(HedgeOutcome::NotNeeded {
            complete: a.complete,
        }),
        Err(PoolError::SegmentLost(_) | PoolError::ServerDown(_)) => {
            let read = pm.read_degraded(pool, fabric, now, requester, addr, len)?;
            Ok(HedgeOutcome::PrimaryFailed { read })
        }
        Err(e) => Err(e),
    }
}

/// Issue `requester`'s read of `len` bytes at `addr`, hedging it through
/// the mirror twin when the fabric's plan-time estimate
/// ([`Fabric::estimate_read_completion`]) exceeds the deadline
/// [`HedgeConfig::deadline`] derives from live telemetry.
///
/// Failure ladder: a local, unknown, or unreachable primary never races —
/// the ordinary access serves it, or the full degraded path masks the
/// crash. A hedge that cannot be placed (no live twin on a third node)
/// leaves the slow primary serving alone. Raced reads ride
/// [`Band::High`]: like heartbeat probes, a hedge is latency-critical
/// traffic that must not queue behind the very flood it is dodging.
#[allow(clippy::too_many_arguments)]
pub fn hedged_read(
    pool: &mut LogicalPool,
    pm: &ProtectionManager,
    fabric: &mut Fabric,
    now: SimTime,
    requester: NodeId,
    addr: LogicalAddr,
    len: u64,
    cfg: &HedgeConfig,
) -> Result<HedgeOutcome, PoolError> {
    let seg = addr.segment;
    // Locate the primary copy and predict its completion without touching
    // any wire. A missing/local/dead primary has nothing to race.
    let predicted = pool
        .holder_of(seg)
        .filter(|&h| !pool.node(h).is_failed())
        .and_then(|h| {
            fabric
                .estimate_read_completion(now, requester, h, len)
                .map(|done| (h, done))
        });
    let Some((holder, predicted)) = predicted else {
        return serve_unhedged(pool, pm, fabric, now, requester, addr, len);
    };
    if predicted.saturating_duration_since(now) <= cfg.deadline(pool) {
        return serve_unhedged(pool, pm, fabric, now, requester, addr, len);
    }

    // Predicted past the deadline: place the duplicate on the mirror twin.
    // The race primitive validates nothing about the pool, so check the
    // range here — a bad range must fail before any wire is charged.
    let seg_len = pool.segment_len(seg).ok_or(PoolError::UnknownSegment(seg))?;
    let end = addr.offset + len;
    if end > seg_len {
        return Err(PoolError::OutOfBounds {
            segment: seg,
            end,
            len: seg_len,
        });
    }
    let twin_home = pm
        .mirror_twin(seg)
        .and_then(|twin| pool.holder_of(twin))
        .filter(|&h| h != holder && !pool.node(h).is_failed() && !fabric.is_port_down(h));
    let Some(twin_home) = twin_home else {
        // No live twin: nothing to race. The slow primary serves, and the
        // hedge decision was pure waste.
        let a = pool.access(fabric, now, requester, addr, len, MemOp::Read)?;
        if let Some(t) = pool.telemetry_mut() {
            t.note_hedge_issued();
            t.note_hedge_wasted();
        }
        return Ok(HedgeOutcome::NoTwin {
            complete: a.complete,
        });
    };
    if twin_home == requester {
        // The twin lives on the requester itself: the duplicate is a local
        // DRAM read, so the remote primary is cancelled at request time
        // and never transmits. (The hedge recovers the locality the
        // placement already paid for.)
        if let Some(t) = pool.telemetry_mut() {
            t.note_hedge_issued();
            t.note_hedge_won();
        }
        return Ok(HedgeOutcome::Raced {
            winner: HedgeWinner::Hedge,
            complete: now,
            primary_done: predicted,
            hedge_done: now,
            hedge_source: DegradedSource::MirrorReplica,
        });
    }
    let race = fabric
        .try_read_hedged(now, requester, holder, twin_home, len, Band::High)
        .map_err(|e| match e.node() {
            Some(n) => PoolError::ServerDown(n),
            None => PoolError::Internal("hedge race rejected pre-checked legs"),
        })?;
    let winner = if race.primary_won {
        HedgeWinner::Primary
    } else {
        HedgeWinner::Hedge
    };
    if let Some(t) = pool.telemetry_mut() {
        t.note_hedge_issued();
        match winner {
            HedgeWinner::Hedge => t.note_hedge_won(),
            HedgeWinner::Primary => t.note_hedge_wasted(),
        }
    }
    Ok(HedgeOutcome::Raced {
        winner,
        complete: race.complete,
        primary_done: race.primary_at_switch,
        hedge_done: race.hedge_at_switch,
        hedge_source: DegradedSource::MirrorReplica,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Placement, PoolConfig};
    use lmp_fabric::LinkProfile;
    use lmp_mem::{DramProfile, FRAME_BYTES};

    fn setup(servers: u32) -> (LogicalPool, Fabric, ProtectionManager) {
        let cfg = PoolConfig {
            servers,
            capacity_per_server: 32 * FRAME_BYTES,
            shared_per_server: 16 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        };
        let mut pool = LogicalPool::new(cfg);
        pool.attach_telemetry();
        (
            pool,
            Fabric::new(LinkProfile::link1(), servers),
            ProtectionManager::new(),
        )
    }

    fn counter(pool: &LogicalPool, name: &str) -> u64 {
        pool.telemetry().map_or(0, |t| t.snapshot().counter(name, &[]))
    }

    #[test]
    fn fast_read_is_not_hedged() {
        let (mut p, mut f, pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let r = hedged_read(
            &mut p,
            &pm,
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 0),
            64,
            &HedgeConfig::default(),
        )
        .unwrap();
        assert!(matches!(r, HedgeOutcome::NotNeeded { .. }));
        // A fast *remote* read is also served unhedged: the idle-fabric
        // estimate lands well inside the default 2 µs floor.
        let r = hedged_read(
            &mut p,
            &pm,
            &mut f,
            SimTime::ZERO,
            NodeId(1),
            LogicalAddr::new(seg, 0),
            4096,
            &HedgeConfig::default(),
        )
        .unwrap();
        assert!(matches!(r, HedgeOutcome::NotNeeded { .. }));
        assert_eq!(counter(&p, "qos.hedge.issued"), 0);
        // The counter is not even registered: digests of hedge-free runs
        // stay byte-identical.
        assert!(!p.telemetry().unwrap().snapshot().to_json().contains("hedge"));
    }

    #[test]
    fn hedge_wins_past_a_congested_primary_link() {
        let (mut p, mut f, mut pm) = setup(4);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let twin_home = p.holder_of(pm.replica(seg).unwrap()).unwrap();
        assert_ne!(twin_home, NodeId(1));
        // ~95 µs of unrelated traffic already leaving the primary's port.
        f.try_read(SimTime::ZERO, NodeId(3), NodeId(1), 2_000_000).unwrap();
        let r = hedged_read(
            &mut p,
            &pm,
            &mut f,
            SimTime::ZERO,
            NodeId(2),
            LogicalAddr::new(seg, 0),
            4096,
            &HedgeConfig::default(),
        )
        .unwrap();
        match r {
            HedgeOutcome::Raced {
                winner,
                complete,
                primary_done,
                hedge_done,
                hedge_source,
            } => {
                assert_eq!(winner, HedgeWinner::Hedge);
                assert_eq!(hedge_source, DegradedSource::MirrorReplica);
                assert!(hedge_done < primary_done, "hedge must dodge the backlog");
                // Delivery happens after the switch forwards the winner...
                assert!(complete > hedge_done);
                // ...and still beats the primary's own switch arrival.
                assert!(complete < primary_done, "the race must pay off");
                assert_eq!(r.loser_done(), Some(primary_done));
            }
            other => panic!("expected a won race, got {other:?}"),
        }
        assert_eq!(counter(&p, "qos.hedge.issued"), 1);
        assert_eq!(counter(&p, "qos.hedge.won"), 1);
        assert_eq!(counter(&p, "qos.hedge.wasted"), 0);
    }

    #[test]
    fn primary_win_counts_the_hedge_as_wasted() {
        let (mut p, mut f, mut pm) = setup(4);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let twin_home = p.holder_of(pm.replica(seg).unwrap()).unwrap();
        // This time the *twin's* port drowns in traffic.
        f.try_read(SimTime::ZERO, NodeId(3), twin_home, 2_000_000).unwrap();
        // A floor of 1 ns forces a hedge on any remote read.
        let cfg = HedgeConfig {
            floor: SimDuration::from_nanos(1),
            ..HedgeConfig::default()
        };
        let r = hedged_read(
            &mut p,
            &pm,
            &mut f,
            SimTime::ZERO,
            NodeId(2),
            LogicalAddr::new(seg, 0),
            4096,
            &cfg,
        )
        .unwrap();
        match r {
            HedgeOutcome::Raced {
                winner,
                complete,
                primary_done,
                hedge_done,
                ..
            } => {
                assert_eq!(winner, HedgeWinner::Primary);
                assert!(primary_done < hedge_done);
                assert!(complete > primary_done, "delivery follows adjudication");
                // The loser was cancelled when its payload hit the switch.
                assert_eq!(r.loser_done(), Some(hedge_done));
            }
            other => panic!("expected a lost race, got {other:?}"),
        }
        assert_eq!(counter(&p, "qos.hedge.issued"), 1);
        assert_eq!(counter(&p, "qos.hedge.wasted"), 1);
        assert_eq!(counter(&p, "qos.hedge.won"), 0);
    }

    #[test]
    fn local_twin_wins_without_transmitting() {
        let (mut p, mut f, mut pm) = setup(4);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.mirror(&mut p, &mut f, SimTime::ZERO, seg).unwrap();
        let twin_home = p.holder_of(pm.replica(seg).unwrap()).unwrap();
        // Congest the primary so the deadline demands a hedge...
        f.try_read(SimTime::ZERO, NodeId(3), NodeId(1), 2_000_000).unwrap();
        // ...and read from the twin's own home: the duplicate is a local
        // DRAM read, so the race is over before it starts.
        let r = hedged_read(
            &mut p,
            &pm,
            &mut f,
            SimTime::ZERO,
            twin_home,
            LogicalAddr::new(seg, 0),
            4096,
            &HedgeConfig::default(),
        )
        .unwrap();
        match r {
            HedgeOutcome::Raced {
                winner,
                complete,
                primary_done,
                hedge_done,
                ..
            } => {
                assert_eq!(winner, HedgeWinner::Hedge);
                assert_eq!(complete, SimTime::ZERO);
                assert_eq!(hedge_done, SimTime::ZERO);
                assert!(primary_done > SimTime::ZERO, "cancelled prediction");
            }
            other => panic!("expected an instant win, got {other:?}"),
        }
        assert_eq!(counter(&p, "qos.hedge.issued"), 1);
        assert_eq!(counter(&p, "qos.hedge.won"), 1);
    }

    #[test]
    fn crashed_primary_falls_to_degraded_xor() {
        let (mut p, mut f, mut pm) = setup(4);
        let a = p.alloc(FRAME_BYTES, Placement::On(NodeId(0))).unwrap();
        let b = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        pm.protect_parity(&mut p, &mut f, SimTime::ZERO, &[a, b]).unwrap();
        pm.write(&mut p, LogicalAddr::new(a, 10), b"hedge-me").unwrap();
        p.crash_server(NodeId(0)).unwrap();
        f.set_port_down(NodeId(0), true);
        let r = hedged_read(
            &mut p,
            &pm,
            &mut f,
            SimTime::ZERO,
            NodeId(3),
            LogicalAddr::new(a, 10),
            8,
            &HedgeConfig::default(),
        )
        .unwrap();
        match r {
            HedgeOutcome::PrimaryFailed { read } => {
                assert_eq!(read.bytes, b"hedge-me");
                assert_eq!(read.source, DegradedSource::ParityRebuild { survivors: 2 });
            }
            other => panic!("expected the degraded ladder, got {other:?}"),
        }
    }

    #[test]
    fn unprotected_segment_cannot_be_hedged() {
        let (mut p, mut f, pm) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let cfg = HedgeConfig {
            floor: SimDuration::from_nanos(1),
            ..HedgeConfig::default()
        };
        let r = hedged_read(
            &mut p,
            &pm,
            &mut f,
            SimTime::ZERO,
            NodeId(0),
            LogicalAddr::new(seg, 0),
            4096,
            &cfg,
        )
        .unwrap();
        assert!(matches!(r, HedgeOutcome::NoTwin { .. }));
        assert!(r.loser_done().is_none());
        assert_eq!(counter(&p, "qos.hedge.issued"), 1);
        assert_eq!(counter(&p, "qos.hedge.wasted"), 1);
    }

    #[test]
    fn deadline_tracks_the_live_distribution() {
        let (mut p, mut f, _) = setup(3);
        let seg = p.alloc(FRAME_BYTES, Placement::On(NodeId(1))).unwrap();
        let cfg = HedgeConfig::default();
        assert_eq!(cfg.deadline(&p), cfg.floor, "no samples: floor only");
        for _ in 0..50 {
            p.access(
                &mut f,
                SimTime::ZERO,
                NodeId(0),
                LogicalAddr::new(seg, 0),
                4096,
                MemOp::Read,
            )
            .unwrap();
        }
        let d = cfg.deadline(&p);
        let q = p
            .telemetry()
            .unwrap()
            .access_latency_quantile(cfg.quantile)
            .unwrap();
        assert!(d >= cfg.floor);
        assert!(d >= q, "multiplier 1.0: deadline at least the quantile");
        // A 10× multiplier scales the deadline with the distribution.
        let wide = HedgeConfig {
            multiplier: 10.0,
            ..cfg
        };
        assert_eq!(wide.deadline(&p), q.mul_f64(10.0).max(cfg.floor));
    }
}
