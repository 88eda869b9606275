//! The rack fabric: nodes on leaf switches, leaves grouped into racks, racks
//! joined by a datacenter spine. One rack of one leaf is the single-switch
//! star.
//!
//! Every node (server or pool appliance) attaches to its leaf with one
//! full-duplex link, modelled as two directed [`Link`]s (`up` toward the
//! switch, `down` from it); leaves and racks attach upward the same way.
//! Paper §2.2 scales Global FAM past one switch with Port-Based Routing: a
//! destination id resolves to a port at every hop, so the *route* from one
//! node to another is a static, ordered list of wires:
//!
//! * within a leaf, `[src up, dst down]` — one switch, the star's path;
//! * to another leaf of the same rack, the two leaf uplinks in between —
//!   three switches;
//! * to another rack, also both racks' spine uplinks — five switches.
//!
//! Payloads occupy every wire of their route, store-and-forward. Control
//! flits (requests, write completions, probes) occupy only the route's
//! first and last wire. An operation experiences the profile's end-to-end
//! loaded latency **once**, evaluated at the highest utilization over every
//! wire of the two routes between its endpoints (the profile's Table 2
//! endpoints are end-to-end measurements, so applying the curve per hop
//! would double count), stretched by the worse endpoint's degradation, plus
//! `extra_hop` per switch beyond the first.
//!
//! Incast (the paper's §4.2 concern) is emergent: when many servers read
//! from one holder, the holder's `up` wire serializes all payloads and the
//! flows share its bandwidth. So is oversubscription: every payload that
//! leaves a leaf or a rack shares that leaf's or rack's uplink.

use crate::link::Link;
use crate::profile::LinkProfile;
use crate::types::{LinkId, MemOp, NodeId, PROBE_BYTES, REQUEST_FLIT_BYTES};
use lmp_qos::{Band, BandWeights};
use lmp_sim::prelude::*;

/// Completion report for one fabric operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricCompletion {
    /// Instant the operation is fully complete at the requester.
    pub complete: SimTime,
    /// Loaded-latency component (end-to-end protocol latency).
    pub latency: SimDuration,
}

/// Completion report for one coalesced batch stream
/// ([`Fabric::transfer_batch_banded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchTransfer {
    /// Instant the whole stream is complete at the requester. For writes
    /// this includes the stream's single trailing completion flit.
    pub complete: SimTime,
    /// Per-chunk completion instants, in chunk order. For writes every
    /// entry equals [`BatchTransfer::complete`]: stores are acknowledged
    /// collectively by the trailing flit, not chunk by chunk.
    pub chunk_done: Vec<SimTime>,
    /// Loaded-latency component, sampled once for the stream.
    pub latency: SimDuration,
}

/// Completion report for a hedged read race ([`Fabric::try_read_hedged`]):
/// two holders transmit the same payload, the switch where their routes
/// merge forwards whichever arrives first, and the loser is cancelled
/// there — it never occupies a wire past the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgedCompletion {
    /// `true` when the primary's payload reached the merge first (ties
    /// go to the primary: the duplicate is then pure waste).
    pub primary_won: bool,
    /// Instant the winning payload is fully delivered at the requester.
    pub complete: SimTime,
    /// When the primary's payload reached the merge — on the star, when it
    /// cleared its holder's up wire. This is the primary's entry in the
    /// race.
    pub primary_at_switch: SimTime,
    /// When the hedge's payload reached the merge. For the loser this is
    /// also the cancellation instant: the event-driven caller cancels the
    /// loser's completion event here.
    pub hedge_at_switch: SimTime,
    /// Loaded-latency component of the winning path.
    pub latency: SimDuration,
}

/// Why a fabric operation could not be served. Fault injection (crashed
/// nodes) surfaces through these instead of panics so upper layers can
/// retry or fail over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// The requesting node's fabric port is down.
    RequesterDown(NodeId),
    /// The holder's fabric port is down.
    HolderDown(NodeId),
    /// The caller misused the fabric API: a self-transfer, a node id the
    /// fabric does not have, an empty batch stream, a zero-op batch.
    /// Recoverable — no wire state was touched.
    Contract(&'static str),
}

impl FabricError {
    /// The node whose port is down, whichever side it was on. `None` for
    /// contract violations, which have no failed port.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            FabricError::RequesterDown(n) | FabricError::HolderDown(n) => Some(*n),
            FabricError::Contract(_) => None,
        }
    }
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::RequesterDown(n) => write!(f, "requester {n} is off the fabric"),
            FabricError::HolderDown(n) => write!(f, "holder {n} is off the fabric"),
            FabricError::Contract(why) => write!(f, "fabric contract violation: {why}"),
        }
    }
}

impl std::error::Error for FabricError {}

/// The wires from one node to another, in the order a payload crosses
/// them: 2, 4 or 6 of them (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Route {
    wires: [usize; 6],
    len: usize,
}

impl Route {
    fn wires(&self) -> &[usize] {
        &self.wires[..self.len]
    }

    /// The wires a control flit occupies: the route's first and last.
    fn ends(&self) -> [usize; 2] {
        [self.wires[0], self.wires[self.len - 1]]
    }
}

/// A fabric of racks of leaf switches, routing between nodes by topology.
#[derive(Debug)]
pub struct Fabric {
    profile: LinkProfile,
    /// Directed links. Index `2n` is node n's up wire, `2n+1` its down
    /// wire; then, from `leaf_base`, each leaf's uplink pair (up toward the
    /// rack's spine at `2l`, down from it at `2l+1`), and from
    /// `spine_base` each rack's uplink pair to the datacenter spine. Node
    /// and leaf ids are rack-major.
    links: Vec<Link>,
    node_count: u32,
    /// Nodes per leaf and leaves per rack.
    per_leaf: usize,
    leaves: usize,
    leaf_base: usize,
    spine_base: usize,
    /// Latency added per switch beyond the first (the profile's curve
    /// covers one-switch paths, as measured in Table 2).
    extra_hop: SimDuration,
    /// Per-node port state: `true` while the node is off the fabric
    /// (crashed or partitioned). Fault injection toggles this.
    port_down: Vec<bool>,
    /// Per-node latency multiplier (1.0 = healthy). A degraded link
    /// stretches the loaded-latency component of every path through it.
    latency_factor: Vec<f64>,
    /// Priority-band weights when QoS queueing is enabled on every link;
    /// `None` (the default) keeps the pre-QoS strict-FIFO wires.
    bands: Option<BandWeights>,
    reads: Counter,
    writes: Counter,
    probes: Counter,
    read_latency: Histogram,
    /// Read-latency samples since the last [`Fabric::take_tape`], while
    /// taping is on.
    tape: Option<Vec<u64>>,
}

/// `profile` with `multiplier`× the bandwidth, named `profile.name-suffix`.
fn thicker(profile: &LinkProfile, suffix: &str, multiplier: f64) -> LinkProfile {
    LinkProfile::new(
        format!("{}-{suffix}", profile.name),
        profile.curve,
        profile.bandwidth.scale(multiplier),
    )
}

impl Fabric {
    /// A star of `node_count` nodes through one switch, all using
    /// `profile` links. A zero count is clamped to one node.
    pub fn new(profile: LinkProfile, node_count: u32) -> Self {
        Self::datacenter(profile, 1, 1, node_count, 1.0, 1.0, SimDuration::ZERO)
    }

    /// A datacenter of `racks` racks, each `leaves` leaf switches of
    /// `per_leaf` nodes with `profile`-class links. Leaf uplinks get
    /// `uplink_multiplier`× a node link's bandwidth (1.0 = fully
    /// oversubscribed when a leaf is busy, `per_leaf as f64` =
    /// non-blocking), rack spine uplinks `spine_multiplier`×; `extra_hop` is
    /// the added latency per switch beyond the first.
    ///
    /// Degenerate shapes are clamped to 1 and non-positive multipliers to
    /// 1.0. One rack of one leaf is the star of [`Fabric::new`], wire for
    /// wire: uplinks exist only where a route can cross them.
    pub fn datacenter(
        profile: LinkProfile,
        racks: u32,
        leaves: u32,
        per_leaf: u32,
        uplink_multiplier: f64,
        spine_multiplier: f64,
        extra_hop: SimDuration,
    ) -> Self {
        let (racks, leaves, per_leaf) = (racks.max(1), leaves.max(1), per_leaf.max(1));
        let positive = |m: f64| if m > 0.0 { m } else { 1.0 };
        let node_count = racks * leaves * per_leaf;
        let mut links: Vec<Link> = (0..node_count * 2)
            .map(|_| Link::new(profile.clone()))
            .collect();
        let leaf_base = links.len();
        if racks * leaves > 1 {
            let up = thicker(&profile, "leafup", positive(uplink_multiplier));
            links.extend((0..racks * leaves * 2).map(|_| Link::new(up.clone())));
        }
        let spine_base = links.len();
        if racks > 1 {
            let up = thicker(&profile, "spine", positive(spine_multiplier));
            links.extend((0..racks * 2).map(|_| Link::new(up.clone())));
        }
        Fabric {
            profile,
            links,
            node_count,
            per_leaf: per_leaf as usize,
            leaves: leaves as usize,
            leaf_base,
            spine_base,
            extra_hop,
            port_down: vec![false; node_count as usize],
            latency_factor: vec![1.0; node_count as usize],
            bands: None,
            reads: Counter::new(),
            writes: Counter::new(),
            probes: Counter::new(),
            read_latency: Histogram::new(),
            tape: None,
        }
    }

    /// Enable weighted priority-band queueing on every link. Off by
    /// default; enable before traffic flows (the banded queues start
    /// empty). Once enabled, plain [`Fabric::try_read`] and friends ride
    /// [`Band::Normal`], heartbeat probes ride [`Band::High`], and the
    /// `*_banded` variants pick their band explicitly.
    pub fn enable_bands(&mut self, weights: BandWeights) {
        self.bands = Some(weights);
        for link in &mut self.links {
            link.enable_bands(weights);
        }
    }

    /// Whether priority-band queueing is enabled.
    pub fn bands_enabled(&self) -> bool {
        self.bands.is_some()
    }

    /// Replace `node`'s links with `multiplier`× thicker ones — the paper's
    /// "higher-capacity link or multiple links" provisioning for a physical
    /// pool's switch↔pool connection. Unknown nodes are ignored.
    ///
    /// # Panics
    /// Panics on a non-positive multiplier.
    pub fn provision_uplink(&mut self, node: NodeId, multiplier: f64) {
        assert!(multiplier > 0.0, "link multiplier must be positive");
        if node.0 >= self.node_count {
            return;
        }
        let p = LinkProfile::new(
            format!("{}@{}x{multiplier:.0}", self.profile.name, node),
            self.profile.curve,
            self.profile.bandwidth.scale(multiplier),
        );
        for wire in [self.up(node).0, self.down(node).0] {
            self.links[wire] = Link::new(p.clone());
            if let Some(w) = self.bands {
                self.links[wire].enable_bands(w);
            }
        }
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// The default link profile.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// Id of `node`'s up (toward-switch) wire. Only a node this fabric has
    /// owns one; [`Fabric::link`] panics on an id past the last wire.
    pub fn up(&self, node: NodeId) -> LinkId {
        LinkId(node.0 as usize * 2)
    }

    /// Id of `node`'s down (from-switch) wire; see [`Fabric::up`].
    pub fn down(&self, node: NodeId) -> LinkId {
        LinkId(node.0 as usize * 2 + 1)
    }

    /// Direct access to a link's telemetry.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// The route from `src` to `dst`, both known nodes.
    fn route_between(&self, src: NodeId, dst: NodeId) -> Route {
        let (s, d) = (src.0 as usize, dst.0 as usize);
        let (up, down) = (2 * s, 2 * d + 1);
        // Without uplinks there is one leaf, and no division to find it.
        let one_leaf = self.leaf_base == self.links.len();
        let (src_leaf, dst_leaf) = if one_leaf {
            (0, 0)
        } else {
            (s / self.per_leaf, d / self.per_leaf)
        };
        if src_leaf == dst_leaf {
            return Route {
                wires: [up, down, 0, 0, 0, 0],
                len: 2,
            };
        }
        let leaf_up = self.leaf_base + 2 * src_leaf;
        let leaf_down = self.leaf_base + 2 * dst_leaf + 1;
        let (src_rack, dst_rack) = (src_leaf / self.leaves, dst_leaf / self.leaves);
        if src_rack == dst_rack {
            return Route {
                wires: [up, leaf_up, leaf_down, down, 0, 0],
                len: 4,
            };
        }
        let spine_up = self.spine_base + 2 * src_rack;
        let spine_down = self.spine_base + 2 * dst_rack + 1;
        Route {
            wires: [up, leaf_up, spine_up, spine_down, leaf_down, down],
            len: 6,
        }
    }

    /// Take `node`'s fabric port down (crash or partition). Subsequent
    /// [`Fabric::try_read`]/[`Fabric::try_write`] through it fail. Unknown
    /// nodes are ignored.
    pub fn set_port_down(&mut self, node: NodeId, down: bool) {
        if let Some(port) = self.port_down.get_mut(node.0 as usize) {
            *port = down;
        }
    }

    /// Whether `node`'s fabric port is down. A node the fabric does not
    /// have has no port, so it reads as down.
    pub fn is_port_down(&self, node: NodeId) -> bool {
        self.port_down.get(node.0 as usize).copied().unwrap_or(true)
    }

    /// Stretch the loaded latency of every path through `node` by
    /// `factor` (≥ 1.0 degrades, 1.0 restores). Models link-level
    /// degradation: retraining, congestion spikes, a flaky cable. Unknown
    /// nodes are ignored.
    ///
    /// # Panics
    /// Panics on a factor below 1.0.
    pub fn degrade_node(&mut self, node: NodeId, factor: f64) {
        assert!(factor >= 1.0, "degradation factor must be >= 1.0");
        if let Some(f) = self.latency_factor.get_mut(node.0 as usize) {
            *f = factor;
        }
    }

    /// Restore `node`'s links to full health. Unknown nodes are ignored.
    pub fn restore_node(&mut self, node: NodeId) {
        if let Some(f) = self.latency_factor.get_mut(node.0 as usize) {
            *f = 1.0;
        }
    }

    /// Loaded latency between known nodes `a` and `b` at utilization `u`:
    /// the curve, stretched by the worse of the two ends' degradation
    /// factors, plus `extra_hop` for each switch `route` crosses beyond
    /// the first.
    #[inline]
    fn path_latency(&self, u: f64, a: NodeId, b: NodeId, route: &Route) -> SimDuration {
        let factor = self.latency_factor[a.0 as usize].max(self.latency_factor[b.0 as usize]);
        self.profile.curve.at(u).mul_f64(factor) + self.extra_hop * (route.len as u64 - 2)
    }

    /// Both ends must be nodes of this fabric with their ports up.
    fn check_ports(&self, requester: NodeId, holder: NodeId) -> Result<(), FabricError> {
        if requester.0 >= self.node_count || holder.0 >= self.node_count {
            return Err(FabricError::Contract(
                "unknown node: no such port on the fabric",
            ));
        }
        if self.port_down[requester.0 as usize] {
            return Err(FabricError::RequesterDown(requester));
        }
        if self.port_down[holder.0 as usize] {
            return Err(FabricError::HolderDown(holder));
        }
        Ok(())
    }

    /// Carry `bytes` across `wires` in order from `at`, store-and-forward;
    /// returns when the last wire is done.
    // Inlined, with `path_latency`, so each charge compiles to straight-line
    // wire calls: outlined, they cost the star's hot paths a call per hop.
    #[inline]
    fn carry(&mut self, wires: &[usize], at: SimTime, bytes: u64, band: Band) -> SimTime {
        wires.iter().fold(at, |t, &w| {
            self.links[w].transfer_wire_banded(t, bytes, band).1
        })
    }

    /// Highest windowed utilization over every wire of both routes.
    fn path_utilization(&mut self, now: SimTime, there: &Route, back: &Route) -> f64 {
        let links = &mut self.links;
        there
            .wires()
            .iter()
            .chain(back.wires())
            .map(|&w| links[w].utilization(now))
            .fold(0.0, f64::max)
    }

    /// A remote read: `requester` loads `bytes` that reside on `holder`.
    ///
    /// # Panics
    /// Panics if `requester == holder` — local accesses never touch the
    /// fabric and must be served by the memory model instead — if either
    /// node is unknown, or if either port is down (use [`Fabric::try_read`]
    /// under fault injection).
    #[allow(clippy::expect_used)] // documented infallible wrapper, see above
    pub fn read(
        &mut self,
        now: SimTime,
        requester: NodeId,
        holder: NodeId,
        bytes: u64,
    ) -> FabricCompletion {
        self.try_read(now, requester, holder, bytes)
            // lmp-lint: allow(no-panic) — documented infallible wrapper:
            // callers use it only on a healthy fabric; faulty paths go
            // through try_read.
            .expect("fabric port down; use try_read under fault injection")
    }

    /// Fallible remote read; see [`Fabric::read`]. Returns an error
    /// instead of completing when either endpoint's port is down, or
    /// [`FabricError::Contract`] for a self-transfer (local accesses never
    /// touch the fabric) or an unknown node.
    pub fn try_read(
        &mut self,
        now: SimTime,
        requester: NodeId,
        holder: NodeId,
        bytes: u64,
    ) -> Result<FabricCompletion, FabricError> {
        self.try_read_banded(now, requester, holder, bytes, Band::Normal)
    }

    /// [`Fabric::try_read`] with an explicit priority band. With bands
    /// disabled (the default) the band is ignored and the wire schedule
    /// is byte-identical to [`Fabric::try_read`].
    pub fn try_read_banded(
        &mut self,
        now: SimTime,
        requester: NodeId,
        holder: NodeId,
        bytes: u64,
        band: Band,
    ) -> Result<FabricCompletion, FabricError> {
        if requester == holder {
            return Err(FabricError::Contract(
                "local access on the fabric: reads of resident memory bypass it",
            ));
        }
        self.check_ports(requester, holder)?;
        self.reads.inc();
        let there = self.route_between(requester, holder);
        let back = self.route_between(holder, requester);
        // Bottleneck utilization along both routes, sampled pre-admission.
        let u = self.path_utilization(now, &there, &back);
        let latency = self.path_latency(u, requester, holder, &back);

        let asked = self.carry(&there.ends(), now, REQUEST_FLIT_BYTES, band);
        let done = self.carry(back.wires(), asked, bytes, band);

        let complete = done + latency;
        self.record_read(complete.duration_since(now));
        Ok(FabricCompletion { complete, latency })
    }

    /// Plan-time estimate of a remote read's completion, charging no wire
    /// state: chains the `free_at` horizons of the request flit's and the
    /// payload's wires, each crossed at a node link's speed (so a thicker
    /// uplink makes it conservative), and adds the route's *unloaded*
    /// latency floor. Hedging uses this to decide whether a read is worth duplicating
    /// before any leg is admitted — queueing backlog, which the chain
    /// captures exactly, is what a hedge dodges; the loaded-latency term it
    /// omits is small and loads both legs alike. Under banded queueing the
    /// FIFO ledger still tracks aggregate occupancy, so this is the
    /// aggregate-backlog estimate. `None` when either node is unknown or
    /// its port is down, or the access would be local.
    pub fn estimate_read_completion(
        &self,
        now: SimTime,
        requester: NodeId,
        holder: NodeId,
        bytes: u64,
    ) -> Option<SimTime> {
        if requester == holder || self.check_ports(requester, holder).is_err() {
            return None;
        }
        let there = self.route_between(requester, holder);
        let back = self.route_between(holder, requester);
        let flit = self.profile.bandwidth.time_to_transfer(REQUEST_FLIT_BYTES);
        let wire = self.profile.bandwidth.time_to_transfer(bytes);
        let asked = there
            .ends()
            .iter()
            .fold(now, |t, &w| self.links[w].free_at(t) + flit);
        let done = back
            .wires()
            .iter()
            .fold(asked, |t, &w| self.links[w].free_at(t) + wire);
        Some(done + self.path_latency(0.0, requester, holder, &back))
    }

    /// A hedged read race: `requester` asks both `primary` and `hedge` for
    /// the same `bytes`; the switch where the two payloads' routes merge
    /// forwards whichever arrives first and **cancels the loser there**, so
    /// only the winning payload occupies the shared wires — on the star,
    /// the requester's down wire. Both request flits and each payload's
    /// wires up to the merge are charged — the duplicate's transmit
    /// bandwidth is the real price of hedging — and the read counter
    /// records both issued reads.
    ///
    /// The race is adjudicated on arrival at the merge (`*_at_switch`),
    /// which is where a cut-through switch can first commit to one source;
    /// ties go to the primary. Returns [`FabricError::Contract`] when the
    /// two sources are not distinct remote nodes of this fabric.
    pub fn try_read_hedged(
        &mut self,
        now: SimTime,
        requester: NodeId,
        primary: NodeId,
        hedge: NodeId,
        bytes: u64,
        band: Band,
    ) -> Result<HedgedCompletion, FabricError> {
        if requester == primary || requester == hedge {
            return Err(FabricError::Contract(
                "hedge race with a local leg: serve the resident copy directly",
            ));
        }
        if primary == hedge {
            return Err(FabricError::Contract(
                "hedge race needs two distinct sources",
            ));
        }
        self.check_ports(requester, primary)?;
        self.check_ports(requester, hedge)?;
        self.reads.add(2);
        let to_p = self.route_between(requester, primary);
        let to_h = self.route_between(requester, hedge);
        let from_p = self.route_between(primary, requester);
        let from_h = self.route_between(hedge, requester);
        let u_p = self.path_utilization(now, &to_p, &from_p);
        let u_h = self.path_utilization(now, &to_h, &from_h);
        let lat_p = self.path_latency(u_p, requester, primary, &from_p);
        let lat_h = self.path_latency(u_h, requester, hedge, &from_h);

        // Two request flits leave the requester back to back; each holder
        // then transmits the payload up to where the two routes merge.
        // Routes to one node share every wire from their first common one
        // on, so the legs before the merge are disjoint.
        let shared = from_p
            .wires()
            .iter()
            .rev()
            .zip(from_h.wires().iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        let (p_leg, tail) = from_p.wires().split_at(from_p.len - shared);
        let h_leg = &from_h.wires()[..from_h.len - shared];
        let asked_p = self.carry(&to_p.ends(), now, REQUEST_FLIT_BYTES, band);
        let asked_h = self.carry(&to_h.ends(), now, REQUEST_FLIT_BYTES, band);
        let at_p = self.carry(p_leg, asked_p, bytes, band);
        let at_h = self.carry(h_leg, asked_h, bytes, band);

        let primary_won = at_p <= at_h;
        let (win_at, latency) = if primary_won {
            (at_p, lat_p)
        } else {
            (at_h, lat_h)
        };
        // Only the winner crosses the shared wires.
        let complete = self.carry(tail, win_at, bytes, band) + latency;
        self.record_read(complete.duration_since(now));
        Ok(HedgedCompletion {
            primary_won,
            complete,
            primary_at_switch: at_p,
            hedge_at_switch: at_h,
            latency,
        })
    }

    /// A remote write: `requester` stores `bytes` to memory on `holder`.
    /// Payload flows requester→holder; a completion flit returns.
    ///
    /// # Panics
    /// Panics if `requester == holder`, if either node is unknown, or if
    /// either port is down (use [`Fabric::try_write`] under fault
    /// injection).
    #[allow(clippy::expect_used)] // documented infallible wrapper, see above
    pub fn write(
        &mut self,
        now: SimTime,
        requester: NodeId,
        holder: NodeId,
        bytes: u64,
    ) -> FabricCompletion {
        self.try_write(now, requester, holder, bytes)
            // lmp-lint: allow(no-panic) — documented infallible wrapper:
            // callers use it only on a healthy fabric; faulty paths go
            // through try_write.
            .expect("fabric port down; use try_write under fault injection")
    }

    /// Fallible remote write; see [`Fabric::write`]. Returns an error
    /// instead of completing when either endpoint's port is down, or
    /// [`FabricError::Contract`] for a self-transfer (local accesses never
    /// touch the fabric) or an unknown node.
    pub fn try_write(
        &mut self,
        now: SimTime,
        requester: NodeId,
        holder: NodeId,
        bytes: u64,
    ) -> Result<FabricCompletion, FabricError> {
        self.try_write_banded(now, requester, holder, bytes, Band::Normal)
    }

    /// [`Fabric::try_write`] with an explicit priority band. With bands
    /// disabled (the default) the band is ignored and the wire schedule
    /// is byte-identical to [`Fabric::try_write`].
    pub fn try_write_banded(
        &mut self,
        now: SimTime,
        requester: NodeId,
        holder: NodeId,
        bytes: u64,
        band: Band,
    ) -> Result<FabricCompletion, FabricError> {
        if requester == holder {
            return Err(FabricError::Contract(
                "local access on the fabric: writes to resident memory bypass it",
            ));
        }
        self.check_ports(requester, holder)?;
        self.writes.inc();
        let there = self.route_between(requester, holder);
        let back = self.route_between(holder, requester);
        let u = self.path_utilization(now, &there, &back);
        let latency = self.path_latency(u, requester, holder, &there);

        let stored = self.carry(there.wires(), now, bytes, band);
        // Completion flit back to the requester.
        let acked = self.carry(&back.ends(), stored, REQUEST_FLIT_BYTES, band);

        Ok(FabricCompletion {
            complete: acked + latency,
            latency,
        })
    }

    /// A coalesced batch stream: `ops` logical operations, already merged
    /// into `chunks` contiguous transfers, move between `requester` and
    /// `holder` as one pipelined stream.
    ///
    /// The stream pays per-stream overheads **once** — one request flit
    /// (reads) or one completion flit (writes), one loaded-latency sample —
    /// while the payload chunks pipeline along the route: chunk `i+1`
    /// occupies the first wire while chunk `i` drains down the next. With
    /// a single chunk the wire schedule is identical to
    /// [`Fabric::try_read`]/[`Fabric::try_write`], so a batch of one costs
    /// exactly one single op.
    ///
    /// `ops` (not `chunks.len()`) is charged to the read/write counters:
    /// the counters track logical operations served, which upper layers'
    /// conservation checks compare against per-op access counts.
    ///
    /// Returns [`FabricError::Contract`] for a self-transfer, an unknown
    /// node, an empty chunk list, or zero `ops`.
    ///
    /// `band` picks the priority band each wire charge rides. With bands
    /// disabled (the default) it is ignored.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer_batch_banded(
        &mut self,
        now: SimTime,
        requester: NodeId,
        holder: NodeId,
        op: MemOp,
        chunks: &[u64],
        ops: u64,
        band: Band,
    ) -> Result<BatchTransfer, FabricError> {
        if requester == holder {
            return Err(FabricError::Contract(
                "local access on the fabric: batch streams bypass it",
            ));
        }
        if chunks.is_empty() {
            return Err(FabricError::Contract("empty batch stream"));
        }
        if ops == 0 {
            return Err(FabricError::Contract(
                "batch stream must carry at least one op",
            ));
        }
        self.check_ports(requester, holder)?;
        match op {
            MemOp::Read => self.reads.add(ops),
            MemOp::Write => self.writes.add(ops),
        }
        let there = self.route_between(requester, holder);
        let back = self.route_between(holder, requester);
        let u = self.path_utilization(now, &there, &back);
        let latency = self.path_latency(u, requester, holder, &there);

        let mut chunk_done = Vec::with_capacity(chunks.len());
        let complete = match op {
            MemOp::Read => {
                // One request flit describes the whole scatter list.
                let asked = self.carry(&there.ends(), now, REQUEST_FLIT_BYTES, band);
                for &bytes in chunks {
                    chunk_done.push(self.carry(back.wires(), asked, bytes, band) + latency);
                }
                // `chunks` was checked non-empty above, so the loop pushed
                // at least one completion.
                let complete = chunk_done.last().copied().unwrap_or(now);
                self.record_read(complete.duration_since(now));
                complete
            }
            MemOp::Write => {
                let mut stored = now;
                for &bytes in chunks {
                    stored = stored.max(self.carry(there.wires(), now, bytes, band));
                }
                // One completion flit acknowledges the whole stream.
                let acked = self.carry(&back.ends(), stored, REQUEST_FLIT_BYTES, band);
                let complete = acked + latency;
                chunk_done.resize(chunks.len(), complete);
                complete
            }
        };
        Ok(BatchTransfer {
            complete,
            chunk_done,
            latency,
        })
    }

    /// A heartbeat probe: `prober` pings `target` and waits for the echo.
    /// A probe is two header-only flits (out on `prober`'s up and
    /// `target`'s down wire, back on the reverse pair) and experiences the
    /// loaded latency once, like any other round trip — so probes slow
    /// down under congestion but never move payload bandwidth. Failures
    /// report which side was unreachable: [`FabricError::RequesterDown`]
    /// means the *prober* could not transmit (inconclusive evidence about
    /// the target), [`FabricError::HolderDown`] means the target did not
    /// echo, and [`FabricError::Contract`] a self-probe or an unknown node.
    pub fn probe(
        &mut self,
        now: SimTime,
        prober: NodeId,
        target: NodeId,
    ) -> Result<FabricCompletion, FabricError> {
        if prober == target {
            return Err(FabricError::Contract(
                "self-probe on the fabric: a node does not heartbeat itself",
            ));
        }
        self.check_ports(prober, target)?;
        self.probes.inc();
        let there = self.route_between(prober, target);
        let back = self.route_between(target, prober);
        let u = self.path_utilization(now, &there, &back);
        let latency = self.path_latency(u, prober, target, &there);

        // Probes are control traffic: with bands enabled they ride the
        // high-priority band, so failure detection stays responsive even
        // while a tenant floods the data bands. (With bands off the band
        // argument is ignored and the schedule is unchanged.)
        let pinged = self.carry(&there.ends(), now, PROBE_BYTES, Band::High);
        // Echo flit back to the prober.
        let echoed = self.carry(&back.ends(), pinged, PROBE_BYTES, Band::High);

        Ok(FabricCompletion {
            complete: echoed + latency,
            latency,
        })
    }

    fn record_read(&mut self, latency: SimDuration) {
        self.read_latency.record_duration(latency);
        if let Some(tape) = &mut self.tape {
            tape.push(latency.as_nanos());
        }
    }

    /// Start (`true`) or stop recording every read-latency sample for
    /// [`Fabric::take_tape`]. Stopping drops what was not taken.
    pub fn set_taping(&mut self, on: bool) {
        self.tape = on.then(Vec::new);
    }

    /// Move the samples recorded since the last call to the end of `out`.
    pub fn take_tape(&mut self, out: &mut Vec<u64>) {
        if let Some(tape) = &mut self.tape {
            out.append(tape);
        }
    }

    /// Append the additive counters a repeated access pattern advances:
    /// reads, writes, then each link's bytes and transfers, by link id.
    pub fn ledger(&self, out: &mut Vec<u64>) {
        out.push(self.reads.get());
        out.push(self.writes.get());
        for link in &self.links {
            out.push(link.bytes_sent());
            out.push(link.transfer_count());
        }
    }

    /// Append every link's schedule relative to `now`, by link id (see
    /// [`Link::layout`]).
    pub fn layout(&self, now: SimTime, out: &mut Vec<u64>) {
        for link in &self.links {
            link.layout(now, out);
        }
    }

    /// Repeat an already-timed access pattern `rounds` more times, the
    /// whole repetition taking `by`: `delta` is one round's
    /// [`Fabric::ledger`] difference and `samples` its read-latency
    /// samples. Links the round did not touch keep their schedule.
    pub fn fast_forward(&mut self, delta: &[u64], samples: &[u64], rounds: u64, by: SimDuration) {
        let times = |v: u64| v.saturating_mul(rounds);
        if let [reads, writes, links @ ..] = delta {
            self.reads.add(times(*reads));
            self.writes.add(times(*writes));
            for (link, d) in self.links.iter_mut().zip(links.chunks_exact(2)) {
                if d[1] > 0 {
                    link.fast_forward(times(d[0]), times(d[1]), by);
                }
            }
        }
        for &s in samples {
            self.read_latency.record_n(s, rounds);
        }
    }

    /// Total remote reads served.
    pub fn read_count(&self) -> u64 {
        self.reads.get()
    }

    /// Total remote writes served.
    pub fn write_count(&self) -> u64 {
        self.writes.get()
    }

    /// Total heartbeat probes served (kept separate from read/write
    /// counters so failure detection never skews traffic telemetry).
    pub fn probe_count(&self) -> u64 {
        self.probes.get()
    }

    /// Distribution of end-to-end read completion times (ns).
    pub fn read_latency_histogram(&self) -> &Histogram {
        &self.read_latency
    }

    /// Export the fabric's state into a telemetry registry: rack-level op
    /// counters plus per-node, per-direction link gauges and counters. Fill
    /// a fresh registry per export — values are published absolutely.
    pub fn export_into(&mut self, now: SimTime, reg: &mut lmp_telemetry::MetricRegistry) {
        reg.fill_counter("fabric.reads", &[], self.reads);
        reg.fill_counter("fabric.writes", &[], self.writes);
        reg.fill_counter("fabric.probes", &[], self.probes);
        reg.merge_histogram("fabric.read_latency", &[], &self.read_latency);
        for n in 0..self.node_count {
            let node = NodeId(n);
            let label = n.to_string();
            for (dir, idx) in [("up", self.up(node).0), ("down", self.down(node).0)] {
                let labels = [("node", label.as_str()), ("dir", dir)];
                let util = self.links[idx].utilization(now);
                let queue_ns = self.links[idx]
                    .free_at(now)
                    .saturating_duration_since(now)
                    .as_nanos();
                reg.set_gauge_value("fabric.link.utilization", &labels, util);
                reg.set_gauge_value("fabric.link.queue_ns", &labels, queue_ns as f64);
                reg.fill_counter_value("fabric.link.bytes", &labels, self.links[idx].bytes_sent());
                reg.fill_counter_value(
                    "fabric.link.transfers",
                    &labels,
                    self.links[idx].transfer_count(),
                );
                // Per-band backlog depth, registered lazily: the gauges
                // exist only once bands are enabled, so snapshots from
                // band-free runs stay byte-identical to pre-QoS builds.
                if let Some(backlogs) = self.links[idx].band_backlogs(now) {
                    for band in Band::ALL {
                        let band_labels = [
                            ("node", label.as_str()),
                            ("dir", dir),
                            ("band", band.label()),
                        ];
                        reg.set_gauge_value(
                            "fabric.link.queue_ns",
                            &band_labels,
                            backlogs[band.index()].as_nanos() as f64,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn idle_read_latency_is_profile_min() {
        let mut f = Fabric::new(LinkProfile::link0(), 4);
        let c = f.read(t(0), NodeId(0), NodeId(1), 64);
        assert_eq!(c.latency.as_nanos(), 163);
        // Nothing queues: completion is the latency plus the request flit
        // and the payload serialized once on each of their two wires.
        let bw = LinkProfile::link0().bandwidth;
        let wires = bw.time_to_transfer(REQUEST_FLIT_BYTES) * 2 + bw.time_to_transfer(64) * 2;
        assert_eq!(c.complete, t(163) + wires);
    }

    #[test]
    fn estimate_matches_an_idle_read_exactly() {
        // On an idle fabric the `free_at` chain is the real schedule and
        // the utilization term is zero, so the plan-time estimate equals
        // the charged completion — and charges nothing.
        let mut f = Fabric::new(LinkProfile::link1(), 4);
        let est = f
            .estimate_read_completion(t(0), NodeId(0), NodeId(1), 4096)
            .unwrap();
        let before = f.link(f.up(NodeId(1))).bytes_sent();
        assert_eq!(before, 0, "estimation must not touch the wire");
        let c = f.try_read(t(0), NodeId(0), NodeId(1), 4096).unwrap();
        assert_eq!(est, c.complete);
    }

    #[test]
    fn estimate_sees_the_backlog_and_dead_ports() {
        let mut f = Fabric::new(LinkProfile::link1(), 4);
        let idle = f
            .estimate_read_completion(t(0), NodeId(0), NodeId(1), 4096)
            .unwrap();
        // ~95 µs already leaving the holder's port.
        f.try_read(t(0), NodeId(2), NodeId(1), 2_000_000).unwrap();
        let loaded = f
            .estimate_read_completion(t(0), NodeId(0), NodeId(1), 4096)
            .unwrap();
        assert!(loaded > idle + SimDuration::from_micros(90));
        assert!(f
            .estimate_read_completion(t(0), NodeId(0), NodeId(0), 64)
            .is_none());
        f.set_port_down(NodeId(1), true);
        assert!(f
            .estimate_read_completion(t(0), NodeId(0), NodeId(1), 64)
            .is_none());
    }

    #[test]
    fn hedged_race_cancels_the_loser_at_the_switch() {
        let mut f = Fabric::new(LinkProfile::link1(), 4);
        // Primary's up wire is buried; the hedge's is idle.
        f.try_read(t(0), NodeId(3), NodeId(1), 2_000_000).unwrap();
        let r = f
            .try_read_hedged(t(0), NodeId(0), NodeId(1), NodeId(2), 4096, Band::Normal)
            .unwrap();
        assert!(!r.primary_won);
        assert!(r.hedge_at_switch < r.primary_at_switch);
        assert!(r.complete > r.hedge_at_switch);
        assert!(
            r.complete < r.primary_at_switch,
            "winner dodges the backlog"
        );
        // Only the winning payload crossed the requester's down wire: the
        // loser was cancelled at the switch.
        assert_eq!(f.link(f.down(NodeId(0))).bytes_sent(), 4096);
        // Both holders spent transmit bandwidth — the price of hedging.
        assert_eq!(f.link(f.up(NodeId(2))).bytes_sent(), 4096);
        assert!(f.link(f.up(NodeId(1))).bytes_sent() >= 2_000_000 + 4096);
    }

    #[test]
    fn symmetric_race_goes_to_the_primary() {
        // Symmetric idle paths: the hedge's request flit leaves second,
        // so its payload trails by exactly one flit and the duplicate is
        // pure waste.
        let mut f = Fabric::new(LinkProfile::link1(), 4);
        let flit = f.profile().bandwidth.time_to_transfer(REQUEST_FLIT_BYTES);
        let r = f
            .try_read_hedged(t(0), NodeId(0), NodeId(1), NodeId(2), 4096, Band::Normal)
            .unwrap();
        assert!(r.primary_won);
        assert_eq!(r.hedge_at_switch, r.primary_at_switch + flit);
    }

    #[test]
    fn hedged_race_rejects_degenerate_legs() {
        let mut f = Fabric::new(LinkProfile::link1(), 4);
        assert!(matches!(
            f.try_read_hedged(t(0), NodeId(0), NodeId(0), NodeId(2), 64, Band::Normal),
            Err(FabricError::Contract(_))
        ));
        assert!(matches!(
            f.try_read_hedged(t(0), NodeId(0), NodeId(1), NodeId(1), 64, Band::Normal),
            Err(FabricError::Contract(_))
        ));
        f.set_port_down(NodeId(2), true);
        assert!(matches!(
            f.try_read_hedged(t(0), NodeId(0), NodeId(1), NodeId(2), 64, Band::Normal),
            Err(FabricError::HolderDown(NodeId(2)))
        ));
    }

    #[test]
    fn local_read_is_a_contract_error() {
        let mut f = Fabric::new(LinkProfile::link0(), 4);
        assert!(matches!(
            f.try_read(t(0), NodeId(2), NodeId(2), 64),
            Err(FabricError::Contract(_))
        ));
    }

    #[test]
    fn incast_shares_holder_uplink() {
        let mut f = Fabric::new(LinkProfile::link1(), 5);
        let holder = NodeId(4);
        let chunk = 1_000_000u64;
        // Three requesters hammer the same holder simultaneously.
        let mut ends = Vec::new();
        for round in 0..30 {
            for r in 0..3 {
                let c = f.read(t(round), NodeId(r), holder, chunk);
                ends.push(c.complete);
            }
        }
        let total_bytes = 30 * 3 * chunk;
        let done = ends.iter().max().copied().unwrap();
        let achieved = Bandwidth::measured(total_bytes, done.duration_since(t(0)));
        // Aggregate is capped by the holder's single 21 GB/s uplink.
        assert!(achieved.as_gbps() < 22.0, "achieved {achieved}");
        assert!(achieved.as_gbps() > 15.0, "achieved {achieved}");
    }

    #[test]
    fn provisioned_uplink_relieves_incast() {
        let mut thin = Fabric::new(LinkProfile::link1(), 5);
        let mut thick = Fabric::new(LinkProfile::link1(), 5);
        thick.provision_uplink(NodeId(4), 4.0);
        let chunk = 1_000_000u64;
        let run = |f: &mut Fabric| {
            let mut done = t(0);
            for round in 0..30 {
                for r in 0..4 {
                    let c = f.read(t(round), NodeId(r), NodeId(4), chunk);
                    done = done.max(c.complete);
                }
            }
            done
        };
        let thin_done = run(&mut thin);
        let thick_done = run(&mut thick);
        assert!(
            thick_done < thin_done,
            "thick uplink should finish sooner: {thick_done} vs {thin_done}"
        );
    }

    #[test]
    fn loaded_latency_rises_under_contention() {
        let mut f = Fabric::new(LinkProfile::link1(), 2);
        let first = f.read(t(0), NodeId(0), NodeId(1), 64).latency;
        let mut last = first;
        let mut now = t(0);
        for _ in 0..5_000 {
            last = f.read(now, NodeId(0), NodeId(1), 256 * 1024).latency;
            now += SimDuration::from_nanos(50);
        }
        assert!(last > first, "latency did not rise: {first} -> {last}");
        assert!(last.as_nanos() <= 527);
    }

    #[test]
    fn write_counts_and_read_counts() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        f.read(t(0), NodeId(0), NodeId(1), 64);
        f.write(t(0), NodeId(0), NodeId(2), 64);
        f.write(t(0), NodeId(1), NodeId(2), 64);
        assert_eq!(f.read_count(), 1);
        assert_eq!(f.write_count(), 2);
        assert_eq!(f.read_latency_histogram().count(), 1);
    }

    #[test]
    fn down_port_fails_and_restores() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        f.set_port_down(NodeId(1), true);
        assert_eq!(
            f.try_read(t(0), NodeId(0), NodeId(1), 64),
            Err(FabricError::HolderDown(NodeId(1)))
        );
        assert_eq!(
            f.try_write(t(0), NodeId(1), NodeId(2), 64),
            Err(FabricError::RequesterDown(NodeId(1)))
        );
        // Unaffected pairs keep flowing, and counters skip failed ops.
        assert!(f.try_read(t(0), NodeId(0), NodeId(2), 64).is_ok());
        assert_eq!(f.read_count(), 1);
        f.set_port_down(NodeId(1), false);
        assert!(f.try_read(t(0), NodeId(0), NodeId(1), 64).is_ok());
    }

    #[test]
    fn degraded_node_stretches_latency() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        let healthy = f.read(t(0), NodeId(0), NodeId(1), 64).latency;
        f.degrade_node(NodeId(1), 4.0);
        let degraded = f.read(t(0), NodeId(0), NodeId(1), 64).latency;
        assert_eq!(degraded, healthy * 4, "latency scales with the factor");
        // Paths avoiding the degraded node are untouched.
        let other = f.read(t(0), NodeId(0), NodeId(2), 64).latency;
        assert_eq!(other, healthy);
        f.restore_node(NodeId(1));
        let restored = f.read(t(0), NodeId(0), NodeId(1), 64).latency;
        assert_eq!(restored, healthy);
    }

    #[test]
    fn probe_round_trips_and_reports_down_side() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        let c = f.probe(t(0), NodeId(0), NodeId(1)).unwrap();
        assert_eq!(c.latency.as_nanos(), 163);
        assert_eq!(f.probe_count(), 1);
        // Probes never count as reads or writes.
        assert_eq!(f.read_count(), 0);
        assert_eq!(f.write_count(), 0);
        f.set_port_down(NodeId(1), true);
        assert_eq!(
            f.probe(t(0), NodeId(0), NodeId(1)),
            Err(FabricError::HolderDown(NodeId(1)))
        );
        assert_eq!(
            f.probe(t(0), NodeId(1), NodeId(2)),
            Err(FabricError::RequesterDown(NodeId(1)))
        );
        // Failed probes are not counted.
        assert_eq!(f.probe_count(), 1);
    }

    #[test]
    fn self_probe_is_a_contract_error() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        assert!(matches!(
            f.probe(t(0), NodeId(1), NodeId(1)),
            Err(FabricError::Contract(_))
        ));
    }

    #[test]
    fn single_chunk_batch_matches_single_op() {
        let mut a = Fabric::new(LinkProfile::link1(), 3);
        let mut b = Fabric::new(LinkProfile::link1(), 3);
        let single = a.try_read(t(0), NodeId(0), NodeId(1), 4096).unwrap();
        let batch = b
            .transfer_batch_banded(
                t(0),
                NodeId(0),
                NodeId(1),
                MemOp::Read,
                &[4096],
                1,
                Band::Normal,
            )
            .unwrap();
        assert_eq!(batch.complete, single.complete);
        assert_eq!(batch.latency, single.latency);
        assert_eq!(batch.chunk_done, vec![single.complete]);

        let ws = a.try_write(t(0), NodeId(0), NodeId(2), 4096).unwrap();
        let wb = b
            .transfer_batch_banded(
                t(0),
                NodeId(0),
                NodeId(2),
                MemOp::Write,
                &[4096],
                1,
                Band::Normal,
            )
            .unwrap();
        assert_eq!(wb.complete, ws.complete);
    }

    #[test]
    fn batched_stream_beats_serialized_ops() {
        let chunk = 256 * 1024u64;
        let n = 8usize;
        let mut looped = Fabric::new(LinkProfile::link1(), 2);
        let mut now = t(0);
        for _ in 0..n {
            now = looped.read(now, NodeId(0), NodeId(1), chunk).complete;
        }
        let mut batched = Fabric::new(LinkProfile::link1(), 2);
        let bt = batched
            .transfer_batch_banded(
                t(0),
                NodeId(0),
                NodeId(1),
                MemOp::Read,
                &vec![chunk; n],
                n as u64,
                Band::Normal,
            )
            .unwrap();
        assert!(
            bt.complete < now,
            "pipelined stream {} not faster than serialized {}",
            bt.complete,
            now
        );
        // Chunk completions are monotone and the last one is the stream's.
        assert!(bt.chunk_done.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*bt.chunk_done.last().unwrap(), bt.complete);
    }

    #[test]
    fn batch_counters_track_logical_ops() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        f.transfer_batch_banded(
            t(0),
            NodeId(0),
            NodeId(1),
            MemOp::Read,
            &[64, 64],
            5,
            Band::Normal,
        )
        .unwrap();
        f.transfer_batch_banded(
            t(0),
            NodeId(0),
            NodeId(2),
            MemOp::Write,
            &[64],
            3,
            Band::Normal,
        )
        .unwrap();
        assert_eq!(f.read_count(), 5, "reads counter carries the op count");
        assert_eq!(f.write_count(), 3);
        // One stream, one latency record.
        assert_eq!(f.read_latency_histogram().count(), 1);
    }

    #[test]
    fn batch_respects_down_ports() {
        let mut f = Fabric::new(LinkProfile::link0(), 3);
        f.set_port_down(NodeId(1), true);
        assert_eq!(
            f.transfer_batch_banded(
                t(0),
                NodeId(0),
                NodeId(1),
                MemOp::Read,
                &[64],
                1,
                Band::Normal
            ),
            Err(FabricError::HolderDown(NodeId(1)))
        );
        assert_eq!(
            f.transfer_batch_banded(
                t(0),
                NodeId(1),
                NodeId(2),
                MemOp::Write,
                &[64],
                1,
                Band::Normal
            ),
            Err(FabricError::RequesterDown(NodeId(1)))
        );
        // Failed streams leave the counters untouched.
        assert_eq!(f.read_count(), 0);
        assert_eq!(f.write_count(), 0);
    }

    #[test]
    fn bands_off_banded_variants_match_plain() {
        let mut a = Fabric::new(LinkProfile::link1(), 3);
        let mut b = Fabric::new(LinkProfile::link1(), 3);
        let plain = a.try_read(t(0), NodeId(0), NodeId(1), 4096).unwrap();
        let banded = b
            .try_read_banded(t(0), NodeId(0), NodeId(1), 4096, Band::Low)
            .unwrap();
        assert_eq!(plain, banded, "band ignored while bands are off");
    }

    #[test]
    fn banded_read_dodges_low_band_flood() {
        let mut f = Fabric::new(LinkProfile::link1(), 3);
        f.enable_bands(BandWeights::default());
        // A low-band bulk stream floods the 0↔1 path.
        f.transfer_batch_banded(
            t(0),
            NodeId(0),
            NodeId(1),
            MemOp::Write,
            &[2_100_000],
            1,
            Band::Low,
        )
        .unwrap();
        // A normal-band read on the same path still completes quickly:
        // it holds 4/5 of each contended wire instead of queueing behind
        // the whole flood FIFO-style.
        let c = f
            .try_read_banded(t(0), NodeId(0), NodeId(1), 4096, Band::Normal)
            .unwrap();
        let mut fifo = Fabric::new(LinkProfile::link1(), 3);
        fifo.transfer_batch_banded(
            t(0),
            NodeId(0),
            NodeId(1),
            MemOp::Write,
            &[2_100_000],
            1,
            Band::Normal,
        )
        .unwrap();
        let c_fifo = fifo.try_read(t(0), NodeId(0), NodeId(1), 4096).unwrap();
        assert!(
            c.complete < c_fifo.complete,
            "banded {} not faster than FIFO {} under flood",
            c.complete,
            c_fifo.complete
        );
    }

    #[test]
    fn probes_ride_the_high_band() {
        let mut f = Fabric::new(LinkProfile::link1(), 3);
        f.enable_bands(BandWeights::default());
        f.transfer_batch_banded(
            t(0),
            NodeId(0),
            NodeId(1),
            MemOp::Write,
            &[2_100_000],
            1,
            Band::Low,
        )
        .unwrap();
        // Failure detection stays responsive through the flood: the probe
        // finishes within 1 µs of the same probe on an idle fabric.
        let c = f.probe(t(0), NodeId(0), NodeId(1)).unwrap();
        let idle = Fabric::new(LinkProfile::link1(), 3)
            .probe(t(0), NodeId(0), NodeId(1))
            .unwrap();
        assert!(
            c.complete < idle.complete + SimDuration::from_micros(1),
            "probe done at {} behind a low-band flood, {} when idle",
            c.complete,
            idle.complete
        );
    }

    #[test]
    fn export_emits_band_gauges_only_when_enabled() {
        let mut off = Fabric::new(LinkProfile::link1(), 2);
        off.read(t(0), NodeId(0), NodeId(1), 4096);
        let mut reg = lmp_telemetry::MetricRegistry::new();
        off.export_into(t(0), &mut reg);
        let plain = reg.snapshot();
        assert!(
            !plain.to_json().contains("band="),
            "band gauges must not appear while bands are off"
        );

        let mut on = Fabric::new(LinkProfile::link1(), 2);
        on.enable_bands(BandWeights::default());
        on.try_read_banded(t(0), NodeId(0), NodeId(1), 2_100_000, Band::Low)
            .unwrap();
        let mut reg = lmp_telemetry::MetricRegistry::new();
        on.export_into(t(0), &mut reg);
        let snap = reg.snapshot();
        assert!(snap.to_json().contains("band="), "band gauges exported");
    }

    /// Link1 racks of `leaves × per_leaf` nodes, 40 ns per extra switch.
    fn dc(racks: u32, leaves: u32, per_leaf: u32, uplink: f64, spine: f64) -> Fabric {
        Fabric::datacenter(
            LinkProfile::link1(),
            racks,
            leaves,
            per_leaf,
            uplink,
            spine,
            SimDuration::from_nanos(40),
        )
    }

    #[test]
    fn routes_pay_for_every_switch_they_cross() {
        // 2 racks × 2 leaves × 2 nodes: 8 node, 4 leaf and 2 spine pairs.
        let mut f = dc(2, 2, 2, 4.0, 2.0);
        assert_eq!(f.node_count(), 8);
        let mut ledger = Vec::new();
        f.ledger(&mut ledger);
        assert_eq!(ledger.len(), 2 + 2 * (16 + 8 + 4));
        let lat = |f: &mut Fabric, h: u32| f.read(t(0), NodeId(0), NodeId(h), 64).latency;
        assert_eq!(lat(&mut f, 1).as_nanos(), 261, "same leaf: one switch");
        assert_eq!(lat(&mut f, 2).as_nanos(), 261 + 2 * 40, "cross-leaf: three");
        assert_eq!(lat(&mut f, 4).as_nanos(), 261 + 4 * 40, "cross-rack: five");
        // The cross-rack payload crossed both racks' spine uplinks once.
        let spine: u64 = (24..28).map(|w| f.link(LinkId(w)).bytes_sent()).sum();
        assert_eq!(spine, 2 * 64);
    }

    #[test]
    fn oversubscribed_uplinks_throttle_traffic_leaving_a_leaf_or_rack() {
        // Every node of leaf (or rack) 0 reads from its counterpart in
        // leaf (or rack) 1, four streams sharing each uplink.
        let run = |racks: u32, leaves: u32, uplink: f64, spine: f64| {
            let mut f = dc(racks, leaves, 4, uplink, spine);
            let mut done = t(0);
            for round in 0..50 {
                for n in 0..4 {
                    let c = f.read(t(round), NodeId(n), NodeId(4 + n), 500_000);
                    done = done.max(c.complete);
                }
            }
            done.as_nanos()
        };
        assert!(run(1, 2, 1.0, 1.0) > run(1, 2, 4.0, 1.0) * 3, "leaf uplink");
        assert!(
            run(2, 1, 4.0, 1.0) > run(2, 1, 4.0, 8.0) * 3,
            "spine uplink"
        );
    }

    #[test]
    fn same_leaf_traffic_ignores_busy_uplinks() {
        let mut f = dc(2, 1, 4, 1.0, 1.0);
        for i in 0..50 {
            f.read(t(i), NodeId(0), NodeId(4), 2_000_000);
        }
        let c = f.read(t(0), NodeId(5), NodeId(6), 64);
        assert_eq!(c.latency.as_nanos(), 261, "unloaded same-leaf latency");
    }

    #[test]
    fn estimate_matches_an_idle_cross_rack_read_exactly() {
        // Node-class uplinks: the estimate crosses every wire at node speed.
        let mut f = dc(2, 2, 2, 1.0, 1.0);
        let est = f.estimate_read_completion(t(0), NodeId(0), NodeId(7), 4096);
        let c = f.try_read(t(0), NodeId(0), NodeId(7), 4096).unwrap();
        assert_eq!(est, Some(c.complete));
        // Nothing queues: the request flit crosses the route's two end
        // wires and the payload all six, each once at node speed.
        let bw = LinkProfile::link1().bandwidth;
        let wires = bw.time_to_transfer(REQUEST_FLIT_BYTES) * 2 + bw.time_to_transfer(4096) * 6;
        assert_eq!(c.complete, t(0) + c.latency + wires);
    }

    #[test]
    fn hedged_race_cancels_the_loser_where_the_routes_merge() {
        // Both sources sit in rack 1 on different leaves: the legs merge
        // at rack 1's spine uplink, which only the winner crosses.
        let mut f = dc(2, 2, 2, 4.0, 2.0);
        let r = f
            .try_read_hedged(t(0), NodeId(0), NodeId(4), NodeId(6), 4096, Band::Normal)
            .unwrap();
        assert!(r.primary_won);
        let sent = |f: &Fabric, w: usize| f.link(LinkId(w)).bytes_sent();
        // Each holder's up wire and leaf uplink carried its own payload.
        assert_eq!(sent(&f, 8), 4096);
        assert_eq!(sent(&f, 12), 4096);
        assert_eq!(sent(&f, 16 + 2 * 2), 4096, "primary's leaf uplink");
        assert_eq!(sent(&f, 16 + 2 * 3), 4096, "hedge's leaf uplink");
        // One payload past the merge: rack 1 up, rack 0 down, leaf 0
        // down, node 0 down.
        assert_eq!(sent(&f, 24 + 2), 4096);
        assert_eq!(sent(&f, 24 + 1), 4096);
        assert_eq!(sent(&f, 16 + 1), 4096);
        assert_eq!(sent(&f, 1), 4096);
    }

    #[test]
    fn unknown_nodes_are_contract_errors_that_charge_nothing() {
        for f in [
            &mut Fabric::new(LinkProfile::link1(), 4),
            &mut dc(2, 1, 2, 4.0, 2.0),
        ] {
            let before = |f: &Fabric| {
                let (mut ledger, mut layout) = (Vec::new(), Vec::new());
                f.ledger(&mut ledger);
                f.layout(t(0), &mut layout);
                (ledger, layout)
            };
            let start = before(f);
            let n = f.node_count();
            for bad in [NodeId(n), NodeId(n + 5)] {
                let ok = NodeId(1);
                for (a, b) in [(ok, bad), (bad, ok)] {
                    let contract =
                        |r: Result<(), FabricError>| matches!(r, Err(FabricError::Contract(_)));
                    assert!(contract(f.try_read(t(0), a, b, 64).map(|_| ())));
                    assert!(contract(f.try_write(t(0), a, b, 64).map(|_| ())));
                    assert!(contract(
                        f.transfer_batch_banded(t(0), a, b, MemOp::Read, &[64], 1, Band::Normal)
                            .map(|_| ())
                    ));
                    assert!(contract(f.probe(t(0), a, b).map(|_| ())));
                    assert!(contract(
                        f.try_read_hedged(t(0), NodeId(0), a, b, 64, Band::Normal)
                            .map(|_| ())
                    ));
                    assert_eq!(f.estimate_read_completion(t(0), a, b, 64), None);
                }
                assert!(f.is_port_down(bad));
                f.set_port_down(bad, false);
                f.degrade_node(bad, 2.0);
                f.restore_node(bad);
                f.provision_uplink(bad, 4.0);
            }
            assert_eq!(before(f), start);
            assert_eq!(
                (f.read_count(), f.write_count(), f.probe_count()),
                (0, 0, 0)
            );
        }
    }

    #[test]
    fn degenerate_shapes_are_clamped() {
        let f = Fabric::datacenter(
            LinkProfile::link1(),
            0,
            0,
            0,
            -1.0,
            f64::NAN,
            SimDuration::ZERO,
        );
        assert_eq!(f.node_count(), 1);
        assert_eq!(Fabric::new(LinkProfile::link1(), 0).node_count(), 1);
        // Two racks of one node each: the multipliers fell back to 1.0.
        let f = Fabric::datacenter(LinkProfile::link1(), 2, 0, 0, 0.0, -2.0, SimDuration::ZERO);
        let bw = |w: usize| f.link(LinkId(w)).profile().bandwidth;
        assert_eq!(bw(4), bw(0), "leaf uplink");
        assert_eq!(bw(8), bw(0), "spine uplink");
    }

    #[test]
    fn disjoint_pairs_do_not_queue_on_each_other() {
        let mut f = Fabric::new(LinkProfile::link0(), 4);
        let a = f.read(t(0), NodeId(0), NodeId(1), 1_000_000);
        let b = f.read(t(0), NodeId(2), NodeId(3), 1_000_000);
        let idle = Fabric::new(LinkProfile::link0(), 4).read(t(0), NodeId(0), NodeId(1), 1_000_000);
        assert_eq!(a.complete, idle.complete);
        assert_eq!(b.complete, idle.complete);
    }
}
