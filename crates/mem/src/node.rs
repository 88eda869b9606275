//! A node's complete memory system.
//!
//! [`MemoryNode`] combines the frame split, DRAM timing, optional
//! materialized contents, and hotness telemetry. It models both a server's
//! local memory (private + shared regions) and — with an all-shared split —
//! a CXL Type-3 fabric-attached memory appliance
//! ([`MemoryNode::fam_device`]), so the logical and physical architectures
//! are built from the same substrate and differ only in configuration,
//! exactly the comparison the paper makes.

use crate::dram::{DramChannel, DramCompletion, DramProfile};
use crate::frame::{FrameId, FRAME_BYTES};
use crate::hotness::{AccessorId, HotnessMap};
use crate::region::{RegionError, RegionKind, RegionSplit};
use crate::store::FrameStore;
use lmp_sim::prelude::*;

/// A server's (or memory appliance's) memory system.
#[derive(Debug)]
pub struct MemoryNode {
    name: String,
    split: RegionSplit,
    dram: DramChannel,
    store: FrameStore,
    hotness: HotnessMap,
    local_accesses: Counter,
    remote_accesses: Counter,
    failed: bool,
}

impl MemoryNode {
    /// A node with `capacity_bytes` of DRAM, `shared_bytes` of which may be
    /// lent to the pool. Byte sizes round down to whole 2 MiB frames.
    ///
    /// # Panics
    /// Panics if the shared budget exceeds capacity.
    pub fn new(
        name: impl Into<String>,
        capacity_bytes: u64,
        shared_bytes: u64,
        profile: DramProfile,
    ) -> Self {
        let total = capacity_bytes / FRAME_BYTES;
        let shared = shared_bytes / FRAME_BYTES;
        MemoryNode {
            name: name.into(),
            split: RegionSplit::new(total, shared),
            dram: DramChannel::new(profile),
            store: FrameStore::new(),
            hotness: HotnessMap::new(),
            local_accesses: Counter::new(),
            remote_accesses: Counter::new(),
            failed: false,
        }
    }

    /// A CXL Type-3 FAM appliance: every frame is shared (pooled), none
    /// private — there is no local OS or process state in the box.
    pub fn fam_device(name: impl Into<String>, capacity_bytes: u64, profile: DramProfile) -> Self {
        Self::new(name, capacity_bytes, capacity_bytes, profile)
    }

    /// Node name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The region split (budgets, usage, resize).
    pub fn split(&self) -> &RegionSplit {
        &self.split
    }

    /// Mutable region split, for resizing policies.
    pub fn split_mut(&mut self) -> &mut RegionSplit {
        &mut self.split
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.split.total() * FRAME_BYTES
    }

    /// Shared-region budget in bytes.
    pub fn shared_bytes(&self) -> u64 {
        self.split.shared_budget() * FRAME_BYTES
    }

    /// Allocate the `n` lowest free frames in `kind`; all-or-nothing.
    pub fn alloc_many(&mut self, kind: RegionKind, n: u64) -> Result<Vec<FrameId>, RegionError> {
        self.ensure_alive();
        self.split.alloc_many(kind, n)
    }

    /// Free every frame of `frames` and forget its contents and hotness.
    /// All-or-nothing: when any frame is not allocated, or is listed
    /// twice, nothing is freed. The contents are only looked up while
    /// some frame is materialized.
    #[inline]
    pub fn free_many(&mut self, frames: &[FrameId]) -> Result<(), RegionError> {
        self.split.free_many(frames)?;
        if self.store.materialized() > 0 {
            for &f in frames {
                self.store.discard(f);
            }
        }
        for &f in frames {
            self.hotness.forget(f);
        }
        Ok(())
    }

    /// Time an access of `bytes` against this node's DRAM, attributing it to
    /// `accessor` (equal to this node's id for local accesses). `frame`
    /// feeds hotness tracking when known.
    pub fn access(
        &mut self,
        now: SimTime,
        bytes: u64,
        accessor: AccessorId,
        local: bool,
        frame: Option<FrameId>,
    ) -> DramCompletion {
        match frame {
            Some(f) => self.access_run(now, bytes, accessor, local, &[f]),
            None => self.access_run(now, bytes, accessor, local, &[]),
        }
    }

    /// Vectored access: time a coalesced run of `bytes` against this node's
    /// DRAM as a single channel occupancy. `frames` lists the frame of every
    /// pre-coalescing chunk the run covers (in order, duplicates allowed);
    /// each gets one hotness sample, so hotness accounting is identical to
    /// issuing the chunks through [`MemoryNode::access`] one by one. A run
    /// over one frame *is* a single access.
    pub fn access_run(
        &mut self,
        now: SimTime,
        bytes: u64,
        accessor: AccessorId,
        local: bool,
        frames: &[FrameId],
    ) -> DramCompletion {
        self.ensure_alive();
        if local {
            self.local_accesses.inc();
        } else {
            self.remote_accesses.inc();
        }
        for f in frames {
            self.hotness.record(*f, accessor, 1);
        }
        self.dram.access(now, bytes)
    }

    /// Count `local` and `remote` more DRAM runs whose timing and hotness
    /// were charged elsewhere (a repeated access pattern).
    pub fn add_runs(&mut self, local: u64, remote: u64) {
        self.local_accesses.add(local);
        self.remote_accesses.add(remote);
    }

    /// Materialized-byte write into an allocated frame.
    ///
    /// # Panics
    /// Panics on unallocated frames (use `alloc` first) or crashed nodes.
    pub fn write_bytes(&mut self, frame: FrameId, offset: u64, data: &[u8]) {
        self.ensure_alive();
        // lmp-lint: allow(no-panic) — hardware-model contract, documented
        // under `# Panics`: the pool's maps gate every byte access on
        // allocation state, so an unallocated frame here is a pool bug.
        assert!(
            self.split.kind_of(frame).is_some(),
            "write to unallocated frame {frame:?} on {}",
            self.name
        );
        self.store.write(frame, offset, data);
    }

    /// Borrow the written prefix of `frame`, or `None` while it is
    /// unmaterialized and reads as zeros. The prefix may be shorter than
    /// `FRAME_BYTES`: it ends on a 4 KiB page boundary, and every byte past
    /// it reads as zero. Upper layers gate on allocation and on
    /// [`Self::is_failed`] first.
    pub fn frame_bytes(&self, frame: FrameId) -> Option<&[u8]> {
        self.store.get(frame)
    }

    /// Move `frame`'s contents to `dst_frame` on `dst` without copying
    /// them (migration). `frame` is left unmaterialized; an unmaterialized
    /// `frame` leaves `dst_frame` unmaterialized too.
    pub fn move_frame(&mut self, frame: FrameId, dst: &mut MemoryNode, dst_frame: FrameId) {
        self.ensure_alive();
        dst.ensure_alive();
        self.store.move_frame(frame, &mut dst.store, dst_frame);
    }

    /// Number of frames whose contents are materialized.
    pub fn materialized_frames(&self) -> usize {
        self.store.materialized()
    }

    /// Hotness telemetry.
    pub fn hotness(&self) -> &HotnessMap {
        &self.hotness
    }

    /// Mutable hotness telemetry (epoch ticks).
    pub fn hotness_mut(&mut self) -> &mut HotnessMap {
        &mut self.hotness
    }

    /// DRAM channel telemetry.
    pub fn dram(&self) -> &DramChannel {
        &self.dram
    }

    /// Mutable DRAM channel (utilization queries need `&mut`).
    pub fn dram_mut(&mut self) -> &mut DramChannel {
        &mut self.dram
    }

    /// Accesses issued by this node's own processors.
    pub fn local_access_count(&self) -> u64 {
        self.local_accesses.get()
    }

    /// Accesses served on behalf of remote nodes.
    pub fn remote_access_count(&self) -> u64 {
        self.remote_accesses.get()
    }

    /// Crash the node: its memory (and pool contribution) disappears.
    pub fn crash(&mut self) {
        self.failed = true;
    }

    /// Whether the node has crashed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Warm-revive a crashed node: clear the failed flag, keeping memory
    /// contents intact. Valid because [`Self::crash`] only marks the node
    /// down — the model of a power/ToR loss where DRAM survives (battery
    /// backed or the outage never reached the hosts). A rejoin whose
    /// resurrection claim is *rejected* must use [`Self::restart`] instead.
    pub fn revive(&mut self) {
        self.failed = false;
    }

    /// Restart a crashed node with empty memory (all frames free).
    pub fn restart(&mut self) {
        let total = self.split.total();
        let shared = self.split.shared_budget();
        self.split = RegionSplit::new(total, shared);
        self.store = FrameStore::new();
        self.hotness = HotnessMap::new();
        self.failed = false;
    }

    fn ensure_alive(&self) {
        // lmp-lint: allow(no-panic) — hardware-model contract: a crashed
        // node's memory is physically gone; upper layers check
        // `is_failed()` before every access, so reaching this is a bug.
        assert!(!self.failed, "operation on crashed node {}", self.name);
    }

    /// Export this node's state into a telemetry registry, labelling every
    /// instrument with `server`. Fill a fresh registry per export — values
    /// are published absolutely, and per-node registries merge to rack
    /// level in the snapshot layer.
    pub fn export_into(
        &mut self,
        now: SimTime,
        server: &str,
        reg: &mut lmp_telemetry::MetricRegistry,
    ) {
        let labels = [("server", server)];
        reg.fill_counter("mem.accesses.local", &labels, self.local_accesses);
        reg.fill_counter("mem.accesses.remote", &labels, self.remote_accesses);
        reg.fill_counter_value("mem.dram.bytes", &labels, self.dram.bytes_accessed());
        reg.fill_counter_value("mem.dram.accesses", &labels, self.dram.access_count());
        reg.merge_histogram("mem.dram.latency", &labels, self.dram.latency_histogram());
        reg.set_gauge_value("mem.dram.utilization", &labels, self.dram.utilization(now));
        reg.set_gauge_value(
            "mem.frames.shared_used",
            &labels,
            self.split.shared_used() as f64,
        );
        reg.set_gauge_value(
            "mem.frames.shared_free",
            &labels,
            self.split.available(RegionKind::Shared) as f64,
        );
        reg.set_gauge_value(
            "mem.frames.private_used",
            &labels,
            self.split.private_used() as f64,
        );
        reg.set_gauge_value(
            "mem.hotness.live_pairs",
            &labels,
            self.hotness.live_pairs() as f64,
        );
        reg.set_gauge_value(
            "mem.failed",
            &labels,
            if self.failed { 1.0 } else { 0.0 },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_sim::units::GIB;

    fn node() -> MemoryNode {
        MemoryNode::new("s0", GIB, GIB / 2, DramProfile::xeon_gold_5120())
    }

    #[test]
    fn capacity_accounting() {
        let n = node();
        assert_eq!(n.capacity_bytes(), GIB);
        assert_eq!(n.shared_bytes(), GIB / 2);
    }

    #[test]
    fn fam_device_is_all_shared() {
        let d = MemoryNode::fam_device("pool", GIB, DramProfile::xeon_gold_5120());
        assert_eq!(d.split().shared_budget(), d.split().total());
        assert_eq!(d.split().private_budget(), 0);
    }

    #[test]
    fn alloc_access_free_cycle() {
        let mut n = node();
        let f = n.alloc_many(RegionKind::Shared, 1).unwrap()[0];
        let c = n.access(SimTime::ZERO, 64, 0, true, Some(f));
        assert_eq!(c.latency.as_nanos(), 82);
        assert_eq!(n.local_access_count(), 1);
        assert_eq!(n.hotness().total(f), 1);
        n.free_many(&[f]).unwrap();
        assert_eq!(n.hotness().total(f), 0);
    }

    #[test]
    fn access_run_coalesces_occupancy_and_samples_each_frame() {
        let mut n = node();
        let fs = n.alloc_many(RegionKind::Shared, 2).unwrap();
        let (f1, f2) = (fs[0], fs[1]);
        let run = n.access_run(SimTime::ZERO, 128, 3, false, &[f1, f2]);
        // One access on the channel, one remote bump, hotness on both frames.
        assert_eq!(n.remote_access_count(), 1);
        assert_eq!(n.dram().access_count(), 1);
        assert_eq!(n.hotness().total(f1), 1);
        assert_eq!(n.hotness().total(f2), 1);
        // Occupancy equals the same bytes issued as one plain access.
        let mut m = node();
        let g = m.alloc_many(RegionKind::Shared, 1).unwrap()[0];
        let single = m.access(SimTime::ZERO, 128, 3, false, Some(g));
        assert_eq!(run.complete, single.complete);
    }

    #[test]
    fn local_vs_remote_counters() {
        let mut n = node();
        n.access(SimTime::ZERO, 64, 0, true, None);
        n.access(SimTime::ZERO, 64, 1, false, None);
        n.access(SimTime::ZERO, 64, 2, false, None);
        assert_eq!(n.local_access_count(), 1);
        assert_eq!(n.remote_access_count(), 2);
    }

    #[test]
    fn bytes_survive_until_free() {
        let mut n = node();
        let f = n.alloc_many(RegionKind::Private, 1).unwrap()[0];
        n.write_bytes(f, 0, b"data");
        assert_eq!(&n.frame_bytes(f).unwrap()[..4], b"data");
        n.free_many(&[f]).unwrap();
        let f2 = n.alloc_many(RegionKind::Private, 1).unwrap()[0];
        assert_eq!(f2, f, "lowest-first reuse");
        assert_eq!(n.frame_bytes(f2), None, "no stale data leak");
    }

    #[test]
    fn free_many_refused_keeps_contents_and_hotness() {
        let mut n = node();
        let fs = n.alloc_many(RegionKind::Shared, 3).unwrap();
        n.write_bytes(fs[1], 0, b"kept");
        n.access(SimTime::ZERO, 64, 2, false, Some(fs[2]));
        // A duplicate refuses the whole list: nothing freed or forgotten.
        assert!(n.free_many(&[fs[0], fs[1], fs[1]]).is_err());
        assert_eq!(n.split().shared_used(), 3);
        assert_eq!(&n.frame_bytes(fs[1]).unwrap()[..4], b"kept");
        n.free_many(&fs).unwrap();
        assert_eq!(n.split().shared_used(), 0);
        assert_eq!(n.materialized_frames(), 0);
        assert_eq!(n.hotness().total(fs[2]), 0);
    }

    #[test]
    #[should_panic(expected = "unallocated frame")]
    fn write_to_unallocated_panics() {
        let mut n = node();
        n.write_bytes(FrameId(0), 0, b"x");
    }

    #[test]
    fn crash_blocks_operations_and_restart_clears() {
        let mut n = node();
        let f = n.alloc_many(RegionKind::Shared, 1).unwrap()[0];
        n.write_bytes(f, 0, b"precious");
        n.crash();
        assert!(n.is_failed());
        n.restart();
        assert!(!n.is_failed());
        // All frames free again; data gone.
        assert_eq!(n.split().shared_used(), 0);
        let f2 = n.alloc_many(RegionKind::Shared, 1).unwrap()[0];
        assert_eq!(n.frame_bytes(f2), None);
        assert_eq!(n.materialized_frames(), 0);
    }

    #[test]
    #[should_panic(expected = "crashed node")]
    fn access_on_crashed_node_panics() {
        let mut n = node();
        n.crash();
        n.access(SimTime::ZERO, 64, 0, true, None);
    }
}
