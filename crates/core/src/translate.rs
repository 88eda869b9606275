//! Two-level address translation (§5 "Address translation").
//!
//! The paper rejects a single global directory ("all servers need access to
//! the directory when translating addresses, and this would incur slow
//! remote accesses") in favour of two steps:
//!
//! 1. **Coarse map, globally replicated**: segment → server. Small (one
//!    entry per buffer), changes only on migration, so every server keeps a
//!    copy plus a per-core translation cache.
//! 2. **Fine map, local to the holder**: (segment, frame index) → frame.
//!    Only consulted on the server that owns the memory, where it is a
//!    local lookup.
//!
//! Migration bumps the segment's **epoch**; stale cached translations are
//! detected at the target server (its fine map no longer has the segment)
//! and re-resolved — this is what makes migration pointer-safe.
//!
//! **Layout.** Segment ids come from the pool's counter and are never
//! reused, so every table here is indexed by segment id instead of ordered
//! by it. [`GlobalMap`] keeps one row per segment (holder, epoch, length),
//! [`LocalMap`] one slot per segment (its frames on this server), and
//! [`TranslationCache`] one slot per segment pointing at its resident entry.
//! A table grows to the highest id inserted into it and is never presized,
//! so its length is bounded by the number of segments the pool ever
//! allocated. Reading an id the table never saw returns `None`.

use crate::addr::SegmentId;
use lmp_fabric::NodeId;
use lmp_mem::FrameId;
use lmp_sim::prelude::*;

/// Where a segment currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLoc {
    /// Holding server.
    pub server: NodeId,
    /// Bumped on every migration; stale translations carry an old epoch.
    pub epoch: u64,
}

/// Slot `seg` of a table indexed by segment id, growing the table with
/// empty slots up to it.
fn slot_mut<T: Default>(table: &mut Vec<T>, seg: SegmentId) -> &mut T {
    let i = seg.0 as usize;
    if i >= table.len() {
        table.resize_with(i.saturating_add(1), T::default);
    }
    &mut table[i]
}

/// One segment's row in the coarse map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegmentRow {
    /// Holder and epoch.
    pub(crate) loc: SegmentLoc,
    /// Length in bytes, fixed at allocation.
    pub(crate) len: u64,
}

/// The coarse, globally replicated map: segment → server.
///
/// One row per segment id, empty once the segment is freed or lost. The
/// table grows to the highest id inserted, so it is as long as the number
/// of segments the pool ever allocated.
#[derive(Debug, Default)]
pub struct GlobalMap {
    rows: Vec<Option<SegmentRow>>,
    /// Rows that are not empty.
    live: usize,
    lookups: Counter,
}

impl GlobalMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row of `seg`, if it is mapped.
    pub(crate) fn row(&self, seg: SegmentId) -> Option<SegmentRow> {
        self.rows.get(seg.0 as usize).copied().flatten()
    }

    /// Current location of a segment.
    pub fn lookup(&mut self, seg: SegmentId) -> Option<SegmentLoc> {
        self.lookups.inc();
        self.peek(seg)
    }

    /// Peek without counting (for assertions/telemetry).
    pub fn peek(&self, seg: SegmentId) -> Option<SegmentLoc> {
        self.row(seg).map(|r| r.loc)
    }

    /// Install a new segment of `len` bytes at `server`.
    pub fn insert(&mut self, seg: SegmentId, server: NodeId, len: u64) {
        let row = slot_mut(&mut self.rows, seg);
        if row.is_none() {
            self.live = self.live.saturating_add(1);
        }
        *row = Some(SegmentRow {
            loc: SegmentLoc { server, epoch: 0 },
            len,
        });
    }

    /// Move a segment to `server`, bumping its epoch. Returns the new
    /// location, or `None` when the segment is not mapped.
    pub fn relocate(&mut self, seg: SegmentId, server: NodeId) -> Option<SegmentLoc> {
        let row = self.rows.get_mut(seg.0 as usize)?.as_mut()?;
        row.loc = SegmentLoc {
            server,
            epoch: row.loc.epoch.saturating_add(1),
        };
        Some(row.loc)
    }

    /// Remove a segment (freed or lost).
    pub fn remove(&mut self, seg: SegmentId) -> Option<SegmentLoc> {
        let row = self.rows.get_mut(seg.0 as usize)?.take()?;
        self.live = self.live.saturating_sub(1);
        Some(row.loc)
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Segments currently mapped to `server` (for crash handling), in id
    /// order.
    pub fn segments_on(&self, server: NodeId) -> Vec<SegmentId> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.is_some_and(|r| r.loc.server == server))
            .map(|(i, _)| SegmentId(i as u64))
            .collect()
    }

    /// Total lookups served (each one is a shared-structure access the
    /// translation cache exists to avoid).
    pub fn lookup_count(&self) -> u64 {
        self.lookups.get()
    }

    /// Count `n` more lookups served for a repeated access pattern.
    pub(crate) fn add_lookups(&mut self, n: u64) {
        self.lookups.add(n);
    }
}

/// The fine, per-server map: segment → its frames on this server.
///
/// One slot per segment id, empty while this server holds none of the
/// segment's frames. The table grows to the highest id inserted.
#[derive(Debug, Default)]
pub struct LocalMap {
    frames: Vec<Option<Vec<FrameId>>>,
    /// Slots that are not empty.
    held: usize,
}

impl LocalMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a segment's frames.
    pub fn insert(&mut self, seg: SegmentId, frames: Vec<FrameId>) {
        if slot_mut(&mut self.frames, seg).replace(frames).is_none() {
            self.held = self.held.saturating_add(1);
        }
    }

    /// The frames of `seg`, if this server holds it.
    fn slot(&self, seg: SegmentId) -> Option<&[FrameId]> {
        self.frames.get(seg.0 as usize)?.as_deref()
    }

    /// The frame backing `frame_index` of `seg`, if this server holds it.
    pub fn resolve(&self, seg: SegmentId, frame_index: u64) -> Option<FrameId> {
        self.slot(seg)?.get(frame_index as usize).copied()
    }

    /// Whether this server holds `seg`.
    pub fn holds(&self, seg: SegmentId) -> bool {
        self.slot(seg).is_some()
    }

    /// All frames of `seg` (empty if absent).
    pub fn frames_of(&self, seg: SegmentId) -> &[FrameId] {
        self.slot(seg).unwrap_or(&[])
    }

    /// Remove a segment, returning its frames for freeing.
    pub fn remove(&mut self, seg: SegmentId) -> Option<Vec<FrameId>> {
        let frames = self.frames.get_mut(seg.0 as usize)?.take()?;
        self.held = self.held.saturating_sub(1);
        Some(frames)
    }

    /// Number of segments held.
    pub fn len(&self) -> usize {
        self.held
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }
}

/// One resident translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    seg: SegmentId,
    loc: SegmentLoc,
    /// LRU clock value of the entry's last lookup or refill.
    stamp: u64,
}

/// A per-server translation cache (TLB analogue) over the coarse map.
///
/// Entries may go stale after migration; consumers detect staleness when
/// the target server's fine map misses, then call
/// [`TranslationCache::refill`]. LRU eviction, deterministic tie-break.
///
/// The resident entries, at most `capacity`, sit in a vector; a slot per
/// segment id points at its entry. The slot table grows to the highest id
/// refilled.
#[derive(Debug)]
pub struct TranslationCache {
    capacity: usize,
    /// Resident entries, in no particular order.
    entries: Vec<Entry>,
    /// Indexed by segment id: the position of its entry in `entries`.
    slots: Vec<Option<usize>>,
    clock: u64,
    hits: Counter,
    misses: Counter,
    stale: Counter,
}

impl TranslationCache {
    /// A cache holding up to `capacity` segment translations.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        // lmp-lint: allow(no-panic) — documented `# Panics` ctor precondition;
        // zero capacity is a configuration bug.
        assert!(capacity > 0, "translation cache needs capacity");
        TranslationCache {
            capacity,
            entries: Vec::new(),
            slots: Vec::new(),
            clock: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            stale: Counter::new(),
        }
    }

    /// Advance the LRU clock, returning the new stamp.
    fn next_stamp(&mut self) -> u64 {
        self.clock = self.clock.saturating_add(1);
        self.clock
    }

    /// The position of `seg`'s entry, if resident.
    fn position(&self, seg: SegmentId) -> Option<usize> {
        self.slots.get(seg.0 as usize).copied().flatten()
    }

    /// Cached location of `seg`, if present (possibly stale).
    pub fn lookup(&mut self, seg: SegmentId) -> Option<SegmentLoc> {
        let stamp = self.next_stamp();
        match self.position(seg).and_then(|i| self.entries.get_mut(i)) {
            Some(e) => {
                e.stamp = stamp;
                self.hits.inc();
                Some(e.loc)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Install/update a translation (after a global-map lookup). At
    /// capacity, a new segment evicts the least recently used entry, the
    /// lower segment id on a tie.
    pub fn refill(&mut self, seg: SegmentId, loc: SegmentLoc) {
        let entry = Entry {
            seg,
            loc,
            stamp: self.next_stamp(),
        };
        if let Some(e) = self.position(seg).and_then(|i| self.entries.get_mut(i)) {
            *e = entry;
            return;
        }
        if self.entries.len() >= self.capacity {
            let victim = self.entries.iter().min_by_key(|e| (e.stamp, e.seg.0));
            if let Some(victim) = victim.map(|e| e.seg) {
                self.invalidate(victim);
            }
        }
        *slot_mut(&mut self.slots, seg) = Some(self.entries.len());
        self.entries.push(entry);
    }

    /// The cached location of `seg`, if present, without counting a
    /// lookup or touching its LRU stamp.
    pub fn peek(&self, seg: SegmentId) -> Option<SegmentLoc> {
        self.position(seg)
            .and_then(|i| self.entries.get(i))
            .map(|e| e.loc)
    }

    /// Repeat the lookups `segs`, in order, `rounds` times, each one a
    /// hit: the clock, stamps and hit count `rounds × segs.len()` calls
    /// to [`TranslationCache::lookup`] leave. Returns `false`, changing
    /// nothing, when some segment is not cached (its lookup would miss).
    pub fn repeat_hits(&mut self, segs: &[SegmentId], rounds: u64) -> bool {
        if segs.iter().any(|&s| self.position(s).is_none()) {
            return false;
        }
        let n = segs.len() as u64;
        if rounds == 0 || n == 0 {
            return true;
        }
        // The last round's lookups stamp last; a later lookup of the same
        // segment overwrites an earlier one's stamp.
        let mut stamp = self
            .clock
            .saturating_add(rounds.saturating_sub(1).saturating_mul(n));
        for &seg in segs {
            stamp = stamp.saturating_add(1);
            if let Some(e) = self.position(seg).and_then(|i| self.entries.get_mut(i)) {
                e.stamp = stamp;
            }
        }
        self.clock = self.clock.saturating_add(rounds.saturating_mul(n));
        self.hits.add(rounds.saturating_mul(n));
        true
    }

    /// Record that a cached translation turned out stale (migration raced).
    pub fn note_stale(&mut self, seg: SegmentId) {
        self.stale.inc();
        self.invalidate(seg);
    }

    /// Drop a translation (segment freed).
    pub fn invalidate(&mut self, seg: SegmentId) {
        let Some(i) = self.slots.get_mut(seg.0 as usize).and_then(Option::take) else {
            return;
        };
        self.entries.swap_remove(i);
        if let Some(moved) = self.entries.get(i) {
            *slot_mut(&mut self.slots, moved.seg) = Some(i);
        }
    }

    /// Cache hits.
    pub fn hit_count(&self) -> u64 {
        self.hits.get()
    }
    /// Cache misses.
    pub fn miss_count(&self) -> u64 {
        self.misses.get()
    }
    /// Stale-entry faults.
    pub fn stale_count(&self) -> u64 {
        self.stale.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn global_map_lifecycle() {
        let mut g = GlobalMap::new();
        g.insert(SegmentId(1), NodeId(0), 64);
        assert_eq!(
            g.lookup(SegmentId(1)),
            Some(SegmentLoc {
                server: NodeId(0),
                epoch: 0
            })
        );
        assert_eq!(g.row(SegmentId(1)).map(|r| r.len), Some(64));
        let loc = g.relocate(SegmentId(1), NodeId(2)).unwrap();
        assert_eq!(loc.server, NodeId(2));
        assert_eq!(loc.epoch, 1);
        g.remove(SegmentId(1));
        assert_eq!(g.lookup(SegmentId(1)), None);
        assert_eq!(g.lookup_count(), 2);
        assert_eq!(g.relocate(SegmentId(1), NodeId(0)), None);
        assert_eq!(g.relocate(SegmentId(99), NodeId(0)), None);
    }

    #[test]
    fn segments_on_filters_by_server() {
        let mut g = GlobalMap::new();
        g.insert(SegmentId(1), NodeId(0), 1);
        g.insert(SegmentId(2), NodeId(1), 1);
        g.insert(SegmentId(3), NodeId(0), 1);
        assert_eq!(g.segments_on(NodeId(0)), vec![SegmentId(1), SegmentId(3)]);
    }

    #[test]
    fn local_map_resolution() {
        let mut l = LocalMap::new();
        l.insert(SegmentId(5), vec![FrameId(10), FrameId(11)]);
        assert_eq!(l.resolve(SegmentId(5), 0), Some(FrameId(10)));
        assert_eq!(l.resolve(SegmentId(5), 1), Some(FrameId(11)));
        assert_eq!(l.resolve(SegmentId(5), 2), None);
        assert_eq!(l.resolve(SegmentId(6), 0), None);
        assert!(l.holds(SegmentId(5)));
        assert_eq!(l.remove(SegmentId(5)), Some(vec![FrameId(10), FrameId(11)]));
        assert!(!l.holds(SegmentId(5)));
    }

    #[test]
    fn tlb_hit_miss_accounting() {
        let mut t = TranslationCache::new(2);
        assert_eq!(t.lookup(SegmentId(1)), None);
        t.refill(
            SegmentId(1),
            SegmentLoc {
                server: NodeId(3),
                epoch: 0,
            },
        );
        assert!(t.lookup(SegmentId(1)).is_some());
        assert_eq!(t.hit_count(), 1);
        assert_eq!(t.miss_count(), 1);
    }

    #[test]
    fn tlb_evicts_lru() {
        let mut t = TranslationCache::new(2);
        let loc = |n| SegmentLoc {
            server: NodeId(n),
            epoch: 0,
        };
        t.refill(SegmentId(1), loc(1));
        t.refill(SegmentId(2), loc(2));
        t.lookup(SegmentId(1)); // refresh 1; 2 becomes LRU
        t.refill(SegmentId(3), loc(3));
        assert!(t.lookup(SegmentId(2)).is_none());
        assert!(t.lookup(SegmentId(1)).is_some());
        assert!(t.lookup(SegmentId(3)).is_some());
    }

    #[test]
    fn stale_entries_are_dropped() {
        let mut t = TranslationCache::new(4);
        t.refill(
            SegmentId(1),
            SegmentLoc {
                server: NodeId(0),
                epoch: 0,
            },
        );
        t.note_stale(SegmentId(1));
        assert_eq!(t.stale_count(), 1);
        assert!(t.lookup(SegmentId(1)).is_none());
    }

    // ---- the ordered-tree versions, kept as models for the tables ----

    /// The coarse map as an ordered tree of (location, length).
    #[derive(Default)]
    struct TreeGlobal {
        entries: BTreeMap<SegmentId, (SegmentLoc, u64)>,
        lookups: u64,
    }

    impl TreeGlobal {
        fn relocate(&mut self, seg: SegmentId, server: NodeId) -> Option<SegmentLoc> {
            let (loc, _) = self.entries.get_mut(&seg)?;
            loc.server = server;
            loc.epoch += 1;
            Some(*loc)
        }

        fn segments_on(&self, server: NodeId) -> Vec<SegmentId> {
            let mut v: Vec<SegmentId> = self
                .entries
                .iter()
                .filter(|(_, (loc, _))| loc.server == server)
                .map(|(s, _)| *s)
                .collect();
            v.sort_unstable();
            v
        }
    }

    /// The translation cache as an ordered tree of (location, stamp).
    struct TreeTlb {
        capacity: usize,
        entries: BTreeMap<SegmentId, (SegmentLoc, u64)>,
        clock: u64,
        hits: u64,
        misses: u64,
        stale: u64,
    }

    impl TreeTlb {
        fn new(capacity: usize) -> Self {
            TreeTlb {
                capacity,
                entries: BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                stale: 0,
            }
        }

        fn lookup(&mut self, seg: SegmentId) -> Option<SegmentLoc> {
            self.clock += 1;
            match self.entries.get_mut(&seg) {
                Some((loc, stamp)) => {
                    *stamp = self.clock;
                    self.hits += 1;
                    Some(*loc)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        /// Refill, returning the evicted segment.
        fn refill(&mut self, seg: SegmentId, loc: SegmentLoc) -> Option<SegmentId> {
            self.clock += 1;
            let mut victim = None;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&seg) {
                victim = self
                    .entries
                    .iter()
                    .min_by_key(|(s, (_, stamp))| (*stamp, s.0))
                    .map(|(s, _)| *s);
                if let Some(v) = victim {
                    self.entries.remove(&v);
                }
            }
            self.entries.insert(seg, (loc, self.clock));
            victim
        }

        fn resident(&self) -> Vec<(SegmentId, SegmentLoc, u64)> {
            self.entries
                .iter()
                .map(|(s, (l, t))| (*s, *l, *t))
                .collect()
        }
    }

    fn resident(t: &TranslationCache) -> Vec<(SegmentId, SegmentLoc, u64)> {
        let mut v: Vec<_> = t.entries.iter().map(|e| (e.seg, e.loc, e.stamp)).collect();
        v.sort_unstable_by_key(|(s, _, _)| *s);
        for (i, e) in t.entries.iter().enumerate() {
            assert_eq!(t.position(e.seg), Some(i), "slot table points at its entry");
        }
        v
    }

    /// Segment ids around the tables' growth boundaries, plus far ones.
    const IDS: [u64; 12] = [0, 1, 2, 3, 4, 7, 8, 63, 64, 65, 1_000, 30_000];

    fn seg() -> impl Strategy<Value = SegmentId> {
        (0..IDS.len()).prop_map(|i| SegmentId(IDS[i]))
    }

    fn loc() -> impl Strategy<Value = SegmentLoc> {
        (0u32..4, 0u64..3).prop_map(|(s, epoch)| SegmentLoc {
            server: NodeId(s),
            epoch,
        })
    }

    #[derive(Debug, Clone)]
    enum MapOp {
        Insert(SegmentId, u32, u64),
        Remove(SegmentId),
        Relocate(SegmentId, u32),
        Lookup(SegmentId),
        Frames(SegmentId, Vec<u64>),
        Drop(SegmentId),
    }

    fn map_op() -> impl Strategy<Value = MapOp> {
        prop_oneof![
            (seg(), 0u32..4, 1u64..1 << 30).prop_map(|(s, n, len)| MapOp::Insert(s, n, len)),
            seg().prop_map(MapOp::Remove),
            (seg(), 0u32..4).prop_map(|(s, n)| MapOp::Relocate(s, n)),
            seg().prop_map(MapOp::Lookup),
            (seg(), proptest::collection::vec(0u64..50, 0..4))
                .prop_map(|(s, f)| MapOp::Frames(s, f)),
            seg().prop_map(MapOp::Drop),
        ]
    }

    #[derive(Debug, Clone)]
    enum TlbOp {
        Lookup(SegmentId),
        Refill(SegmentId, SegmentLoc),
        Stale(SegmentId),
        Invalidate(SegmentId),
    }

    fn tlb_op() -> impl Strategy<Value = TlbOp> {
        prop_oneof![
            seg().prop_map(TlbOp::Lookup),
            (seg(), loc()).prop_map(|(s, l)| TlbOp::Refill(s, l)),
            seg().prop_map(TlbOp::Stale),
            seg().prop_map(TlbOp::Invalidate),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The coarse and fine maps answer every query as their
        /// ordered-tree models do.
        #[test]
        fn maps_match_tree_models(ops in proptest::collection::vec(map_op(), 1..60)) {
            let (mut g, mut tg) = (GlobalMap::new(), TreeGlobal::default());
            let (mut l, mut tl) = (LocalMap::new(), BTreeMap::<SegmentId, Vec<FrameId>>::new());
            for op in ops {
                match op {
                    MapOp::Insert(s, n, len) => {
                        g.insert(s, NodeId(n), len);
                        tg.entries.insert(s, (SegmentLoc { server: NodeId(n), epoch: 0 }, len));
                    }
                    MapOp::Remove(s) => {
                        prop_assert_eq!(g.remove(s), tg.entries.remove(&s).map(|(loc, _)| loc));
                    }
                    MapOp::Relocate(s, n) => {
                        prop_assert_eq!(g.relocate(s, NodeId(n)), tg.relocate(s, NodeId(n)));
                    }
                    MapOp::Lookup(s) => {
                        tg.lookups += 1;
                        prop_assert_eq!(g.lookup(s), tg.entries.get(&s).map(|(loc, _)| *loc));
                    }
                    MapOp::Frames(s, f) => {
                        let frames: Vec<FrameId> = f.into_iter().map(FrameId).collect();
                        l.insert(s, frames.clone());
                        tl.insert(s, frames);
                    }
                    MapOp::Drop(s) => prop_assert_eq!(l.remove(s), tl.remove(&s)),
                }
                prop_assert_eq!(g.len(), tg.entries.len());
                prop_assert_eq!(g.is_empty(), tg.entries.is_empty());
                prop_assert_eq!(g.lookup_count(), tg.lookups);
                for n in 0..4 {
                    prop_assert_eq!(g.segments_on(NodeId(n)), tg.segments_on(NodeId(n)));
                }
                prop_assert_eq!(l.len(), tl.len());
                for s in IDS.map(SegmentId).into_iter().chain([SegmentId(u64::MAX)]) {
                    let model = tg.entries.get(&s);
                    prop_assert_eq!(g.peek(s), model.map(|(loc, _)| *loc));
                    prop_assert_eq!(g.row(s).map(|r| r.len), model.map(|(_, len)| *len));
                    let frames = tl.get(&s);
                    prop_assert_eq!(l.holds(s), frames.is_some());
                    prop_assert_eq!(l.frames_of(s), frames.map_or(&[][..], Vec::as_slice));
                    for k in [0, 1, 3, 4, u64::MAX] {
                        prop_assert_eq!(
                            l.resolve(s, k),
                            frames.and_then(|f| f.get(k as usize)).copied()
                        );
                    }
                }
            }
        }

        /// The translation cache evicts the same victims in the same order
        /// and counts the same hits, misses and stale faults as its
        /// ordered-tree model, at every small capacity.
        #[test]
        fn tlb_matches_tree_model(
            capacity in 1usize..=5,
            ops in proptest::collection::vec(tlb_op(), 1..80),
        ) {
            let (mut t, mut m) = (TranslationCache::new(capacity), TreeTlb::new(capacity));
            let (mut victims, mut model_victims) = (Vec::new(), Vec::new());
            for op in ops {
                let before = resident(&t);
                match op {
                    TlbOp::Lookup(s) => prop_assert_eq!(t.lookup(s), m.lookup(s)),
                    TlbOp::Refill(s, l) => {
                        t.refill(s, l);
                        model_victims.extend(m.refill(s, l));
                        let after = resident(&t);
                        victims.extend(
                            before
                                .iter()
                                .map(|(seg, _, _)| *seg)
                                .filter(|seg| after.iter().all(|(a, _, _)| a != seg)),
                        );
                    }
                    TlbOp::Stale(s) => {
                        t.note_stale(s);
                        m.stale += 1;
                        m.entries.remove(&s);
                    }
                    TlbOp::Invalidate(s) => {
                        t.invalidate(s);
                        m.entries.remove(&s);
                    }
                }
                prop_assert_eq!(resident(&t), m.resident());
                prop_assert!(t.entries.len() <= capacity);
                prop_assert_eq!(&victims, &model_victims);
                prop_assert_eq!(
                    (t.hit_count(), t.miss_count(), t.stale_count()),
                    (m.hits, m.misses, m.stale)
                );
            }
        }
    }
}
