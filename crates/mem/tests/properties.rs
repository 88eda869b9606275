// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property-based tests for the memory substrate.

use lmp_mem::{
    AccessorId, FrameAllocator, FrameError, FrameId, FrameStore, HotFrame, HotnessMap, RegionKind,
    RegionSplit, FRAME_BYTES,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Ops driving the allocator state machine.
#[derive(Debug, Clone)]
enum AllocOp {
    AllocMany(u64),
    FreeMany(FreeList),
}

/// A list for `free_many`: the held frames `picks` selects (indices taken
/// mod the held count, each frame once, in pick order, or sorted), plus at
/// most one entry that must refuse the whole list.
#[derive(Debug, Clone)]
struct FreeList {
    picks: Vec<usize>,
    sorted: bool,
    bad: Option<BadEntry>,
}

/// An entry that makes `free_many` refuse a list.
#[derive(Debug, Clone)]
enum BadEntry {
    /// The list's entry at this index (mod its length), listed again.
    Duplicate(usize),
    /// The free frame at this index (mod the free count).
    AlreadyFree(usize),
    /// A frame this far past the end of the frames.
    Foreign(u64),
}

fn free_lists() -> impl Strategy<Value = FreeList> {
    let picks = || proptest::collection::vec(any::<usize>(), 0..24);
    prop_oneof![
        3 => (picks(), any::<bool>()).prop_map(|(picks, sorted)| FreeList {
            picks,
            sorted,
            bad: None,
        }),
        2 => (picks(), any::<bool>(), 0u8..3, any::<usize>(), 0u64..200).prop_map(
            |(picks, sorted, kind, at, far)| FreeList {
                picks,
                sorted,
                bad: Some(match kind {
                    0 => BadEntry::Duplicate(at),
                    1 => BadEntry::AlreadyFree(at),
                    _ => BadEntry::Foreign(far),
                }),
            }
        ),
    ]
}

impl FreeList {
    /// The list over `held` (frames held, in any order) and `free` (frames
    /// free below `total`), and whether `free_many` must accept it. A bad
    /// entry with nothing to copy or pick leaves the list clean.
    fn build(&self, held: &[FrameId], free: &[FrameId], total: u64) -> (Vec<FrameId>, bool) {
        let mut list: Vec<FrameId> = Vec::new();
        if !held.is_empty() {
            for p in &self.picks {
                let f = held[p % held.len()];
                if !list.contains(&f) {
                    list.push(f);
                }
            }
        }
        let bad = match self.bad {
            Some(BadEntry::Duplicate(i)) if !list.is_empty() => Some(list[i % list.len()]),
            Some(BadEntry::AlreadyFree(i)) if !free.is_empty() => Some(free[i % free.len()]),
            Some(BadEntry::Foreign(far)) => Some(FrameId(total + far)),
            _ => None,
        };
        if let Some(f) = bad {
            let at = self.picks.len() % (list.len() + 1);
            list.insert(at, f);
        }
        if self.sorted {
            list.sort_unstable();
        }
        (list, bad.is_none())
    }
}

/// Ops driving the region split.
#[derive(Debug, Clone)]
enum RegionOp {
    Alloc(RegionKind, u64),
    FreeMany(FreeList),
    Resize(u64),
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(AllocOp::AllocMany(1)),
            2 => (0u64..80).prop_map(AllocOp::AllocMany),
            4 => free_lists().prop_map(AllocOp::FreeMany),
        ],
        1..300,
    )
}

/// Frame totals that cross bitmap word boundaries.
fn totals() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(63u64),
        1 => Just(64u64),
        1 => Just(65u64),
        1 => Just(128u64),
        1 => Just(129u64),
        10 => 1u64..300,
    ]
}

/// The tree-based hotness table the dense one replaced, as a model.
#[derive(Default)]
struct HotnessModel {
    counts: BTreeMap<FrameId, BTreeMap<AccessorId, u64>>,
}

impl HotnessModel {
    fn record(&mut self, frame: FrameId, accessor: AccessorId, n: u64) {
        *self
            .counts
            .entry(frame)
            .or_default()
            .entry(accessor)
            .or_insert(0) += n;
    }

    fn count(&self, frame: FrameId, accessor: AccessorId) -> u64 {
        self.counts
            .get(&frame)
            .and_then(|m| m.get(&accessor))
            .copied()
            .unwrap_or(0)
    }

    fn total(&self, frame: FrameId) -> u64 {
        self.counts.get(&frame).map_or(0, |m| m.values().sum())
    }

    fn dominant_accessor(&self, frame: FrameId) -> Option<(AccessorId, u64)> {
        self.counts
            .get(&frame)?
            .iter()
            .max_by_key(|(id, c)| (**c, std::cmp::Reverse(**id)))
            .map(|(id, c)| (*id, *c))
    }

    fn tick_epoch(&mut self) -> usize {
        let mut live = 0;
        self.counts.retain(|_, per_acc| {
            per_acc.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
            live += per_acc.len();
            !per_acc.is_empty()
        });
        live
    }

    fn top_k(&self, k: usize) -> Vec<HotFrame> {
        let mut all: Vec<HotFrame> = self
            .counts
            .iter()
            .flat_map(|(f, per_acc)| {
                per_acc.iter().map(|(a, c)| HotFrame {
                    frame: *f,
                    accessor: *a,
                    count: *c,
                })
            })
            .collect();
        all.sort_by(|x, y| {
            y.count
                .cmp(&x.count)
                .then(x.frame.cmp(&y.frame))
                .then(x.accessor.cmp(&y.accessor))
        });
        all.truncate(k);
        all
    }

    fn accessor_load(&self, accessor: AccessorId) -> (u64, u64) {
        let mut frames = 0;
        let mut accesses = 0;
        for per_acc in self.counts.values() {
            if let Some(c) = per_acc.get(&accessor) {
                frames += 1;
                accesses += c;
            }
        }
        (frames, accesses)
    }

    fn live_pairs(&self) -> usize {
        self.counts.values().map(BTreeMap::len).sum()
    }
}

#[derive(Debug, Clone)]
enum HotOp {
    Record(u64, AccessorId, u64),
    Forget(u64),
    Tick,
}

const HOT_FRAMES: u64 = 300;
const HOT_ACCESSORS: AccessorId = 5;

fn hot_ops() -> impl Strategy<Value = Vec<HotOp>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0..HOT_FRAMES, 0..HOT_ACCESSORS, 0u64..6)
                .prop_map(|(f, a, n)| HotOp::Record(f, a, n)),
            1 => (0..HOT_FRAMES).prop_map(HotOp::Forget),
            1 => Just(HotOp::Tick),
        ],
        1..120,
    )
}

proptest! {
    /// The allocator hands out exactly the lowest free frames of a tree
    /// model, keeps `alloc_many` all-or-nothing, frees any sublist of the
    /// held frames as one unit, refuses a whole list that repeats a frame
    /// or names a free or foreign one, and its counts always match the
    /// model.
    #[test]
    fn allocator_never_double_allocates(total in totals(), ops in alloc_ops()) {
        let mut a = FrameAllocator::new(total);
        let mut free: BTreeSet<u64> = (0..total).collect();
        let mut held: Vec<FrameId> = Vec::new();
        for op in ops {
            match op {
                AllocOp::AllocMany(n) => {
                    if n > free.len() as u64 {
                        prop_assert_eq!(a.alloc_many(n), Err(FrameError::OutOfFrames));
                    } else {
                        let want: Vec<FrameId> =
                            (0..n).filter_map(|_| free.pop_first()).map(FrameId).collect();
                        prop_assert_eq!(a.alloc_many(n), Ok(want.clone()));
                        held.extend(want);
                    }
                }
                AllocOp::FreeMany(spec) => {
                    let free_ids: Vec<FrameId> = free.iter().copied().map(FrameId).collect();
                    let (list, ok) = spec.build(&held, &free_ids, total);
                    if ok {
                        prop_assert_eq!(a.free_many(&list), Ok(()));
                        held.retain(|f| !list.contains(f));
                        free.extend(list.iter().map(|f| f.0));
                    } else {
                        prop_assert_eq!(a.free_many(&list), Err(FrameError::NotAllocated));
                    }
                }
            }
            prop_assert_eq!(a.allocated(), held.len() as u64);
            prop_assert_eq!(a.free_count(), free.len() as u64);
        }
        for f in 0..total + 70 {
            prop_assert_eq!(a.is_allocated(FrameId(f)), held.contains(&FrameId(f)));
        }
    }

    /// Region budgets are conserved under arbitrary alloc/free/resize
    /// sequences: shared_used ≤ shared_budget, private_used ≤ private_budget,
    /// the two regions never overlap, a freed sublist (which may mix both
    /// regions) leaves both, a list with a repeated, free or foreign frame
    /// changes nothing, and `kind_of` agrees with a model for every frame
    /// after every step.
    #[test]
    fn region_split_invariants(
        total in totals(),
        ops in proptest::collection::vec(
            prop_oneof![
                2 => (0u64..6).prop_map(|n| RegionOp::Alloc(RegionKind::Shared, n)),
                2 => (0u64..6).prop_map(|n| RegionOp::Alloc(RegionKind::Private, n)),
                3 => free_lists().prop_map(RegionOp::FreeMany),
                1 => (0u64..300).prop_map(RegionOp::Resize),
            ],
            1..200,
        ),
    ) {
        let mut s = RegionSplit::new(total, total / 2);
        let mut shared: BTreeSet<FrameId> = BTreeSet::new();
        let mut private: BTreeSet<FrameId> = BTreeSet::new();
        for op in ops {
            match op {
                RegionOp::Alloc(kind, n) => {
                    let room = s.available(kind);
                    match s.alloc_many(kind, n) {
                        Ok(fs) => {
                            prop_assert!(n <= room);
                            prop_assert_eq!(fs.len() as u64, n);
                            for f in fs {
                                prop_assert!(!shared.contains(&f) && !private.contains(&f));
                                match kind {
                                    RegionKind::Shared => shared.insert(f),
                                    RegionKind::Private => private.insert(f),
                                };
                            }
                        }
                        Err(_) => prop_assert!(n > room),
                    }
                }
                RegionOp::FreeMany(spec) => {
                    let held: Vec<FrameId> = shared.iter().chain(private.iter()).copied().collect();
                    let free_ids: Vec<FrameId> = (0..total)
                        .map(FrameId)
                        .filter(|f| !shared.contains(f) && !private.contains(f))
                        .collect();
                    let (list, ok) = spec.build(&held, &free_ids, total);
                    prop_assert_eq!(s.free_many(&list).is_ok(), ok);
                    if ok {
                        for f in &list {
                            shared.remove(f);
                            private.remove(f);
                        }
                    }
                }
                RegionOp::Resize(arg) => {
                    // Attempt resize; success or failure, invariants hold.
                    let _ = s.resize_shared(arg % (total + 1));
                }
            }
            prop_assert_eq!(s.shared_used(), shared.len() as u64);
            prop_assert_eq!(s.private_used(), private.len() as u64);
            prop_assert!(s.shared_used() <= s.shared_budget());
            prop_assert!(s.private_used() <= s.private_budget());
            prop_assert_eq!(s.shared_budget() + s.private_budget(), total);
            for f in (0..total + 2).map(FrameId) {
                let want = if shared.contains(&f) {
                    Some(RegionKind::Shared)
                } else if private.contains(&f) {
                    Some(RegionKind::Private)
                } else {
                    None
                };
                prop_assert_eq!(s.kind_of(f), want, "frame {:?}", f);
            }
        }
    }

    /// The frame-indexed hotness table answers every query exactly as the
    /// tree model does, after every step of a random record (including
    /// zero-access records), forget and epoch-tick program.
    #[test]
    fn hotness_matches_tree_model(ops in hot_ops()) {
        let mut h = HotnessMap::new();
        let mut m = HotnessModel::default();
        let mut seen: BTreeSet<u64> = [0, HOT_FRAMES - 1, HOT_FRAMES + 64].into();
        for op in ops {
            match op {
                HotOp::Record(f, a, n) => {
                    h.record(FrameId(f), a, n);
                    m.record(FrameId(f), a, n);
                    seen.insert(f);
                }
                HotOp::Forget(f) => {
                    h.forget(FrameId(f));
                    m.counts.remove(&FrameId(f));
                    seen.insert(f);
                }
                HotOp::Tick => prop_assert_eq!(h.tick_epoch(), m.tick_epoch()),
            }
            for f in seen.iter().copied().map(FrameId) {
                prop_assert_eq!(h.total(f), m.total(f));
                prop_assert_eq!(h.dominant_accessor(f), m.dominant_accessor(f));
                for a in 0..=HOT_ACCESSORS {
                    prop_assert_eq!(h.count(f, a), m.count(f, a));
                }
            }
            for a in 0..=HOT_ACCESSORS {
                prop_assert_eq!(h.accessor_load(a), m.accessor_load(a));
            }
            for k in [0, 1, 3, usize::MAX] {
                prop_assert_eq!(h.top_k(k), m.top_k(k));
            }
            prop_assert_eq!(h.live_pairs(), m.live_pairs());
        }
    }

    /// FrameStore writes are exact: reading back any written range returns
    /// the written bytes; untouched bytes read as zero, inside the written
    /// prefix and past it. The prefix ends at the furthest write's end
    /// rounded up to a page, for writes near the frame's start and far
    /// past its mark alike.
    #[test]
    fn store_read_your_writes(
        writes in proptest::collection::vec(
            (any::<bool>(), 0u64..4096, proptest::collection::vec(any::<u8>(), 1..64)),
            1..40,
        ),
    ) {
        let mut s = FrameStore::new();
        let mut model = vec![0u8; FRAME_BYTES as usize];
        let mut mark = 0;
        for (far, off, data) in &writes {
            // A far write lands anywhere but the frame's last 4.5 KiB.
            let off = if *far { off * 511 } else { *off };
            s.write(FrameId(0), off, data);
            let (at, end) = (off as usize, off as usize + data.len());
            model[at..end].copy_from_slice(data);
            mark = mark.max(end.div_ceil(PAGE) * PAGE);
        }
        let prefix = s.get(FrameId(0)).unwrap();
        prop_assert_eq!(prefix.len(), mark);
        prop_assert_eq!(zero_extended(prefix, 0, model.len()), model);
    }

    /// The frame-indexed store holds the same bytes as its ordered-tree
    /// model under writes, moves and discards, for frame ids on both sides
    /// of the table's growth boundary and far apart. Reads see the written
    /// prefix and then zeros, near either end of the frame, in its middle
    /// and across the prefix's end.
    #[test]
    fn store_matches_tree_model(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..2, 0..STORE_IDS.len(), 0..STORE_IDS.len(), 0u64..3,
             proptest::collection::vec(any::<u8>(), 1..16)),
            1..40,
        ),
    ) {
        let mut stores = [FrameStore::new(), FrameStore::new()];
        let mut models = [TreeStore::default(), TreeStore::default()];
        for (kind, side, a, b, at, data) in ops {
            let (fa, fb) = (FrameId(STORE_IDS[a]), FrameId(STORE_IDS[b]));
            match kind {
                0 | 1 => {
                    // Inside one of the checked windows, so a check sees it.
                    let off = WINDOWS[at as usize] + (b as u64);
                    stores[side].write(fa, off, &data);
                    models[side].write(fa, off, &data);
                }
                2 => {
                    let [s0, s1] = &mut stores;
                    let [m0, m1] = &mut models;
                    if side == 0 {
                        s0.move_frame(fa, s1, fb);
                        m0.move_frame(fa, m1, fb);
                    } else {
                        s1.move_frame(fa, s0, fb);
                        m1.move_frame(fa, m0, fb);
                    }
                }
                _ => {
                    stores[side].discard(fa);
                    models[side].frames.remove(&fa);
                }
            }
            for (s, m) in stores.iter().zip(&models) {
                prop_assert_eq!(s.materialized(), m.frames.len());
                for id in STORE_IDS.into_iter().chain([u64::MAX]) {
                    let (got, want) = (s.get(FrameId(id)), m.frames.get(&FrameId(id)));
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some((want, mark))) = (got, want) {
                        prop_assert_eq!(got.len(), *mark);
                        let w = WINDOW as usize;
                        let across = mark.saturating_sub(w).min(want.len() - 2 * w);
                        for start in WINDOWS.map(|o| o as usize).into_iter().chain([across]) {
                            prop_assert_eq!(
                                zero_extended(got, start, 2 * w),
                                &want[start..start + 2 * w]
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The store's page: every written prefix ends on a multiple of it.
const PAGE: usize = 4096;

/// `len` bytes at `offset` of a frame whose written prefix is `prefix`, as
/// a reader sees them: the prefix, then zeros.
fn zero_extended(prefix: &[u8], offset: usize, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let src = prefix.get(offset..).unwrap_or(&[]);
    let n = src.len().min(len);
    out[..n].copy_from_slice(&src[..n]);
    out
}

/// Frame ids around the store's growth boundaries, plus far ones.
const STORE_IDS: [u64; 8] = [0, 1, 3, 7, 8, 63, 64, 30_000];

/// Half a checked window's width: every write lands in a window's first
/// half.
const WINDOW: u64 = 64;

/// Where the checked windows start: the frame's first bytes, the middle of
/// the frame (far past a front write's mark) and its last bytes.
const WINDOWS: [u64; 3] = [0, FRAME_BYTES / 2, FRAME_BYTES - 2 * WINDOW];

/// The store as the ordered tree of whole zero-filled frames it used to
/// be, plus each frame's page-rounded high-water mark, kept as a model.
#[derive(Default)]
struct TreeStore {
    frames: BTreeMap<FrameId, (Box<[u8]>, usize)>,
}

impl TreeStore {
    fn write(&mut self, frame: FrameId, offset: u64, data: &[u8]) {
        let (backing, mark) = self
            .frames
            .entry(frame)
            .or_insert_with(|| (vec![0u8; FRAME_BYTES as usize].into_boxed_slice(), 0));
        let end = offset as usize + data.len();
        backing[offset as usize..end].copy_from_slice(data);
        *mark = (*mark).max(end.div_ceil(PAGE) * PAGE);
    }

    fn move_frame(&mut self, frame: FrameId, dst: &mut TreeStore, dst_frame: FrameId) {
        match self.frames.remove(&frame) {
            Some(backing) => dst.frames.insert(dst_frame, backing),
            None => dst.frames.remove(&dst_frame),
        };
    }
}
