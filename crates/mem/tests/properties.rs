// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property-based tests for the memory substrate.

use lmp_mem::{
    AccessorId, FrameAllocator, FrameError, FrameId, FrameStore, HotFrame, HotnessMap, RegionKind,
    RegionSplit,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Ops driving the allocator state machine.
#[derive(Debug, Clone)]
enum AllocOp {
    Alloc,
    AllocMany(u64),
    FreeNth(usize),
    /// Free a frame that is not held: a double free or a foreign frame.
    FreeUnheld(u64),
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => Just(AllocOp::Alloc),
            1 => (0u64..80).prop_map(AllocOp::AllocMany),
            3 => any::<usize>().prop_map(AllocOp::FreeNth),
            1 => (0u64..400).prop_map(AllocOp::FreeUnheld),
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
    /// The allocator hands out exactly the lowest free frame of a tree
    /// model, keeps `alloc_many` all-or-nothing, rejects double and
    /// foreign frees, and its counts always match the model.
    #[test]
    fn allocator_never_double_allocates(total in totals(), ops in alloc_ops()) {
        let mut a = FrameAllocator::new(total);
        let mut free: BTreeSet<u64> = (0..total).collect();
        let mut held: Vec<FrameId> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc => match free.pop_first() {
                    Some(want) => {
                        prop_assert_eq!(a.alloc(), Ok(FrameId(want)));
                        held.push(FrameId(want));
                    }
                    None => prop_assert_eq!(a.alloc(), Err(FrameError::OutOfFrames)),
                },
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
                AllocOp::FreeNth(n) => {
                    if !held.is_empty() {
                        let f = held.swap_remove(n % held.len());
                        prop_assert!(a.free(f).is_ok());
                        free.insert(f.0);
                        prop_assert_eq!(a.free(f), Err(FrameError::NotAllocated));
                    }
                }
                AllocOp::FreeUnheld(f) => {
                    if !held.contains(&FrameId(f)) {
                        prop_assert_eq!(a.free(FrameId(f)), Err(FrameError::NotAllocated));
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
    /// the two regions never overlap, and `kind_of` agrees with a model for
    /// every frame after every step.
    #[test]
    fn region_split_invariants(
        total in totals(),
        ops in proptest::collection::vec((0u8..4, 0u64..300), 1..200),
    ) {
        let mut s = RegionSplit::new(total, total / 2);
        let mut shared: BTreeSet<FrameId> = BTreeSet::new();
        let mut private: BTreeSet<FrameId> = BTreeSet::new();
        for (op, arg) in ops {
            match op {
                0 => {
                    if let Ok(f) = s.alloc(RegionKind::Shared) {
                        prop_assert!(!shared.contains(&f) && !private.contains(&f));
                        shared.insert(f);
                    }
                }
                1 => {
                    if let Ok(f) = s.alloc(RegionKind::Private) {
                        prop_assert!(!shared.contains(&f) && !private.contains(&f));
                        private.insert(f);
                    }
                }
                2 => {
                    // Free an arbitrary held frame.
                    let all: Vec<FrameId> = shared.iter().chain(private.iter()).copied().collect();
                    if !all.is_empty() {
                        let f = all[arg as usize % all.len()];
                        prop_assert!(s.free(f).is_ok());
                        shared.remove(&f);
                        private.remove(&f);
                    }
                }
                _ => {
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
    /// the written bytes; untouched bytes read as zero.
    #[test]
    fn store_read_your_writes(
        writes in proptest::collection::vec(
            (0u64..4096, proptest::collection::vec(any::<u8>(), 1..64)),
            1..40,
        ),
    ) {
        let mut s = FrameStore::new();
        let mut model = vec![0u8; 8192];
        for (off, data) in &writes {
            s.write(FrameId(0), *off, data);
            model[*off as usize..*off as usize + data.len()].copy_from_slice(data);
        }
        let got = s.get(FrameId(0)).map(|b| &b[..model.len()]);
        prop_assert_eq!(got, Some(&model[..]));
    }
}
