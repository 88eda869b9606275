// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property-based tests for the memory substrate.

use lmp_mem::{FrameAllocator, FrameId, FrameStore, RegionKind, RegionSplit};
use proptest::prelude::*;
use std::collections::HashSet;

/// Ops driving the allocator state machine.
#[derive(Debug, Clone)]
enum AllocOp {
    Alloc,
    FreeNth(usize),
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    proptest::collection::vec(
        prop_oneof![
            2 => Just(AllocOp::Alloc),
            1 => (0usize..64).prop_map(AllocOp::FreeNth),
        ],
        1..200,
    )
}

proptest! {
    /// The allocator never hands out a frame twice, never loses frames, and
    /// its free count always matches ground truth.
    #[test]
    fn allocator_never_double_allocates(total in 1u64..128, ops in alloc_ops()) {
        let mut a = FrameAllocator::new(total);
        let mut held: Vec<FrameId> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc => {
                    match a.alloc() {
                        Ok(f) => {
                            prop_assert!(!held.contains(&f), "double allocation of {f:?}");
                            prop_assert!(f.0 < total);
                            held.push(f);
                        }
                        Err(_) => prop_assert_eq!(held.len() as u64, total),
                    }
                }
                AllocOp::FreeNth(n) => {
                    if !held.is_empty() {
                        let f = held.remove(n % held.len());
                        prop_assert!(a.free(f).is_ok());
                        prop_assert!(a.free(f).is_err(), "double free accepted");
                    }
                }
            }
            prop_assert_eq!(a.allocated(), held.len() as u64);
            prop_assert_eq!(a.free_count(), total - held.len() as u64);
        }
    }

    /// Region budgets are conserved under arbitrary alloc/free/resize
    /// sequences: shared_used ≤ shared_budget, private_used ≤ private_budget,
    /// and the two regions never overlap.
    #[test]
    fn region_split_invariants(
        total in 4u64..64,
        ops in proptest::collection::vec((0u8..4, 0u64..64), 1..200),
    ) {
        let mut s = RegionSplit::new(total, total / 2);
        let mut shared: HashSet<FrameId> = HashSet::new();
        let mut private: HashSet<FrameId> = HashSet::new();
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
