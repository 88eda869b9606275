//! Private/shared partitioning of a node's frames.
//!
//! The core of the LMP idea (§3): each server's memory is logically split
//! into a **private** region (OS, stacks, heaps — only local processors) and
//! a **shared** region that contributes to the rack-wide pool. The split is
//! a pair of frame budgets enforced at allocation time, so it can be
//! re-balanced at runtime ([`RegionSplit::resize_shared`]) without touching
//! data — the flexibility benefit of §4.5.

use crate::frame::{FrameAllocator, FrameBitmap, FrameError, FrameId};

/// Which region a frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Exclusively local: OS state, process heaps, …
    Private,
    /// Part of the rack-wide logical pool; remotely accessible.
    Shared,
}

/// Errors from region-aware allocation and resizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The region's budget (or the node's physical frames) is exhausted.
    BudgetExhausted(RegionKind),
    /// Shrinking below the region's current usage.
    ShrinkBelowUsage {
        /// Frames currently allocated in the region being shrunk.
        used: u64,
        /// The requested new budget.
        requested: u64,
    },
    /// Underlying frame-allocator failure.
    Frame(FrameError),
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::BudgetExhausted(k) => write!(f, "{k:?} region budget exhausted"),
            RegionError::ShrinkBelowUsage { used, requested } => {
                write!(f, "cannot shrink to {requested} frames: {used} in use")
            }
            RegionError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegionError {}

impl From<FrameError> for RegionError {
    fn from(e: FrameError) -> Self {
        RegionError::Frame(e)
    }
}

/// Frame allocator with a private/shared budget split.
#[derive(Debug, Clone)]
pub struct RegionSplit {
    frames: FrameAllocator,
    shared_budget: u64,
    shared_frames: FrameBitmap,
    private_used: u64,
}

impl RegionSplit {
    /// A node with `total` frames, of which `shared_budget` may be lent to
    /// the pool.
    ///
    /// # Panics
    /// Panics if `shared_budget > total`.
    pub fn new(total: u64, shared_budget: u64) -> Self {
        // lmp-lint: allow(no-panic) — documented `# Panics` ctor precondition;
        // an over-budget split is a configuration bug.
        assert!(
            shared_budget <= total,
            "shared budget {shared_budget} exceeds {total} frames"
        );
        RegionSplit {
            frames: FrameAllocator::new(total),
            shared_budget,
            shared_frames: FrameBitmap::default(),
            private_used: 0,
        }
    }

    /// Total frames on the node.
    pub fn total(&self) -> u64 {
        self.frames.total()
    }

    /// Current shared budget, in frames.
    pub fn shared_budget(&self) -> u64 {
        self.shared_budget
    }

    /// Current private budget (everything not shared).
    pub fn private_budget(&self) -> u64 {
        self.total() - self.shared_budget
    }

    /// Frames allocated in the shared region.
    pub fn shared_used(&self) -> u64 {
        self.shared_frames.len()
    }

    /// Frames allocated in the private region.
    pub fn private_used(&self) -> u64 {
        self.private_used
    }

    /// Free frames available to the given region right now.
    pub fn available(&self, kind: RegionKind) -> u64 {
        let budget_room = match kind {
            RegionKind::Shared => self.shared_budget - self.shared_used(),
            RegionKind::Private => self.private_budget() - self.private_used,
        };
        budget_room.min(self.frames.free_count())
    }

    /// Which region a frame currently belongs to (`None` if free).
    pub fn kind_of(&self, frame: FrameId) -> Option<RegionKind> {
        if !self.frames.is_allocated(frame) {
            None
        } else if self.shared_frames.contains(frame) {
            Some(RegionKind::Shared)
        } else {
            Some(RegionKind::Private)
        }
    }

    /// Allocate one frame in `kind`.
    pub fn alloc(&mut self, kind: RegionKind) -> Result<FrameId, RegionError> {
        if self.available(kind) == 0 {
            return Err(RegionError::BudgetExhausted(kind));
        }
        let f = self.frames.alloc()?;
        match kind {
            RegionKind::Shared => {
                self.shared_frames.insert(f);
            }
            RegionKind::Private => self.private_used += 1,
        }
        Ok(f)
    }

    /// Allocate `n` frames in `kind`; all-or-nothing.
    pub fn alloc_many(&mut self, kind: RegionKind, n: u64) -> Result<Vec<FrameId>, RegionError> {
        if self.available(kind) < n {
            return Err(RegionError::BudgetExhausted(kind));
        }
        (0..n).map(|_| self.alloc(kind)).collect()
    }

    /// Free a frame (its region membership is forgotten).
    pub fn free(&mut self, frame: FrameId) -> Result<(), RegionError> {
        match self.kind_of(frame) {
            None => Err(RegionError::Frame(FrameError::NotAllocated)),
            Some(RegionKind::Shared) => {
                self.frames.free(frame)?;
                self.shared_frames.remove(frame);
                Ok(())
            }
            Some(RegionKind::Private) => {
                self.frames.free(frame)?;
                self.private_used -= 1;
                Ok(())
            }
        }
    }

    /// Change the shared budget — the ratio-flexibility knob of §4.5.
    ///
    /// Fails (without changes) when the new budget would not cover frames
    /// already allocated in either region.
    pub fn resize_shared(&mut self, new_shared_budget: u64) -> Result<(), RegionError> {
        if new_shared_budget > self.total() {
            return Err(RegionError::ShrinkBelowUsage {
                used: self.private_used,
                requested: self.total() - new_shared_budget.min(self.total()),
            });
        }
        if new_shared_budget < self.shared_used() {
            return Err(RegionError::ShrinkBelowUsage {
                used: self.shared_used(),
                requested: new_shared_budget,
            });
        }
        let new_private_budget = self.total() - new_shared_budget;
        if new_private_budget < self.private_used {
            return Err(RegionError::ShrinkBelowUsage {
                used: self.private_used,
                requested: new_private_budget,
            });
        }
        self.shared_budget = new_shared_budget;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_enforced() {
        let mut s = RegionSplit::new(10, 4);
        assert_eq!(s.available(RegionKind::Shared), 4);
        assert_eq!(s.available(RegionKind::Private), 6);
        s.alloc_many(RegionKind::Shared, 4).unwrap();
        assert_eq!(
            s.alloc(RegionKind::Shared),
            Err(RegionError::BudgetExhausted(RegionKind::Shared))
        );
        // Private still has room.
        s.alloc_many(RegionKind::Private, 6).unwrap();
        assert_eq!(
            s.alloc(RegionKind::Private),
            Err(RegionError::BudgetExhausted(RegionKind::Private))
        );
    }

    #[test]
    fn kind_tracking_and_free() {
        let mut s = RegionSplit::new(4, 2);
        let sh = s.alloc(RegionKind::Shared).unwrap();
        let pr = s.alloc(RegionKind::Private).unwrap();
        assert_eq!(s.kind_of(sh), Some(RegionKind::Shared));
        assert_eq!(s.kind_of(pr), Some(RegionKind::Private));
        s.free(sh).unwrap();
        assert_eq!(s.kind_of(sh), None);
        assert_eq!(s.shared_used(), 0);
        assert_eq!(s.private_used(), 1);
    }

    #[test]
    fn grow_shared_region() {
        let mut s = RegionSplit::new(10, 2);
        s.alloc_many(RegionKind::Shared, 2).unwrap();
        assert!(s.alloc(RegionKind::Shared).is_err());
        s.resize_shared(10).unwrap();
        assert!(s.alloc(RegionKind::Shared).is_ok());
        assert_eq!(s.private_budget(), 0);
    }

    #[test]
    fn shrink_respects_usage() {
        let mut s = RegionSplit::new(10, 5);
        s.alloc_many(RegionKind::Shared, 3).unwrap();
        assert!(matches!(
            s.resize_shared(2),
            Err(RegionError::ShrinkBelowUsage { used: 3, requested: 2 })
        ));
        s.resize_shared(3).unwrap();
        assert_eq!(s.shared_budget(), 3);
    }

    #[test]
    fn grow_shared_respects_private_usage() {
        let mut s = RegionSplit::new(10, 2);
        s.alloc_many(RegionKind::Private, 7).unwrap();
        // Growing shared to 4 would leave private budget 6 < 7 used.
        assert!(s.resize_shared(4).is_err());
        s.resize_shared(3).unwrap();
    }

    #[test]
    fn budget_beyond_total_rejected() {
        let mut s = RegionSplit::new(4, 0);
        assert!(s.resize_shared(5).is_err());
    }

    #[test]
    fn available_is_min_of_budget_and_physical() {
        let mut s = RegionSplit::new(4, 4);
        // Physically exhaust via shared.
        s.alloc_many(RegionKind::Shared, 4).unwrap();
        assert_eq!(s.available(RegionKind::Private), 0);
    }
}
