//! Physical frames and the per-node frame allocator.
//!
//! Memory is managed in 2 MiB frames (matching x86 huge pages, the natural
//! granularity for pooled memory: coarse enough that 96 GB is ~49k frames,
//! fine enough for placement and migration decisions). Frame ids are dense
//! per node (`0..total`), so per-frame sets are bitmaps ([`FrameBitmap`]).
//! The allocator is a deterministic free bitmap with a low-water hint:
//! allocation always returns the lowest free frame, so runs replay
//! identically.

/// Size of one physical frame.
pub const FRAME_BYTES: u64 = 2 * 1024 * 1024;

/// Index of a frame within one node's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u64);

/// Errors from frame allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough free frames to satisfy the request.
    OutOfFrames,
    /// The frame was not allocated (double free or foreign frame).
    NotAllocated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::OutOfFrames => write!(f, "out of frames"),
            FrameError::NotAllocated => write!(f, "frame not allocated"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A set of frame ids, one bit per frame, growing on demand to the highest
/// id inserted.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameBitmap {
    words: Vec<u64>,
    len: u64,
}

/// Word index and bit mask of `frame` in a [`FrameBitmap`].
fn bit(frame: FrameId) -> (usize, u64) {
    ((frame.0 / 64) as usize, 1u64 << (frame.0 % 64))
}

impl FrameBitmap {
    /// The set `0..n`.
    pub(crate) fn full(n: u64) -> Self {
        let mut words = vec![u64::MAX; (n / 64) as usize];
        let tail = n % 64;
        if tail > 0 {
            words.push(!(u64::MAX << tail));
        }
        FrameBitmap { words, len: n }
    }

    /// Number of frames in the set.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Whether `frame` is in the set.
    pub(crate) fn contains(&self, frame: FrameId) -> bool {
        let (w, mask) = bit(frame);
        self.words.get(w).is_some_and(|word| word & mask != 0)
    }

    /// Add `frame` (no-op if present).
    pub(crate) fn insert(&mut self, frame: FrameId) {
        let (w, mask) = bit(frame);
        if w >= self.words.len() {
            self.words.resize(w.saturating_add(1), 0);
        }
        let word = &mut self.words[w];
        if *word & mask == 0 {
            *word |= mask;
            self.len = self.len.saturating_add(1);
        }
    }

    /// Remove `frame` (no-op if absent).
    pub(crate) fn remove(&mut self, frame: FrameId) {
        let (w, mask) = bit(frame);
        if let Some(word) = self.words.get_mut(w).filter(|word| **word & mask != 0) {
            *word &= !mask;
            self.len = self.len.saturating_sub(1);
        }
    }

    /// The lowest frame in the set whose word index is `word` or above.
    pub(crate) fn first_from_word(&self, word: usize) -> Option<FrameId> {
        let rest = self.words.get(word..)?;
        let skip = rest.iter().position(|w| *w != 0)?;
        let base = (word.saturating_add(skip) as u64).saturating_mul(64);
        Some(FrameId(
            base.saturating_add(u64::from(rest[skip].trailing_zeros())),
        ))
    }
}

/// Deterministic lowest-first frame allocator.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    total: u64,
    /// Free frames.
    free: FrameBitmap,
    /// Every word of `free` below this index is zero.
    hint: usize,
}

impl FrameAllocator {
    /// An allocator over `total` frames, all initially free.
    pub fn new(total: u64) -> Self {
        FrameAllocator {
            total,
            free: FrameBitmap::full(total),
            hint: 0,
        }
    }

    /// Total frames managed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Frames currently free.
    pub fn free_count(&self) -> u64 {
        self.free.len()
    }

    /// Frames currently allocated.
    pub fn allocated(&self) -> u64 {
        self.total.saturating_sub(self.free_count())
    }

    /// Whether `frame` is currently allocated.
    pub fn is_allocated(&self, frame: FrameId) -> bool {
        frame.0 < self.total && !self.free.contains(frame)
    }

    /// Allocate the lowest-numbered free frame.
    pub fn alloc(&mut self) -> Result<FrameId, FrameError> {
        let f = self
            .free
            .first_from_word(self.hint)
            .ok_or(FrameError::OutOfFrames)?;
        self.hint = bit(f).0;
        self.free.remove(f);
        Ok(f)
    }

    /// Allocate `n` frames (not necessarily contiguous), lowest-first.
    /// All-or-nothing: on failure nothing is allocated.
    pub fn alloc_many(&mut self, n: u64) -> Result<Vec<FrameId>, FrameError> {
        if self.free_count() < n {
            return Err(FrameError::OutOfFrames);
        }
        // The up-front free_count check makes every alloc() succeed, so
        // collecting the Results preserves the all-or-nothing contract.
        (0..n).map(|_| self.alloc()).collect()
    }

    /// Free a frame.
    pub fn free(&mut self, frame: FrameId) -> Result<(), FrameError> {
        if !self.is_allocated(frame) {
            return Err(FrameError::NotAllocated);
        }
        self.free.insert(frame);
        self.hint = self.hint.min(bit(frame).0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_lowest_first() {
        let mut a = FrameAllocator::new(4);
        assert_eq!(a.alloc().unwrap(), FrameId(0));
        assert_eq!(a.alloc().unwrap(), FrameId(1));
        a.free(FrameId(0)).unwrap();
        assert_eq!(a.alloc().unwrap(), FrameId(0));
    }

    #[test]
    fn exhaustion() {
        let mut a = FrameAllocator::new(2);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(FrameError::OutOfFrames));
        assert_eq!(a.allocated(), 2);
    }

    #[test]
    fn double_free_rejected() {
        let mut a = FrameAllocator::new(2);
        let f = a.alloc().unwrap();
        a.free(f).unwrap();
        assert_eq!(a.free(f), Err(FrameError::NotAllocated));
    }

    #[test]
    fn foreign_frame_rejected() {
        let mut a = FrameAllocator::new(2);
        assert_eq!(a.free(FrameId(99)), Err(FrameError::NotAllocated));
    }

    #[test]
    fn alloc_many_is_atomic() {
        let mut a = FrameAllocator::new(3);
        assert!(a.alloc_many(4).is_err());
        assert_eq!(a.free_count(), 3);
        let got = a.alloc_many(3).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(a.free_count(), 0);
    }

    #[test]
    fn bitmap_full_sets_exactly_the_prefix() {
        for n in [0, 1, 63, 64, 65, 128, 129] {
            let b = FrameBitmap::full(n);
            assert_eq!(b.len(), n);
            assert!(n == 0 || b.contains(FrameId(n - 1)), "n = {n}");
            assert!(!b.contains(FrameId(n)), "n = {n}");
        }
    }

    #[test]
    fn bitmap_grows_to_the_highest_insert() {
        let mut b = FrameBitmap::default();
        assert_eq!(b.first_from_word(0), None);
        b.insert(FrameId(30_000));
        b.insert(FrameId(30_000));
        b.insert(FrameId(3));
        assert_eq!(b.len(), 2);
        assert_eq!(b.first_from_word(0), Some(FrameId(3)));
        assert_eq!(b.first_from_word(1), Some(FrameId(30_000)));
        assert_eq!(b.first_from_word(30_000 / 64 + 1), None);
        b.remove(FrameId(3));
        b.remove(FrameId(3));
        b.remove(FrameId(u64::MAX));
        assert!(!b.contains(FrameId(3)));
        assert!(!b.contains(FrameId(u64::MAX)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn free_below_the_hint_is_reused_first() {
        let mut a = FrameAllocator::new(200);
        let got = a.alloc_many(130).unwrap();
        assert_eq!(got.last(), Some(&FrameId(129)));
        a.free(FrameId(5)).unwrap();
        a.free(FrameId(70)).unwrap();
        assert_eq!(a.alloc().unwrap(), FrameId(5));
        assert_eq!(a.alloc().unwrap(), FrameId(70));
        assert_eq!(a.alloc().unwrap(), FrameId(130));
    }

    #[test]
    fn is_allocated_tracks_state() {
        let mut a = FrameAllocator::new(2);
        let f = a.alloc().unwrap();
        assert!(a.is_allocated(f));
        a.free(f).unwrap();
        assert!(!a.is_allocated(f));
        assert!(!a.is_allocated(FrameId(5)));
    }
}
