//! Physical frames and the per-node frame allocator.
//!
//! Memory is managed in 2 MiB frames (matching x86 huge pages, the natural
//! granularity for pooled memory: coarse enough that 96 GB is ~49k frames,
//! fine enough for placement and migration decisions). Frame ids are dense
//! per node (`0..total`), so per-frame sets are bitmaps ([`FrameBitmap`]).
//! The allocator is a deterministic bitmap of allocated frames with a
//! low-water hint: allocation always returns the lowest free frames, so
//! runs replay identically. Frames are allocated and freed in lists, a
//! bitmap word at a time.

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

/// A set of frame ids, one bit per frame, growing on demand to the
/// highest word inserted. Frames move in and out a 64-bit word at a time:
/// a word index and a mask of its bits. The set keeps no count; its owner
/// knows how many frames each move carries.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameBitmap {
    words: Vec<u64>,
}

/// Word index and bit mask of `frame` in a [`FrameBitmap`].
fn bit(frame: FrameId) -> (usize, u64) {
    ((frame.0 / 64) as usize, 1u64 << (frame.0 % 64))
}

/// Append the frames of word `w`'s `mask` to `out`, lowest first.
pub(crate) fn push_frames(out: &mut Vec<FrameId>, w: usize, mut mask: u64) {
    let base = (w as u64).saturating_mul(64);
    while mask != 0 {
        out.push(FrameId(base | u64::from(mask.trailing_zeros())));
        mask &= mask.wrapping_sub(1);
    }
}

/// The `k` lowest set bits of `word` (all of them when it has no more).
fn lowest_bits(word: u64, k: u64) -> u64 {
    if u64::from(word.count_ones()) <= k {
        return word;
    }
    let mut rest = word;
    for _ in 0..k {
        rest &= rest.wrapping_sub(1);
    }
    word & !rest
}

/// Call `each(word index, mask)` for every run of consecutive entries of
/// `frames` that share a bitmap word, in list order. Fails with
/// [`FrameError::NotAllocated`] when a run lists a frame twice, or with
/// whatever `each` returns.
fn word_runs(
    frames: &[FrameId],
    mut each: impl FnMut(usize, u64) -> Result<(), FrameError>,
) -> Result<(), FrameError> {
    let Some((&first, rest)) = frames.split_first() else {
        return Ok(());
    };
    let (mut w, mut mask) = bit(first);
    for &f in rest {
        let (fw, b) = bit(f);
        if fw != w {
            each(w, mask)?;
            (w, mask) = (fw, 0);
        }
        if mask & b != 0 {
            return Err(FrameError::NotAllocated);
        }
        mask |= b;
    }
    each(w, mask)
}

impl FrameBitmap {
    /// Whether `frame` is in the set.
    pub(crate) fn contains(&self, frame: FrameId) -> bool {
        let (w, mask) = bit(frame);
        self.word(w) & mask != 0
    }

    /// Word `w` of the set (zero past its end).
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }

    /// Add the frames of `mask` to word `w`.
    pub(crate) fn insert_word(&mut self, w: usize, mask: u64) {
        if w >= self.words.len() {
            self.words.resize(w.saturating_add(1), 0);
        }
        self.words[w] |= mask;
    }

    /// Remove the frames of `mask` from word `w`.
    pub(crate) fn remove_word(&mut self, w: usize, mask: u64) {
        if let Some(word) = self.words.get_mut(w) {
            *word &= !mask;
        }
    }
}

/// Deterministic lowest-first frame allocator.
///
/// Frames move a bitmap word at a time: allocation takes the lowest free
/// bits of whole words (only the last word in part), and freeing checks a
/// whole frame list word by word before it returns any of it.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    total: u64,
    /// Allocated frames. Bits past `total` stay clear: a scan takes free
    /// bits lowest-first and never more than `free_count`, so it never
    /// reaches them.
    held: FrameBitmap,
    /// Frames of `0..total` not in `held`.
    free_count: u64,
    /// Every word of `held` below this index is full.
    hint: usize,
}

impl FrameAllocator {
    /// An allocator over `total` frames, all initially free.
    pub fn new(total: u64) -> Self {
        FrameAllocator {
            total,
            held: FrameBitmap::default(),
            free_count: total,
            hint: 0,
        }
    }

    /// Total frames managed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Frames currently free.
    pub fn free_count(&self) -> u64 {
        self.free_count
    }

    /// Frames currently allocated.
    pub fn allocated(&self) -> u64 {
        self.total.saturating_sub(self.free_count)
    }

    /// Whether `frame` is currently allocated.
    pub fn is_allocated(&self, frame: FrameId) -> bool {
        self.held.contains(frame)
    }

    /// Allocate the `n` lowest-numbered free frames (not necessarily
    /// contiguous), in ascending order. All-or-nothing: on failure nothing
    /// is allocated.
    pub fn alloc_many(&mut self, n: u64) -> Result<Vec<FrameId>, FrameError> {
        if self.free_count < n {
            return Err(FrameError::OutOfFrames);
        }
        let mut out = Vec::with_capacity(n as usize);
        self.take(n, |w, mask| push_frames(&mut out, w, mask))?;
        Ok(out)
    }

    /// Take the `n` lowest free frames a word at a time, handing each
    /// word's share to `each` as `(word index, mask)` in ascending order.
    /// All-or-nothing, like [`Self::alloc_many`].
    pub(crate) fn take(
        &mut self,
        n: u64,
        mut each: impl FnMut(usize, u64),
    ) -> Result<(), FrameError> {
        if self.free_count < n {
            return Err(FrameError::OutOfFrames);
        }
        self.free_count = self.free_count.saturating_sub(n);
        let mut left = n;
        let mut w = self.hint;
        // The free count covers `n`, so the scan ends by `total`.
        let end = self.total.div_ceil(64) as usize;
        while left > 0 && w < end {
            let free = !self.held.word(w);
            if free != 0 {
                let mask = lowest_bits(free, left);
                self.held.insert_word(w, mask);
                left = left.saturating_sub(u64::from(mask.count_ones()));
                self.hint = w;
                each(w, mask);
            }
            w = w.saturating_add(1);
        }
        Ok(())
    }

    /// Free every frame of `frames`. All-or-nothing: when any frame is not
    /// allocated here, or is listed twice, nothing is freed and the call
    /// returns [`FrameError::NotAllocated`].
    pub fn free_many(&mut self, frames: &[FrameId]) -> Result<(), FrameError> {
        self.give_back(frames, |_, _| {})
    }

    /// [`Self::free_many`], handing each freed word's share to `each` as
    /// `(word index, mask)`.
    // Inlined, with `check_held`: a one-frame list (each migration frees
    // one) would otherwise pay a call per pass for a few ns of work.
    #[inline]
    pub(crate) fn give_back(
        &mut self,
        frames: &[FrameId],
        mut each: impl FnMut(usize, u64),
    ) -> Result<(), FrameError> {
        self.check_held(frames)?;
        self.free_count = self.free_count.saturating_add(frames.len() as u64);
        word_runs(frames, |w, mask| {
            self.held.remove_word(w, mask);
            self.hint = self.hint.min(w);
            each(w, mask);
            Ok(())
        })
    }

    /// Whether every frame of `frames` is allocated here and listed once,
    /// checked a word at a time.
    #[inline]
    fn check_held(&self, frames: &[FrameId]) -> Result<(), FrameError> {
        let mut last = None;
        let mut ascending = true;
        word_runs(frames, |w, mask| {
            ascending &= last.is_none_or(|l| l < w);
            last = Some(w);
            match mask & !self.held.word(w) {
                0 => Ok(()),
                _ => Err(FrameError::NotAllocated),
            }
        })?;
        if ascending {
            return Ok(());
        }
        // A word revisited out of order may list a frame a second time.
        let mut sorted = frames.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|p| p[0] == p[1]) {
            return Err(FrameError::NotAllocated);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(a: &mut FrameAllocator) -> Result<FrameId, FrameError> {
        a.alloc_many(1).map(|v| v[0])
    }

    #[test]
    fn alloc_lowest_first() {
        let mut a = FrameAllocator::new(4);
        assert_eq!(one(&mut a).unwrap(), FrameId(0));
        assert_eq!(one(&mut a).unwrap(), FrameId(1));
        a.free_many(&[FrameId(0)]).unwrap();
        assert_eq!(one(&mut a).unwrap(), FrameId(0));
    }

    #[test]
    fn exhaustion() {
        let mut a = FrameAllocator::new(2);
        a.alloc_many(2).unwrap();
        assert_eq!(one(&mut a), Err(FrameError::OutOfFrames));
        assert_eq!(a.allocated(), 2);
    }

    #[test]
    fn double_free_rejected() {
        let mut a = FrameAllocator::new(2);
        let f = one(&mut a).unwrap();
        a.free_many(&[f]).unwrap();
        assert_eq!(a.free_many(&[f]), Err(FrameError::NotAllocated));
    }

    #[test]
    fn foreign_frame_rejected() {
        let mut a = FrameAllocator::new(2);
        a.alloc_many(2).unwrap();
        assert_eq!(a.free_many(&[FrameId(99)]), Err(FrameError::NotAllocated));
        // Past `total` in the last word, and past the bitmap's end.
        let mut b = FrameAllocator::new(70);
        b.alloc_many(70).unwrap();
        assert_eq!(b.free_many(&[FrameId(70)]), Err(FrameError::NotAllocated));
        assert_eq!(
            b.free_many(&[FrameId(u64::MAX)]),
            Err(FrameError::NotAllocated)
        );
        assert_eq!(b.free_count(), 0);
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
    fn alloc_many_takes_whole_words_then_part_of_one() {
        let mut a = FrameAllocator::new(300);
        let got = a.alloc_many(150).unwrap();
        assert_eq!(got, (0..150).map(FrameId).collect::<Vec<_>>());
        // Holes in two words are taken lowest-first, then the tail.
        a.free_many(&[FrameId(3), FrameId(5), FrameId(64), FrameId(149)])
            .unwrap();
        let got = a.alloc_many(6).unwrap();
        let want = [3, 5, 64, 149, 150, 151].map(FrameId);
        assert_eq!(got, want);
        assert_eq!(a.alloc_many(0).unwrap(), vec![]);
    }

    #[test]
    fn free_many_is_all_or_nothing() {
        let mut a = FrameAllocator::new(200);
        let held = a.alloc_many(130).unwrap();
        let bad: [&[FrameId]; 4] = [
            // A duplicate in one word, and in words apart.
            &[FrameId(1), FrameId(1)],
            &[FrameId(1), FrameId(70), FrameId(1)],
            // An already-free frame after good ones.
            &[FrameId(2), FrameId(3), FrameId(150)],
            // A frame past the allocator.
            &[FrameId(4), FrameId(200)],
        ];
        for list in bad {
            assert_eq!(a.free_many(list), Err(FrameError::NotAllocated), "{list:?}");
            assert_eq!(a.allocated(), 130, "{list:?}");
        }
        // Any order frees, as one unit.
        let mut shuffled = held.clone();
        shuffled.reverse();
        shuffled.swap(3, 100);
        a.free_many(&shuffled).unwrap();
        assert_eq!(a.allocated(), 0);
        assert!(held.iter().all(|f| !a.is_allocated(*f)));
        assert_eq!(a.free_many(&[]), Ok(()));
    }

    #[test]
    fn bitmap_words_move_whole_masks() {
        let mut b = FrameBitmap::default();
        b.insert_word(0, 0b1010);
        b.insert_word(2, 0b1);
        assert!(b.contains(FrameId(1)) && b.contains(FrameId(3)) && b.contains(FrameId(128)));
        assert_eq!(b.word(3), 0, "zero past the highest insert");
        b.remove_word(0, 0b0110);
        b.remove_word(9, u64::MAX);
        assert_eq!(b.word(0), 0b1000);
        assert!(!b.contains(FrameId(1)));
        assert!(!b.contains(FrameId(u64::MAX)));
    }

    #[test]
    fn free_below_the_hint_is_reused_first() {
        let mut a = FrameAllocator::new(200);
        let got = a.alloc_many(130).unwrap();
        assert_eq!(got.last(), Some(&FrameId(129)));
        a.free_many(&[FrameId(5)]).unwrap();
        a.free_many(&[FrameId(70)]).unwrap();
        assert_eq!(one(&mut a).unwrap(), FrameId(5));
        assert_eq!(one(&mut a).unwrap(), FrameId(70));
        assert_eq!(one(&mut a).unwrap(), FrameId(130));
    }

    #[test]
    fn is_allocated_tracks_state() {
        let mut a = FrameAllocator::new(2);
        let f = one(&mut a).unwrap();
        assert!(a.is_allocated(f));
        a.free_many(&[f]).unwrap();
        assert!(!a.is_allocated(f));
        assert!(!a.is_allocated(FrameId(5)));
    }
}
