//! Materialized frame contents.
//!
//! Timing experiments run "phantom": only byte *counts* flow through the
//! simulator, so a 96 GB vector costs nothing to model. Correctness-critical
//! machinery (migration, coherence, erasure coding, the KV store) instead
//! reads and writes real bytes through [`FrameStore`], which materializes
//! frame backing lazily and only as far as it is written: a frame's backing
//! ends at its high-water mark, the end of its furthest write rounded up to
//! whole pages, and every byte past the mark reads as zero. The two modes
//! share all control-path code.

use crate::frame::{FrameId, FRAME_BYTES};

/// A backing grows in whole pages, so it always ends on a page boundary
/// and a reader's runs stay whole u64 elements.
const PAGE_BYTES: usize = 4096;

/// Lazily materialized byte backing for a node's frames.
///
/// One slot per frame id, empty while the frame is unmaterialized. A
/// materialized frame holds its bytes up to its high-water mark only; a
/// write past the mark zero-fills the gap before it and appends the
/// written bytes, so set-up cost and memory scale with the bytes written,
/// not with the frames touched. The table grows to the highest frame
/// written and is never presized; frame ids are dense per node, so it is
/// as long as the node's frame count at most.
#[derive(Debug, Default)]
pub struct FrameStore {
    frames: Vec<Option<Vec<u8>>>,
    /// Slots that are not empty.
    materialized: usize,
}

impl FrameStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames currently materialized.
    pub fn materialized(&self) -> usize {
        self.materialized
    }

    /// `frame`'s slot, growing the table with empty slots up to it.
    fn slot_mut(&mut self, frame: FrameId) -> &mut Option<Vec<u8>> {
        let i = frame.0 as usize;
        if i >= self.frames.len() {
            self.frames.resize_with(i.saturating_add(1), || None);
        }
        &mut self.frames[i]
    }

    /// Install `backing` as `frame`'s bytes.
    fn put(&mut self, frame: FrameId, backing: Vec<u8>) {
        if self.slot_mut(frame).replace(backing).is_none() {
            self.materialized = self.materialized.saturating_add(1);
        }
    }

    /// Write `data` into `frame` starting at `offset`. The first write
    /// materializes the frame, whatever its length.
    ///
    /// # Panics
    /// Panics when the write would cross the frame boundary — callers split
    /// multi-frame operations, mirroring how hardware splits cache lines.
    pub fn write(&mut self, frame: FrameId, offset: u64, data: &[u8]) {
        let end = offset.checked_add(data.len() as u64);
        // lmp-lint: allow(no-panic) — documented `# Panics` frame-boundary
        // contract, mirroring how hardware faults on cross-line writes.
        assert!(
            end.is_some_and(|end| end <= FRAME_BYTES),
            "write crosses frame boundary: offset {offset} + {} > {FRAME_BYTES}",
            data.len()
        );
        let slot = self.slot_mut(frame);
        let fresh = slot.is_none();
        let backing = slot.get_or_insert_with(Vec::new);
        let offset = offset as usize;
        match backing.get_mut(offset..offset.saturating_add(data.len())) {
            Some(dst) => dst.copy_from_slice(data),
            None => write_past_mark(backing, offset, data),
        }
        if fresh {
            self.materialized = self.materialized.saturating_add(1);
        }
    }

    /// Borrow `frame`'s written prefix, or `None` while the frame is
    /// unmaterialized (it reads as zeros, fresh memory). The prefix ends
    /// on a page boundary at or before `FRAME_BYTES`; every byte past it
    /// reads as zero.
    pub fn get(&self, frame: FrameId) -> Option<&[u8]> {
        self.frames.get(frame.0 as usize)?.as_deref()
    }

    /// Move `frame`'s backing to `dst_frame` in `dst` without copying it,
    /// leaving `frame` unmaterialized. An unmaterialized `frame` leaves
    /// `dst_frame` unmaterialized too: both read as zeros either way.
    pub fn move_frame(&mut self, frame: FrameId, dst: &mut FrameStore, dst_frame: FrameId) {
        match self.take(frame) {
            Some(backing) => dst.put(dst_frame, backing),
            None => dst.discard(dst_frame),
        }
    }

    /// Take `frame`'s backing out of the store.
    fn take(&mut self, frame: FrameId) -> Option<Vec<u8>> {
        let backing = self.frames.get_mut(frame.0 as usize)?.take()?;
        self.materialized = self.materialized.saturating_sub(1);
        Some(backing)
    }

    /// Drop a frame's backing (freed or crashed away).
    pub fn discard(&mut self, frame: FrameId) {
        self.take(frame);
    }
}

/// Write `data` at `offset` into a `backing` that ends before the write
/// does: zero-fill any gap between its end and `offset`, append `data`,
/// and zero-pad to the next page boundary. Capacity that falls short of
/// the new end at least doubles, up to a whole frame, so a frame written
/// front to back reallocates a logarithmic number of times and never
/// holds more than `FRAME_BYTES`.
fn write_past_mark(backing: &mut Vec<u8>, offset: usize, data: &[u8]) {
    let end = offset.saturating_add(data.len());
    let mark = end.div_ceil(PAGE_BYTES).saturating_mul(PAGE_BYTES);
    if backing.capacity() < mark {
        let room = backing
            .capacity()
            .saturating_mul(2)
            .min(FRAME_BYTES as usize)
            .max(mark);
        backing.reserve_exact(room.saturating_sub(backing.len()));
    }
    // Truncates when the write starts inside the backing: `data` rewrites
    // every byte from `offset` to the backing's end.
    backing.resize(offset, 0);
    backing.extend_from_slice(data);
    backing.resize(mark, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &FrameStore, frame: FrameId, offset: usize, len: usize) -> Option<&[u8]> {
        s.get(frame).map(|b| &b[offset..offset + len])
    }

    #[test]
    fn unmaterialized_reads_zero() {
        let s = FrameStore::new();
        assert_eq!(s.get(FrameId(0)), None);
        assert_eq!(s.materialized(), 0);
    }

    #[test]
    fn write_then_read() {
        let mut s = FrameStore::new();
        s.write(FrameId(3), 10, b"hello");
        assert_eq!(bytes(&s, FrameId(3), 10, 5), Some(&b"hello"[..]));
        assert_eq!(bytes(&s, FrameId(3), 9, 1), Some(&[0][..]));
        // Only the written page is backed.
        assert_eq!(s.get(FrameId(3)).map(<[u8]>::len), Some(PAGE_BYTES));
        assert_eq!(s.materialized(), 1);
    }

    #[test]
    fn backing_ends_at_the_page_rounded_high_water_mark() {
        let mut s = FrameStore::new();
        for slot in 0..512u64 {
            s.write(FrameId(0), slot * 256, &[slot as u8 | 1; 256]);
        }
        let backing = s.get(FrameId(0)).unwrap();
        assert_eq!(backing.len(), 128 << 10);
        assert_eq!(capacity(&s, 0), 128 << 10, "grown by doubling, no further");
        assert!(backing
            .chunks(256)
            .zip(0..512u64)
            .all(|(c, i)| c == [i as u8 | 1; 256]));
        // A write below the mark leaves it where it is.
        s.write(FrameId(0), 100, b"xy");
        assert_eq!(s.get(FrameId(0)).map(<[u8]>::len), Some(128 << 10));
        // One byte at the frame's last offset backs the whole frame, with
        // the gap before it zero.
        s.write(FrameId(1), FRAME_BYTES - 1, &[9]);
        let whole = s.get(FrameId(1)).unwrap();
        assert_eq!(whole.len(), FRAME_BYTES as usize);
        assert!(whole[..whole.len() - 1].iter().all(|&b| b == 0));
        assert_eq!(whole[whole.len() - 1], 9);
        // Capacity never passes a frame, whatever the growth steps.
        s.write(FrameId(4), 3 << 19, &[1]);
        s.write(FrameId(4), FRAME_BYTES - 1, &[1]);
        assert_eq!(capacity(&s, 4), FRAME_BYTES as usize);
        // A write straddling the mark keeps the bytes below it and pads
        // the rest of its last page with zeros.
        s.write(FrameId(2), 0, &[5; 10]);
        s.write(FrameId(2), PAGE_BYTES as u64 - 2, &[6; 4]);
        let b = s.get(FrameId(2)).unwrap();
        assert_eq!(b.len(), 2 * PAGE_BYTES);
        assert_eq!(&b[..10], &[5; 10]);
        assert!(b[10..PAGE_BYTES - 2].iter().all(|&x| x == 0));
        assert_eq!(&b[PAGE_BYTES - 2..PAGE_BYTES + 2], &[6; 4]);
        assert!(b[PAGE_BYTES + 2..].iter().all(|&x| x == 0));
        // An empty first write materializes the frame without backing it.
        s.write(FrameId(3), 0, &[]);
        assert_eq!(s.get(FrameId(3)), Some(&[][..]));
        assert_eq!(s.materialized(), 5);
    }

    fn capacity(s: &FrameStore, frame: usize) -> usize {
        s.frames[frame].as_ref().map_or(0, Vec::capacity)
    }

    #[test]
    fn frames_are_independent() {
        let mut s = FrameStore::new();
        s.write(FrameId(0), 0, b"aaa");
        s.write(FrameId(1), 0, b"bbb");
        assert_eq!(bytes(&s, FrameId(0), 0, 3), Some(&b"aaa"[..]));
        assert_eq!(bytes(&s, FrameId(1), 0, 3), Some(&b"bbb"[..]));
    }

    #[test]
    fn move_frame_hands_over_the_backing() {
        let (mut a, mut b) = (FrameStore::new(), FrameStore::new());
        a.write(FrameId(5), 0, &[7]);
        a.write(FrameId(5), FRAME_BYTES - 1, &[9]);
        let before = a.get(FrameId(5)).map(<[u8]>::as_ptr);
        a.move_frame(FrameId(5), &mut b, FrameId(2));
        assert_eq!(a.get(FrameId(5)), None);
        assert_eq!(
            b.get(FrameId(2)).map(<[u8]>::as_ptr),
            before,
            "moved, not copied"
        );
        assert_eq!(bytes(&b, FrameId(2), 0, 1), Some(&[7][..]));
        assert_eq!(
            bytes(&b, FrameId(2), FRAME_BYTES as usize - 1, 1),
            Some(&[9][..])
        );
        assert_eq!((a.materialized(), b.materialized()), (0, 1));
        // An unmaterialized source leaves the destination unmaterialized.
        b.write(FrameId(3), 0, b"stale");
        a.move_frame(FrameId(0), &mut b, FrameId(3));
        assert_eq!(b.get(FrameId(3)), None);
        assert_eq!((a.materialized(), b.materialized()), (0, 1));
    }

    #[test]
    fn discard_resets_to_zero() {
        let mut s = FrameStore::new();
        s.write(FrameId(2), 0, b"x");
        s.discard(FrameId(2));
        assert_eq!(s.get(FrameId(2)), None);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn cross_boundary_write_panics() {
        let mut s = FrameStore::new();
        s.write(FrameId(0), FRAME_BYTES - 2, b"xyz");
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn wrapping_offset_is_refused() {
        // `offset + len` wraps to 0 here: the boundary check must see the
        // overflow, not the wrapped sum.
        let mut s = FrameStore::new();
        s.write(FrameId(0), u64::MAX, b"x");
    }
}
