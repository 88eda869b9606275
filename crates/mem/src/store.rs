//! Materialized frame contents.
//!
//! Timing experiments run "phantom": only byte *counts* flow through the
//! simulator, so a 96 GB vector costs nothing to model. Correctness-critical
//! machinery (migration, coherence, erasure coding, the KV store) instead
//! reads and writes real bytes through [`FrameStore`], which materializes
//! frame backing lazily. The two modes share all control-path code.

use crate::frame::{FrameId, FRAME_BYTES};

/// Lazily materialized byte backing for a node's frames.
///
/// One slot per frame id, empty while the frame is unmaterialized. The
/// table grows to the highest frame written and is never presized; frame
/// ids are dense per node, so it is as long as the node's frame count at
/// most.
#[derive(Debug, Default)]
pub struct FrameStore {
    frames: Vec<Option<Box<[u8]>>>,
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
    fn slot_mut(&mut self, frame: FrameId) -> &mut Option<Box<[u8]>> {
        let i = frame.0 as usize;
        if i >= self.frames.len() {
            self.frames.resize_with(i.saturating_add(1), || None);
        }
        &mut self.frames[i]
    }

    /// Install `backing` as `frame`'s bytes.
    fn put(&mut self, frame: FrameId, backing: Box<[u8]>) {
        if self.slot_mut(frame).replace(backing).is_none() {
            self.materialized = self.materialized.saturating_add(1);
        }
    }

    /// Write `data` into `frame` starting at `offset`.
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
        let backing =
            slot.get_or_insert_with(|| vec![0u8; FRAME_BYTES as usize].into_boxed_slice());
        backing[offset as usize..][..data.len()].copy_from_slice(data);
        if fresh {
            self.materialized = self.materialized.saturating_add(1);
        }
    }

    /// Borrow `frame`'s whole backing, `FRAME_BYTES` long, or `None` while
    /// the frame is unmaterialized (it reads as zeros, fresh memory).
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
    fn take(&mut self, frame: FrameId) -> Option<Box<[u8]>> {
        let backing = self.frames.get_mut(frame.0 as usize)?.take()?;
        self.materialized = self.materialized.saturating_sub(1);
        Some(backing)
    }

    /// Drop a frame's backing (freed or crashed away).
    pub fn discard(&mut self, frame: FrameId) {
        self.take(frame);
    }
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
        assert_eq!(
            s.get(FrameId(3)).map(<[u8]>::len),
            Some(FRAME_BYTES as usize)
        );
        assert_eq!(s.materialized(), 1);
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
