//! The logical address space.
//!
//! §5 "Address translation": pool buffers are named by **logical addresses**
//! that survive migration. A logical address is a `(segment, offset)` pair —
//! the segment is the allocation unit (a buffer), the offset a byte index
//! within it. Translation to a physical location happens in two steps
//! (segment → server, then offset → frame within the server), implemented
//! in [`crate::translate`].

use lmp_mem::FRAME_BYTES;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a pool buffer (allocation unit). Never reused.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SegmentId(pub u64);

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// A byte address in the logical pool: `(segment, offset)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LogicalAddr {
    /// The buffer.
    pub segment: SegmentId,
    /// Byte offset within the buffer.
    pub offset: u64,
}

impl LogicalAddr {
    /// Address of `offset` within `segment`.
    pub fn new(segment: SegmentId, offset: u64) -> Self {
        LogicalAddr { segment, offset }
    }

    /// The frame index within the segment this address falls in.
    pub fn frame_index(&self) -> u64 {
        self.offset / FRAME_BYTES
    }

    /// The byte offset within that frame.
    pub fn frame_offset(&self) -> u64 {
        self.offset % FRAME_BYTES
    }

    /// The address `delta` bytes further into the segment. Saturates at
    /// `u64::MAX`; a saturated offset is past any segment's length, so
    /// downstream bounds checks reject it.
    pub fn add(&self, delta: u64) -> LogicalAddr {
        LogicalAddr {
            segment: self.segment,
            offset: self.offset.saturating_add(delta),
        }
    }
}

impl fmt::Display for LogicalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{:#x}", self.segment, self.offset)
    }
}

/// Split the byte range `[addr.offset, addr.offset + len)` of a segment
/// into per-frame `(frame_index, frame_offset, chunk_len)` pieces — the
/// granularity at which hardware (and our simulator) actually operates.
/// Lazy: walking an op's frames allocates nothing.
pub fn frame_chunks(addr: LogicalAddr, len: u64) -> impl Iterator<Item = (u64, u64, u64)> {
    let mut off = addr.offset;
    let end = addr.offset.saturating_add(len);
    std::iter::from_fn(move || {
        if off >= end {
            return None;
        }
        let frame = off / FRAME_BYTES;
        let within = off % FRAME_BYTES;
        // `within < FRAME_BYTES` (it is a remainder) and `off < end` (the
        // guard above), so neither subtraction can underflow.
        let chunk = FRAME_BYTES
            .saturating_sub(within)
            .min(end.saturating_sub(off));
        off = off.saturating_add(chunk);
        Some((frame, within, chunk))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_index_and_offset() {
        let a = LogicalAddr::new(SegmentId(1), FRAME_BYTES + 5);
        assert_eq!(a.frame_index(), 1);
        assert_eq!(a.frame_offset(), 5);
    }

    #[test]
    fn add_advances_offset_only() {
        let a = LogicalAddr::new(SegmentId(2), 10).add(20);
        assert_eq!(a.segment, SegmentId(2));
        assert_eq!(a.offset, 30);
    }

    #[test]
    fn chunks_within_one_frame() {
        let a = LogicalAddr::new(SegmentId(0), 100);
        assert_eq!(frame_chunks(a, 50).collect::<Vec<_>>(), vec![(0, 100, 50)]);
    }

    #[test]
    fn chunks_split_at_frame_boundaries() {
        let a = LogicalAddr::new(SegmentId(0), FRAME_BYTES - 10);
        let chunks: Vec<_> = frame_chunks(a, 20).collect();
        assert_eq!(chunks, vec![(0, FRAME_BYTES - 10, 10), (1, 0, 10)]);
    }

    #[test]
    fn chunks_cover_exactly() {
        let a = LogicalAddr::new(SegmentId(0), 12345);
        let len = 3 * FRAME_BYTES + 777;
        let chunks: Vec<_> = frame_chunks(a, len).collect();
        let total: u64 = chunks.iter().map(|c| c.2).sum();
        assert_eq!(total, len);
        // Contiguity.
        let mut pos = a.offset;
        for (frame, within, chunk) in chunks {
            assert_eq!(frame * FRAME_BYTES + within, pos);
            pos += chunk;
        }
    }

    #[test]
    fn zero_length_has_no_chunks() {
        assert_eq!(
            frame_chunks(LogicalAddr::new(SegmentId(0), 5), 0).next(),
            None
        );
    }
}
