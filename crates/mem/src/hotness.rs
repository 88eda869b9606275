//! Access-bit hotness tracking.
//!
//! §5 "Locality balancing": NUMA systems unmap pages and take faults to
//! sample accesses, which the paper deems too slow for LMPs; it proposes
//! hardware performance counters plus per-frame access bits. [`HotnessMap`]
//! models that: each access sets a counter for the (frame, accessor) pair;
//! an epoch tick halves the counters (exponential decay) so rankings follow
//! the current phase of the workload.

use crate::frame::FrameId;

/// Identifies who performed an access (a server id in the LMP runtime).
pub type AccessorId = u32;

/// Decaying per-frame, per-accessor access counters.
#[derive(Debug, Clone, Default)]
pub struct HotnessMap {
    /// Indexed by frame id: (accessor, decayed access count) pairs sorted
    /// by accessor. An empty list means the frame has no entry. The table
    /// grows on demand to the highest frame recorded.
    frames: Vec<Vec<(AccessorId, u64)>>,
    epoch: u64,
}

/// A frame ranked hot for some accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotFrame {
    /// The frame.
    pub frame: FrameId,
    /// Who is hitting it.
    pub accessor: AccessorId,
    /// Decayed access count.
    pub count: u64,
}

impl HotnessMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` accesses to `frame` by `accessor`. A record of zero
    /// accesses still creates the (frame, accessor) entry.
    pub fn record(&mut self, frame: FrameId, accessor: AccessorId, n: u64) {
        let i = frame.0 as usize;
        if i >= self.frames.len() {
            self.frames.resize_with(i + 1, Vec::new);
        }
        let pairs = &mut self.frames[i];
        match pairs.binary_search_by_key(&accessor, |(a, _)| *a) {
            Ok(k) => pairs[k].1 += n,
            Err(k) => {
                // Most frames only ever see one accessor, and a slot keeps
                // its allocation across `forget`: size the first one exactly.
                if pairs.capacity() == 0 {
                    pairs.reserve_exact(1);
                }
                pairs.insert(k, (accessor, n));
            }
        }
    }

    /// The (accessor, count) pairs of `frame`, sorted by accessor.
    fn pairs(&self, frame: FrameId) -> &[(AccessorId, u64)] {
        self.frames.get(frame.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Decayed access count for a (frame, accessor) pair.
    pub fn count(&self, frame: FrameId, accessor: AccessorId) -> u64 {
        let pairs = self.pairs(frame);
        pairs
            .binary_search_by_key(&accessor, |(a, _)| *a)
            .map_or(0, |k| pairs[k].1)
    }

    /// Total (all-accessor) decayed count for a frame.
    pub fn total(&self, frame: FrameId) -> u64 {
        self.pairs(frame).iter().map(|(_, c)| c).sum()
    }

    /// The accessor with the most accesses to `frame`, if any.
    pub fn dominant_accessor(&self, frame: FrameId) -> Option<(AccessorId, u64)> {
        self.pairs(frame)
            .iter()
            // Deterministic tie-break: lowest accessor id wins.
            .max_by_key(|(id, c)| (*c, std::cmp::Reverse(*id)))
            .copied()
    }

    /// Advance one epoch: halve every counter, dropping entries that reach
    /// zero. Returns the number of live (frame, accessor) pairs remaining.
    pub fn tick_epoch(&mut self) -> usize {
        self.epoch += 1;
        let mut live = 0;
        for pairs in &mut self.frames {
            pairs.retain_mut(|(_, c)| {
                *c /= 2;
                *c > 0
            });
            live += pairs.len();
        }
        live
    }

    /// Number of epoch ticks so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The `k` hottest (frame, accessor) pairs, hottest first, with a
    /// deterministic tie order (by count desc, then frame, then accessor).
    pub fn top_k(&self, k: usize) -> Vec<HotFrame> {
        let mut all: Vec<HotFrame> = self
            .frames
            .iter()
            .enumerate()
            .flat_map(|(i, pairs)| {
                pairs.iter().map(move |&(accessor, count)| HotFrame {
                    frame: FrameId(i as u64),
                    accessor,
                    count,
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

    /// Forget a frame entirely (it was freed or migrated away). Its slot
    /// keeps its allocation for the frame's next owner.
    pub fn forget(&mut self, frame: FrameId) {
        if let Some(pairs) = self.frames.get_mut(frame.0 as usize) {
            pairs.clear();
        }
    }

    /// Observed load attributed to one accessor across every frame on this
    /// node: `(frames touched, decayed access count)`. Visits frames in id
    /// order, so the result is deterministic.
    pub fn accessor_load(&self, accessor: AccessorId) -> (u64, u64) {
        let mut frames = 0;
        let mut accesses = 0;
        for pairs in &self.frames {
            if let Ok(k) = pairs.binary_search_by_key(&accessor, |(a, _)| *a) {
                frames += 1;
                accesses += pairs[k].1;
            }
        }
        (frames, accesses)
    }

    /// Number of live (frame, accessor) pairs currently tracked.
    pub fn live_pairs(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut h = HotnessMap::new();
        h.record(FrameId(1), 0, 5);
        h.record(FrameId(1), 1, 3);
        assert_eq!(h.count(FrameId(1), 0), 5);
        assert_eq!(h.total(FrameId(1)), 8);
        assert_eq!(h.dominant_accessor(FrameId(1)), Some((0, 5)));
    }

    #[test]
    fn decay_halves_and_drops() {
        let mut h = HotnessMap::new();
        h.record(FrameId(1), 0, 4);
        h.record(FrameId(2), 0, 1);
        h.tick_epoch();
        assert_eq!(h.count(FrameId(1), 0), 2);
        assert_eq!(h.count(FrameId(2), 0), 0);
        h.tick_epoch();
        h.tick_epoch();
        assert_eq!(h.total(FrameId(1)), 0);
        assert_eq!(h.epoch(), 3);
    }

    #[test]
    fn top_k_orders_deterministically() {
        let mut h = HotnessMap::new();
        h.record(FrameId(1), 0, 10);
        h.record(FrameId(2), 1, 10);
        h.record(FrameId(3), 0, 99);
        let top = h.top_k(2);
        assert_eq!(top[0].frame, FrameId(3));
        // Tie between frames 1 and 2 resolved by frame id.
        assert_eq!(top[1].frame, FrameId(1));
    }

    #[test]
    fn dominant_accessor_tie_breaks_low_id() {
        let mut h = HotnessMap::new();
        h.record(FrameId(7), 3, 5);
        h.record(FrameId(7), 1, 5);
        assert_eq!(h.dominant_accessor(FrameId(7)), Some((1, 5)));
    }

    #[test]
    fn forget_removes_frame() {
        let mut h = HotnessMap::new();
        h.record(FrameId(9), 0, 5);
        h.forget(FrameId(9));
        assert_eq!(h.total(FrameId(9)), 0);
        assert!(h.top_k(10).is_empty());
    }
}
