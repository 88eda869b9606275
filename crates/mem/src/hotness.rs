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
    /// by accessor. No pairs means the frame has no entry. The table grows
    /// on demand to the highest frame recorded.
    frames: Vec<Pairs>,
    epoch: u64,
}

/// One frame's (accessor, count) pairs, sorted by accessor. Most frames
/// only ever see one accessor, so a single pair is kept inline and only a
/// second accessor moves the pairs to the heap.
#[derive(Debug, Clone, Default)]
enum Pairs {
    #[default]
    Empty,
    One([(AccessorId, u64); 1]),
    Many(Vec<(AccessorId, u64)>),
}

impl Pairs {
    fn as_slice(&self) -> &[(AccessorId, u64)] {
        match self {
            Pairs::Empty => &[],
            Pairs::One(p) => p,
            Pairs::Many(v) => v,
        }
    }

    fn record(&mut self, accessor: AccessorId, n: u64) {
        match self {
            Pairs::Empty => *self = Pairs::One([(accessor, n)]),
            Pairs::One([p]) if p.0 == accessor => p.1 += n,
            Pairs::One([p]) => {
                let mut v = vec![*p];
                v.insert(usize::from(p.0 < accessor), (accessor, n));
                *self = Pairs::Many(v);
            }
            Pairs::Many(v) => match v.binary_search_by_key(&accessor, |(a, _)| *a) {
                Ok(k) => v[k].1 += n,
                Err(k) => v.insert(k, (accessor, n)),
            },
        }
    }

    /// Halve every count, dropping pairs that reach zero; returns how
    /// many remain.
    fn halve(&mut self) -> usize {
        match self {
            Pairs::Empty => 0,
            Pairs::One([p]) => {
                p.1 /= 2;
                if p.1 == 0 {
                    *self = Pairs::Empty;
                }
                self.as_slice().len()
            }
            Pairs::Many(v) => {
                v.retain_mut(|(_, c)| {
                    *c /= 2;
                    *c > 0
                });
                v.len()
            }
        }
    }

    /// Drop every pair. A heap list keeps its allocation for the frame's
    /// next owner.
    fn clear(&mut self) {
        match self {
            Pairs::Many(v) => v.clear(),
            _ => *self = Pairs::Empty,
        }
    }
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
            self.frames.resize_with(i + 1, Pairs::default);
        }
        self.frames[i].record(accessor, n);
    }

    /// The (accessor, count) pairs of `frame`, sorted by accessor.
    fn pairs(&self, frame: FrameId) -> &[(AccessorId, u64)] {
        self.frames.get(frame.0 as usize).map_or(&[], Pairs::as_slice)
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
            live += pairs.halve();
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
                pairs.as_slice().iter().map(move |&(accessor, count)| HotFrame {
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
            let pairs = pairs.as_slice();
            if let Ok(k) = pairs.binary_search_by_key(&accessor, |(a, _)| *a) {
                frames += 1;
                accesses += pairs[k].1;
            }
        }
        (frames, accesses)
    }

    /// Number of live (frame, accessor) pairs currently tracked.
    pub fn live_pairs(&self) -> usize {
        self.frames.iter().map(|p| p.as_slice().len()).sum()
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
