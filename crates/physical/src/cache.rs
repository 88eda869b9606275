//! Server-local page cache over the physical pool.
//!
//! The "Physical cache" configuration of §4.1: each server's small local
//! memory acts as a cache of pooled frames. A miss pays an upfront
//! `memcpy()` of the whole frame from the pool across the fabric; hits are
//! then served at local DRAM speed. Capacity misses evict LRU frames — for
//! a scanned vector larger than the cache this degenerates to re-fetching
//! every frame every pass, which is exactly why the paper's Figure 3/4 show
//! the cache configuration losing to the logical pool.

use crate::pool::PhysicalPool;
use lmp_fabric::{Fabric, NodeId};
use lmp_mem::{DramChannel, DramProfile, FrameId, FRAME_BYTES};
use lmp_sim::prelude::*;

/// Result of one cached access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedAccess {
    /// When the access completes at the server.
    pub complete: SimTime,
    /// Whether the frame was already cached.
    pub hit: bool,
    /// Frame evicted to make room, if any.
    pub evicted: Option<FrameId>,
}

/// What the cache does with a miss once it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Keep what is already cached; further misses bypass the cache and
    /// read only the requested bytes remotely. This matches the paper's
    /// "upfront memcpy, faster subsequent reads" behaviour and its measured
    /// numbers: scanning a vector larger than the cache serves the cached
    /// prefix locally every pass instead of thrashing.
    PinUntilFull,
    /// Classic LRU: evict the least-recently-used frame and admit the new
    /// one. Under a cyclic scan larger than the cache this degrades to a
    /// 0% hit rate (the ablation worth showing).
    Lru,
}

/// How the cache serves an access to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePath {
    /// Resident: served from local DRAM.
    Hit,
    /// A miss with room to spare: the frame is copied in, then served.
    Admit,
    /// A miss on a full [`AdmissionPolicy::PinUntilFull`] cache: only
    /// the requested bytes are read from the pool.
    Bypass,
    /// A miss on a full [`AdmissionPolicy::Lru`] cache: the least
    /// recently used frame makes room, then the frame is admitted.
    Evict,
}

/// A server's local-memory cache of pooled frames (frame granularity).
#[derive(Debug)]
pub struct PoolCache {
    server: NodeId,
    capacity_frames: u64,
    policy: AdmissionPolicy,
    /// LRU stamp per pooled frame id, 0 = not resident. Grows on demand to
    /// the highest frame admitted.
    stamps: Vec<u64>,
    /// Frames currently resident (nonzero stamps).
    resident: u64,
    /// Stamp of the latest access; starts at 0, so stamps are ≥ 1.
    clock: u64,
    local_dram: DramChannel,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    upfront_bytes: Counter,
}

impl PoolCache {
    /// A cache of `capacity_bytes` of local memory on `server`, with the
    /// paper-matching [`AdmissionPolicy::PinUntilFull`] policy.
    ///
    /// # Panics
    /// Panics when the capacity is smaller than one frame.
    pub fn new(server: NodeId, capacity_bytes: u64, profile: DramProfile) -> Self {
        Self::with_policy(server, capacity_bytes, profile, AdmissionPolicy::PinUntilFull)
    }

    /// A cache with an explicit admission policy.
    ///
    /// # Panics
    /// Panics when the capacity is smaller than one frame.
    pub fn with_policy(
        server: NodeId,
        capacity_bytes: u64,
        profile: DramProfile,
        policy: AdmissionPolicy,
    ) -> Self {
        let capacity_frames = capacity_bytes / FRAME_BYTES;
        // lmp-lint: allow(no-panic) — ctor precondition: a cache smaller than
        // one frame can hold nothing; a sizing bug.
        assert!(capacity_frames > 0, "cache smaller than one frame");
        PoolCache {
            server,
            capacity_frames,
            policy,
            stamps: Vec::new(),
            resident: 0,
            clock: 0,
            local_dram: DramChannel::new(profile),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            upfront_bytes: Counter::new(),
        }
    }

    /// Capacity in frames.
    pub fn capacity_frames(&self) -> u64 {
        self.capacity_frames
    }

    /// Frames currently resident.
    pub fn resident_frames(&self) -> u64 {
        self.resident
    }

    /// Admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Whether `frame` is resident.
    pub fn is_resident(&self, frame: FrameId) -> bool {
        self.stamps.get(frame.0 as usize).is_some_and(|s| *s != 0)
    }

    /// How an access to `frame` would be served now.
    pub fn path(&self, frame: FrameId) -> CachePath {
        if self.is_resident(frame) {
            CachePath::Hit
        } else if self.resident < self.capacity_frames {
            CachePath::Admit
        } else {
            match self.policy {
                AdmissionPolicy::PinUntilFull => CachePath::Bypass,
                AdmissionPolicy::Lru => CachePath::Evict,
            }
        }
    }

    /// Account an access to `frame` served by `path` (from
    /// [`PoolCache::path`]), without timing it: the LRU clock, the
    /// frame's stamp and residency, and the counters. Returns the frame
    /// evicted to make room, if any.
    // Eviction only runs when the cache is full, so some stamp is nonzero
    // and min_by_key always yields a victim.
    #[allow(clippy::expect_used)]
    pub fn note(&mut self, frame: FrameId, path: CachePath) -> Option<FrameId> {
        self.clock += 1;
        let mut evicted = None;
        match path {
            CachePath::Hit => self.hits.inc(),
            CachePath::Bypass => self.misses.inc(),
            CachePath::Admit | CachePath::Evict => {
                self.misses.inc();
                if path == CachePath::Evict {
                    // Evict the least-recently-used frame (deterministic
                    // tie-break by frame id).
                    let victim = self
                        .stamps
                        .iter()
                        .enumerate()
                        .filter(|(_, stamp)| **stamp != 0)
                        .min_by_key(|(f, stamp)| (**stamp, *f))
                        .map(|(f, _)| FrameId(f as u64))
                        // lmp-lint: allow(no-panic) — the eviction branch only
                        // runs when the cache is full, so some stamp is
                        // structurally nonzero.
                        .expect("cache full implies non-empty");
                    self.evict(&[victim]);
                    self.evictions.inc();
                    evicted = Some(victim);
                }
                self.upfront_bytes.add(FRAME_BYTES);
                let slot = frame.0 as usize;
                if slot >= self.stamps.len() {
                    self.stamps.resize(slot + 1, 0);
                }
                self.resident += 1;
            }
        }
        if path != CachePath::Bypass {
            if let Some(stamp) = self.stamps.get_mut(frame.0 as usize) {
                *stamp = self.clock;
            }
        }
        evicted
    }

    /// Access `bytes` within pooled `frame`. On a miss the whole frame is
    /// copied from the pool first (the upfront memcpy), then the access is
    /// served from local memory.
    pub fn access(
        &mut self,
        fabric: &mut Fabric,
        pool: &mut PhysicalPool,
        now: SimTime,
        frame: FrameId,
        bytes: u64,
    ) -> CachedAccess {
        let path = self.path(frame);
        let evicted = self.note(frame, path);
        let complete = match path {
            CachePath::Hit => self.local_dram.access(now, bytes).complete,
            // Bypass: serve only the requested bytes remotely and leave
            // the cache contents intact.
            CachePath::Bypass => pool.read(fabric, now, self.server, bytes, Some(frame)).complete,
            CachePath::Admit | CachePath::Evict => {
                // Upfront memcpy of the whole frame from the pool, then
                // writing it into local memory and serving the requested
                // bytes from it.
                let fetch = pool.read(fabric, now, self.server, FRAME_BYTES, Some(frame));
                let fill = self.local_dram.access(fetch.complete, FRAME_BYTES);
                self.local_dram.access(fill.complete, bytes).complete
            }
        };
        CachedAccess {
            complete,
            hit: path == CachePath::Hit,
            evicted,
        }
    }

    /// The local DRAM the cache serves from.
    pub fn local_dram(&self) -> &DramChannel {
        &self.local_dram
    }

    /// Mutable local DRAM (repeated access patterns are charged in bulk).
    pub fn local_dram_mut(&mut self) -> &mut DramChannel {
        &mut self.local_dram
    }

    /// Cache hits so far.
    pub fn hit_count(&self) -> u64 {
        self.hits.get()
    }
    /// Cache misses so far.
    pub fn miss_count(&self) -> u64 {
        self.misses.get()
    }
    /// Evictions so far.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.get()
    }
    /// Bytes copied upfront from the pool.
    pub fn upfront_copy_bytes(&self) -> u64 {
        self.upfront_bytes.get()
    }

    /// Drop every resident frame of `frames` from the cache (their pool
    /// frames were freed); stops as soon as the cache is empty. Not
    /// counted in [`Self::eviction_count`], which counts capacity
    /// evictions only.
    pub fn evict(&mut self, frames: &[FrameId]) {
        for f in frames {
            if self.resident == 0 {
                return;
            }
            if let Some(stamp) = self.stamps.get_mut(f.0 as usize).filter(|s| **s != 0) {
                *stamp = 0;
                self.resident -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_fabric::LinkProfile;
    use lmp_mem::DramProfile;
    use lmp_sim::units::GIB;

    fn setup(cache_frames: u64) -> (Fabric, PhysicalPool, PoolCache) {
        let fabric = Fabric::new(LinkProfile::link1(), 5);
        let pool = PhysicalPool::new(NodeId(4), GIB, DramProfile::xeon_gold_5120());
        let cache = PoolCache::new(
            NodeId(0),
            cache_frames * FRAME_BYTES,
            DramProfile::xeon_gold_5120(),
        );
        (fabric, pool, cache)
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let (mut fabric, mut pool, mut cache) = setup(4);
        let f = pool.alloc_frames(1).unwrap()[0];
        let a = cache.access(&mut fabric, &mut pool, SimTime::ZERO, f, 64);
        assert!(!a.hit);
        let b = cache.access(&mut fabric, &mut pool, a.complete, f, 64);
        assert!(b.hit);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn hits_are_much_faster_than_misses() {
        let (mut fabric, mut pool, mut cache) = setup(4);
        let f = pool.alloc_frames(1).unwrap()[0];
        let miss = cache.access(&mut fabric, &mut pool, SimTime::ZERO, f, 64);
        let miss_time = miss.complete.as_nanos();
        let hit = cache.access(&mut fabric, &mut pool, miss.complete, f, 64);
        let hit_time = hit.complete.as_nanos() - miss.complete.as_nanos();
        // Miss pays a 2 MiB transfer at 21 GB/s (~100us); hit is ~100ns.
        assert!(miss_time > 50 * hit_time, "miss {miss_time} vs hit {hit_time}");
    }

    #[test]
    fn lru_scan_larger_than_cache_thrashes() {
        let (mut fabric, mut pool, _) = setup(2);
        let mut cache = PoolCache::with_policy(
            NodeId(0),
            2 * FRAME_BYTES,
            DramProfile::xeon_gold_5120(),
            AdmissionPolicy::Lru,
        );
        let frames = pool.alloc_frames(4).unwrap();
        let mut now = SimTime::ZERO;
        // Two full passes over 4 frames with a 2-frame cache: every access
        // misses (classic LRU scan pathology).
        for _pass in 0..2 {
            for &f in &frames {
                let a = cache.access(&mut fabric, &mut pool, now, f, 64);
                assert!(!a.hit);
                now = a.complete;
            }
        }
        assert_eq!(cache.miss_count(), 8);
        assert_eq!(cache.hit_count(), 0);
        assert_eq!(cache.eviction_count(), 6);
    }

    #[test]
    fn pinned_scan_keeps_prefix_resident() {
        let (mut fabric, mut pool, mut cache) = setup(2);
        let frames = pool.alloc_frames(4).unwrap();
        let mut now = SimTime::ZERO;
        // First pass: 2 frames admitted, 2 bypass. Later passes: the
        // admitted prefix hits every time — the paper's cache behaviour.
        for pass in 0..3 {
            for (i, &f) in frames.iter().enumerate() {
                let a = cache.access(&mut fabric, &mut pool, now, f, 64);
                assert_eq!(a.hit, pass > 0 && i < 2, "pass {pass} frame {i}");
                now = a.complete;
            }
        }
        assert_eq!(cache.hit_count(), 4);
        assert_eq!(cache.eviction_count(), 0);
        assert_eq!(cache.resident_frames(), 2);
        // Only the two admitted frames were memcpy'd.
        assert_eq!(cache.upfront_copy_bytes(), 2 * FRAME_BYTES);
    }

    #[test]
    fn working_set_fitting_in_cache_stays_resident() {
        let (mut fabric, mut pool, mut cache) = setup(4);
        let frames = pool.alloc_frames(3).unwrap();
        let mut now = SimTime::ZERO;
        for pass in 0..5 {
            for &f in &frames {
                let a = cache.access(&mut fabric, &mut pool, now, f, 64);
                assert_eq!(a.hit, pass > 0);
                now = a.complete;
            }
        }
        assert_eq!(cache.miss_count(), 3);
        assert_eq!(cache.hit_count(), 12);
        assert_eq!(cache.eviction_count(), 0);
    }

    fn cache_with(policy: AdmissionPolicy, frames: u64) -> PoolCache {
        PoolCache::with_policy(
            NodeId(0),
            frames * FRAME_BYTES,
            DramProfile::xeon_gold_5120(),
            policy,
        )
    }

    #[test]
    fn far_apart_frames_are_tracked_independently() {
        for policy in [AdmissionPolicy::PinUntilFull, AdmissionPolicy::Lru] {
            let (mut fabric, mut pool, _) = setup(2);
            let mut cache = cache_with(policy, 2);
            let (lo, hi) = (FrameId(3), FrameId(30_000));
            let mut now = SimTime::ZERO;
            for (f, hit) in [(hi, false), (lo, false), (hi, true), (lo, true)] {
                let a = cache.access(&mut fabric, &mut pool, now, f, 64);
                assert_eq!(a.hit, hit, "{policy:?} {f:?}");
                now = a.complete;
            }
            assert_eq!(cache.resident_frames(), 2, "{policy:?}");
            // Evicting one frame leaves the other resident; evicting a
            // frame that is not resident is a no-op.
            cache.evict(&[hi, hi, FrameId(7)]);
            assert_eq!(cache.resident_frames(), 1, "{policy:?}");
            assert_eq!(cache.eviction_count(), 0, "{policy:?}");
            assert!(cache.access(&mut fabric, &mut pool, now, lo, 64).hit);
            // The freed slot admits the next miss.
            let a = cache.access(&mut fabric, &mut pool, now, FrameId(70), 64);
            assert!(!a.hit && a.evicted.is_none(), "{policy:?}");
            assert_eq!(cache.resident_frames(), 2, "{policy:?}");
            assert!(
                cache
                    .access(&mut fabric, &mut pool, a.complete, FrameId(70), 64)
                    .hit
            );
        }
    }

    #[test]
    fn lru_evicts_oldest_stamp_not_lowest_frame() {
        let (mut fabric, mut pool, _) = setup(2);
        let mut cache = cache_with(AdmissionPolicy::Lru, 2);
        let mut now = SimTime::ZERO;
        for f in [3, 30_000, 3] {
            now = cache
                .access(&mut fabric, &mut pool, now, FrameId(f), 64)
                .complete;
        }
        let a = cache.access(&mut fabric, &mut pool, now, FrameId(70), 64);
        assert_eq!(a.evicted, Some(FrameId(30_000)));
        let b = cache.access(&mut fabric, &mut pool, a.complete, FrameId(30_000), 64);
        assert_eq!(b.evicted, Some(FrameId(3)));
        assert_eq!(cache.resident_frames(), 2);
        assert_eq!(cache.eviction_count(), 2);
    }

    #[test]
    fn pinned_cache_bypasses_until_a_frame_is_evicted() {
        let (mut fabric, mut pool, _) = setup(2);
        let mut cache = cache_with(AdmissionPolicy::PinUntilFull, 2);
        let mut now = SimTime::ZERO;
        for f in [3, 30_000, 70] {
            now = cache
                .access(&mut fabric, &mut pool, now, FrameId(f), 64)
                .complete;
        }
        assert_eq!(cache.resident_frames(), 2);
        assert!(
            !cache
                .access(&mut fabric, &mut pool, now, FrameId(70), 64)
                .hit
        );
        cache.evict(&[FrameId(3)]);
        let a = cache.access(&mut fabric, &mut pool, now, FrameId(70), 64);
        assert!(!a.hit);
        assert!(
            cache
                .access(&mut fabric, &mut pool, a.complete, FrameId(70), 64)
                .hit
        );
        assert_eq!(cache.resident_frames(), 2);
    }

    #[test]
    fn upfront_bytes_accounts_full_frames() {
        let (mut fabric, mut pool, mut cache) = setup(4);
        let f = pool.alloc_frames(1).unwrap()[0];
        cache.access(&mut fabric, &mut pool, SimTime::ZERO, f, 1);
        assert_eq!(cache.upfront_copy_bytes(), FRAME_BYTES);
    }
}
