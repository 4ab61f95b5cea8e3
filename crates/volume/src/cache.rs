//! Decoded-chunk cache with CLOCK eviction.
//!
//! Declustered chunks touched by overlapping ROI / tile ranges of a
//! file-backed source ([`DiskStore`](crate::DiskStore)) should be read and
//! decoded **once**. The cache holds decoded chunk grids behind `Arc`s keyed
//! by `(species, timestep, chunk)`, bounded by a byte capacity, and evicts
//! with the CLOCK (second-chance) policy: an approximation of LRU that
//! needs no per-access list surgery, just a referenced bit flipped on hit
//! and swept by a rotating hand on eviction.
//!
//! A hit hands back an `Arc` clone — zero data copies, zero allocations —
//! which is what lets a warm-cache delivery path stay allocation-free
//! (see the counting-allocator proof in the framework's test suite). The
//! cache is `Sync`, so one instance can serve every reader copy of a run.
//! The application's in-memory read path does not use it: it cuts chunks
//! from a resident field, where a cache would only hold a second copy.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::chunks::ChunkId;
use crate::grid::RectGrid;

/// Cache key: one chunk of one (species, timestep) field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Species index.
    pub species: u32,
    /// Timestep index.
    pub timestep: u32,
    /// The chunk.
    pub chunk: ChunkId,
}

/// Counter snapshot of a [`ChunkCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls served from the cache.
    pub hits: u64,
    /// `get` calls that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries accepted by `insert`.
    pub insertions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let l = self.lookups();
        if l == 0 {
            0.0
        } else {
            self.hits as f64 / l as f64
        }
    }
}

struct Slot {
    key: CacheKey,
    grid: Arc<RectGrid>,
    bytes: u64,
    referenced: bool,
}

struct CacheState {
    map: HashMap<CacheKey, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    resident: u64,
}

/// Byte-capacity-bounded chunk cache with CLOCK eviction. See the module
/// docs.
pub struct ChunkCache {
    capacity: u64,
    st: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl ChunkCache {
    /// A cache holding at most `capacity_bytes` of decoded chunk data.
    pub fn new(capacity_bytes: u64) -> Arc<ChunkCache> {
        Arc::new(ChunkCache {
            capacity: capacity_bytes,
            st: Mutex::new(CacheState {
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                hand: 0,
                resident: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        })
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Look `key` up, marking it recently used on a hit. The returned
    /// `Arc` clone shares the cached grid — no copy, no allocation.
    pub fn get(&self, key: CacheKey) -> Option<Arc<RectGrid>> {
        let mut st = self.st.lock();
        let hit = st
            .map
            .get(&key)
            .copied()
            .and_then(|i| st.slots.get_mut(i))
            .and_then(|s| s.as_mut())
            .map(|slot| {
                slot.referenced = true;
                slot.grid.clone()
            });
        drop(st);
        match hit {
            Some(grid) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(grid)
            }
            // A mapping to a vacated slot would land here too — counted
            // as a miss rather than a panic (the caller just re-reads).
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert `grid` under `key`, evicting via CLOCK until it fits.
    /// Returns `false` (and caches nothing) when the entry alone exceeds
    /// the whole capacity; re-inserting an existing key refreshes it.
    pub fn insert(&self, key: CacheKey, grid: Arc<RectGrid>) -> bool {
        let bytes = grid.dims.byte_size();
        if bytes > self.capacity {
            return false;
        }
        let mut st = self.st.lock();
        if let Some(&i) = st.map.get(&key) {
            // A refresh may grow the entry past what fits alongside the
            // other residents: drop the old entry and fall through to the
            // fresh-insert path, which evicts until the new size fits. A
            // mapping to an already-vacant slot only needs unmapping.
            if let Some(old) = st.slots.get_mut(i).and_then(Option::take) {
                st.resident -= old.bytes;
            }
            st.free.push(i);
            st.map.remove(&key);
        }
        let mut evicted = 0u64;
        while st.resident + bytes > self.capacity {
            self.evict_one(&mut st);
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        let idx = match st.free.pop() {
            Some(i) => i,
            None => {
                st.slots.push(None);
                st.slots.len() - 1
            }
        };
        st.slots[idx] = Some(Slot {
            key,
            grid,
            bytes,
            referenced: true,
        });
        st.map.insert(key, idx);
        st.resident += bytes;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// CLOCK sweep: rotate the hand, clearing referenced bits, until an
    /// unreferenced occupied slot is found; evict it. Terminates because
    /// each occupied slot's bit is cleared at most once per sweep.
    fn evict_one(&self, st: &mut CacheState) {
        debug_assert!(st.resident > 0, "evict called on an empty cache");
        loop {
            let n = st.slots.len();
            let i = st.hand % n.max(1);
            st.hand = (i + 1) % n.max(1);
            let Some(slot) = st.slots[i].as_mut() else {
                continue;
            };
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            let key = slot.key;
            let bytes = slot.bytes;
            st.slots[i] = None;
            st.free.push(i);
            st.map.remove(&key);
            st.resident -= bytes;
            return;
        }
    }

    /// Counter snapshot (consistent enough for reporting; counters are
    /// independently atomic).
    pub fn stats(&self) -> CacheStats {
        let resident = self.st.lock().resident;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            resident_bytes: resident,
            capacity_bytes: self.capacity,
        }
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.st.lock().resident
    }
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ChunkCache")
            .field("capacity_bytes", &s.capacity_bytes)
            .field("resident_bytes", &s.resident_bytes)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::grid::Dims;

    fn grid(n: u32) -> Arc<RectGrid> {
        Arc::new(RectGrid::filled(Dims::new(n, n, n), 1.0))
    }

    fn key(c: u32) -> CacheKey {
        CacheKey {
            species: 0,
            timestep: 0,
            chunk: ChunkId(c),
        }
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = ChunkCache::new(1 << 20);
        assert!(cache.get(key(1)).is_none());
        cache.insert(key(1), grid(4));
        assert!(cache.get(key(1)).is_some());
        assert!(cache.get(key(2)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.lookups(), 3);
        assert_eq!(s.resident_bytes, Dims::new(4, 4, 4).byte_size());
    }

    #[test]
    fn capacity_is_respected_via_clock_eviction() {
        let one = Dims::new(4, 4, 4).byte_size();
        let cache = ChunkCache::new(one * 2);
        cache.insert(key(1), grid(4));
        cache.insert(key(2), grid(4));
        assert_eq!(cache.resident_bytes(), one * 2);
        // Third entry forces an eviction; resident never exceeds capacity.
        cache.insert(key(3), grid(4));
        let s = cache.stats();
        assert_eq!(s.resident_bytes, one * 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.insertions, 3);
    }

    #[test]
    fn clock_gives_recently_used_entries_a_second_chance() {
        let one = Dims::new(4, 4, 4).byte_size();
        let cache = ChunkCache::new(one * 3);
        cache.insert(key(1), grid(4));
        cache.insert(key(2), grid(4));
        cache.insert(key(3), grid(4));
        // Full: this sweep clears every referenced bit and evicts key 1
        // (first unreferenced slot the hand finds on its second lap).
        cache.insert(key(4), grid(4));
        assert!(cache.get(key(1)).is_none(), "oldest entry evicted");
        // Key 2 is now the first slot ahead of the hand with a clear bit —
        // next in line for eviction. Touch it: the hand must skip it and
        // take key 3 instead.
        assert!(cache.get(key(2)).is_some());
        cache.insert(key(5), grid(4));
        assert!(
            cache.get(key(2)).is_some(),
            "referenced entry got its second chance"
        );
        assert!(cache.get(key(3)).is_none(), "unreferenced entry evicted");
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let cache = ChunkCache::new(16);
        assert!(!cache.insert(key(1), grid(8)));
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let cache = ChunkCache::new(1 << 20);
        cache.insert(key(1), grid(4));
        cache.insert(key(1), grid(5));
        let s = cache.stats();
        assert_eq!(s.resident_bytes, Dims::new(5, 5, 5).byte_size());
        let g = cache.get(key(1)).unwrap();
        assert_eq!(g.dims, Dims::new(5, 5, 5));
    }

    #[test]
    fn refresh_growth_evicts_instead_of_overshooting_capacity() {
        let small = Dims::new(4, 4, 4).byte_size();
        let large = Dims::new(6, 6, 6).byte_size();
        let cache = ChunkCache::new(large);
        cache.insert(key(1), grid(4));
        cache.insert(key(2), grid(4));
        assert_eq!(cache.resident_bytes(), small * 2);
        // Growing key 1 to the full capacity must evict key 2, not push
        // resident past the bound.
        assert!(cache.insert(key(1), grid(6)));
        let s = cache.stats();
        assert!(s.resident_bytes <= s.capacity_bytes);
        assert_eq!(cache.get(key(1)).unwrap().dims, Dims::new(6, 6, 6));
        assert!(cache.get(key(2)).is_none(), "smaller entry was evicted");
    }

    #[test]
    fn hits_share_the_arc_without_copying() {
        let cache = ChunkCache::new(1 << 20);
        let g = grid(4);
        cache.insert(key(1), g.clone());
        let h = cache.get(key(1)).unwrap();
        assert!(Arc::ptr_eq(&g, &h), "hit is the same allocation");
    }
}
