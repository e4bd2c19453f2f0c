//! Sharded, capacity-bounded LRU memo for per-seed-set artifacts.
//!
//! The engine memoizes one expanded compact representation (plus its
//! prepared [`crate::diversify::Diversifier`]) per distinct seed set. A
//! single global `Mutex<HashMap>` serializes every request — including pure
//! cache hits — as soon as suggestions are served from several threads. This
//! cache splits the key space across `N` shards, each behind its own
//! [`parking_lot::Mutex`], so concurrent requests for different seed sets
//! proceed without contention, and bounds total residency with per-shard LRU
//! eviction so a long tail of one-off seed sets cannot grow memory without
//! limit.
//!
//! Values are handed out as `Arc<V>`: a hit clones the handle and releases
//! the shard lock immediately, so eviction never invalidates a value a
//! request is still using. The (potentially expensive) miss computation runs
//! *outside* the lock; two racing threads may both compute the value for the
//! same key, but the first insert wins and both observe the same entry —
//! results stay deterministic because the computation itself is.

use parking_lot::Mutex;
use std::collections::hash_map::{DefaultHasher, Entry as MapEntry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sizing knobs for [`ShardedLruCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to at least 1). More shards
    /// mean less lock contention; 8–16 covers typical serving fan-out.
    pub shards: usize,
    /// Maximum resident entries across all shards (at least `shards`; each
    /// shard holds `capacity / shards`, rounded up).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            capacity: 512,
        }
    }
}

/// Counters exposed by [`ShardedLruCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Requests whose Algorithm 1 selection was resident in their memo
    /// entry (filled by `PqsDa::cache_stats`; 0 from a bare cache).
    pub selection_hits: u64,
    /// Requests that ran Algorithm 1 and stored its selection.
    pub selection_misses: u64,
}

struct Slot<V> {
    value: Arc<V>,
    /// Tick of the last lookup that touched this entry (global monotonic
    /// counter, not wall time — cheap and totally ordered).
    last_used: u64,
}

/// A concurrent memo: `N` LRU shards, each behind its own mutex.
pub struct ShardedLruCache<K, V> {
    shards: Vec<Mutex<HashMap<K, Slot<V>>>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq, V> ShardedLruCache<K, V> {
    /// An empty cache sized by `config`.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard_capacity = config.capacity.max(shards).div_ceil(shards);
        ShardedLruCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the cached value for `key`, computing it with `compute` on a
    /// miss. The computation runs without holding any lock; on a racing
    /// double-compute the first insert wins and all callers get that entry.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        let shard = &self.shards[self.shard_of(&key)];
        if let Some(slot) = shard.lock().get_mut(&key) {
            slot.last_used = self.next_tick();
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(&slot.value);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        let mut map = shard.lock();
        match map.entry(key) {
            MapEntry::Occupied(mut occupied) => {
                // Lost the race; keep the resident entry.
                let slot = occupied.get_mut();
                slot.last_used = self.next_tick();
                Arc::clone(&slot.value)
            }
            MapEntry::Vacant(vacant) => {
                let out = Arc::clone(&value);
                vacant.insert(Slot {
                    value,
                    last_used: self.next_tick(),
                });
                if map.len() > self.per_shard_capacity {
                    self.evict_lru(&mut map);
                }
                out
            }
        }
    }

    /// Evicts the least-recently-used entry of one shard. Ticks are unique
    /// (a global monotonic counter), so the minimum identifies exactly one
    /// entry; the linear scan is fine because shards stay small by
    /// construction.
    fn evict_lru(&self, map: &mut HashMap<K, Slot<V>>) {
        if let Some(min_tick) = map.values().map(|s| s.last_used).min() {
            map.retain(|_, s| s.last_used != min_tick);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts an already-wrapped value, evicting LRU entries if the shard
    /// overflows — the delta-application path, which carries surviving
    /// entries from the previous engine's memo into the new one.
    pub fn insert(&self, key: K, value: Arc<V>) {
        let shard = &self.shards[self.shard_of(&key)];
        let mut map = shard.lock();
        map.insert(
            key,
            Slot {
                value,
                last_used: self.next_tick(),
            },
        );
        if map.len() > self.per_shard_capacity {
            self.evict_lru(&mut map);
        }
    }

    /// Snapshots every resident entry as `(key, value)` pairs, in shard
    /// order. Handles are cheap clones; the cache itself is unchanged.
    pub fn entries(&self) -> Vec<(K, Arc<V>)>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.lock();
            out.extend(map.iter().map(|(k, s)| (k.clone(), Arc::clone(&s.value))));
        }
        out
    }

    /// Drops every entry for which `pred` returns false, returning how
    /// many were removed (scoped invalidation after a graph delta).
    pub fn retain(&self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut map = shard.lock();
            let before = map.len();
            map.retain(|k, slot| pred(k, &slot.value));
            removed += before - map.len();
        }
        removed
    }

    /// Total resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..CacheStats::default()
        }
    }

    /// Maximum entries one shard retains before evicting.
    pub fn per_shard_capacity(&self) -> usize {
        self.per_shard_capacity
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss_returns_same_value() {
        let cache: ShardedLruCache<u32, String> = ShardedLruCache::new(CacheConfig::default());
        let a = cache.get_or_insert_with(1, || "one".to_string());
        let b = cache.get_or_insert_with(1, || unreachable!("must be a hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn capacity_bounds_residency() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(CacheConfig {
            shards: 2,
            capacity: 4,
        });
        for k in 0..100u32 {
            cache.get_or_insert_with(k, || k * 10);
        }
        assert!(
            cache.len() <= cache.num_shards() * cache.per_shard_capacity(),
            "len = {}",
            cache.len()
        );
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn lru_keeps_recently_used_entries() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        cache.get_or_insert_with(1, || 1);
        cache.get_or_insert_with(2, || 2);
        cache.get_or_insert_with(1, || unreachable!()); // refresh 1
        cache.get_or_insert_with(3, || 3); // evicts 2
        let mut recomputed = false;
        cache.get_or_insert_with(1, || {
            recomputed = true;
            1
        });
        assert!(!recomputed, "entry 1 must have survived the eviction");
    }

    #[test]
    fn evicted_handles_stay_alive() {
        let cache: ShardedLruCache<u32, Vec<u8>> = ShardedLruCache::new(CacheConfig {
            shards: 1,
            capacity: 1,
        });
        let held = cache.get_or_insert_with(1, || vec![42]);
        cache.get_or_insert_with(2, || vec![43]); // evicts key 1
        assert_eq!(held[0], 42, "Arc keeps the value alive past eviction");
    }
}
