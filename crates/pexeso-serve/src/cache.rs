//! Sharded LRU result cache.
//!
//! PEXESO queries are expensive to answer and cheap to replay: the result
//! of `(query fingerprint, τ, T/k, metric, snapshot generation)` never
//! changes while the snapshot is live, so the daemon memoises replies.
//! Keys are 64-bit fingerprints (see
//! [`crate::protocol::query_fingerprint`]); the snapshot generation is
//! folded into the key *and* the cache is cleared wholesale on hot swap —
//! the key keeps a stale entry from ever being served during the swap
//! window, the clear releases the memory.
//!
//! The cache is sharded by key so concurrent workers rarely contend on the
//! same mutex. Each shard is an independent true-LRU list (slab-backed
//! doubly linked list + hash map, O(1) get/insert/evict). A total capacity
//! of 0 disables caching entirely.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use crate::conn::lock_unpoisoned;

const NIL: usize = usize::MAX;

/// Aggregated counters across all shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub len: usize,
    pub capacity: usize,
}

struct Entry<V> {
    key: u64,
    value: V,
    prev: usize,
    next: usize,
}

/// A single-shard LRU cache over `u64` keys. Public so the property tests
/// can drive one shard directly against a model.
pub struct LruCache<V> {
    capacity: usize,
    map: HashMap<u64, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl<V: Clone> LruCache<V> {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slab: Vec::with_capacity(capacity.min(1 << 16)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Unlink `slot` from the recency list (must currently be linked).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    /// Link `slot` at the head (most recently used).
    fn link_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Look a key up, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<V> {
        match self.map.get(&key).copied() {
            Some(slot) => {
                self.hits += 1;
                if self.head != slot {
                    self.unlink(slot);
                    self.link_front(slot);
                }
                Some(self.slab[slot].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a key, evicting the least-recently-used entry
    /// when at capacity. A capacity of 0 makes this a no-op.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slab[slot].value = value;
            if self.head != slot {
                self.unlink(slot);
                self.link_front(slot);
            }
            return;
        }
        if self.map.len() == self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
            self.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s] = Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.slab.push(Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.link_front(slot);
        self.insertions += 1;
    }

    /// Drop every entry; counters survive (they describe lifetime traffic).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most- to least-recently used (test/diagnostic hook).
    pub fn keys_by_recency(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut slot = self.head;
        while slot != NIL {
            keys.push(self.slab[slot].key);
            slot = self.slab[slot].next;
        }
        keys
    }

    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.hits, self.misses, self.insertions, self.evictions)
    }
}

/// The concurrent cache the server uses: `shards` independent LRU shards,
/// each behind its own mutex, selected by key.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<LruCache<V>>>,
}

impl<V: Clone> ShardedCache<V> {
    /// `capacity` is the *total* entry budget, split evenly across
    /// `shards` (each shard gets at least one slot unless capacity is 0).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<LruCache<V>> {
        // Fibonacci-mix before picking the shard: keys are usually good
        // fingerprints already, but the cache must not degenerate to one
        // shard when a caller feeds it structured keys.
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 48) as usize % self.shards.len()]
    }

    /// Lock one shard. A thread that panicked while holding it may have
    /// left the recency links half-updated, so a poisoned shard is emptied
    /// before reuse: the cache may forget, but it never answers wrong.
    fn lock_shard(shard: &Mutex<LruCache<V>>) -> MutexGuard<'_, LruCache<V>> {
        let mut guard = lock_unpoisoned(shard);
        // Only a guard dropped by a panic poisons, and this thread holds
        // the guard: the flag cannot change under the check.
        if shard.is_poisoned() {
            guard.clear();
            shard.clear_poison();
        }
        guard
    }

    pub fn get(&self, key: u64) -> Option<V> {
        Self::lock_shard(self.shard(key)).get(key)
    }

    pub fn insert(&self, key: u64, value: V) {
        Self::lock_shard(self.shard(key)).insert(key, value)
    }

    /// Wholesale invalidation (hot swap).
    pub fn clear(&self) {
        for shard in &self.shards {
            Self::lock_shard(shard).clear();
        }
    }

    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for shard in &self.shards {
            let s = Self::lock_shard(shard);
            let (h, m, i, e) = s.counters();
            out.hits += h;
            out.misses += m;
            out.insertions += i;
            out.evictions += e;
            out.len += s.len();
            out.capacity += s.capacity();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.get(1), Some("a")); // 1 now most recent
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some("a"));
        assert_eq!(c.get(3), Some("c"));
        assert_eq!(c.keys_by_recency(), vec![3, 1]);
        let (hits, misses, insertions, evictions) = c.counters();
        assert_eq!((hits, misses, insertions, evictions), (3, 1, 3, 1));
    }

    #[test]
    fn refresh_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh, 1 becomes most recent
        c.insert(3, 30); // evicts 2, not 1
        assert_eq!(c.get(1), Some(11));
        assert_eq!(c.get(2), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.insert(1, 1);
        assert_eq!(c.get(1), None);
        assert!(c.is_empty());
        let sharded: ShardedCache<u32> = ShardedCache::new(0, 4);
        sharded.insert(9, 9);
        assert_eq!(sharded.get(9), None);
        assert_eq!(sharded.stats().capacity, 0);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let mut c = LruCache::new(4);
        c.insert(1, 1);
        c.get(1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
        let (hits, misses, ..) = c.counters();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn sharded_cache_round_trips_across_shards() {
        // Per-shard capacity 64: even a pathological shard imbalance
        // cannot evict any of the 64 keys.
        let cache = ShardedCache::new(512, 8);
        for key in 0..64u64 {
            cache.insert(key << 48 | key, key);
        }
        for key in 0..64u64 {
            assert_eq!(cache.get(key << 48 | key), Some(key));
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 64);
        assert_eq!(stats.insertions, 64);
        assert_eq!(stats.len, 64);
        cache.clear();
        assert_eq!(cache.stats().len, 0);
    }

    /// A thread that panics while holding one shard costs that shard's
    /// entries, not every later request that lands on it.
    #[test]
    fn a_poisoned_shard_is_emptied_and_reused() {
        let cache = ShardedCache::new(512, 8);
        for key in 0..64u64 {
            cache.insert(key << 48 | key, key);
        }
        let victim = cache.shard(5 << 48 | 5);
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _shard = victim.lock().unwrap();
                panic!("while holding a cache shard");
            })
            .join()
        });
        assert!(holder.is_err() && victim.is_poisoned());
        let lost = (0..64u64)
            .filter(|&key| std::ptr::eq(cache.shard(key << 48 | key), victim))
            .count();
        assert!(lost > 0);

        // `stats` is the first to take the poisoned lock: it empties it.
        let stats = cache.stats();
        assert!(!victim.is_poisoned());
        assert_eq!(stats.len, 64 - lost);
        assert_eq!(stats.insertions, 64);
        for key in 0..64u64 {
            let k = key << 48 | key;
            let in_victim = std::ptr::eq(cache.shard(k), victim);
            assert_eq!(cache.get(k), (!in_victim).then_some(key), "key {key}");
        }
        cache.insert(5 << 48 | 5, 55);
        assert_eq!(cache.get(5 << 48 | 5), Some(55));
        cache.clear();
        assert_eq!(cache.stats().len, 0);
    }
}
