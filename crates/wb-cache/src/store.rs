//! Byte-budgeted sharded LRU store.
//!
//! The store is the resident tier of the cache: entries carry an
//! explicit byte weight, each shard owns `budget / shards` bytes, and
//! inserting past the budget evicts least-recently-used entries until
//! the shard fits again. Sharding bounds lock contention during the
//! deadline rush — a worker touching shard 3 never waits on a worker
//! touching shard 7.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use wb_obs::sync::Mutex;

/// Running counters, shared by all shards of one store. Hit/miss
/// accounting lives a layer up in [`crate::cache::CachedMap`], which
/// also sees single-flight coalescing; the store only knows about
/// residency.
#[derive(Debug, Default)]
pub(crate) struct StoreCounters {
    pub evictions: AtomicU64,
    pub resident_bytes: AtomicU64,
    pub entries: AtomicU64,
}

struct Entry<V> {
    value: V,
    bytes: usize,
    tick: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// LRU order: tick → key. Ticks are unique (one global counter),
    /// so this is a faithful recency queue.
    order: BTreeMap<u64, K>,
    bytes: usize,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            bytes: 0,
        }
    }
}

/// A sharded LRU keyed by content hashes, holding clonable values.
pub struct LruStore<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    budget_per_shard: usize,
    budget_total: usize,
    tick: AtomicU64,
    pub(crate) counters: StoreCounters,
}

impl<K: Hash + Eq + Clone, V: Clone> LruStore<K, V> {
    /// Create a store with a total byte budget split over `shards`
    /// shards. The shard count is clamped to `[1, budget]` so that
    /// `shards × per-shard budget` never exceeds the total budget —
    /// with more shards than bytes, a 1-byte-per-shard floor would
    /// quietly overshoot it.
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, budget_bytes.max(1));
        let mut v = Vec::with_capacity(shards);
        v.resize_with(shards, || Mutex::new(Shard::default()));
        LruStore {
            budget_per_shard: (budget_bytes / shards).max(1),
            budget_total: budget_bytes,
            shards: v,
            tick: AtomicU64::new(0),
            counters: StoreCounters::default(),
        }
    }

    /// Total byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_total
    }

    /// Bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.counters.resident_bytes.load(Ordering::Relaxed) as usize
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.counters.entries.load(Ordering::Relaxed) as usize
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let tick = self.next_tick();
        let mut g = self.shard_of(key).lock();
        let entry = g.map.get_mut(key)?;
        let old = entry.tick;
        entry.tick = tick;
        let value = entry.value.clone();
        g.order.remove(&old);
        g.order.insert(tick, key.clone());
        Some(value)
    }

    /// Peek without touching recency or counters (metrics/tests).
    pub fn peek(&self, key: &K) -> Option<V> {
        let g = self.shard_of(key).lock();
        g.map.get(key).map(|e| e.value.clone())
    }

    /// Insert a value with an explicit byte weight, evicting LRU
    /// entries until the shard is back under its budget. An entry
    /// heavier than the whole shard budget is evicted immediately —
    /// the value still reaches the caller, it just never becomes
    /// resident.
    pub fn insert(&self, key: K, value: V, bytes: usize) {
        let tick = self.next_tick();
        let mut g = self.shard_of(&key).lock();
        if let Some(old) = g.map.remove(&key) {
            g.order.remove(&old.tick);
            g.bytes -= old.bytes;
            self.counters
                .resident_bytes
                .fetch_sub(old.bytes as u64, Ordering::Relaxed);
            self.counters.entries.fetch_sub(1, Ordering::Relaxed);
        }
        g.map.insert(key.clone(), Entry { value, bytes, tick });
        g.order.insert(tick, key);
        g.bytes += bytes;
        self.counters
            .resident_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.counters.entries.fetch_add(1, Ordering::Relaxed);
        while g.bytes > self.budget_per_shard {
            let Some((&oldest, _)) = g.order.iter().next() else {
                break;
            };
            let victim = g.order.remove(&oldest).expect("tick present");
            let entry = g.map.remove(&victim).expect("order and map agree");
            g.bytes -= entry.bytes;
            self.counters
                .resident_bytes
                .fetch_sub(entry.bytes as u64, Ordering::Relaxed);
            self.counters.entries.fetch_sub(1, Ordering::Relaxed);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert() {
        let s: LruStore<u64, String> = LruStore::new(1024, 4);
        assert_eq!(s.get(&1), None);
        s.insert(1, "one".into(), 3);
        assert_eq!(s.get(&1).as_deref(), Some("one"));
        assert_eq!(s.resident_bytes(), 3);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Single shard so the recency order is global.
        let s: LruStore<u64, u64> = LruStore::new(30, 1);
        s.insert(1, 10, 10);
        s.insert(2, 20, 10);
        s.insert(3, 30, 10);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(s.get(&1).is_some());
        s.insert(4, 40, 10);
        assert!(s.peek(&2).is_none(), "LRU entry evicted");
        assert!(s.peek(&1).is_some());
        assert!(s.peek(&3).is_some());
        assert!(s.peek(&4).is_some());
        assert_eq!(s.counters.evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn budget_never_exceeded() {
        let s: LruStore<u64, Vec<u8>> = LruStore::new(100, 4);
        for k in 0..1000u64 {
            s.insert(k, vec![0; 7], 7);
            assert!(
                s.resident_bytes() <= 100,
                "resident {} exceeds budget",
                s.resident_bytes()
            );
        }
        assert!(s.counters.evictions.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn oversized_entry_is_evicted_immediately() {
        let s: LruStore<u64, u64> = LruStore::new(16, 1);
        s.insert(1, 1, 1000);
        assert!(s.peek(&1).is_none());
        assert_eq!(s.resident_bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn reinsert_replaces_weight() {
        let s: LruStore<u64, u64> = LruStore::new(100, 1);
        s.insert(1, 1, 40);
        s.insert(1, 2, 10);
        assert_eq!(s.resident_bytes(), 10);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&1), Some(2));
    }
}
