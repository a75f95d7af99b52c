//! The assembled cache: one sharded table per tier, plus counters.
//!
//! [`CachedMap`] is one keyed tier; [`SubmissionCache`] bundles the
//! two tiers a worker needs — compile results keyed by [`CompileKey`]
//! and grade results keyed by [`GradeKey`] — behind one shared handle
//! that a whole cluster can hold as `Arc<SubmissionCache<_>>`.
//!
//! A tier is one table, lock-sharded by key hash so a worker touching
//! shard 3 never waits on a worker touching shard 7. A key's slot is
//! either *ready* (resident, in its shard's LRU order) or *pending* (a
//! leader is computing it). A lookup decides hit, coalesce or lead
//! under one shard lock, and the leader swaps pending for ready under
//! that same lock, so a key is never absent while its value is being
//! computed or once it is resident: each key computes once until the
//! byte budget evicts it.
//!
//! The deadline rush delivers N concurrent, byte-identical submissions
//! (the paper's Figure 1 spike). The first arrival leads; the other
//! N−1 block on the leader's flight and read its value from the flight
//! itself, so they get it even when the budget evicts it at once. A
//! leader that unwinds out of its computation takes its pending slot
//! off the table and abandons the flight: its waiters wake, re-enter
//! and one of them leads afresh.
//!
//! Each shard owns `budget / shards` bytes; publishing past that evicts
//! least-recently-used entries until the shard fits. A value heavier
//! than the whole shard budget reaches the leader and its waiters but
//! is never made resident, and evicts nothing else.
//!
//! The grade tier is generic over its value type `G` because this
//! crate sits *below* the worker crate in the dependency graph: the
//! worker instantiates `G = DatasetOutcome` and supplies the weigher.

use crate::key::{CompileKey, GradeKey};
use minicuda::Program;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use wb_obs::sync::Mutex;

/// A key's place in its shard.
enum Slot<V> {
    /// Resident: counted in the shard's bytes and LRU order.
    Ready { value: V, bytes: usize, tick: u64 },
    /// A leader is computing the value; lookups join its flight.
    Pending(Arc<Flight<V>>),
}

/// How a flight ended, as its waiters see it.
enum Landing<V> {
    Pending,
    Done(V),
    /// The leader unwound before producing a value.
    Abandoned,
}

struct Flight<V> {
    landing: Mutex<Landing<V>>,
    landed: Condvar,
}

impl<V: Clone> Flight<V> {
    /// Block until the leader lands: its value, or `None` if it unwound.
    fn wait(&self) -> Option<V> {
        let landing = self
            .landed
            .wait_while(self.landing.lock(), |l| matches!(l, Landing::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        match &*landing {
            Landing::Done(value) => Some(value.clone()),
            _ => None,
        }
    }
}

struct Shard<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// LRU order of the ready slots: tick → key. Ticks come from the
    /// shard's own clock, so this is a faithful recency queue.
    order: BTreeMap<u64, K>,
    clock: u64,
    /// Bytes held by ready slots.
    bytes: usize,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    /// Make a leader's value resident (replacing its pending slot),
    /// then evict least-recently-used entries until the shard fits.
    fn publish(&mut self, key: &K, value: V, bytes: usize, budget: usize) {
        if bytes > budget {
            // Keeping it would flush the whole shard and still not fit.
            self.slots.remove(key);
            self.evictions += 1;
            return;
        }
        self.clock += 1;
        let tick = self.clock;
        self.slots
            .insert(key.clone(), Slot::Ready { value, bytes, tick });
        self.order.insert(tick, key.clone());
        self.bytes += bytes;
        while self.bytes > budget {
            let (_, victim) = self.order.pop_first().expect("over budget, so not empty");
            if let Some(Slot::Ready { bytes, .. }) = self.slots.remove(&victim) {
                self.bytes -= bytes;
            }
            self.evictions += 1;
        }
    }
}

/// Held by a leader while it computes. Dropping it wakes the flight's
/// waiters; if the leader unwound before landing a value, it first
/// takes the pending slot off the table and marks the flight
/// abandoned, so a woken waiter never meets this flight again.
struct Lead<'a, K: Hash + Eq, V> {
    shard: &'a Mutex<Shard<K, V>>,
    key: &'a K,
    flight: &'a Flight<V>,
}

impl<K: Hash + Eq, V> Drop for Lead<'_, K, V> {
    fn drop(&mut self) {
        if matches!(*self.flight.landing.lock(), Landing::Pending) {
            self.shard.lock().slots.remove(self.key);
            *self.flight.landing.lock() = Landing::Abandoned;
        }
        self.flight.landed.notify_all();
    }
}

/// One cache tier: a byte-budgeted, sharded LRU table whose misses
/// compute once across all concurrent callers.
pub struct CachedMap<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    budget_per_shard: usize,
    budget_total: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> CachedMap<K, V> {
    /// Create a tier with a total byte budget split over `shards`. The
    /// shard count is clamped to `[1, budget]` so that `shards ×
    /// per-shard budget` never exceeds the total budget — with more
    /// shards than bytes, a 1-byte-per-shard floor would quietly
    /// overshoot it.
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, budget_bytes.max(1));
        CachedMap {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: HashMap::new(),
                        order: BTreeMap::new(),
                        clock: 0,
                        bytes: 0,
                        evictions: 0,
                    })
                })
                .collect(),
            budget_per_shard: (budget_bytes / shards).max(1),
            budget_total: budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Serve `key` from cache, or compute it exactly once across all
    /// concurrent callers, reporting how the lookup was served so
    /// callers can annotate job traces. `weigh` prices the freshly
    /// computed value for the byte budget; it only runs on the leader.
    pub fn get_or_compute(
        &self,
        key: K,
        weigh: impl FnOnce(&V) -> usize,
        compute: impl FnOnce() -> V,
    ) -> (V, LookupOutcome) {
        let shard = self.shard(&key);
        loop {
            let (flight, leads) = {
                let mut g = shard.lock();
                let g = &mut *g;
                match g.slots.get_mut(&key) {
                    Some(Slot::Ready { value, tick, .. }) => {
                        let value = value.clone();
                        g.order.remove(tick);
                        g.clock += 1;
                        *tick = g.clock;
                        g.order.insert(g.clock, key);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (value, LookupOutcome::Hit);
                    }
                    Some(Slot::Pending(flight)) => (Arc::clone(flight), false),
                    None => {
                        let flight = Arc::new(Flight {
                            landing: Mutex::new(Landing::Pending),
                            landed: Condvar::new(),
                        });
                        g.slots
                            .insert(key.clone(), Slot::Pending(Arc::clone(&flight)));
                        (flight, true)
                    }
                }
            };
            if leads {
                let lead = Lead {
                    shard,
                    key: &key,
                    flight: &flight,
                };
                let value = compute();
                let bytes = weigh(&value);
                shard
                    .lock()
                    .publish(&key, value.clone(), bytes, self.budget_per_shard);
                *flight.landing.lock() = Landing::Done(value.clone());
                drop(lead);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return (value, LookupOutcome::Miss);
            }
            if let Some(value) = flight.wait() {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                return (value, LookupOutcome::Coalesced);
            }
        }
    }

    /// Read a resident value without counting or recency effects
    /// (metrics/tests).
    pub fn peek(&self, key: &K) -> Option<V> {
        match self.shard(key).lock().slots.get(key) {
            Some(Slot::Ready { value, .. }) => Some(value.clone()),
            _ => None,
        }
    }

    /// Snapshot the tier's counters.
    pub fn metrics(&self) -> MapMetrics {
        let mut m = MapMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            budget_bytes: self.budget_total as u64,
            ..MapMetrics::default()
        };
        for shard in &self.shards {
            let g = shard.lock();
            m.evictions += g.evictions;
            m.entries += g.order.len() as u64;
            m.resident_bytes += g.bytes as u64;
        }
        m
    }
}

/// How a cache lookup was served — mirrors the hit/miss/coalesced
/// counters, but per lookup, so workers can annotate job spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Served from a resident entry.
    Hit,
    /// Led a fresh computation.
    Miss,
    /// Waited on a concurrent leader's computation.
    Coalesced,
}

/// Counter snapshot for one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MapMetrics {
    /// Lookups served straight from a resident entry.
    pub hits: u64,
    /// Lookups that led a fresh computation.
    pub misses: u64,
    /// Lookups that piggybacked on a concurrent leader (single-flight).
    pub coalesced: u64,
    /// Entries pushed out by the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Configured byte budget.
    pub budget_bytes: u64,
}

impl MapMetrics {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }

    /// Fraction of lookups that avoided a fresh computation — store
    /// hits and coalesced waits both count as "work saved".
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / lookups as f64
        }
    }

    /// Sum two tiers into one aggregate row (budgets add too).
    pub fn merged(&self, other: &MapMetrics) -> MapMetrics {
        MapMetrics {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            coalesced: self.coalesced + other.coalesced,
            evictions: self.evictions + other.evictions,
            entries: self.entries + other.entries,
            resident_bytes: self.resident_bytes + other.resident_bytes,
            budget_bytes: self.budget_bytes + other.budget_bytes,
        }
    }
}

/// Counter snapshot for a whole [`SubmissionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheMetrics {
    /// Compile-tier counters.
    pub compile: MapMetrics,
    /// Grade-tier counters.
    pub grade: MapMetrics,
}

impl CacheMetrics {
    /// Both tiers folded into one row.
    pub fn total(&self) -> MapMetrics {
        self.compile.merged(&self.grade)
    }
}

/// Byte budgets and shard count for a [`SubmissionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Budget for compiled programs / compile diagnostics.
    pub compile_budget_bytes: usize,
    /// Budget for grade outcomes.
    pub grade_budget_bytes: usize,
    /// Shards per tier (lock-contention bound).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // Sized for a course-scale cluster: sources are ≤256 KiB and
        // outcomes a few KiB, so these budgets hold thousands of
        // distinct submissions — far more than one deadline rush.
        CacheConfig {
            compile_budget_bytes: 64 * 1024 * 1024,
            grade_budget_bytes: 128 * 1024 * 1024,
            shards: 8,
        }
    }
}

impl CacheConfig {
    /// A deliberately small configuration for eviction-path tests.
    pub fn tiny(total_bytes: usize) -> Self {
        CacheConfig {
            compile_budget_bytes: total_bytes,
            grade_budget_bytes: total_bytes,
            shards: 1,
        }
    }
}

/// Cached result of a submission's compile phase (size gate →
/// blacklist scan → compile). Failures are cached too: re-submitting
/// broken code during a rush is at least as common as re-submitting
/// working code.
#[derive(Debug, Clone)]
pub struct CompiledEntry {
    /// The compiled program, or the rendered compile error.
    pub result: Result<Arc<Program>, String>,
    /// Length of the source that produced this entry. Unused: a
    /// compiled program holds several times its source (×2.9 to ×7.0
    /// over the lab solutions), so an entry is charged what its
    /// program holds (see `weight`). The field stays because the
    /// ledger's cache replay sets it; it goes when the ledger joins
    /// the workspace (ROADMAP.md, item 1d).
    pub source_bytes: usize,
    /// Static-verifier findings recorded alongside the compile. Empty
    /// when the program is clean *or* when analysis was off for this
    /// entry — the [`CompileKey`] `analyze` bit keeps those two
    /// populations in separate entries, so a hit never has to guess.
    pub analysis: Vec<minicuda::Finding>,
}

impl CompiledEntry {
    /// The bytes the entry keeps alive: a program's inline size plus
    /// its heap footprint ([`Program::heap_bytes`], counted from its
    /// vectors' capacities), or an error's text; plus the findings.
    /// A shared program is charged in full to every entry that holds
    /// it.
    fn weight(&self) -> usize {
        let payload = match &self.result {
            Ok(program) => std::mem::size_of::<Program>() + program.heap_bytes(),
            Err(e) => e.len(),
        };
        let findings: usize = self
            .analysis
            .iter()
            .map(|f| f.diag.message.len() + 32)
            .sum();
        // Floor so empty-source entries still cost something.
        (payload + findings).max(64)
    }
}

/// The cluster-wide submission cache: a compile tier plus a grade tier
/// generic over the grade value `G` (the worker instantiates it with
/// its `DatasetOutcome`).
pub struct SubmissionCache<G> {
    compile: CachedMap<CompileKey, CompiledEntry>,
    grade: CachedMap<GradeKey, G>,
    grade_weigher: fn(&G) -> usize,
}

impl<G: Clone> SubmissionCache<G> {
    /// Build a cache; `grade_weigher` prices a grade outcome in bytes.
    pub fn new(config: CacheConfig, grade_weigher: fn(&G) -> usize) -> Self {
        SubmissionCache {
            compile: CachedMap::new(config.compile_budget_bytes, config.shards),
            grade: CachedMap::new(config.grade_budget_bytes, config.shards),
            grade_weigher,
        }
    }

    /// Serve a compile result from cache, computing it exactly once
    /// across concurrent identical submissions; also reports how the
    /// lookup was served.
    pub fn compile_or(
        &self,
        key: CompileKey,
        compute: impl FnOnce() -> CompiledEntry,
    ) -> (CompiledEntry, LookupOutcome) {
        self.compile
            .get_or_compute(key, CompiledEntry::weight, compute)
    }

    /// Serve a grade outcome from cache, computing it exactly once
    /// across concurrent identical runs; also reports how the lookup
    /// was served.
    pub fn grade_or(&self, key: GradeKey, compute: impl FnOnce() -> G) -> (G, LookupOutcome) {
        self.grade.get_or_compute(key, self.grade_weigher, compute)
    }

    /// Snapshot both tiers' counters.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            compile: self.compile.metrics(),
            grade: self.grade.metrics(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    impl LookupOutcome {
        /// True when no fresh computation ran for this caller.
        fn saved_work(self) -> bool {
            !matches!(self, LookupOutcome::Miss)
        }
    }

    #[test]
    fn hit_and_miss_counters() {
        let m: CachedMap<u64, String> = CachedMap::new(1024, 2);
        let v = m.get_or_compute(1, |v| v.len(), || "alpha".to_string());
        assert_eq!(v, ("alpha".to_string(), LookupOutcome::Miss));
        let v = m.get_or_compute(1, |v| v.len(), || unreachable!("must hit"));
        assert_eq!(v, ("alpha".to_string(), LookupOutcome::Hit));
        let metrics = m.metrics();
        assert_eq!((metrics.hits, metrics.misses, metrics.coalesced), (1, 1, 0));
        assert_eq!(metrics.entries, 1);
        assert_eq!(metrics.resident_bytes, 5);
        assert!((metrics.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn concurrent_misses_coalesce() {
        const THREADS: usize = 6;
        let m: Arc<CachedMap<u64, u64>> = Arc::new(CachedMap::new(1024, 2));
        let computes = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (m, computes, gate) = (m.clone(), computes.clone(), gate.clone());
                std::thread::spawn(move || {
                    gate.wait();
                    m.get_or_compute(
                        9,
                        |_| 8,
                        || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            // Hold the flight open so the others pile up.
                            std::thread::sleep(std::time::Duration::from_millis(40));
                            77u64
                        },
                    )
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().0, 77, "every caller gets the value");
        }
        // Every other lookup coalesced on the flight or, if it came
        // after the leader published, hit the resident value.
        let metrics = m.metrics();
        assert_eq!(metrics.lookups(), THREADS as u64);
        assert_eq!((computes.load(Ordering::Relaxed), metrics.misses), (1, 1));
    }

    #[test]
    fn zero_lookup_hit_rate_is_zero() {
        assert_eq!(MapMetrics::default().hit_rate(), 0.0);
    }

    #[test]
    fn metrics_merge_adds_fields() {
        let a = MapMetrics {
            hits: 1,
            misses: 2,
            coalesced: 3,
            evictions: 4,
            entries: 5,
            resident_bytes: 6,
            budget_bytes: 7,
        };
        let t = a.merged(&a);
        assert_eq!(t.hits, 2);
        assert_eq!(t.budget_bytes, 14);
        assert_eq!(t.lookups(), 12);
    }

    #[test]
    fn submission_cache_round_trip() {
        let cache: SubmissionCache<Vec<u8>> =
            SubmissionCache::new(CacheConfig::default(), Vec::len);
        let key = CompileKey(crate::hash_bytes(b"src"));
        let (entry, _) = cache.compile_or(key, || CompiledEntry {
            result: Err("syntax error".to_string()),
            source_bytes: 3,
            analysis: Vec::new(),
        });
        assert!(entry.result.is_err());
        let (entry, lookup) = cache.compile_or(key, || unreachable!("cached"));
        assert_eq!(entry.result.unwrap_err(), "syntax error");
        assert!(lookup.saved_work());

        let gkey = GradeKey(crate::hash_bytes(b"grade"));
        let g = cache.grade_or(gkey, || vec![1, 2, 3]);
        assert_eq!(g, (vec![1, 2, 3], LookupOutcome::Miss));
        let g = cache.grade_or(gkey, || unreachable!("cached"));
        assert_eq!(g, (vec![1, 2, 3], LookupOutcome::Hit));

        let m = cache.metrics();
        assert_eq!(m.compile.hits, 1);
        assert_eq!(m.grade.hits, 1);
        assert_eq!(m.total().lookups(), 4);
    }

    #[test]
    fn tiny_budget_still_serves_values() {
        let cache: SubmissionCache<Vec<u8>> = SubmissionCache::new(CacheConfig::tiny(8), Vec::len);
        let gkey = GradeKey(crate::hash_bytes(b"big"));
        let big = vec![0u8; 4096];
        let (got, _) = cache.grade_or(gkey, || big.clone());
        assert_eq!(got, big, "oversized value reaches the caller");
        // ...but never becomes resident.
        assert_eq!(cache.metrics().grade.resident_bytes, 0);
        assert_eq!(cache.metrics().grade.evictions, 1);
    }

    /// A tier whose shards hold every key the tests below touch.
    fn roomy() -> CachedMap<u64, u64> {
        CachedMap::new(1 << 20, 8)
    }

    /// How many hold `key`'s flight while a leader computes it.
    fn pending(m: &CachedMap<u64, u64>, key: u64) -> Option<usize> {
        match m.shard(&key).lock().slots.get(&key) {
            Some(Slot::Pending(f)) => Some(Arc::strong_count(f)),
            _ => None,
        }
    }

    #[test]
    fn every_key_computes_once_under_contention() {
        const THREADS: usize = 8;
        const KEYS: u64 = 10_000;
        let m = Arc::new(roomy());
        let computes = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (m, computes, gate) = (m.clone(), computes.clone(), gate.clone());
                std::thread::spawn(move || {
                    for key in 0..KEYS {
                        gate.wait();
                        let compute = || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            key * 3
                        };
                        assert_eq!(m.get_or_compute(key, |_| 1, compute).0, key * 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let metrics = m.metrics();
        assert_eq!(metrics.evictions, 0, "the budget holds every key");
        assert_eq!(
            computes.load(Ordering::Relaxed),
            KEYS,
            "one compute per key"
        );
        assert_eq!(metrics.misses, KEYS);
        assert_eq!(metrics.lookups(), THREADS as u64 * KEYS);
    }

    #[test]
    fn concurrent_identical_keys_execute_once() {
        const THREADS: usize = 8;
        let m = Arc::new(roomy());
        let executions = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (m, executions, gate) = (m.clone(), executions.clone(), gate.clone());
                std::thread::spawn(move || {
                    gate.wait();
                    let compute = || {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the
                        // stragglers to pile up behind it.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        42u64
                    };
                    m.get_or_compute(7, |_| 8, compute)
                })
            })
            .collect();
        let results: Vec<(u64, LookupOutcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let leaders = results
            .iter()
            .filter(|(_, o)| *o == LookupOutcome::Miss)
            .count();
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        assert_eq!(leaders, 1, "exactly one caller led");
        assert!(
            results.iter().all(|(v, _)| *v == 42),
            "every caller got the leader's value"
        );
        assert_eq!(pending(&m, 7), None, "no flight left behind");
        assert_eq!(m.peek(&7), Some(42));
    }

    #[test]
    fn sequential_calls_each_lead() {
        // Too heavy to keep: a finished flight leaves nothing behind.
        let m: CachedMap<u64, u64> = CachedMap::new(4, 1);
        assert_eq!(m.get_or_compute(1, |_| 5, || 10), (10, LookupOutcome::Miss));
        assert_eq!(m.get_or_compute(1, |_| 5, || 20), (20, LookupOutcome::Miss));
        assert_eq!(pending(&m, 1), None);
        let metrics = m.metrics();
        assert_eq!(
            (metrics.misses, metrics.evictions, metrics.entries),
            (2, 2, 0)
        );
    }

    #[test]
    fn single_shard_tier_still_dedupes() {
        // The shard count spreads locks; it changes no outcome.
        let m: CachedMap<u64, u64> = CachedMap::new(1024, 1);
        assert_eq!(m.get_or_compute(9, |_| 8, || 90), (90, LookupOutcome::Miss));
        assert_eq!(m.get_or_compute(9, |_| 8, || 0), (90, LookupOutcome::Hit));
        assert_eq!(m.get_or_compute(8, |_| 8, || 80), (80, LookupOutcome::Miss));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let m = Arc::new(roomy());
        let handles: Vec<_> = (0..4u64)
            .map(|k| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || m.get_or_compute(k, |_| 8, move || k * 10))
            })
            .collect();
        for (k, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), (k as u64 * 10, LookupOutcome::Miss));
        }
    }

    #[test]
    fn coalesced_value_is_resident_when_the_waiter_returns() {
        let m = Arc::new(roomy());
        let gate = Arc::new(Barrier::new(2));
        let leader = {
            let (m, gate) = (m.clone(), gate.clone());
            std::thread::spawn(move || {
                let compute = || {
                    gate.wait(); // the other thread may look up now
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    5
                };
                m.get_or_compute(1, |_| 8, compute)
            })
        };
        gate.wait();
        let (value, outcome) = m.get_or_compute(1, |_| 8, || unreachable!("in flight"));
        assert_eq!((value, outcome.saved_work()), (5, true));
        assert_eq!(m.peek(&1), Some(5), "published before the waiter woke");
        assert_eq!(leader.join().unwrap(), (5, LookupOutcome::Miss));
    }

    #[test]
    fn waiters_get_a_value_too_heavy_to_keep() {
        let m: Arc<CachedMap<u64, u64>> = Arc::new(CachedMap::new(4, 1));
        let leader = {
            let m = m.clone();
            let watch = m.clone();
            std::thread::spawn(move || {
                let compute = || {
                    // Table + leader + the waiter hold the flight.
                    while pending(&watch, 1) != Some(3) {
                        std::thread::yield_now();
                    }
                    7
                };
                m.get_or_compute(1, |_| 5, compute)
            })
        };
        while pending(&m, 1).is_none() {
            std::thread::yield_now();
        }
        let waiter = m.get_or_compute(1, |_| 5, || unreachable!("in flight"));
        assert_eq!(waiter, (7, LookupOutcome::Coalesced));
        assert_eq!(leader.join().unwrap(), (7, LookupOutcome::Miss));
        assert_eq!(m.peek(&1), None, "never resident");
    }

    #[test]
    fn panicking_leader_releases_its_followers() {
        let m = Arc::new(roomy());
        let leader = {
            let m = m.clone();
            let watch = m.clone();
            std::thread::spawn(move || {
                let compute = move || -> u64 {
                    // Table + leader + two followers hold the flight:
                    // both followers have joined it and can only get
                    // out through the abandoned path.
                    while pending(&watch, 1) != Some(4) {
                        std::thread::yield_now();
                    }
                    panic!("leader dies inside compute");
                };
                m.get_or_compute(1, |_| 8, compute)
            })
        };
        let followers: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    // Join only once the doomed flight is in the table.
                    while pending(&m, 1).is_none() {
                        std::thread::yield_now();
                    }
                    m.get_or_compute(1, |_| 8, || 99)
                })
            })
            .collect();
        assert!(leader.join().is_err(), "the leader's panic is its own");
        let outcomes: Vec<_> = followers
            .into_iter()
            .map(|f| f.join().expect("follower returns"))
            .collect();
        assert!(outcomes.iter().all(|(v, _)| *v == 99));
        let leads = outcomes
            .iter()
            .filter(|(_, o)| *o == LookupOutcome::Miss)
            .count();
        assert_eq!(leads, 1, "one follower leads afresh");
        assert_eq!(m.get_or_compute(1, |_| 8, || 5), (99, LookupOutcome::Hit));
    }

    #[test]
    fn get_after_insert() {
        let m: CachedMap<u64, String> = CachedMap::new(1024, 4);
        assert_eq!(m.peek(&1), None);
        m.get_or_compute(1, |v| v.len(), || "one".to_string());
        assert_eq!(m.peek(&1).as_deref(), Some("one"));
        assert_eq!(m.metrics().resident_bytes, 3);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // One shard, so the recency order is global.
        let m: CachedMap<u64, u64> = CachedMap::new(30, 1);
        for k in 1..=3 {
            m.get_or_compute(k, |_| 10, || k * 10);
        }
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(m.get_or_compute(1, |_| 10, || 0), (10, LookupOutcome::Hit));
        m.get_or_compute(4, |_| 10, || 40);
        assert_eq!(m.peek(&2), None, "LRU entry evicted");
        for k in [1, 3, 4] {
            assert_eq!(m.peek(&k), Some(k * 10));
        }
        assert_eq!(m.metrics().evictions, 1);
    }

    #[test]
    fn budget_never_exceeded() {
        let m: CachedMap<u64, u64> = CachedMap::new(100, 4);
        for k in 0..1000 {
            m.get_or_compute(k, |_| 7, || k);
            let resident = m.metrics().resident_bytes;
            assert!(resident <= 100, "resident {resident} exceeds budget");
        }
        assert!(m.metrics().evictions > 0);
    }

    #[test]
    fn oversized_entry_evicts_only_itself() {
        let m: CachedMap<u64, u64> = CachedMap::new(16, 1);
        m.get_or_compute(1, |_| 8, || 1);
        assert_eq!(
            m.get_or_compute(2, |_| 1000, || 2),
            (2, LookupOutcome::Miss)
        );
        assert_eq!(m.peek(&1), Some(1), "the neighbour stays resident");
        assert_eq!(m.peek(&2), None);
        let metrics = m.metrics();
        assert_eq!(metrics.evictions, 1);
        assert_eq!((metrics.entries, metrics.resident_bytes), (1, 8));
    }
}
