//! The assembled cache: LRU store + single-flight + counters.
//!
//! [`CachedMap`] is one keyed tier; [`SubmissionCache`] bundles the
//! two tiers a worker needs — compile results keyed by [`CompileKey`]
//! and grade results keyed by [`GradeKey`] — behind one shared handle
//! that a whole cluster can hold as `Arc<SubmissionCache<_>>`.
//!
//! The grade tier is generic over its value type `G` because this
//! crate sits *below* the worker crate in the dependency graph: the
//! worker instantiates `G = DatasetOutcome` and supplies the weigher.

use crate::flight::{FlightRole, SingleFlight};
use crate::key::{CompileKey, GradeKey};
use crate::store::LruStore;
use minicuda::Program;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One cache tier: lookups hit the LRU store first; misses dedupe
/// through single-flight so N concurrent identical computations run
/// once.
pub struct CachedMap<K, V> {
    store: LruStore<K, V>,
    flight: SingleFlight<K, V>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> CachedMap<K, V> {
    /// Create a tier with a total byte budget split over `shards`.
    /// The same shard count spreads the single-flight map's locks, so
    /// neither the store index nor the dedup path is a global
    /// serialization point.
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        CachedMap {
            store: LruStore::new(budget_bytes, shards),
            flight: SingleFlight::with_shards(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Serve `key` from cache, or compute it exactly once across all
    /// concurrent callers, reporting how the lookup was served so
    /// callers can annotate job traces. `weigh` prices the freshly
    /// computed value for the byte budget; it only runs on the
    /// single-flight leader.
    pub fn get_or_compute(
        &self,
        key: K,
        weigh: impl FnOnce(&V) -> usize,
        compute: impl FnOnce() -> V,
    ) -> (V, LookupOutcome) {
        if let Some(v) = self.store.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v, LookupOutcome::Hit);
        }
        let (value, role) = self.flight.run(&key, compute, |v| {
            self.store.insert(key.clone(), v.clone(), weigh(v));
        });
        let outcome = match role {
            FlightRole::Leader => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                LookupOutcome::Miss
            }
            FlightRole::Coalesced => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                LookupOutcome::Coalesced
            }
        };
        (value, outcome)
    }

    /// Read without counting or recency effects (metrics/tests).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.store.peek(key)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Snapshot the tier's counters.
    pub fn metrics(&self) -> MapMetrics {
        MapMetrics {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.store.counters.evictions.load(Ordering::Relaxed),
            entries: self.store.len() as u64,
            resident_bytes: self.store.resident_bytes() as u64,
            budget_bytes: self.store.budget_bytes() as u64,
        }
    }
}

/// How a cache lookup was served — mirrors the hit/miss/coalesced
/// counters, but per lookup, so workers can annotate job spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Served from the resident store.
    Hit,
    /// Led a fresh computation.
    Miss,
    /// Waited on a concurrent leader's computation.
    Coalesced,
}

impl LookupOutcome {
    /// True when no fresh computation ran for this caller.
    pub fn saved_work(self) -> bool {
        !matches!(self, LookupOutcome::Miss)
    }
}

/// Counter snapshot for one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MapMetrics {
    /// Lookups served straight from the resident store.
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
    /// Length of the source that produced this entry — used as the
    /// byte weight, since a `Program`'s in-memory size tracks its
    /// source size.
    pub source_bytes: usize,
    /// Static-verifier findings recorded alongside the compile. Empty
    /// when the program is clean *or* when analysis was off for this
    /// entry — the [`CompileKey`] `analyze` bit keeps those two
    /// populations in separate entries, so a hit never has to guess.
    pub analysis: Vec<minicuda::Finding>,
}

impl CompiledEntry {
    fn weight(&self) -> usize {
        let payload = match &self.result {
            Ok(_) => self.source_bytes,
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
        let gate = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let m = Arc::clone(&m);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    m.get_or_compute(
                        9,
                        |_| 8,
                        || {
                            std::thread::sleep(std::time::Duration::from_millis(40));
                            77u64
                        },
                    )
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().0, 77);
        }
        let metrics = m.metrics();
        // Every lookup either led, coalesced, or (if it arrived after
        // the leader published) hit the store; exactly `misses`
        // computations ran.
        assert_eq!(metrics.lookups(), THREADS as u64);
        assert!(metrics.misses >= 1);
        assert!(
            metrics.misses < THREADS as u64,
            "at least one thread was deduplicated"
        );
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
        let key = CompileKey(crate::hash::hash_bytes(b"src"));
        let (entry, _) = cache.compile_or(key, || CompiledEntry {
            result: Err("syntax error".to_string()),
            source_bytes: 3,
            analysis: Vec::new(),
        });
        assert!(entry.result.is_err());
        let (entry, lookup) = cache.compile_or(key, || unreachable!("cached"));
        assert_eq!(entry.result.unwrap_err(), "syntax error");
        assert!(lookup.saved_work());

        let gkey = GradeKey(crate::hash::hash_bytes(b"grade"));
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
        let gkey = GradeKey(crate::hash::hash_bytes(b"big"));
        let big = vec![0u8; 4096];
        let (got, _) = cache.grade_or(gkey, || big.clone());
        assert_eq!(got, big, "oversized value reaches the caller");
        // ...but never becomes resident.
        assert_eq!(cache.metrics().grade.resident_bytes, 0);
        assert_eq!(cache.metrics().grade.evictions, 1);
    }
}
