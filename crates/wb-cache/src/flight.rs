//! Single-flight deduplication.
//!
//! The deadline rush delivers N concurrent, byte-identical submissions
//! (the paper's Figure 1 spike is exactly this population). Without
//! coordination, N workers each recompile and re-execute the same
//! work; with single-flight, the first arrival for a key becomes the
//! **leader** and computes, while the other N−1 block on a condvar and
//! reuse the leader's result. The value is handed to waiters through
//! the flight slot itself, so correctness does not depend on the entry
//! surviving in the LRU until the waiters wake. A leader that unwinds
//! out of its computation abandons the flight: its waiters wake, re-enter
//! and one of them leads afresh.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, PoisonError};
use wb_obs::sync::Mutex;

/// Default lock shards for the flight map. One mutex in front of the
/// store index serialized every cache lookup cluster-wide once the
/// control plane itself was sharded; splitting by key hash keeps the
/// dedup path parallel.
const FLIGHT_SHARDS: usize = 8;

enum Slot<V> {
    Pending,
    Done(V),
    /// The leader unwound before producing a value.
    Abandoned,
}

struct Flight<V> {
    slot: Mutex<Slot<V>>,
    done: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(Slot::Pending),
            done: Condvar::new(),
        }
    }
}

/// Held by the leader while it computes. Dropping it — on return or on
/// unwind — takes the flight off the map and wakes every waiter; a slot
/// still pending at that point is marked abandoned.
struct Lead<'a, K: Hash + Eq + Clone, V: Clone> {
    group: &'a SingleFlight<K, V>,
    key: &'a K,
    flight: &'a Flight<V>,
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for Lead<'_, K, V> {
    fn drop(&mut self) {
        // Off the map first: a waiter woken from an abandoned flight
        // re-enters `run` and must not meet this flight again. On the
        // success path the store is populated and the slot filled by
        // now, so a new arrival that misses the flight hits the store.
        self.group.shard(self.key).lock().remove(self.key);
        let mut slot = self.flight.slot.lock();
        if matches!(*slot, Slot::Pending) {
            *slot = Slot::Abandoned;
        }
        self.flight.done.notify_all();
    }
}

/// How a [`SingleFlight::run`] call was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRole {
    /// This call computed the value.
    Leader,
    /// This call blocked on a concurrent leader and reused its value.
    Coalesced,
}

/// A keyed single-flight group, lock-sharded by key hash: concurrent
/// flights for different keys contend on different mutexes, while two
/// calls for the same key always meet on the same shard.
pub struct SingleFlight<K, V> {
    shards: Vec<Mutex<HashMap<K, Arc<Flight<V>>>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
    /// Create an empty group with the default shard count.
    pub fn new() -> Self {
        SingleFlight::with_shards(FLIGHT_SHARDS)
    }

    /// Create an empty group with an explicit lock-shard count
    /// (clamped to at least 1).
    pub fn with_shards(shards: usize) -> Self {
        SingleFlight {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Arc<Flight<V>>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Number of keys currently in flight, across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Run `compute` for `key`, deduplicating against concurrent calls
    /// with the same key: exactly one caller executes `compute`, every
    /// concurrent caller receives a clone of its result.
    ///
    /// `on_leader_result` runs on the leader after `compute` but
    /// *before* waiters are released — the cache uses it to publish
    /// the value to the LRU store so a later arrival that misses the
    /// flight map is guaranteed to find the store populated.
    pub fn run(
        &self,
        key: &K,
        compute: impl FnOnce() -> V,
        on_leader_result: impl FnOnce(&V),
    ) -> (V, FlightRole) {
        loop {
            let (flight, role) = {
                let mut g = self.shard(key).lock();
                match g.get(key) {
                    Some(f) => (Arc::clone(f), FlightRole::Coalesced),
                    None => {
                        let f = Arc::new(Flight::new());
                        g.insert(key.clone(), Arc::clone(&f));
                        (f, FlightRole::Leader)
                    }
                }
            };
            if role == FlightRole::Leader {
                let lead = Lead {
                    group: self,
                    key,
                    flight: &flight,
                };
                let value = compute();
                on_leader_result(&value);
                *flight.slot.lock() = Slot::Done(value.clone());
                drop(lead);
                return (value, FlightRole::Leader);
            }
            let mut slot = flight.slot.lock();
            loop {
                match &*slot {
                    Slot::Done(value) => return (value.clone(), FlightRole::Coalesced),
                    Slot::Abandoned => break,
                    Slot::Pending => {
                        slot = flight
                            .done
                            .wait(slot)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn sequential_calls_each_lead() {
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        let (v, r) = sf.run(&1, || 10, |_| {});
        assert_eq!((v, r), (10, FlightRole::Leader));
        let (v, r) = sf.run(&1, || 20, |_| {});
        assert_eq!(
            (v, r),
            (20, FlightRole::Leader),
            "no store here: a finished flight does not linger"
        );
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn concurrent_identical_keys_execute_once() {
        const THREADS: usize = 8;
        let sf: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let executions = Arc::clone(&executions);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    sf.run(
                        &7,
                        || {
                            executions.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for the
                            // stragglers to pile up behind it.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            42u64
                        },
                        |_| {},
                    )
                })
            })
            .collect();
        let results: Vec<(u64, FlightRole)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let leaders = results
            .iter()
            .filter(|(_, r)| *r == FlightRole::Leader)
            .count();
        assert_eq!(executions.load(Ordering::SeqCst), leaders);
        assert!(leaders >= 1, "someone led");
        assert!(
            results.iter().all(|(v, _)| *v == 42),
            "every caller got the leader's value"
        );
        assert_eq!(sf.in_flight(), 0, "flight map drains");
    }

    #[test]
    fn single_shard_group_still_dedupes() {
        // The shard count is a lock-spread knob, not a semantic one.
        let sf: SingleFlight<u32, u32> = SingleFlight::with_shards(1);
        let (v, r) = sf.run(&9, || 90, |_| {});
        assert_eq!((v, r), (90, FlightRole::Leader));
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let handles: Vec<_> = (0..4u32)
            .map(|k| {
                let sf = Arc::clone(&sf);
                std::thread::spawn(move || sf.run(&k, move || k * 10, |_| {}))
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let (v, role) = h.join().unwrap();
            assert_eq!(v, i as u32 * 10);
            assert_eq!(role, FlightRole::Leader);
        }
    }

    #[test]
    fn publish_hook_runs_before_waiters_wake() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let published = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(2));
        let a = {
            let (sf, published, gate) = (sf.clone(), published.clone(), gate.clone());
            std::thread::spawn(move || {
                sf.run(
                    &1,
                    || {
                        gate.wait(); // both threads inside `run`
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        5
                    },
                    |_| {
                        published.fetch_add(1, Ordering::SeqCst);
                    },
                )
            })
        };
        let b = {
            let (sf, published, gate) = (sf.clone(), published.clone(), gate.clone());
            std::thread::spawn(move || {
                gate.wait();
                let (v, role) = sf.run(&1, || unreachable!("leader already in flight"), |_| {});
                // Regardless of which thread led, the publish hook has
                // run by the time a coalesced waiter holds the value.
                if role == FlightRole::Coalesced {
                    assert_eq!(published.load(Ordering::SeqCst), 1);
                }
                (v, role)
            })
        };
        let (va, ra) = a.join().unwrap();
        let (vb, rb) = b.join().unwrap();
        assert_eq!(va, 5);
        assert_eq!(vb, 5);
        assert!(ra == FlightRole::Leader || rb == FlightRole::Leader);
    }

    #[test]
    fn panicking_leader_releases_its_followers() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                let inner = Arc::clone(&sf);
                sf.run(
                    &1,
                    move || {
                        // Map + leader + two followers hold the flight:
                        // both followers have joined it and can only
                        // get out through the abandoned path.
                        while inner.shard(&1).lock().get(&1).map(Arc::strong_count) != Some(4) {
                            std::thread::yield_now();
                        }
                        panic!("leader dies inside compute");
                    },
                    |_| {},
                )
            })
        };
        let followers: Vec<_> = (0..2)
            .map(|_| {
                let sf = Arc::clone(&sf);
                std::thread::spawn(move || {
                    // Join only once the doomed flight is on the map.
                    while sf.in_flight() == 0 {
                        std::thread::yield_now();
                    }
                    sf.run(&1, || 99, |_| {})
                })
            })
            .collect();
        assert!(leader.join().is_err(), "the leader's panic is its own");
        for f in followers {
            assert_eq!(f.join().expect("follower returns").0, 99);
        }
        assert_eq!(sf.in_flight(), 0, "the abandoned flight is gone");
        assert_eq!(sf.run(&1, || 5, |_| {}), (5, FlightRole::Leader));
    }
}
