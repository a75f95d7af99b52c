//! Connection pool.
//!
//! §III-B: *"The web-server maintains a connection pool to the database
//! and records user submission activity."* Connections here are
//! tickets with checkout accounting; the pool enforces a maximum and
//! reports wait statistics so the web-server benches can show
//! saturation behaviour.

use std::sync::{Arc, Condvar, PoisonError};
use wb_obs::sync::Mutex;

/// Pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Successful checkouts.
    pub checkouts: u64,
    /// Checkouts that had to wait for a free connection.
    pub waits: u64,
    /// Connections currently checked out.
    pub in_use: usize,
}

struct PoolInner {
    capacity: usize,
    counters: PoolCounters,
}

/// A fixed-capacity connection pool.
pub struct ConnectionPool {
    inner: Arc<(Mutex<PoolInner>, Condvar)>,
}

/// A checked-out connection; returns itself to the pool on drop.
pub struct PoolGuard {
    inner: Arc<(Mutex<PoolInner>, Condvar)>,
    /// Connection id (for logging).
    pub conn_id: u64,
}

impl ConnectionPool {
    /// Pool with `capacity` connections.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pool needs at least one connection");
        ConnectionPool {
            inner: Arc::new((
                Mutex::new(PoolInner {
                    capacity,
                    counters: PoolCounters::default(),
                }),
                Condvar::new(),
            )),
        }
    }

    /// Check out a connection, blocking until one frees up.
    pub fn acquire(&self) -> PoolGuard {
        let (lock, cv) = &*self.inner;
        let mut g = lock.lock();
        if g.counters.in_use >= g.capacity {
            g.counters.waits += 1;
            while g.counters.in_use >= g.capacity {
                g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        }
        g.counters.in_use += 1;
        g.counters.checkouts += 1;
        let conn_id = g.counters.checkouts;
        PoolGuard {
            inner: Arc::clone(&self.inner),
            conn_id,
        }
    }

    /// Non-blocking checkout.
    pub fn try_acquire(&self) -> Option<PoolGuard> {
        let (lock, _) = &*self.inner;
        let mut g = lock.lock();
        if g.counters.in_use >= g.capacity {
            return None;
        }
        g.counters.in_use += 1;
        g.counters.checkouts += 1;
        let conn_id = g.counters.checkouts;
        Some(PoolGuard {
            inner: Arc::clone(&self.inner),
            conn_id,
        })
    }

    /// Snapshot of counters.
    pub fn counters(&self) -> PoolCounters {
        self.inner.0.lock().counters
    }

    /// Pool capacity.
    pub fn capacity(&self) -> usize {
        self.inner.0.lock().capacity
    }

    /// Grow or shrink the pool (scaling the database tier, §II-C).
    pub fn resize(&self, capacity: usize) {
        assert!(capacity > 0, "pool needs at least one connection");
        let (lock, cv) = &*self.inner;
        lock.lock().capacity = capacity;
        cv.notify_all();
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let (lock, cv) = &*self.inner;
        let mut g = lock.lock();
        g.counters.in_use -= 1;
        cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn acquire_and_release() {
        let pool = ConnectionPool::new(2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.counters().in_use, 2);
        drop(a);
        assert_eq!(pool.counters().in_use, 1);
        drop(b);
        assert_eq!(pool.counters().in_use, 0);
        assert_eq!(pool.counters().checkouts, 2);
    }

    #[test]
    fn try_acquire_fails_when_full() {
        let pool = ConnectionPool::new(1);
        let a = pool.try_acquire().expect("first succeeds");
        assert!(pool.try_acquire().is_none());
        drop(a);
        assert!(pool.try_acquire().is_some());
    }

    #[test]
    fn blocking_acquire_waits_for_release() {
        let pool = Arc::new(ConnectionPool::new(1));
        let g = pool.acquire();
        let p2 = Arc::clone(&pool);
        let h = std::thread::spawn(move || {
            let _g2 = p2.acquire(); // blocks until g drops
            p2.counters().waits
        });
        std::thread::sleep(Duration::from_millis(50));
        drop(g);
        let waits = h.join().unwrap();
        assert!(waits >= 1, "the second acquire had to wait");
    }

    #[test]
    fn resize_unblocks_waiters() {
        let pool = Arc::new(ConnectionPool::new(1));
        let _g = pool.acquire();
        let p2 = Arc::clone(&pool);
        let h = std::thread::spawn(move || {
            let _g2 = p2.acquire();
        });
        std::thread::sleep(Duration::from_millis(50));
        pool.resize(2);
        h.join().unwrap();
        assert_eq!(pool.capacity(), 2);
    }

    #[test]
    fn guards_have_ids() {
        let pool = ConnectionPool::new(4);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_ne!(a.conn_id, b.conn_id);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = ConnectionPool::new(0);
    }
}
