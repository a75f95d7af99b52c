//! The workspace's locks: `std::sync` with the poisoning decision made
//! once.
//!
//! A thread that panics while holding a guard poisons a std lock. Every
//! structure guarded here stays valid between statements (maps, queues,
//! counters — no multi-step invariant spans an unwind point), so the
//! next locker recovers the guard (`PoisonError::into_inner`) instead of
//! turning one worker's panic into a panic in every thread that shares
//! the lock. `lock`/`read`/`write` return std's own guards, so a
//! `std::sync::Condvar` takes them as they are.

use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new, unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Block until the lock is held; a poisoned lock is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read`/`write` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new, unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Shared access; a poisoned lock is recovered.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access; a poisoned lock is recovered.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Mutex::new(vec![1]);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = m.lock();
                g.push(2);
                panic!("holder dies with the guard");
            })
            .join()
        });
        assert!(died.is_err());
        assert_eq!(*m.lock(), vec![1, 2], "readable by the next locker");
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3], "and writable");
    }

    #[test]
    fn rwlock_survives_a_panicking_writer() {
        let l = RwLock::new(7u64);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = l.write();
                *g = 8;
                panic!("writer dies with the guard");
            })
            .join()
        });
        assert!(died.is_err());
        assert_eq!(*l.read(), 8, "readable by the next locker");
        *l.write() += 1;
        assert_eq!(*l.read(), 9, "and writable");
    }
}
