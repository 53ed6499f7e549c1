//! Contention accounting: drop-in wrappers around [`std::sync::Mutex`] and
//! [`std::sync::RwLock`] that record a wait-time histogram plus a
//! contention counter per lock.
//!
//! The serving engine guards its shared state with two locks (the live
//! state and the box cache); whether those locks are contended at target
//! load is the measurement that decides the ROADMAP's shard count. An
//! [`ObsMutex`] / [`ObsRwLock`] hands out the std guards unchanged —
//! poisoning included, so existing `.lock().unwrap()` and
//! `unwrap_or_else(PoisonError::into_inner)` call sites survive unchanged
//! — and feeds two series per lock name into the ordinary registry:
//!
//! - `lock.<name>.wait` (span histogram): time from requesting the lock to
//!   holding it, recorded on **every** acquire, so the p99 shows what the
//!   unlucky acquirer pays;
//! - `lock.<name>.contended` (rate counter): acquires that found the lock
//!   already taken (`try_lock` said `WouldBlock`).
//!
//! An `ObsRwLock` shares one set of series between readers and writers:
//! the question it answers is "is this lock a bottleneck", not "who is
//! waiting", and splitting the histogram would halve every sample count.
//! When the obs gate ([`crate::set_enabled`]) is off, acquires skip the
//! `try_lock` probe and the clock.
//!
//! The metric names are interned (leaked) once per lock construction;
//! locks with the same name share registry cells, so short-lived engines
//! in tests accumulate into one series rather than leaking new ones.

use std::sync::{
    LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
    TryLockResult,
};
use std::time::Instant;

use crate::registry::RateCounter;

struct Series {
    wait: &'static str,
    contended: RateCounter,
}

impl Series {
    fn new(name: &str) -> Self {
        let intern = |suffix: &str| crate::registry::intern(format!("lock.{name}.{suffix}"));
        Series {
            wait: intern("wait"),
            contended: crate::rate_counter(intern("contended")),
        }
    }

    /// One timed acquire: a `try_acquire` probe first, so an acquire that
    /// has to block counts as contended, then the blocking `acquire`.
    fn acquire<G>(
        &self,
        try_acquire: impl FnOnce() -> TryLockResult<G>,
        acquire: impl FnOnce() -> LockResult<G>,
    ) -> LockResult<G> {
        if !crate::enabled() {
            return acquire();
        }
        let start = Instant::now();
        let result = match try_acquire() {
            Ok(g) => Ok(g),
            Err(TryLockError::Poisoned(p)) => Err(p),
            Err(TryLockError::WouldBlock) => {
                self.contended.incr();
                acquire()
            }
        };
        crate::record_duration(self.wait, start.elapsed());
        result
    }
}

/// A [`Mutex`] recording a wait-time histogram and a contention counter
/// under `lock.<name>.*`.
pub struct ObsMutex<T> {
    series: Series,
    inner: Mutex<T>,
}

impl<T> ObsMutex<T> {
    /// Wraps `value`; metrics appear as `lock.<name>.wait` / `.contended`.
    pub fn new(name: &str, value: T) -> Self {
        ObsMutex {
            series: Series::new(name),
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recording wait time (and contention if it was
    /// already held). Poisoning passes through exactly as with
    /// [`Mutex::lock`].
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        self.series
            .acquire(|| self.inner.try_lock(), || self.inner.lock())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ObsMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

/// An [`RwLock`] recording a wait-time histogram and a contention counter
/// under `lock.<name>.*`, shared between readers and writers.
pub struct ObsRwLock<T> {
    series: Series,
    inner: RwLock<T>,
}

impl<T> ObsRwLock<T> {
    /// Wraps `value`; metrics appear as `lock.<name>.wait` / `.contended`.
    pub fn new(name: &str, value: T) -> Self {
        ObsRwLock {
            series: Series::new(name),
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared access, recording wait time (and contention when a
    /// writer holds the lock).
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        self.series
            .acquire(|| self.inner.try_read(), || self.inner.read())
    }

    /// Acquires exclusive access, recording wait time (and contention when
    /// any other holder exists).
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        self.series
            .acquire(|| self.inner.try_write(), || self.inner.write())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ObsRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRwLock")
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, PoisonError};
    use std::time::Duration;

    #[test]
    fn mutex_records_wait_and_contention() {
        let m = Arc::new(ObsMutex::new("test.lock.mutex", 0u32));
        // Uncontended acquire: wait recorded, no contention.
        *m.lock().unwrap() += 1;
        let wait = crate::span_snapshot("lock.test.lock.mutex.wait").unwrap();
        assert!(wait.count >= 1);

        // Forced contention: hold the lock while a second thread acquires.
        let contended_before = crate::counter_value("lock.test.lock.mutex.contended");
        let guard = m.lock().unwrap();
        let m2 = Arc::clone(&m);
        let waiter = std::thread::spawn(move || {
            let g = m2.lock().unwrap();
            *g
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(guard);
        assert_eq!(waiter.join().unwrap(), 1);
        assert!(
            crate::counter_value("lock.test.lock.mutex.contended") > contended_before,
            "blocked acquire did not count as contended"
        );
        let wait = crate::span_snapshot("lock.test.lock.mutex.wait").unwrap();
        assert!(
            wait.p99 >= 5_000_000,
            "10ms blocked wait missing from histogram: p99 {} ns",
            wait.p99
        );
    }

    #[test]
    fn rwlock_counts_writer_blocking_readers() {
        let l = Arc::new(ObsRwLock::new("test.lock.rw", vec![1, 2, 3]));
        assert_eq!(l.read().unwrap().len(), 3);
        l.write().unwrap().push(4);
        let before = crate::counter_value("lock.test.lock.rw.contended");
        let g = l.write().unwrap();
        let l2 = Arc::clone(&l);
        let reader = std::thread::spawn(move || l2.read().unwrap().len());
        std::thread::sleep(Duration::from_millis(5));
        drop(g);
        assert_eq!(reader.join().unwrap(), 4);
        assert!(crate::counter_value("lock.test.lock.rw.contended") > before);
        assert!(
            crate::span_snapshot("lock.test.lock.rw.wait")
                .unwrap()
                .count
                >= 3
        );
    }

    #[test]
    fn poisoning_passes_through() {
        let m = Arc::new(ObsMutex::new("test.lock.poison", 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        // Both styles used across the workspace must keep working.
        assert!(m.lock().is_err());
        let g = m.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*g, 7);
    }

    #[test]
    fn same_name_shares_series_across_instances() {
        let before = crate::span_snapshot("lock.test.lock.shared.wait")
            .map(|s| s.count)
            .unwrap_or(0);
        drop(ObsMutex::new("test.lock.shared", ()).lock().unwrap());
        drop(ObsMutex::new("test.lock.shared", ()).lock().unwrap());
        let after = crate::span_snapshot("lock.test.lock.shared.wait")
            .unwrap()
            .count;
        assert_eq!(
            after - before,
            2,
            "instances with one name must share one series"
        );
    }
}
