//! Contention accounting: drop-in wrappers around [`std::sync::Mutex`] and
//! [`std::sync::RwLock`] that record wait-time and hold-time histograms
//! plus a contention counter per lock.
//!
//! The serving stack guards its shared state with exactly two locks (the
//! engine's live state and the batcher's admission queue); whether those
//! locks are contended at target load is the measurement that decides the
//! ROADMAP's shard count. An [`ObsMutex`] / [`ObsRwLock`] keeps the std
//! semantics — poisoning included, so existing `.lock().unwrap()` and
//! `unwrap_or_else(PoisonError::into_inner)` call sites survive unchanged
//! — and feeds three series per lock name into the ordinary registry:
//!
//! - `lock.<name>.wait` (span histogram): time from requesting the lock to
//!   holding it, recorded on **every** acquire, so the p99 shows what the
//!   unlucky acquirer pays;
//! - `lock.<name>.hold` (span histogram): time the guard was held —
//!   paused across condvar waits, which release the lock;
//! - `lock.<name>.contended` (rate counter): acquires that found the lock
//!   already taken (`try_lock` said `WouldBlock`).
//!
//! An `ObsRwLock` shares one set of series between readers and writers:
//! the question it answers is "is this lock a bottleneck", not "who is
//! waiting", and splitting the histograms would halve every sample count.
//! When the obs gate ([`crate::set_enabled`]) is off, acquires skip the
//! `try_lock` probe and both clock reads.
//!
//! The metric names are interned (leaked) once per lock construction;
//! locks with the same name share registry cells, so short-lived engines
//! in tests accumulate into one series rather than leaking new ones.

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError, TryLockResult, WaitTimeoutResult,
};
use std::time::{Duration, Instant};

use crate::registry::RateCounter;

/// `"lock.<name>.<suffix>"`, interned so constructing the same lock name
/// twice reuses one leak.
fn intern_series(name: &str, suffix: &str) -> &'static str {
    crate::registry::intern(format!("lock.{name}.{suffix}"))
}

struct Series {
    wait: &'static str,
    hold: &'static str,
    contended: RateCounter,
}

impl Series {
    fn new(name: &str) -> Self {
        let contended = crate::rate_counter(intern_series(name, "contended"));
        Series {
            wait: intern_series(name, "wait"),
            hold: intern_series(name, "hold"),
            contended,
        }
    }

    /// One timed acquire: a `try_acquire` probe first, so an acquire that
    /// has to block counts as contended, then the blocking `acquire`.
    fn acquire<G>(
        &self,
        try_acquire: impl FnOnce() -> TryLockResult<G>,
        acquire: impl FnOnce() -> LockResult<G>,
    ) -> LockResult<ObsGuard<G>> {
        if !crate::enabled() {
            return self.wrap(acquire(), false);
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
        self.wrap(result, true)
    }

    /// Wraps a std guard (poisoned or not), starting its hold clock when
    /// `timed`.
    fn wrap<G>(&self, result: LockResult<G>, timed: bool) -> LockResult<ObsGuard<G>> {
        let make = |inner| ObsGuard {
            inner: Some(inner),
            hold: self.hold,
            since: timed.then(Instant::now),
        };
        match result {
            Ok(g) => Ok(make(g)),
            Err(p) => Err(PoisonError::new(make(p.into_inner()))),
        }
    }
}

/// A [`Mutex`] recording wait/hold-time histograms and a contention
/// counter under `lock.<name>.*`.
pub struct ObsMutex<T> {
    series: Series,
    inner: Mutex<T>,
}

impl<T> ObsMutex<T> {
    /// Wraps `value`; metrics appear as `lock.<name>.wait` / `.hold` /
    /// `.contended`.
    pub fn new(name: &str, value: T) -> Self {
        ObsMutex {
            series: Series::new(name),
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recording wait time (and contention if it was
    /// already held). Poisoning passes through exactly as with
    /// [`Mutex::lock`].
    pub fn lock(&self) -> LockResult<ObsMutexGuard<'_, T>> {
        self.series
            .acquire(|| self.inner.try_lock(), || self.inner.lock())
    }

    /// [`Condvar::wait`] through the instrumented guard. Hold time pauses
    /// for the wait (the lock is released) and resumes on wake.
    pub fn wait<'a>(
        &self,
        cv: &Condvar,
        mut guard: ObsMutexGuard<'a, T>,
    ) -> LockResult<ObsMutexGuard<'a, T>> {
        guard.record_hold();
        let inner = guard.inner.take().expect("guard holds until consumed");
        self.series.wrap(cv.wait(inner), crate::enabled())
    }

    /// [`Condvar::wait_timeout`] through the instrumented guard; same
    /// hold-time pause as [`wait`](ObsMutex::wait).
    pub fn wait_timeout<'a>(
        &self,
        cv: &Condvar,
        mut guard: ObsMutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(ObsMutexGuard<'a, T>, WaitTimeoutResult)> {
        guard.record_hold();
        let inner = guard.inner.take().expect("guard holds until consumed");
        let timed = crate::enabled();
        let (result, timeout) = match cv.wait_timeout(inner, dur) {
            Ok((g, timeout)) => (Ok(g), timeout),
            Err(p) => {
                let (g, timeout) = p.into_inner();
                (Err(PoisonError::new(g)), timeout)
            }
        };
        match self.series.wrap(result, timed) {
            Ok(g) => Ok((g, timeout)),
            Err(p) => Err(PoisonError::new((p.into_inner(), timeout))),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ObsMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

/// An [`RwLock`] recording wait/hold-time histograms and a contention
/// counter under `lock.<name>.*`, shared between readers and writers.
pub struct ObsRwLock<T> {
    series: Series,
    inner: RwLock<T>,
}

impl<T> ObsRwLock<T> {
    /// Wraps `value`; metrics appear as `lock.<name>.wait` / `.hold` /
    /// `.contended`.
    pub fn new(name: &str, value: T) -> Self {
        ObsRwLock {
            series: Series::new(name),
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared access, recording wait time (and contention when a
    /// writer holds the lock).
    pub fn read(&self) -> LockResult<ObsReadGuard<'_, T>> {
        self.series
            .acquire(|| self.inner.try_read(), || self.inner.read())
    }

    /// Acquires exclusive access, recording wait time (and contention when
    /// any other holder exists).
    pub fn write(&self) -> LockResult<ObsWriteGuard<'_, T>> {
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

/// Guard of an [`ObsMutex`] or [`ObsRwLock`]: derefs like the std guard it
/// wraps and records hold time when dropped.
pub struct ObsGuard<G> {
    /// `None` only while a condvar wait has the std guard.
    inner: Option<G>,
    hold: &'static str,
    since: Option<Instant>,
}

/// Guard of an [`ObsMutex`].
pub type ObsMutexGuard<'a, T> = ObsGuard<MutexGuard<'a, T>>;
/// Shared guard of an [`ObsRwLock`].
pub type ObsReadGuard<'a, T> = ObsGuard<RwLockReadGuard<'a, T>>;
/// Exclusive guard of an [`ObsRwLock`].
pub type ObsWriteGuard<'a, T> = ObsGuard<RwLockWriteGuard<'a, T>>;

impl<G> ObsGuard<G> {
    fn record_hold(&mut self) {
        if let Some(since) = self.since.take() {
            crate::record_duration(self.hold, since.elapsed());
        }
    }
}

impl<G: Deref> Deref for ObsGuard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        self.inner.as_deref().expect("guard holds until dropped")
    }
}

impl<G: DerefMut> DerefMut for ObsGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        self.inner
            .as_deref_mut()
            .expect("guard holds until dropped")
    }
}

impl<G> Drop for ObsGuard<G> {
    fn drop(&mut self) {
        self.record_hold();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_records_wait_hold_and_contention() {
        let m = Arc::new(ObsMutex::new("test.lock.mutex", 0u32));
        // Uncontended acquire: wait + hold recorded, no contention.
        {
            let mut g = m.lock().unwrap();
            *g += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        let wait = crate::span_snapshot("lock.test.lock.mutex.wait").unwrap();
        assert!(wait.count >= 1);
        let hold = crate::span_snapshot("lock.test.lock.mutex.hold").unwrap();
        assert!(hold.count >= 1);
        assert!(hold.p99 >= 1_000_000, "held ≥2ms but p99 {} ns", hold.p99);

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
    fn condvar_wait_pauses_hold_time_and_keeps_std_semantics() {
        let m = Arc::new(ObsMutex::new("test.lock.cv", false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock().unwrap();
            while !*g {
                g = m2.wait(&cv2, g).unwrap();
            }
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        *m.lock().unwrap() = true;
        cv.notify_all();
        assert!(waiter.join().unwrap());
        // The waiter slept ~20ms inside wait(); hold time excludes it.
        let hold = crate::span_snapshot("lock.test.lock.cv.hold").unwrap();
        assert!(
            hold.p99 < 15_000_000,
            "condvar wait leaked into hold time: p99 {} ns",
            hold.p99
        );

        // wait_timeout: expires without a notify, guard comes back usable.
        let g = m.lock().unwrap();
        let (g, timeout) = m.wait_timeout(&cv, g, Duration::from_millis(1)).unwrap();
        assert!(timeout.timed_out());
        assert!(*g);
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
