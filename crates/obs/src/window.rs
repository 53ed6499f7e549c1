//! Sliding-window aggregation: time-bucketed rings over [`LogHistogram`]
//! and plain counters, merged on read. One [`Ring`] type serves both.
//!
//! The cumulative histograms in the registry answer "what has this process
//! done since boot"; an operator of the serving stack asks "what is p99
//! *right now*". A [`WindowedHistogram`] keeps a ring of per-second
//! sub-histograms: recording lands in the slot for the current second
//! (rotating the slot when its tagged second has aged out), and a windowed
//! read merges the slots covering the last `W` seconds into one
//! [`HistogramBuckets`] accumulator. Nothing is ever summed incrementally,
//! so a window read is always consistent with the slots it saw — stale
//! slots are simply skipped.
//!
//! Rotation is racy by design: when two threads cross a second boundary
//! together, the CAS winner clears the slot and the loser's first sample
//! may land before the clear finishes and be wiped. Windowed statistics
//! are approximations over a moving boundary; losing a sample at a slot
//! rotation (once per second per name, at worst) is within their accuracy
//! contract. The cumulative histograms lose nothing.
//!
//! All public recording entry points stamp samples with the process-wide
//! monotonic second from [`now_sec`]; the `*_at` variants take an explicit
//! second so tests can drive rotation deterministically.

use crate::histogram::{HistogramBuckets, HistogramSnapshot, LogHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Number of one-second slots in every ring: windows up to
/// [`MAX_WINDOW_SECS`] can be answered without touching a live slot twice.
pub const WINDOW_SLOTS: usize = 64;

/// Largest supported window, in seconds.
pub const MAX_WINDOW_SECS: u64 = 60;

/// Tag of a slot that has never been written.
const EMPTY: u64 = u64::MAX;

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since the first call into the windowing layer (process-wide,
/// monotonic). Every windowed recording and read is stamped with this.
pub fn now_sec() -> u64 {
    process_epoch().elapsed().as_secs()
}

/// A ring of per-second aggregates (a [`LogHistogram`] or an event count
/// per slot), each slot tagged with the second it holds, answering queries
/// over the last `W ≤ 60` seconds.
pub struct Ring<T> {
    slots: Box<[(AtomicU64, T); WINDOW_SLOTS]>,
}

/// Per-second histograms: quantile/rate queries over a sliding window.
pub type WindowedHistogram = Ring<LogHistogram>;

/// Per-second event counts: the windowed companion of a monotonic
/// counter, answering "events in the last `W` seconds" instead of "events
/// since boot".
pub type WindowedCounter = Ring<AtomicU64>;

impl<T: Default> Default for Ring<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> Ring<T> {
    /// An empty ring, built in place on the heap (a histogram ring is
    /// 128 KiB, too large to assemble on the stack first).
    pub fn new() -> Self {
        let slots: Box<[(AtomicU64, T)]> = (0..WINDOW_SLOTS)
            .map(|_| (AtomicU64::new(EMPTY), T::default()))
            .collect();
        Ring {
            slots: slots.try_into().ok().expect("exactly WINDOW_SLOTS slots"),
        }
    }
}

impl<T> Ring<T> {
    /// The slot for second `sec`. When it still holds an older second, the
    /// writer that wins the CAS re-tags it and wipes it with `clear`; a
    /// concurrent writer that sees the new tag before the wipe finishes
    /// may lose its sample (see the module docs).
    fn slot(&self, sec: u64, clear: impl Fn(&T)) -> &T {
        let (tag, value) = &self.slots[(sec % WINDOW_SLOTS as u64) as usize];
        loop {
            let tagged = tag.load(Ordering::Acquire);
            if tagged == sec {
                break;
            }
            if tag
                .compare_exchange(tagged, sec, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                clear(value);
                break;
            }
        }
        value
    }

    /// The slots covering `(now - window, now]`; `window` is clamped to
    /// [`MAX_WINDOW_SECS`].
    fn live(&self, now: u64, window: u64) -> impl Iterator<Item = &T> {
        let window = window.clamp(1, MAX_WINDOW_SECS);
        self.slots.iter().filter_map(move |(tag, value)| {
            let tagged = tag.load(Ordering::Acquire);
            (tagged != EMPTY && tagged <= now && now - tagged < window).then_some(value)
        })
    }
}

impl Ring<LogHistogram> {
    /// Records one sample at the current process second.
    pub fn record(&self, value: u64) {
        self.record_at(now_sec(), value);
    }

    /// Records one sample at an explicit second (test hook; production
    /// code uses [`record`](Ring::record)).
    pub fn record_at(&self, sec: u64, value: u64) {
        self.slot(sec, LogHistogram::clear).record(value);
    }

    /// Merges the slots covering `(now - window, now]` into one
    /// accumulator. `window` is clamped to [`MAX_WINDOW_SECS`].
    pub fn merged_at(&self, now: u64, window: u64) -> HistogramBuckets {
        let mut acc = HistogramBuckets::new();
        for hist in self.live(now, window) {
            hist.accumulate_into(&mut acc);
        }
        acc
    }

    /// Windowed summary at an explicit second (test hook).
    pub fn window_at(&self, now: u64, window: u64) -> WindowedSnapshot {
        let window = window.clamp(1, MAX_WINDOW_SECS);
        WindowedSnapshot::from_buckets(window, &self.merged_at(now, window))
    }
}

impl Ring<AtomicU64> {
    /// Adds `n` events at the current process second.
    pub fn add(&self, n: u64) {
        self.add_at(now_sec(), n);
    }

    /// Adds `n` events at an explicit second (test hook).
    pub fn add_at(&self, sec: u64, n: u64) {
        self.slot(sec, |count| count.store(0, Ordering::Release))
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Events counted in `(now - window, now]`.
    pub fn sum_at(&self, now: u64, window: u64) -> u64 {
        self.live(now, window)
            .map(|count| count.load(Ordering::Relaxed))
            .sum()
    }
}

/// Point-in-time view of one histogram over one sliding window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedSnapshot {
    /// Window length the summary covers, in seconds.
    pub window_secs: u64,
    /// Samples recorded inside the window.
    pub count: u64,
    /// Samples per second over the window.
    pub rate_per_sec: f64,
    /// Mean sample inside the window.
    pub mean: u64,
    /// Approximate median inside the window.
    pub p50: u64,
    /// Approximate 95th percentile inside the window.
    pub p95: u64,
    /// Approximate 99th percentile inside the window.
    pub p99: u64,
}

impl WindowedSnapshot {
    pub(crate) fn from_buckets(window_secs: u64, acc: &HistogramBuckets) -> Self {
        let s: HistogramSnapshot = acc.snapshot();
        WindowedSnapshot {
            window_secs,
            count: s.count,
            rate_per_sec: s.count as f64 / window_secs as f64,
            mean: s.mean,
            p50: s.p50,
            p95: s.p95,
            p99: s.p99,
        }
    }

    /// An all-zero snapshot for the given window.
    pub fn empty(window_secs: u64) -> Self {
        Self::from_buckets(window_secs, &HistogramBuckets::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_histogram_scopes_reads_to_the_window() {
        let w = WindowedHistogram::new();
        w.record_at(100, 1_000);
        w.record_at(105, 2_000);
        w.record_at(109, 4_000);
        // 10s window ending at 109 sees all three.
        let all = w.window_at(109, 10);
        assert_eq!(all.count, 3);
        // 5s window ending at 109 sees only the last two.
        let recent = w.window_at(109, 5);
        assert_eq!(recent.count, 2);
        // 10s window ending much later sees nothing.
        assert_eq!(w.window_at(200, 10).count, 0);
    }

    #[test]
    fn slot_rotation_evicts_aged_out_samples() {
        let w = WindowedHistogram::new();
        w.record_at(3, 500);
        // Second 3 + WINDOW_SLOTS maps to the same slot; recording there
        // must wipe the old second's samples, not merge with them.
        let later = 3 + WINDOW_SLOTS as u64;
        w.record_at(later, 9_000);
        let snap = w.window_at(later, 60);
        assert_eq!(snap.count, 1);
        assert!(snap.p50 >= 8_192, "old sample leaked into rotated slot");
    }

    #[test]
    fn counter_sums_cover_only_the_window() {
        let c = WindowedCounter::new();
        for sec in 0..10u64 {
            c.add_at(sec, 5);
        }
        assert_eq!(c.sum_at(9, 10), 50);
        assert_eq!(c.sum_at(9, 5), 25);
    }

    #[test]
    fn counter_rotation_resets_the_slot() {
        let c = WindowedCounter::new();
        c.add_at(7, 100);
        let later = 7 + WINDOW_SLOTS as u64;
        c.add_at(later, 1);
        assert_eq!(c.sum_at(later, 60), 1, "rotated slot kept its old count");
    }

    #[test]
    fn empty_window_snapshot_is_all_zero() {
        let snap = WindowedSnapshot::empty(10);
        assert_eq!(snap.count, 0);
        assert_eq!(snap.rate_per_sec, 0.0);
        assert_eq!(snap.p99, 0);
        let w = WindowedHistogram::new();
        assert_eq!(w.window_at(0, 10), WindowedSnapshot::empty(10));
    }

    #[test]
    fn concurrent_recording_within_one_second_loses_nothing() {
        let w = std::sync::Arc::new(WindowedHistogram::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let w = std::sync::Arc::clone(&w);
                s.spawn(move || {
                    for i in 0..1000 {
                        w.record_at(50, t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(w.window_at(50, 10).count, 8000);
    }
}
