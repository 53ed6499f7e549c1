//! Fixed-footprint log-linear histogram for latency aggregation.
//!
//! Values (nanoseconds) land in HdrHistogram-style log-linear buckets: each
//! power-of-two range `[2^e, 2^(e+1))` is split into four equal sub-buckets
//! (2 sub-bucket bits), so the representative midpoint is never more than
//! ~12.5% from the recorded value. Values below 4 get their own exact
//! buckets. Recording is a single relaxed atomic increment, so the hot path
//! never allocates or locks, and a histogram can be shared freely across
//! threads. Quantiles are reconstructed from the bucket counts with the
//! bucket midpoint as the representative value.
//!
//! The 2 extra resolution bits exist because serve latencies cluster in the
//! 0.1–2 ms band: with plain power-of-two buckets the whole band collapsed
//! into two buckets and the served p50 read the same as the p95. Four
//! sub-buckets per octave keep the footprint small (252 buckets cover all
//! of `u64`) while making sub-millisecond percentiles distinguishable.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution bits: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: usize = 2;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// Number of log-linear buckets; covers the full `u64` nanosecond range.
/// Indices `0..SUB` hold the exact values `0..SUB`; above that, octave `e`
/// (values `[2^e, 2^(e+1))`, `e ≥ 2`) contributes `SUB` sub-buckets.
pub const N_BUCKETS: usize = SUB * 63;

/// A concurrent log-linear histogram of `u64` samples (typically ns).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Index of the bucket covering `value`. Values below `SUB` map to their own
/// exact buckets; otherwise the top `SUB_BITS` bits after the leading one
/// select a linear sub-bucket inside the value's octave.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value < SUB as u64 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB * (exp - 1) + sub
    }
}

/// Lower bound and width of bucket `i`'s range.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        (i as u64, 1)
    } else {
        let exp = i / SUB + 1;
        let sub = (i % SUB) as u64;
        let width = 1u64 << (exp - SUB_BITS);
        ((1u64 << exp) + sub * width, width)
    }
}

/// Midpoint of bucket `i`'s range, used to reconstruct quantiles.
fn bucket_mid(i: usize) -> u64 {
    let (lo, width) = bucket_bounds(i);
    lo + width / 2
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        // `[AtomicU64::new(0); N]` needs Copy; build the array via a
        // const block, which is re-evaluated per element.
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; safe from any thread.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`), or 0 when empty; see
    /// [`HistogramBuckets::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.buckets().quantile(q)
    }

    /// Immutable snapshot of the aggregate statistics.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.buckets().snapshot()
    }

    /// A plain copy of the buckets, count and sum.
    pub fn buckets(&self) -> HistogramBuckets {
        let mut acc = HistogramBuckets::new();
        self.accumulate_into(&mut acc);
        acc
    }

    /// Adds this histogram's buckets into `acc`. The per-bucket loads are
    /// individually atomic but not mutually consistent — samples recorded
    /// concurrently may be partially included, exactly like [`snapshot`].
    ///
    /// [`snapshot`]: LogHistogram::snapshot
    pub fn accumulate_into(&self, acc: &mut HistogramBuckets) {
        for (i, b) in self.buckets.iter().enumerate() {
            acc.counts[i] += b.load(Ordering::Relaxed);
        }
        acc.count += self.count();
        acc.sum += self.sum();
    }

    /// Zeroes every bucket, the count, and the sum. Not atomic as a whole:
    /// samples recorded concurrently with a clear may be partially lost.
    /// Intended for window-slot rotation, where the slot being cleared has
    /// aged out and its exact contents no longer matter.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A plain (non-atomic) owned histogram with the same bucket layout as
/// [`LogHistogram`], supporting merge — the accumulator behind windowed
/// merge-on-read. Merging two `HistogramBuckets` is exact: the result is
/// identical to having recorded both sample streams into one histogram,
/// bucket by bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramBuckets {
    /// Per-bucket sample counts (log-linear layout; see module docs).
    pub counts: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for HistogramBuckets {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramBuckets {
    /// An empty accumulator.
    pub fn new() -> Self {
        HistogramBuckets {
            counts: [0; N_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample (same bucketing as [`LogHistogram::record`]).
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Merges `other` in, bucket by bucket.
    pub fn merge(&mut self, other: &HistogramBuckets) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of accumulated samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of accumulated samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`), or 0 when empty: the
    /// midpoint of the bucket holding the rank-`ceil(q·n)` sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.counts.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(N_BUCKETS - 1)
    }

    /// Count, sum, mean and p50/p95/p99 of the accumulated distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time view of a [`LogHistogram`] (all values in ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Mean sample.
    pub mean: u64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_linear_with_four_sub_buckets() {
        // Exact buckets below SUB.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 3);
        // Octave [4, 8): width-1 sub-buckets.
        assert_eq!(bucket_of(4), 4);
        assert_eq!(bucket_of(7), 7);
        // Octave [8, 16): width-2 sub-buckets.
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(9), 8);
        assert_eq!(bucket_of(10), 9);
        assert_eq!(bucket_of(15), 11);
        // Last sub-bucket of [512, 1024) vs first of [1024, 2048).
        assert_eq!(bucket_of(1023), bucket_of(896));
        assert_eq!(bucket_of(1024), bucket_of(1023) + 1);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every bucket's range starts where the previous one ended, and
        // bucket_of maps both endpoints back to the bucket itself.
        let mut expected_lo = 0u64;
        for i in 0..N_BUCKETS {
            let (lo, width) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} lower bound");
            assert_eq!(bucket_of(lo), i, "bucket {i} lower endpoint");
            let hi = lo.saturating_add(width - 1);
            assert_eq!(bucket_of(hi), i, "bucket {i} upper endpoint");
            expected_lo = match lo.checked_add(width) {
                Some(next) => next,
                None => {
                    assert_eq!(i, N_BUCKETS - 1, "only the last bucket may cap u64");
                    break;
                }
            };
        }
    }

    #[test]
    fn midpoint_error_is_within_an_eighth() {
        // The sub-bucket width is at most lo/4, so the midpoint is never
        // more than value/8 away from any value in the bucket.
        for v in [1u64, 5, 13, 100, 1023, 4096, 600_000, 786_432, 1 << 40] {
            let mid = bucket_mid(bucket_of(v));
            let err = mid.abs_diff(v);
            assert!(err * 8 <= v.max(8), "value {v} mid {mid} err {err}");
        }
    }

    #[test]
    fn quantiles_bound_samples_within_bucket_resolution() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.mean(), (1..=1000u64).sum::<u64>() / 1000);
        // True p50 = 500 lives in sub-bucket [448, 512); midpoint 480.
        let p50 = h.quantile(0.5);
        assert!((440..=570).contains(&p50), "p50 {p50}");
        // True p99 = 990 lives in sub-bucket [896, 1024); midpoint 960.
        let p99 = h.quantile(0.99);
        assert!((880..=1120).contains(&p99), "p99 {p99}");
        // Quantiles are monotone in q.
        assert!(h.quantile(0.1) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn sub_millisecond_latencies_are_distinguishable() {
        // The regression fixed here: serve latencies clustered in the
        // 0.5–1 ms band used to collapse into one power-of-two bucket, so
        // p50 == p95 == 786432 ns. With sub-buckets they separate.
        let h = LogHistogram::new();
        for _ in 0..950 {
            h.record(600_000); // 0.6 ms bulk
        }
        for _ in 0..50 {
            h.record(950_000); // 0.95 ms tail
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 < p99, "p50 {p50} vs p99 {p99} must be distinguishable");
        assert!(p50.abs_diff(600_000) * 8 <= 600_000, "p50 {p50}");
        assert!(p99.abs_diff(950_000) * 8 <= 950_000, "p99 {p99}");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p95, 0);
    }

    #[test]
    fn single_value_dominates_every_quantile() {
        let h = LogHistogram::new();
        for _ in 0..100 {
            h.record(5000);
        }
        let b = bucket_mid(bucket_of(5000));
        assert_eq!(h.quantile(0.01), b);
        assert_eq!(h.quantile(0.5), b);
        assert_eq!(h.quantile(1.0), b);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LogHistogram::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 80_000);
    }

    #[test]
    fn buckets_merge_equals_single_recording() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let one = LogHistogram::new();
        for v in [1u64, 5, 5, 900, 40_000] {
            a.record(v);
            one.record(v);
        }
        for v in [2u64, 7, 1_000_000] {
            b.record(v);
            one.record(v);
        }
        let mut acc = HistogramBuckets::new();
        a.accumulate_into(&mut acc);
        b.accumulate_into(&mut acc);
        assert_eq!(acc.snapshot(), one.snapshot());
    }

    #[test]
    fn buckets_record_matches_histogram_record() {
        let h = LogHistogram::new();
        let mut acc = HistogramBuckets::new();
        for v in [0u64, 1, 3, 17, 4096, 1 << 40] {
            h.record(v);
            acc.record(v);
        }
        let mut from_hist = HistogramBuckets::new();
        h.accumulate_into(&mut from_hist);
        assert_eq!(from_hist, acc);
        assert_eq!(from_hist.snapshot(), acc.snapshot());
    }

    #[test]
    fn clear_empties_a_histogram() {
        let h = LogHistogram::new();
        h.record(12);
        h.record(900);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.quantile(0.99), 0);
        // Still usable afterwards.
        h.record(4);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_serialises_roundtrip() {
        let h = LogHistogram::new();
        h.record(10);
        h.record(1000);
        let snap = h.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
