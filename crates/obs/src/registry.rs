//! The metric registry: one process-wide table of named series.
//!
//! Every series is keyed by `(name, Kind)`: a plain [`counter`], a
//! [`rate_counter`] (a counter plus a sliding-window ring, for "events in
//! the last 10 s"), a [`Kind::Span`] or [`Kind::Value`] histogram, or a
//! [`Kind::Gauge`]. Each histogram records into its cumulative-since-boot
//! [`LogHistogram`] and its [`WindowedHistogram`] together, so every name
//! answers both "over the whole run" and "over the last 10/60 seconds".
//!
//! [`series`] lists the table and is the one read path: `/metrics`
//! ([`crate::expo`]), [`crate::RunSummary`], the SLO and audit producers
//! and [`reset`] all go through it. Series whose name contains `:` belong
//! to a producer module (`slo:…`, `audit:…`) that renders them in its own
//! families; see [`Series::owned`].
//!
//! The whole layer sits behind one atomic enable gate: when disabled,
//! [`span`] does not even read the clock, so instrumented code pays a
//! single relaxed atomic load per call site. Recording by name takes the
//! table's read lock once and writes under it, with no handle clone.

use crate::histogram::{HistogramBuckets, HistogramSnapshot, LogHistogram};
use crate::window::{now_sec, WindowedCounter, WindowedHistogram, WindowedSnapshot};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the whole instrumentation layer on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently recording.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// What a series measures: the second half of its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A monotonic count ([`counter`]).
    Counter,
    /// A monotonic count with a sliding-window ring ([`rate_counter`]).
    Rate,
    /// A histogram of durations in nanoseconds ([`span`],
    /// [`record_duration`]).
    Span,
    /// A histogram of dimensionless samples ([`record_value`]).
    Value,
    /// A last-written `f64` ([`crate::set_drift_stat`], and the SLO and
    /// audit producers' settings and latch).
    Gauge,
}

enum Cell {
    Count(AtomicU64),
    Rate(AtomicU64, WindowedCounter),
    /// Boxed so counters and gauges do not take a histogram's 2 KiB.
    Hist(Box<LogHistogram>, WindowedHistogram),
    /// `f64` bits.
    Gauge(AtomicU64),
}

impl Cell {
    fn new(kind: Kind) -> Self {
        match kind {
            Kind::Counter => Cell::Count(AtomicU64::new(0)),
            Kind::Rate => Cell::Rate(AtomicU64::new(0), WindowedCounter::new()),
            Kind::Span | Kind::Value => Cell::Hist(Box::default(), WindowedHistogram::new()),
            Kind::Gauge => Cell::Gauge(AtomicU64::new(0f64.to_bits())),
        }
    }

    fn add(&self, n: u64) {
        match self {
            Cell::Count(total) => {
                total.fetch_add(n, Ordering::Relaxed);
            }
            Cell::Rate(total, window) => {
                total.fetch_add(n, Ordering::Relaxed);
                window.add(n);
            }
            Cell::Hist(..) | Cell::Gauge(_) => {}
        }
    }

    fn record(&self, value: u64) {
        if let Cell::Hist(cumulative, window) = self {
            cumulative.record(value);
            window.record(value);
        }
    }

    /// Counters: the cumulative count. Histograms: samples recorded.
    fn count(&self) -> u64 {
        match self {
            Cell::Count(total) | Cell::Rate(total, _) => total.load(Ordering::Relaxed),
            Cell::Hist(cumulative, _) => cumulative.count(),
            Cell::Gauge(_) => 0,
        }
    }

    /// Rate counters: events in the last `window` seconds.
    fn window_sum(&self, window: u64) -> u64 {
        match self {
            Cell::Rate(_, ring) => ring.sum_at(now_sec(), window),
            _ => 0,
        }
    }
}

/// Each row repeats its `'static` name beside the cell, so a lookup by a
/// borrowed name can still hand out a [`Series`] naming it.
type Table = RwLock<HashMap<(&'static str, Kind), (&'static str, Arc<Cell>)>>;

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The cell of `(name, kind)`, created on first use.
fn cell(name: &'static str, kind: Kind) -> Arc<Cell> {
    if let Some((_, c)) = table().read().get(&(name, kind)) {
        return Arc::clone(c);
    }
    insert(name, kind)
}

/// The slow path of [`cell`], kept out of line: building a histogram cell
/// needs a large stack frame, and every caller that inlined it would probe
/// that whole frame on each call (tens of microseconds on a fresh thread).
#[cold]
#[inline(never)]
fn insert(name: &'static str, kind: Kind) -> Arc<Cell> {
    let mut map = table().write();
    let row = map
        .entry((name, kind))
        .or_insert_with(|| (name, Arc::new(Cell::new(kind))));
    Arc::clone(&row.1)
}

/// Records into the histogram `(name, kind)` under one read of the table.
fn record(name: &'static str, kind: Kind, value: u64) {
    if let Some((_, c)) = table().read().get(&(name, kind)) {
        return c.record(value);
    }
    insert(name, kind).record(value);
}

/// `name` as a `&'static str`, leaked once per distinct string. For series
/// names built at run time (lock, SLO and failpoint series); bounded by
/// the number of distinct names.
pub(crate) fn intern(name: String) -> &'static str {
    static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut tab = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = tab.iter().find(|&&s| s == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    tab.push(leaked);
    leaked
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Times a region of code; records into the named span histogram on drop.
///
/// Created by [`span`]. Use [`SpanGuard::stop`] when the elapsed time itself
/// is needed; plain drop records without returning it.
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    fn elapsed_and_record(&mut self) -> Duration {
        match self.start.take() {
            Some(start) => {
                let elapsed = start.elapsed();
                record(self.name, Kind::Span, nanos(elapsed));
                elapsed
            }
            None => Duration::ZERO,
        }
    }

    /// Ends the span now, recording it, and returns the elapsed time.
    /// Returns [`Duration::ZERO`] when instrumentation is disabled.
    pub fn stop(mut self) -> Duration {
        self.elapsed_and_record()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.elapsed_and_record();
    }
}

/// Opens a timed span. The measurement ends (and is recorded) when the
/// returned guard drops or is [`SpanGuard::stop`]ped.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

/// Runs `f` inside a span, returning its result and the elapsed time.
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let guard = span(name);
    let out = f();
    (out, guard.stop())
}

/// Records a dimensionless sample (batch size, queue depth, list length)
/// into the named value histogram. Same log-scale aggregation as spans, but
/// a separate kind, so consumers never mistake a size distribution for
/// nanoseconds. No-op while instrumentation is disabled.
pub fn record_value(name: &'static str, value: u64) {
    if enabled() {
        record(name, Kind::Value, value);
    }
}

/// Records an externally measured duration into the named *span* histogram —
/// for latencies that cannot be scoped by a [`SpanGuard`], e.g. a request's
/// end-to-end time measured from enqueue to response across threads.
pub fn record_duration(name: &'static str, duration: Duration) {
    if enabled() {
        record(name, Kind::Span, nanos(duration));
    }
}

/// A named monotonic counter. Cheap to clone; cache one outside hot loops.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<Cell>,
}

/// A [`Counter`] obtained from [`rate_counter`]: it also feeds a
/// sliding-window ring, so [`Counter::in_window`] answers rate queries
/// ("sheds in the last 10 s") alongside the cumulative total.
pub type RateCounter = Counter;

impl Counter {
    /// Adds `n` (no-op while instrumentation is disabled).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.cell.add(n);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Cumulative value since boot.
    pub fn get(&self) -> u64 {
        self.cell.count()
    }

    /// Events in the last `window` seconds (0 unless this counter came
    /// from [`rate_counter`]).
    pub fn in_window(&self, window: u64) -> u64 {
        self.cell.window_sum(window)
    }
}

/// Looks up (creating on first use) the named counter. Its `add` is one
/// relaxed `fetch_add`, cheap enough for per-sample training loops.
pub fn counter(name: &'static str) -> Counter {
    Counter {
        cell: cell(name, Kind::Counter),
    }
}

/// Looks up (creating on first use) the named rate counter. Each `add`
/// costs two atomic ops plus a clock read; keep it off per-sample loops.
pub fn rate_counter(name: &'static str) -> RateCounter {
    Counter {
        cell: cell(name, Kind::Rate),
    }
}

/// A named `f64` gauge holding the last value written. Cheap to clone.
#[derive(Clone)]
pub(crate) struct Gauge {
    cell: Arc<Cell>,
}

impl Gauge {
    fn bits(&self) -> &AtomicU64 {
        match &*self.cell {
            Cell::Gauge(bits) => bits,
            _ => unreachable!("gauge handles wrap gauge cells"),
        }
    }

    /// Publishes `value` (recorded even while instrumentation is disabled:
    /// gauges carry configuration and derived state, not hot-path samples).
    pub(crate) fn set(&self, value: f64) {
        self.bits().store(value.to_bits(), Ordering::Relaxed);
    }

    /// The last value written (0.0 before the first).
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits().load(Ordering::Relaxed))
    }

    /// Writes `value`, returning the previous one.
    pub(crate) fn swap(&self, value: f64) -> f64 {
        f64::from_bits(self.bits().swap(value.to_bits(), Ordering::Relaxed))
    }
}

/// Looks up (creating on first use) the named gauge. Crate-private: a
/// gauge whose name has no `:` renders as a drift statistic, so code
/// outside the crate publishes gauges through [`crate::set_drift_stat`].
pub(crate) fn gauge(name: &'static str) -> Gauge {
    Gauge {
        cell: cell(name, Kind::Gauge),
    }
}

/// One row of the registry table: a read handle on a live series.
#[derive(Clone)]
pub struct Series {
    /// The series name, e.g. `serve.request` or `lock.engine.live.wait`.
    pub name: &'static str,
    /// What the series measures.
    pub kind: Kind,
    cell: Arc<Cell>,
}

impl Series {
    /// Whether a producer module owns the series and renders it in its own
    /// Prometheus families (its name contains `:`, as in `slo:…` and
    /// `audit:…`). Generic listings — `inbox_counter_*`, `inbox_span_*`,
    /// `inbox_value_*`, `RunSummary` — skip owned series.
    pub fn owned(&self) -> bool {
        self.name.contains(':')
    }

    /// Counters: the cumulative count. Histograms: samples recorded.
    /// Gauges: 0.
    pub fn count(&self) -> u64 {
        self.cell.count()
    }

    /// Rate counters: events in the last `window` seconds (0 for other
    /// kinds).
    pub fn window_sum(&self, window: u64) -> u64 {
        self.cell.window_sum(window)
    }

    /// Histograms: the raw buckets since boot (`window` = `None`) or over
    /// the last `window` seconds. Empty for other kinds.
    pub fn buckets(&self, window: Option<u64>) -> HistogramBuckets {
        match (&*self.cell, window) {
            (Cell::Hist(cumulative, _), None) => cumulative.buckets(),
            (Cell::Hist(_, ring), Some(w)) => ring.merged_at(now_sec(), w),
            _ => HistogramBuckets::new(),
        }
    }

    /// Histograms: the cumulative summary (all-zero for other kinds).
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &*self.cell {
            Cell::Hist(cumulative, _) => cumulative.snapshot(),
            _ => HistogramBuckets::new().snapshot(),
        }
    }

    /// Histograms: the summary over the last `window` seconds.
    pub fn windowed(&self, window: u64) -> WindowedSnapshot {
        let window = window.clamp(1, crate::window::MAX_WINDOW_SECS);
        WindowedSnapshot::from_buckets(window, &self.buckets(Some(window)))
    }

    /// Gauges: the last value written (NaN for other kinds).
    pub fn gauge(&self) -> f64 {
        match &*self.cell {
            Cell::Gauge(bits) => f64::from_bits(bits.load(Ordering::Relaxed)),
            _ => f64::NAN,
        }
    }
}

/// Every series in the table, sorted by name, then kind.
pub fn series() -> Vec<Series> {
    let mut out: Vec<Series> = table()
        .read()
        .iter()
        .map(|(&(_, kind), (name, cell))| Series {
            name,
            kind,
            cell: Arc::clone(cell),
        })
        .collect();
    out.sort_by_key(|s| (s.name, s.kind));
    out
}

/// The series `(name, kind)`, if it exists. Never creates one.
pub fn find_series(name: &str, kind: Kind) -> Option<Series> {
    let map = table().read();
    // Shorten the key lifetime so a borrowed `name` can look it up.
    let map: &HashMap<(&str, Kind), (&'static str, Arc<Cell>)> = &map;
    map.get(&(name, kind)).map(|(name, cell)| Series {
        name,
        kind,
        cell: Arc::clone(cell),
    })
}

/// Current value of a named counter or rate counter (0 if never touched).
pub fn counter_value(name: &str) -> u64 {
    find_series(name, Kind::Counter)
        .or_else(|| find_series(name, Kind::Rate))
        .map_or(0, |s| s.count())
}

fn histogram(name: &str, kind: Kind) -> Option<HistogramSnapshot> {
    find_series(name, kind)
        .map(|s| s.snapshot())
        .filter(|s| s.count > 0)
}

/// Snapshot of one span's histogram, if that span ever recorded.
pub fn span_snapshot(name: &str) -> Option<HistogramSnapshot> {
    histogram(name, Kind::Span)
}

/// Snapshot of one value histogram, if it ever recorded.
pub fn value_snapshot(name: &str) -> Option<HistogramSnapshot> {
    histogram(name, Kind::Value)
}

/// Clears **every** observability namespace: the whole series table
/// (counters, rate windows, span and value histograms, gauges, and so the
/// SLO, audit, drift and failpoint hit/fired series), retained
/// flight-recorder traces, and allocation stats. Handles obtained before
/// the reset keep writing into detached cells, so re-fetch them
/// afterwards; intended for test isolation and the start of independent
/// runs.
pub fn reset() {
    table().write().clear();
    crate::trace::clear_traces();
    crate::alloc::reset_alloc_stats();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run concurrently, so each
    // test uses its own unique names instead of calling reset().

    #[test]
    fn span_records_and_stop_returns_elapsed() {
        let guard = span("test.registry.span_basic");
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = guard.stop();
        assert!(elapsed >= Duration::from_millis(2));
        let snap = span_snapshot("test.registry.span_basic").unwrap();
        assert_eq!(snap.count, 1);
        assert!(snap.p50 >= 1_000_000, "p50 {} ns", snap.p50);
    }

    #[test]
    fn time_wraps_a_closure() {
        let ((), d) = time("test.registry.time", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(d >= Duration::from_millis(1));
        assert_eq!(span_snapshot("test.registry.time").unwrap().count, 1);
    }

    #[test]
    fn drop_records_too() {
        {
            let _guard = span("test.registry.drop");
        }
        assert_eq!(span_snapshot("test.registry.drop").unwrap().count, 1);
    }

    #[test]
    fn counters_accumulate_concurrently() {
        let c = counter("test.registry.concurrent");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(counter_value("test.registry.concurrent"), 80_000);
    }

    #[test]
    fn unknown_names_read_as_empty() {
        assert_eq!(counter_value("test.registry.never_touched"), 0);
        assert!(span_snapshot("test.registry.never_opened").is_none());
        assert!(value_snapshot("test.registry.never_recorded").is_none());
        for kind in [
            Kind::Counter,
            Kind::Rate,
            Kind::Span,
            Kind::Value,
            Kind::Gauge,
        ] {
            assert!(find_series("test.registry.never_touched", kind).is_none());
        }
    }

    #[test]
    fn value_histograms_aggregate_samples() {
        for v in [4u64, 4, 4, 64] {
            record_value("test.registry.values", v);
        }
        let snap = value_snapshot("test.registry.values").unwrap();
        assert_eq!(snap.count, 4);
        // Log-scale buckets: p50 lands in the [4,8) bucket, max in [64,128).
        assert!(snap.p50 >= 4 && snap.p50 < 8, "p50 {}", snap.p50);
        assert!(snap.p99 >= 64, "p99 {}", snap.p99);
        assert!(series()
            .iter()
            .any(|s| s.name == "test.registry.values" && s.kind == Kind::Value));
        // Value histograms are their own kind, not spans.
        assert!(span_snapshot("test.registry.values").is_none());
    }

    #[test]
    fn record_duration_lands_in_span_namespace() {
        record_duration("test.registry.ext_duration", Duration::from_micros(5));
        let snap = span_snapshot("test.registry.ext_duration").unwrap();
        assert_eq!(snap.count, 1);
        assert!(snap.p50 >= 4_000, "p50 {} ns", snap.p50);
    }

    #[test]
    fn histograms_expose_windowed_summaries() {
        record_duration("test.registry.windowed_span", Duration::from_micros(100));
        record_value("test.registry.windowed_value", 32);
        // Recorded "now", so any window ending now contains it.
        let span = find_series("test.registry.windowed_span", Kind::Span).unwrap();
        let w = span.windowed(60);
        assert_eq!((w.window_secs, w.count), (60, 1));
        assert!(w.p99 >= 64_000, "p99 {} ns", w.p99);
        assert_eq!(span.buckets(Some(60)).count(), 1);
        assert_eq!(span.buckets(None).count(), 1);
        let value = find_series("test.registry.windowed_value", Kind::Value).unwrap();
        assert_eq!(value.windowed(60).count, 1);
    }

    #[test]
    fn rate_counters_feed_both_aggregations() {
        let rc = rate_counter("test.registry.rate");
        rc.add(3);
        rc.incr();
        assert_eq!(rc.get(), 4);
        assert_eq!(rc.in_window(60), 4);
        assert_eq!(counter_value("test.registry.rate"), 4);
        let listed = series()
            .into_iter()
            .find(|s| s.name == "test.registry.rate")
            .unwrap();
        assert_eq!((listed.kind, listed.window_sum(60)), (Kind::Rate, 4));
        // Plain counters keep no window.
        counter("test.registry.plain").incr();
        assert_eq!(counter("test.registry.plain").in_window(60), 0);
    }

    #[test]
    fn gauges_hold_the_last_value() {
        let g = gauge("test.registry.gauge");
        assert_eq!(g.get(), 0.0);
        g.set(0.25);
        assert_eq!(g.swap(2.0), 0.25);
        let s = find_series("test.registry.gauge", Kind::Gauge).unwrap();
        assert_eq!(s.gauge(), 2.0);
        assert!(!s.owned());
    }

    #[test]
    fn colon_names_are_owned_by_their_producer() {
        counter("test:registry:owned").incr();
        let s = find_series("test:registry:owned", Kind::Counter).unwrap();
        assert!(s.owned());
    }

    #[test]
    fn interning_reuses_one_leak_per_name() {
        let a = intern("test.registry.interned".to_string());
        let b = intern("test.registry.interned".to_string());
        assert!(std::ptr::eq(a, b));
    }
}
