//! Shadow-oracle audit accounting: online ranking-quality series.
//!
//! The serving layer samples 1-in-N answered `/recommend` requests and
//! re-ranks them through the exact full-sort f32 oracle in the background
//! (see `inbox-serve`). Each comparison lands here as one
//! [`AuditObservation`]; this module keeps the cumulative and windowed
//! recall@k / agreement@k / rank-displacement series, plus the degradation
//! alerter: a **latched** `degraded` flag that trips when windowed audit
//! recall drops below a configured floor and clears only once a full
//! window of samples is back at or above it, with an SLO-style burn
//! counter ticking for every below-floor sample while degraded.
//!
//! The module keeps no store of its own: every count, ring and histogram
//! is a registry series under `audit:` (see [`crate::registry`]), so
//! [`crate::reset`] clears it with everything else and the exposition layer
//! reads it back through [`audit_snapshot`].

use crate::registry::{counter, counter_value, find_series, gauge, rate_counter, Kind};
use serde::{Deserialize, Serialize};

/// Window (seconds) the degradation alerter evaluates recall over.
pub const ALERT_WINDOW_SECS: u64 = 60;

/// Minimum audited samples inside the alert window before the degradation
/// latch may change state in either direction — a lone unlucky sample must
/// not page anyone, and a lone lucky one must not clear a real alert.
pub const MIN_ALERT_SAMPLES: u64 = 5;

/// Answers handed to the audit queue (counter).
const SAMPLED: &str = "audit:sampled";
/// Samples dropped because the audit queue was full (counter).
const SHED: &str = "audit:shed";
/// Samples skipped because the user's history version moved on before the
/// oracle ran, so the comparison would be against different state
/// (counter).
const STALE: &str = "audit:stale";
/// Samples fully re-ranked and compared (rate counter).
const AUDITED: &str = "audit:audited";
/// Audited samples whose served answer differed from the oracle's
/// (counter).
const MISMATCHED: &str = "audit:mismatched";
/// Recall numerator: served items found in the oracle top-k (rate).
const HIT_ITEMS: &str = "audit:hit_items";
/// Agreement numerator: positions holding the identical item (rate).
const AGREE_ITEMS: &str = "audit:agree_items";
/// Recall/agreement denominator: sum of k over audited samples (rate).
const TOTAL_ITEMS: &str = "audit:total_items";
/// Worst absolute rank displacement per audited sample (value histogram).
const DISPLACEMENT: &str = "audit:displacement";
/// Recall floor; NaN or absent = alerting disabled (gauge).
const FLOOR: &str = "audit:floor";
/// The latch: 1.0 while degraded (gauge).
const DEGRADED: &str = "audit:degraded";
/// Times the latch tripped, 0 → 1 transitions (counter).
const DEGRADED_EVENTS: &str = "audit:degraded_events";
/// Below-floor audited samples observed while evaluating the alert
/// (counter).
const BURN: &str = "audit:burn";

fn in_window(name: &str, window: u64) -> u64 {
    find_series(name, Kind::Rate).map_or(0, |s| s.window_sum(window))
}

/// One served answer compared against the shadow oracle's re-rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditObservation {
    /// Requested list length.
    pub k: usize,
    /// Served items that appear anywhere in the oracle's top-k (set
    /// overlap; the recall@k numerator).
    pub matched: usize,
    /// Positions whose served item equals the oracle's item at the same
    /// rank (the agreement@k numerator).
    pub agreed: usize,
    /// Largest absolute rank displacement of any served item against its
    /// oracle rank, in positions (served items absent from the oracle
    /// top-k count as displaced by k).
    pub max_displacement: u64,
}

impl AuditObservation {
    /// Whether the served answer differed from the oracle's in any way.
    pub fn mismatched(&self) -> bool {
        self.matched < self.k || self.agreed < self.k
    }
}

/// Counts one answer handed to the audit queue.
pub fn note_audit_sampled() {
    counter(SAMPLED).incr();
}

/// Counts one sample dropped because the audit queue was full.
pub fn note_audit_shed() {
    counter(SHED).incr();
}

/// Counts one sample skipped because the user's history version moved on
/// before the oracle re-ranked it.
pub fn note_audit_stale() {
    counter(STALE).incr();
}

/// Records one oracle comparison and re-evaluates the degradation alert.
/// Returns whether the observation was a mismatch (so the caller can
/// record a notable trace for it).
pub fn record_audit(obs: &AuditObservation) -> bool {
    let mismatched = obs.mismatched();
    if crate::enabled() {
        rate_counter(AUDITED).incr();
        rate_counter(HIT_ITEMS).add(obs.matched as u64);
        rate_counter(AGREE_ITEMS).add(obs.agreed as u64);
        rate_counter(TOTAL_ITEMS).add(obs.k as u64);
        crate::record_value(DISPLACEMENT, obs.max_displacement);
        if mismatched {
            counter(MISMATCHED).incr();
        }
        evaluate_alert();
    }
    mismatched
}

/// Re-evaluates the latched degradation alert against the configured floor.
fn evaluate_alert() {
    let Some(floor) = audit_floor() else {
        return;
    };
    if in_window(AUDITED, ALERT_WINDOW_SECS) < MIN_ALERT_SAMPLES {
        return;
    }
    let recall = ratio(
        in_window(HIT_ITEMS, ALERT_WINDOW_SECS),
        in_window(TOTAL_ITEMS, ALERT_WINDOW_SECS),
    );
    if recall < floor {
        counter(BURN).incr();
        if gauge(DEGRADED).swap(1.0) != 1.0 {
            counter(DEGRADED_EVENTS).incr();
        }
    } else {
        gauge(DEGRADED).set(0.0);
    }
}

/// Sets (or with `None` disables) the windowed-recall floor under which the
/// degradation latch trips.
pub fn set_audit_floor(floor: Option<f64>) {
    gauge(FLOOR).set(floor.unwrap_or(f64::NAN));
}

/// The configured recall floor, if alerting is enabled.
pub fn audit_floor() -> Option<f64> {
    find_series(FLOOR, Kind::Gauge)
        .map(|s| s.gauge())
        .filter(|f| f.is_finite())
}

/// Current state of the latched degradation flag.
pub fn audit_degraded() -> bool {
    find_series(DEGRADED, Kind::Gauge).is_some_and(|s| s.gauge() == 1.0)
}

/// Point-in-time view of the audit series: cumulative counts, plus
/// quality over one sliding window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditSnapshot {
    /// Answers handed to the audit queue since boot.
    pub sampled: u64,
    /// Samples dropped at the full audit queue.
    pub shed: u64,
    /// Samples skipped as stale (history version moved on).
    pub stale: u64,
    /// Samples fully compared against the oracle.
    pub audited: u64,
    /// Compared samples that differed from the oracle.
    pub mismatched: u64,
    /// Cumulative recall@k across all audited samples (1.0 when none).
    pub recall: f64,
    /// Cumulative agreement@k across all audited samples (1.0 when none).
    pub agreement: f64,
    /// Recall@k inside the window (1.0 when the window is empty — no
    /// audited traffic is no evidence of degradation).
    pub window_recall: f64,
    /// Agreement@k inside the window (1.0 when empty).
    pub window_agreement: f64,
    /// Median worst-rank-displacement inside the window, positions.
    pub window_displacement_p50: u64,
    /// p99 worst-rank-displacement inside the window, positions.
    pub window_displacement_p99: u64,
    /// Configured windowed-recall floor; `None` disables alerting.
    pub floor: Option<f64>,
    /// Latched degradation flag.
    pub degraded: bool,
    /// Times the latch tripped since boot.
    pub degraded_events: u64,
    /// Below-floor samples observed since boot (budget burn).
    pub burn: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

/// Snapshot of the audit series over the last `window` seconds.
pub fn audit_snapshot(window: u64) -> AuditSnapshot {
    let displacement = find_series(DISPLACEMENT, Kind::Value)
        .map(|s| s.buckets(Some(window)))
        .unwrap_or_default();
    AuditSnapshot {
        sampled: counter_value(SAMPLED),
        shed: counter_value(SHED),
        stale: counter_value(STALE),
        audited: counter_value(AUDITED),
        mismatched: counter_value(MISMATCHED),
        recall: ratio(counter_value(HIT_ITEMS), counter_value(TOTAL_ITEMS)),
        agreement: ratio(counter_value(AGREE_ITEMS), counter_value(TOTAL_ITEMS)),
        window_recall: ratio(in_window(HIT_ITEMS, window), in_window(TOTAL_ITEMS, window)),
        window_agreement: ratio(
            in_window(AGREE_ITEMS, window),
            in_window(TOTAL_ITEMS, window),
        ),
        window_displacement_p50: displacement.quantile(0.50),
        window_displacement_p99: displacement.quantile(0.99),
        floor: audit_floor(),
        degraded: audit_degraded(),
        degraded_events: counter_value(DEGRADED_EVENTS),
        burn: counter_value(BURN),
    }
}
