//! Per-endpoint latency SLO tracking: good/total event counts against a
//! configurable objective, cumulative and windowed, with burn rate.
//!
//! An SLO here is "fraction of requests under `objective` latency ≥
//! `target`" (e.g. 99% under 50 ms). Each observation classifies one
//! request as good or bad. The SLO keeps no store of its own: it writes
//! four registry series, `slo:<name>:good` and `slo:<name>:total` (rate
//! counters) and `slo:<name>:objective_ns` and `slo:<name>:target`
//! (gauges). The **burn rate** — how fast the error budget is being
//! consumed *right now*, relative to the rate the target allows — is
//! computed on read from the windowed counts, so it reflects recent traffic
//! instead of being diluted by hours of healthy history. Burn rate 1.0
//! means errors arrive exactly at budget; 10× means the budget burns ten
//! times too fast; 0 means no recent misses.

use crate::registry::{self, Gauge, Kind, RateCounter, Series};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Handle to one registered SLO. Cheap to clone.
#[derive(Clone)]
pub struct Slo {
    good: RateCounter,
    total: RateCounter,
    objective_ns: Gauge,
}

impl Slo {
    /// Classifies one request latency against the objective (no-op while
    /// instrumentation is disabled).
    pub fn observe(&self, latency: Duration) {
        if !crate::enabled() {
            return;
        }
        self.total.incr();
        if (latency.as_nanos() as f64) < self.objective_ns.get() {
            self.good.incr();
        }
    }
}

fn part(name: &str, suffix: &str) -> &'static str {
    registry::intern(format!("slo:{name}:{suffix}"))
}

/// Registers (or re-targets) the named SLO and returns its handle.
/// `target` is the required good fraction, e.g. `0.99`.
pub fn slo(name: &'static str, objective: Duration, target: f64) -> Slo {
    let objective_ns = registry::gauge(part(name, "objective_ns"));
    objective_ns.set(objective.as_nanos() as f64);
    registry::gauge(part(name, "target")).set(target);
    Slo {
        good: registry::rate_counter(part(name, "good")),
        total: registry::rate_counter(part(name, "total")),
        objective_ns,
    }
}

/// Point-in-time view of one SLO over one sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSnapshot {
    /// Latency objective, nanoseconds.
    pub objective_ns: u64,
    /// Required good fraction.
    pub target: f64,
    /// Good requests since boot.
    pub good: u64,
    /// All requests since boot.
    pub total: u64,
    /// Good requests inside the window.
    pub window_good: u64,
    /// All requests inside the window.
    pub window_total: u64,
    /// Good fraction inside the window (1.0 when the window is empty —
    /// no traffic burns no budget).
    pub window_good_ratio: f64,
    /// Budget burn rate over the window: observed error rate divided by
    /// the error rate the target allows. 1.0 = burning exactly at budget.
    pub burn_rate: f64,
}

/// Snapshot of the named SLO over the last `window` seconds, if registered.
pub fn slo_snapshot(name: &str, window: u64) -> Option<SloSnapshot> {
    let find = |suffix: &str, kind| registry::find_series(&format!("slo:{name}:{suffix}"), kind);
    let objective_ns = find("objective_ns", Kind::Gauge)?.gauge() as u64;
    let target = find("target", Kind::Gauge).map_or(1.0, |s| s.gauge());
    let (good, total) = (find("good", Kind::Rate), find("total", Kind::Rate));
    let count = |s: &Option<Series>| s.as_ref().map_or(0, Series::count);
    let in_window = |s: &Option<Series>| s.as_ref().map_or(0, |s| s.window_sum(window));
    let (window_good, window_total) = (in_window(&good), in_window(&total));
    let window_good_ratio = if window_total == 0 {
        1.0
    } else {
        window_good as f64 / window_total as f64
    };
    Some(SloSnapshot {
        objective_ns,
        target,
        good: count(&good),
        total: count(&total),
        window_good,
        window_total,
        window_good_ratio,
        burn_rate: (1.0 - window_good_ratio) / (1.0 - target).max(1e-9),
    })
}

/// Names of the SLOs registered in `series` (a [`registry::series`]
/// listing), in its order.
pub(crate) fn names(series: &[Series]) -> impl Iterator<Item = &'static str> + '_ {
    series
        .iter()
        .filter_map(|s| s.name.strip_prefix("slo:")?.strip_suffix(":objective_ns"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global registry, concurrent tests: unique names, no reset().

    #[test]
    fn observations_split_into_good_and_bad() {
        let s = slo("test.slo.split", Duration::from_millis(10), 0.9);
        s.observe(Duration::from_millis(1)); // good
        s.observe(Duration::from_millis(2)); // good
        s.observe(Duration::from_millis(50)); // bad
        let snap = slo_snapshot("test.slo.split", 60).unwrap();
        assert_eq!(snap.total, 3);
        assert_eq!(snap.good, 2);
        assert_eq!(snap.window_total, 3);
        assert_eq!(snap.window_good, 2);
        assert!((snap.window_good_ratio - 2.0 / 3.0).abs() < 1e-9);
        // Error rate 1/3 against a 10% allowance: burning ~3.3x budget.
        assert!(
            snap.burn_rate > 3.0 && snap.burn_rate < 3.7,
            "{}",
            snap.burn_rate
        );
    }

    #[test]
    fn empty_window_burns_nothing() {
        let _ = slo("test.slo.idle", Duration::from_millis(5), 0.99);
        let snap = slo_snapshot("test.slo.idle", 10).unwrap();
        assert_eq!(snap.window_total, 0);
        assert_eq!(snap.window_good_ratio, 1.0);
        assert_eq!(snap.burn_rate, 0.0);
    }

    #[test]
    fn all_good_is_zero_burn_all_bad_is_full_burn() {
        let s = slo("test.slo.extremes", Duration::from_millis(10), 0.5);
        s.observe(Duration::from_millis(1));
        let healthy = slo_snapshot("test.slo.extremes", 60).unwrap();
        assert_eq!(healthy.burn_rate, 0.0);
        s.observe(Duration::from_secs(1));
        let snap = slo_snapshot("test.slo.extremes", 60).unwrap();
        // 50% errors against a 50% allowance: exactly at budget.
        assert!((snap.burn_rate - 1.0).abs() < 1e-9, "{}", snap.burn_rate);
    }

    #[test]
    fn reregistering_updates_objective_and_keeps_counts() {
        let s = slo("test.slo.retarget", Duration::from_millis(1), 0.9);
        s.observe(Duration::from_millis(10)); // bad under 1ms objective
        let s = slo("test.slo.retarget", Duration::from_millis(100), 0.9);
        s.observe(Duration::from_millis(10)); // good under 100ms objective
        let snap = slo_snapshot("test.slo.retarget", 60).unwrap();
        assert_eq!(snap.total, 2);
        assert_eq!(snap.good, 1);
        assert_eq!(snap.objective_ns, 100_000_000);
    }

    #[test]
    fn unknown_slo_reads_as_none() {
        assert!(slo_snapshot("test.slo.never_registered", 10).is_none());
    }

    #[test]
    fn slo_series_are_owned_and_listed_by_name() {
        let _ = slo("test.slo.listed", Duration::from_millis(10), 0.99);
        let all = registry::series();
        assert!(names(&all).any(|n| n == "test.slo.listed"));
        assert!(all
            .iter()
            .filter(|s| s.name.starts_with("slo:test.slo.listed:"))
            .all(Series::owned));
    }
}
