//! Distribution drift: the PSI divergence statistic and drift gauges.
//!
//! The serving layer keeps *reference* distributions captured at startup
//! (as raw [`HistogramBuckets`]) and compares the live windowed buckets
//! against them with a Population-Stability-Index-style statistic:
//!
//! ```text
//! PSI = Σ_i (p_i − q_i) · ln(p_i / q_i)
//! ```
//!
//! over per-bucket proportions `p` (reference) and `q` (live), both floored
//! at a small ε so empty buckets neither divide by zero nor blow the sum
//! up. PSI is 0 for identical distributions and grows symmetrically as
//! mass moves; the conventional reading is below 0.1 stable, 0.1–0.25
//! drifting, above 0.25 shifted. The results (and other drift figures such
//! as ingest tag coverage) are published as registry gauges, which the
//! exposition layer renders as `inbox_audit_drift{stat="…"}`.

use crate::histogram::{HistogramBuckets, N_BUCKETS};

/// Proportion floor for PSI: empty buckets are treated as holding this
/// fraction of the distribution.
pub const PSI_EPS: f64 = 1e-6;

/// PSI divergence between a reference and a live distribution sharing the
/// histogram bucket layout. Returns 0.0 when either side is empty — no
/// traffic is no evidence of drift.
pub fn psi(reference: &HistogramBuckets, live: &HistogramBuckets) -> f64 {
    let (rn, ln) = (reference.count(), live.count());
    if rn == 0 || ln == 0 {
        return 0.0;
    }
    let mut out = 0.0;
    for i in 0..N_BUCKETS {
        let p = (reference.counts[i] as f64 / rn as f64).max(PSI_EPS);
        let q = (live.counts[i] as f64 / ln as f64).max(PSI_EPS);
        out += (p - q) * (p / q).ln();
    }
    out
}

/// Publishes a named drift statistic (PSI value, coverage fraction, …) as
/// the registry gauge `name`.
pub fn set_drift_stat(name: &'static str, value: f64) {
    crate::registry::gauge(name).set(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buckets_of(samples: &[u64]) -> HistogramBuckets {
        let mut b = HistogramBuckets::new();
        for &v in samples {
            b.record(v);
        }
        b
    }

    #[test]
    fn identical_distributions_have_zero_psi() {
        let a = buckets_of(&[10, 20, 30, 500, 900, 1000]);
        assert_eq!(psi(&a, &a.clone()), 0.0);
    }

    #[test]
    fn psi_is_zero_when_either_side_is_empty() {
        let a = buckets_of(&[10, 20]);
        let empty = HistogramBuckets::new();
        assert_eq!(psi(&a, &empty), 0.0);
        assert_eq!(psi(&empty, &a), 0.0);
    }

    #[test]
    fn shifted_distribution_scores_higher_than_jittered() {
        let reference = buckets_of(&(0..1000).map(|i| 500 + i % 50).collect::<Vec<_>>());
        // Same band, slightly different mix.
        let jittered = buckets_of(&(0..1000).map(|i| 505 + i % 55).collect::<Vec<_>>());
        // Mass moved an order of magnitude up.
        let shifted = buckets_of(&(0..1000).map(|i| 5000 + i % 500).collect::<Vec<_>>());
        let small = psi(&reference, &jittered);
        let large = psi(&reference, &shifted);
        assert!(small >= 0.0);
        assert!(
            large > small + 0.25,
            "shifted {large} must dwarf jittered {small}"
        );
    }

    #[test]
    fn psi_is_symmetric_and_non_negative_on_disjoint_mass() {
        let a = buckets_of(&[1, 2, 3, 4]);
        let b = buckets_of(&[1000, 2000, 3000]);
        let ab = psi(&a, &b);
        let ba = psi(&b, &a);
        assert!(ab > 0.0);
        // The (p−q)·ln(p/q) form is symmetric in p and q.
        assert!((ab - ba).abs() < 1e-9, "{ab} vs {ba}");
    }

    #[test]
    fn drift_stats_are_registry_gauges() {
        set_drift_stat("test.drift.stat", 0.125);
        let s = crate::find_series("test.drift.stat", crate::Kind::Gauge).unwrap();
        assert_eq!(s.gauge(), 0.125);
        assert!(
            !s.owned(),
            "drift gauges render in the generic drift family"
        );
    }
}
