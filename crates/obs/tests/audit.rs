//! Shadow-oracle audit series and the latched degradation alert.
//!
//! The audit series are process-global registry series, so these tests
//! live in their own process, run one at a time, and start from
//! [`inbox_obs::reset`].

use std::sync::{Mutex, MutexGuard, PoisonError};

use inbox_obs::{
    audit_degraded, audit_floor, audit_snapshot, note_audit_sampled, note_audit_shed,
    note_audit_stale, record_audit, set_audit_floor, AuditObservation, AuditSnapshot,
    MIN_ALERT_SAMPLES,
};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises the tests and hands each a freshly reset registry.
fn fresh() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    inbox_obs::set_enabled(true);
    inbox_obs::reset();
    guard
}

fn perfect(k: usize) -> AuditObservation {
    AuditObservation {
        k,
        matched: k,
        agreed: k,
        max_displacement: 0,
    }
}

fn all_wrong(k: usize) -> AuditObservation {
    AuditObservation {
        k,
        matched: 0,
        agreed: 0,
        max_displacement: k as u64,
    }
}

#[test]
fn perfect_answers_keep_recall_at_one() {
    let _g = fresh();
    for _ in 0..10 {
        assert!(!record_audit(&perfect(20)));
    }
    let s = audit_snapshot(60);
    assert_eq!(s.audited, 10);
    assert_eq!(s.mismatched, 0);
    assert_eq!(s.recall, 1.0);
    assert_eq!(s.agreement, 1.0);
    assert_eq!(s.window_recall, 1.0);
    assert_eq!(s.window_displacement_p99, 0);
    assert!(!s.degraded);
}

#[test]
fn mismatches_move_recall_and_displacement() {
    let _g = fresh();
    record_audit(&perfect(10));
    let miss = AuditObservation {
        k: 10,
        matched: 8,
        agreed: 5,
        max_displacement: 7,
    };
    assert!(record_audit(&miss));
    let s = audit_snapshot(60);
    assert_eq!(s.audited, 2);
    assert_eq!(s.mismatched, 1);
    assert!((s.recall - 18.0 / 20.0).abs() < 1e-12);
    assert!((s.agreement - 15.0 / 20.0).abs() < 1e-12);
    assert!(
        s.window_displacement_p99 >= 6,
        "{}",
        s.window_displacement_p99
    );
}

#[test]
fn degradation_latch_trips_and_recovers() {
    let _g = fresh();
    set_audit_floor(Some(0.9));
    // Below MIN_ALERT_SAMPLES nothing trips, even at recall 0.
    for _ in 0..MIN_ALERT_SAMPLES - 1 {
        record_audit(&all_wrong(10));
    }
    assert!(!audit_degraded());
    record_audit(&all_wrong(10));
    assert!(audit_degraded(), "floor 0.9, windowed recall 0: must trip");
    let tripped = audit_snapshot(60);
    assert_eq!(tripped.degraded_events, 1);
    assert!(tripped.burn >= 1);
    // Healthy traffic pulls windowed recall back over the floor.
    for _ in 0..200 {
        record_audit(&perfect(10));
    }
    assert!(!audit_degraded(), "recovered recall must clear the latch");
    let s = audit_snapshot(60);
    assert_eq!(s.degraded_events, 1, "recovery is not a new trip");
}

#[test]
fn no_floor_means_no_alerting() {
    let _g = fresh();
    assert_eq!(audit_floor(), None);
    for _ in 0..20 {
        record_audit(&all_wrong(5));
    }
    assert!(!audit_degraded());
    assert_eq!(audit_snapshot(60).burn, 0);
    set_audit_floor(Some(0.5));
    set_audit_floor(None);
    assert_eq!(audit_floor(), None, "None disables a configured floor");
}

#[test]
fn queue_accounting_counts_each_fate() {
    let _g = fresh();
    note_audit_sampled();
    note_audit_sampled();
    note_audit_shed();
    note_audit_stale();
    let s = audit_snapshot(10);
    assert_eq!(s.sampled, 2);
    assert_eq!(s.shed, 1);
    assert_eq!(s.stale, 1);
    assert_eq!(s.audited, 0);
    assert_eq!(s.recall, 1.0, "no audited samples is not a failure");
}

#[test]
fn snapshot_serialises_roundtrip() {
    let _g = fresh();
    set_audit_floor(Some(0.95));
    record_audit(&perfect(20));
    let snap = audit_snapshot(60);
    let text = serde_json::to_string(&snap).unwrap();
    let back: AuditSnapshot = serde_json::from_str(&text).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn reset_clears_the_latch_and_the_floor() {
    let _g = fresh();
    set_audit_floor(Some(0.9));
    for _ in 0..MIN_ALERT_SAMPLES {
        record_audit(&all_wrong(10));
    }
    assert!(audit_degraded());
    inbox_obs::reset();
    assert!(!audit_degraded());
    assert_eq!(audit_floor(), None);
    let s = audit_snapshot(60);
    assert_eq!((s.audited, s.degraded_events, s.burn), (0, 0, 0));
}

#[test]
fn disabled_gate_records_nothing_but_still_classifies() {
    let _g = fresh();
    inbox_obs::set_enabled(false);
    let mismatched = record_audit(&all_wrong(4));
    note_audit_sampled();
    inbox_obs::set_enabled(true);
    assert!(mismatched);
    let s = audit_snapshot(60);
    assert_eq!((s.audited, s.sampled), (0, 0));
}
