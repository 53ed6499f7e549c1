//! Full-namespace audit of [`inbox_obs::reset`]: populate every namespace
//! the registry knows — spans, counters, rate-counter windows, value
//! histograms, gauges, SLOs, audit series, traces, and failpoint hit/fired
//! mirrors — then reset and prove nothing survives.
//!
//! This lives in an integration test (its own process) because `reset` is
//! process-global: inside the unit-test binary it would race every other
//! test's instruments.

use std::time::Duration;

use inbox_obs::failpoints::{self, Trigger};
use inbox_obs::{Kind, TraceOutcome};

#[test]
fn reset_clears_every_namespace() {
    inbox_obs::set_enabled(true);
    inbox_obs::set_trace_sampling(1);

    // --- populate each namespace --------------------------------------
    inbox_obs::counter("audit.counter").add(3);
    inbox_obs::rate_counter("audit.rate").add(5);
    inbox_obs::record_duration("audit.span", Duration::from_millis(2));
    inbox_obs::record_value("audit.value", 17);
    inbox_obs::slo("audit.slo", Duration::from_millis(10), 0.95).observe(Duration::from_millis(1));
    inbox_obs::set_drift_stat("audit.drift", 0.5);
    inbox_obs::note_audit_sampled();
    let trace = inbox_obs::start_trace("audit.trace").expect("tracing armed");
    trace.finish(TraceOutcome::Error);
    failpoints::configure("audit.failpoint", Trigger::Always);
    assert!(failpoints::check("audit.failpoint"));
    failpoints::clear("audit.failpoint");

    // Everything is visible before the reset (guards the audit itself
    // against testing an instrument that never recorded).
    assert_eq!(inbox_obs::counter_value("audit.counter"), 3);
    assert_eq!(inbox_obs::counter_value("audit.rate"), 5);
    let rate = inbox_obs::find_series("audit.rate", Kind::Rate).expect("rate series");
    assert_eq!(rate.window_sum(10), 5);
    assert!(inbox_obs::span_snapshot("audit.span").is_some());
    let span = inbox_obs::find_series("audit.span", Kind::Span).expect("span series");
    assert_eq!(span.windowed(10).count, 1);
    assert!(inbox_obs::value_snapshot("audit.value").is_some());
    assert!(inbox_obs::slo_snapshot("audit.slo", 10).is_some());
    assert_eq!(inbox_obs::audit_snapshot(10).sampled, 1);
    let kinds: std::collections::BTreeSet<Kind> =
        inbox_obs::series().iter().map(|s| s.kind).collect();
    assert_eq!(kinds.len(), 5, "every kind populated: {kinds:?}");
    assert!(!inbox_obs::recent_traces().is_empty());
    assert!(!inbox_obs::notable_traces().is_empty());
    assert_eq!(failpoints::hits("audit.failpoint"), 1);
    assert_eq!(failpoints::fired("audit.failpoint"), 1);
    assert_eq!(inbox_obs::counter_value("failpoint.hit.audit.failpoint"), 1);

    // --- the audit proper ----------------------------------------------
    inbox_obs::reset();

    // The one listing covers counters, rate windows, spans and values
    // (cumulative and windowed), gauges, and the SLO and audit series.
    let survivors: Vec<_> = inbox_obs::series()
        .iter()
        .map(|s| (s.name, s.kind))
        .collect();
    assert!(survivors.is_empty(), "series survived: {survivors:?}");
    assert_eq!(inbox_obs::counter_value("audit.counter"), 0);
    assert!(
        inbox_obs::find_series("audit.rate", Kind::Rate).is_none(),
        "counter window survived"
    );
    assert_eq!(inbox_obs::span_snapshot("audit.span"), None);
    assert!(
        inbox_obs::find_series("audit.span", Kind::Span).is_none(),
        "windowed span survived"
    );
    assert_eq!(inbox_obs::value_snapshot("audit.value"), None);
    assert!(
        inbox_obs::slo_snapshot("audit.slo", 60).is_none(),
        "SLO survived"
    );
    assert_eq!(inbox_obs::audit_snapshot(60).sampled, 0, "audit survived");
    assert!(
        inbox_obs::recent_traces().is_empty(),
        "recent ring survived"
    );
    assert!(
        inbox_obs::notable_traces().is_empty(),
        "notable ring survived"
    );
    assert_eq!(
        failpoints::hits("audit.failpoint"),
        0,
        "failpoint hit mirror survived"
    );
    assert_eq!(
        failpoints::fired("audit.failpoint"),
        0,
        "failpoint fired mirror survived"
    );
    assert_eq!(inbox_obs::counter_value("failpoint.hit.audit.failpoint"), 0);
    assert_eq!(
        inbox_obs::counter_value("failpoint.fired.audit.failpoint"),
        0
    );

    // The exposition renders the post-reset world: no `audit.*` sample
    // anywhere.
    let text = inbox_obs::prometheus_text();
    assert!(
        !text.contains("audit."),
        "reset instrument leaked into /metrics:\n{text}"
    );

    // --- instruments stay usable after the reset ------------------------
    inbox_obs::counter("audit.counter").add(2);
    assert_eq!(inbox_obs::counter_value("audit.counter"), 2);
    assert!(!failpoints::check("audit.failpoint"));
    assert_eq!(
        failpoints::hits("audit.failpoint"),
        1,
        "post-reset evaluations count from zero"
    );
    assert_eq!(
        inbox_obs::counter_value("failpoint.hit.audit.failpoint"),
        1,
        "post-reset evaluations land in fresh mirror cells"
    );
}
