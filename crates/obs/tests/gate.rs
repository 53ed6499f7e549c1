//! The global enable gate. It lives in its own process because turning the
//! gate off would drop samples that concurrently running tests record.

use std::time::Duration;

#[test]
fn disabled_gate_suppresses_recording() {
    inbox_obs::set_enabled(false);
    let d = inbox_obs::span("gate.span").stop();
    inbox_obs::record_value("gate.value", 3);
    inbox_obs::counter("gate.counter").add(5);
    let rc = inbox_obs::rate_counter("gate.rate");
    rc.add(5);
    inbox_obs::set_enabled(true);
    assert_eq!(d, Duration::ZERO);
    assert!(inbox_obs::span_snapshot("gate.span").is_none());
    assert!(inbox_obs::value_snapshot("gate.value").is_none());
    assert_eq!(inbox_obs::counter_value("gate.counter"), 0);
    assert_eq!(rc.in_window(60), 0);
}
