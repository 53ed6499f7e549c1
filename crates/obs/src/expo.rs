//! Live exposition: renders the registry table — cumulative, windowed,
//! SLO and audit series — plus flight-recorder state as Prometheus text
//! and JSON, for the serving stack's `GET /metrics` and
//! `GET /traces` endpoints.
//!
//! The Prometheus rendering keeps a small fixed family of metric names and
//! moves the registry's dotted series names into a `name` label, so a
//! scrape config needs no relabeling rules per instrument. Span and
//! duration metrics are exported in **seconds** (the Prometheus base
//! unit); dimensionless values and counters are exported raw. Windowed
//! series carry a `window` label (`10s` / `60s`).

use crate::histogram::HistogramSnapshot;
use crate::registry::{self, Kind};
use crate::trace::{self, TraceRecord};
use crate::{audit, slo};
use serde::{Deserialize, Serialize};
use std::fmt::{Display, Write};

/// The two sliding windows every windowed series is exported at.
pub const EXPO_WINDOWS: [u64; 2] = [10, 60];

const QUANTILES: [&str; 3] = ["0.5", "0.95", "0.99"];

fn ns_to_secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Prometheus text under construction.
struct Text(String);

impl Text {
    /// Appends `# TYPE` headers for `families`, all of type `kind`.
    fn types(&mut self, kind: &str, families: &[&str]) {
        for family in families {
            let _ = writeln!(self.0, "# TYPE {family} {kind}");
        }
    }

    /// Appends one `metric{labels} value` line (label values escaped).
    fn sample(&mut self, metric: &str, labels: &[(&str, &str)], value: impl Display) {
        self.0.push_str(metric);
        for (i, (key, val)) in labels.iter().enumerate() {
            self.0.push(if i == 0 { '{' } else { ',' });
            let val = val.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = write!(self.0, "{key}=\"{val}\"");
        }
        if !labels.is_empty() {
            self.0.push('}');
        }
        let _ = writeln!(self.0, " {value}");
    }

    /// A cumulative summary: p50/p95/p99 under `quantile`, then `_count`
    /// (and `_sum` for spans), with nanoseconds scaled by `unit`.
    fn summary(&mut self, family: &str, name: &str, snap: HistogramSnapshot, unit: f64) {
        let quantiles = [snap.p50, snap.p95, snap.p99];
        for (q, v) in QUANTILES.into_iter().zip(quantiles) {
            let labels = [("name", name), ("quantile", q)];
            self.sample(family, &labels, v as f64 * unit);
        }
        self.sample(&format!("{family}_count"), &[("name", name)], snap.count);
    }
}

/// Renders every instrument in Prometheus text format (version 0.0.4):
/// `# TYPE` headers followed by `metric{labels} value` lines, one sample
/// per line, newline-terminated.
pub fn prometheus_text() -> String {
    let table = registry::series();
    let of = |kinds: &'static [Kind]| {
        table
            .iter()
            .filter(move |s| !s.owned() && kinds.contains(&s.kind))
    };
    let windows = EXPO_WINDOWS.map(|w| (w, format!("{w}s")));
    let mut t = Text(String::with_capacity(8 * 1024));

    // -- counters (cumulative, plus windowed sums for rate counters) -------
    t.types("counter", &["inbox_counter_total"]);
    for s in of(&[Kind::Counter, Kind::Rate]) {
        t.sample("inbox_counter_total", &[("name", s.name)], s.count());
    }
    t.types("gauge", &["inbox_counter_window"]);
    for (w, window) in &windows {
        for s in of(&[Kind::Rate]) {
            let labels = [("name", s.name), ("window", window)];
            t.sample("inbox_counter_window", &labels, s.window_sum(*w));
        }
    }

    // -- spans: cumulative quantiles + windowed quantiles and rates --------
    t.types("summary", &["inbox_span_seconds"]);
    for s in of(&[Kind::Span]) {
        let snap = s.snapshot();
        t.summary("inbox_span_seconds", s.name, snap, 1e-9);
        let sum = ns_to_secs(snap.sum);
        t.sample("inbox_span_seconds_sum", &[("name", s.name)], sum);
    }
    t.types(
        "gauge",
        &["inbox_span_window_seconds", "inbox_span_window_rate"],
    );
    for (w, window) in &windows {
        for s in of(&[Kind::Span]) {
            let snap = s.windowed(*w);
            for (q, v) in QUANTILES.into_iter().zip([snap.p50, snap.p95, snap.p99]) {
                let labels = [("name", s.name), ("window", window), ("quantile", q)];
                t.sample("inbox_span_window_seconds", &labels, ns_to_secs(v));
            }
            let labels = [("name", s.name), ("window", window)];
            t.sample("inbox_span_window_rate", &labels, snap.rate_per_sec);
        }
    }

    // -- value histograms (dimensionless) ----------------------------------
    t.types("summary", &["inbox_value"]);
    for s in of(&[Kind::Value]) {
        t.summary("inbox_value", s.name, s.snapshot(), 1.0);
    }
    t.types("gauge", &["inbox_value_window"]);
    for (w, window) in &windows {
        for s in of(&[Kind::Value]) {
            let labels = [("name", s.name), ("window", window), ("quantile", "0.99")];
            t.sample("inbox_value_window", &labels, s.windowed(*w).p99);
        }
    }

    // -- SLOs: read from their `slo:` series; burn rate computed here -------
    t.types(
        "counter",
        &["inbox_slo_good_total", "inbox_slo_events_total"],
    );
    t.types(
        "gauge",
        &["inbox_slo_objective_seconds", "inbox_slo_burn_rate"],
    );
    for (i, (w, window)) in windows.iter().enumerate() {
        for name in slo::names(&table) {
            let Some(s) = slo::slo_snapshot(name, *w) else {
                continue;
            };
            if i == 0 {
                t.sample("inbox_slo_good_total", &[("name", name)], s.good);
                t.sample("inbox_slo_events_total", &[("name", name)], s.total);
                let objective = ns_to_secs(s.objective_ns);
                t.sample("inbox_slo_objective_seconds", &[("name", name)], objective);
            }
            let labels = [("name", name), ("window", window)];
            t.sample("inbox_slo_burn_rate", &labels, s.burn_rate);
        }
    }

    audit_families(&mut t, &windows);
    // Drift statistics are the generic gauges (see `drift`).
    for s in of(&[Kind::Gauge]) {
        t.sample("inbox_audit_drift", &[("stat", s.name)], s.gauge());
    }

    // -- flight recorder ----------------------------------------------------
    t.types("gauge", &["inbox_traces_retained"]);
    let recent = trace::recent_traces().len();
    t.sample("inbox_traces_retained", &[("ring", "recent")], recent);
    let notable = trace::notable_traces().len();
    t.sample("inbox_traces_retained", &[("ring", "notable")], notable);
    t.0
}

/// The shadow-oracle audit, read from its `audit:` series: queue
/// accounting is cumulative; quality series are windowed gauges, so a
/// scrape answers "how honest is the index right now".
fn audit_families(t: &mut Text, windows: &[(u64, String)]) {
    t.types(
        "counter",
        &[
            "inbox_audit_sampled_total",
            "inbox_audit_audited_total",
            "inbox_audit_shed_total",
            "inbox_audit_stale_total",
            "inbox_audit_mismatch_total",
        ],
    );
    t.types(
        "gauge",
        &[
            "inbox_audit_recall",
            "inbox_audit_agreement",
            "inbox_audit_displacement",
            "inbox_audit_degraded",
        ],
    );
    t.types(
        "counter",
        &["inbox_audit_degraded_total", "inbox_audit_burn_total"],
    );
    t.types("gauge", &["inbox_audit_floor", "inbox_audit_drift"]);
    for (i, (w, window)) in windows.iter().enumerate() {
        let a = audit::audit_snapshot(*w);
        if i == 0 {
            t.sample("inbox_audit_sampled_total", &[], a.sampled);
            t.sample("inbox_audit_audited_total", &[], a.audited);
            t.sample("inbox_audit_shed_total", &[], a.shed);
            t.sample("inbox_audit_stale_total", &[], a.stale);
            t.sample("inbox_audit_mismatch_total", &[], a.mismatched);
            t.sample("inbox_audit_degraded", &[], u8::from(a.degraded));
            t.sample("inbox_audit_degraded_total", &[], a.degraded_events);
            t.sample("inbox_audit_burn_total", &[], a.burn);
            if let Some(floor) = a.floor {
                t.sample("inbox_audit_floor", &[], floor);
            }
        }
        let label = [("window", window.as_str())];
        t.sample("inbox_audit_recall", &label, a.window_recall);
        t.sample("inbox_audit_agreement", &label, a.window_agreement);
        let displacement = [a.window_displacement_p50, a.window_displacement_p99];
        for (q, v) in ["0.5", "0.99"].into_iter().zip(displacement) {
            let labels = [("window", window.as_str()), ("quantile", q)];
            t.sample("inbox_audit_displacement", &labels, v);
        }
    }
}

/// Everything the flight recorder currently retains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDump {
    /// Last-N traces, any outcome, oldest first.
    pub recent: Vec<TraceRecord>,
    /// Retained shed/error/slow traces, oldest first.
    pub notable: Vec<TraceRecord>,
}

/// The flight recorder's contents as a JSON document
/// (`{"recent": [...], "notable": [...]}`), for `GET /traces`.
pub fn traces_json() -> String {
    let owned =
        |ring: Vec<std::sync::Arc<TraceRecord>>| ring.iter().map(|r| (**r).clone()).collect();
    let dump = TraceDump {
        recent: owned(trace::recent_traces()),
        notable: owned(trace::notable_traces()),
    };
    serde_json::to_string(&dump).expect("trace dumps always serialise")
}

/// One parsed Prometheus text sample: `(metric, labels, value)`.
pub type ParsedSample = (String, Vec<(String, String)>, f64);

/// Parses one Prometheus text line into `(metric, labels, value)`; `None`
/// for comment/blank lines. Here for the CLI dashboard and the smoke
/// tests, so parsing and rendering can't drift apart.
pub fn parse_line(line: &str) -> Option<ParsedSample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (head, value) = line.rsplit_once(' ')?;
    let value: f64 = value.parse().ok()?;
    let (metric, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((metric, rest)) => {
            let body = rest.strip_suffix('}')?;
            let mut labels = Vec::new();
            for pair in split_labels(body) {
                let (k, v) = pair.split_once('=')?;
                labels.push((k.to_string(), v.trim_matches('"').to_string()));
            }
            (metric.to_string(), labels)
        }
    };
    Some((metric, labels, value))
}

/// Splits a label body on commas outside quotes.
fn split_labels(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn prometheus_text_is_parseable_and_covers_namespaces() {
        crate::counter("test.expo.counter").incr();
        crate::record_duration("test.expo.span", Duration::from_millis(5));
        crate::record_value("test.expo.value", 17);
        crate::rate_counter("test.expo.rate").add(2);
        crate::slo("test.expo.slo", Duration::from_millis(10), 0.99)
            .observe(Duration::from_millis(1));
        crate::set_drift_stat("test.expo.drift", 0.25);

        let text = prometheus_text();
        let mut samples = 0;
        for line in text.lines() {
            if let Some((metric, _, _)) = parse_line(line) {
                assert!(metric.starts_with("inbox_"), "foreign metric {metric}");
                samples += 1;
            }
        }
        assert!(samples > 0, "no samples rendered");
        for needle in [
            "inbox_counter_total{name=\"test.expo.counter\"} 1",
            "inbox_span_seconds_count{name=\"test.expo.span\"} ",
            "inbox_value_count{name=\"test.expo.value\"} ",
            "inbox_counter_window{name=\"test.expo.rate\",window=\"10s\"}",
            "inbox_slo_events_total{name=\"test.expo.slo\"} ",
            "inbox_traces_retained{ring=\"recent\"}",
            "inbox_audit_sampled_total ",
            "inbox_audit_degraded ",
            "inbox_audit_recall{window=\"10s\"}",
            "inbox_audit_recall{window=\"60s\"}",
            "inbox_audit_agreement{window=\"60s\"}",
            "inbox_audit_displacement{window=\"60s\",quantile=\"0.99\"}",
            "inbox_audit_drift{stat=\"test.expo.drift\"} 0.25",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Windowed span series carry both windows.
        assert!(text.contains("name=\"test.expo.span\",window=\"10s\",quantile=\"0.99\""));
        assert!(text.contains("name=\"test.expo.span\",window=\"60s\",quantile=\"0.99\""));
    }

    #[test]
    fn traces_json_round_trips() {
        let t = crate::start_trace("test.expo.trace").unwrap();
        let id = t.id().0;
        t.finish(crate::TraceOutcome::Shed);
        let text = traces_json();
        let dump: TraceDump = serde_json::from_str(&text).unwrap();
        assert!(dump.recent.iter().any(|r| r.id == id));
        assert!(dump.notable.iter().any(|r| r.id == id));
    }

    #[test]
    fn parse_line_handles_labels_and_comments() {
        assert_eq!(parse_line("# TYPE foo counter"), None);
        assert_eq!(parse_line(""), None);
        let (m, l, v) = parse_line("foo_total{name=\"a.b\",window=\"10s\"} 3.5").unwrap();
        assert_eq!(m, "foo_total");
        assert_eq!(
            l,
            vec![
                ("name".to_string(), "a.b".to_string()),
                ("window".to_string(), "10s".to_string())
            ]
        );
        assert_eq!(v, 3.5);
        let (m, l, v) = parse_line("bare_metric 42").unwrap();
        assert_eq!(m, "bare_metric");
        assert!(l.is_empty());
        assert_eq!(v, 42.0);
    }
}
