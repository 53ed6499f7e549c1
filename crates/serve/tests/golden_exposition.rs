//! Golden test of the observability surface's *shape*: every Prometheus
//! `# TYPE` family and the label-key set of every sample in
//! `GET /metrics`, every JSON key of `GET /stats` and `GET /audit`, and
//! every field name of a serialised `RunSummary`. Values are free to move;
//! names are a contract — the `inbox obs` dashboard, alert rules and bench
//! reports parse them — so a change here must be deliberate.
//!
//! One `#[test]`: the registry is process-global, so the surface is
//! populated once and read once.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_serve::{Engine, HttpServer, ServeConfig, Service};
use serde_json::Value;

const TYPES: &[&str] = &[
    "inbox_alloc_bytes_total counter",
    "inbox_alloc_bytes_window gauge",
    "inbox_alloc_total counter",
    "inbox_alloc_window gauge",
    "inbox_audit_agreement gauge",
    "inbox_audit_audited_total counter",
    "inbox_audit_burn_total counter",
    "inbox_audit_degraded gauge",
    "inbox_audit_degraded_total counter",
    "inbox_audit_displacement gauge",
    "inbox_audit_drift gauge",
    "inbox_audit_floor gauge",
    "inbox_audit_mismatch_total counter",
    "inbox_audit_recall gauge",
    "inbox_audit_sampled_total counter",
    "inbox_audit_shed_total counter",
    "inbox_audit_stale_total counter",
    "inbox_counter_total counter",
    "inbox_counter_window gauge",
    "inbox_slo_burn_rate gauge",
    "inbox_slo_events_total counter",
    "inbox_slo_good_total counter",
    "inbox_slo_objective_seconds gauge",
    "inbox_span_seconds summary",
    "inbox_span_window_rate gauge",
    "inbox_span_window_seconds gauge",
    "inbox_traces_retained gauge",
    "inbox_value summary",
    "inbox_value_window gauge",
];

const SAMPLES: &[&str] = &[
    "inbox_alloc_bytes_total{scope}",
    "inbox_alloc_bytes_window{window}",
    "inbox_alloc_total{scope}",
    "inbox_alloc_window{window}",
    "inbox_audit_agreement{window}",
    "inbox_audit_audited_total{}",
    "inbox_audit_burn_total{}",
    "inbox_audit_degraded_total{}",
    "inbox_audit_degraded{}",
    "inbox_audit_displacement{quantile,window}",
    "inbox_audit_drift{stat}",
    "inbox_audit_floor{}",
    "inbox_audit_mismatch_total{}",
    "inbox_audit_recall{window}",
    "inbox_audit_sampled_total{}",
    "inbox_audit_shed_total{}",
    "inbox_audit_stale_total{}",
    "inbox_counter_total{name}",
    "inbox_counter_window{name,window}",
    "inbox_slo_burn_rate{name,window}",
    "inbox_slo_events_total{name}",
    "inbox_slo_good_total{name}",
    "inbox_slo_objective_seconds{name}",
    "inbox_span_seconds_count{name}",
    "inbox_span_seconds_sum{name}",
    "inbox_span_seconds{name,quantile}",
    "inbox_span_window_rate{name,window}",
    "inbox_span_window_seconds{name,quantile,window}",
    "inbox_traces_retained{ring}",
    "inbox_value_count{name}",
    "inbox_value_window{name,quantile,window}",
    "inbox_value{name,quantile}",
];

const STATS_KEYS: &[&str] = &[
    "audit_audited",
    "audit_backlog",
    "audit_degraded",
    "audit_sampled",
    "audit_window_recall",
    "cache_hits",
    "cached_boxes",
    "evictions",
    "fallbacks",
    "ingests",
    "queue_depth",
    "queue_depth.count",
    "queue_depth.mean",
    "queue_depth.p50",
    "queue_depth.p95",
    "queue_depth.p99",
    "queued",
    "rebuilds",
    "requests",
    "sheds",
];

const AUDIT_KEYS: &[&str] = &[
    "audit",
    "audit.agreement",
    "audit.audited",
    "audit.burn",
    "audit.degraded",
    "audit.degraded_events",
    "audit.floor",
    "audit.mismatched",
    "audit.recall",
    "audit.sampled",
    "audit.shed",
    "audit.stale",
    "audit.window_agreement",
    "audit.window_audited",
    "audit.window_burn",
    "audit.window_displacement_p50",
    "audit.window_displacement_p99",
    "audit.window_mismatched",
    "audit.window_recall",
    "audit.window_secs",
    "backlog",
    "drift",
];

/// Drift gauges the audit worker may publish (plus the test's own).
const DRIFT_STATS: &[&str] = &[
    "golden.drift",
    "ingest.untagged_fraction",
    "psi.candidates",
    "psi.score",
];

const SUMMARY_KEYS: &[&str] = &[
    "counters",
    "counters.name",
    "counters.value",
    "run",
    "spans",
    "spans.count",
    "spans.mean_ns",
    "spans.name",
    "spans.p50_ns",
    "spans.p95_ns",
    "spans.p99_ns",
    "values",
    "values.count",
    "values.mean",
    "values.name",
    "values.p50",
    "values.p95",
    "values.p99",
];

fn get(http: &HttpServer, path: &str) -> String {
    let mut stream = TcpStream::connect(http.local_addr()).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200"), "{path}: {response}");
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default()
}

/// Every key path in `value`: objects contribute `prefix.key`, arrays
/// contribute their elements' paths under the array's own path.
fn key_paths(value: &Value, prefix: &str, out: &mut BTreeSet<String>) {
    if let Some(obj) = value.as_object() {
        for (k, v) in obj.iter() {
            let path = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            key_paths(v, &path, out);
            out.insert(path);
        }
    } else if let Some(items) = value.as_array() {
        for v in items {
            key_paths(v, prefix, out);
        }
    }
}

fn assert_set(what: &str, actual: &BTreeSet<String>, expected: &[&str]) {
    let expected: BTreeSet<String> = expected.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual,
        &expected,
        "{what} changed\n  added:   {:?}\n  removed: {:?}",
        actual.difference(&expected).collect::<Vec<_>>(),
        expected.difference(actual).collect::<Vec<_>>()
    );
}

#[test]
fn exposition_names_are_pinned() {
    inbox_obs::set_enabled(true);
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 5);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let serve_cfg = ServeConfig {
        audit_sample: 1,
        audit_floor: Some(0.5),
        ..ServeConfig::default()
    };
    let model = InBoxModel::new(sizes, &cfg);
    let engine = Engine::new(model, cfg, ds.kg.clone(), &ds.train, &serve_cfg);
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    // Traffic through every serving layer, then every instrument kind the
    // serving path does not produce itself.
    for user in 0..8u32 {
        service
            .recommend(inbox_kg::UserId(user), 5)
            .expect("recommend");
    }
    service
        .ingest(inbox_kg::UserId(0), inbox_kg::ItemId(1))
        .expect("ingest");
    inbox_obs::counter("golden.counter").incr();
    inbox_obs::rate_counter("golden.rate").incr();
    inbox_obs::record_duration("golden.span", Duration::from_micros(30));
    inbox_obs::record_value("golden.value", 3);
    inbox_obs::slo("golden.slo", Duration::from_millis(1), 0.9).observe(Duration::ZERO);
    drop(inbox_obs::alloc_scope("golden.alloc"));
    inbox_obs::set_drift_stat("golden.drift", 0.5);
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.audit_backlog() > 0 || inbox_obs::audit_snapshot(60).audited < 8 {
        assert!(Instant::now() < deadline, "audit worker never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
    // /stats itself serves over HTTP, so its traced request leaves a trace.
    let stats = get(&http, "/stats");

    // --- /metrics --------------------------------------------------------
    let text = get(&http, "/metrics");
    let types: BTreeSet<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(str::to_string)
        .collect();
    assert_set("# TYPE families", &types, TYPES);
    let samples: BTreeSet<String> = text
        .lines()
        .filter_map(inbox_obs::expo::parse_line)
        .map(|(metric, labels, _)| {
            let mut keys: Vec<String> = labels.into_iter().map(|(k, _)| k).collect();
            keys.sort();
            format!("{metric}{{{}}}", keys.join(","))
        })
        .collect();
    assert_set("sample label-key sets", &samples, SAMPLES);

    // --- /stats and /audit ---------------------------------------------------
    let mut keys = BTreeSet::new();
    key_paths(
        &serde_json::from_str::<Value>(&stats).expect("/stats is JSON"),
        "",
        &mut keys,
    );
    assert_set("/stats keys", &keys, STATS_KEYS);

    let audit: Value = serde_json::from_str(&get(&http, "/audit")).expect("/audit is JSON");
    let mut keys = BTreeSet::new();
    key_paths(&audit, "", &mut keys);
    let drift: BTreeSet<String> = keys
        .iter()
        .filter_map(|k| k.strip_prefix("drift."))
        .map(str::to_string)
        .collect();
    keys.retain(|k| !k.starts_with("drift."));
    assert_set("/audit keys", &keys, AUDIT_KEYS);
    assert!(drift.contains("golden.drift"), "drift gauges: {drift:?}");
    assert!(
        drift.iter().all(|d| DRIFT_STATS.contains(&d.as_str())),
        "unknown drift gauge in {drift:?}"
    );

    // --- RunSummary ------------------------------------------------------------
    let summary = inbox_obs::emit_run_summary(inbox_obs::next_run_id());
    let mut keys = BTreeSet::new();
    key_paths(
        &serde_json::to_value(&summary).expect("summary serialises"),
        "",
        &mut keys,
    );
    assert_set("RunSummary fields", &keys, SUMMARY_KEYS);

    http.shutdown();
    service.shutdown();
}
