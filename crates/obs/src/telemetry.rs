//! Training telemetry: structured per-epoch records fanned out to sinks.
//!
//! The trainer emits one [`EpochRecord`] per epoch and one [`RunSummary`]
//! per run (aggregated span/counter statistics). Events flow through a
//! process-global sink list so instrumentation needs no plumbing through
//! call signatures: the CLI installs a console sink and optionally a JSONL
//! file sink; tests install a [`CaptureSink`]. Every record carries a `run`
//! id (from [`next_run_id`]) so concurrent runs in one process — e.g.
//! parallel tests — can be told apart.

use crate::histogram::HistogramSnapshot;
use crate::registry::{self, Kind};
use crate::trace::TraceRecord;
use parking_lot::{Mutex, RwLock};
use serde::value::{Map, Value};
use serde::{DeError, Deserialize, Serialize};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Geometric health of the tag-box population after an epoch.
///
/// Boxes whose offsets collapse toward zero degenerate into points and lose
/// the containment semantics the model depends on; this struct makes that
/// failure mode visible per epoch instead of only as a recall regression.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxHealth {
    /// Mean over boxes of the L1 box size (sum of non-negative offsets).
    pub mean_size: f64,
    /// Fraction of (box, dim) entries with effective offset below 1e-4.
    pub collapsed_frac: f64,
    /// Smallest raw offset entry (negative values act as collapsed dims).
    pub off_min: f64,
    /// Largest raw offset entry.
    pub off_max: f64,
}

impl BoxHealth {
    /// Health of an empty population (no boxes yet).
    pub fn empty() -> Self {
        BoxHealth {
            mean_size: 0.0,
            collapsed_frac: 0.0,
            off_min: 0.0,
            off_max: 0.0,
        }
    }
}

/// One epoch of one training stage, as emitted to telemetry sinks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Run id from [`next_run_id`]; distinguishes concurrent runs.
    pub run: u64,
    /// Training stage (1 = pretraining, 2 = intersection, 3 = recommendation).
    pub stage: u8,
    /// Zero-based epoch index within the stage.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub loss: f64,
    /// Training samples consumed this epoch.
    pub samples: u64,
    /// Training throughput (samples / wall-clock second).
    pub samples_per_sec: f64,
    /// L2 norm of the last batch gradient of the epoch.
    pub grad_norm: f64,
    /// Recall@k from the in-loop evaluation (stage 3 only).
    pub recall: Option<f64>,
    /// NDCG@k from the in-loop evaluation (stage 3 only).
    pub ndcg: Option<f64>,
    /// Tag-box geometry health after the epoch.
    pub box_health: BoxHealth,
    /// Epoch wall-clock in milliseconds.
    pub elapsed_ms: f64,
}

/// Aggregate statistics of one named span over a whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSummary {
    /// Span name as passed to `obs::span`.
    pub name: String,
    /// Number of recorded intervals.
    pub count: u64,
    /// Mean interval (ns).
    pub mean_ns: u64,
    /// Approximate median interval (ns).
    pub p50_ns: u64,
    /// Approximate 95th-percentile interval (ns).
    pub p95_ns: u64,
    /// Approximate 99th-percentile interval (ns).
    pub p99_ns: u64,
}

impl SpanSummary {
    fn from_snapshot(name: String, s: HistogramSnapshot) -> Self {
        SpanSummary {
            name,
            count: s.count,
            mean_ns: s.mean,
            p50_ns: s.p50,
            p95_ns: s.p95,
            p99_ns: s.p99,
        }
    }
}

/// Aggregate statistics of one dimensionless value histogram (batch sizes,
/// queue depths, …) over a whole run. Unlike [`SpanSummary`] the quantiles
/// carry no unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueSummary {
    /// Histogram name as passed to `obs::record_value`.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Mean sample.
    pub mean: u64,
    /// Approximate median sample.
    pub p50: u64,
    /// Approximate 95th-percentile sample.
    pub p95: u64,
    /// Approximate 99th-percentile sample.
    pub p99: u64,
}

impl ValueSummary {
    fn from_snapshot(name: String, s: HistogramSnapshot) -> Self {
        ValueSummary {
            name,
            count: s.count,
            mean: s.mean,
            p50: s.p50,
            p95: s.p95,
            p99: s.p99,
        }
    }
}

/// Final value of one named counter over a whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSummary {
    /// Counter name as passed to `obs::counter`.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// End-of-run aggregation of every span and counter in the registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Run id the summary belongs to.
    pub run: u64,
    /// All spans that recorded at least once, sorted by name.
    pub spans: Vec<SpanSummary>,
    /// All counters ever touched, sorted by name.
    pub counters: Vec<CounterSummary>,
    /// All value histograms that recorded at least once, sorted by name.
    /// Defaults to empty when reading summaries written before this field
    /// existed.
    #[serde(default)]
    pub values: Vec<ValueSummary>,
}

/// A telemetry event, externally tagged in JSON as `{"epoch": {...}}`,
/// `{"summary": {...}}`, or `{"trace": {...}}` so JSONL consumers can
/// dispatch on the single key.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// One training epoch finished.
    Epoch(EpochRecord),
    /// A run finished; aggregate statistics.
    Summary(RunSummary),
    /// A request trace worth keeping (errors are emitted automatically by
    /// the flight recorder); carries the trace id and full span tree.
    Trace(TraceRecord),
}

// The vendored serde derive handles structs and unit enums only, so the
// externally-tagged enum representation is written out by hand.
impl Serialize for TelemetryEvent {
    fn serialize(&self) -> Value {
        let (tag, inner) = match self {
            TelemetryEvent::Epoch(r) => ("epoch", r.serialize()),
            TelemetryEvent::Summary(s) => ("summary", s.serialize()),
            TelemetryEvent::Trace(t) => ("trace", t.serialize()),
        };
        let mut map = Map::new();
        map.insert(tag, inner);
        Value::Object(map)
    }
}

impl Deserialize for TelemetryEvent {
    fn deserialize(value: &Value) -> Result<Self, DeError> {
        let obj = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", value))?;
        if let Some(inner) = obj.get("epoch") {
            return Ok(TelemetryEvent::Epoch(EpochRecord::deserialize(inner)?));
        }
        if let Some(inner) = obj.get("summary") {
            return Ok(TelemetryEvent::Summary(RunSummary::deserialize(inner)?));
        }
        if let Some(inner) = obj.get("trace") {
            return Ok(TelemetryEvent::Trace(TraceRecord::deserialize(inner)?));
        }
        Err(DeError::custom(
            "expected an object tagged `epoch`, `summary`, or `trace`",
        ))
    }
}

/// Receives telemetry events. Implementations must tolerate concurrent calls.
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn emit(&self, event: &TelemetryEvent);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// How much the console sink prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Nothing (errors are the caller's concern, not the sink's).
    Quiet,
    /// One line per epoch and a compact run summary.
    Info,
    /// Everything `Info` prints, plus per-span percentiles and counters.
    Debug,
}

impl std::str::FromStr for Verbosity {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "quiet" => Ok(Verbosity::Quiet),
            "info" => Ok(Verbosity::Info),
            "debug" => Ok(Verbosity::Debug),
            other => Err(format!(
                "unknown log level `{other}` (expected quiet|info|debug)"
            )),
        }
    }
}

/// Human-readable progress lines on stderr (stdout stays machine-parseable).
pub struct ConsoleSink {
    verbosity: Verbosity,
}

impl ConsoleSink {
    /// A console sink printing at `verbosity`.
    pub fn new(verbosity: Verbosity) -> Self {
        ConsoleSink { verbosity }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl Sink for ConsoleSink {
    fn emit(&self, event: &TelemetryEvent) {
        if self.verbosity == Verbosity::Quiet {
            return;
        }
        match event {
            TelemetryEvent::Epoch(r) => {
                let eval = match (r.recall, r.ndcg) {
                    (Some(rec), Some(nd)) => format!("  recall {rec:.4}  ndcg {nd:.4}"),
                    _ => String::new(),
                };
                eprintln!(
                    "stage {} epoch {:>3}  loss {:<10.5} {:>9.0} samp/s  |grad| {:.4}  \
                     box[size {:.3}, collapsed {:.1}%]{}",
                    r.stage,
                    r.epoch,
                    r.loss,
                    r.samples_per_sec,
                    r.grad_norm,
                    r.box_health.mean_size,
                    100.0 * r.box_health.collapsed_frac,
                    eval,
                );
            }
            TelemetryEvent::Summary(s) => {
                eprintln!(
                    "run {} summary: {} spans, {} counters",
                    s.run,
                    s.spans.len(),
                    s.counters.len()
                );
                if self.verbosity >= Verbosity::Debug {
                    for sp in &s.spans {
                        eprintln!(
                            "  span {:<24} n {:>8}  p50 {:>9}  p95 {:>9}  p99 {:>9}",
                            sp.name,
                            sp.count,
                            fmt_ns(sp.p50_ns),
                            fmt_ns(sp.p95_ns),
                            fmt_ns(sp.p99_ns),
                        );
                    }
                    for v in &s.values {
                        eprintln!(
                            "  value {:<25} n {:>8}  p50 {:>9}  p95 {:>9}  p99 {:>9}",
                            v.name, v.count, v.p50, v.p95, v.p99,
                        );
                    }
                    for c in &s.counters {
                        eprintln!("  counter {:<21} {:>10}", c.name, c.value);
                    }
                }
            }
            TelemetryEvent::Trace(t) => {
                eprintln!(
                    "trace {} {} {:?} {} ({} spans)",
                    t.id,
                    t.kind,
                    t.outcome,
                    fmt_ns(t.total_ns),
                    t.spans.len(),
                );
            }
        }
    }
}

/// Appends one JSON object per event to a file (JSON Lines).
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Creates (truncating) `path` and writes every event to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &TelemetryEvent) {
        let line = serde_json::to_string(event).expect("telemetry events always serialise");
        let mut w = self.writer.lock();
        // A failed metrics write should not abort training; drop the line.
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

/// Buffers events in memory; for tests and programmatic consumers.
#[derive(Default)]
pub struct CaptureSink {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl CaptureSink {
    /// An empty capture sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything captured so far.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().clone()
    }
}

impl Sink for CaptureSink {
    fn emit(&self, event: &TelemetryEvent) {
        self.events.lock().push(event.clone());
    }
}

// ---- global sink hub -----------------------------------------------------

static SINKS: RwLock<Vec<Arc<dyn Sink>>> = RwLock::new(Vec::new());
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique run id.
pub fn next_run_id() -> u64 {
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

/// Registers a sink; it receives every subsequent event.
pub fn add_sink(sink: Arc<dyn Sink>) {
    SINKS.write().push(sink);
}

/// Flushes every registered sink.
pub fn flush_sinks() {
    for s in SINKS.read().iter() {
        s.flush();
    }
}

/// Fans an event out to every registered sink (no-op while instrumentation
/// is disabled).
pub fn emit(event: &TelemetryEvent) {
    if !registry::enabled() {
        return;
    }
    for s in SINKS.read().iter() {
        s.emit(event);
    }
}

/// Emits an [`EpochRecord`].
pub fn emit_epoch(record: EpochRecord) {
    emit(&TelemetryEvent::Epoch(record));
}

/// Emits a finished [`TraceRecord`] — called by the flight recorder for
/// every error trace, and available to anything that wants a specific
/// trace on the JSONL record.
pub fn emit_trace(record: &TraceRecord) {
    emit(&TelemetryEvent::Trace(record.clone()));
}

/// Builds a [`RunSummary`] from the registry table and emits it.
pub fn emit_run_summary(run: u64) -> RunSummary {
    let mut summary = RunSummary {
        run,
        spans: Vec::new(),
        counters: Vec::new(),
        values: Vec::new(),
    };
    for s in registry::series().into_iter().filter(|s| !s.owned()) {
        let name = s.name.to_string();
        match s.kind {
            Kind::Counter | Kind::Rate => summary.counters.push(CounterSummary {
                name,
                value: s.count(),
            }),
            Kind::Span => summary
                .spans
                .push(SpanSummary::from_snapshot(name, s.snapshot())),
            Kind::Value => summary
                .values
                .push(ValueSummary::from_snapshot(name, s.snapshot())),
            Kind::Gauge => {}
        }
    }
    emit(&TelemetryEvent::Summary(summary.clone()));
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(run: u64) -> EpochRecord {
        EpochRecord {
            run,
            stage: 3,
            epoch: 7,
            loss: 0.25,
            samples: 1024,
            samples_per_sec: 4096.0,
            grad_norm: 1.5,
            recall: Some(0.41),
            ndcg: Some(0.22),
            box_health: BoxHealth {
                mean_size: 1.2,
                collapsed_frac: 0.05,
                off_min: -0.01,
                off_max: 0.9,
            },
            elapsed_ms: 250.0,
        }
    }

    #[test]
    fn epoch_event_roundtrips_through_json() {
        let event = TelemetryEvent::Epoch(sample_record(9));
        let line = serde_json::to_string(&event).unwrap();
        assert!(line.starts_with("{\"epoch\":"), "tagged line: {line}");
        let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn summary_event_roundtrips_through_json() {
        let event = TelemetryEvent::Summary(RunSummary {
            run: 3,
            spans: vec![SpanSummary {
                name: "grad.stage1".into(),
                count: 10,
                mean_ns: 500,
                p50_ns: 384,
                p95_ns: 768,
                p99_ns: 768,
            }],
            counters: vec![CounterSummary {
                name: "sampler.stage1.samples".into(),
                value: 320,
            }],
            values: vec![ValueSummary {
                name: "serve.batch.size".into(),
                count: 12,
                mean: 6,
                p50: 6,
                p95: 12,
                p99: 12,
            }],
        });
        let line = serde_json::to_string(&event).unwrap();
        assert!(line.starts_with("{\"summary\":"));
        let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn trace_event_roundtrips_through_json() {
        let event = TelemetryEvent::Trace(TraceRecord {
            id: 17,
            kind: "http.request".into(),
            outcome: crate::trace::TraceOutcome::Error,
            total_ns: 123_456,
            spans: vec![crate::trace::TraceSpan {
                id: 0,
                parent: None,
                name: "http.request".into(),
                start_ns: 0,
                dur_ns: 0,
            }],
        });
        let line = serde_json::to_string(&event).unwrap();
        assert!(line.starts_with("{\"trace\":"), "tagged line: {line}");
        let back: TelemetryEvent = serde_json::from_str(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn summary_without_values_field_still_loads() {
        // Summaries written before value histograms existed must read
        // back with that list empty.
        let line = "{\"summary\":{\"run\":4,\"spans\":[],\"counters\":[]}}";
        let back: TelemetryEvent = serde_json::from_str(line).unwrap();
        match back {
            TelemetryEvent::Summary(s) => {
                assert_eq!(s.run, 4);
                assert!(s.values.is_empty());
            }
            other => panic!("expected summary, got {other:?}"),
        }
    }

    #[test]
    fn untagged_object_is_rejected() {
        assert!(serde_json::from_str::<TelemetryEvent>("{\"other\":1}").is_err());
        assert!(serde_json::from_str::<TelemetryEvent>("[1,2]").is_err());
    }

    #[test]
    fn capture_sink_receives_emitted_events() {
        let run = next_run_id();
        let capture = Arc::new(CaptureSink::new());
        add_sink(capture.clone() as Arc<dyn Sink>);
        emit_epoch(sample_record(run));
        emit_epoch(sample_record(run));
        let mine: Vec<_> = capture
            .events()
            .into_iter()
            .filter(|e| matches!(e, TelemetryEvent::Epoch(r) if r.run == run))
            .collect();
        assert_eq!(mine.len(), 2);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("inbox-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.emit(&TelemetryEvent::Epoch(sample_record(1)));
        sink.emit(&TelemetryEvent::Summary(RunSummary {
            run: 1,
            spans: vec![],
            counters: vec![],
            values: vec![],
        }));
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            serde_json::from_str::<TelemetryEvent>(line).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_ids_are_unique() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, b);
    }

    #[test]
    fn verbosity_parses() {
        assert_eq!("quiet".parse::<Verbosity>().unwrap(), Verbosity::Quiet);
        assert_eq!("info".parse::<Verbosity>().unwrap(), Verbosity::Info);
        assert_eq!("debug".parse::<Verbosity>().unwrap(), Verbosity::Debug);
        assert!("loud".parse::<Verbosity>().is_err());
        assert!(Verbosity::Quiet < Verbosity::Info);
    }
}
