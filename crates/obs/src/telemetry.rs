//! Training telemetry: structured per-epoch records written to one
//! process-wide output.
//!
//! The trainer emits one [`EpochRecord`] per epoch and one [`RunSummary`]
//! per run (aggregated span/counter statistics); the flight recorder emits
//! every error trace. Events go to the output [`install`]ed once per
//! process, so instrumentation needs no plumbing through call signatures:
//! progress lines on stderr at a [`Verbosity`] and, optionally, a JSONL
//! file with one event per line. Every record carries a `run` id (from
//! [`next_run_id`]) so concurrent runs in one process — e.g. parallel
//! tests — can be told apart.

use crate::histogram::HistogramSnapshot;
use crate::registry::{self, Kind};
use crate::trace::TraceRecord;
use parking_lot::Mutex;
use serde::value::{Map, Value};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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

/// One epoch of one training stage, as emitted to the telemetry output.
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
    pub values: Vec<ValueSummary>,
}

/// A telemetry event, externally tagged in JSON as `{"epoch": {...}}`,
/// `{"summary": {...}}`, or `{"trace": {...}}` so JSONL consumers can
/// dispatch on the single key.
enum TelemetryEvent<'a> {
    /// One training epoch finished.
    Epoch(&'a EpochRecord),
    /// A run finished; aggregate statistics.
    Summary(&'a RunSummary),
    /// A request trace worth keeping (errors are emitted automatically by
    /// the flight recorder); carries the trace id and full span tree.
    Trace(&'a TraceRecord),
}

// The vendored serde derive handles structs and unit enums only, so the
// externally-tagged enum representation is written out by hand.
impl Serialize for TelemetryEvent<'_> {
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

/// How much the stderr output prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Nothing (errors are the caller's concern, not telemetry's).
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

/// Human-readable progress lines on stderr (stdout stays machine-parseable).
fn print_to_stderr(level: Verbosity, event: &TelemetryEvent) {
    if level == Verbosity::Quiet {
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
            if level >= Verbosity::Debug {
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

// ---- the process-wide output ---------------------------------------------

/// Where events go: stderr at `level`, plus the JSONL file if one was given.
struct Output {
    level: Verbosity,
    jsonl: Option<Mutex<File>>,
}

static OUTPUT: OnceLock<Output> = OnceLock::new();
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique run id.
pub fn next_run_id() -> u64 {
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

/// Installs the process-wide telemetry output: progress lines on stderr at
/// `level` and, when `metrics_out` is given, a JSONL file (created or
/// truncated) receiving one JSON object per event. Until it is called,
/// events go nowhere. Installs once per process; a second call fails with
/// [`io::ErrorKind::AlreadyExists`].
pub fn install(level: Verbosity, metrics_out: Option<&Path>) -> io::Result<()> {
    if OUTPUT.get().is_some() {
        return Err(already_installed());
    }
    let jsonl = metrics_out.map(File::create).transpose()?.map(Mutex::new);
    OUTPUT
        .set(Output { level, jsonl })
        .map_err(|_| already_installed())
}

fn already_installed() -> io::Error {
    io::Error::new(
        io::ErrorKind::AlreadyExists,
        "telemetry output already installed",
    )
}

/// The installed output's level (`Info` before [`install`]).
pub fn verbosity() -> Verbosity {
    OUTPUT.get().map_or(Verbosity::Info, |o| o.level)
}

/// Writes an event to the installed output (no-op before [`install`] and
/// while instrumentation is disabled).
fn emit(event: &TelemetryEvent) {
    let Some(out) = OUTPUT.get() else {
        return;
    };
    if !registry::enabled() {
        return;
    }
    print_to_stderr(out.level, event);
    if let Some(file) = &out.jsonl {
        let mut line = serde_json::to_string(event).expect("telemetry events always serialise");
        line.push('\n');
        // One unbuffered write per line: the line is in the file when
        // `emit` returns, so a process that never exits (`inbox serve`)
        // loses nothing when killed. A failed metrics write should not
        // abort training; drop the line.
        let _ = file.lock().write_all(line.as_bytes());
    }
}

/// Emits an [`EpochRecord`].
pub fn emit_epoch(record: EpochRecord) {
    emit(&TelemetryEvent::Epoch(&record));
}

/// Emits a finished [`TraceRecord`] — called by the flight recorder for
/// every error trace, and available to anything that wants a specific
/// trace on the JSONL record.
pub fn emit_trace(record: &TraceRecord) {
    emit(&TelemetryEvent::Trace(record));
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
    emit(&TelemetryEvent::Summary(&summary));
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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

    /// The payload under `tag` of a line holding exactly one tagged event.
    fn tagged(line: &str, tag: &str) -> Value {
        let value: Value = serde_json::from_str(line).unwrap();
        let obj = value.as_object().expect("an event line is an object");
        assert_eq!(obj.len(), 1, "one tag per line: {line}");
        obj.get(tag)
            .unwrap_or_else(|| panic!("no `{tag}` in {line}"))
            .clone()
    }

    /// This test binary's JSONL output, installed on first use. The output
    /// is process-wide, so every test shares it and picks its own lines
    /// out by run id.
    fn installed_jsonl() -> &'static Path {
        static PATH: OnceLock<PathBuf> = OnceLock::new();
        PATH.get_or_init(|| {
            let path = std::env::temp_dir()
                .join(format!("inbox-obs-telemetry-{}.jsonl", std::process::id()));
            install(Verbosity::Quiet, Some(&path)).unwrap();
            path
        })
    }

    /// The `tag` payloads of run `run` in the installed output, read
    /// straight from disk.
    fn lines_of_run(tag: &str, run: u64) -> Vec<Value> {
        let text = std::fs::read_to_string(installed_jsonl()).unwrap();
        text.lines()
            .filter(|line| line.starts_with(&format!("{{\"{tag}\":")))
            .map(|line| tagged(line, tag))
            .filter(|v| v.as_object().and_then(|o| o.get("run")?.as_f64()) == Some(run as f64))
            .collect()
    }

    #[test]
    fn epoch_event_roundtrips_through_json() {
        let record = sample_record(9);
        let line = serde_json::to_string(&TelemetryEvent::Epoch(&record)).unwrap();
        assert!(line.starts_with("{\"epoch\":"), "tagged line: {line}");
        let back: EpochRecord = serde_json::from_value(&tagged(&line, "epoch")).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn summary_event_roundtrips_through_json() {
        let summary = RunSummary {
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
        };
        let line = serde_json::to_string(&TelemetryEvent::Summary(&summary)).unwrap();
        assert!(line.starts_with("{\"summary\":"));
        let back: RunSummary = serde_json::from_value(&tagged(&line, "summary")).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn trace_event_roundtrips_through_json() {
        let trace = TraceRecord {
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
        };
        let line = serde_json::to_string(&TelemetryEvent::Trace(&trace)).unwrap();
        assert!(line.starts_with("{\"trace\":"), "tagged line: {line}");
        let back: TraceRecord = serde_json::from_value(&tagged(&line, "trace")).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn installed_output_holds_each_line_without_a_flush() {
        installed_jsonl();
        let run = next_run_id();
        emit_epoch(sample_record(run));
        // Read straight back: nothing flushes between the emit and here.
        let epochs = lines_of_run("epoch", run);
        assert_eq!(epochs.len(), 1);
        let back: EpochRecord = serde_json::from_value(&epochs[0]).unwrap();
        assert_eq!(back, sample_record(run));

        emit_epoch(sample_record(run));
        let summary = emit_run_summary(run);
        assert_eq!(lines_of_run("epoch", run).len(), 2);
        let summaries = lines_of_run("summary", run);
        assert_eq!(summaries.len(), 1);
        let back: RunSummary = serde_json::from_value(&summaries[0]).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn output_installs_once() {
        installed_jsonl();
        let err = install(Verbosity::Debug, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(verbosity(), Verbosity::Quiet);
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
